"""The step layer: what one time step of every marcher reads and applies.

`StepOperators` evaluates the model at one time and measure.  What a step
reads of the model apart from the measure (sigma, lam and its kill factor,
b1_factor, the minimizer bound to the node's time, and the diffusion
matrix) lives in a `NodeInputs` for that time node, and the control box
is the model's one pair `spec.control_box`; the quadrature weights and
e^{-y} it reads from the `Grid`, which builds them once; every half-plane
step passes its density as a `Density2D` and reads nu as `s_map` of it.
While `step_table(spec, grid)` is active, as it is for the whole of a
`solve_mfc` or `solve_mfc_2d` call, every `StepOperators` of that model and grid at one
of its time nodes shares the table's `NodeInputs`, so each member is
evaluated once per node for the call, not once per sweep and marcher; the
table goes when the call returns.  Elsewhere each `StepOperators` makes
its own.

The stencils act on (nx,) fields on the line or (nx, m) fields on the
half-plane along axis 0, with face drifts of shape (nx-1,), (nx-1, 1) or
(nx-1, m) that broadcast along y.  Each transport stencil sits beside its
transpose, so a fixed-feedback backward step is the algebraic transpose of
a forward step.  The stencils that the inner iterations and the forward
step on the line call write into an `out` array when given one, and the
upwind pair keeps its face temporaries in a `work` pair.

`diffuse` solves with scipy's LAPACK routines `dgtsv`, `dpttrf` and
`dpttrs`, read from its compiled `scipy.linalg._flapack` module; mfckill
never imports `scipy.linalg`, whose package init (it imports `numpy.f2py`
and `numpy.testing`) would cost every process about 0.2 s and 25 MB.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .errors import GridMismatch, NonfiniteInput
from .hamiltonians import all_finite, bound_minimizer, nonlocal_kernels
from .measures import Density2D, NuHandle, s_map
from .model import Grid, ModelSpec

if TYPE_CHECKING:
    from .forward import CommonNoisePath

__all__ = [
    "StepOperators", "NodeInputs", "Tridiagonal", "step_table", "noise_offsets", "diffuse",
    "face_average", "y_column", "central_grad", "weighted_l2_sq", "shift_density",
    "face_flux_divergence", "upwind_flux_divergence", "upwind_transport_adjoint",
    "upwind_flux_derivative", "y_transport", "y_transport_adjoint_rate",
]


def _load_flapack():
    """`scipy.linalg._flapack`, the compiled module whose routines
    `scipy.linalg.lapack` exports: the loaded one if a caller imported
    `scipy.linalg`, else loaded from its file without that package's init,
    which the extension does not need."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = Path(scipy.__path__[0]) / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            spec = spec_from_file_location(name, path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled _flapack module in {directory}")


_flapack = _load_flapack()
dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs


class _lazy:
    """A member computed on first read and stored on the instance, where
    later reads find it: `functools.cached_property` without the lock that
    Python 3.11 takes on every first read."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class NodeInputs:
    """What a step at time `t` reads from the model apart from the measure,
    each member evaluated on first read and kept.

    The diffusion coefficient is (sigma^2 + sigma0^2)/2, or sigma^2/2 when
    a common-noise path moves the density instead (`noisy`).
    `diffusion(noisy)` is I - dt L as a `Tridiagonal`, L the conservative
    centered (a rho)_xx under zero-flux closure; its transpose is the
    centered a u_xx.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float):
        self.spec, self.grid, self.t = spec, grid, t
        self._diffusion = {}

    def _coeff(self, fn) -> np.ndarray:
        return np.asarray(fn(self.t, self.grid.x), dtype=float)

    @_lazy
    def sigma_sq(self) -> np.ndarray:
        return self._coeff(self.spec.sigma) ** 2

    def diffusion(self, noisy: bool) -> Tridiagonal:
        """The implicit diffusion matrix."""
        out = self._diffusion.get(noisy)
        if out is None:
            if noisy:
                a = 0.5 * self.sigma_sq
            else:
                a = 0.5 * (self.sigma_sq + self.spec.sigma0(self.t) ** 2)
            if not np.all(np.isfinite(a)):
                raise NonfiniteInput("diffusion coefficient is not finite")
            r = self.grid.dt(self.spec.T) / self.grid.dx**2
            diag = 1.0 + 2.0 * r * a
            diag[0] = 1.0 + r * a[0]
            diag[-1] = 1.0 + r * a[-1]
            # row i couples rho_{i+1} through a_{i+1}; the transpose swaps
            # the off-diagonals
            out = self._diffusion[noisy] = Tridiagonal(-r * a[:-1], diag, -r * a[1:])
        return out

    @_lazy
    def lam(self) -> np.ndarray:
        return self._coeff(self.spec.lam)

    @_lazy
    def kill(self) -> np.ndarray:
        """Exact killing factor e^{-lam dt} of the step."""
        return np.exp(-self.lam * self.grid.dt(self.spec.T))

    @_lazy
    def fac(self) -> np.ndarray:
        return self._coeff(self.spec.b1_factor)

    @_lazy
    def minimize(self):
        """The box-constrained minimizer at this time (`bound_minimizer`)."""
        return bound_minimizer(self.spec, self.t)

    @_lazy
    def columns(self) -> tuple:
        """x and b1_factor as (nx, 1) columns that broadcast along y, and
        e^{-y}: what a half-plane control and its cost read."""
        return self.grid.x[:, None], self.fac[:, None], self.grid.ey


# (spec, grid, {t: NodeInputs}) of the active `step_table`, or None
_ACTIVE_TABLE: ContextVar[tuple | None] = ContextVar("step_table", default=None)


@contextmanager
def step_table(spec: ModelSpec, grid: Grid):
    """Within the block, every `StepOperators` of this `spec` and `grid`
    object at one of the grid's time nodes reads the same `NodeInputs`;
    nothing of it outlives the block.  The model must not change inside
    it."""
    nodes = {t: NodeInputs(spec, grid, t) for t in grid.times(spec.T)}
    token = _ACTIVE_TABLE.set((spec, grid, nodes))
    try:
        yield
    finally:
        _ACTIVE_TABLE.reset(token)


def _node_inputs(spec: ModelSpec, grid: Grid, t: float) -> NodeInputs:
    """The active table's `NodeInputs` for (spec, grid, t), or a new one."""
    table = _ACTIVE_TABLE.get()
    if table is not None and table[0] is spec and table[1] is grid:
        node = table[2].get(t)
        if node is not None:
            return node
    return NodeInputs(spec, grid, t)


def _from_node(name: str) -> property:
    """A `StepOperators` member read from its `NodeInputs`."""
    return property(attrgetter("node." + name))


class StepOperators:
    """What one time step of a solver reads from the model.

    The measure-free members (`lam`, `kill`, `fac` and `matrix`)
    come from the step's `NodeInputs`, e^{-y} and the survival quadrature
    from the grid.  The step itself evaluates what reads its measure (`nu`,
    or the survival marginal of a joint density `mu`): b0, f0, the
    nonlocal kernels and their Df0 term, on first use, and reuses them in
    every inner iteration.  (nx,) fields live on the line, (nx, m) fields
    on the half-plane, where f carries the factor e^{-y}.  `matrix` is the
    implicit diffusion matrix, or its transpose when `transpose` is set,
    from the same coefficients.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float,
                 nu: NuHandle | None = None,
                 noise: CommonNoisePath | None = None, transpose: bool = False,
                 mu: Density2D | None = None):
        self.spec, self.grid, self.t, self.mu = spec, grid, t, mu
        self.x, self.dx, self.dt = grid.x, grid.dx, grid.dt(spec.T)
        self.nu = s_map(mu) if mu is not None else nu
        self.noisy = noise is not None
        self.transpose = transpose
        self.node = _node_inputs(spec, grid, t)

    lam = _from_node("lam")
    kill = _from_node("kill")
    fac = _from_node("fac")

    @_lazy
    def matrix(self) -> Tridiagonal:
        """The implicit diffusion matrix, or its transpose."""
        matrix = self.node.diffusion(self.noisy)
        return matrix.transposed() if self.transpose else matrix

    def _coeff(self, fn, *args) -> np.ndarray:
        return np.asarray(fn(self.t, self.x, *args), dtype=float)

    @_lazy
    def b0(self) -> np.ndarray:
        return self._coeff(self.spec.b0, self.nu)

    @_lazy
    def f0(self) -> np.ndarray:
        return self._coeff(self.spec.f0, self.nu)

    def drift(self, g: np.ndarray, out: np.ndarray | None = None,
              rows: slice = slice(None)) -> np.ndarray:
        """Node drift b0 + b1_factor g for a (nx,) or (nx, m) feedback, or
        for a feedback on the nodes `rows` only, written into `out` when
        given."""
        if g.ndim == 1:
            b0, fac = self.b0, self.fac
        else:
            b0, fac = self.b0[:, None], self.node.columns[1]
        return np.add(b0[rows], np.multiply(fac[rows], g, out=out), out=out)

    def face_drift(self, g: np.ndarray) -> np.ndarray:
        return face_average(self.drift(g))

    def cost(self, g: np.ndarray) -> np.ndarray:
        """Node running cost f0 + f1(g) for a (nx,) or (nx, m) feedback."""
        return (self.f0 if g.ndim == 1 else self.f0[:, None]) + self.control_cost(g)

    def control_cost(self, g: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Node control cost f1(g) for a (nx,) or (nx, m) feedback, or for
        one on the nodes `rows` only."""
        x = self.x if g.ndim == 1 else self.node.columns[0]
        return np.asarray(self.spec.f1(self.t, x[rows], g), dtype=float)

    def control(self, p: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Pointwise minimizer over the box of b1_factor h p + f1(h), with
        f1 scaled by e^{-y} for an (nx, ny) gradient, or for a gradient on
        the nodes `rows` only.  The result is a new array."""
        x, fac, scale = (self.x, self.fac, 1.0) if p.ndim == 1 else self.node.columns
        return self.node.minimize(x[rows], p, fac[rows], scale)

    def k_tilde(self, p: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Running Hamiltonian b(h) p + e^{-y} (f0 + f1(h)) on the half-plane."""
        return self.drift(h) * p + self.grid.ey * self.cost(h)

    @_lazy
    def kernels(self) -> tuple:
        """(Db0, Df0) at the step's measure on nodes x nodes."""
        return nonlocal_kernels(self.t, self.x, self.nu, self.x, self.spec)

    @_lazy
    def df0_term(self):
        """<nu, Df0> at the step's measure on the line; with a joint `mu`,
        nu is its survival marginal, so this is <mu, e^{-y'} Df0> over
        y' >= 0.  0.0 for a model without Df0."""
        kf = self.kernels[1]
        return 0.0 if kf is None else self.nu.values * self.nu.weights @ kf

    @_lazy
    def db0_matrix(self) -> np.ndarray | None:
        """The (nx, nx) matrix M with p @ M = <nu, Db0 p> on the line; None
        for a model without Db0."""
        kb = self.kernels[0]
        return None if kb is None else (self.nu.values * self.nu.weights)[:, None] * kb

    def nonlocal_term(self, p: np.ndarray):
        """<nu, Db0 p> + <nu, Df0> at the step's nu for a (nx,) gradient;
        with a joint `mu`, e^{-y} (<mu, Db0 p> + <mu, e^{-y'} Df0>) over
        y' >= 0 (the y weights `grid.wy`) on the half-plane for an (nx, ny)
        gradient.  Zeros of the gradient's shape for a model without the
        kernels."""
        if not self.spec.coupled:
            return np.zeros(p.shape)
        kb, wx = self.kernels[0], self.nu.weights
        if self.mu is None:
            return (0.0 if kb is None else self.nu.values * p * wx @ kb) + self.df0_term
        vals = 0.0 if kb is None else ((self.mu.values * p) @ self.grid.wy) * wx @ kb
        return self.grid.ey * (vals + self.df0_term)[:, None]


def noise_offsets(spec: ModelSpec, grid: Grid,
                  noise: CommonNoisePath | None) -> np.ndarray | None:
    """sigma0(t_k) dW_k for each step k < nt: how far the common noise
    moves the state over step k; None without a noise path.  Raises
    `GridMismatch` unless the path has one increment per time step, and
    `NonfiniteInput` when an offset is not finite (a NaN or infinite
    increment or sigma0(t_k))."""
    if noise is None:
        return None
    increments = noise.increments
    if increments.size != grid.nt:
        raise GridMismatch("noise path length does not match grid.nt")
    times = grid.times(spec.T)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        offsets = np.array([spec.sigma0(times[k]) * increments[k] for k in range(grid.nt)])
    bad = np.flatnonzero(~np.isfinite(offsets))
    if bad.size:
        k = int(bad[0])
        raise NonfiniteInput(f"common-noise offset at step {k} is not finite: "
                             f"sigma0 = {spec.sigma0(times[k])}, dW = {increments[k]}")
    return offsets


class Tridiagonal:
    """A tridiagonal matrix by its `lower`, `main` and `upper` diagonals.

    `ldl` holds the L D L^T factors (d, e) from `dpttrf` when the matrix
    is symmetric positive definite, as the implicit diffusion matrix is
    when the diffusion coefficient is constant in x (it is diagonally
    dominant with a positive diagonal), and None otherwise.  `diffuse`
    then solves with `dpttrs`, whose back substitution keeps the division
    out of the recurrence, at about 60% of the time of `dgtsv`'s
    elimination for the (nx, ny) right-hand sides of the half-plane.
    """

    __slots__ = ("lower", "main", "upper", "ldl")

    def __init__(self, lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
        self.lower, self.main, self.upper = lower, main, upper
        self.ldl = None
        if np.array_equal(lower, upper):
            d, e, info = dpttrf(main, lower)
            if info == 0:
                self.ldl = (d, e)

    def transposed(self) -> Tridiagonal:
        """The transpose; a symmetric matrix is its own."""
        if self.ldl is not None:
            return self
        return Tridiagonal(self.upper, self.main, self.lower)


def diffuse(values: np.ndarray, matrix: Tridiagonal) -> np.ndarray:
    """Solve one implicit diffusion step with a `StepOperators.matrix`."""
    if not all_finite(values):
        raise NonfiniteInput("diffusion step received non-finite values")
    if matrix.ldl is not None:
        out, info = dpttrs(*matrix.ldl, values)
    else:
        *_, out, info = dgtsv(matrix.lower, matrix.main, matrix.upper, values)
    if info != 0:
        raise LinAlgError(f"singular diffusion matrix (info {info})")
    return out


def face_average(b_nodes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Node values averaged onto the nx - 1 cell faces (axis 0), written
    into `out` when given."""
    return np.multiply(0.5, np.add(b_nodes[1:], b_nodes[:-1], out=out), out=out)


def y_column(values: np.ndarray) -> np.ndarray:
    """View a (nx,) feedback as (nx, 1) so it broadcasts along y."""
    return values[:, None] if values.ndim == 1 else values


def central_grad(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Centered interior differences, one-sided at the ends (axis 0),
    written into `out` when given."""
    if out is None:
        out = np.empty_like(u)
    inner = np.subtract(u[2:], u[:-2], out=out[1:-1])
    inner /= 2.0 * dx
    out[0] = (u[1] - u[0]) / dx
    out[-1] = (u[-1] - u[-2]) / dx
    return out


def weighted_l2_sq(vals: np.ndarray, wx: np.ndarray, wy: np.ndarray | None,
                   out: np.ndarray | None = None) -> float:
    """Trapezoid L2 norm squared of a (nx,) profile, or (nx, ny) with `wy`;
    the squares go into `out` when given."""
    sq = np.square(vals, out=out)
    if wy is None:
        return float(sq @ wx)
    return float(wx @ sq @ wy)


def _shifted(values: np.ndarray, m: int) -> np.ndarray:
    """values[i - m] along axis 0, zero where i - m falls outside."""
    if m == 0:
        return values
    out = np.zeros_like(values)
    if m > 0:
        out[m:] = values[:-m]
    else:
        out[:m] = values[-m:]
    return out


def shift_density(values: np.ndarray, offset: float, dx: float) -> np.ndarray:
    """Shift a sampled profile by `offset` (new(x) = old(x - offset)).

    Linear interpolation between nodes; inflow cells are zero-filled, so
    mass can only leave through the outflow boundary.  Works on 1d arrays
    or on the x axis (axis 0) of 2d arrays.
    """
    s = offset / dx
    k = int(np.floor(s))
    frac = s - k
    return (1.0 - frac) * _shifted(values, k) + frac * _shifted(values, k + 1)


def face_flux_divergence(flux: np.ndarray, dx: float,
                         out: np.ndarray | None = None) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx with zero-flux outer faces, written
    into `out` when given."""
    if out is None:
        out = np.zeros((flux.shape[0] + 1, *flux.shape[1:]))
    else:
        out.fill(0.0)
    out[:-1] += flux
    out[1:] -= flux
    out /= -dx
    return out


def upwind_flux_divergence(values: np.ndarray, b_face: np.ndarray, dx: float,
                           out: np.ndarray | None = None,
                           work: tuple | None = None) -> np.ndarray:
    """Conservative upwind d/dx(b rho) with zero-flux outer faces: the
    interface flux is b^+ rho_left + b^- rho_right.  Written into `out`
    when given, with the two face fluxes in `work`, a pair of arrays of
    the faces' shape."""
    pos, neg = (None, None) if work is None else work
    flux = np.multiply(np.maximum(b_face, 0.0, out=pos), values[:-1], out=pos)
    flux += np.multiply(np.minimum(b_face, 0.0, out=neg), values[1:], out=neg)
    return face_flux_divergence(flux, dx, out)


def upwind_transport_adjoint(u: np.ndarray, b_face: np.ndarray, dx: float,
                             out: np.ndarray | None = None,
                             work: tuple | None = None) -> np.ndarray:
    """Exact transpose of `upwind_flux_divergence`: an upwind b du/dx,
    written into `out` when given, with the differences and the negative
    drift in `work`, a pair of arrays of the faces' shape."""
    diff, neg = (None, None) if work is None else work
    du = np.subtract(u[1:], u[:-1], out=diff)
    du /= dx
    if out is None:
        out = np.empty_like(u)
    outflow = np.maximum(b_face, 0.0, out=out[:-1])
    outflow *= du
    out[-1] = 0.0
    du *= np.minimum(b_face, 0.0, out=neg)
    out[1:] += du
    return out


def upwind_flux_derivative(values: np.ndarray, b_face: np.ndarray,
                           db_face: np.ndarray, dx: float) -> np.ndarray:
    """Derivative of `upwind_flux_divergence(values, b_face, dx)` along the
    face drift direction `db_face`: db_face times the upwind-side values."""
    return face_flux_divergence(
        db_face * np.where(b_face > 0.0, values[:-1], values[1:]), dx)


def y_transport(values: np.ndarray, lam_nodes: np.ndarray, dt: float,
                dy: float) -> np.ndarray:
    """Explicit upwind transport toward larger y at rate lam(x) >= 0.

    Zero inflow at the bottom; the top cell collects its incoming flux
    so total mass is conserved exactly.
    """
    c = (dt / dy) * lam_nodes[:, None]
    out = values * (1.0 - c)
    out[:, 1:] += c * values[:, :-1]
    out[:, -1] += c[:, 0] * values[:, -1]  # no outflow above the top cell
    return out


def y_transport_adjoint_rate(w: np.ndarray, lam_dy: np.ndarray, ghost_decay: float,
                             out: np.ndarray | None = None) -> np.ndarray:
    """(lam(x) / dy) * (w(y+dy) - w(y)), `lam_dy` the (nx, 1) column
    lam / dy, with the ghost above the top row taken as ghost_decay *
    w(top); written into `out` when given.  dt times it, plus w, is the
    transpose of `y_transport` applied to w when ghost_decay is 1."""
    upper = np.empty_like(w) if out is None else out
    np.subtract(w[:, 1:], w[:, :-1], out=upper[:, :-1])
    top = np.multiply(ghost_decay, w[:, -1], out=upper[:, -1])
    top -= w[:, -1]
    upper *= lam_dy
    return upper
