"""The step layer: what one time step of every marcher reads and applies.

`StepOperators` evaluates the model at one time and measure.  What a step
reads apart from the measure (sigma, lam and its kill factor, b1_factor,
the control box and the diffusion diagonals) lives in a `NodeInputs`
for that time node.  While `step_table(spec, grid)` is active, as it is
for the whole of a `solve_mfc` or `solve_mfc_2d` call, every
`StepOperators` of that model and grid at one of its time nodes shares
the table's `NodeInputs`, so each member is evaluated once per node for
the call, not once per sweep and marcher; the table goes when the call
returns.  Elsewhere each `StepOperators` makes its own.

The stencils act on (nx,) fields on the line or (nx, m) fields on the
half-plane along axis 0, with face drifts of shape (nx-1,), (nx-1, 1) or
(nx-1, m) that broadcast along y.  Each transport stencil sits beside its
transpose, so a fixed-feedback backward step is the algebraic transpose of
a forward step.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .errors import GridMismatch, NonfiniteInput
from .hamiltonians import minimize_control, nonlocal_kernels
from .measures import Density2D, NuHandle, s_map, survival_quadrature
from .model import Grid, ModelSpec

if TYPE_CHECKING:
    from .forward import CommonNoisePath

__all__ = [
    "StepOperators", "NodeInputs", "step_table", "noise_offsets", "diffuse",
    "face_average", "y_column", "central_grad", "weighted_l2_sq", "shift_density",
    "face_flux_divergence", "upwind_flux_divergence", "upwind_transport_adjoint",
    "upwind_flux_derivative", "y_transport", "y_transport_adjoint_rate",
]


class NodeInputs:
    """What a step at time `t` reads from the model apart from the measure,
    each member evaluated on first read and kept.

    The diffusion coefficient is (sigma^2 + sigma0^2)/2, or sigma^2/2 when
    a common-noise path moves the density instead (`noisy`).
    `diagonals(noisy)` holds the three diagonals of I - dt L, L the
    conservative centered (a rho)_xx under zero-flux closure; reversed,
    they are those of its transpose (the centered a u_xx).
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float):
        self.spec, self.grid, self.t = spec, grid, t
        self._diagonals = {}

    def _coeff(self, fn) -> np.ndarray:
        return np.asarray(fn(self.t, self.grid.x), dtype=float)

    @cached_property
    def sigma_sq(self) -> np.ndarray:
        return self._coeff(self.spec.sigma) ** 2

    def a(self, noisy: bool) -> np.ndarray:
        if noisy:
            return 0.5 * self.sigma_sq
        return 0.5 * (self.sigma_sq + self.spec.sigma0(self.t) ** 2)

    def diagonals(self, noisy: bool) -> tuple:
        """(lower, main, upper) diagonals of the implicit diffusion matrix."""
        out = self._diagonals.get(noisy)
        if out is None:
            a = self.a(noisy)
            if not np.all(np.isfinite(a)):
                raise NonfiniteInput("diffusion coefficient is not finite")
            r = self.grid.dt(self.spec.T) / self.grid.dx**2
            diag = 1.0 + 2.0 * r * a
            diag[0] = 1.0 + r * a[0]
            diag[-1] = 1.0 + r * a[-1]
            # row i couples rho_{i+1} through a_{i+1}; the transpose swaps
            # the off-diagonals
            out = self._diagonals[noisy] = (-r * a[:-1], diag, -r * a[1:])
        return out

    @cached_property
    def lam(self) -> np.ndarray:
        return self._coeff(self.spec.lam)

    @cached_property
    def kill(self) -> np.ndarray:
        """Exact killing factor e^{-lam dt} of the step."""
        return np.exp(-self.lam * self.grid.dt(self.spec.T))

    @cached_property
    def fac(self) -> np.ndarray:
        return self._coeff(self.spec.b1_factor)

    @cached_property
    def box(self) -> tuple:
        """(lo, hi) of the control box."""
        lo, hi = self.spec.box_array[0]
        return lo, hi

    @cached_property
    def ey(self) -> np.ndarray:
        """The survival factor e^{-y} as a (1, ny) row."""
        return np.exp(-self.grid.y)[None, :]

    @cached_property
    def control_args(self) -> dict:
        """x, b1_factor and the scale of f1 that the minimizer reads, keyed by
        the gradient's ndim: the line's nodes, or columns and e^{-y} on the
        half-plane."""
        x, fac = self.grid.x, self.fac
        return {1: (x, fac, 1.0), 2: (x[:, None], fac[:, None], self.ey)}


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


def _from_node(name: str) -> cached_property:
    """A `StepOperators` member read from its `NodeInputs` on first use."""
    return cached_property(lambda self: getattr(self.node, name))


class StepOperators:
    """What one time step of a solver reads from the model.

    The measure-free members (`lam`, `kill`, `fac`, `box`, `ey`, `a` and
    `matrix`) come from the step's `NodeInputs`.  The step itself
    evaluates what reads its measure (`nu`, or the survival marginal of a
    joint density `mu`): b0, f0, the nonlocal kernels and their Df0 term,
    on first use, and reuses them in every inner iteration.  (nx,) fields
    live on the line, (nx, m) fields on the half-plane, where f carries
    the factor e^{-y}.  `matrix` holds the three diagonals of the implicit
    diffusion matrix, or of its transpose when `transpose` is set, from the
    same coefficients.
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
    box = _from_node("box")
    ey = _from_node("ey")

    @property
    def a(self) -> np.ndarray:
        return self.node.a(self.noisy)

    @cached_property
    def matrix(self) -> tuple:
        """(lower, main, upper) diagonals of the implicit diffusion matrix."""
        diagonals = self.node.diagonals(self.noisy)
        return diagonals[::-1] if self.transpose else diagonals

    def _coeff(self, fn, *args) -> np.ndarray:
        return np.asarray(fn(self.t, self.x, *args), dtype=float)

    @cached_property
    def b0(self) -> np.ndarray:
        return self._coeff(self.spec.b0, self.nu)

    @cached_property
    def f0(self) -> np.ndarray:
        return self._coeff(self.spec.f0, self.nu)

    @cached_property
    def _drift_args(self) -> dict:
        """b0 and b1_factor keyed by the feedback's ndim: as nodes, or as
        columns that broadcast along y."""
        b0, fac = self.b0, self.fac
        return {1: (b0, fac), 2: (b0[:, None], fac[:, None])}

    @cached_property
    def _cost_args(self) -> dict:
        """f0 and x keyed by the feedback's ndim, as `_drift_args`."""
        f0, x = self.f0, self.x
        return {1: (f0, x), 2: (f0[:, None], x[:, None])}

    def drift(self, g: np.ndarray) -> np.ndarray:
        """Node drift b0 + b1_factor g for a (nx,) or (nx, m) feedback."""
        b0, fac = self._drift_args[g.ndim]
        return b0 + fac * g

    def face_drift(self, g: np.ndarray) -> np.ndarray:
        return face_average(self.drift(g))

    def cost(self, g: np.ndarray) -> np.ndarray:
        """Node running cost f0 + f1(g) for a (nx,) or (nx, m) feedback."""
        f0, x = self._cost_args[g.ndim]
        return f0 + np.asarray(self.spec.f1(self.t, x, g), dtype=float)

    def control(self, p: np.ndarray) -> np.ndarray:
        """Pointwise minimizer over the box of b1_factor h p + f1(h), with
        f1 scaled by e^{-y} for an (nx, ny) gradient."""
        x, fac, scale = self.node.control_args[p.ndim]
        return minimize_control(self.t, x, p, fac, self.box, self.spec, scale)

    def k_tilde(self, p: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Running Hamiltonian b(h) p + e^{-y} (f0 + f1(h)) on the half-plane."""
        return self.drift(h) * p + self.ey * self.cost(h)

    @cached_property
    def kernels(self) -> tuple:
        """(Db0, Df0) at the step's measure on nodes x nodes."""
        return nonlocal_kernels(self.t, self.x, self.nu, self.x, self.spec)

    @cached_property
    def _pairing(self) -> tuple:
        """(columns, rows, wy, wx): a field f carries the x weights rows f
        wx against the step's measure on the line (columns and wy None), and
        ((rows f[:, columns]) @ wy) wx against the joint one over y >= 0."""
        if self.mu is None:
            return None, self.nu.values, None, self.nu.weights
        keep, wy, _ = survival_quadrature(self.mu.y, self.mu.dy)
        return keep, self.mu.values[:, keep], wy, self.mu.wx

    @cached_property
    def _df0_term(self):
        cols, rows, wy, wx = self._pairing
        kf = self.kernels[1]
        if kf is None:
            return 0.0
        if wy is None:
            return rows * wx @ kf
        return ((rows * np.exp(-self.mu.y[cols])) @ wy) * wx @ kf

    def nonlocal_term(self, p: np.ndarray):
        """<nu, Db0 p> + <nu, Df0> at the step's nu for a (nx,) gradient;
        with a joint `mu`, e^{-y} (<mu, Db0 p> + <mu, e^{-y'} Df0>) over
        y' >= 0 on the half-plane for an (nx, ny) gradient.  Zeros of the
        gradient's shape for a model without the kernels."""
        if not self.spec.coupled:
            return np.zeros(p.shape)
        cols, rows, wy, wx = self._pairing
        kb = self.kernels[0]
        if wy is None:
            return (0.0 if kb is None else rows * p * wx @ kb) + self._df0_term
        vals = 0.0 if kb is None else ((rows * p[:, cols]) @ wy) * wx @ kb
        return self.ey * (vals + self._df0_term)[:, None]


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


def diffuse(values: np.ndarray, matrix: tuple) -> np.ndarray:
    """Solve one implicit diffusion step with a `StepOperators.matrix`."""
    if not np.isfinite(values).all():
        raise NonfiniteInput("diffusion step received non-finite values")
    *_, out, info = dgtsv(*matrix, values)
    if info != 0:
        raise LinAlgError(f"singular diffusion matrix (gtsv info {info})")
    return out


def face_average(b_nodes: np.ndarray) -> np.ndarray:
    """Node values averaged onto the nx - 1 cell faces (axis 0)."""
    return 0.5 * (b_nodes[1:] + b_nodes[:-1])


def y_column(values: np.ndarray) -> np.ndarray:
    """View a (nx,) feedback as (nx, 1) so it broadcasts along y."""
    return values[:, None] if values.ndim == 1 else values


def central_grad(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered interior differences, one-sided at the ends (axis 0)."""
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    out[0] = (u[1] - u[0]) / dx
    out[-1] = (u[-1] - u[-2]) / dx
    return out


def weighted_l2_sq(vals: np.ndarray, wx: np.ndarray, wy: np.ndarray | None) -> float:
    """Trapezoid L2 norm squared of a (nx,) profile, or (nx, ny) with `wy`."""
    if wy is None:
        return float((vals**2) @ wx)
    return float(wx @ (vals**2) @ wy)


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


def face_flux_divergence(flux: np.ndarray, dx: float) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx with zero-flux outer faces."""
    div = np.zeros((flux.shape[0] + 1, *flux.shape[1:]))
    div[:-1] += flux
    div[1:] -= flux
    div /= -dx
    return div


def upwind_flux_divergence(values: np.ndarray, b_face: np.ndarray,
                           dx: float) -> np.ndarray:
    """Conservative upwind d/dx(b rho) with zero-flux outer faces: the
    interface flux is b^+ rho_left + b^- rho_right."""
    flux = np.maximum(b_face, 0.0) * values[:-1] + np.minimum(b_face, 0.0) * values[1:]
    return face_flux_divergence(flux, dx)


def upwind_transport_adjoint(u: np.ndarray, b_face: np.ndarray,
                             dx: float) -> np.ndarray:
    """Exact transpose of `upwind_flux_divergence`: an upwind b du/dx."""
    du = u[1:] - u[:-1]
    du /= dx
    out = np.empty_like(u)
    np.multiply(np.maximum(b_face, 0.0), du, out=out[:-1])
    out[-1] = 0.0
    out[1:] += np.minimum(b_face, 0.0) * du
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


def y_transport_adjoint_rate(w: np.ndarray, lam_nodes: np.ndarray, dy: float,
                             ghost_decay: float) -> np.ndarray:
    """lam(x) * (w(y+dy) - w(y)) / dy with the ghost above the top row
    taken as ghost_decay * w(top).  dt times it, plus w, is the transpose
    of `y_transport` applied to w when ghost_decay is 1."""
    upper = np.empty_like(w)
    upper[:, :-1] = w[:, 1:]
    upper[:, -1] = ghost_decay * w[:, -1]
    return lam_nodes[:, None] * (upper - w) / dy
