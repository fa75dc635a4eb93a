"""Forward solvers for the killed/weighted population densities.

Both solvers share one splitting per time step: implicit conservative
diffusion in x, exact exponential killing (1d) or explicit upwind
transport in y (2d), explicit conservative upwind transport in x, and,
when a common-noise path is supplied, a linear-interpolation shift of the
whole density by sigma0 dW.  With noise the diffusion coefficient drops
to sigma^2/2; the noise enters purely as transport.

The splitting order is fixed so that the linear backward stepper is the
exact algebraic transpose of a forward step; see backward.py.  Both
marchers read the model through `StepOperators` and run in one time loop,
`_march`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .controls import FeedbackControl
from .errors import CFLViolation, ControlOutOfBox, GridMismatch, NonfiniteInput
from .hamiltonians import integrate_kernel, minimize_control, nonlocal_kernels
from .measures import (
    Density2D,
    SubProb1D,
    s_map,
    survival_pairing,
    survival_quadrature,
    trapezoid_weights,
)
from .model import Grid, ModelSpec, NuHandle

__all__ = [
    "CommonNoisePath",
    "shift_density",
    "solve_forward_1d",
    "solve_forward_2d",
    "ForwardTrajectory1D",
    "ForwardTrajectory2D",
]


@dataclass
class CommonNoisePath:
    """Brownian increments over the solver time grid, reproducible by seed."""

    increments: np.ndarray
    seed: int

    @classmethod
    def from_seed(cls, seed: int, nt: int, dt: float) -> "CommonNoisePath":
        rng = np.random.default_rng(seed)
        return cls(rng.normal(0.0, np.sqrt(dt), size=nt), seed)

    @property
    def cumulative(self) -> np.ndarray:
        w = np.empty(self.increments.size + 1)
        w[0] = 0.0
        np.cumsum(self.increments, out=w[1:])
        return w


def shift_density(values: np.ndarray, offset: float, dx: float) -> np.ndarray:
    """Shift a sampled profile by `offset` (new(x) = old(x - offset)).

    Linear interpolation between nodes; inflow cells are zero-filled, so
    mass can only leave through the outflow boundary.  Works on 1d arrays
    or on the x axis (axis 0) of 2d arrays.
    """
    s = offset / dx
    k = int(np.floor(s))
    frac = s - k
    n = values.shape[0]

    def take(shifted_idx):
        # values at index i - shifted_idx with zero fill
        if shifted_idx == 0:
            return values
        pad = np.zeros_like(values[:1])
        if shifted_idx > 0:
            if shifted_idx >= n:
                return np.zeros_like(values)
            return np.concatenate([np.repeat(pad, shifted_idx, axis=0),
                                   values[:-shifted_idx]], axis=0)
        m = -shifted_idx
        if m >= n:
            return np.zeros_like(values)
        return np.concatenate([values[m:], np.repeat(pad, m, axis=0)], axis=0)

    out = (1.0 - frac) * take(k) + frac * take(k + 1)
    return out


# ---------------------------------------------------------------------------
# Shared step kernels (operate on (nx,) or (nx, m) arrays)
# ---------------------------------------------------------------------------


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


class StepOperators:
    """What one time step of a solver reads from the model.

    Coefficients, the control box, the nonlocal kernels and their Df0
    term are evaluated at time `t` and the step's measure (`nu`, or the
    survival marginal of a joint density `mu`) on first use, and reused
    by every inner iteration.  (nx,) fields live on the line, (nx, m)
    fields on the half-plane, where f carries the factor e^{-y}.  The
    diffusion coefficient is (sigma^2 + sigma0^2)/2, or sigma^2/2 when a
    common-noise path moves the density instead.  `matrix` holds the three
    diagonals of I - dt L, L the conservative centered (a rho)_xx under
    zero-flux closure, or of its transpose (the centered a u_xx) when
    `transpose` is set.  Forward and backward steps are both built here,
    which makes a backward step the exact algebraic transpose of a
    forward one.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float,
                 nu: NuHandle | None = None,
                 noise: CommonNoisePath | None = None, transpose: bool = False,
                 mu: Density2D | None = None):
        self.spec, self.grid, self.t, self.mu = spec, grid, t, mu
        self.x, self.dx, self.dt = grid.x, grid.dx, grid.dt(spec.T)
        self.nu = NuHandle(self.x, s_map(mu).values) if mu is not None else nu
        self.noisy = noise is not None
        self.transpose = transpose

    def _coeff(self, fn, *args) -> np.ndarray:
        return np.asarray(fn(self.t, self.x, *args), dtype=float)

    @cached_property
    def a(self) -> np.ndarray:
        sig = self._coeff(self.spec.sigma)
        if self.noisy:
            return 0.5 * sig**2
        return 0.5 * (sig**2 + self.spec.sigma0(self.t) ** 2)

    @cached_property
    def matrix(self) -> tuple:
        """(lower, main, upper) diagonals of the implicit diffusion matrix."""
        a = self.a
        if not np.all(np.isfinite(a)):
            raise NonfiniteInput("diffusion coefficient is not finite")
        r = self.dt / self.dx**2
        diag = 1.0 + 2.0 * r * a
        diag[0] = 1.0 + r * a[0]
        diag[-1] = 1.0 + r * a[-1]
        # row i couples rho_{i+1} through a_{i+1}; the transpose uses a_i
        upper, lower = (a[:-1], a[1:]) if self.transpose else (a[1:], a[:-1])
        return -r * lower, diag, -r * upper

    @cached_property
    def lam(self) -> np.ndarray:
        return self._coeff(self.spec.lam)

    @cached_property
    def kill(self) -> np.ndarray:
        """Exact killing factor e^{-lam dt} of the step."""
        return np.exp(-self.lam * self.dt)

    @cached_property
    def fac(self) -> np.ndarray:
        return self._coeff(self.spec.b1_factor)

    @cached_property
    def b0(self) -> np.ndarray:
        return self._coeff(self.spec.b0, self.nu)

    @cached_property
    def f0(self) -> np.ndarray:
        return self._coeff(self.spec.f0, self.nu)

    @cached_property
    def box(self) -> np.ndarray:
        return self.spec.box_array[0]

    @cached_property
    def ey(self) -> np.ndarray:
        """The survival factor e^{-y} as a (1, ny) row."""
        return np.exp(-self.grid.y)[None, :]

    def _rows(self, values: np.ndarray, field: np.ndarray) -> np.ndarray:
        """Node values as a column when `field` lives on the half-plane."""
        return values[:, None] if field.ndim == 2 else values

    def drift(self, g: np.ndarray) -> np.ndarray:
        """Node drift b0 + b1_factor g for a (nx,) or (nx, m) feedback."""
        return self._rows(self.b0, g) + self._rows(self.fac, g) * g

    def face_drift(self, g: np.ndarray) -> np.ndarray:
        return face_average(self.drift(g))

    def cost(self, g: np.ndarray) -> np.ndarray:
        """Node running cost f0 + f1(g) for a (nx,) or (nx, m) feedback."""
        return self._rows(self.f0, g) + np.asarray(
            self.spec.f1(self.t, self._rows(self.x, g), g), dtype=float)

    def control(self, p: np.ndarray) -> np.ndarray:
        """Pointwise minimizer over the box of b1_factor h p + f1(h), with
        f1 scaled by e^{-y} for an (nx, ny) gradient."""
        return minimize_control(self.t, self._rows(self.x, p), p, self._rows(self.fac, p),
                                self.box, self.spec, self.ey if p.ndim == 2 else 1.0)

    def k_tilde(self, p: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Running Hamiltonian b(h) p + e^{-y} (f0 + f1(h)) on the half-plane."""
        return self.drift(h) * p + self.ey * self.cost(h)

    @cached_property
    def kernels(self) -> tuple:
        """(Db0, Df0) at the step's measure on nodes x nodes."""
        return nonlocal_kernels(self.t, self.x, self.nu, self.x, self.spec)

    @cached_property
    def _pairing(self) -> tuple:
        """The columns a field is integrated over, and field -> its x
        weights against the step's measure."""
        if self.mu is not None:
            return survival_pairing(self.mu)
        nu = self.nu
        return slice(None), lambda field: nu.values * field * nu.weights

    @cached_property
    def _df0_term(self):
        cols, weigh = self._pairing
        unit = 1.0 if self.mu is None else np.exp(-self.mu.y[cols])
        return integrate_kernel(self.kernels[1], weigh(unit))

    def nonlocal_term(self, p: np.ndarray):
        """f_nu at the step's nu for a (nx,) gradient; with a joint `mu`,
        f_tilde_mu on the half-plane for an (nx, ny) gradient."""
        cols, weigh = self._pairing
        vals = integrate_kernel(self.kernels[0], weigh(p[..., cols])) + self._df0_term
        return vals if self.mu is None else self.ey * vals[:, None]


def upwind_face_flux(values: np.ndarray, b_face: np.ndarray) -> np.ndarray:
    """Upwind interface flux b^+ rho_left + b^- rho_right."""
    vaug = values if values.ndim == 2 else values[:, None]
    bf = b_face if b_face.ndim == 2 else b_face[:, None]
    flux = np.maximum(bf, 0.0) * vaug[:-1] + np.minimum(bf, 0.0) * vaug[1:]
    return flux if values.ndim == 2 else flux[:, 0]


def face_flux_divergence(flux: np.ndarray, dx: float) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx with zero-flux outer faces."""
    faug = flux if flux.ndim == 2 else flux[:, None]
    div = np.zeros((faug.shape[0] + 1, faug.shape[1]))
    div[:-1] += faug
    div[1:] -= faug
    div /= -dx
    return div if flux.ndim == 2 else div[:, 0]


def upwind_flux_divergence(values: np.ndarray, b_face: np.ndarray,
                           dx: float) -> np.ndarray:
    """Conservative upwind d/dx(b rho) with zero-flux outer faces.

    `b_face` has shape (nx-1,) or (nx-1, m) matching `values`.
    """
    return face_flux_divergence(upwind_face_flux(values, b_face), dx)


def upwind_transport_adjoint(u: np.ndarray, b_face: np.ndarray,
                             dx: float) -> np.ndarray:
    """Exact transpose of `upwind_flux_divergence`: an upwind b du/dx."""
    uaug = u if u.ndim == 2 else u[:, None]
    bf = b_face if b_face.ndim == 2 else b_face[:, None]
    du = uaug[1:] - uaug[:-1]
    du /= dx
    out = np.empty_like(uaug)
    np.multiply(np.maximum(bf, 0.0), du, out=out[:-1])
    out[-1] = 0.0
    out[1:] += np.minimum(bf, 0.0) * du
    return out if u.ndim == 2 else out[:, 0]


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


# ---------------------------------------------------------------------------
# Trajectory containers
# ---------------------------------------------------------------------------


@dataclass
class EnergyRecord:
    sup_sq: float
    h10_sum: float
    initial_sq: float
    constant: float


@dataclass
class ForwardTrajectory1D:
    grid: Grid
    times: np.ndarray
    values: np.ndarray          # (nt+1, nx)
    control: FeedbackControl
    noise: CommonNoisePath | None
    mass_series: np.ndarray     # solver (rectangle) mass per step
    energy: EnergyRecord
    boundary_leakage: float

    def at(self, k: int) -> SubProb1D:
        return SubProb1D(self.grid.x, self.values[k])


@dataclass
class ForwardTrajectory2D:
    grid: Grid
    times: np.ndarray
    values: np.ndarray          # (nt+1, nx, ny_total)
    control: FeedbackControl
    noise: CommonNoisePath | None
    mass_series: np.ndarray
    energy: EnergyRecord
    boundary_leakage: float

    def at(self, k: int) -> Density2D:
        return Density2D(self.grid.x, self.grid.y, self.values[k])

    def marginal(self) -> ForwardTrajectory1D:
        """The survival-weighted marginal s_map(mu) at every step."""
        vals = np.stack([s_map(self.at(k)).values for k in range(self.times.size)])
        return ForwardTrajectory1D(self.grid, self.times, vals, self.control, self.noise,
                                   vals.sum(axis=1) * self.grid.dx, self.energy, 0.0)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _drift(ops: StepOperators, g: FeedbackControl, k: int,
           dy: float | None = None) -> np.ndarray:
    """Node drift of the feedback at step k, after checking that it stays
    in the box (and is y-independent on the line) and that the step meets
    the advective CFL condition, with the y transport when `dy` is given."""
    gv = g.at_step(k)
    lo, hi = ops.box
    if gv.min() < lo - 1e-12 or gv.max() > hi + 1e-12:
        raise ControlOutOfBox("control leaves the box at step %d" % k)
    if dy is None and gv.ndim == 2:
        raise GridMismatch("1d solver requires a y-independent feedback")
    b = ops.drift(gv if dy is None else y_column(gv))
    bmax = float(np.max(np.abs(b)))
    lmax = 0.0 if dy is None else float(ops.lam.max())
    cfl = bmax * ops.dt / ops.dx + (0.0 if dy is None else lmax * ops.dt / dy)
    if cfl > 1.0 + 1e-12:
        raise CFLViolation(
            f"advective CFL number {cfl:.3f} > 1 (max|b|={bmax:.3g}, "
            f"max lam={lmax:.3g}); refine dt"
        )
    return b


def weighted_l2_sq(vals: np.ndarray, wx: np.ndarray, wy: np.ndarray | None) -> float:
    """Trapezoid L2 norm squared of a (nx,) profile, or (nx, ny) with `wy`."""
    if wy is None:
        return float((vals**2) @ wx)
    return float(wx @ (vals**2) @ wy)


def _march(spec: ModelSpec, grid: Grid, vals0: np.ndarray,
           noise: CommonNoisePath | None, step, wy: np.ndarray | None = None,
           dy: float = 1.0) -> tuple:
    """The time loop of both forward solvers.

    `step(k, t, rho)` advances the density over [t_k, t_{k+1}]; the loop
    then applies the common-noise shift, if any, and records the values,
    the cell-sum mass, the energy and the mass that left through the shift.
    A (nx,) density takes `wy` None; an (nx, ny) one takes the y weights
    and cell height.  Returns (times, values, mass, energy, leakage).
    """
    dx, dt, nt = grid.dx, grid.dt(spec.T), grid.nt
    wx = trapezoid_weights(grid.nx, dx)
    rho = np.ascontiguousarray(vals0, dtype=float)
    shape = (grid.nx,) if wy is None else (grid.nx, grid.ny_total)
    if rho.shape != shape:
        raise GridMismatch(f"initial density has shape {rho.shape}, not {shape}")
    increments = noise.increments if noise is not None else None
    if increments is not None and increments.size != nt:
        raise GridMismatch("noise path length does not match grid.nt")

    out = np.empty((nt + 1, *shape))
    out[0] = rho
    mass = np.empty(nt + 1)
    mass[0] = rho.sum() * dx * dy
    init_sq = sup_sq = weighted_l2_sq(rho, wx, wy)
    h10_sum = leakage = 0.0
    times = grid.times(spec.T)
    for k in range(nt):
        t = times[k]
        rho = step(k, t, rho)
        if increments is not None:
            pre = rho.sum()
            rho = shift_density(rho, spec.sigma0(t) * increments[k], dx)
            leakage += abs(pre - rho.sum()) * dx * dy

        out[k + 1] = rho
        mass[k + 1] = rho.sum() * dx * dy
        l2_sq = weighted_l2_sq(rho, wx, wy)
        sup_sq = max(sup_sq, l2_sq)
        grad_sq = (np.diff(rho, axis=0) / dx) ** 2
        h10_sq = float((grad_sq if wy is None else grad_sq @ wy).sum() * dx)
        h10_sum += (l2_sq + h10_sq) * dt

    energy = EnergyRecord(sup_sq, h10_sum, init_sq,
                          (sup_sq + h10_sum) / init_sq if init_sq > 0 else 0.0)
    return times, out, mass, energy, leakage


def solve_forward_1d(
    spec: ModelSpec,
    grid: Grid,
    g: FeedbackControl,
    noise: CommonNoisePath | None = None,
    initial: np.ndarray | None = None,
) -> ForwardTrajectory1D:
    """March the weighted marginal density with killing.

    The killing term is applied through the exact integrating factor
    e^{-lam dt} per step, so a constant intensity decays total mass
    exactly like e^{-lam t} while diffusion and transport conserve it.
    """
    x, dx, dt = grid.x, grid.dx, grid.dt(spec.T)
    if initial is None:
        # weighted x marginal of the initial joint density
        yq = np.linspace(0.0, max(grid.y_max, 6.0), 2001)
        rho2 = spec.initial_density_2d(x[:, None], yq[None, :])
        initial = rho2 @ survival_quadrature(yq, yq[1] - yq[0])[2]

    def step(k, t, rho):
        ops = StepOperators(spec, grid, t, NuHandle(x, rho), noise)
        b = _drift(ops, g, k)
        rho = diffuse(rho, ops.matrix) * ops.kill
        return rho + dt * upwind_flux_divergence(rho, face_average(b), dx)

    times, out, mass, energy, leakage = _march(spec, grid, initial, noise, step)
    return ForwardTrajectory1D(grid, times, out, g, noise, mass, energy, leakage)


def solve_forward_2d(
    spec: ModelSpec,
    grid: Grid,
    g: FeedbackControl,
    noise: CommonNoisePath | None = None,
    initial: np.ndarray | None = None,
) -> ForwardTrajectory2D:
    """March the joint density of (position, cumulative intensity).

    The pair is never killed: the intensity coordinate is transported
    upward at rate lam(x) instead, with zero inflow at y = 0, so total
    mass is conserved exactly by the scheme.
    """
    x, y = grid.x, grid.y
    dx, dy, dt = grid.dx, grid.dy, grid.dt(spec.T)
    wy = trapezoid_weights(grid.ny_total, dy)
    keep, _, survival = survival_quadrature(y, dy)
    if initial is None:
        initial = np.asarray(spec.initial_density_2d(x[:, None], y[None, :]), dtype=float)
        initial = initial / (trapezoid_weights(grid.nx, dx) @ initial @ wy)

    def step(k, t, mu):
        ops = StepOperators(spec, grid, t, NuHandle(x, mu[:, keep] @ survival), noise)
        b = _drift(ops, g, k, dy)
        mu = diffuse(mu, ops.matrix)
        expl = upwind_flux_divergence(mu, face_average(b), dx)
        return y_transport(mu, ops.lam, dt, dy) + dt * expl

    times, out, mass, energy, leakage = _march(spec, grid, initial, noise, step, wy, dy)
    return ForwardTrajectory2D(grid, times, out, g, noise, mass, energy, leakage)
