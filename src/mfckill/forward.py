"""Forward solvers for the killed/weighted population densities.

Both solvers share one splitting per time step: implicit conservative
diffusion in x, exact exponential killing (1d) or explicit upwind
transport in y (2d), explicit conservative upwind transport in x, and,
when a common-noise path is supplied, a linear-interpolation shift of the
whole density by sigma0 dW.  With noise the diffusion coefficient drops
to sigma^2/2; the noise enters purely as transport.

The splitting order is fixed so that the linear backward stepper is the
exact algebraic transpose of a forward step; see backward.py.  Both
marchers read the model through `StepOperators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .controls import FeedbackControl
from .errors import CFLViolation, ControlOutOfBox, GridMismatch, NonfiniteInput
from .measures import Density2D, SubProb1D, survival_quadrature, trapezoid_weights
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
    if not np.all(np.isfinite(values)):
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
    """What one time step of a marcher reads from the model.

    Coefficients are evaluated at time `t` and, for b0/f0, at the
    measure `nu`, each on first use.  The diffusion coefficient is
    (sigma^2 + sigma0^2)/2, or sigma^2/2 when a common-noise path moves
    the density instead.  `matrix` is I - dt L, with L the conservative
    centered (a rho)_xx under zero-flux closure, or its transpose (the
    centered a u_xx) when `transpose` is set, as its three diagonals;
    every `diffuse` call of the step solves with it.  The forward and
    backward marchers build their steps here, which is what makes a
    backward step the exact algebraic transpose of a forward one.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float,
                 nu: NuHandle | None = None,
                 noise: CommonNoisePath | None = None, transpose: bool = False):
        self.spec, self.t, self.nu = spec, t, nu
        self.x, self.dx, self.dt = grid.x, grid.dx, grid.dt(spec.T)
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

    def drift(self, g: np.ndarray) -> np.ndarray:
        """Node drift b0 + b1_factor g for a (nx,) or (nx, m) feedback."""
        if g.ndim == 2:
            return self.b0[:, None] + self.fac[:, None] * g
        return self.b0 + self.fac * g

    def face_drift(self, g: np.ndarray) -> np.ndarray:
        return face_average(self.drift(g))


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
    pos = bf > 0.0
    out = np.zeros_like(uaug)
    out[:-1] += np.where(pos, bf, 0.0) * du
    out[1:] += np.where(pos, 0.0, bf) * du
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


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _check_cfl(bmax: float, lmax: float, dt: float, dx: float, dy: float | None):
    cfl = bmax * dt / dx + (0.0 if dy is None else lmax * dt / dy)
    if cfl > 1.0 + 1e-12:
        raise CFLViolation(
            f"advective CFL number {cfl:.3f} > 1 (max|b|={bmax:.3g}, "
            f"max lam={lmax:.3g}); refine dt"
        )


def _control_values(spec: ModelSpec, g: FeedbackControl, k: int) -> np.ndarray:
    gv = g.at_step(k)
    lo, hi = spec.box_array[0]
    if gv.min() < lo - 1e-12 or gv.max() > hi + 1e-12:
        raise ControlOutOfBox("control leaves the box at step %d" % k)
    return gv


def weighted_l2_sq(vals: np.ndarray, wx: np.ndarray, wy: np.ndarray | None) -> float:
    """Trapezoid L2 norm squared of a (nx,) profile, or (nx, ny) with `wy`."""
    if wy is None:
        return float((vals**2) @ wx)
    return float(wx @ (vals**2) @ wy)


def _h10_sq(vals: np.ndarray, dx: float, wx: np.ndarray,
            wy: np.ndarray | None) -> float:
    grad = np.diff(vals, axis=0) / dx
    if wy is None:
        return float((grad**2).sum() * dx)
    return float(((grad**2) @ wy).sum() * dx)


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
    x = grid.x
    dx = grid.dx
    dt = grid.dt(spec.T)
    nt = grid.nt
    wx = trapezoid_weights(grid.nx, dx)

    if initial is None:
        # weighted x marginal of the initial joint density
        yq = np.linspace(0.0, max(grid.y_max, 6.0), 2001)
        rho2 = spec.initial_density_2d(x[:, None], yq[None, :])
        vals0 = rho2 @ survival_quadrature(yq, yq[1] - yq[0])[2]
    else:
        vals0 = np.asarray(initial, dtype=float).copy()

    out = np.empty((nt + 1, grid.nx))
    out[0] = vals0
    mass = np.empty(nt + 1)
    mass[0] = vals0.sum() * dx

    sup_sq = weighted_l2_sq(vals0, wx, None)
    h10_sum = 0.0
    init_sq = sup_sq

    increments = noise.increments if noise is not None else None
    if increments is not None and increments.size != nt:
        raise GridMismatch("noise path length does not match grid.nt")

    times = grid.times(spec.T)
    rho = vals0.copy()
    leakage = 0.0
    for k in range(nt):
        t = times[k]
        gv = _control_values(spec, g, k)
        if gv.ndim == 2:
            raise GridMismatch("1d solver requires a y-independent feedback")
        ops = StepOperators(spec, grid, t, NuHandle(x, rho), noise)
        b = ops.drift(gv)
        _check_cfl(float(np.max(np.abs(b))), 0.0, dt, dx, None)

        rho = diffuse(rho, ops.matrix)
        rho = rho * ops.kill
        rho = rho + dt * upwind_flux_divergence(rho, face_average(b), dx)
        if increments is not None:
            pre = rho.sum()
            rho = shift_density(rho, spec.sigma0(t) * increments[k], dx)
            leakage += abs(pre - rho.sum()) * dx

        out[k + 1] = rho
        mass[k + 1] = rho.sum() * dx
        sup_sq = max(sup_sq, weighted_l2_sq(rho, wx, None))
        h10_sum += (weighted_l2_sq(rho, wx, None) + _h10_sq(rho, dx, wx, None)) * dt

    energy = EnergyRecord(sup_sq, h10_sum, init_sq,
                          (sup_sq + h10_sum) / init_sq if init_sq > 0 else 0.0)
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
    dx, dy = grid.dx, grid.dy
    dt = grid.dt(spec.T)
    nt = grid.nt
    wx = trapezoid_weights(grid.nx, dx)
    wy = trapezoid_weights(grid.ny_total, dy)
    keep, _, survival = survival_quadrature(y, dy)

    if initial is None:
        vals0 = np.asarray(spec.initial_density_2d(x[:, None], y[None, :]), dtype=float)
        tot = wx @ vals0 @ wy
        vals0 = vals0 / tot
    else:
        vals0 = np.asarray(initial, dtype=float).copy()

    out = np.empty((nt + 1, grid.nx, grid.ny_total))
    out[0] = vals0
    mass = np.empty(nt + 1)
    mass[0] = vals0.sum() * dx * dy

    sup_sq = weighted_l2_sq(vals0, wx, wy)
    init_sq = sup_sq
    h10_sum = 0.0

    increments = noise.increments if noise is not None else None
    if increments is not None and increments.size != nt:
        raise GridMismatch("noise path length does not match grid.nt")

    times = grid.times(spec.T)
    mu = vals0.copy()
    leakage = 0.0
    for k in range(nt):
        t = times[k]
        ops = StepOperators(spec, grid, t, NuHandle(x, mu[:, keep] @ survival), noise)
        b = ops.drift(y_column(_control_values(spec, g, k)))
        _check_cfl(float(np.max(np.abs(b))), float(ops.lam.max()), dt, dx, dy)

        mu = diffuse(mu, ops.matrix)
        expl = upwind_flux_divergence(mu, face_average(b), dx)
        mu = y_transport(mu, ops.lam, dt, dy) + dt * expl
        if increments is not None:
            pre = mu.sum()
            mu = shift_density(mu, spec.sigma0(t) * increments[k], dx)
            leakage += abs(pre - mu.sum()) * dx * dy

        out[k + 1] = mu
        mass[k + 1] = mu.sum() * dx * dy
        sup_sq = max(sup_sq, weighted_l2_sq(mu, wx, wy))
        h10_sum += (weighted_l2_sq(mu, wx, wy) + _h10_sq(mu, dx, wx, wy)) * dt

    energy = EnergyRecord(sup_sq, h10_sum, init_sq,
                          (sup_sq + h10_sum) / init_sq if init_sq > 0 else 0.0)
    return ForwardTrajectory2D(grid, times, out, g, noise, mass, energy, leakage)
