"""Forward solvers for the killed/weighted population densities.

Both solvers share one splitting per time step: implicit conservative
diffusion in x, exact exponential killing (1d) or explicit upwind
transport in y (2d), explicit conservative upwind transport in x, and,
when a common-noise path is supplied, a linear-interpolation shift of the
whole density by sigma0 dW.  With noise the diffusion coefficient drops
to sigma^2/2; the noise enters purely as transport.

The splitting order is fixed so that the linear backward stepper is the
exact algebraic transpose of a forward step; the step operators and
stencils, each beside its transpose, are in steps.py.  Both marchers run
in one time loop, `_march`.  Each step reads what does not depend on the
density (the diffusion matrix, lam and its kill factor, b1_factor and
the box) from `steps.StepOperators`, which takes them from the control
loop's `steps.step_table` when one is active, and its quadrature weights
and survival kernel from the `Grid`; a control loop also builds the
default initial marginal (`initial_marginal`) once and passes it as
`initial`.  `Grid.check_field` refuses a feedback or initial density off
the grid at entry, and a joint feedback on the line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import FeedbackControl
from .errors import CFLViolation, ControlOutOfBox
from .measures import Density2D, NuHandle, SubProb1D, initial_marginal, s_map
from .model import Grid, ModelSpec
from .steps import (
    StepOperators,
    diffuse,
    face_average,
    noise_offsets,
    shift_density,
    upwind_flux_divergence,
    weighted_l2_sq,
    y_column,
    y_transport,
)

__all__ = [
    "CommonNoisePath",
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
class _ForwardTrajectory:
    """The record of a forward solve; the subclasses read its slices."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray          # (nt+1, nx) on the line, (nt+1, nx, ny_total) jointly
    control: FeedbackControl
    noise: CommonNoisePath | None
    mass_series: np.ndarray     # solver (rectangle) mass per step
    energy: EnergyRecord
    boundary_leakage: float


class ForwardTrajectory1D(_ForwardTrajectory):
    def at(self, k: int) -> SubProb1D:
        return SubProb1D(self.grid.x, self.values[k])


class ForwardTrajectory2D(_ForwardTrajectory):
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
    in the box and that the step meets the advective CFL condition, with
    the y transport when `dy` is given."""
    gv = g.at_step(k)
    lo, hi = ops.box
    if not (lo - 1e-12 <= gv.min() and gv.max() <= hi + 1e-12):
        raise ControlOutOfBox("control leaves the box at step %d" % k)
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


def _march(spec: ModelSpec, grid: Grid, vals0: np.ndarray,
           noise: CommonNoisePath | None, step, joint: bool = False) -> tuple:
    """The time loop of both forward solvers.

    `step(k, t, rho)` advances the density over [t_k, t_{k+1}]; the loop
    then applies the common-noise shift, if any, and records the values,
    the cell-sum mass, the energy and the mass that left through the shift.
    The density is (nx,) on the line, (nx, ny) when `joint`.  Returns
    (times, values, mass, energy, leakage).
    """
    dx, dt, nt, wx = grid.dx, grid.dt(spec.T), grid.nt, grid.wx
    wy, dy = (grid.wy, grid.dy) if joint else (None, 1.0)
    rho = np.ascontiguousarray(vals0, dtype=float)
    grid.check_field(rho, "initial density", joint, series=False)
    offsets = noise_offsets(spec, grid, noise)

    out = np.empty((nt + 1, *rho.shape))
    out[0] = rho
    mass = np.empty(nt + 1)
    mass[0] = rho.sum() * dx * dy
    init_sq = sup_sq = weighted_l2_sq(rho, wx, wy)
    h10_sum = leakage = 0.0
    times = grid.times(spec.T)
    for k in range(nt):
        t = times[k]
        rho = step(k, t, rho)
        if offsets is not None:
            pre = rho.sum()
            rho = shift_density(rho, offsets[k], dx)
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
    The march starts from `initial`, by default `initial_marginal(spec,
    grid)`.
    """
    grid.check_field(g, "feedback", joint=False)
    x, dx, dt = grid.x, grid.dx, grid.dt(spec.T)
    if initial is None:
        initial = initial_marginal(spec, grid)

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
    grid.check_field(g, "feedback")
    x, y = grid.x, grid.y
    dx, dy, dt = grid.dx, grid.dy, grid.dt(spec.T)
    if initial is None:
        initial = np.asarray(spec.initial_density_2d(x[:, None], y[None, :]), dtype=float)
        initial = initial / (grid.wx @ initial @ grid.wy)

    def step(k, t, mu):
        ops = StepOperators(spec, grid, t, NuHandle(x, mu @ grid.survival), noise)
        b = _drift(ops, g, k, dy)
        mu = diffuse(mu, ops.matrix)
        expl = upwind_flux_divergence(mu, face_average(b), dx)
        return y_transport(mu, ops.lam, dt, dy) + dt * expl

    times, out, mass, energy, leakage = _march(spec, grid, initial, noise, step, joint=True)
    return ForwardTrajectory2D(grid, times, out, g, noise, mass, energy, leakage)
