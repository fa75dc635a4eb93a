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
density (the diffusion matrix, lam and its kill factor and b1_factor)
from `steps.StepOperators`, which takes them from the control
loop's `steps.step_table` when one is active, and its weights from the
`Grid`; like every half-plane step, the joint one hands it a `Density2D`
and the model reads nu = `s_map` of it.  A control loop builds the default
initial marginal (`initial_marginal`) once and passes it as `initial`.
`Grid.check_field` refuses a feedback or initial density off the grid at
entry, and a joint feedback on the line.  Each trajectory records the
noise path it moved under, and the backward solves read it there.
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

    @classmethod
    def from_seed(cls, seed: int, nt: int, dt: float) -> "CommonNoisePath":
        return cls(np.random.default_rng(seed).normal(0.0, np.sqrt(dt), size=nt))

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
        return Density2D(self.grid, self.values[k])

    def marginal(self) -> ForwardTrajectory1D:
        """The survival-weighted marginal s_map(mu) at every step."""
        vals = np.stack([s_map(self.at(k)).values for k in range(self.times.size)])
        energy = _energy(vals, self.grid, self.grid.dt(self.times[-1]))
        return ForwardTrajectory1D(self.grid, self.times, vals, self.control, self.noise,
                                   vals.sum(axis=1) * self.grid.dx, energy, 0.0)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _drift(ops: StepOperators, g: FeedbackControl, k: int,
           work: tuple | None = None) -> np.ndarray:
    """Node drift of the feedback at step k, after checking that it stays
    in the control box and that the step meets the advective CFL
    condition, with the y transport on the half-plane (a step whose
    `ops.mu` is set).  On the line `work` may hold two node arrays, for
    the drift and its magnitude."""
    gv = g.at_step(k)
    lo, hi = ops.spec.control_box
    if not (lo - 1e-12 <= gv.min() and gv.max() <= hi + 1e-12):
        raise ControlOutOfBox("control leaves the box at step %d" % k)
    joint = ops.mu is not None
    drift, speed = (None, None) if work is None else work
    b = ops.drift(y_column(gv) if joint else gv, out=drift)
    bmax = float(np.max(np.abs(b, out=speed)))
    lmax = float(ops.lam.max()) if joint else 0.0
    cfl = bmax * ops.dt / ops.dx + (lmax * ops.dt / ops.grid.dy if joint else 0.0)
    if cfl > 1.0 + 1e-12:
        raise CFLViolation(
            f"advective CFL number {cfl:.3f} > 1 (max|b|={bmax:.3g}, "
            f"max lam={lmax:.3g}); refine dt"
        )
    return b


def _energy(values: np.ndarray, grid: Grid, dt: float) -> EnergyRecord:
    """The energy record of a trajectory's (nx,) or (nx, ny_total) slices:
    the sup of the L2 norm squared, the dt-weighted sum over k >= 1 of the
    L2 and H^1_0 norms squared, the initial L2 norm squared, and the ratio.
    Each slice's squares and scaled differences go into one scratch pair."""
    wy = grid.wy if values.ndim == 3 else None
    square = np.empty(values.shape[1:])
    grad_sq = np.empty((values.shape[1] - 1, *values.shape[2:]))
    l2 = [weighted_l2_sq(rho, grid.wx, wy, out=square) for rho in values]
    h10_sum = 0.0
    for rho, l2_sq in zip(values[1:], l2[1:]):
        np.subtract(rho[1:], rho[:-1], out=grad_sq)
        grad_sq /= grid.dx
        np.square(grad_sq, out=grad_sq)
        h10_sq = float((grad_sq if wy is None else grad_sq @ wy).sum() * grid.dx)
        h10_sum += (l2_sq + h10_sq) * dt
    sup_sq, init_sq = max(l2), l2[0]
    return EnergyRecord(sup_sq, h10_sum, init_sq,
                        (sup_sq + h10_sum) / init_sq if init_sq > 0 else 0.0)


def _march(kind: type, spec: ModelSpec, grid: Grid, g: FeedbackControl,
           vals0: np.ndarray, noise: CommonNoisePath | None, step) -> _ForwardTrajectory:
    """The time loop of both forward solvers, returning their `kind` of record.

    `step(k, t, rho)` advances the density over [t_k, t_{k+1}]; the loop
    then applies the common-noise shift, if any, and records the values,
    the cell-sum mass and the mass that left through the shift.  The
    density is (nx,) on the line, (nx, ny) for a `ForwardTrajectory2D`.
    """
    joint = kind is ForwardTrajectory2D
    dx, nt = grid.dx, grid.nt
    dy = grid.dy if joint else 1.0
    rho = np.ascontiguousarray(vals0, dtype=float)
    grid.check_field(rho, "initial density", joint, series=False)
    offsets = noise_offsets(spec, grid, noise)

    out = np.empty((nt + 1, *rho.shape))
    out[0] = rho
    mass = np.empty(nt + 1)
    mass[0] = rho.sum() * dx * dy
    leakage = 0.0
    times = grid.times(spec.T)
    for k in range(nt):
        rho = step(k, times[k], rho)
        if offsets is not None:
            pre = rho.sum()
            rho = shift_density(rho, offsets[k], dx)
            leakage += abs(pre - rho.sum()) * dx * dy
        out[k + 1] = rho
        mass[k + 1] = rho.sum() * dx * dy
    energy = _energy(out, grid, grid.dt(spec.T))
    return kind(grid, times, out, g, noise, mass, energy, leakage)


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
    # the steps' work arrays, shared by every step of the march
    nodes = tuple(np.empty(grid.nx) for _ in range(3))
    faces = tuple(np.empty(grid.nx - 1) for _ in range(3))

    def step(k, t, rho):
        ops = StepOperators(spec, grid, t, NuHandle(x, rho), noise)
        b = _drift(ops, g, k, work=nodes[:2])
        rho = diffuse(rho, ops.matrix)
        rho *= ops.kill
        div = upwind_flux_divergence(rho, face_average(b, out=faces[0]), dx,
                                     nodes[2], faces[1:])
        div *= dt
        rho += div
        return rho

    return _march(ForwardTrajectory1D, spec, grid, g, initial, noise, step)


def solve_forward_2d(
    spec: ModelSpec,
    grid: Grid,
    g: FeedbackControl,
    noise: CommonNoisePath | None = None,
) -> ForwardTrajectory2D:
    """March the joint density of (position, cumulative intensity).

    It starts from the model's `initial_density_2d` at unit mass.  The pair
    is never killed: the intensity coordinate is transported upward at rate
    lam(x) instead, with zero inflow at y = 0, so total mass is conserved
    exactly by the scheme.
    """
    grid.check_field(g, "feedback")
    dx, dy, dt = grid.dx, grid.dy, grid.dt(spec.T)
    mu0 = Density2D(grid, spec.initial_density_2d(grid.x[:, None], grid.y[None, :]))

    def step(k, t, mu):
        ops = StepOperators(spec, grid, t, noise=noise, mu=Density2D(grid, mu))
        b = _drift(ops, g, k)
        mu = diffuse(mu, ops.matrix)
        expl = upwind_flux_divergence(mu, face_average(b), dx)
        return y_transport(mu, ops.lam, dt, dy) + dt * expl

    return _march(ForwardTrajectory2D, spec, grid, g, mu0.values / mu0.mass, noise, step)
