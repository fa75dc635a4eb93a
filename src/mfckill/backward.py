"""Backward value-field solvers.

Two equations are marched backward from a terminal field: the
one-dimensional semilinear equation with control-minimized Hamiltonian,
killing term, and nonlocal coupling, and its two-dimensional counterpart
on the half-plane with the degenerate one-sided intensity transport and
no condition at the lower boundary.

Discretization mirrors the forward solver step by step: implicit centered
diffusion, exact exponential handling of the zeroth-order killing term
(1d), one-sided forward-in-y differencing (2d) so each row reads only
from above, and an upwind evaluation of the drift bracket.  When a fixed
feedback is supplied the step reduces to the exact algebraic transpose of
the forward step, which makes the discrete first-order conditions hold at
the stated tolerances; the semilinear modes run the damped inner
fixed-point iteration on (u, du/dx) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import FeedbackControl
from .errors import ArgumentConflict, FixedPointDiverged, GridMismatch
from .forward import (
    CommonNoisePath,
    ForwardTrajectory1D,
    ForwardTrajectory2D,
    StepOperators,
    diffuse,
    shift_density,
    upwind_transport_adjoint,
    weighted_l2_sq,
    y_column,
)
from .hamiltonians import MU_FLOOR, f_nu, f_tilde_mu, minimize_hamiltonian, minimize_k_tilde
from .measures import SubProb1D, s_map, trapezoid_weights
from .model import Grid, ModelSpec, NuHandle

__all__ = [
    "BSPDESolution",
    "solve_backward_1d",
    "solve_backward_2d",
    "solve_backward_1d_galerkin",
    "energy_report",
]


@dataclass
class FixedPointStats:
    iterations: list
    contraction: float


@dataclass
class BSPDESolution:
    grid: Grid
    times: np.ndarray
    u: np.ndarray           # (nt+1, nx) or (nt+1, nx, ny_total)
    q: np.ndarray           # same shape; zero when no noise path was given
    terminal: np.ndarray
    energy: dict
    fixed_point: FixedPointStats | None = None

    @property
    def is_2d(self) -> bool:
        return self.u.ndim == 3


def central_grad(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered interior differences, one-sided at the ends (axis 0)."""
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    out[0] = (u[1] - u[0]) / dx
    out[-1] = (u[-1] - u[-2]) / dx
    return out


def energy_report(solution: BSPDESolution, terminal: np.ndarray) -> dict:
    """Norm summary and the smallest constant relating it to the data."""
    grid = solution.grid
    dt = float(solution.times[1] - solution.times[0])
    wx = trapezoid_weights(grid.nx, grid.dx)
    wy = trapezoid_weights(grid.ny_total, grid.dy) if solution.is_2d else None
    sup_u = 0.0
    grad_sum = 0.0
    q_sum = 0.0
    for k in range(solution.u.shape[0]):
        sup_u = max(sup_u, weighted_l2_sq(solution.u[k], wx, wy))
        gr = central_grad(solution.u[k], grid.dx)
        grad_sum += weighted_l2_sq(gr, wx, wy) * dt
        q_sum += weighted_l2_sq(solution.q[k], wx, wy) * dt
    psi_sq = weighted_l2_sq(np.asarray(terminal, dtype=float), wx, wy)
    lhs = sup_u + grad_sum + q_sum
    c = 0.0 if lhs <= 1e-300 else lhs / (1.0 + psi_sq)
    return {
        "sup_u_sq": sup_u,
        "grad_sq_time_sum": grad_sum,
        "q_sq_time_sum": q_sum,
        "terminal_sq": psi_sq,
        "constant": c,
    }


def _fp_residual_weight(eta: float, t: float) -> float:
    return float(np.exp(eta * t))


def _warm_start(u: np.ndarray, k: int, nt: int, v: np.ndarray,
                shifted: bool) -> np.ndarray:
    """Seed the inner iteration by extrapolating the marched slices.

    Quadratic extrapolation in time once three slices are available;
    falls back to the unshifted next slice early on or when a noise path
    makes successive slices live in different frames.
    """
    if shifted or k >= nt - 1:
        return v
    if k >= nt - 2:
        return 2.0 * u[k + 1] - u[k + 2]
    if k >= nt - 3:
        return 3.0 * u[k + 1] - 3.0 * u[k + 2] + u[k + 3]
    return 4.0 * u[k + 1] - 6.0 * u[k + 2] + 4.0 * u[k + 3] - u[k + 4]


def _run_fixed_point(apply_map, u_init, t_k, eta, tol_fp, max_fp, damping):
    """Damped fixed-point iteration with divergence detection.

    Returns the converged field, the iteration count, and the geometric
    contraction estimate of the residual sequence.
    """
    w = u_init.copy()
    weight = _fp_residual_weight(eta, t_k)
    prev_res = np.inf
    grow = 0
    residuals = []
    for it in range(1, max_fp + 1):
        cand = apply_map(w)
        res = weight * float(np.max(np.abs(cand - w)))
        residuals.append(res)
        if res > prev_res * (1.0 + 1e-12) and res > 1e-13:
            grow += 1
            if grow >= 5:
                raise FixedPointDiverged(
                    f"inner residual grew for 5 iterations (last {res:.3e})"
                )
        else:
            grow = 0
        w = (1.0 - damping) * w + damping * cand
        if res <= tol_fp:
            break
        prev_res = res
    contraction = 0.0
    if len(residuals) >= 3 and residuals[0] > 0:
        contraction = (residuals[-1] / residuals[0]) ** (1.0 / (len(residuals) - 1))
    return w, it, contraction


def solve_backward_1d(
    spec: ModelSpec,
    grid: Grid,
    nu_traj: ForwardTrajectory1D,
    terminal: np.ndarray,
    noise: CommonNoisePath | None = None,
    eta: float = 1.0,
    tol_fp: float = 1e-10,
    max_fp: int = 50,
    damping: float = 0.5,
) -> BSPDESolution:
    """Backward semilinear march on the line.

    Per step (from u at t_{k+1} to t_k): undo the common-noise shift,
    run the damped fixed point on the explicit Hamiltonian + nonlocal
    terms (drift bracket applied with the upwind stencil), multiply by
    the exact killing factor, and solve the implicit diffusion.
    """
    x = grid.x
    dx = grid.dx
    dt = grid.dt(spec.T)
    nt = grid.nt
    if nu_traj.values.shape != (nt + 1, grid.nx):
        raise GridMismatch("nu trajectory does not match the grid")
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (grid.nx,):
        raise GridMismatch("terminal data must be a (nx,) array")

    increments = noise.increments if noise is not None else None
    times = grid.times(spec.T)
    u = np.empty((nt + 1, grid.nx))
    q = np.zeros_like(u)
    u[nt] = terminal
    iters = []
    contr = []

    for k in range(nt - 1, -1, -1):
        t = times[k]
        nu_vals = nu_traj.values[k]
        ops = StepOperators(spec, grid, t, NuHandle(x, nu_vals), noise, transpose=True)
        nu_sub = SubProb1D(x, np.maximum(nu_vals, 0.0))

        v = u[k + 1]
        if increments is not None:
            v = shift_density(v, -spec.sigma0(t) * increments[k], dx)

        def step_map(w):
            p = central_grad(w, dx)
            gmin = minimize_hamiltonian(t, x, p, spec)
            expl = upwind_transport_adjoint(w, ops.face_drift(gmin), dx)
            expl = expl + ops.f0 + np.asarray(spec.f1(t, x, gmin), dtype=float)
            expl = expl + f_nu(t, x, nu_sub, p, spec)
            return diffuse(ops.kill * (v + dt * expl), ops.matrix)

        w0 = _warm_start(u, k, nt, v, increments is not None)
        u[k], it, rho = _run_fixed_point(step_map, w0, t, eta, tol_fp, max_fp, damping)
        iters.append(it)
        contr.append(rho)
        if increments is not None:
            q[k] = spec.sigma0(t) * central_grad(u[k], dx)

    sol = BSPDESolution(grid, times, u, q, terminal, {},
                        FixedPointStats(iters[::-1], float(np.median(contr)) if contr else 0.0))
    sol.energy = energy_report(sol, terminal)
    return sol


def _ghost_decay(dy: float) -> float:
    return float(np.exp(-dy))


def _y_upwind_adjoint_rate(w: np.ndarray, lam_nodes: np.ndarray, dy: float,
                           ghost_decay: float) -> np.ndarray:
    """lam(x) * (w(y+dy) - w(y)) / dy with a decayed ghost above the top."""
    upper = np.empty_like(w)
    upper[:, :-1] = w[:, 1:]
    upper[:, -1] = ghost_decay * w[:, -1]
    return lam_nodes[:, None] * (upper - w) / dy


def terminal_cost_injection(spec: ModelSpec, g: FeedbackControl,
                            mu_traj: ForwardTrajectory2D, weight: float) -> np.ndarray:
    """The end-point running cost the dual state carries above the psi data.

    weight dt e^{-y} (f0 + f1) at t_N, with f0 taken at the survival
    marginal of mu at step N, matching the last term of the cost sum.
    """
    grid = mu_traj.grid
    x, nt = grid.x, grid.nt
    t = mu_traj.times[nt]
    ops = StepOperators(spec, grid, t, NuHandle(x, s_map(mu_traj.at(nt)).values))
    f_end = ops.f0[:, None] + np.asarray(spec.f1(t, x[:, None], y_column(g.at_step(nt))),
                                         dtype=float)
    return weight * ops.dt * np.exp(-grid.y)[None, :] * f_end


def solve_backward_2d(
    spec: ModelSpec,
    grid: Grid,
    mu_traj: ForwardTrajectory2D,
    g: FeedbackControl | None = None,
    u_1d: BSPDESolution | None = None,
    terminal: np.ndarray | None = None,
    noise: CommonNoisePath | None = None,
    eta: float = 1.0,
    tol_fp: float = 1e-10,
    max_fp: int = 50,
    damping: float = 0.5,
    cost_weights: np.ndarray | None = None,
    mu_floor: float = MU_FLOOR,
) -> BSPDESolution:
    """Backward march on the half-plane.

    Exactly one of `g` (fixed feedback: linear equation) and `u_1d`
    (semilinear mode with the density-indicator Hamiltonian and the
    one-dimensional solution supplying the fallback control) must be
    given.  The degenerate intensity transport uses the one-sided
    forward-in-y difference, so the bottom row never reads values from
    below it, and the top row extrapolates with magnitude decayed by
    e^{-dy}.

    With `g` supplied the step is the exact transpose of the forward
    step and the running cost enters with the trapezoid time weights
    (override with `cost_weights`), so the discrete duality with the
    forward solve is exact up to boundary-weight corrections.
    """
    if (g is None) == (u_1d is None):
        raise ArgumentConflict("supply exactly one of g and u_1d")
    x, y = grid.x, grid.y
    dx, dy = grid.dx, grid.dy
    dt = grid.dt(spec.T)
    nt = grid.nt
    sh = (grid.nx, grid.ny_total)
    if mu_traj.values.shape != (nt + 1, *sh):
        raise GridMismatch("mu trajectory does not match the grid")
    if terminal is None:
        raise GridMismatch("2d solve requires terminal data e^{-y} dpsi")
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != sh:
        raise GridMismatch("terminal data must be a (nx, ny) array")

    increments = noise.increments if noise is not None else None
    times = grid.times(spec.T)
    decay = _ghost_decay(dy)
    u = np.empty((nt + 1, *sh))
    q = np.zeros_like(u)
    u[nt] = terminal
    iters = []
    contr = []
    ey_signed = np.exp(-y)

    if cost_weights is None:
        cost_weights = np.ones(nt + 1)
        cost_weights[0] = cost_weights[-1] = 0.5

    # internal marching variable: the dual state including the terminal
    # half-weight cost injection; the stored terminal slice stays = psi data
    carry = terminal.copy()
    if g is not None:
        carry = carry + terminal_cost_injection(spec, g, mu_traj, cost_weights[nt])

    for k in range(nt - 1, -1, -1):
        t = times[k]
        mu_k = mu_traj.at(k)
        nu = NuHandle(x, s_map(mu_k).values)
        ops = StepOperators(spec, grid, t, nu, noise, transpose=True)

        v = carry
        if increments is not None:
            v = shift_density(v, -spec.sigma0(t) * increments[k], dx)

        if g is not None:
            gv = y_column(g.at_step(k))
            expl = upwind_transport_adjoint(v, ops.face_drift(gv), dx)
            expl = expl + _y_upwind_adjoint_rate(v, ops.lam, dy, decay)
            if spec.db0 is not None or spec.df0 is not None:
                pv = central_grad(v, dx)
                expl = expl + f_tilde_mu(t, x[:, None], y[None, :], mu_k, pv, spec)
            out = diffuse(v + dt * expl, ops.matrix)
            fk = ops.f0[:, None] + np.asarray(spec.f1(t, x[:, None], gv), dtype=float)
            out = out + cost_weights[k] * dt * ey_signed[None, :] * fk
            u[k] = out
            carry = out
            iters.append(1)
            contr.append(0.0)
        else:
            mu_pos = mu_k.values > mu_floor
            p1d = central_grad(u_1d.u[k], dx)
            g_fb = minimize_hamiltonian(t, x, p1d, spec)

            def step_map(w):
                p = central_grad(w, dx)
                g_min = minimize_k_tilde(t, x[:, None], y[None, :], p, nu, spec)
                g_loc = np.where(mu_pos, g_min, g_fb[:, None])
                expl = upwind_transport_adjoint(w, ops.face_drift(g_loc), dx)
                f_loc = ops.f0[:, None] + np.asarray(spec.f1(t, x[:, None], g_loc), dtype=float)
                expl = expl + ey_signed[None, :] * f_loc
                expl = expl + _y_upwind_adjoint_rate(w, ops.lam, dy, decay)
                if spec.db0 is not None or spec.df0 is not None:
                    expl = expl + f_tilde_mu(t, x[:, None], y[None, :], mu_k, p, spec)
                return diffuse(v + dt * expl, ops.matrix)

            w0 = _warm_start(u, k, nt, v, increments is not None)
            u[k], it, rho = _run_fixed_point(step_map, w0, t, eta, tol_fp, max_fp, damping)
            carry = u[k]
            iters.append(it)
            contr.append(rho)

        if increments is not None:
            q[k] = spec.sigma0(t) * central_grad(u[k], dx)

    sol = BSPDESolution(grid, times, u, q, terminal, {},
                        FixedPointStats(iters[::-1], float(np.median(contr)) if contr else 0.0))
    sol.energy = energy_report(sol, terminal)
    return sol


def solve_backward_1d_galerkin(
    spec: ModelSpec,
    grid: Grid,
    nu_traj: ForwardTrajectory1D,
    terminal: np.ndarray,
    n_modes: int = 48,
) -> BSPDESolution:
    """Spectral cross-check for the linear regime (singleton control box).

    Projects the equation on a sine basis over the x interval and marches
    the mode coefficients with backward Euler.  Intended for comparison
    against the finite-difference path on problems whose solution decays
    at the boundary; not a production scheme.
    """
    box = spec.box_array
    if abs(box[0, 1] - box[0, 0]) > 1e-14:
        raise ArgumentConflict("galerkin mode supports a singleton control box only")
    g0 = float(box[0, 0])
    x = grid.x
    dx = grid.dx
    dt = grid.dt(spec.T)
    nt = grid.nt
    L = grid.x_max - grid.x_min
    n = np.arange(1, n_modes + 1)
    phi = np.sqrt(2.0 / L) * np.sin(np.outer(x - grid.x_min, n) * np.pi / L)
    dphi = np.sqrt(2.0 / L) * (n * np.pi / L)[None, :] * np.cos(
        np.outer(x - grid.x_min, n) * np.pi / L
    )
    d2phi = -((n * np.pi / L) ** 2)[None, :] * phi
    w = trapezoid_weights(grid.nx, dx)

    times = grid.times(spec.T)
    u = np.empty((nt + 1, grid.nx))
    u[nt] = np.asarray(terminal, dtype=float)
    coef = phi.T @ (w * u[nt])
    for k in range(nt - 1, -1, -1):
        t = times[k]
        sig = np.asarray(spec.sigma(t, x), dtype=float)
        a = 0.5 * (sig**2 + spec.sigma0(t) ** 2)
        nu = NuHandle(x, nu_traj.values[k])
        fac = np.asarray(spec.b1_factor(t, x), dtype=float)
        b = np.asarray(spec.b0(t, x, nu), dtype=float) + fac * g0
        lam = np.asarray(spec.lam(t, x), dtype=float)
        f = np.asarray(spec.f0(t, x, nu), dtype=float) + np.asarray(
            spec.f1(t, x, g0), dtype=float
        )
        op = phi.T @ (w[:, None] * (a[:, None] * d2phi + b[:, None] * dphi
                                    - lam[:, None] * phi))
        rhs = coef + dt * (phi.T @ (w * f))
        coef = np.linalg.solve(np.eye(n_modes) - dt * op, rhs)
        u[k] = phi @ coef
    sol = BSPDESolution(grid, times, u, np.zeros_like(u), u[nt], {})
    sol.energy = energy_report(sol, u[nt])
    return sol
