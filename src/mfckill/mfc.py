"""Coupled control loop: cost evaluation, Picard iteration on the
forward-backward pair, first-order-condition residuals, and the
intensity-independence diagnostic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward import (
    BSPDESolution,
    central_grad,
    solve_backward_1d,
    solve_backward_2d,
    terminal_cost_injection,
)
from .controls import FeedbackControl
from .errors import DirectionLeavesBox, GridMismatch, PicardStalled
from .forward import (
    CommonNoisePath,
    ForwardTrajectory1D,
    ForwardTrajectory2D,
    StepOperators,
    diffuse,
    face_average,
    face_flux_divergence,
    shift_density,
    solve_forward_1d,
    solve_forward_2d,
    y_column,
)
from .hamiltonians import MU_FLOOR, k_tilde, minimize_hamiltonian, minimize_k_tilde
from .measures import s_map, survival_quadrature, trapezoid_weights
from .model import Grid, ModelSpec, NuHandle

__all__ = [
    "CostReport",
    "MFCResult",
    "evaluate_cost",
    "solve_mfc",
    "solve_mfc_2d",
    "gateaux_derivative",
    "smp_residual",
    "intensity_independence_diag",
    "separable_lift",
]


@dataclass
class CostReport:
    running: float
    terminal: float
    total: float
    form: str               # "nu", "mu", or "both"
    form_gap: float = 0.0   # |J_mu - J_nu| when both trajectories given

    def __float__(self):
        return self.total


def _time_weights(nt: int) -> np.ndarray:
    c = np.ones(nt + 1)
    c[0] = c[-1] = 0.5
    return c


def _df1_values(spec: ModelSpec, t: float, x, g):
    if spec.df1 is not None:
        return np.asarray(spec.df1(t, x, g), dtype=float)
    h = 1e-6
    return (np.asarray(spec.f1(t, x, g + h), dtype=float)
            - np.asarray(spec.f1(t, x, g - h), dtype=float)) / (2 * h)


def evaluate_cost(
    spec: ModelSpec,
    g: FeedbackControl,
    nu_traj: ForwardTrajectory1D | None = None,
    mu_traj: ForwardTrajectory2D | None = None,
) -> CostReport:
    """Trapezoid-in-time cost along precomputed trajectories.

    With a marginal trajectory the running cost pairs f against nu; with
    a joint trajectory it pairs e^{-y} f against mu.  When both are given
    the two forms and their gap are reported (they coincide exactly for
    y-independent feedbacks under the shared tensor quadrature).
    """
    if nu_traj is None and mu_traj is None:
        raise GridMismatch("need at least one trajectory")
    results = {}
    for name, traj in (("nu", nu_traj), ("mu", mu_traj)):
        if traj is None:
            continue
        grid = traj.grid
        x = grid.x
        dt = grid.dt(spec.T)
        cw = _time_weights(grid.nt)
        wx = trapezoid_weights(grid.nx, grid.dx)
        keep, _, survival = survival_quadrature(grid.y, grid.dy)
        running = 0.0
        for k in range(grid.nt + 1):
            t = traj.times[k]
            gv = g.at_step(k)
            if name == "nu":
                vals = traj.values[k]
                ops = StepOperators(spec, grid, t, NuHandle(x, vals))
                fk = ops.f0 + np.asarray(spec.f1(t, x, gv), dtype=float)
                running += cw[k] * dt * float((vals * fk) @ wx)
            else:
                mu_k = traj.at(k)
                ops = StepOperators(spec, grid, t, NuHandle(x, s_map(mu_k).values))
                fk = ops.f0[:, None] + np.asarray(spec.f1(t, x[:, None], y_column(gv)),
                                                  dtype=float)
                fk = np.broadcast_to(fk, (grid.nx, grid.ny_total))[:, keep]
                running += cw[k] * dt * float(
                    wx @ ((mu_k.values[:, keep] * fk) @ survival)
                )
        if name == "nu":
            nuT = NuHandle(x, nu_traj.values[-1])
        else:
            nuT = NuHandle(x, s_map(mu_traj.at(grid.nt)).values)
        terminal = float(spec.psi(nuT))
        results[name] = (running, terminal, running + terminal)

    if len(results) == 2:
        gap = abs(results["mu"][2] - results["nu"][2])
        r = results["nu"]
        return CostReport(r[0], r[1], r[2], "both", gap)
    (name, r), = results.items()
    return CostReport(r[0], r[1], r[2], name)


@dataclass
class MFCResult:
    g_star: FeedbackControl
    u: BSPDESolution
    nu_traj: ForwardTrajectory1D
    mu_traj: ForwardTrajectory2D | None
    cost: CostReport
    diagnostics: dict = field(default_factory=dict)


def _feedback_from_value(spec: ModelSpec, grid: Grid, u: BSPDESolution) -> np.ndarray:
    x = grid.x
    times = grid.times(spec.T)
    out = np.empty((grid.nt + 1, grid.nx))
    for k in range(grid.nt + 1):
        p = central_grad(u.u[k], grid.dx)
        out[k] = minimize_hamiltonian(times[k], x, p, spec)
    return out


def solve_mfc(
    spec: ModelSpec,
    grid: Grid,
    noise: CommonNoisePath | None = None,
    tol_pi: float = 1e-6,
    max_iter: int = 200,
    damping: float = 0.5,
    tol_fp: float = 1e-10,
    strict: bool = False,
    with_2d: bool = False,
    mean_field: bool = True,
) -> MFCResult:
    """Damped Picard loop on the one-dimensional forward-backward system.

    Each sweep solves the population density for the current feedback,
    the value field for that population, and resynthesizes the feedback
    from the pointwise Hamiltonian minimizer.  Convergence is declared on
    the control iterate.  Set mean_field=False to drop the nonlocal terms
    (the game rather than control fixed point) for comparison runs.
    """
    work = spec if mean_field else spec.with_params(db0=None, df0=None)
    x = grid.x
    g = FeedbackControl.constant(float(spec.box_array[0].mean()), grid, spec)
    residuals = []
    costs = []
    best = None
    converged = False
    stalled = False
    nu_traj = None
    u = None
    for it in range(1, max_iter + 1):
        nu_traj = solve_forward_1d(work, grid, g, noise)
        terminal = np.asarray(
            work.dpsi(NuHandle(x, nu_traj.values[-1]), x), dtype=float
        )
        u = solve_backward_1d(work, grid, nu_traj, terminal, noise, tol_fp=tol_fp)
        g_new = _feedback_from_value(work, grid, u)
        res = float(np.max(np.abs(g_new - g.values)))
        cost = evaluate_cost(work, g, nu_traj=nu_traj)
        residuals.append(res)
        costs.append(cost.total)
        if best is None or cost.total < best[0]:
            best = (cost.total, g.values.copy())
        if res <= tol_pi:
            converged = True
            break
        g = FeedbackControl.from_array(
            (1.0 - damping) * g.values + damping * g_new, spec
        )
        if it >= 30 and residuals[-1] > tol_pi:
            window = residuals[-30:]
            if window[-1] > 0.999 * window[0]:
                stalled = True
                g = FeedbackControl.from_array(best[1], spec)
                break
    if stalled and strict:
        raise PicardStalled(
            f"control residual plateaued at {residuals[-1]:.3e} > {tol_pi}"
        )

    # final sweep: value field for the returned control, then the feedback
    # resynthesized from it, so g_star is the pointwise minimizer of the
    # returned value field (the form every optimal control takes)
    nu_traj = solve_forward_1d(work, grid, g, noise)
    terminal = np.asarray(work.dpsi(NuHandle(x, nu_traj.values[-1]), x), dtype=float)
    u = solve_backward_1d(work, grid, nu_traj, terminal, noise, tol_fp=tol_fp)
    g = FeedbackControl.from_array(_feedback_from_value(work, grid, u), spec)
    nu_traj = solve_forward_1d(work, grid, g, noise)
    mu_traj = solve_forward_2d(work, grid, g, noise) if with_2d else None
    cost = evaluate_cost(work, g, nu_traj=nu_traj, mu_traj=mu_traj)
    diagnostics = {
        "picard_iterations": len(residuals),
        "residual_trace": residuals,
        "cost_trace": costs,
        "converged": converged,
        "stalled": stalled,
        "final_residual": residuals[-1] if residuals else 0.0,
        "fixed_point_iterations_median": float(
            np.median(u.fixed_point.iterations)
        ),
    }
    return MFCResult(g, u, nu_traj, mu_traj, cost, diagnostics)


def separable_lift(u_1d: BSPDESolution, grid: Grid) -> BSPDESolution:
    """Lift a 1d value field to the half-plane via the e^{-y} profile."""
    ey = np.exp(-grid.y)
    u2 = u_1d.u[:, :, None] * ey[None, None, :]
    q2 = u_1d.q[:, :, None] * ey[None, None, :]
    sol = BSPDESolution(grid, u_1d.times, u2, q2, u2[-1], dict(u_1d.energy))
    return sol


def smp_residual(
    spec: ModelSpec,
    g: FeedbackControl,
    mu_traj: ForwardTrajectory2D,
    adjoint_2d: BSPDESolution,
    mu_floor: float = MU_FLOOR,
) -> float:
    """Worst pointwise optimality defect over the support of mu.

    sup over grid cells with mu > floor of K(x, y, du, g) - inf_h K(x, y,
    du, h); nonnegative up to minimizer tolerance (clipped at zero).
    """
    grid = mu_traj.grid
    x, y = grid.x, grid.y
    worst = 0.0
    for k in range(grid.nt + 1):
        t = mu_traj.times[k]
        mu_k = mu_traj.values[k]
        support = mu_k > mu_floor
        if not support.any():
            continue
        p = central_grad(adjoint_2d.u[k], grid.dx)
        nu = NuHandle(x, s_map(mu_traj.at(k)).values)
        k_g = k_tilde(t, x[:, None], y[None, :], p, y_column(g.at_step(k)), nu, spec)
        g_min = minimize_k_tilde(t, x[:, None], y[None, :], p, nu, spec)
        k_min = k_tilde(t, x[:, None], y[None, :], p, g_min, nu, spec)
        gap = np.where(support, k_g - k_min, 0.0)
        worst = max(worst, float(gap.max()))
    return max(worst, 0.0)


def gateaux_derivative(
    spec: ModelSpec,
    g: FeedbackControl,
    h: np.ndarray | FeedbackControl,
    mu_traj: ForwardTrajectory2D,
    adjoint_2d: BSPDESolution,
    quadrature: str = "dual",
) -> float:
    """Directional derivative of the closed-loop cost at feedback g.

    Time-space quadrature of <mu, (b1_factor du + e^{-y} df1(g)) h>.
    quadrature="dual" integrates the drift part on cell faces against the
    upwind side of the post-diffusion density and the next adjoint slice
    (the quadrature under which the chain rule through the forward march
    is exact, so it matches finite differences of the discrete cost);
    quadrature="node" evaluates the integrand at nodes with the centered
    gradient, which inherits the pointwise sign of the minimizer's
    first-order condition.  The cost part always uses trapezoid weights.
    """
    grid = mu_traj.grid
    x, y = grid.x, grid.y
    dx, dy = grid.dx, grid.dy
    dt = grid.dt(spec.T)
    nt = grid.nt
    h_vals = h.values if isinstance(h, FeedbackControl) else np.asarray(h, dtype=float)
    lo, hi = spec.box_array[0]
    eps = 1e-9
    probe = g.values + eps * (h_vals if h_vals.ndim == g.values.ndim else h_vals[..., None])
    if probe.min() < lo - 1e-15 or probe.max() > hi + 1e-15:
        raise DirectionLeavesBox("g + eps h leaves the control box")

    increments = mu_traj.noise.increments if mu_traj.noise is not None else None
    cw = _time_weights(nt)
    wx = trapezoid_weights(grid.nx, dx)
    wy = trapezoid_weights(grid.ny_total, dy)
    keep, wy_pos, survival = survival_quadrature(y, dy)

    def step_dir(k):
        return y_column(h_vals[min(k, h_vals.shape[0] - 1)])

    if quadrature not in ("dual", "node"):
        raise ValueError("quadrature must be 'dual' or 'node'")
    total = 0.0
    times = mu_traj.times
    if quadrature == "node":
        ey_full = np.exp(-y)
        for k in range(nt + 1):
            t = times[k]
            fac = StepOperators(spec, grid, t).fac
            p = central_grad(adjoint_2d.u[k], dx)
            df1 = _df1_values(spec, t, x[:, None], y_column(g.at_step(k)))
            integ = (fac[:, None] * p + ey_full[None, :] * df1) * step_dir(k)
            contrib = mu_traj.values[k][:, keep] \
                * np.broadcast_to(integ, mu_traj.values[k].shape)[:, keep]
            total += cw[k] * dt * float(wx @ (contrib @ wy_pos))
        return total
    for k in range(nt):
        t = times[k]
        ops = StepOperators(spec, grid, t, NuHandle(x, s_map(mu_traj.at(k)).values),
                            mu_traj.noise)
        mu_mid = diffuse(mu_traj.values[k], ops.matrix)
        v = adjoint_2d.u[k + 1]
        if k == nt - 1:
            # the stored terminal slice is the raw psi data; restore the
            # half-weight running-cost injection carried by the dual state
            v = v + terminal_cost_injection(spec, g, mu_traj, cw[nt])
        if increments is not None:
            v = shift_density(v, -spec.sigma0(t) * increments[k], dx)
        b_face = ops.face_drift(y_column(g.at_step(k)))
        db_face = face_average(ops.fac[:, None] * step_dir(k))
        d_flux = db_face * np.where(b_face > 0.0, mu_mid[:-1], mu_mid[1:])
        d_mu = face_flux_divergence(d_flux, dx)
        total += dt * float(wx @ ((d_mu * v) @ wy))

    for k in range(nt + 1):
        t = times[k]
        df1 = _df1_values(spec, t, x[:, None], y_column(g.at_step(k)))
        integ = (mu_traj.values[k][:, keep]
                 * np.broadcast_to(df1 * step_dir(k), mu_traj.values[k].shape)[:, keep])
        total += cw[k] * dt * float(wx @ (integ @ survival))
    return total


def intensity_independence_diag(g2d: FeedbackControl) -> float:
    """Max over (t, x) of the feedback's spread along the intensity axis."""
    return g2d.y_variation()


def solve_mfc_2d(
    spec: ModelSpec,
    grid: Grid,
    noise: CommonNoisePath | None = None,
    tol_pi: float = 1e-5,
    max_iter: int = 80,
    damping: float = 0.5,
    tol_fp: float = 1e-10,
    mu_floor: float = MU_FLOOR,
) -> tuple[FeedbackControl, BSPDESolution, ForwardTrajectory2D, dict]:
    """Picard loop with a joint-state feedback g(t, x, y).

    Each sweep: joint forward solve, linear backward solve for the
    current feedback, then the pointwise minimizer update (falling back
    to the marginal-equation minimizer off the support of mu).  The
    spread of the converged feedback along y is the numerical measure of
    intensity independence.
    """
    x, y = grid.x, grid.y
    times = grid.times(spec.T)
    g2 = FeedbackControl.constant(float(spec.box_array[0].mean()), grid, spec, two_d=True)
    residuals = []
    mu_traj = None
    adj = None
    for it in range(1, max_iter + 1):
        mu_traj = solve_forward_2d(spec, grid, g2, noise)
        nu_vals = np.stack([s_map(mu_traj.at(k)).values for k in range(grid.nt + 1)])
        nu_traj = ForwardTrajectory1D(grid, times, nu_vals, g2, noise,
                                      nu_vals.sum(axis=1) * grid.dx,
                                      mu_traj.energy, 0.0)
        nuT = NuHandle(x, nu_vals[-1])
        term1 = np.asarray(spec.dpsi(nuT, x), dtype=float)
        u1 = solve_backward_1d(spec, grid, nu_traj, term1, noise, tol_fp=tol_fp)
        term2 = np.exp(-y)[None, :] * term1[:, None]
        adj = solve_backward_2d(spec, grid, mu_traj, g=g2, terminal=term2,
                                noise=noise, tol_fp=tol_fp)
        g_new = np.empty_like(g2.values)
        for k in range(grid.nt + 1):
            t = times[k]
            p = central_grad(adj.u[k], grid.dx)
            nu = NuHandle(x, nu_vals[k])
            g_min = minimize_k_tilde(t, x[:, None], y[None, :], p, nu, spec)
            p1 = central_grad(u1.u[k], grid.dx)
            g_fb = minimize_hamiltonian(t, x, p1, spec)
            g_new[k] = np.where(mu_traj.values[k] > mu_floor, g_min, g_fb[:, None])
        res = float(np.max(np.abs(g_new - g2.values)))
        residuals.append(res)
        if res <= tol_pi:
            g2 = FeedbackControl.from_array(g_new, spec)
            break
        g2 = FeedbackControl.from_array(
            (1.0 - damping) * g2.values + damping * g_new, spec
        )
    diagnostics = {
        "picard_iterations": len(residuals),
        "residual_trace": residuals,
        "converged": residuals[-1] <= tol_pi if residuals else False,
        "intensity_independence": intensity_independence_diag(g2),
    }
    return g2, adj, mu_traj, diagnostics
