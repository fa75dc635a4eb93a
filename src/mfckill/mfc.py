"""Coupled control loop: cost evaluation, Picard iteration on the
forward-backward pair, first-order-condition residuals, and the
intensity-independence diagnostic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward import (
    TOL_FP,
    BSPDESolution,
    population_inputs,
    solve_backward_1d,
    solve_backward_2d,
    terminal_cost_injection,
)
from .controls import FeedbackControl
from .errors import DirectionLeavesBox, FixedPointCapped, GridMismatch, PicardStalled
from .forward import (
    CommonNoisePath,
    ForwardTrajectory1D,
    ForwardTrajectory2D,
    solve_forward_1d,
    solve_forward_2d,
)
from .hamiltonians import MU_FLOOR
from .measures import NuHandle, initial_marginal, s_map
from .model import Grid, ModelSpec
from .steps import (
    StepOperators,
    central_grad,
    diffuse,
    face_average,
    noise_offsets,
    shift_density,
    step_table,
    upwind_flux_derivative,
    y_column,
)

__all__ = [
    "CostReport",
    "MFCResult",
    "evaluate_cost",
    "solve_mfc",
    "solve_mfc_2d",
    "gateaux_derivative",
    "smp_residual",
    "separable_lift",
    "separability_gap",
]

INNER_RATIO_MAX = 1e-2  # the largest inner tolerance / last Picard residual


@dataclass
class CostReport:
    running: float
    terminal: float
    total: float
    form: str               # "nu", "mu", or "both"
    form_gap: float = 0.0   # |J_mu - J_nu| when both trajectories given

    def __float__(self):
        return self.total


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
        grid.check_field(g, "feedback", joint=False if name == "nu" else None)
        x, dt, cw, wx = grid.x, grid.dt(spec.T), grid.time_weights, grid.wx
        running = 0.0
        for k in range(grid.nt + 1):
            t = traj.times[k]
            gv = g.at_step(k)
            if name == "nu":
                vals = traj.values[k]
                fk = StepOperators(spec, grid, t, NuHandle(x, vals)).cost(gv)
                running += cw[k] * dt * float((vals * fk) @ wx)
            else:
                fk = StepOperators(spec, grid, t, mu=traj.at(k)).cost(y_column(gv))
                running += cw[k] * dt * float(wx @ ((traj.values[k] * fk) @ grid.survival))
        nuT = NuHandle(x, traj.values[-1]) if name == "nu" else s_map(traj.at(grid.nt))
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


def _feedback_from_value(spec: ModelSpec, u: BSPDESolution) -> np.ndarray:
    """The pointwise minimizer at the value field's gradient at every step of
    its grid: (nt+1, nx) on the line, (nt+1, nx, ny) on the half-plane."""
    grid = u.grid
    out = np.empty(u.u.shape)
    for k, t in enumerate(u.times):
        out[k] = StepOperators(spec, grid, t).control(central_grad(u.u[k], grid.dx))
    return out


def _picard(sweep, g: FeedbackControl, spec: ModelSpec, tol_pi: float,
            max_iter: int):
    """The Picard iteration of both control loops on `sweep(g, residual)`,
    the feedback array resynthesized from the iterate g; `residual` is the
    last sweep's residual, None on the first sweep.  Each iterate moves
    the fraction `step` of the way to its sweep's feedback; the fraction
    starts at the full step 1 and halves whenever the residual grows.  It
    converges when a sweep moves g by at most tol_pi, and stalls when the
    residual fell by under 0.1% over the last 30 sweeps.  Returns (g,
    residuals, converged, stalled); g is the last sweep's feedback if
    converged, otherwise the step taken after the last sweep."""
    residuals = []
    step = 1.0
    for _ in range(max_iter):
        g_new = sweep(g, residuals[-1] if residuals else None)
        residuals.append(float(np.max(np.abs(g_new - g.values))))
        if residuals[-1] <= tol_pi:
            return FeedbackControl.from_array(g_new, spec), residuals, True, False
        if len(residuals) > 1 and residuals[-1] > residuals[-2]:
            step *= 0.5
        g = FeedbackControl.from_array(
            (1.0 - step) * g.values + step * g_new, spec
        )
        if len(residuals) >= 30 and residuals[-1] > 0.999 * residuals[-30]:
            return g, residuals, False, True
    return g, residuals, False, False


class _ValueSolves:
    """The value field of one Picard loop's sweeps and its feedback
    (`_feedback_from_value`): `solve_backward_1d` on the sweep's
    population.  A call given the last sweep's Picard residual r asks for
    the inner tolerance max(tol_fp, min(tol_fp / tol_pi, INNER_RATIO_MAX) *
    r): every sweep solves with the inner/outer ratio of the loop's last
    one, capped so that it stays below its residual.  The first call of a
    coupled loop (`spec.coupled`) takes r to be the width hi - lo of the
    control box, the largest residual a sweep can have; any
    other call given None (an uncoupled loop's first sweep, whose field may
    be reused as the final one, or the field after the loop) asks for
    tol_fp.  The stored field is reused when `population_inputs` equal
    those of its solve byte for byte and it was solved at a tolerance no
    looser than the one asked for; otherwise the field is solved again.
    The grid and noise path are fixed for the loop, so a reused solution is
    the one the last solve returned for the same inputs; the loop's first
    solve starts cold, so while the inputs never change it is the cold
    solve's at tol_fp, bit for bit.  A new solve passes the last solve's
    field to `solve_backward_1d` as `previous`: the field moves by little
    between sweeps, so each step's fixed point starts close to where it
    ends.  `solves` counts the solves made, `tol` is the tolerance the
    stored field was solved at, `inner_iterations` holds each call's total
    inner fixed-point iterations, 0 for a reused field, and
    `inner_tolerances` the tolerance each call asked for."""

    def __init__(self, spec: ModelSpec, tol_fp: float, tol_pi: float):
        self.spec, self.tol_fp, self.tol_pi = spec, tol_fp, tol_pi
        self.solves = 0
        self.tol = None
        self.inner_iterations = []
        self.inner_tolerances = []
        self._inputs = None
        self._last = None

    def __call__(self, nu_traj: ForwardTrajectory1D,
                 residual: float | None = None) -> tuple[BSPDESolution, np.ndarray]:
        if residual is None and self._last is None and self.spec.coupled:
            # no field of a coupled loop is reused, and no sweep's residual
            # exceeds the box width: iterate and feedback both lie in it
            lo, hi = self.spec.control_box
            residual = float(hi - lo)
        tol = self.tol_fp
        if residual is not None:
            tol = max(tol, min(self.tol_fp * residual / self.tol_pi,
                               INNER_RATIO_MAX * residual))
        x = nu_traj.grid.x
        terminal = np.asarray(
            self.spec.dpsi(NuHandle(x, nu_traj.values[-1]), x), dtype=float
        )
        inputs = population_inputs(self.spec, nu_traj, terminal)
        inputs = None if inputs is None else inputs.tobytes()
        if inputs is None or inputs != self._inputs or self.tol > tol:
            previous = None if self._last is None else self._last[0].u
            u = solve_backward_1d(self.spec, nu_traj.grid, nu_traj, terminal,
                                  tol_fp=tol, previous=previous)
            self._last = u, _feedback_from_value(self.spec, u)
            self._inputs, self.tol = inputs, tol
            self.solves += 1
            self.inner_iterations.append(sum(u.fixed_point.iterations))
        else:
            self.inner_iterations.append(0)
        self.inner_tolerances.append(tol)
        return self._last


def solve_mfc(
    spec: ModelSpec,
    grid: Grid,
    noise: CommonNoisePath | None = None,
    tol_pi: float = 1e-6,
    max_iter: int = 200,
    tol_fp: float = TOL_FP,
    strict: bool = False,
    with_2d: bool = False,
) -> MFCResult:
    """Picard loop on the one-dimensional forward-backward system.

    Each sweep solves the population density for the current feedback,
    the value field for that population, and resynthesizes the feedback
    from the pointwise Hamiltonian minimizer.  The iterate takes the full
    step to that feedback, halved whenever the control residual grows.
    Convergence is declared on the control iterate; a stalled loop returns
    to the iterate of least cost.
    `strict` raises `PicardStalled` on a stall, and `FixedPointCapped`
    when an inner step of the returned value field stopped at its
    iteration cap above the tolerance its solve asked for.  For the game
    rather than the control fixed point, solve
    `spec.with_params(db0=None, df0=None)`, which has no nonlocal terms.
    When the population does not enter the value equation (see
    `population_inputs`), the value field and its feedback are solved
    once and reused; `diagnostics["backward_solves"]` counts the solves
    made.  Each later value solve starts from the last sweep's field.
    Sweep s's value solve asks for max(tol_fp, min(tol_fp / tol_pi,
    INNER_RATIO_MAX) * r), r being the residual of sweep s-1, so its inner
    error shrinks with, and stays below, the outer one.  The first sweep
    has no residual: for a coupled model
    (`spec.coupled`) r is the control box's width, which bounds every
    sweep's residual, and otherwise its solve asks for tol_fp, because
    that field may be reused as the final one.  A field solved after a
    loop that did not converge asks for tol_fp.
    `diagnostics["inner_iterations"]` lists each sweep's total inner
    iterations (0 when the field was reused), then the final field's when
    the loop did not converge, and `diagnostics["inner_tolerances"]` the
    tolerance each of those value solves asked for.
    For the length of the call, every step of every solve and cost the
    loop makes reads sigma, lam, its kill factor, b1_factor and the
    diffusion matrix from one `steps.step_table`, evaluated once
    per time node, and every forward solve starts from one
    `initial_marginal`; the outputs are those of evaluating them afresh,
    bit for bit.
    """
    value = _ValueSolves(spec, tol_fp, tol_pi)
    initial = initial_marginal(spec, grid)
    costs = []
    best = last = None

    def sweep(g, residual):
        nonlocal best, last
        nu_traj = solve_forward_1d(spec, grid, g, noise, initial=initial)
        u, g_new = value(nu_traj, residual)
        cost = evaluate_cost(spec, g, nu_traj=nu_traj).total
        costs.append(cost)
        if best is None or cost < best[0]:
            best = (cost, g)
        last = u
        return g_new

    lo, hi = spec.control_box
    g0 = FeedbackControl.constant(0.5 * (lo + hi), grid, spec)
    with step_table(spec, grid):
        g, residuals, converged, stalled = _picard(sweep, g0, spec, tol_pi, max_iter)
        if stalled and strict:
            raise PicardStalled(
                f"control residual plateaued at {residuals[-1]:.3e} > {tol_pi}"
            )

        # g_star is the feedback of the returned value field (the form every
        # optimal control takes): a converged loop's last sweep gave both
        u = last
        if not converged:
            u, g_new = value(solve_forward_1d(spec, grid, best[1] if stalled else g, noise,
                                              initial=initial))
            g = FeedbackControl.from_array(g_new, spec)
        if strict and u.fixed_point.capped:
            raise FixedPointCapped(
                f"{u.fixed_point.capped} inner steps stopped at the iteration cap "
                f"above the tolerance {value.tol:.3e} their solve asked for "
                f"(tol_fp = {tol_fp})"
            )
        nu_traj = solve_forward_1d(spec, grid, g, noise, initial=initial)
        mu_traj = solve_forward_2d(spec, grid, g, noise) if with_2d else None
        cost = evaluate_cost(spec, g, nu_traj=nu_traj, mu_traj=mu_traj)
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
        "backward_solves": value.solves,
        "inner_iterations": value.inner_iterations,
        "inner_tolerances": value.inner_tolerances,
        "inner_capped_steps": u.fixed_point.capped,
    }
    return MFCResult(g, u, nu_traj, mu_traj, cost, diagnostics)


def separable_lift(u_1d: BSPDESolution, grid: Grid) -> BSPDESolution:
    """Lift a 1d value field on `grid` to the half-plane via the e^{-y} profile."""
    grid.check_field(u_1d, "u_1d", joint=False)
    u2 = u_1d.u[:, :, None] * grid.ey
    q2 = u_1d.q[:, :, None] * grid.ey
    return BSPDESolution(grid, u_1d.times, u2, q2)


def separability_gap(u2: BSPDESolution, u1: BSPDESolution) -> float:
    """max_k max|u2[k] - e^{-y} u1[k]| / max|u1|, computed one time slice
    at a time so that no lifted field is held.  Both fields must be on
    u2's grid."""
    u2.grid.check_field(u2, "u2", joint=True)
    u2.grid.check_field(u1, "u1", joint=False)
    ey = u2.grid.ey
    worst = max(float(np.abs(u2.u[k] - ey * u1.u[k][:, None]).max())
                for k in range(u2.u.shape[0]))
    return worst / max(float(np.abs(u1.u).max()), 1e-300)


def smp_residual(
    spec: ModelSpec,
    g: FeedbackControl,
    mu_traj: ForwardTrajectory2D,
    adjoint_2d: BSPDESolution,
) -> float:
    """Worst pointwise optimality defect over the support of mu.

    sup over grid cells with mu > MU_FLOOR (the support the solvers use)
    and y >= 0 (where `grid.wy` is positive) of K(x, y, du, g) - inf_h
    K(x, y, du, h); nonnegative up to minimizer tolerance (clipped at
    zero); finite data below y = 0 do not change it.  Raises
    `GridMismatch` unless `adjoint_2d` is a joint field on mu_traj's grid.
    """
    grid = mu_traj.grid
    grid.check_field(g, "feedback")
    grid.check_field(adjoint_2d, "adjoint_2d", joint=True)
    weighted = grid.wy > 0.0
    worst = 0.0
    for k in range(grid.nt + 1):
        support = (mu_traj.values[k] > MU_FLOOR) & weighted
        if not support.any():
            continue
        ops = StepOperators(spec, grid, mu_traj.times[k], mu=mu_traj.at(k))
        p = central_grad(adjoint_2d.u[k], grid.dx)
        k_g = ops.k_tilde(p, y_column(g.at_step(k)))
        k_min = ops.k_tilde(p, ops.control(p))
        gap = np.where(support, k_g - k_min, 0.0)
        worst = max(worst, float(gap.max()))
    return max(worst, 0.0)


def gateaux_derivative(
    spec: ModelSpec,
    g: FeedbackControl,
    h: np.ndarray,
    mu_traj: ForwardTrajectory2D,
    adjoint_2d: BSPDESolution,
    quadrature: str = "dual",
) -> float:
    """Directional derivative of the closed-loop cost at feedback g along h.

    Time-space quadrature of <mu, (b1_factor du + e^{-y} df1(g)) h>.
    quadrature="dual" integrates the drift part on cell faces against the
    upwind side of the post-diffusion density and the next adjoint slice
    (the quadrature under which the chain rule through the forward march
    is exact, so it matches finite differences of the discrete cost);
    quadrature="node" evaluates the integrand at nodes with the centered
    gradient, which inherits the pointwise sign of the minimizer's
    first-order condition.  The cost part always uses trapezoid weights.
    Raises `GridMismatch` unless `adjoint_2d` is a joint field on
    mu_traj's grid, and, with the dual quadrature, `NonfiniteInput` for a
    non-finite step of mu_traj's noise path.
    """
    grid = mu_traj.grid
    x, dx, dt, nt = grid.x, grid.dx, grid.dt(spec.T), grid.nt
    h_vals = np.asarray(h, dtype=float)
    grid.check_field(g, "feedback")
    grid.check_field(h_vals, "direction")
    grid.check_field(adjoint_2d, "adjoint_2d", joint=True)
    lo, hi = spec.control_box
    eps = 1e-9
    probe = g.values + eps * (h_vals if h_vals.ndim == g.values.ndim else h_vals[..., None])
    if not (lo - 1e-15 <= probe.min() and probe.max() <= hi + 1e-15):
        raise DirectionLeavesBox("g + eps h leaves the control box")

    cw, wx, wy, survival = grid.time_weights, grid.wx, grid.wy, grid.survival
    if quadrature not in ("dual", "node"):
        raise ValueError("quadrature must be 'dual' or 'node'")
    total = 0.0
    times = mu_traj.times
    if quadrature == "node":
        for k in range(nt + 1):
            t = times[k]
            fac = StepOperators(spec, grid, t).fac
            p = central_grad(adjoint_2d.u[k], dx)
            df1 = _df1_values(spec, t, x[:, None], y_column(g.at_step(k)))
            integ = (fac[:, None] * p + grid.ey * df1) * y_column(h_vals[k])
            total += cw[k] * dt * float(wx @ ((mu_traj.values[k] * integ) @ wy))
        return total
    offsets = noise_offsets(spec, grid, mu_traj.noise)
    for k in range(nt):
        t = times[k]
        ops = StepOperators(spec, grid, t, noise=mu_traj.noise, mu=mu_traj.at(k))
        mu_mid = diffuse(mu_traj.values[k], ops.matrix)
        v = adjoint_2d.u[k + 1]
        if k == nt - 1:
            # the stored terminal slice is the raw psi data; restore the
            # half-weight running-cost injection carried by the dual state
            v = v + terminal_cost_injection(spec, g, mu_traj)
        if offsets is not None:
            v = shift_density(v, -offsets[k], dx)
        b_face = ops.face_drift(y_column(g.at_step(k)))
        db_face = face_average(ops.fac[:, None] * y_column(h_vals[k]))
        d_mu = upwind_flux_derivative(mu_mid, b_face, db_face, dx)
        total += dt * float(wx @ ((d_mu * v) @ wy))

    for k in range(nt + 1):
        t = times[k]
        df1 = _df1_values(spec, t, x[:, None], y_column(g.at_step(k)))
        integ = mu_traj.values[k] * (df1 * y_column(h_vals[k]))
        total += cw[k] * dt * float(wx @ (integ @ survival))
    return total


def solve_mfc_2d(
    spec: ModelSpec,
    grid: Grid,
    noise: CommonNoisePath | None = None,
    tol_pi: float = 1e-5,
    max_iter: int = 80,
) -> tuple[FeedbackControl, BSPDESolution, ForwardTrajectory2D, dict]:
    """Picard loop with a joint-state feedback g(t, x, y).

    Each sweep: joint forward solve, linear backward solve for the
    current feedback, then the pointwise minimizer update where
    mu > MU_FLOOR, and the marginal value field's feedback elsewhere.  The
    spread of the converged feedback along y is the numerical measure of
    intensity independence.  The marginal value field and its feedback are
    solved again only when their population inputs change, and from the
    last sweep's field, to the inner tolerance that follows the Picard
    residual (the box width standing in for the first sweep's on a
    coupled model), as in `solve_mfc` with tol_fp = TOL_FP.  The returned
    joint field is linear, so `diagnostics["inner_iterations"]` and
    `["inner_tolerances"]` hold each sweep's marginal solve's inner
    iterations and asked-for tolerance, and `["inner_capped_steps"]` the
    capped steps of the last sweep's marginal solve.  The sweeps read what
    does not depend on the measure from one `steps.step_table`, as in
    `solve_mfc`.
    """
    value = _ValueSolves(spec, TOL_FP, tol_pi)
    last = (None, None, None)

    def sweep(g2, residual):
        nonlocal last
        mu_traj = solve_forward_2d(spec, grid, g2, noise)
        u1, g_fb = value(mu_traj.marginal(), residual)
        adj = solve_backward_2d(spec, grid, mu_traj, g=g2,
                                terminal=grid.ey * u1.terminal[:, None])
        last = adj, mu_traj, u1
        return np.where(mu_traj.values > MU_FLOOR,
                        _feedback_from_value(spec, adj), g_fb[:, :, None])

    lo, hi = spec.control_box
    g0 = FeedbackControl.constant(0.5 * (lo + hi), grid, spec, two_d=True)
    with step_table(spec, grid):
        g2, residuals, converged, stalled = _picard(sweep, g0, spec, tol_pi, max_iter)
    adj, mu_traj, u1 = last
    diagnostics = {
        "picard_iterations": len(residuals),
        "residual_trace": residuals,
        "converged": converged,
        "stalled": stalled,
        "intensity_independence": g2.y_variation(),
        "backward_solves": value.solves,
        "inner_iterations": value.inner_iterations,
        "inner_tolerances": value.inner_tolerances,
        "inner_capped_steps": u1.fixed_point.capped if u1 is not None else 0,
    }
    return g2, adj, mu_traj, diagnostics
