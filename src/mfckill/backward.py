"""Backward value-field solvers.

Two equations are marched backward from a terminal field: the
one-dimensional semilinear equation with control-minimized Hamiltonian,
killing term, and nonlocal coupling, and its two-dimensional counterpart
on the half-plane with the degenerate one-sided intensity transport and
no condition at the lower boundary.

Discretization mirrors the forward solver step by step: implicit centered
diffusion, exact exponential handling of the zeroth-order killing term
(1d), one-sided forward-in-y differencing (2d) so each row reads only
from above, and an upwind evaluation of the drift bracket; each stencil
sits in steps.py beside the forward one it transposes.  When a fixed
feedback is supplied the step reduces to the exact algebraic transpose of
the forward step, which makes the discrete first-order conditions hold at
the stated tolerances; the semilinear modes run the damped inner
fixed-point iteration on (u, du/dx) instead.  Each step builds its map
once, with what the step fixes (the source, the killing factor, the
nonlocal Db0 pairing) computed then, and the iterations write into work
arrays allocated once per solve.  On the line the map also binds its
operands once per step (x, b1_factor, b0, the minimizer, f1 and the
diffusion matrix, from its `StepOperators`) and each iteration calls
the model callables and numpy ufuncs on them directly.  On the
half-plane the map and the damped update run over blocks of rows small
enough to stay in cache (`_row_windows`), with the whole-field results
bit for bit.  That iteration starts from the extrapolation of the slices
above; `solve_backward_1d` also takes the field of an earlier solve (a
Picard loop's last sweep) and starts from that extrapolation corrected by
the error it made on the earlier field.
Every mode (the line's, and the half-plane's linear and semilinear) runs
in one time loop, `_march`, which builds the solve's common-noise shift
once and hands it to each step; the path is the trajectory's own
(`nu_traj.noise`, `mu_traj.noise`), the one the population moved under.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .controls import FeedbackControl
from .errors import ArgumentConflict, FixedPointDiverged
from .forward import CommonNoisePath, ForwardTrajectory1D, ForwardTrajectory2D
from .hamiltonians import MU_FLOOR, max_reduce
from .model import Grid, ModelSpec
from .steps import (
    StepOperators,
    central_grad,
    diffuse,
    face_average,
    noise_offsets,
    shift_density,
    upwind_transport_adjoint,
    weighted_l2_sq,
    y_column,
    y_transport_adjoint_rate,
)

__all__ = [
    "BSPDESolution",
    "solve_backward_1d",
    "population_inputs",
    "solve_backward_2d",
    "energy_report",
]


# The inner fixed point of the semilinear marchers: residual weight e^{ETA t_k},
# damping FP_DAMPING, at most MAX_FP iterations per step, tol_fp default TOL_FP.
ETA = 1.0
MAX_FP = 50
FP_DAMPING = 0.5
TOL_FP = 1e-10
# The half-plane inner map works on row blocks of about this many cells
# (128 KiB per field) at a time; see `_row_windows`.
WINDOW_CELLS = 16384


@dataclass
class FixedPointStats:
    iterations: list
    contraction: float
    capped: int             # steps stopped at MAX_FP with the residual above tol_fp

    @classmethod
    def from_steps(cls, steps: list) -> "FixedPointStats":
        """From (iterations, contraction, capped) per step, in marching order."""
        its, contr, capped = zip(*steps[::-1])
        return cls(list(its), float(np.median(contr)), sum(capped))


@dataclass
class BSPDESolution:
    grid: Grid
    times: np.ndarray
    u: np.ndarray           # (nt+1, nx) or (nt+1, nx, ny_total)
    q: np.ndarray           # same shape; zero when no noise path was given
    fixed_point: FixedPointStats | None = None

    @property
    def terminal(self) -> np.ndarray:  # u[nt], the solve's own copy of the data
        return self.u[-1]

    @cached_property
    def energy(self) -> dict:
        """`energy_report`, computed on first read; assigning a dict
        replaces it."""
        return energy_report(self)


def energy_report(solution: BSPDESolution) -> dict:
    """Norm summary and the smallest constant relating it to the terminal
    data."""
    grid = solution.grid
    dt = float(solution.times[1] - solution.times[0])
    wx, wy = grid.wx, grid.wy if solution.u.ndim == 3 else None
    sup_u = 0.0
    grad_sum = 0.0
    q_sum = 0.0
    for k in range(solution.u.shape[0]):
        sup_u = max(sup_u, weighted_l2_sq(solution.u[k], wx, wy))
        gr = central_grad(solution.u[k], grid.dx)
        grad_sum += weighted_l2_sq(gr, wx, wy) * dt
        q_sum += weighted_l2_sq(solution.q[k], wx, wy) * dt
    psi_sq = weighted_l2_sq(solution.terminal, wx, wy)
    lhs = sup_u + grad_sum + q_sum
    c = 0.0 if lhs <= 1e-300 else lhs / (1.0 + psi_sq)
    return {
        "sup_u_sq": sup_u,
        "grad_sq_time_sum": grad_sum,
        "q_sq_time_sum": q_sum,
        "terminal_sq": psi_sq,
        "constant": c,
    }


def _warm_start(u: np.ndarray, k: int, v: np.ndarray, shifted: bool) -> np.ndarray:
    """Seed the inner iteration by extrapolating the marched slices.

    Cubic extrapolation in time once four slices are available, of lower
    degree before; the unshifted next slice at the first step or when a
    noise path makes successive slices live in different frames.
    """
    nt = u.shape[0] - 1
    if shifted or k >= nt - 1:
        return v
    if k >= nt - 2:
        return 2.0 * u[k + 1] - u[k + 2]
    if k >= nt - 3:
        return 3.0 * u[k + 1] - 3.0 * u[k + 2] + u[k + 3]
    return 4.0 * u[k + 1] - 6.0 * u[k + 2] + 4.0 * u[k + 3] - u[k + 4]


def _run_fixed_point(apply_map, u_init, t_k, tol_fp):
    """Damped fixed-point iteration with divergence detection.

    Each iteration moves w by FP_DAMPING times the residual cand - w.
    Returns the field and the step's record for `FixedPointStats`: the
    iteration count, the geometric contraction estimate of the residual
    sequence, and whether it stopped at MAX_FP above tol_fp.
    """
    w = u_init.copy()
    # the residual and the update run over the blocks of rows that the
    # half-plane map works on (see `_row_windows`), each through one
    # block's work arrays; one block on the line
    n = w.shape[0]
    rows = n if w.ndim == 1 else max(1, WINDOW_CELLS // w.shape[1])
    diff, abs_diff = (np.empty((min(rows, n), *w.shape[1:])) for _ in range(2))
    blocks = [(slice(i, i + rows), w[i:i + rows], diff[:min(rows, n - i)],
               abs_diff[:min(rows, n - i)]) for i in range(0, n, rows)]
    weight = float(np.exp(ETA * t_k))
    prev_res = np.inf
    grow = 0
    residuals = []
    for it in range(1, MAX_FP + 1):
        cand = apply_map(w)
        res = 0.0
        for block, wb, d, abs_d in blocks:
            np.subtract(cand[block], wb, out=d)
            res = max(res, max_reduce(np.abs(d, out=abs_d), axis=None))
            d *= FP_DAMPING
            wb += d
        res = weight * float(res)
        residuals.append(res)
        if res > prev_res * (1.0 + 1e-12) and res > 1e-13:
            grow += 1
            if grow >= 5:
                raise FixedPointDiverged(
                    f"inner residual grew for 5 iterations (last {res:.3e})"
                )
        else:
            grow = 0
        if res <= tol_fp:
            break
        prev_res = res
    contraction = 0.0
    if len(residuals) >= 3 and residuals[0] > 0:
        contraction = (residuals[-1] / residuals[0]) ** (1.0 / (len(residuals) - 1))
    return w, (it, contraction, residuals[-1] > tol_fp)


def _row_windows(nx: int, ny: int) -> list:
    """(a, b, i0, i1) for each block of rows [i0, i1) of an (nx, ny) field:
    blocks of about WINDOW_CELLS cells, each read through the window of
    rows [a, b) that adds two halo rows on either side (fewer at the
    field's ends).  The stencils of the half-plane map applied to a window
    give the whole field's values on the block's rows: the upwind term at
    row i reads the faces beside it and so the nodes i - 1 to i + 1, whose
    centered gradients read rows i - 2 to i + 2, and the window's own end
    rows, where its stencils turn one-sided, are either halo or the
    field's ends."""
    block = max(1, WINDOW_CELLS // ny)
    return [(max(i0 - 2, 0), min(i0 + block + 2, nx), i0, min(i0 + block, nx))
            for i0 in range(0, nx, block)]


def _noise_shift(spec: ModelSpec, grid: Grid, noise: CommonNoisePath | None):
    """`shift(k, field)`: the field moved back by step k's common-noise
    offset (`noise_offsets`), which `_march` undoes on the slice above each
    step; None without noise."""
    offsets = noise_offsets(spec, grid, noise)
    if offsets is None:
        return None

    def shift(k, field):
        return shift_density(field, -offsets[k], grid.dx)
    return shift


def _march(spec: ModelSpec, grid: Grid, terminal: np.ndarray,
           noise: CommonNoisePath | None, step, carry: np.ndarray | None = None
           ) -> BSPDESolution:
    """The backward time loop of every finite-difference marcher: from
    k = nt-1 down to 0, undo the common-noise shift of the slice above, take
    u[k] and its `FixedPointStats` record from `step(k, t, v, u, shift)` (u
    holds the slices above k, `shift` is the solve's one `_noise_shift`)
    and, under noise, set q[k] = sigma0 du/dx.  u[nt] is the terminal data;
    the march starts from `carry` instead when given."""
    nt = grid.nt
    shift = _noise_shift(spec, grid, noise)
    times = grid.times(spec.T)
    u = np.empty((nt + 1, *terminal.shape))
    q = np.zeros(u.shape)  # unlike zeros_like, leaves pages unmapped until written
    u[nt] = terminal
    v = terminal if carry is None else carry
    steps = []
    for k in range(nt - 1, -1, -1):
        t = times[k]
        if shift is not None:
            v = shift(k, v)
        v, step_record = step(k, t, v, u, shift)
        u[k] = v
        steps.append(step_record)
        if shift is not None:
            central_grad(v, grid.dx, out=q[k])
            q[k] *= spec.sigma0(t)
    return BSPDESolution(grid, times, u, q, FixedPointStats.from_steps(steps))


def _fixed_point_step(step_map, tol_fp: float, previous: np.ndarray | None = None):
    """A `_march` step of the semilinear marchers: the damped fixed point
    on `step_map(k, t, v)`, the step's map w -> w_new, started from the
    `_warm_start` E of the slices above (the march's `shift` moves them
    between steps).  Given `previous`, the field of an earlier solve of a
    nearby equation, the start is corrected by the error the same start
    made on it: w0 = E(u, k, v) + (previous[k] - E(previous, k, pv)), pv
    being previous[k+1] under the step's noise shift, so the extrapolation
    error the two fields share cancels."""

    def step(k, t, v, u, shift):
        shifted = shift is not None
        w0 = _warm_start(u, k, v, shifted)
        if previous is not None:
            pv = shift(k, previous[k + 1]) if shifted else previous[k + 1]
            w0 = w0 + (previous[k] - _warm_start(previous, k, pv, shifted))
        return _run_fixed_point(step_map(k, t, v), w0, t, tol_fp)
    return step


def solve_backward_1d(
    spec: ModelSpec,
    grid: Grid,
    nu_traj: ForwardTrajectory1D,
    terminal: np.ndarray,
    *,
    tol_fp: float = TOL_FP,
    previous: np.ndarray | None = None,
) -> BSPDESolution:
    """Backward semilinear march on the line.

    Per step (from u at t_{k+1} to t_k): undo the common-noise shift,
    run the damped fixed point to tol_fp on the explicit Hamiltonian +
    nonlocal terms (drift bracket applied with the upwind stencil),
    multiply by the exact killing factor, and solve the implicit diffusion.
    `previous`, the (nt+1, nx) field of an earlier solve on the same grid
    and noise path (a Picard loop's last sweep), moves only where each
    step's fixed point starts (see `_fixed_point_step`): the result agrees
    with the solve without it to the accuracy tol_fp sets.

    The noise path is `nu_traj.noise`.  A path gives the pathwise solve, in
    which the whole path is known in advance: step k moves u[k+1] by the
    offset sigma0 (W(t_{k+1}) - W(t_k)), so u[k] reads every increment
    after t_k.  It is not the adapted solution of the paper's BSPDE, which
    at t_k depends only on the increments before t_k.
    """
    dx, dt = grid.dx, grid.dt(spec.T)
    grid.check_field(nu_traj, "nu trajectory", joint=False)
    terminal = np.asarray(terminal, dtype=float)
    grid.check_field(terminal, "terminal data", joint=False, series=False)
    if previous is not None:
        grid.check_field(previous, "previous value field", joint=False)
    coupled, noise = spec.coupled, nu_traj.noise
    # the inner iterations' work arrays, shared by every step of the solve
    p, g, drift, expl, pairing = (np.empty(grid.nx) for _ in range(5))
    face, du, neg = (np.empty(grid.nx - 1) for _ in range(3))
    work = (du, neg)

    def step_map(k, t, v):
        ops = StepOperators(spec, grid, t, nu_traj.at(k), noise, transpose=True)
        # the step's map is diffuse(kill (v + dt (f0 + <nu, Df0>)) + kill dt
        # (b du/dx + f1(g) + <nu, Db0 p>)); the first term and kill dt are
        # fixed for the step, and the operands of the minimizer, drift and
        # f1 are bound once
        f0 = ops.f0 + ops.df0_term if coupled else ops.f0
        killed_source = ops.kill * (v + dt * f0)
        kill_dt = ops.kill * dt
        db0 = ops.db0_matrix if coupled else None
        x, fac, b0, matrix = grid.x, ops.fac, ops.b0, ops.matrix
        f1, minimize = spec.f1, ops.node.minimize

        def apply(w):
            central_grad(w, dx, out=p)
            minimize(x, p, fac, 1.0, g)
            np.add(b0, np.multiply(fac, g, out=drift), out=drift)
            rhs = upwind_transport_adjoint(w, face_average(drift, out=face), dx, expl, work)
            rhs += f1(t, x, g)
            if db0 is not None:
                rhs += np.matmul(p, db0, out=pairing)
            rhs *= kill_dt
            rhs += killed_source
            return diffuse(rhs, matrix)
        return apply

    return _march(spec, grid, terminal, noise,
                  _fixed_point_step(step_map, tol_fp, previous))


def population_inputs(spec: ModelSpec, nu_traj: ForwardTrajectory1D,
                      terminal: np.ndarray) -> np.ndarray | None:
    """Everything `solve_backward_1d` reads from the population, or None
    when the model is coupled (its nonlocal term reads the measure itself).

    Row 0 is the terminal data; rows 1 + 2k and 2 + 2k hold b0 and f0 at
    the measure of step k, for each step k < nt the march visits (read
    through `nu_traj.at(k)`, which validates it).  Two solves on one grid,
    noise path and tolerance whose inputs here are byte-identical return
    bit-identical solutions.
    """
    if spec.coupled:
        return None
    grid = nu_traj.grid
    times = grid.times(spec.T)
    out = np.empty((2 * grid.nt + 1, grid.nx))
    out[0] = terminal
    for k in range(grid.nt - 1, -1, -1):  # the march's order, so a bad step raises as there
        ops = StepOperators(spec, grid, times[k], nu_traj.at(k))
        out[1 + 2 * k] = ops.b0
        out[2 + 2 * k] = ops.f0
    return out


def terminal_cost_injection(spec: ModelSpec, g: FeedbackControl,
                            mu_traj: ForwardTrajectory2D) -> np.ndarray:
    """The end-point running cost the dual state carries above the psi data.

    w_N dt e^{-y} (f0 + f1) at t_N, w_N the last time weight, with f0 taken
    at the survival marginal of mu at step N, matching the cost sum.
    """
    grid = mu_traj.grid
    ops = StepOperators(spec, grid, mu_traj.times[grid.nt], mu=mu_traj.at(grid.nt))
    return grid.time_weights[-1] * ops.dt * grid.ey * ops.cost(y_column(g.at_step(grid.nt)))


def solve_backward_2d(
    spec: ModelSpec,
    grid: Grid,
    mu_traj: ForwardTrajectory2D,
    g: FeedbackControl | None = None,
    u_1d: BSPDESolution | None = None,
    *,
    terminal: np.ndarray,
    tol_fp: float = TOL_FP,
) -> BSPDESolution:
    """Backward march on the half-plane.

    Exactly one of `g` (fixed feedback: linear equation) and `u_1d`
    (semilinear mode: the Hamiltonian is minimized where mu > MU_FLOOR,
    the one-dimensional solution supplies the control elsewhere) must be
    given.  The degenerate intensity transport uses the one-sided
    forward-in-y difference, so the bottom row never reads values from
    below it, and the top row extrapolates with magnitude decayed by
    e^{-dy}.

    With `g` supplied the step is the exact transpose of the forward
    step and the running cost enters with the trapezoid time weights,
    so the discrete duality with the forward solve is exact up to
    boundary-weight corrections.

    The noise path is `mu_traj.noise`; it gives the pathwise solve, as in
    `solve_backward_1d`, not the adapted solution of the paper's BSPDE.
    """
    if (g is None) == (u_1d is None):
        raise ArgumentConflict("supply exactly one of g and u_1d")
    if g is not None:
        grid.check_field(g, "feedback")
    else:
        grid.check_field(u_1d, "u_1d", joint=False)
    grid.check_field(mu_traj, "mu trajectory", joint=True)
    terminal = np.asarray(terminal, dtype=float)
    grid.check_field(terminal, "terminal data", joint=True, series=False)
    dx, dy, dt, ey = grid.dx, grid.dy, grid.dt(spec.T), grid.ey
    sh = terminal.shape
    decay = float(np.exp(-dy))
    coupled, noise = spec.coupled, mu_traj.noise

    def operators(k, t):
        return StepOperators(spec, grid, t, noise=noise, transpose=True, mu=mu_traj.at(k))

    if g is not None:
        cost_weights = grid.time_weights

        def step(k, t, v, u, shift):
            ops = operators(k, t)
            gv = y_column(g.at_step(k))
            expl = upwind_transport_adjoint(v, ops.face_drift(gv), dx)
            expl = expl + y_transport_adjoint_rate(v, ops.lam[:, None] / dy, decay)
            if coupled:
                expl = expl + ops.nonlocal_term(central_grad(v, dx))
            # LAPACK returns the solve in Fortran order; the C-ordered copy
            # makes the cost sum and every later step read rows contiguously
            out = np.ascontiguousarray(diffuse(v + dt * expl, ops.matrix))
            return out + cost_weights[k] * dt * ey * ops.cost(gv), (1, 0.0, False)

        # the march carries the dual state with the terminal half-weight cost
        # injection; the stored terminal slice stays the psi data
        carry = terminal + terminal_cost_injection(spec, g, mu_traj)
        return _march(spec, grid, terminal, noise, step, carry)

    # The map runs window by window over the rows (see `_row_windows`), so
    # that each window's fields stay in cache; the work arrays hold one
    # window and are shared by every step of the solve.  A coupled model's
    # nonlocal term integrates the whole gradient: its one window is the
    # whole field.
    windows = [(0, grid.nx, 0, grid.nx)] if coupled else _row_windows(*sh)
    rows_max = max(b - a for a, b, _, _ in windows)
    p, drift, expl = (np.empty((rows_max, grid.ny_total)) for _ in range(3))
    face = np.empty((rows_max - 1, grid.ny_total))
    scratch = np.empty((max(i1 - i0 for _, _, i0, i1 in windows), grid.ny_total))
    rhs = np.empty(sh)
    # per window: the rows it reads, its block within them and in the
    # field, and its views of the work arrays
    plan = [(slice(a, b), slice(i0 - a, i1 - a), slice(i0, i1), p[:b - a],
             drift[:b - a], face[:b - a - 1], expl[:b - a], scratch[:i1 - i0])
            for a, b, i0, i1 in windows]

    def step_map(k, t, v):
        ops = operators(k, t)
        # the control: the 1d solve's where mu <= MU_FLOOR, each iteration's
        # minimizer elsewhere
        mu_off = ~(ops.mu.values > MU_FLOOR)
        g_1d = ops.control(central_grad(u_1d.u[k], dx))[:, None]
        # the step's map is diffuse(v + dt e^{-y} f0 + dt (b du/dx + e^{-y}
        # f1(g) + (lam / dy) (u(y + dy) - u(y)) + nonlocal)); v + dt e^{-y} f0
        # and lam / dy are fixed for the step
        source = np.multiply(ey, ops.f0[:, None])
        source *= dt
        source += v
        lam_dy = ops.lam[:, None] / dy

        def apply(w):
            for rows, keep, block, pw, dw, fw, ew, sc in plan:
                central_grad(w[rows], dx, out=pw)
                g = ops.control(pw, rows)
                np.copyto(g, g_1d[rows], where=mu_off[rows])
                out = upwind_transport_adjoint(
                    w[rows], face_average(ops.drift(g, out=dw, rows=rows), out=fw),
                    dx, out=ew)[keep]
                out += np.multiply(ey, ops.control_cost(g[keep], block), out=sc)
                out += y_transport_adjoint_rate(w[block], lam_dy[block], decay, out=sc)
                if coupled:
                    out += ops.nonlocal_term(pw)
                out *= dt
                np.add(out, source[block], out=rhs[block])
            return diffuse(rhs, ops.matrix)
        return apply

    return _march(spec, grid, terminal, noise, _fixed_point_step(step_map, tol_fp))

