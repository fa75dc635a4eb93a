import collections
import contextlib
import math

import numpy as np
import pytest

import mfckill as mk
import mfckill.backward as backward_mod
import mfckill.mfc as mfc_mod
from mfckill.backward import solve_backward_2d
from mfckill.controls import FeedbackControl
from mfckill.errors import DirectionLeavesBox, FixedPointCapped, GridMismatch, PicardStalled
from mfckill.forward import CommonNoisePath
from mfckill.hamiltonians import MU_FLOOR
from mfckill.mfc import (
    evaluate_cost,
    gateaux_derivative,
    separability_gap,
    separable_lift,
    smp_residual,
    solve_mfc,
    solve_mfc_2d,
)

from conftest import tanh_feedback


def test_cost_zero_data():
    spec = mk.make_model("const_kill", kappa=0.5, f0_const=0.0)
    grid = mk.build_grid(-4, 4, 81, 2.0, 12, 60)
    g = FeedbackControl.constant(0.0, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    rep = evaluate_cost(spec, g, nu_traj=tr)
    assert rep.total == 0.0


def test_cost_survival_ode():
    spec = mk.make_model("const_kill", kappa=0.8, f0_const=1.0)
    grid = mk.build_grid(-4, 4, 161, 2.0, 12, 160)
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = np.exp(-0.5 * (grid.x / 0.4) ** 2) / (0.4 * math.sqrt(2 * math.pi))
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0)
    rep = evaluate_cost(spec, g, nu_traj=tr)
    exact = (1.0 - math.exp(-0.8 * spec.T)) / 0.8
    assert abs(rep.total - exact) < 1e-4


def test_cost_forms_agree(lq_spec):
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    g = tanh_feedback(grid, lq_spec)
    tr1 = mk.solve_forward_1d(lq_spec, grid, g)
    tr2 = mk.solve_forward_2d(lq_spec, grid, g)
    rep = evaluate_cost(lq_spec, g, nu_traj=tr1, mu_traj=tr2)
    assert rep.form == "both"
    # identical tensor quadrature makes the rewrite an identity, but the
    # two trajectories are separate discretizations; compare on one run
    rep2 = evaluate_cost(lq_spec, g, nu_traj=tr2.marginal(), mu_traj=tr2)
    assert rep2.form_gap <= 1e-8


def test_singleton_box_converges_immediately():
    spec = mk.make_model("const_kill", kappa=0.5)
    grid = mk.build_grid(-4, 4, 81, 2.0, 12, 60)
    res = solve_mfc(spec, grid)
    assert res.diagnostics["picard_iterations"] == 1
    assert res.diagnostics["converged"]
    assert np.all(res.g_star.values == 0.0)


def test_solve_mfc_returns_pointwise_minimizer(lq_mfc):
    # the returned feedback is resynthesized from the returned value field
    grid, res = lq_mfc
    from mfckill.mfc import _feedback_from_value

    spec = mk.make_model("lq_killing")
    g_new = _feedback_from_value(spec, res.u)
    assert np.array_equal(g_new, res.g_star.values)


def test_smp_residual_zero_at_convergence(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    resid = smp_residual(spec, res.g_star, res.mu_traj, lift)
    assert resid <= 1e-8


def test_smp_residual_detects_perturbation(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    g_vals = res.g_star.values.copy()
    # perturb where the shifted control stays in the box
    room = g_vals <= 0.85
    g_vals = np.where(room, g_vals + 0.1, g_vals)
    g_pert = FeedbackControl.from_array(g_vals, spec)
    resid = smp_residual(spec, g_pert, res.mu_traj, lift)
    # strict convexity modulus of 0.5 g^2 gives at least e^{-y} 0.1^2 / 2 on
    # support cells near zero intensity
    assert resid >= 0.5 * 0.01 * math.exp(-0.3) * 0.9


def test_smp_residual_ignores_off_support(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    base = smp_residual(spec, res.g_star, res.mu_traj, lift)
    g_vals = np.tile(res.g_star.values[:, :, None], (1, 1, grid.ny_total))
    off = res.mu_traj.values <= MU_FLOOR
    g_vals = np.where(off, np.clip(g_vals + 0.37, -1, 1), g_vals)
    g_mod = FeedbackControl.from_array(g_vals, spec)
    assert smp_residual(spec, g_mod, res.mu_traj, lift) == base


def test_gateaux_zero_direction(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    val = gateaux_derivative(spec, res.g_star, np.zeros_like(res.g_star.values),
                             res.mu_traj, lift)
    assert val == 0.0


def test_gateaux_inward_nonnegative_at_optimum(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    rng = np.random.default_rng(4)
    lo, hi = spec.control_box
    for _ in range(20):
        room_up = hi - res.g_star.values
        room_dn = res.g_star.values - lo
        u = rng.random(res.g_star.values.shape)
        h = u * np.where(res.g_star.values > 0.5 * (lo + hi), -room_dn, room_up)
        d = gateaux_derivative(spec, res.g_star, h, res.mu_traj, lift,
                               quadrature="node")
        assert d >= -1e-4


def test_gateaux_direction_leaves_box(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    h = np.ones_like(res.g_star.values) * 5.0
    g_edge = FeedbackControl.from_array(np.ones_like(res.g_star.values), spec)
    with pytest.raises(DirectionLeavesBox):
        gateaux_derivative(spec, g_edge, h, res.mu_traj, lift)


def test_gateaux_nan_direction_leaves_box(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    lift = separable_lift(res.u, grid)
    h = np.zeros_like(res.g_star.values)
    h[4, 7] = np.nan
    with pytest.raises(DirectionLeavesBox):
        gateaux_derivative(spec, res.g_star, h, res.mu_traj, lift)


@pytest.mark.parametrize("other", [(41, 20), (31, 40)], ids=["coarser-time", "other-nx"])
def test_feedback_off_the_grid_raises(other):
    # a feedback from a coarser time grid is not clamped to its last row,
    # and one on other x nodes is not left to numpy's broadcasting: every
    # solver that takes a feedback (or a direction) refuses it at entry
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 40)
    nx, nt = other
    g = FeedbackControl.constant(0.1, grid, spec)
    bad = FeedbackControl.constant(0.1, mk.build_grid(-4, 4, nx, 2.4, 8, nt), spec)
    nu = mk.solve_forward_1d(spec, grid, g)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * np.asarray(spec.dpsi(None, grid.x))[:, None]
    adj = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    calls = [
        lambda: mk.solve_forward_1d(spec, grid, bad),
        lambda: mk.solve_forward_2d(spec, grid, bad),
        lambda: evaluate_cost(spec, bad, nu_traj=nu),
        lambda: evaluate_cost(spec, bad, mu_traj=mu),
        lambda: mk.simulate_particles(spec, bad, 100, 1, grid),
        lambda: solve_backward_2d(spec, grid, mu, g=bad, terminal=term2),
        lambda: smp_residual(spec, bad, mu, adj),
        lambda: gateaux_derivative(spec, bad, np.zeros(bad.values.shape), mu, adj),
        lambda: gateaux_derivative(spec, g, np.zeros(bad.values.shape), mu, adj),
    ]
    for call in calls:
        with pytest.raises(GridMismatch, match="not on the grid"):
            call()


# grids whose fields the routines below must refuse on build_grid(-4, 4, 41,
# 2.4, 8, 10): more time steps, and more y nodes
OFF_GRIDS = {"12-steps": (-4, 4, 41, 2.4, 8, 12), "ny-10": (-4, 4, 41, 2.4, 10, 10)}


def joint_solves(spec, grid):
    """A feedback, its joint density and the linear adjoint on `grid`."""
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * np.asarray(spec.dpsi(None, grid.x))[:, None]
    return g, mu, solve_backward_2d(spec, grid, mu, g=g, terminal=term2)


def value_field_1d(spec, grid):
    nu = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    return mk.solve_backward_1d(spec, grid, nu, np.asarray(spec.dpsi(None, grid.x)))


@pytest.mark.parametrize("off", OFF_GRIDS)
def test_smp_residual_refuses_adjoint_off_the_grid(off):
    # the slices of a 12-step adjoint are not the trajectory's time steps
    spec = mk.make_model("lq_killing")
    g, mu, _ = joint_solves(spec, mk.build_grid(-4, 4, 41, 2.4, 8, 10))
    _, _, adj = joint_solves(spec, mk.build_grid(*OFF_GRIDS[off]))
    with pytest.raises(GridMismatch, match="adjoint_2d is not on the grid"):
        smp_residual(spec, g, mu, adj)


# a trajectory solved on x in [-3, 3] has the shape of one on [-4, 4]: only
# the grid it carries tells them apart
TRAJECTORY_READERS = {
    "solve_backward_1d": lambda spec, grid, g, u1, nu, mu: mk.solve_backward_1d(
        spec, grid, nu, u1.terminal),
    "solve_backward_2d-g": lambda spec, grid, g, u1, nu, mu: solve_backward_2d(
        spec, grid, mu, g=g, terminal=u1.u[-1, :, None] * np.exp(-grid.y)),
    "solve_backward_2d-u_1d": lambda spec, grid, g, u1, nu, mu: solve_backward_2d(
        spec, grid, mu, u_1d=u1, terminal=u1.u[-1, :, None] * np.exp(-grid.y)),
}


@pytest.mark.parametrize("reader", TRAJECTORY_READERS)
def test_trajectory_from_another_grid_of_the_same_shape_is_refused(reader):
    spec = mk.make_model("lq_killing")
    grid, other = mk.build_grid(-4, 4, 41, 2.4, 8, 20), mk.build_grid(-3, 3, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    g_other = FeedbackControl.constant(0.1, other, spec)
    nu, mu = mk.solve_forward_1d(spec, other, g_other), mk.solve_forward_2d(spec, other, g_other)
    with pytest.raises(GridMismatch, match="trajectory is not on the grid"):
        TRAJECTORY_READERS[reader](spec, grid, g, value_field_1d(spec, grid), nu, mu)


@pytest.mark.parametrize("nx, ny", [(41, 8), (9, 9)])
def test_evaluate_cost_on_the_line_refuses_a_joint_feedback(nx, ny):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, nx, 2.4, ny, 20)
    nu = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    joint = FeedbackControl.constant(0.1, grid, spec, two_d=True)
    with pytest.raises(GridMismatch, match="feedback is not on the grid"):
        evaluate_cost(spec, joint, nu_traj=nu)


@pytest.mark.parametrize("off", OFF_GRIDS)
def test_gateaux_derivative_refuses_adjoint_off_the_grid(off):
    # the slices of a 12-step adjoint are not the trajectory's time steps
    spec = mk.make_model("lq_killing")
    g, mu, _ = joint_solves(spec, mk.build_grid(-4, 4, 41, 2.4, 8, 10))
    _, _, adj = joint_solves(spec, mk.build_grid(*OFF_GRIDS[off]))
    with pytest.raises(GridMismatch, match="adjoint_2d is not on the grid"):
        gateaux_derivative(spec, g, 0.1 * np.ones(g.values.shape), mu, adj)


@pytest.mark.parametrize("off", OFF_GRIDS)
def test_separability_gap_refuses_fields_on_two_grids(off):
    # u1 and u2 must share their time steps, and u1 its grid with u2
    spec = mk.make_model("lq_killing")
    grid, other = mk.build_grid(-4, 4, 41, 2.4, 8, 10), mk.build_grid(*OFF_GRIDS[off])
    u1, u1_other = value_field_1d(spec, grid), value_field_1d(spec, other)
    u2, u2_other = separable_lift(u1, grid), separable_lift(u1_other, other)
    assert separability_gap(u2, u1) == 0.0
    with pytest.raises(GridMismatch, match="u1 is not on the grid"):
        separability_gap(u2, u1_other)
    with pytest.raises(GridMismatch, match="u1 is not on the grid"):
        separability_gap(u2_other, u1)


@pytest.mark.parametrize("off", OFF_GRIDS)
def test_separable_lift_refuses_another_grid(off):
    spec = mk.make_model("lq_killing")
    u1 = value_field_1d(spec, mk.build_grid(-4, 4, 41, 2.4, 8, 10))
    with pytest.raises(GridMismatch, match="u_1d is not on the grid"):
        separable_lift(u1, mk.build_grid(*OFF_GRIDS[off]))


def test_separability_gap_of_lift(lq_mfc):
    grid, res = lq_mfc
    lift = separable_lift(res.u, grid)
    assert separability_gap(lift, res.u) == 0.0
    scale = float(np.abs(res.u.u).max())
    lift.u[5, 10, 3] += 0.25 * scale
    assert abs(separability_gap(lift, res.u) - 0.25) <= 1e-12


def test_random_competitors_cost_no_better(lq_mfc):
    grid, res = lq_mfc
    spec = mk.make_model("lq_killing")
    rng = np.random.default_rng(9)
    for _ in range(20):
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        freq = rng.integers(1, 4)
        gv = np.clip(amp * np.sin(freq * grid.x + phase), -1, 1)
        g = FeedbackControl.from_array(np.tile(gv, (grid.nt + 1, 1)), spec)
        tr = mk.solve_forward_1d(spec, grid, g)
        j = evaluate_cost(spec, g, nu_traj=tr).total
        assert res.cost.total <= j + 1e-4


def test_mean_field_flag_changes_solution():
    spec = mk.validate_model(mk.make_model("lq_mean_field"))
    grid = mk.build_grid(-4, 4, 81, 2.4, 12, 80)
    with_mf = solve_mfc(spec, grid, max_iter=60)
    without = solve_mfc(spec.with_params(db0=None, df0=None), grid, max_iter=60)
    assert np.abs(with_mf.g_star.values - without.g_star.values).max() > 1e-4


def test_stall_flag_and_strict_raise():
    # an unattainable tolerance: once INNER_RATIO_MAX * r falls below
    # tol_fp, every value solve asks for tol_fp itself, so the residual
    # wanders at the error that tolerance leaves (4e-11 to 9e-11 over the
    # last sweeps), which the plateau detector reports as a stall; the
    # coupled model (the uncoupled one reaches residual 0.0 at sweep 2)
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    res = solve_mfc(spec, grid, tol_pi=1e-18, max_iter=150)
    assert res.diagnostics["stalled"]
    assert res.diagnostics["picard_iterations"] < 150
    assert res.diagnostics["final_residual"] < 1e-8
    with pytest.raises(PicardStalled):
        solve_mfc(spec, grid, tol_pi=1e-18, max_iter=150, strict=True)


def test_inner_tolerance_stays_below_residual():
    # with tol_pi <= tol_fp, the inner tolerance tol_fp * r / tol_pi is at
    # least the residual r itself: each value solve stopped after one
    # damped iteration per step, and the loop stalled after 30 sweeps at
    # residual 1.65; the cap asks for at most INNER_RATIO_MAX * r
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    d = solve_mfc(spec, grid, tol_pi=1e-10, max_iter=150).diagnostics
    assert d["converged"] or d["final_residual"] < 1e-8
    assert all(tol <= max(backward_mod.TOL_FP, mfc_mod.INNER_RATIO_MAX * r)
               for tol, r in zip(d["inner_tolerances"][1:], d["residual_trace"]))


def test_intensity_diag_flat_and_linear():
    spec = mk.make_model("lq_killing", control_box=(-3.0, 3.0))
    grid = mk.build_grid(-4, 4, 21, 2.4, 13, 10)
    flat = FeedbackControl.constant(0.2, grid, spec)
    assert flat.y_variation() == 0.0
    vals = np.tile(grid.y[None, None, :], (grid.nt + 1, grid.nx, 1))
    lin = FeedbackControl.from_array(vals, spec)
    assert abs(lin.y_variation() - (grid.y[-1] - grid.y[0])) < 1e-14


def test_solve_mfc_2d_smoke():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 10, 60)
    g2, adj, mu, diag = solve_mfc_2d(spec, grid, tol_pi=1e-4, max_iter=40)
    assert diag["converged"]
    assert diag["intensity_independence"] < 0.2


def test_solve_mfc_2d_reports_stall():
    # the joint-feedback loop uses the same plateau rule as solve_mfc
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 40)
    _, _, _, diag = solve_mfc_2d(spec, grid, tol_pi=1e-18, max_iter=150)
    assert diag["stalled"]
    assert not diag["converged"]
    assert diag["picard_iterations"] < 150


def count_backward_solves(monkeypatch) -> list:
    """Record every solve_backward_1d call the control loops make."""
    calls = []
    real = mfc_mod.solve_backward_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(mfc_mod, "solve_backward_1d", counted)
    return calls


def make_value_solves_cold(monkeypatch, cold=None):
    """Drop the last sweep's field that the control loops pass to the value
    solves, so that they start as a loop's first solve does; with `cold`,
    a tolerance or None per solve in call order, only from the solves it
    gives a tolerance, and at that tolerance in place of the loop's."""
    real = mfc_mod.solve_backward_1d
    tols = iter(cold) if cold is not None else None

    def solve(*args, previous=None, tol_fp, **kwargs):
        tol = tol_fp if tols is None else next(tols)
        if tol is None:
            return real(*args, previous=previous, tol_fp=tol_fp, **kwargs)
        return real(*args, previous=None, tol_fp=tol, **kwargs)
    monkeypatch.setattr(mfc_mod, "solve_backward_1d", solve)


def assert_bit_identical_to_full_solves(monkeypatch, res, spec, grid):
    """The same run solving the value field on every sweep, cold and at the
    tolerance the reused field was solved at where `res` reused it, gives
    the same result, bit for bit: a field reused after the loop's first,
    cold solve is the one a cold solve of the same inputs at that
    tolerance returns."""
    d = res.diagnostics
    made_at, tol = [], None
    for n, asked in zip(d["inner_iterations"], d["inner_tolerances"]):
        tol = asked if n else tol      # a solve is made at the tolerance asked
        made_at.append(None if n else tol)
    monkeypatch.setattr(mfc_mod, "population_inputs", lambda *args: None)
    make_value_solves_cold(monkeypatch, made_at)
    full = solve_mfc(spec, grid)
    assert full.diagnostics["backward_solves"] == full.diagnostics["picard_iterations"]
    assert np.array_equal(res.g_star.values, full.g_star.values)
    assert np.array_equal(res.u.u, full.u.u)
    assert res.cost.total == full.cost.total
    for key in ("residual_trace", "cost_trace"):
        assert res.diagnostics[key] == full.diagnostics[key]


def test_uncoupled_value_field_solved_once(monkeypatch):
    # lq_killing reads the population in none of b0, f0 and dpsi, so every
    # sweep, the final one included, reuses the first value field
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    calls = count_backward_solves(monkeypatch)
    res = solve_mfc(spec, grid)
    assert res.diagnostics["converged"] and res.diagnostics["picard_iterations"] > 1
    assert len(calls) == 1 and res.diagnostics["backward_solves"] == 1
    its, n = res.diagnostics["inner_iterations"], res.diagnostics["picard_iterations"]
    assert its == [sum(res.u.fixed_point.iterations)] + [0] * (n - 1)
    # that one field is the final one, so its solve asks for tol_fp
    assert res.diagnostics["inner_tolerances"][0] == backward_mod.TOL_FP
    assert_bit_identical_to_full_solves(monkeypatch, res, spec, grid)


@pytest.mark.parametrize("mean_field", [True, False])
def test_population_dependent_value_field_solved_every_sweep(monkeypatch, mean_field):
    # lq_mean_field's b0 and f0 read nu even without the Db0/Df0 kernels
    spec = mk.make_model("lq_mean_field")
    if not mean_field:
        spec = spec.with_params(db0=None, df0=None)
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    calls = count_backward_solves(monkeypatch)
    res = solve_mfc(spec, grid)
    d = res.diagnostics
    assert d["converged"]
    # coupled, the check is skipped and every sweep solves; without the
    # kernels, every sweep's population differs from the last one's; the
    # converged sweep's solve is the returned one in both cases
    n = d["picard_iterations"]
    assert len(calls) == n and d["backward_solves"] == n
    # the first solve asks for tol_fp unless the loop is coupled
    assert spec.coupled == mean_field
    assert (d["inner_tolerances"][0] == backward_mod.TOL_FP) != mean_field
    if not mean_field:
        assert_bit_identical_to_full_solves(monkeypatch, res, spec, grid)


def test_solve_mfc_2d_marginal_value_solved_once(monkeypatch):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 40)
    calls = count_backward_solves(monkeypatch)
    _, _, _, diag = solve_mfc_2d(spec, grid, tol_pi=1e-4, max_iter=40)
    assert diag["picard_iterations"] > 1
    assert len(calls) == 1 and diag["backward_solves"] == 1
    its = diag["inner_iterations"]
    assert len(its) == diag["picard_iterations"] and its[0] > 0 and not any(its[1:])
    assert diag["inner_tolerances"][0] == backward_mod.TOL_FP


@pytest.mark.parametrize("noisy", [True, False])
def test_value_solves_start_from_last_sweep_field(monkeypatch, noisy):
    # the mean_field_noise benchmark workload, and a small noise-free grid;
    # on the latter the last sweep's field alone is a worse start than the
    # extrapolation of the slices above (6,214 against 5,219 iterations),
    # so the correction by the error that start made is what saves here
    spec = mk.make_model("lq_mean_field")
    if noisy:
        spec = spec.with_params(sigma0=lambda t: 0.3)
        grid = mk.build_grid(-4, 4, 101, 2.4, 20, 20)
        noise = CommonNoisePath.from_seed(7, grid.nt, grid.dt(spec.T))
    else:
        grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
        noise = None
    res = solve_mfc(spec, grid, noise=noise)
    make_value_solves_cold(monkeypatch)
    cold = solve_mfc(spec, grid, noise=noise)
    d, dc = res.diagnostics, cold.diagnostics
    assert d["converged"] and dc["converged"]
    assert d["picard_iterations"] == dc["picard_iterations"]
    assert len(d["inner_iterations"]) == d["picard_iterations"]
    assert d["inner_iterations"][0] == dc["inner_iterations"][0]   # the first solve is cold
    assert sum(d["inner_iterations"]) <= 0.7 * sum(dc["inner_iterations"])
    # both loops solve their last sweep's field to the tolerance its
    # residual rule asked for, not to tol_fp
    final_tol = max(d["inner_tolerances"][-1], dc["inner_tolerances"][-1])
    assert np.abs(res.g_star.values - cold.g_star.values).max() <= 10 * final_tol


# the mean_field_noise benchmark workload's inner iterations at seeds 7 and
# 3 when every sweep solved its value field to tol_fp
INNER_AT_TOL_FP = {7: 2931, 3: 3053}


@pytest.mark.parametrize("seed", [7, 3])
def test_inner_tolerance_follows_picard_residual(seed):
    # sweep s asks for tol_fp * r_{s-1} / tol_pi, the first sweep of this
    # coupled loop for tol_fp * (hi - lo) / tol_pi: fewer inner iterations,
    # and g_star as close to a tight solve as when every sweep asked for
    # tol_fp (1.27e-8 and 1.98e-8)
    spec = mk.make_model("lq_mean_field").with_params(sigma0=lambda t: 0.3)
    grid = mk.build_grid(-4, 4, 101, 2.4, 20, 20)
    noise = CommonNoisePath.from_seed(seed, grid.nt, grid.dt(spec.T))
    res = solve_mfc(spec, grid, noise=noise)
    d = res.diagnostics
    tol_pi, tol_fp = 1e-6, backward_mod.TOL_FP       # solve_mfc's defaults
    assert d["converged"]
    tols = d["inner_tolerances"]
    assert len(tols) == len(d["inner_iterations"]) == d["picard_iterations"]
    lo, hi = spec.control_box
    assert tols[0] == max(tol_fp, tol_fp * (hi - lo) / tol_pi)
    assert tols[1:] == [max(tol_fp, tol_fp * r / tol_pi) for r in d["residual_trace"][:-1]]
    assert sum(d["inner_iterations"]) <= 0.7 * INNER_AT_TOL_FP[seed]
    tight = solve_mfc(spec, grid, noise=noise, tol_pi=1e-10, tol_fp=1e-13)
    assert tight.diagnostics["converged"]
    assert np.abs(res.g_star.values - tight.g_star.values).max() <= 2e-8


@pytest.mark.parametrize("noisy", [False, True])
def test_coupled_first_sweep_follows_box_width(monkeypatch, noisy):
    # a coupled loop's first sweep asks for the tolerance of a residual as
    # wide as the control box: the same sweeps as a loop whose first solve
    # asks for tol_fp, fewer inner iterations (1,315 against 1,948 on the
    # noise-free grid, 1,329 against 1,743 on the mean_field_noise workload)
    # and the same g_star to the accuracy the last solve asked for
    spec = mk.make_model("lq_mean_field")
    if noisy:
        spec = spec.with_params(sigma0=lambda t: 0.3)
        grid = mk.build_grid(-4, 4, 101, 2.4, 20, 20)
        noise = CommonNoisePath.from_seed(7, grid.nt, grid.dt(spec.T))
    else:
        grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
        noise = None
    assert spec.coupled
    res = solve_mfc(spec, grid, noise=noise)
    d = res.diagnostics
    lo, hi = spec.control_box
    assert d["inner_tolerances"][0] == max(backward_mod.TOL_FP,
                                           backward_mod.TOL_FP * (hi - lo) / 1e-6)
    # the first solve at tol_fp, cold as every first solve; the later ones
    # as the loop makes them
    make_value_solves_cold(monkeypatch, [backward_mod.TOL_FP] + [None] * 200)
    first_at_tol_fp = solve_mfc(spec, grid, noise=noise)
    df = first_at_tol_fp.diagnostics
    assert d["converged"] and df["converged"]
    assert d["picard_iterations"] == df["picard_iterations"]
    assert sum(d["inner_iterations"]) <= 0.8 * sum(df["inner_iterations"])
    final_tol = max(d["inner_tolerances"][-1], df["inner_tolerances"][-1])
    assert np.abs(res.g_star.values - first_at_tol_fp.g_star.values).max() <= 10 * final_tol


def test_field_solved_looser_than_asked_is_solved_again():
    # lq_killing's value equation does not read the population, so a stored
    # field serves every call, but only one asking for a tolerance no
    # tighter than the field's: the call after a loop asks for tol_fp
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    tol_fp = backward_mod.TOL_FP
    nu = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    value = mfc_mod._ValueSolves(spec, tol_fp, 1e-6)
    loose, _ = value(nu, 1e-2)
    reused, _ = value(nu, 1e-1)
    final, _ = value(nu, None)
    again, _ = value(nu, None)
    assert value.inner_tolerances == pytest.approx([1e-6, 1e-5, tol_fp, tol_fp], rel=1e-12)
    assert reused is loose and final is not loose and again is final
    assert value.solves == 2 and value.tol == tol_fp
    its = value.inner_iterations
    assert its[0] > 0 and its[2] > 0 and its[1] == its[3] == 0
    cold = backward_mod.solve_backward_1d(spec, grid, nu, final.terminal, tol_fp=tol_fp)
    assert np.abs(final.u - cold.u).max() < np.abs(loose.u - cold.u).max()


def test_converged_loop_returns_last_sweep_solves(monkeypatch):
    # the converged sweep's population and value field are final: one more
    # forward solve (for g_star) and no more backward solve
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    forward_calls = []
    real = mfc_mod.solve_forward_1d

    def counted(*args, **kwargs):
        forward_calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(mfc_mod, "solve_forward_1d", counted)
    backward_calls = count_backward_solves(monkeypatch)
    res = solve_mfc(spec, grid)
    d = res.diagnostics
    assert d["converged"]
    assert len(forward_calls) == d["picard_iterations"] + 1
    assert len(backward_calls) == d["picard_iterations"] == d["backward_solves"]


def test_loops_report_inner_capped_steps(monkeypatch):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    res = solve_mfc(spec, grid, max_iter=3)
    _, _, _, diag = solve_mfc_2d(spec, grid, max_iter=3)
    assert res.diagnostics["inner_capped_steps"] == diag["inner_capped_steps"] == 0
    # an inner budget too small for tol_fp caps every step of every solve
    monkeypatch.setattr(backward_mod, "MAX_FP", 2)
    res = solve_mfc(spec, grid, max_iter=3)
    assert res.diagnostics["inner_capped_steps"] == res.u.fixed_point.capped == grid.nt
    _, _, _, diag = solve_mfc_2d(spec, grid, max_iter=3)
    assert diag["inner_capped_steps"] == grid.nt


def test_strict_raises_on_capped_inner_steps(monkeypatch):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    solve_mfc(spec, grid, max_iter=3, strict=True)
    monkeypatch.setattr(backward_mod, "MAX_FP", 2)
    res = solve_mfc(spec, grid, max_iter=3)
    assert res.diagnostics["inner_capped_steps"] == grid.nt
    with pytest.raises(FixedPointCapped, match=r"above the tolerance 1\.000e-10 "):
        solve_mfc(spec, grid, max_iter=3, strict=True)
    # a converged coupled loop returns its last sweep's field, whose solve
    # asked for a tolerance above tol_fp: the message names that one
    spec = mk.make_model("lq_mean_field")
    monkeypatch.setattr(backward_mod, "MAX_FP", 5)
    d = solve_mfc(spec, grid, max_iter=30).diagnostics
    assert d["converged"] and d["inner_capped_steps"] > 0
    assert d["inner_tolerances"][-1] > backward_mod.TOL_FP
    asked = f"{d['inner_tolerances'][-1]:.3e}".replace(".", r"\.")
    with pytest.raises(FixedPointCapped, match=f"above the tolerance {asked} "):
        solve_mfc(spec, grid, max_iter=30, strict=True)


def re_evaluate_every_step(monkeypatch):
    """Run the control loops without their step table: every step evaluates
    its inputs afresh, and every forward solve builds its own initial
    marginal."""
    monkeypatch.setattr(mfc_mod, "step_table", lambda spec, grid: contextlib.nullcontext())
    real = mfc_mod.solve_forward_1d

    def solve(*args, initial=None, **kwargs):
        return real(*args, **kwargs)
    monkeypatch.setattr(mfc_mod, "solve_forward_1d", solve)


def loop_outputs(loop, spec, grid, noise) -> dict:
    """Every array and number a control loop returns."""
    if loop == "solve_mfc":
        res = solve_mfc(spec, grid, noise=noise, with_2d=True)
        d = res.diagnostics
        return dict(g=res.g_star.values, u=res.u.u, q=res.u.q, nu=res.nu_traj.values,
                    mu=res.mu_traj.values, cost=(res.cost.total, res.cost.form_gap),
                    traces=(d["residual_trace"], d["cost_trace"], d["inner_iterations"]))
    g2, adj, mu, d = solve_mfc_2d(spec, grid, noise=noise, tol_pi=1e-4, max_iter=40)
    return dict(g=g2.values, u=adj.u, q=adj.q, mu=mu.values,
                traces=(d["residual_trace"], d["inner_iterations"]))


def mean_field_case(noisy):
    """lq_mean_field on a small grid, with sigma0 = 0.3 and a seeded noise
    path when `noisy`."""
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    if not noisy:
        return spec, grid, None
    spec = spec.with_params(sigma0=lambda t: 0.3)
    return spec, grid, CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T))


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("loop", ["solve_mfc", "solve_mfc_2d"])
def test_step_table_changes_no_bit(monkeypatch, loop, noisy):
    spec, grid, noise = mean_field_case(noisy)
    out = loop_outputs(loop, spec, grid, noise)
    re_evaluate_every_step(monkeypatch)
    ref = loop_outputs(loop, spec, grid, noise)
    assert out.keys() == ref.keys()
    for key in out:
        if isinstance(out[key], np.ndarray):
            assert np.array_equal(out[key], ref[key]), key
        else:
            assert out[key] == ref[key], key


def counting_spec(spec):
    """`spec` with sigma, lam and b1_factor counting their calls per time."""
    counts = {name: collections.Counter() for name in ("sigma", "lam", "b1_factor")}

    def counting(name):
        fn = getattr(spec, name)

        def coeff(t, x):
            counts[name][float(t)] += 1
            return fn(t, x)
        return coeff
    return spec.with_params(**{name: counting(name) for name in counts}), counts


@pytest.mark.parametrize("loop, noisy", [("solve_mfc", False), ("solve_mfc", True),
                                         ("solve_mfc_2d", False)])
def test_loop_evaluates_measure_free_inputs_once_per_node(loop, noisy):
    # sigma, lam and b1_factor do not read the measure: a loop evaluates
    # each once per time node, however many sweeps and marchers read them
    spec, grid, noise = mean_field_case(noisy)
    spec, counts = counting_spec(spec)
    out = loop_outputs(loop, spec, grid, noise)
    assert len(out["traces"][0]) > 1        # more than one sweep read them
    nodes = set(grid.times(spec.T).tolist())
    for name, per_time in counts.items():
        assert set(per_time) <= nodes and len(per_time) >= grid.nt, name
        assert max(per_time.values()) == 1, name


def test_step_table_does_not_outlive_the_loop():
    # a loop's table holds the model's values only while the loop runs: a
    # spec changed in place between two loops gives the new model's result
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    first = solve_mfc(spec, grid)
    new = mk.make_model("lq_mean_field", kappa=1.5).with_params(
        sigma=lambda t, x: np.full(np.shape(x), 0.8),
        b1_factor=lambda t, x: np.full(np.shape(x), 0.7))
    spec.lam, spec.sigma, spec.b1_factor = new.lam, new.sigma, new.b1_factor
    g = FeedbackControl.constant(0.1, grid, spec)
    assert np.array_equal(mk.solve_forward_1d(spec, grid, g).values,
                          mk.solve_forward_1d(new, grid, g).values)
    second = solve_mfc(spec, grid)
    fresh = solve_mfc(new, grid)
    assert not np.array_equal(first.g_star.values, second.g_star.values)
    assert np.array_equal(second.g_star.values, fresh.g_star.values)
    assert np.array_equal(second.nu_traj.values, fresh.nu_traj.values)
    assert second.cost.total == fresh.cost.total


def test_picard_halves_step_when_residual_grows():
    # g -> c - 1.5 (g - c) overshoots its fixed point c: the full step
    # alone diverges (0, 0.5, -0.25, 0.875, ...), the half step contracts
    # by 0.25 per sweep
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 11, 2.4, 4, 5)
    c = 0.2
    steps, passed = [], []

    def sweep(g, residual):
        g_new = c - 1.5 * (g.values - c)
        steps.append((g.values.copy(), g_new))
        passed.append(residual)
        return g_new

    g0 = FeedbackControl.constant(0.0, grid, spec)
    g, residuals, converged, stalled = mfc_mod._picard(sweep, g0, spec, 1e-12, 100)
    assert converged and not stalled
    assert passed == [None] + residuals[:-1]   # each sweep is given the last residual
    assert np.abs(g.values - c).max() <= 1.5e-12
    assert residuals[1] > residuals[0]
    assert all(b < a for a, b in zip(residuals[1:], residuals[2:]))
    # the residual grew once, at sweep 2: the first step is full and every
    # later one half, bit for bit
    for k, ((g_k, sweep_k), (g_next, _)) in enumerate(zip(steps, steps[1:])):
        d = 1.0 if k == 0 else 0.5
        assert np.array_equal(g_next, (1.0 - d) * g_k + d * sweep_k)


def test_full_step_uncoupled_converges_in_two_sweeps_bit_identical():
    # the full step lands on the feedback of the loop's one value solve
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    res = solve_mfc(spec, grid)
    assert res.diagnostics["converged"] and res.diagnostics["picard_iterations"] == 2
    assert np.array_equal(res.g_star.values, mfc_mod._feedback_from_value(spec, res.u))


def test_full_step_coupled_matches_tight_solve():
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    full = solve_mfc(spec, grid)
    tight = solve_mfc(spec, grid, tol_pi=1e-9)
    assert full.diagnostics["converged"] and tight.diagnostics["converged"]
    assert full.diagnostics["picard_iterations"] <= 10
    assert np.abs(full.g_star.values - tight.g_star.values).max() <= 1e-6
    assert abs(full.cost.total - tight.cost.total) <= 1e-8 * abs(tight.cost.total)
