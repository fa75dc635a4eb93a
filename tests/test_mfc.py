import math

import numpy as np
import pytest

import mfckill as mk
import mfckill.backward as backward_mod
import mfckill.mfc as mfc_mod
from mfckill.backward import solve_backward_2d
from mfckill.controls import FeedbackControl
from mfckill.errors import DirectionLeavesBox, FixedPointCapped, PicardStalled
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
from mfckill.model import NuHandle

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


def test_cost_trace_nonincreasing_after_burn_in(lq_spec):
    # the half step takes many sweeps (the full step converges in two)
    grid = mk.build_grid(-4.0, 4.0, 161, 2.4, 20, 160)
    res = solve_mfc(lq_spec, grid, damping=0.5)
    trace = res.diagnostics["cost_trace"]
    assert len(trace) > 4
    for a, b in zip(trace[3:], trace[4:]):
        assert b <= a + 1e-10


def test_solve_mfc_returns_pointwise_minimizer(lq_mfc):
    # the returned feedback is resynthesized from the returned value field
    grid, res = lq_mfc
    from mfckill.mfc import _feedback_from_value

    spec = mk.make_model("lq_killing")
    g_new = _feedback_from_value(spec, grid, res.u)
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
    lo, hi = spec.box_array[0]
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
    # an unattainable tolerance parks the residual at the rounding floor,
    # which the plateau detector reports as a stall
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 40)
    # under the half step (the full step reaches residual 0.0 at sweep 2)
    res = solve_mfc(spec, grid, tol_pi=1e-18, max_iter=150, damping=0.5)
    assert res.diagnostics["stalled"]
    with pytest.raises(PicardStalled):
        solve_mfc(spec, grid, tol_pi=1e-18, max_iter=150, damping=0.5, strict=True)


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


def assert_bit_identical_to_full_solves(monkeypatch, res, spec, grid):
    """The same run solving the value field on every sweep gives the same
    result, bit for bit."""
    monkeypatch.setattr(mfc_mod, "population_inputs", lambda *args: None)
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
    if not mean_field:
        assert_bit_identical_to_full_solves(monkeypatch, res, spec, grid)


def test_solve_mfc_2d_marginal_value_solved_once(monkeypatch):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 40)
    calls = count_backward_solves(monkeypatch)
    _, _, _, diag = solve_mfc_2d(spec, grid, tol_pi=1e-4, max_iter=40)
    assert diag["picard_iterations"] > 1
    assert len(calls) == 1 and diag["backward_solves"] == 1


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
    with pytest.raises(FixedPointCapped):
        solve_mfc(spec, grid, max_iter=3, strict=True)


def test_picard_halves_step_when_residual_grows():
    # g -> c - 1.5 (g - c) overshoots its fixed point c: the full step
    # alone diverges (0, 0.5, -0.25, 0.875, ...), the half step contracts
    # by 0.25 per sweep
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 11, 2.4, 4, 5)
    c = 0.2
    steps = []

    def sweep(g):
        g_new = c - 1.5 * (g.values - c)
        steps.append((g.values.copy(), g_new))
        return g_new

    g0 = FeedbackControl.constant(0.0, grid, spec)
    g, residuals, converged, stalled = mfc_mod._picard(sweep, g0, spec, 1e-12, 100, 1.0)
    assert converged and not stalled
    assert np.abs(g.values - c).max() <= 1.5e-12
    assert residuals[1] > residuals[0]
    assert all(b < a for a, b in zip(residuals[1:], residuals[2:]))
    # the residual grew once, at sweep 2: the first step is full and every
    # later one half, bit for bit
    for k, ((g_k, sweep_k), (g_next, _)) in enumerate(zip(steps, steps[1:])):
        d = 1.0 if k == 0 else 0.5
        assert np.array_equal(g_next, (1.0 - d) * g_k + d * sweep_k)


def test_full_step_uncoupled_converges_in_two_sweeps_bit_identical():
    # the full step lands on the feedback of the loop's one value solve,
    # the same array the half step converges to
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    full = solve_mfc(spec, grid)
    half = solve_mfc(spec, grid, damping=0.5)
    assert full.diagnostics["converged"] and full.diagnostics["picard_iterations"] == 2
    assert half.diagnostics["picard_iterations"] > 2
    assert np.array_equal(full.g_star.values, half.g_star.values)
    assert full.cost.total == half.cost.total


def test_full_step_coupled_matches_half_step():
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    full = solve_mfc(spec, grid)
    half = solve_mfc(spec, grid, damping=0.5)
    assert full.diagnostics["converged"] and half.diagnostics["converged"]
    assert full.diagnostics["picard_iterations"] <= 10
    assert np.abs(full.g_star.values - half.g_star.values).max() <= 1e-6
    assert abs(full.cost.total - half.cost.total) <= 1e-8 * abs(half.cost.total)
