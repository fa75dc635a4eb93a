import math

import numpy as np
import pytest

import mfckill as mk
from mfckill.controls import FeedbackControl
from mfckill.errors import SeedRequired
from mfckill.measures import metric_dp
from mfckill.mfc import evaluate_cost
from mfckill.particles import (
    ParticleEnsemble,
    _interp_uniform,
    empirical_subprob,
    estimate_cost_mc,
    simulate_particles,
)

from conftest import tanh_feedback


def test_brownian_variance():
    spec = mk.make_model("const_kill", kappa=0.0, s0=1e-9, zeta_scale=0.0)
    grid = mk.build_grid(-5, 5, 101, 2.0, 11, 100)
    g = FeedbackControl.constant(0.0, grid, spec)
    n = 40000
    ens = simulate_particles(spec, g, n, 3, grid)
    var = ens.positions.var()
    T = spec.T
    assert abs(var - T) <= 3.0 * math.sqrt(2.0 / n) * T + 0.01 * T  # CLT + Euler bias


def test_hard_kill_survival_ci():
    spec = mk.make_model("const_kill", kappa=0.8, zeta_scale=0.0)
    grid = mk.build_grid(-4, 4, 101, 2.0, 11, 100)
    g = FeedbackControl.constant(0.0, grid, spec)
    n = 100000
    ens = simulate_particles(spec, g, n, 11, grid)
    for k in (grid.nt // 2, grid.nt):
        t = ens.times[k]
        p = math.exp(-0.8 * t)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(ens.alive_fraction[k] - p) <= 3.0 * se


def test_soft_weights_exact_for_constant_intensity():
    spec = mk.make_model("const_kill", kappa=0.8, zeta_scale=0.0)
    grid = mk.build_grid(-4, 4, 101, 2.0, 11, 100)
    g = FeedbackControl.constant(0.0, grid, spec)
    ens = simulate_particles(spec, g, 5000, 7, grid)
    t = ens.times
    assert np.abs(ens.mean_weight - np.exp(-0.8 * t)).max() < 1e-12


def test_intensities_nondecreasing_and_weights_in_unit_interval():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 100)
    ens = simulate_particles(spec, tanh_feedback(grid, spec), 5000, 5, grid)
    assert ens.intensities.min() >= 0.0
    assert np.all((ens.weights > 0.0) & (ens.weights <= 1.0))


def test_empirical_all_mass_at_one_node():
    grid = mk.build_grid(-4, 4, 81, 2.0, 11, 10)
    n = 1000
    ens = ParticleEnsemble(
        n=n, seed=0, grid=grid, times=grid.times(1.0),
        positions=np.full(n, grid.x[40]), intensities=np.zeros(n),
        clocks=np.ones(n), alive=np.ones(n, dtype=bool), weights=np.ones(n),
        alive_fraction=np.ones(11), mean_weight=np.ones(11),
        running_cost_hard=np.zeros(10), running_cost_soft=np.zeros(10),
        batch_index=np.arange(n) % 10, noise=None, coupling="none",
    )
    nu = empirical_subprob(ens, "hard", grid)
    assert abs(nu.mass - 1.0) < 1e-12
    assert np.argmax(nu.values) == 40


def test_hard_soft_gap_single_seed():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 161, 2.4, 11, 160)
    g = tanh_feedback(grid, spec)
    n = 4096
    ens = simulate_particles(spec, g, n, 21, grid)
    gap = metric_dp(empirical_subprob(ens, "hard", grid),
                    empirical_subprob(ens, "soft", grid), p=1)
    assert gap <= 3.0 / math.sqrt(n)


def test_determinism_bit_identical():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 80)
    g = tanh_feedback(grid, spec)
    a = simulate_particles(spec, g, 20000, 123, grid)
    b = simulate_particles(spec, g, 20000, 123, grid)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.intensities, b.intensities)
    assert np.array_equal(a.clocks, b.clocks)


def test_stream_stable_under_ensemble_growth():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 80)
    g = tanh_feedback(grid, spec)
    small = simulate_particles(spec, g, 1000, 9, grid)
    large = simulate_particles(spec, g, 4000, 9, grid)
    assert np.array_equal(small.positions, large.positions[:1000])


def test_exchangeability_of_histogram():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 80)
    ens = simulate_particles(spec, tanh_feedback(grid, spec), 5000, 2, grid)
    nu = empirical_subprob(ens, "soft", grid)
    perm = np.random.default_rng(0).permutation(ens.n)
    ens.positions = ens.positions[perm]
    ens.weights = ens.weights[perm]
    nu2 = empirical_subprob(ens, "soft", grid)
    assert np.allclose(nu.values, nu2.values, atol=1e-15)


def test_seed_required():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 11, 20)
    with pytest.raises(SeedRequired):
        simulate_particles(spec, tanh_feedback(grid, spec), 100, None, grid)


def test_cost_zero_data():
    spec = mk.make_model("const_kill", kappa=0.5, f0_const=0.0)
    grid = mk.build_grid(-4, 4, 81, 2.0, 11, 60)
    g = FeedbackControl.constant(0.0, grid, spec)
    ens = simulate_particles(spec, g, 2000, 1, grid)
    j, _ = estimate_cost_mc(spec, g, ens)
    assert j == 0.0


def test_cost_survival_ode_within_ci():
    spec = mk.make_model("const_kill", kappa=0.8, zeta_scale=0.0)
    grid = mk.build_grid(-4, 4, 101, 2.0, 11, 120)
    g = FeedbackControl.constant(0.0, grid, spec)
    ens = simulate_particles(spec, g, 50000, 13, grid)
    exact = (1 - math.exp(-0.8 * spec.T)) / 0.8
    for mode in ("hard", "soft"):
        j, ci = estimate_cost_mc(spec, g, ens, mode=mode)
        assert abs(j - exact) <= max(ci, 3e-4) + 5e-4  # CI + time quadrature


def test_cost_matches_pde(lq_spec):
    grid = mk.build_grid(-4, 4, 161, 2.4, 11, 160)
    g = tanh_feedback(grid, lq_spec)
    tr = mk.solve_forward_1d(lq_spec, grid, g)
    j_pde = evaluate_cost(lq_spec, g, nu_traj=tr).total
    ens = simulate_particles(lq_spec, g, 100000, 17, grid)
    j_mc, ci = estimate_cost_mc(lq_spec, g, ens, mode="soft")
    assert abs(j_mc - j_pde) <= ci + 0.02 * abs(j_pde)


def test_empirical_coupling_runs_deterministically():
    spec = mk.validate_model(mk.make_model("lq_mean_field"))
    grid = mk.build_grid(-4, 4, 81, 2.4, 11, 60)
    g = FeedbackControl.constant(0.1, grid, spec)
    a = simulate_particles(spec, g, 4000, 31, grid, coupling="empirical")
    b = simulate_particles(spec, g, 4000, 31, grid, coupling="empirical")
    assert np.array_equal(a.positions, b.positions)
    assert np.isfinite(a.positions).all()


def test_pde_handle_coupling_close_to_empirical():
    # feeding the population from the grid solver vs the smoothed
    # histogram gives nearby ensembles for a mean-field drift
    spec = mk.validate_model(mk.make_model("lq_mean_field"))
    grid = mk.build_grid(-4, 4, 121, 2.4, 11, 120)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    n = 20000
    ens_pde = simulate_particles(spec, g, n, 41, grid, coupling="none", nu_traj=tr)
    ens_emp = simulate_particles(spec, g, n, 41, grid, coupling="empirical")
    d = metric_dp(empirical_subprob(ens_pde, "soft", grid),
                  empirical_subprob(ens_emp, "soft", grid), p=1)
    assert d <= 3.0 / math.sqrt(n) + 0.25 * (grid.dx + grid.dt(spec.T))


@pytest.mark.parametrize("bounds", [(-4.0, 4.0, 161), (-6.3, 7.1, 997), (-1e-3, 3e-3, 13)])
def test_uniform_interp_matches_np_interp(bounds):
    # the particle step's index-arithmetic interpolation equals np.interp
    # bit for bit: random points, every node and its neighbours, the end
    # points and points outside the range, including signed-zero data
    grid = mk.build_grid(bounds[0], bounds[1], bounds[2], 2.0, 5, 10)
    xp = grid.x
    rng = np.random.default_rng(bounds[2])
    span = xp[-1] - xp[0]
    x = np.concatenate([
        rng.uniform(xp[0] - 0.1 * span, xp[-1] + 0.1 * span, 20000),
        xp, np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf),
        [xp[0], xp[-1], xp[0] - span, xp[-1] + span, -1e300, 1e300, -np.inf, np.inf],
    ])
    fp = rng.normal(size=xp.size)
    fp[[0, 3, -1]] = -0.0
    want = np.interp(x, xp, fp)
    assert np.array_equal(_interp_uniform(x, xp, fp).view(np.int64), want.view(np.int64))
