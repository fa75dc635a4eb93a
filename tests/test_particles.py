import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mfckill as mk
import mfckill.particles as particles_mod
from mfckill.controls import FeedbackControl
from mfckill.errors import SeedRequired
from mfckill.measures import metric_dp
from mfckill.mfc import evaluate_cost
from mfckill.particles import (
    _MIX,
    _NOISE,
    ParticleEnsemble,
    _counter_normal,
    _counter_uniform,
    _draw,
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


# The counter-based generator as one vectorized expression per variate: the
# reference the blocked in-place draw must equal bit for bit.
def _splitmix64_ref(z):
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniform_ref(seed, idx, channel, step):
    mask = 0xFFFFFFFFFFFFFFFF
    base = (seed ^ 0xD1B54A32D192ED03) & mask
    ctr = ((step << 3) | channel) & mask
    mixed = (base ^ ((ctr * 0x9E3779B97F4A7C15) & mask)) & mask
    key = _splitmix64_ref(np.array([mixed], dtype=np.uint64))[0]
    h = _splitmix64_ref((idx * np.uint64(0xA24BAED4963EE407)) ^ key)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _normal_ref(seed, idx, channel, step):
    u1 = _uniform_ref(seed, idx, channel, step)
    u2 = _uniform_ref(seed, idx, channel + 1, step)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("n", [1, 16383, 16385, 100003])
def test_blocked_draw_matches_vectorized_formula(n):
    # one block, a block short of full, one variate past a block, and a
    # partial last block; several steps per call, as a helper task draws them
    idx = np.arange(n, dtype=np.uint64)
    idx_m = idx * _MIX
    steps = [1, 2, 80, 161]
    for seed in (0, 123, 2**40 + 3):
        rows = _draw(np.empty((len(steps), n)), idx_m, seed, _NOISE, steps, True)
        for row, step in zip(rows, steps):
            assert _same_bits(row, _normal_ref(seed, idx, _NOISE, step))
        assert _same_bits(_counter_normal(seed, idx_m, 0, 0), _normal_ref(seed, idx, 0, 0))
        for channel in (2, 3, 4):
            assert _same_bits(_counter_uniform(seed, idx_m, channel, 0),
                              _uniform_ref(seed, idx, channel, 0))


def test_stream_pinned_digest():
    # blake2b of the outputs of the code that drew every normal inside its
    # step.  log and cos are the only inexact operations of the stream, and
    # numpy's kernels for them differ with the x86 dispatch level: the
    # digests are those of X86_V4 (AVX-512), X86_V3 (AVX2) and the baseline
    # under numpy 2.4 (NPY_DISABLE_CPU_FEATURES selects the lower levels)
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 80)
    ens = simulate_particles(spec, tanh_feedback(grid, spec), 20000, 123, grid)
    h = hashlib.blake2b(digest_size=16)
    for a in (ens.positions, ens.intensities, ens.running_cost_soft):
        h.update(a.tobytes())
    assert h.hexdigest() in {
        "4740569adf0f795ef8f778f72d16ddf1",
        "019690f07582364e73e07246d364f8b3",
        "f986a89981a2ce585b0b364e4eefaf7a",
    }


def test_errors_propagate_and_helper_thread_stops(monkeypatch):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 80)
    g = tanh_feedback(grid, spec)
    calls = []

    def b0(t, x, nu):
        calls.append(t)
        if len(calls) == 6:
            raise RuntimeError("b0 failed at step 5")
        return np.zeros_like(x)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="step 5"):
        simulate_particles(spec.with_params(b0=b0), g, 20000, 1, grid)
    assert threading.active_count() == before
    # a failing draw on the helper thread reaches the caller the same way
    real = particles_mod._draw

    def draw(out, idx_m, seed, channel, steps, normal):
        if channel == _NOISE and steps[0] > 3:
            raise FloatingPointError("draw failed")
        return real(out, idx_m, seed, channel, steps, normal)

    monkeypatch.setattr(particles_mod, "_draw", draw)
    with pytest.raises(FloatingPointError):
        simulate_particles(spec, g, 20000, 1, grid)
    assert threading.active_count() == before


def test_concurrent_runs_with_fast_thread_switching_match_runs_alone():
    # four runs at once (eight threads on a 2-CPU box), switching threads
    # every microsecond, with one and with several steps per draw task:
    # a normal read from a buffer the helper is refilling would show here
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 40)
    g = tanh_feedback(grid, spec)
    sizes = (1000, 3001, 16384, 20011)
    alone = [simulate_particles(spec, g, n, 5, grid) for n in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(sizes)) as pool:
            runs = [pool.submit(simulate_particles, spec, g, n, 5, grid) for n in sizes]
            together = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(alone, together):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.running_cost_soft, b.running_cost_soft)


def test_histogram_built_only_when_a_coefficient_reads_it(monkeypatch):
    built = []
    real = particles_mod._histogram

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(particles_mod, "_histogram", counted)
    grid = mk.build_grid(-4, 4, 81, 2.4, 11, 60)
    spec = mk.make_model("lq_killing")
    simulate_particles(spec, tanh_feedback(grid, spec), 4000, 3, grid)
    assert len(built) == 0
    spec = mk.validate_model(mk.make_model("lq_mean_field"))
    g = FeedbackControl.constant(0.1, grid, spec)
    simulate_particles(spec, g, 4000, 3, grid, coupling="empirical")
    assert len(built) == grid.nt + 1


def test_invalid_arguments_raise():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 11, 20)
    g = tanh_feedback(grid, spec)
    with pytest.raises(ValueError, match="coupling"):
        simulate_particles(spec, g, 100, 1, grid, coupling="empiricl")
    with pytest.raises(ValueError, match="batches"):
        simulate_particles(spec, g, 5, 1, grid)
    ens = simulate_particles(spec, g, 10, 1, grid)
    assert np.isfinite(ens.running_cost_soft).all()
    with pytest.raises(ValueError, match="mode"):
        estimate_cost_mc(spec, g, ens, mode="bogus")


def test_coefficients_returning_their_input_read_the_step_start_positions():
    # sigma and lam hand back the position array itself: both must still be
    # the values at the start of the step, as in the Euler formula below
    def ident(t, x):
        return np.asarray(x, dtype=float)

    spec = mk.make_model("lq_killing").with_params(sigma=ident, lam=ident)
    grid = mk.build_grid(-4, 4, 101, 2.4, 11, 40)
    g = tanh_feedback(grid, spec)
    n, seed = 3000, 9
    ens = simulate_particles(spec, g, n, seed, grid)

    idx = np.arange(n, dtype=np.uint64)
    dt = grid.dt(spec.T)
    x, lam = (np.broadcast_to(v, (n,)).astype(float) for v in spec.initial_sampler(
        _normal_ref(seed, idx, 0, 0), _uniform_ref(seed, idx, 2, 0),
        _uniform_ref(seed, idx, 3, 0)))
    for k, t in enumerate(grid.times(spec.T)[:-1]):
        nu = mk.NuHandle(grid.x, np.zeros(grid.nx))
        drift = spec.b0(t, x, nu) + spec.b1_factor(t, x) * np.interp(x, grid.x, g.at_step(k))
        z = _normal_ref(seed, idx, _NOISE, k + 1)
        x, lam = x + drift * dt + x * math.sqrt(dt) * z, lam + x * dt
    assert _same_bits(ens.positions, x)
    assert _same_bits(ens.intensities, lam)
