import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

import mfckill as mk
from mfckill.controls import FeedbackControl
from mfckill.errors import CFLViolation, ControlOutOfBox, GridMismatch, NonfiniteInput
from mfckill.forward import CommonNoisePath, initial_marginal
from mfckill.measures import metric_dp, trapezoid_weights
from mfckill.steps import (
    StepOperators,
    Tridiagonal,
    diffuse,
    shift_density,
    upwind_flux_divergence,
    upwind_transport_adjoint,
)

from conftest import tanh_feedback


def test_heat_kernel_variance():
    # x-marginal of the free 2d evolution matches the widening Gaussian
    spec = mk.make_model("const_kill", kappa=0.0, s0=0.25, T=0.5)
    grid = mk.build_grid(-5.0, 5.0, 400, 2.0, 20, 100)
    g = FeedbackControl.constant(0.0, grid, spec)
    tr = mk.solve_forward_2d(spec, grid, g)
    wy = trapezoid_weights(grid.ny_total, grid.dy)
    marg = tr.values[-1] @ wy
    wx = trapezoid_weights(grid.nx, grid.dx)
    mass = float(marg @ wx)
    mean = float((marg * grid.x) @ wx) / mass
    var = float((marg * (grid.x - mean) ** 2) @ wx) / mass
    expected = 0.25**2 + 1.0 * 0.5  # s0^2 + sigma^2 t
    assert abs(var - expected) / expected < 0.02


def test_mean_intensity_growth():
    spec = mk.make_model("const_kill", kappa=0.8, s0=0.3, zeta_scale=0.1)
    grid = mk.build_grid(-4.0, 4.0, 121, 3.0, 61, 160)
    g = FeedbackControl.constant(0.0, grid, spec)
    tr = mk.solve_forward_2d(spec, grid, g)
    wx = trapezoid_weights(grid.nx, grid.dx)
    wy = trapezoid_weights(grid.ny_total, grid.dy)
    y0 = float(wx @ tr.values[0] @ (grid.y * wy))
    yT = float(wx @ tr.values[-1] @ (grid.y * wy))
    growth = yT - y0
    assert abs(growth - 0.8 * spec.T) / (0.8 * spec.T) < 0.01


def test_2d_mass_conserved():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    tr = mk.solve_forward_2d(spec, grid, tanh_feedback(grid, spec))
    assert np.abs(tr.mass_series - tr.mass_series[0]).max() <= 1e-8


def test_1d_mass_decay_exact():
    spec = mk.make_model("const_kill", kappa=0.8)
    grid = mk.build_grid(-4.0, 4.0, 161, 2.0, 11, 160)
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = np.exp(-0.5 * (grid.x / 0.4) ** 2) / (0.4 * math.sqrt(2 * math.pi))
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0)
    t = tr.times
    expected = np.exp(-0.8 * t)
    assert np.abs(tr.mass_series / tr.mass_series[0] - expected).max() <= 1e-6


def test_1d_mass_constant_without_killing():
    spec = mk.make_model("const_kill", kappa=0.0)
    grid = mk.build_grid(-4.0, 4.0, 121, 2.0, 11, 120)
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = np.exp(-0.5 * (grid.x / 0.4) ** 2)
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0)
    assert np.abs(tr.mass_series - tr.mass_series[0]).max() <= 1e-12


def test_1d_2d_consistency():
    # calibrated by refinement: observed ratios 0.16 / 0.08 / 0.04
    spec = mk.make_model("lq_killing")
    c_cal = 0.25
    worst_prev = None
    for (nx, ny, nt) in [(101, 16, 100), (201, 31, 200)]:
        grid = mk.build_grid(-4.0, 4.0, nx, 2.4, ny, nt)
        g = tanh_feedback(grid, spec)
        tr1 = mk.solve_forward_1d(spec, grid, g)
        tr2 = mk.solve_forward_2d(spec, grid, g)
        worst = max(
            metric_dp(mk.s_map(tr2.at(k)), tr1.at(k), p=1)
            for k in range(0, grid.nt + 1, grid.nt // 10)
        )
        assert worst <= c_cal * (grid.dx + grid.dy + grid.dt(spec.T))
        if worst_prev is not None:
            assert worst < worst_prev
        worst_prev = worst


def test_positivity():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    tr2 = mk.solve_forward_2d(spec, grid, tanh_feedback(grid, spec))
    tr1 = mk.solve_forward_1d(spec, grid, tanh_feedback(grid, spec))
    assert tr2.values.min() >= -1e-12
    assert tr1.values.min() >= -1e-12


def test_energy_bound_reported():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    tr = mk.solve_forward_2d(spec, grid, tanh_feedback(grid, spec))
    assert np.isfinite(tr.energy.constant) and tr.energy.constant > 0
    assert tr.energy.sup_sq <= tr.energy.constant * tr.energy.initial_sq + 1e-12


def test_marginal_energy_is_its_own():
    # the survival marginal reports the energy of its own slices, not the
    # joint density's
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    tr = mk.solve_forward_2d(spec, grid, tanh_feedback(grid, spec))
    nu = tr.marginal()
    l2 = (nu.values**2) @ grid.wx
    h10 = (np.diff(nu.values, axis=1) ** 2).sum(axis=1) / grid.dx
    h10_sum = float((l2[1:] + h10[1:]).sum() * grid.dt(spec.T))
    assert np.allclose([nu.energy.initial_sq, nu.energy.sup_sq, nu.energy.h10_sum],
                       [l2[0], l2.max(), h10_sum], rtol=1e-12, atol=0.0)
    assert np.isclose(nu.energy.constant, (l2.max() + h10_sum) / l2[0], rtol=1e-12)
    assert not np.isclose(nu.energy.initial_sq, tr.energy.initial_sq)


def test_shift_identity():
    rng = np.random.default_rng(0)
    v = rng.random(64)
    assert np.array_equal(shift_density(v, 0.0, 0.1), v)


def test_shift_roundtrip():
    x = np.linspace(-4, 4, 401)
    dx = x[1] - x[0]
    v = np.exp(-0.5 * x**2)
    h = 0.3777
    back = shift_density(shift_density(v, h, dx), -h, dx)
    second = np.abs(np.diff(v, 2)).max() / dx**2
    assert np.abs(back - v)[30:-30].max() <= 2.0 * h * dx * second


def test_shift_moves_mean():
    x = np.linspace(-6, 6, 301)
    dx = x[1] - x[0]
    v = np.exp(-0.5 * x**2)
    h = 0.7123
    shifted = shift_density(v, h, dx)
    mean0 = float((v * x).sum() / v.sum())
    mean1 = float((shifted * x).sum() / shifted.sum())
    assert abs(mean1 - mean0 - h) <= dx / 2


@pytest.mark.parametrize("shape", [(8,), (8, 3)])
@pytest.mark.parametrize("offset", [2.0, -2.0, 2.6, -2.1])
def test_shift_past_the_grid_is_zero(shape, offset):
    # |offset| >= n dx moves every node out of the grid
    v = np.random.default_rng(1).random(shape) + 0.5
    assert not shift_density(v, offset, 0.25).any()


@pytest.mark.parametrize("shape", [(8,), (8, 3)])
@pytest.mark.parametrize("nodes", [1, 3, 7, -1, -3, -7])
def test_shift_by_whole_nodes_moves_values(shape, nodes):
    # an offset of exactly `nodes` cells (frac = 0) moves the values
    # unchanged and zero-fills the inflow cells
    dx = 0.25
    v = np.random.default_rng(2).random(shape) + 0.5
    expect = np.zeros_like(v)
    if nodes > 0:
        expect[nodes:] = v[:-nodes]
    else:
        expect[:nodes] = v[-nodes:]
    assert np.array_equal(shift_density(v, nodes * dx, dx), expect)


def test_noise_path_reproducible():
    a = CommonNoisePath.from_seed(7, 100, 0.01)
    b = CommonNoisePath.from_seed(7, 100, 0.01)
    assert np.array_equal(a.increments, b.increments)
    assert a.cumulative[0] == 0.0
    assert abs(a.increments.std() - 0.1) < 0.02


def test_common_noise_mass_neutral():
    # holds for position-independent intensity: the noise is pure transport
    spec = mk.make_model("const_kill", kappa=0.7, sigma0=0.4)
    grid = mk.build_grid(-7.0, 7.0, 201, 2.4, 16, 160)
    g = FeedbackControl.constant(0.0, grid, spec)
    noise = CommonNoisePath.from_seed(3, grid.nt, grid.dt(spec.T))
    tr_noise = mk.solve_forward_1d(spec, grid, g, noise=noise)
    spec0 = mk.make_model("const_kill", kappa=0.7, sigma0=0.0)
    tr_flat = mk.solve_forward_1d(spec0, grid, g)
    gap = np.abs(tr_noise.mass_series - tr_flat.mass_series).max()
    assert gap <= 1e-8 + tr_noise.boundary_leakage


def test_common_noise_moves_with_particles():
    # the density shift direction matches the signed displacement of the SDE
    spec = mk.make_model("const_kill", kappa=0.0, sigma0=0.5)
    grid = mk.build_grid(-6.0, 6.0, 241, 2.0, 11, 100)
    g = FeedbackControl.constant(0.0, grid, spec)
    noise = CommonNoisePath.from_seed(11, grid.nt, grid.dt(spec.T))
    rho0 = np.exp(-0.5 * (grid.x / 0.3) ** 2)
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0, noise=noise)
    w_total = float(noise.cumulative[-1])
    mean = float((tr.values[-1] * grid.x).sum() / tr.values[-1].sum())
    assert abs(mean - 0.5 * w_total) < 0.05


def test_cfl_violation_raises():
    spec = mk.make_model("lq_killing", control_box=(-40.0, 40.0))
    grid = mk.build_grid(-4.0, 4.0, 201, 2.4, 16, 40)
    g = FeedbackControl.constant(40.0, grid, spec)
    with pytest.raises(CFLViolation):
        mk.solve_forward_1d(spec, grid, g)


def test_control_out_of_box_raises():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    with pytest.raises(ControlOutOfBox):
        FeedbackControl.from_array(np.full((grid.nt + 1, grid.nx), 2.0), spec)


def test_nan_control_rejected():
    # every comparison with NaN is false, so the box checks test "in range"
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    with pytest.raises(ControlOutOfBox):
        FeedbackControl.constant(np.nan, grid, spec)
    vals = np.zeros((grid.nt + 1, grid.nx))
    vals[3, 5] = np.nan
    with pytest.raises(ControlOutOfBox):
        FeedbackControl.from_array(vals, spec)
    g = FeedbackControl.constant(0.0, grid, spec)
    g.values[3, 5] = np.nan
    with pytest.raises(ControlOutOfBox, match="step 3"):
        mk.solve_forward_1d(spec, grid, g)


def test_smap_mass_nonincreasing_along_trajectory():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    tr = mk.solve_forward_2d(spec, grid, tanh_feedback(grid, spec))
    masses = np.array([mk.s_map(tr.at(k)).mass for k in range(grid.nt + 1)])
    assert np.all(np.diff(masses) <= 1e-12)


def test_noise_length_mismatch():
    spec = mk.make_model("lq_killing", sigma0=0.3)
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    g = tanh_feedback(grid, spec)
    bad = CommonNoisePath.from_seed(1, grid.nt + 5, grid.dt(spec.T))
    with pytest.raises(GridMismatch):
        mk.solve_forward_1d(spec, grid, g, noise=bad)


def _noise_callers(spec, grid, noise):
    """Every solver that reads a common-noise path, as calls on `noise`."""
    g = FeedbackControl.constant(0.1, grid, spec)
    nu = mk.solve_forward_1d(spec, grid, g)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * np.ones((grid.nx, 1))
    adj = mk.solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    # the backward solves and gateaux_derivative read the path from their
    # trajectory: hand-built records carry it
    nu_noisy = mk.ForwardTrajectory1D(grid, nu.times, nu.values, g, noise, nu.mass_series,
                                      nu.energy, 0.0)
    mu_noisy = mk.ForwardTrajectory2D(grid, mu.times, mu.values, g, noise, mu.mass_series,
                                      mu.energy, 0.0)
    return {
        "solve_forward_1d": lambda: mk.solve_forward_1d(spec, grid, g, noise=noise),
        "solve_forward_2d": lambda: mk.solve_forward_2d(spec, grid, g, noise=noise),
        "solve_backward_1d": lambda: mk.solve_backward_1d(spec, grid, nu_noisy,
                                                          np.ones(grid.nx)),
        "solve_backward_2d": lambda: mk.solve_backward_2d(spec, grid, mu_noisy, g=g,
                                                          terminal=term2),
        "solve_mfc": lambda: mk.solve_mfc(spec, grid, noise=noise),
        "gateaux_derivative": lambda: mk.gateaux_derivative(spec, g, 0.0 * g.values,
                                                            mu_noisy, adj),
        "simulate_particles": lambda: mk.simulate_particles(spec, g, 100, 1, grid,
                                                            noise=noise),
    }


NOISE_CALLERS = ("solve_forward_1d", "solve_forward_2d", "solve_backward_1d",
                 "solve_backward_2d", "solve_mfc", "gateaux_derivative",
                 "simulate_particles")


@pytest.mark.parametrize("caller", NOISE_CALLERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_noise_increment_raises(caller, bad):
    # a NaN increment used to end in a bare ValueError inside shift_density,
    # an infinite one in OverflowError, and the particle oracle in NaN positions
    spec = mk.make_model("lq_killing", sigma0=0.3)
    grid = mk.build_grid(-4.0, 4.0, 41, 2.4, 8, 20)
    noise = CommonNoisePath.from_seed(1, grid.nt, grid.dt(spec.T))
    noise.increments[7] = bad
    with pytest.raises(NonfiniteInput, match="step 7"):
        _noise_callers(spec, grid, noise)[caller]()


@pytest.mark.parametrize("solver", [mk.solve_forward_1d, mk.solve_forward_2d,
                                    mk.simulate_particles])
def test_nonfinite_sigma0_raises(solver):
    # validate_model probes sigma0 at seven times only; step 10 of this
    # grid (t = 0.32) meets the bad value between them
    spec = mk.make_model("lq_killing").with_params(
        sigma0=lambda t: np.inf if 0.3 < t < 0.35 else 0.3)
    grid = mk.build_grid(-4.0, 4.0, 41, 2.4, 8, 25)
    g = FeedbackControl.constant(0.1, grid, spec)
    noise = CommonNoisePath.from_seed(1, grid.nt, grid.dt(spec.T))
    with pytest.raises(NonfiniteInput, match="step 10 .*sigma0 = inf"):
        if solver is mk.simulate_particles:
            solver(spec, g, 100, 1, grid, noise=noise)
        else:
            solver(spec, grid, g, noise=noise)


def test_default_initial_is_initial_marginal():
    # solve_mfc builds the initial marginal once and passes it; the default
    # start of every other forward solve is the same array, bit for bit
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4.0, 4.0, 61, 2.4, 8, 20)
    g = tanh_feedback(grid, spec)
    initial = initial_marginal(spec, grid)
    default = mk.solve_forward_1d(spec, grid, g)
    passed = mk.solve_forward_1d(spec, grid, g, initial=initial)
    assert np.array_equal(default.values[0], initial)
    assert np.array_equal(default.values, passed.values)
    assert np.array_equal(default.mass_series, passed.mass_series)


# only the march on the line takes an initial density; the joint one
# starts from the model's initial_density_2d
@pytest.mark.parametrize("solver", [mk.solve_forward_1d])
@pytest.mark.parametrize("shape", [(40,), (41, 2), (41, 1)])  # nx = 41
def test_wrong_initial_shape_raises(solver, shape):
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 41, 2.4, 8, 20)
    with pytest.raises(GridMismatch):
        solver(spec, grid, FeedbackControl.constant(0.0, grid, spec), initial=np.ones(shape))


def test_forward_deterministic():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)
    g = tanh_feedback(grid, spec)
    a = mk.solve_forward_2d(spec, grid, g)
    b = mk.solve_forward_2d(spec, grid, g)
    assert np.array_equal(a.values, b.values)


def test_nonfinite_initial_density_raises():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 41, 2.4, 8, 20)
    rho0 = np.exp(-grid.x**2)
    rho0[7] = np.nan
    with pytest.raises(NonfiniteInput):
        mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.0, grid, spec),
                            initial=rho0)


@pytest.mark.parametrize("varying", [False, True])
def test_diffusion_solve_matches_gtsv(varying):
    # a constant sigma gives a symmetric matrix, solved through its L D L^T
    # factors; a varying one keeps gtsv; both agree with gtsv on an (nx,)
    # and an (nx, m) right-hand side, and the symmetric matrix is its own
    # transpose
    sigma = (lambda t, x: 1.0 + 0.5 * np.sin(np.asarray(x, dtype=float))) if varying \
        else (lambda t, x: np.full(np.shape(x), 1.3))
    spec = mk.make_model("lq_killing").with_params(sigma=sigma)
    grid = mk.build_grid(-4.0, 4.0, 161, 2.4, 8, 40)
    for transpose in (False, True):
        m = StepOperators(spec, grid, 0.1, transpose=transpose).matrix
        assert (m.ldl is None) == varying
        rhs = np.random.default_rng(4).normal(size=(grid.nx, 7))
        for b in (rhs, rhs[:, 0]):
            ref = dgtsv(m.lower, m.main, m.upper, b)[3]
            assert np.abs(diffuse(b, m) - ref).max() <= 1e-14 * np.abs(ref).max()
    m = StepOperators(spec, grid, 0.1).matrix
    assert (m.transposed() is m) != varying
    assert Tridiagonal(m.lower, m.main, 1.5 * m.upper).ldl is None


def test_step_matrix_transpose_pairing():
    # v . A^{-1} rho == rho . A^{-T} v for one step's forward and
    # transposed diffusion matrices, with a spatially varying sigma
    spec = mk.make_model("lq_killing").with_params(
        sigma=lambda t, x: 1.0 + 0.5 * np.sin(np.asarray(x, dtype=float)))
    grid = mk.build_grid(-4.0, 4.0, 161, 2.4, 8, 40)
    rng = np.random.default_rng(3)
    rho, v = rng.random(grid.nx), rng.normal(size=grid.nx)
    fwd = StepOperators(spec, grid, 0.1)
    bwd = StepOperators(spec, grid, 0.1, transpose=True)
    lhs = float(v @ diffuse(rho, fwd.matrix))
    rhs = float(rho @ diffuse(v, bwd.matrix))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("m", [None, 7])
def test_transport_adjoint_pairing(m):
    # <v, D(b) rho> == <D(b)^T v, rho> for the upwind flux divergence D(b),
    # with face drift of both signs and exact zeros, in 1d and 2d
    rng = np.random.default_rng(5)
    nx, dx = 61, 0.1
    shape = (nx,) if m is None else (nx, m)
    rho, v = rng.random(shape), rng.normal(size=shape)
    b = rng.normal(size=(nx - 1,) + shape[1:])
    b[::4] = 0.0
    lhs = float(np.sum(v * upwind_flux_divergence(rho, b, dx)))
    rhs = float(np.sum(upwind_transport_adjoint(v, b, dx) * rho))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
