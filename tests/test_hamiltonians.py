import math

import numpy as np
import pytest

import mfckill as mk
from mfckill.errors import NonfiniteInput
from mfckill.hamiltonians import f_nu, minimize_hamiltonian
from mfckill.measures import Density2D, SubProb1D, trapezoid_weights
from mfckill.model import NuHandle, lq_killing
from mfckill.steps import StepOperators


def uniform_nu(x, mass=0.8):
    vals = np.full_like(x, mass / (x[-1] - x[0]))
    return NuHandle(x, vals)


def test_minimize_quadratic_interior():
    spec = mk.make_model("lq_killing")
    g = minimize_hamiltonian(0.0, 0.0, 0.3, spec)
    assert abs(float(g) + 0.3) < 1e-12


def test_minimize_quadratic_clamped():
    spec = mk.make_model("lq_killing")
    g = minimize_hamiltonian(0.0, 0.0, 5.0, spec)
    assert float(g) == -1.0


def test_minimize_quartic_against_grid_search():
    spec = lq_killing(control_box=(-2.0, 2.0))
    spec.f1 = lambda t, x, g: np.asarray(g, dtype=float) ** 4 / 4 + np.asarray(g, dtype=float)
    spec.control_minimizer = None
    spec.df1 = None
    p = 1.0
    g = float(minimize_hamiltonian(0.0, 0.0, p, spec, tol=1e-12))
    gg = np.linspace(-2, 2, 1_000_001)
    oracle = gg[np.argmin(gg * p + gg**4 / 4 + gg)]
    assert abs(g - oracle) < 1e-5


def test_minimize_vectorized_matches_scalar():
    spec = mk.make_model("lq_killing")
    p = np.linspace(-3, 3, 37)
    x = np.zeros_like(p)
    gv = minimize_hamiltonian(0.0, x, p, spec)
    for i in range(p.size):
        assert abs(gv[i] - float(minimize_hamiltonian(0.0, 0.0, p[i], spec))) < 1e-12


def test_minimize_nonfinite_rejected():
    spec = mk.make_model("lq_killing")
    with pytest.raises(NonfiniteInput):
        minimize_hamiltonian(0.0, 0.0, float("nan"), spec)


def test_minimizer_always_in_box():
    spec = mk.make_model("lq_killing")
    rng = np.random.default_rng(0)
    p = rng.normal(scale=4.0, size=500)
    g = minimize_hamiltonian(0.0, np.zeros_like(p), p, spec)
    assert g.min() >= -1.0 and g.max() <= 1.0


def test_f_nu_zero_without_derivatives():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-3, 3, 11)
    nu = SubProb1D(x, np.full(11, 0.05))
    assert np.array_equal(f_nu(0.0, x, nu, np.ones(11), spec), np.zeros(11))


def test_f_nu_constant_kernel():
    spec = mk.make_model("lq_mean_field", beta=1.0, gamma=0.0)
    spec.db0 = lambda t, x, nu, z: np.ones(np.broadcast(np.asarray(x), np.asarray(z)).shape)
    spec.df0 = None
    grid = mk.build_grid(-3, 3, 201, 2.0, 5, 10)
    x = grid.x
    nu = SubProb1D(x, np.full(201, 0.1))
    pbar = np.full(201, 0.7)
    ops = StepOperators(spec, grid, 0.0, NuHandle(x, nu.values))
    for out in (f_nu(0.0, x, nu, pbar, spec), ops.nonlocal_term(pbar)):
        assert np.allclose(out, nu.mass * 0.7, atol=1e-12)


def test_f_nu_fine_grid_oracle():
    spec = mk.make_model("lq_mean_field")
    for nx in (4001,):
        x = np.linspace(-4, 4, nx)
        vals = 0.8 * np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        dxu = np.sin(x)
        out = f_nu(0.0, x[::40], SubProb1D(x, vals), dxu, spec)
        xf = np.linspace(-4, 4, 10 * (nx - 1) + 1)
        vf = 0.8 * np.exp(-0.5 * xf**2) / math.sqrt(2 * math.pi)
        ref = f_nu(0.0, x[::40], SubProb1D(xf, vf), np.sin(xf), spec)
        assert np.abs(out - ref).max() < 1e-6


def line_ops(spec, nx=21, ny=5):
    """StepOperators at t = 0 with a uniform nu on a (nx, ny) grid."""
    grid = mk.build_grid(-3.0, 3.0, nx, 2.0, ny, 10)
    return StepOperators(spec, grid, 0.0, uniform_nu(grid.x))


def minimized_hamiltonian(ops, p):
    """b(g) p + f(g) at the step's minimizer g of a (nx,) gradient p."""
    g = ops.control(p)
    return ops.drift(g) * p + ops.cost(g)


def test_minimized_hamiltonian_wide_box():
    spec = lq_killing(control_box=(-50.0, 50.0), kappa=0.0, f0_weight=0.0)
    ops = line_ops(spec)
    for p in (-1.3, 0.4, 2.0):
        val = minimized_hamiltonian(ops, np.full(ops.x.size, p))
        assert np.abs(val + p**2 / 2).max() < 1e-12


def test_minimized_hamiltonian_lipschitz_in_gradient():
    ops = line_ops(mk.make_model("lq_killing"))
    sup_b = 1.0  # |b| = |g| <= 1 on the box, b0 = 0
    rng = np.random.default_rng(1)
    ones = np.ones(ops.x.size)
    for _ in range(200):
        p1, p2 = rng.normal(scale=2.0, size=2)
        h1 = minimized_hamiltonian(ops, p1 * ones)
        h2 = minimized_hamiltonian(ops, p2 * ones)
        assert np.abs(h1 - h2).max() <= sup_b * abs(p1 - p2) + 1e-12


def test_minimized_hamiltonian_concave_in_gradient():
    ops = line_ops(mk.make_model("lq_killing"), nx=11)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p1, p2 = rng.normal(scale=2.0, size=(2, ops.x.size))
        hm = minimized_hamiltonian(ops, 0.5 * (p1 + p2))
        avg = 0.5 * minimized_hamiltonian(ops, p1) + 0.5 * minimized_hamiltonian(ops, p2)
        assert np.all(hm >= avg - 1e-12)


def test_k_tilde_reduces_at_zero_intensity():
    # at y = 0 the running Hamiltonian is the marginal bracket b(h) p + f(h)
    ops = line_ops(mk.make_model("lq_killing"), nx=9)
    p, h = 0.8, 0.3
    k2 = ops.k_tilde(np.full((9, 5), p), np.full((9, 1), h))
    b = h  # b0 = 0, factor = 1
    f = np.asarray(ops.spec.f0(0.0, ops.x, ops.nu)) + float(ops.spec.f1(0.0, ops.x[0], h))
    assert np.allclose(k2[:, 0], b * p + f)


def test_k_tilde_cost_part_scales():
    ops = line_ops(mk.make_model("lq_killing"), nx=9)
    p, h = 0.8, 0.3
    k2 = ops.k_tilde(np.full((9, 5), p), np.full((9, 1), h))
    y = ops.grid.y
    f = np.asarray(ops.spec.f0(0.0, ops.x, ops.nu)) + float(ops.spec.f1(0.0, ops.x[0], h))
    shift = k2[:, 1:] - k2[:, :1]
    expected = (np.exp(-y[1:]) - 1.0)[None, :] * f[:, None]
    assert np.abs(shift - expected).max() < 1e-12


def test_k_tilde_minimizer_consistency():
    # minimizing at height y matches the marginal minimizer at e^{y} p
    ops = line_ops(mk.make_model("lq_killing"), nx=9, ny=9)
    p2 = np.random.default_rng(3).normal(size=(9, 9))
    g2 = ops.control(p2)
    for j, yj in enumerate(ops.grid.y):
        g1 = ops.control(p2[:, j] * math.exp(yj))
        assert np.abs(g2[:, j] - g1).max() < 1e-9


def test_joint_nonlocal_term_concentrated_matches_marginal():
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-3, 3, 121, 2.0, 41, 10)
    x, y = grid.x, grid.y
    wy = trapezoid_weights(y.size, grid.dy)
    vals = np.zeros((121, 41))
    vals[:, 0] = 0.8 * np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi) / wy[0]
    ops2 = StepOperators(spec, grid, 0.0, mu=Density2D(x, y, vals))
    out = ops2.nonlocal_term(np.tile(np.sin(x)[:, None], (1, 41)))
    ref = StepOperators(spec, grid, 0.0, nu=ops2.nu).nonlocal_term(np.sin(x))
    assert np.abs(out[:, 0] - ref).max() < 1e-10


def test_joint_nonlocal_term_separable_identity():
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-3, 3, 81, 2.0, 33, 10)
    x, y = grid.x, grid.y
    vals = np.outer(np.exp(-0.5 * x**2), np.exp(-y))
    vals /= vals.sum() * (x[1] - x[0]) * (y[1] - y[0]) * 1.4
    ops2 = StepOperators(spec, grid, 0.0, mu=Density2D(x, y, vals))
    out = ops2.nonlocal_term(np.exp(-y)[None, :] * np.cos(x)[:, None])
    ref1 = StepOperators(spec, grid, 0.0, nu=ops2.nu).nonlocal_term(np.cos(x))
    assert np.abs(out - np.exp(-y)[None, :] * ref1[:, None]).max() < 1e-10
