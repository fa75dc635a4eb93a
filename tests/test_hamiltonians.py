import math

import numpy as np
import pytest

import mfckill as mk
from mfckill.errors import NonfiniteInput
from mfckill.hamiltonians import (
    f_nu,
    f_tilde_mu,
    h_nu,
    h_tilde_mu,
    k_tilde,
    minimize_hamiltonian,
    minimize_k_tilde,
)
from mfckill.measures import Density2D, SubProb1D, s_map, trapezoid_weights
from mfckill.model import NuHandle, lq_killing


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
    spec.f1_quad_coeff = None
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


def test_h_nu_pure_killing():
    spec = mk.make_model("const_kill", kappa=0.7)
    x = np.linspace(-2, 2, 5)
    nu = uniform_nu(x)
    vals = h_nu(0.0, x, 2.0, 0.0, nu, spec)
    # G = {0}: drift and control cost vanish, f0 = 1 remains
    assert np.allclose(vals, 1.0 - 0.7 * 2.0)


def test_h_nu_lq_wide_box():
    spec = lq_killing(control_box=(-50.0, 50.0), kappa=0.0, f0_weight=0.0)
    x = np.array([0.0])
    nu = uniform_nu(np.linspace(-2, 2, 5))
    for p in (-1.3, 0.4, 2.0):
        val = h_nu(0.0, x, 0.0, p, nu, spec).item()
        assert abs(val + p**2 / 2) < 1e-12


def test_h_nu_lipschitz_in_gradient():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-3, 3, 21)
    nu = uniform_nu(x)
    sup_b = 1.0  # |b| = |g| <= 1 on the box, b0 = 0
    rng = np.random.default_rng(1)
    for _ in range(200):
        p1, p2 = rng.normal(scale=2.0, size=2)
        h1 = h_nu(0.0, x, 0.0, p1, nu, spec)
        h2 = h_nu(0.0, x, 0.0, p2, nu, spec)
        assert np.abs(h1 - h2).max() <= sup_b * abs(p1 - p2) + 1e-12


def test_h_nu_concave_in_gradient():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-3, 3, 11)
    nu = uniform_nu(x)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p1, p2 = rng.normal(scale=2.0, size=2)
        hm = h_nu(0.0, x, 0.0, 0.5 * (p1 + p2), nu, spec)
        avg = 0.5 * h_nu(0.0, x, 0.0, p1, nu, spec) + 0.5 * h_nu(0.0, x, 0.0, p2, nu, spec)
        assert np.all(hm >= avg - 1e-12)


def test_f_nu_zero_without_derivatives():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-3, 3, 11)
    nu = SubProb1D(x, np.full(11, 0.05))
    assert np.array_equal(f_nu(0.0, x, nu, np.ones(11), spec), np.zeros(11))


def test_f_nu_constant_kernel():
    spec = mk.make_model("lq_mean_field", beta=1.0, gamma=0.0)
    spec.db0 = lambda t, x, nu, z: np.ones(np.broadcast(np.asarray(x), np.asarray(z)).shape)
    spec.df0 = None
    x = np.linspace(-3, 3, 201)
    vals = np.full(201, 0.1)
    nu = SubProb1D(x, vals)
    pbar = 0.7
    out = f_nu(0.0, x, nu, np.full(201, pbar), spec)
    assert np.allclose(out, nu.mass * pbar, atol=1e-12)


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


def test_k_tilde_reduces_at_zero_intensity():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-2, 2, 9)
    nu = uniform_nu(x)
    p, h = 0.8, 0.3
    v0 = k_tilde(0.0, x, 0.0, p, h, nu, spec)
    b = h  # b0 = 0, factor = 1
    f = np.asarray(spec.f0(0.0, x, nu)) + float(spec.f1(0.0, x[0], h))
    assert np.allclose(v0, b * p + f)


def test_k_tilde_cost_part_scales():
    spec = mk.make_model("lq_killing")
    x = np.array([0.5])
    nu = uniform_nu(np.linspace(-2, 2, 9))
    p, h, c = 0.8, 0.3, 0.9
    shift = (k_tilde(0.0, x, 1.0 + c, p, h, nu, spec)
             - k_tilde(0.0, x, 1.0, p, h, nu, spec)).item()
    f = float(np.asarray(spec.f0(0.0, x[0], nu))) + float(np.asarray(spec.f1(0.0, x[0], h)))
    assert abs(shift - (math.exp(-1 - c) - math.exp(-1)) * f) < 1e-12


def test_k_tilde_minimizer_consistency():
    # minimizing at height y matches rescaling the marginal minimizer
    spec = mk.make_model("lq_killing")
    nu = uniform_nu(np.linspace(-2, 2, 9))
    rng = np.random.default_rng(3)
    for _ in range(100):
        xq, yq, pq = rng.uniform(-2, 2), rng.uniform(0, 2), rng.normal()
        g2 = float(minimize_k_tilde(0.0, xq, yq, pq, nu, spec))
        g1 = float(minimize_hamiltonian(0.0, xq, pq * math.exp(yq), spec))
        assert abs(g2 - g1) < 1e-9


def test_f_tilde_mu_zero_without_derivatives():
    spec = mk.make_model("lq_killing")
    x = np.linspace(-2, 2, 9)
    y = np.linspace(0, 2, 5)
    mu = Density2D(x, y, np.full((9, 5), 0.01))
    out = f_tilde_mu(0.0, x[:, None], y[None, :], mu, np.ones((9, 5)), spec)
    assert np.array_equal(out, np.zeros((9, 5)))


def test_f_tilde_mu_concentrated_matches_f_nu():
    spec = mk.make_model("lq_mean_field")
    x = np.linspace(-3, 3, 121)
    y = np.linspace(0, 2, 41)
    wy = trapezoid_weights(y.size, y[1] - y[0])
    vals = np.zeros((121, 41))
    vals[:, 0] = 0.8 * np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi) / wy[0]
    mu = Density2D(x, y, vals)
    dxu = np.tile(np.sin(x)[:, None], (1, 41))
    out = f_tilde_mu(0.0, x, 0.0, mu, dxu, spec)
    nu = s_map(mu)
    ref = f_nu(0.0, x, nu, np.sin(x), spec)
    assert np.abs(out - ref).max() < 1e-10


def test_f_tilde_mu_separable_identity():
    spec = mk.make_model("lq_mean_field")
    x = np.linspace(-3, 3, 81)
    y = np.linspace(0, 2, 33)
    vals = np.outer(np.exp(-0.5 * x**2), np.exp(-y))
    vals /= vals.sum() * (x[1] - x[0]) * (y[1] - y[0]) * 1.4
    mu = Density2D(x, y, vals)
    dxu2 = np.exp(-y)[None, :] * np.cos(x)[:, None]
    out = f_tilde_mu(0.0, x[:, None], y[None, :], mu, dxu2, spec)
    ref1 = f_nu(0.0, x, s_map(mu), np.cos(x), spec)
    expected = np.exp(-y)[None, :] * ref1[:, None]
    assert np.abs(out - expected).max() < 1e-10


def test_h_tilde_mu_branches():
    spec = mk.make_model("lq_killing")
    nu = uniform_nu(np.linspace(-2, 2, 9))
    p = 0.4
    on = float(h_tilde_mu(0.0, 0.0, 0.5, p, 1.0, 0.9, nu, spec))
    k_min = float(k_tilde(0.0, 0.0, 0.5, p,
                          minimize_k_tilde(0.0, 0.0, 0.5, p, nu, spec), nu, spec))
    assert abs(on - k_min) < 1e-12
    off = float(h_tilde_mu(0.0, 0.0, 0.5, p, 0.0, 0.9, nu, spec))
    assert abs(off - float(k_tilde(0.0, 0.0, 0.5, p, 0.9, nu, spec))) < 1e-12


def test_h_tilde_mu_fallback_coincides_at_minimizer():
    spec = mk.make_model("lq_killing")
    nu = uniform_nu(np.linspace(-2, 2, 9))
    p = 0.4
    gmin = float(minimize_k_tilde(0.0, 0.0, 0.5, p, nu, spec))
    on = float(h_tilde_mu(0.0, 0.0, 0.5, p, 1.0, gmin, nu, spec))
    off = float(h_tilde_mu(0.0, 0.0, 0.5, p, 0.0, gmin, nu, spec))
    assert abs(on - off) < 1e-12
