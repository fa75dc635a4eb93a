import math

import numpy as np
import pytest

import mfckill as mk
from mfckill.errors import GridMismatch
from mfckill.measures import (
    Density2D,
    SubProb1D,
    cutoff,
    hat_nodes,
    hat_weights,
    metric_dp,
    s_map,
    trapezoid_weights,
    truncate_measure,
)
from oracles import hat_basis, hat_reconstruction, metric_d0


def grid_2d(nx=81, ny=41, y_max=4.0):
    return mk.build_grid(-4, 4, nx, y_max, ny, 2)


def point_mass_2d(grid, ix, iy):
    vals = np.zeros((grid.nx, grid.ny_total))
    vals[ix, iy] = 1.0 / (grid.wx[ix] * grid.wy[iy])
    return Density2D(grid, vals)


def test_s_map_mass_at_zero_intensity():
    mu = point_mass_2d(grid_2d(), 40, 0)
    nu = s_map(mu)
    assert abs(nu.mass - mu.mass) < 1e-12  # e^0 = 1


def test_s_map_mass_at_log2():
    grid = grid_2d(ny=41, y_max=4.0)
    y = grid.y
    iy = int(np.argmin(np.abs(y - math.log(2.0))))
    mu = point_mass_2d(grid, 40, iy)
    nu = s_map(mu)
    assert abs(nu.mass / mu.mass - math.exp(-y[iy])) < 1e-12
    assert abs(math.exp(-y[iy]) - 0.5) < 0.05  # node close to ln 2


def test_s_map_uniform_profile_factor():
    # oracle: fine quadrature of e^{-y} over [0, Y]
    grid = grid_2d(ny=801, y_max=2.0)
    x, yy = grid.x, grid.y
    yfine = np.linspace(0.0, 2.0, 200001)
    oracle = np.trapezoid(np.exp(-yfine), yfine) / 2.0
    profile = np.exp(-0.5 * x**2)
    profile /= 2.0 * np.trapezoid(profile, x)  # total 2d mass 1
    mu = Density2D(grid, np.tile(profile[:, None], (1, yy.size)))
    nu = s_map(mu)
    assert abs(nu.mass / mu.mass - oracle) < 1e-6
    assert abs(oracle - (1 - math.exp(-2.0)) / 2.0) < 1e-10


def test_s_map_collapse_identity_at_zero():
    grid = grid_2d()
    x, y = grid.x, grid.y
    vals = np.zeros((x.size, y.size))
    vals[:, 0] = np.exp(-0.5 * x**2)
    mu = Density2D(grid, vals)
    nu = s_map(mu)
    wy = trapezoid_weights(y.size, y[1] - y[0])
    marginal = mu.values @ wy
    assert np.allclose(nu.values, marginal, atol=1e-14)


def test_s_map_lipschitz_l2():
    rng = np.random.default_rng(0)
    grid = grid_2d(nx=41, ny=31, y_max=3.0)
    x, y = grid.x, grid.y
    wx = trapezoid_weights(x.size, x[1] - x[0])
    wy = trapezoid_weights(y.size, y[1] - y[0])
    for _ in range(50):
        a = 0.04 * rng.random((x.size, y.size))
        b = 0.04 * rng.random((x.size, y.size))
        da = s_map(Density2D(grid, a)).values - s_map(Density2D(grid, b)).values
        lhs = float((da**2) @ wx)
        rhs = float(wx @ ((a - b) ** 2) @ wy)
        assert lhs <= rhs + 1e-12


EXTENDED = dict(x_min=-4, x_max=4, nx=81, y_max=2.4, ny=16, nt=80, extension_ell=-0.5)


def test_density_mass_ignores_data_below_zero():
    grid = mk.build_grid(**EXTENDED)
    assert grid.n_ext > 0
    vals = np.random.default_rng(0).random((grid.nx, grid.ny_total))
    mass = Density2D(grid, vals).mass
    vals[:, : grid.n_ext] += 1.0
    assert Density2D(grid, vals).mass == mass


def test_density_refuses_values_off_its_grid():
    grid = mk.build_grid(**EXTENDED)
    with pytest.raises(GridMismatch, match="joint density"):
        Density2D(grid, np.zeros((grid.nx, grid.ny)))


def test_s_map_is_the_grid_survival_pairing():
    # s_map reads the grid's survival row, not one rebuilt from node gaps
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(**EXTENDED)
    g = mk.FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    for k in range(grid.nt + 1):
        assert np.array_equal(s_map(mu.at(k)).values, mu.values[k] @ grid.survival)


def delta_at(x, i, mass=1.0):
    vals = np.zeros_like(x)
    vals[i] = mass / trapezoid_weights(x.size, x[1] - x[0])[i]
    return SubProb1D(x, vals)


def test_metric_dp_identical_zero():
    x = np.linspace(-4, 4, 81)
    v = delta_at(x, 40)
    assert metric_dp(v, v, 1) == 0.0
    assert metric_dp(v, v, 2) == 0.0


def test_metric_dp_mass_defect():
    x = np.linspace(-4, 4, 81)
    i0 = int(np.argmin(np.abs(x)))
    full = delta_at(x, i0, 1.0)
    half = delta_at(x, i0, 0.5)
    assert abs(metric_dp(full, half, 1) - 0.5) < 1e-12


def test_metric_dp_unit_point_masses():
    x = np.linspace(-4, 4, 81)
    i0 = int(np.argmin(np.abs(x)))
    i1 = int(np.argmin(np.abs(x - 1.0)))
    d = metric_dp(delta_at(x, i0), delta_at(x, i1), 1)
    assert abs(d - 1.0) < 1e-10


def test_metric_dp_symmetry_triangle():
    rng = np.random.default_rng(3)
    x = np.linspace(-4, 4, 61)
    for p in (1, 2):
        for _ in range(1000):
            a, b, c = (SubProb1D(x, rng.random(61) * 0.1) for _ in range(3))
            dab = metric_dp(a, b, p)
            assert abs(dab - metric_dp(b, a, p)) < 1e-12
            assert dab <= metric_dp(a, c, p) + metric_dp(c, b, p) + 1e-10


def test_metric_dp_grid_mismatch():
    with pytest.raises(GridMismatch):
        metric_dp(delta_at(np.linspace(-4, 4, 81), 1),
                  delta_at(np.linspace(-3, 4, 81), 1), 1)


def test_metric_d0_identical_zero():
    x = np.linspace(-4, 4, 81)
    v = delta_at(x, 40)
    assert abs(metric_d0(v, v)) < 1e-9


def test_metric_d0_saturates_at_two():
    # brute-force oracle: clipped tent test functions phi(z) = clip(a + s|z-c|)
    x = np.linspace(-4, 4, 161)
    i0 = int(np.argmin(np.abs(x)))
    iR = int(np.argmin(np.abs(x - 2.0)))
    v1, v2 = delta_at(x, i0), delta_at(x, iR)
    best = 0.0
    for c in np.linspace(-3, 3, 25):
        for s in (-1.0, 1.0):
            for a in np.linspace(-1, 1, 9):
                phi = np.clip(a + s * np.abs(x - c), -1.0, 1.0)
                best = max(best, (v1.values - v2.values)
                           @ (phi * v1.weights))
    d0 = metric_d0(v1, v2)
    assert d0 >= best - 1e-9
    assert abs(d0 - 2.0) < 1e-7


def test_metric_d0_below_d1():
    rng = np.random.default_rng(5)
    x = np.linspace(-4, 4, 61)
    for _ in range(100):
        a = SubProb1D(x, rng.random(61) * 0.08)
        b = SubProb1D(x, rng.random(61) * 0.08)
        assert metric_d0(a, b) <= metric_dp(a, b, 1) + 1e-8


def test_discretize_point_mass_at_node():
    n, k = 2, 3
    centers = hat_nodes(n, k)
    x = np.linspace(-4, 4, 1025)
    target = centers[10]
    i = int(np.argmin(np.abs(x - target)))
    assert abs(x[i] - target) < 1e-12  # node grids align for this resolution
    v = delta_at(x, i)
    w = hat_weights(v, n, k)
    recon = hat_reconstruction(v, w, n, k)
    assert abs(w[10] - v.mass) < 1e-10
    assert np.argmax(recon.values) == i


def test_discretize_reconstruction_d0_bound():
    rng = np.random.default_rng(7)
    n, k = 2, 4
    x = np.linspace(-4, 4, 801)
    for _ in range(20):
        c = rng.uniform(-1.2, 1.2)
        s = rng.uniform(0.2, 0.5)
        m = rng.uniform(0.3, 1.0)
        vals = m * np.exp(-0.5 * ((x - c) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        v = SubProb1D(x, vals)
        hats = hat_basis(x, n, k).sum(axis=1)
        vn = SubProb1D(x, v.values * hats)
        recon = hat_reconstruction(v, hat_weights(v, n, k), n, k)
        assert metric_d0(recon, vn) <= 2.0 ** (-k) * v.mass + 1e-9


def test_discretize_outside_support():
    x = np.linspace(-8, 8, 401)
    vals = np.exp(-0.5 * ((x - 6) / 0.3) ** 2)
    vals *= 0.9 / (vals.sum() * (x[1] - x[0]))
    w = hat_weights(SubProb1D(x, vals), 2, 3)
    assert np.all(w < 1e-12)


def test_truncate_inside_unchanged():
    x = np.linspace(-4, 4, 401)
    vals = np.where(np.abs(x) <= 1.0, 0.3, 0.0)
    v = SubProb1D(x, vals)
    out = truncate_measure(v, 3)
    assert np.array_equal(out.values, v.values)


def test_truncate_outside_zero():
    x = np.linspace(-8, 8, 801)
    vals = np.where(np.abs(x - 6) <= 0.5, 0.5, 0.0)
    out = truncate_measure(SubProb1D(x, vals), 3)
    assert out.mass < 1e-15


def test_truncate_d2_bound():
    # the coupling that keeps surviving mass in place and parks removed
    # mass at the origin bounds the transport part by the x^2 moment and
    # the mass gap by the plain mass of the removed piece
    rng = np.random.default_rng(11)
    x = np.linspace(-8, 8, 801)
    w = trapezoid_weights(x.size, x[1] - x[0])
    for _ in range(15):
        c = rng.uniform(-4, 4)
        s = rng.uniform(0.3, 1.5)
        vals = 0.8 * np.exp(-0.5 * ((x - c) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        v = SubProb1D(x, vals)
        n = 3
        vn = truncate_measure(v, n)
        gap = abs(v.mass - vn.mass)
        w2 = metric_dp(vn, v, 2) - gap
        rhs = float(((1 + x**2) * (1 - cutoff(x, n)) * vals) @ w)
        assert w2**2 + gap**2 <= rhs + 1e-6


def test_density_csv_roundtrip(tmp_path):
    x = np.linspace(-1, 1, 11)
    v = SubProb1D(x, np.linspace(0, 0.2, 11))
    p = tmp_path / "v.csv"
    v.to_csv(p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], v.values)
