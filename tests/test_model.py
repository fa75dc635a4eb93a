import numpy as np
import pytest

import mfckill as mk
from mfckill.errors import (
    DegenerateRange,
    ModelValidationError,
    NegativeIntensity,
    NonconvexControlCost,
    NondegeneracyViolation,
)
from mfckill.measures import NuHandle, trapezoid_weights
from mfckill.model import lq_killing


def test_lq_killing_validates():
    spec = mk.make_model("lq_killing")
    assert mk.validate_model(spec) is spec


def test_zero_volatility_rejected():
    spec = lq_killing()
    spec.sigma = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(NondegeneracyViolation):
        mk.validate_model(spec)


def test_negative_intensity_rejected():
    spec = lq_killing()
    spec.lam = lambda t, x: -np.ones_like(np.asarray(x, dtype=float))
    with pytest.raises(NegativeIntensity):
        mk.validate_model(spec)


def test_nonconvex_cost_rejected():
    spec = lq_killing()
    spec.f1 = lambda t, x, g: -np.asarray(g, dtype=float) ** 2
    with pytest.raises(NonconvexControlCost):
        mk.validate_model(spec)


def test_nonfinite_drift_factor_rejected():
    from mfckill.errors import NonlinearDrift

    spec = lq_killing()
    spec.b1_factor = lambda t, x: np.full_like(np.asarray(x, dtype=float), np.nan)
    with pytest.raises(NonlinearDrift):
        mk.validate_model(spec)


@pytest.mark.parametrize("name", ["sigma0", "sigma", "lam", "b0", "f0"])
def test_nonfinite_coefficient_rejected(name):
    # sigma0 is probed on t_probe, sigma and lam on t_probe x x_probe, b0
    # and f0 there at one fixed measure; a coefficient that is not finite
    # there is named (a NaN sigma compares false with the ellipticity floor)
    def nan_at_half(x):
        return np.where(np.asarray(x, dtype=float) > 0.5, np.nan, 1.0)

    coeff = {"sigma0": lambda t: np.nan if t > 0.1 else 0.2,
             "sigma": lambda t, x: nan_at_half(x),
             "lam": lambda t, x: nan_at_half(x),
             "b0": lambda t, x, nu: nan_at_half(x),
             "f0": lambda t, x, nu: np.inf * nu.mass * np.ones_like(x)}[name]
    spec = lq_killing().with_params(**{name: coeff})
    with pytest.raises(ModelValidationError, match=f"^{name} not finite"):
        mk.validate_model(spec)


def test_vector_control_box_rejected():
    # controls are scalar: a box of several intervals is refused, not cut
    spec = lq_killing(control_box=[(-1.0, 1.0), (-0.5, 0.5)])
    with pytest.raises(ModelValidationError, match="one interval"):
        mk.validate_model(spec)


@pytest.mark.parametrize("box", [(1.0, -1.0), (-np.inf, np.inf), (np.nan, 1.0), (0.0, np.inf)],
                         ids=["inverted", "infinite", "nan", "half-infinite"])
def test_inverted_or_nonfinite_control_box_rejected(box):
    # refused before the convexity probe draws controls from the box, where
    # numpy raised ValueError (inverted) or OverflowError (non-finite)
    with pytest.raises(ModelValidationError, match="finite with lo <= hi"):
        mk.validate_model(lq_killing(control_box=box))


@pytest.mark.parametrize("box", [[(-1.0, 1.0)], ("-1", "1")], ids=["nested", "strings"])
def test_control_box_not_a_pair_of_reals_rejected(box):
    # the solvers read the box as the model's pair: lo, hi = spec.control_box
    with pytest.raises(ModelValidationError, match="one interval"):
        mk.validate_model(lq_killing(control_box=box))


@pytest.mark.parametrize("T", [-0.8, 0.0, np.nan, np.inf],
                         ids=["negative", "zero", "nan", "infinite"])
def test_horizon_not_finite_and_positive_rejected(T):
    # refused before the probes, where numpy raised ValueError (negative)
    # or OverflowError (nan), and a zero horizon validated
    with pytest.raises(ModelValidationError, match="horizon T"):
        mk.validate_model(lq_killing(T=T))


def test_constant_intensity_warns_not_fails():
    # const_kill's default control box is the single point (0, 0)
    spec = mk.make_model("const_kill", kappa=0.8)
    with pytest.warns(UserWarning):
        assert mk.validate_model(spec) is spec


def test_build_grid_spacings():
    g = mk.build_grid(-5, 5, 11, 2, 5, 10, 0)
    assert g.dx == 1.0
    assert g.dy == 0.5
    assert g.dt(1.0) == 0.1
    assert g.y[0] == 0.0


def test_build_grid_extension_includes_negative_node():
    g = mk.build_grid(-5, 5, 11, 2, 5, 10, -0.5)
    assert np.any(np.isclose(g.y, -0.5))
    assert np.any(np.isclose(g.y, 0.0))  # zero stays a node


@pytest.mark.parametrize("args", [
    (5, -5, 11, 2, 5, 10, 0),
    (-5, 5, 1, 2, 5, 10, 0),
    (-5, 5, 11, -2, 5, 10, 0),
    (-5, 5, 11, 2, 5, 1, 0),
    # non-finite bounds or extension, and counts that are not whole, which
    # were built and failed (or were cut) later
    (-np.inf, 5, 11, 2, 5, 10, 0),
    (-5, 5, 11, np.inf, 5, 10, 0),
    (-5, 5, 11, 2, 5, 10, np.nan),
    (-5, 5, 11, 2, 5, 10, -np.inf),
    (-5, 5, 10.5, 2, 5, 10, 0),
    (-5, 5, 11, 2, 5, np.nan, 0),
])
def test_build_grid_degenerate(args):
    with pytest.raises(DegenerateRange):
        mk.build_grid(*args)


def test_grid_nodes_reproducible():
    a = mk.build_grid(-5, 5, 11, 2, 5, 10)
    b = mk.build_grid(-5, 5, 11, 2, 5, 10)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_grid_nodes_cached_read_only():
    g = mk.build_grid(-5, 5, 11, 2, 5, 10, -0.5)
    assert g.x is g.x and g.y is g.y
    assert np.array_equal(g.x, g.x_min + g.dx * np.arange(g.nx))
    assert np.array_equal(g.y, g.dy * np.arange(-g.n_ext, g.ny))
    for nodes in (g.x, g.y):
        with pytest.raises(ValueError):
            nodes[0] = 1.0


def test_grid_weighs_only_nonnegative_y():
    ext = mk.build_grid(-4, 4, 81, 2.4, 16, 80, extension_ell=-0.3)
    assert ext.n_ext > 0
    for row in (ext.wy, ext.survival):
        assert row.shape == (ext.ny_total,)
        assert not row[: ext.n_ext].any() and row[ext.n_ext:].all()
        with pytest.raises(ValueError):
            row[0] = 1.0
    g = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    assert np.array_equal(g.wy, trapezoid_weights(g.ny, g.dy))
    assert np.array_equal(g.survival, np.exp(-g.y) * g.wy)


def test_f1_midpoint_convexity_sampled():
    spec = mk.make_model("lq_killing")
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t, x = rng.uniform(0, spec.T), rng.uniform(-4, 4)
        g1, g2 = rng.uniform(-1, 1, 2)
        fm = float(spec.f1(t, x, 0.5 * (g1 + g2)))
        assert fm <= 0.5 * float(spec.f1(t, x, g1)) + 0.5 * float(spec.f1(t, x, g2)) + 1e-12


def test_drift_additivity_sampled():
    spec = mk.make_model("lq_mean_field")
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, 32)
    nu = NuHandle(np.linspace(-4, 4, 41), np.full(41, 0.1))

    def b(t, xv, g):
        return np.asarray(spec.b0(t, xv, nu)) + np.asarray(spec.b1_factor(t, xv)) * g

    for _ in range(100):
        g1, g2 = rng.uniform(-1, 1, 2)
        lhs = b(0.1, x, g1 + g2)
        rhs = b(0.1, x, g1) + b(0.1, x, g2) - b(0.1, x, 0.0)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_nu_handle_functionals():
    x = np.linspace(-4, 4, 201)
    vals = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    h = NuHandle(x, vals)
    assert abs(h.mass - 1.0) < 1e-4  # tail truncation at +-4 is ~6e-5
    assert abs(h.mean) < 1e-9
    assert abs(h.second_moment - 1.0) < 2e-3
    assert abs(h.pair(x**2) - h.second_moment) < 1e-14


def test_const_kill_2d_density_needs_positive_zeta_scale():
    # const_kill is lq_killing with its coefficients replaced, and shares
    # its initial law
    spec = mk.make_model("const_kill", zeta_scale=0.0)
    with pytest.raises(ValueError):
        spec.initial_density_2d(np.zeros((3, 1)), np.ones((1, 4)))
