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
from mfckill.model import NuHandle, lq_killing


def test_lq_killing_validates():
    spec = mk.make_model("lq_killing")
    assert mk.validate_model(spec).validated


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


def test_vector_control_box_rejected():
    # controls are scalar: a box of several intervals is refused, not cut
    spec = lq_killing(control_box=[(-1.0, 1.0), (-0.5, 0.5)])
    with pytest.raises(ModelValidationError, match="one interval"):
        mk.validate_model(spec)


def test_constant_intensity_warns_not_fails():
    spec = mk.make_model("const_kill", kappa=0.8)
    with pytest.warns(UserWarning):
        assert mk.validate_model(spec).validated


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
])
def test_build_grid_degenerate(args):
    with pytest.raises(DegenerateRange):
        mk.build_grid(*args)


def test_grid_nodes_reproducible():
    a = mk.build_grid(-5, 5, 11, 2, 5, 10)
    b = mk.build_grid(-5, 5, 11, 2, 5, 10)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


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
