import math

import numpy as np
import pytest

import mfckill as mk
from mfckill.errors import EpsBelowGrid
from mfckill.model import lq_killing
from mfckill.regularize import build_approx_family, inf_convolution, mollify


def test_envelope_quadratic_closed_form():
    # oracle: minimizing 0.5 c h^2 + n (g - h)^2 in h gives (c n / (c + 2 n)) g^2
    gg = np.linspace(-2, 2, 1001)
    dg = gg[1] - gg[0]
    c = 1.0
    for n in (1, 2, 4, 8, 16):
        env = inf_convolution(0.5 * c * gg**2, gg, n)
        exact = c * n / (c + 2 * n) * gg**2
        assert np.abs(env - exact).max() <= dg + 1e-8


def test_envelope_huber():
    gg = np.linspace(-2, 2, 2001)
    dg = gg[1] - gg[0]
    for n in (1, 2, 4, 8):
        env = inf_convolution(np.abs(gg), gg, n)
        exact = np.where(np.abs(gg) <= 1 / (2 * n), n * gg**2,
                         np.abs(gg) - 1 / (4 * n))
        # brute-force grid oracle on a 10x finer evaluation
        fine = np.linspace(-2, 2, 20001)
        brute = (np.abs(fine)[None, :] + n * (gg[:, None] - fine[None, :]) ** 2).min(axis=1)
        assert np.abs(env - exact).max() <= dg + 1e-8
        assert np.abs(env - brute).max() <= dg + 1e-8


def test_envelope_below_and_monotone():
    rng = np.random.default_rng(0)
    gg = np.linspace(-2, 2, 401)
    base = np.abs(gg) + 0.3 * np.cos(2 * gg) + 0.5 * gg**2
    prev = None
    for n in (1, 2, 4, 8, 16, 32):
        env = inf_convolution(base, gg, n)
        assert np.all(env <= base + 1e-12)
        if prev is not None:
            assert np.all(env >= prev - 1e-12)
        prev = env


def test_envelope_preserves_convexity():
    gg = np.linspace(-2, 2, 801)
    phi = 0.5 * gg**2 + np.abs(gg)
    env = inf_convolution(phi, gg, 3)
    mid = 0.5 * (env[:-2] + env[2:])
    assert np.all(env[1:-1] <= mid + 1e-12)


def test_mollify_preserves_constants():
    xs = np.linspace(0, 1, 501)
    h = xs[1] - xs[0]
    out = mollify(np.full_like(xs, 2.5), h, 0.05)
    assert np.abs(out - 2.5).max() < 1e-12


def test_mollify_step_transition():
    xs = np.linspace(-1, 1, 2001)
    h = xs[1] - xs[0]
    eps = 0.2
    sm = mollify((xs > 0).astype(float), h, eps)
    assert np.all(np.diff(sm) >= -1e-14)
    assert np.all(sm[xs < -eps - h] < 1e-14)
    assert np.all(sm[xs > eps + h] > 1 - 1e-14)


def test_mollify_second_order():
    xs = np.linspace(0, 2 * np.pi, 4001)
    h = xs[1] - xs[0]
    errs = []
    for eps in (0.2, 0.1, 0.05):
        out = mollify(np.sin(xs), h, eps)
        errs.append(np.abs(out - np.sin(xs))[400:-400].max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_mollify_eps_below_grid():
    xs = np.linspace(0, 1, 101)
    with pytest.raises(EpsBelowGrid):
        mollify(np.sin(xs), xs[1] - xs[0], 0.5 * (xs[1] - xs[0]))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_family_passes_validation(n):
    spec = mk.make_model("lq_killing")
    fam = build_approx_family(spec, n)
    assert mk.validate_model(fam.spec_n, n_samples=300) is fam.spec_n
    assert fam.certified["assumptions"]


@pytest.mark.parametrize("n", [0, -1])
def test_family_index_below_one_rejected(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build_approx_family(mk.make_model("lq_killing"), n)


def test_family_intensity_cap_exact():
    spec = mk.make_model("lq_killing")
    spec.lam = lambda t, x: np.abs(np.asarray(x, dtype=float)) * 3.0
    for n in (1, 2, 5):
        fam = build_approx_family(spec, n)
        x = np.linspace(-6, 6, 101)
        expected = np.minimum(np.abs(x) * 3.0, n)
        assert np.array_equal(np.asarray(fam.spec_n.lam(0.3, x)), expected)


def test_family_strict_convexity_gap():
    spec = mk.make_model("lq_killing")
    rng = np.random.default_rng(5)
    for n in (1, 4, 16):
        fam = build_approx_family(spec, n)
        f1 = fam.spec_n.f1
        for _ in range(200):
            a, b = rng.uniform(-1, 1, 2)
            x = rng.uniform(-2, 2)
            gap = 0.5 * float(f1(0.0, x, a)) + 0.5 * float(f1(0.0, x, b)) \
                - float(f1(0.0, x, 0.5 * (a + b)))
            assert gap >= math.exp(-x**2 / n) / (4 * n) * (a - b) ** 2 - 1e-10


def test_family_bounded_spec_reduces_to_window_and_penalty():
    # bounds within [-n, n]: clamp and cap are inert, the running and
    # terminal costs keep their values, and the control cost matches the
    # windowed envelope-plus-penalty form built from the quadratic
    spec = mk.make_model("lq_killing")
    n = 8
    fam = build_approx_family(spec, n)
    sn = fam.spec_n
    x = np.linspace(-3.5, 3.5, 41)
    assert np.array_equal(np.asarray(sn.lam(0.2, x)), np.asarray(spec.lam(0.2, x)))
    assert np.array_equal(np.asarray(sn.b1_factor(0.2, x)),
                          np.asarray(spec.b1_factor(0.2, x)))
    nu = mk.NuHandle(x, np.full(41, 0.05))
    assert np.allclose(np.asarray(sn.f0(0.2, x, nu)),
                       np.asarray(spec.f0(0.2, x, nu)), atol=1e-12)
    g = np.linspace(-0.95, 0.95, 21)
    c = 1.0
    env_exact = c * n / (c + 2 * n) * g**2
    target = np.exp(-x[:, None] ** 2 / n) * (env_exact[None, :] + g[None, :] ** 2 / n)
    got = np.asarray(sn.f1(0.2, x[:, None], g[None, :]))
    # envelope sampling and mollification alter the quadratic by O(eps^2)
    assert np.abs(got - target).max() < 5e-3


def test_family_minimizer_matches_search(monkeypatch):
    import mfckill.hamiltonians as ham
    from mfckill.hamiltonians import _golden_min

    monkeypatch.setattr(ham, "GOLDEN_TOL", 1e-12)  # a tighter search as the oracle
    spec = mk.make_model("lq_killing")
    fam = build_approx_family(spec, 4)
    sn = fam.spec_n
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, p, ey = rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(0.1, 1.0)
        fac = np.asarray(sn.b1_factor(0.0, x))
        fast = float(np.atleast_1d(sn.control_minimizer(0.0, x, p, fac, ey))[0])

        def obj(g):
            return fac * g * p + ey * np.asarray(sn.f1(0.0, x, g))

        slow = float(_golden_min(obj, np.array(-1.0), np.array(1.0)))
        assert abs(fast - slow) < 1e-7


def test_family_step_control_uses_clamped_drift_factor(monkeypatch):
    # beyond |x| = n the derived model's drift factor is clamped; the step's
    # control must minimize that model's own Hamiltonian there
    import mfckill.hamiltonians as ham
    from mfckill.hamiltonians import _golden_min
    from mfckill.steps import StepOperators

    n = 2
    spec = lq_killing().with_params(b1_factor=lambda t, x: 1 + 0.5 * x**2)
    sn = build_approx_family(spec, n).spec_n
    grid = mk.build_grid(-4, 4, 81, 2.4, 8, 20)
    x = grid.x
    p = 0.5 * np.cos(3.0 * x) * np.exp(-(x**2) / n)
    fast = StepOperators(sn, grid, 0.0).control(p)
    fac = np.asarray(sn.b1_factor(0.0, x))

    def obj(g):
        return fac * g * p + np.asarray(sn.f1(0.0, x, g))

    with monkeypatch.context() as m:
        m.setattr(ham, "GOLDEN_TOL", 1e-12)  # a tighter search as the oracle
        slow = _golden_min(obj, np.full(x.size, -1.0), np.full(x.size, 1.0))
    far = np.abs(x) > n
    assert far.any()
    assert np.abs(fast - slow)[far].max() < 1e-7


def test_modulus_recorded():
    spec = mk.make_model("lq_killing")
    fam = build_approx_family(spec, 4)
    assert fam.modulus_estimate >= 0.0
    assert fam.k_n >= 1
