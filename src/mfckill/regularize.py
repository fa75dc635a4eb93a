"""Coefficient-approximation toolbox.

Builds, for an index n, a derived model with clamped drift, capped
intensity, an inf-convolved + mollified + windowed control cost (strictly
convex by the added |g|^2/n term), and measure-discretized running and
terminal costs, together with a record of which approximation properties
were certified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EpsBelowGrid
from .measures import (
    NuHandle,
    SubProb1D,
    cutoff,
    hat_weights,
    metric_dp,
    truncate_measure,
)
from .model import ModelSpec, validate_model

__all__ = ["inf_convolution", "mollify", "ApproxFamily", "build_approx_family"]

G_GRID_SIZE = 513   # control-grid samples of the regularized control cost
K_CAP = 9           # the largest dyadic resolution k_n of the measure discretization
MODULUS_SAMPLES = 40  # random measure pairs of the sampled cost modulus
MODULUS_SEED = 0      # their generator's seed


def inf_convolution(phi: np.ndarray, g_grid: np.ndarray, n: float) -> np.ndarray:
    """Discrete Moreau-type envelope min_h phi(h) + n |g - h|^2.

    Direct O(M^2) minimization over the sample grid; exact on the grid.
    The result is convex whenever phi is, lies below phi, and increases
    toward phi as n grows.
    """
    phi = np.asarray(phi, dtype=float)
    g_grid = np.asarray(g_grid, dtype=float)
    penal = n * (g_grid[:, None] - g_grid[None, :]) ** 2
    return (phi[None, :] + penal).min(axis=1)


def _bump_kernel(eps: float, h: float) -> np.ndarray:
    m = int(np.floor(eps / h))
    z = (np.arange(-m, m + 1) * h) / eps
    with np.errstate(divide="ignore", over="ignore"):
        k = np.where(np.abs(z) < 1.0, np.exp(-1.0 / np.maximum(1.0 - z**2, 1e-300)), 0.0)
    return k / k.sum()


def mollify(f: np.ndarray, h: float, eps: float) -> np.ndarray:
    """Convolve samples with the normalized compact bump of width eps.

    The kernel is normalized on the grid, so constants are preserved to
    rounding; edges are padded by linear extrapolation of the boundary
    slope, which also keeps convex inputs convex.
    """
    if eps < 2.0 * h:
        raise EpsBelowGrid(f"eps = {eps} must be >= 2 * grid spacing {h}")
    f = np.asarray(f, dtype=float)
    k = _bump_kernel(eps, h)
    m = k.size // 2
    left = f[0] + (f[0] - f[1]) * np.arange(m, 0, -1)
    right = f[-1] + (f[-1] - f[-2]) * np.arange(1, m + 1)
    padded = np.concatenate([left, f, right])
    return np.convolve(padded, k, mode="valid")


@dataclass
class ApproxFamily:
    """Derived model of index n plus its certification record."""

    n: int
    spec_n: ModelSpec
    k_n: int
    eps_n: float
    modulus_estimate: float
    certified: dict


def _estimate_cost_modulus(spec: ModelSpec, n: int) -> float:
    """Sampled Lipschitz-type modulus of f0/psi w.r.t. the d2 metric, f0
    probed at x = -4, -3, ..., 4.

    The construction only needs an upper envelope of the modulus to pick
    the dyadic resolution; a sampled slope estimate stands in for the
    unobservable exact modulus and is recorded with the family.
    """
    if spec.df0 is None and spec.dpsi is None:
        return 0.0
    rng = np.random.default_rng(MODULUS_SEED)
    slope = 0.0
    xg = np.linspace(-min(n, 4.0), min(n, 4.0), 161)
    for _ in range(MODULUS_SAMPLES):
        c1, s1 = rng.uniform(-1, 1), rng.uniform(0.2, 0.8)
        c2, s2 = c1 + rng.uniform(-0.3, 0.3), s1 * rng.uniform(0.8, 1.25)
        m1 = rng.uniform(0.5, 1.0)
        v1 = m1 * np.exp(-0.5 * ((xg - c1) / s1) ** 2) / (s1 * np.sqrt(2 * np.pi))
        v2 = m1 * np.exp(-0.5 * ((xg - c2) / s2) ** 2) / (s2 * np.sqrt(2 * np.pi))
        a = SubProb1D(xg, v1)
        b = SubProb1D(xg, v2)
        d = metric_dp(a, b, p=2)
        if d < 1e-9:
            continue
        df = 0.0
        for xq in np.arange(-4.0, 5.0):
            fa = float(np.asarray(spec.f0(0.0, np.array([xq]), a))[0])
            fb = float(np.asarray(spec.f0(0.0, np.array([xq]), b))[0])
            df = max(df, abs(fa - fb))
        df = max(df, abs(spec.psi(a) - spec.psi(b)))
        slope = max(slope, df / d)
    return slope


def _envelope_minimizer(gg: np.ndarray, env: np.ndarray, n: int):
    """Closed-form minimizer of fac g p + scale * w(x) (E(g) + g^2/n).

    E is the piecewise-linear interpolant of the envelope samples, so the
    objective's derivative is piecewise affine and increasing; locate the
    zero-crossing segment with a binary search over the knot derivatives.
    The result lies in [gg[0], gg[-1]].
    """
    slopes = np.diff(env) / np.diff(gg)          # increasing for convex env
    knotval = slopes + 2.0 * gg[:-1] / n         # right-derivative base at knots

    def minimize(t, x, p, fac, cost_scale):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        scale = np.asarray(cost_scale, dtype=float)
        w = np.exp(-(x**2) / n) * scale          # positive cost weight
        a = np.asarray(fac, dtype=float) * p
        target = -a / w
        tgt = target.ravel()
        j = np.searchsorted(knotval, tgt, side="right") - 1
        out = np.empty_like(tgt)
        left = j < 0
        out[left] = gg[0]
        jj = np.clip(j, 0, slopes.size - 1)
        root = (tgt - slopes[jj]) * (n / 2.0)
        root = np.clip(root, gg[jj], gg[jj + 1])
        out[~left] = root[~left]
        return out.reshape(target.shape)

    return minimize


def build_approx_family(spec: ModelSpec, n: int) -> ApproxFamily:
    """Derived model: clamped b, capped intensity, regularized costs.

    The control cost is assumed state-independent (true for the built-in
    models): its envelope is computed once on a control grid, mollified,
    and combined with the e^{-x^2/n} window and the strictly convexifying
    |g|^2/n term.  Raises `ValueError` unless n >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = spec.control_box
    width = max(hi - lo, 1e-12)
    gg = np.linspace(lo, hi, G_GRID_SIZE)
    dg = gg[1] - gg[0]

    f1_samples = np.asarray(spec.f1(0.0, 0.0, gg), dtype=float)
    env = inf_convolution(f1_samples, gg, n)
    eps_n = max(2.5 * dg, width / (8.0 * n))
    env_m = mollify(env, dg, eps_n)

    slope = _estimate_cost_modulus(spec, n)
    if slope > 0.0:
        k_n = 1
        while slope * 2.0 ** (-k_n) > 1.0 / n and k_n < K_CAP:
            k_n += 1
    else:
        k_n = max(1, min(int(np.ceil(np.log2(max(n, 2)))) + 4, K_CAP))

    base_b0 = spec.b0
    base_b1f = spec.b1_factor
    base_lam = spec.lam
    base_f0 = spec.f0
    base_psi = spec.psi
    base_dpsi = spec.dpsi

    def clamp(x):
        return np.clip(np.asarray(x, dtype=float), -n, n)

    def b0_n(t, x, nu):
        return base_b0(t, clamp(x), nu)

    def b1f_n(t, x):
        return base_b1f(t, clamp(x))

    def lam_n(t, x):
        return np.minimum(np.asarray(base_lam(t, x), dtype=float), float(n))

    def f1_n(t, x, g):
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        e = np.interp(g, gg, env_m)
        return np.exp(-(x**2) / n) * (e + g**2 / n)

    minimizer = _envelope_minimizer(gg, env_m, n)

    uses_discretization = spec.df0 is not None
    h_n = 2.0 ** (-k_n)
    x_fine = -n + h_n * np.arange(2 * n * 2**k_n + 1)

    def _reconstruct_fine(nu: NuHandle) -> NuHandle:
        # project on the hat weights, then sample the reconstruction on
        # the hat-native grid where it is exactly piecewise linear
        sub = truncate_measure(SubProb1D(nu.x, np.maximum(nu.values, 0.0)), n)
        weights = hat_weights(sub, n, k_n)
        vals = np.zeros(x_fine.size)
        vals[1:-1] = weights / h_n
        return NuHandle(x_fine, vals)

    def f0_n(t, x, nu: NuHandle):
        w = cutoff(np.asarray(x, dtype=float), n)
        if not uses_discretization:
            return w * np.asarray(base_f0(t, x, nu), dtype=float)
        return w * np.asarray(base_f0(t, x, _reconstruct_fine(nu)), dtype=float)

    def psi_n(nu: NuHandle) -> float:
        return float(base_psi(_reconstruct_fine(nu)))

    def dpsi_n(nu, x):
        # windowed derivative interpolated through the hat-basis knots
        f_fine = np.asarray(base_dpsi(nu, x_fine), dtype=float) * cutoff(x_fine, n)
        return np.interp(np.asarray(x, dtype=float), x_fine, f_fine)

    spec_n = replace(
        spec,
        b0=b0_n,
        b1_factor=b1f_n,
        lam=lam_n,
        f0=f0_n,
        f1=f1_n,
        psi=psi_n,
        dpsi=dpsi_n,
        df1=None,
        control_minimizer=minimizer,
        name=f"{spec.name}_approx{n}",
        params=dict(spec.params, approx_index=n),
    )

    certified = _certify(spec, spec_n, n, gg)
    return ApproxFamily(n=n, spec_n=spec_n, k_n=k_n, eps_n=eps_n,
                        modulus_estimate=slope, certified=certified)


def _certify(spec: ModelSpec, spec_n: ModelSpec, n: int, gg: np.ndarray) -> dict:
    """Sampled checks of the approximation properties."""
    import warnings

    rng = np.random.default_rng(1234)
    xs = np.linspace(-3.0, 3.0, 41)
    out = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            validate_model(spec_n, n_samples=200)
        out["assumptions"] = True
    except Exception:
        out["assumptions"] = False

    # uniform growth of drift and intensity against 1 + |x|
    growth = 0.0
    for t in np.linspace(0.0, spec.T, 4):
        b = np.abs(np.asarray(spec_n.b1_factor(t, xs))).max()
        lamv = np.abs(np.asarray(spec_n.lam(t, xs))).max()
        growth = max(growth, b, lamv / (1.0 + np.abs(xs).max()))
    out["growth_bound"] = float(growth)

    # locally uniform convergence gap on a compact window
    gap = 0.0
    for t in np.linspace(0.0, spec.T, 3):
        gap = max(gap, float(np.abs(
            np.asarray(spec_n.lam(t, xs)) - np.asarray(spec.lam(t, xs))
        ).max()))
        g_test = rng.uniform(*spec.control_box, 8)
        for gq in g_test:
            gap = max(gap, float(np.abs(
                np.asarray(spec_n.f1(t, xs, gq)) - np.asarray(spec.f1(t, xs, gq))
            ).max()))
    out["local_convergence_gap"] = gap

    # strict convexity modulus of the derived control cost
    worst = np.inf
    for _ in range(200):
        a, b = rng.uniform(gg[0], gg[-1], 2)
        fa = float(spec_n.f1(0.0, 0.0, a))
        fb = float(spec_n.f1(0.0, 0.0, b))
        fm = float(spec_n.f1(0.0, 0.0, 0.5 * (a + b)))
        denom = (a - b) ** 2
        if denom > 1e-12:
            worst = min(worst, (0.5 * fa + 0.5 * fb - fm) / denom)
    out["strict_convexity_modulus"] = float(worst)
    out["strict_convexity_ok"] = bool(worst >= 1.0 / (4.0 * n) - 1e-9)
    return out
