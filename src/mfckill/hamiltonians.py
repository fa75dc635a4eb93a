"""Pointwise Hamiltonians and their minimizers.

All routines accept scalars or numpy arrays for the state/gradient slots
and broadcast; the control minimization is vectorized so whole grids are
handled in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch, NonfiniteInput
from .measures import Density2D, SubProb1D, trapezoid_weights
from .model import ModelSpec, NuHandle

__all__ = [
    "minimize_hamiltonian",
    "h_nu",
    "f_nu",
    "k_tilde",
    "f_tilde_mu",
    "h_tilde_mu",
]

MU_FLOOR = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(obj, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-9,
                max_iter: int = 80) -> np.ndarray:
    """Vectorized golden-section minimization of elementwise-unimodal obj."""
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = obj(c)
    fd = obj(d)
    for _ in range(max_iter):
        if np.max(b - a) < tol:
            break
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        d_new = a + _INVPHI * (b - a)
        c_new = b - _INVPHI * (b - a)
        # only one of the two interior points moves; recompute both cheaply
        c, d = c_new, d_new
        fc = obj(c)
        fd = obj(d)
    return 0.5 * (a + b)


def minimize_hamiltonian(t, x, p, spec: ModelSpec, tol: float = 1e-9):
    """Minimizer over the control box of h -> b1(t,x,h) p + f1(t,x,h).

    Closed form when f1 is declared quadratic, vectorized golden-section
    otherwise.  `x` and `p` may be arrays (broadcast).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        raise NonfiniteInput("minimize_hamiltonian received non-finite input")
    if spec.control_minimizer is not None:
        return spec.control_minimizer(t, x, p, 1.0)
    lo, hi = spec.box_array[0]
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    if spec.f1_quad_coeff is not None:
        c = spec.f1_quad_coeff
        return np.clip(-fac * p / c, lo, hi)
    shape = np.broadcast(x, p).shape
    lo_a = np.full(shape, lo)
    hi_a = np.full(shape, hi)

    def obj(g):
        return fac * g * p + np.asarray(spec.f1(t, x, g), dtype=float)

    return _golden_min(obj, lo_a, hi_a, tol=tol)


def h_nu(t, x, r, p, nu: NuHandle, spec: ModelSpec):
    """Control-minimized drift-cost bracket minus the killing term.

    Returns [b0 + b1(g-)] p + f0 + f1(g-) - lam r with g- the pointwise
    minimizer of the control-dependent part.
    """
    x = np.asarray(x, dtype=float)
    g = minimize_hamiltonian(t, x, p, spec)
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    b = np.asarray(spec.b0(t, x, nu), dtype=float) + fac * g
    f = np.asarray(spec.f0(t, x, nu), dtype=float) + np.asarray(spec.f1(t, x, g), dtype=float)
    return b * p + f - np.asarray(spec.lam(t, x), dtype=float) * r


def f_nu(t, x_eval, nu: SubProb1D, dxu_field: np.ndarray, spec: ModelSpec):
    """Nonlocal term: quadratures of Db0 . grad(u) and Df0 against nu.

    `x_eval` is where the functional derivative is evaluated; integration
    runs over nu's grid.  Returns zeros when the model carries no
    functional derivatives.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if spec.db0 is None and spec.df0 is None:
        return np.zeros_like(x_eval)
    dxu_field = np.asarray(dxu_field, dtype=float)
    if dxu_field.shape != nu.x.shape:
        raise GridMismatch("gradient field must live on nu's grid")
    handle = NuHandle(nu.x, nu.values)
    w = nu.weights
    out = np.zeros_like(x_eval)
    xb = nu.x[:, None]  # integration variable
    ze = x_eval[None, :]  # evaluation points
    if spec.db0 is not None:
        kern = np.asarray(spec.db0(t, xb, handle, ze), dtype=float)
        out = out + (nu.values * dxu_field * w) @ kern
    if spec.df0 is not None:
        kern = np.asarray(spec.df0(t, xb, handle, ze), dtype=float)
        out = out + (nu.values * w) @ kern
    return out


def k_tilde(t, x, y, p, h, nu: NuHandle, spec: ModelSpec):
    """Running Hamiltonian b(t,x,nu,h) p + e^{-y} f(t,x,nu,h)."""
    x = np.asarray(x, dtype=float)
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    b = np.asarray(spec.b0(t, x, nu), dtype=float) + fac * np.asarray(h, dtype=float)
    f = np.asarray(spec.f0(t, x, nu), dtype=float) + np.asarray(spec.f1(t, x, h), dtype=float)
    return b * p + np.exp(-np.asarray(y, dtype=float)) * f


def minimize_k_tilde(t, x, y, p, nu: NuHandle, spec: ModelSpec, tol: float = 1e-9):
    """Minimizer over the box of h -> b1(h) p + e^{-y} f1(h), vectorized."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    box = spec.box_array
    lo, hi = box[0]
    ey = np.exp(-y)
    if spec.control_minimizer is not None:
        return spec.control_minimizer(t, x, p, ey)
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    if spec.f1_quad_coeff is not None:
        c = spec.f1_quad_coeff
        return np.clip(-fac * p / (c * ey), lo, hi)
    shape = np.broadcast(x, y, p).shape
    lo_a = np.full(shape, lo)
    hi_a = np.full(shape, hi)

    def obj(g):
        return fac * g * p + ey * np.asarray(spec.f1(t, x, g), dtype=float)

    return _golden_min(obj, lo_a, hi_a, tol=tol)


def f_tilde_mu(t, x_eval, y_eval, mu: Density2D, dxu_2d: np.ndarray,
               spec: ModelSpec):
    """Nonlocal term of the joint-density Hamiltonian.

    e^{-y_eval} [ <mu, Db0(., x_eval) dxu_2d> + <mu, e^{-y'} Df0(., x_eval)> ],
    with the mu quadrature restricted to y' >= 0.  x_eval/y_eval broadcast.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    y_eval = np.asarray(y_eval, dtype=float)
    out_shape = np.broadcast(x_eval, y_eval).shape
    if spec.db0 is None and spec.df0 is None:
        return np.zeros(out_shape)
    dxu_2d = np.asarray(dxu_2d, dtype=float)
    if dxu_2d.shape != mu.values.shape:
        raise GridMismatch("gradient field must live on mu's grid")
    keep = mu.y >= 0.0
    wy = trapezoid_weights(int(keep.sum()), mu.dy)
    wx = mu.wx
    from .measures import s_map

    nu = s_map(mu)
    handle = NuHandle(nu.x, nu.values)
    xb = mu.x[:, None]
    zq = np.unique(np.atleast_1d(x_eval).ravel())
    vals = np.zeros(zq.shape)
    if spec.db0 is not None:
        kern = np.asarray(spec.db0(t, xb, handle, zq[None, :]), dtype=float)
        inner = ((mu.values[:, keep] * dxu_2d[:, keep]) @ wy) * wx  # (nx,)
        vals = vals + inner @ kern
    if spec.df0 is not None:
        kern = np.asarray(spec.df0(t, xb, handle, zq[None, :]), dtype=float)
        inner = ((mu.values[:, keep] * np.exp(-mu.y[keep])[None, :]) @ wy) * wx
        vals = vals + inner @ kern
    lookup = np.searchsorted(zq, np.broadcast_to(x_eval, out_shape))
    return np.exp(-np.broadcast_to(y_eval, out_shape)) * vals[lookup]


def h_tilde_mu(t, x, y, p, mu_value, fallback_g, nu: NuHandle, spec: ModelSpec):
    """Branch on the local density: minimize where mu > floor, otherwise
    evaluate at the supplied fallback control."""
    g_min = minimize_k_tilde(t, x, y, p, nu, spec)
    val_min = k_tilde(t, x, y, p, g_min, nu, spec)
    val_fb = k_tilde(t, x, y, p, fallback_g, nu, spec)
    return np.where(np.asarray(mu_value) > MU_FLOOR, val_min, val_fb)
