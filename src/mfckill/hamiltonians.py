"""Pointwise Hamiltonians and their minimizers.

All routines accept scalars or numpy arrays for the state/gradient slots
and broadcast; the control minimization is vectorized so whole grids are
handled in one call.

`minimize_control` is the one box-constrained control minimizer and
`nonlocal_kernels` the one evaluation of the Db0/Df0 kernels.  The
solvers call both once per time step through `steps.StepOperators`;
the public functions here serve arbitrary points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch, NonfiniteInput
from .measures import Density2D, SubProb1D, s_map, survival_pairing
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


def minimize_control(t, x, p, fac, box, spec: ModelSpec, scale=1.0, tol: float = 1e-9):
    """Pointwise minimizer over the box (lo, hi) of h -> fac h p + scale f1(t,x,h).

    `fac` is b1_factor at `x`; `scale` is 1 for the marginal Hamiltonian
    and e^{-y} for the joint one.  The model's `control_minimizer` when it
    has one, the closed form when f1 is declared quadratic, vectorized
    golden-section search otherwise.  A non-finite `p` raises.
    """
    if not np.isfinite(p).all():
        raise NonfiniteInput("control minimizer received a non-finite gradient")
    if spec.control_minimizer is not None:
        return spec.control_minimizer(t, x, p, scale)
    lo, hi = box
    if spec.f1_quad_coeff is not None:
        return (-fac * p / (spec.f1_quad_coeff * scale)).clip(lo, hi)
    shape = np.broadcast(x, p, scale).shape

    def obj(g):
        return fac * g * p + scale * np.asarray(spec.f1(t, x, g), dtype=float)

    return _golden_min(obj, np.full(shape, lo), np.full(shape, hi), tol=tol)


def minimize_hamiltonian(t, x, p, spec: ModelSpec, tol: float = 1e-9):
    """Minimizer over the control box of h -> b1(t,x,h) p + f1(t,x,h)."""
    if not np.all(np.isfinite(x)):
        raise NonfiniteInput("minimize_hamiltonian received a non-finite state")
    return minimize_k_tilde(t, x, 0.0, p, None, spec, tol)  # e^{-0} = 1


def h_nu(t, x, r, p, nu: NuHandle, spec: ModelSpec):
    """Control-minimized drift-cost bracket minus the killing term.

    Returns [b0 + b1(g-)] p + f0 + f1(g-) - lam r with g- the pointwise
    minimizer of the control-dependent part.
    """
    g = minimize_hamiltonian(t, x, p, spec)
    return k_tilde(t, x, 0.0, p, g, nu, spec) - np.asarray(spec.lam(t, x), dtype=float) * r


def nonlocal_kernels(t, x, nu: NuHandle, z, spec: ModelSpec) -> tuple:
    """(Db0, Df0) at nu on integration nodes `x` by evaluation points `z`;
    None for a derivative the model does not carry."""
    xb, zr = x[:, None], z[None, :]
    return tuple(None if d is None else np.asarray(d(t, xb, nu, zr), dtype=float)
                 for d in (spec.db0, spec.df0))


def integrate_kernel(kern, weights):
    """weights @ kern over the integration nodes; 0.0 without a kernel."""
    return 0.0 if kern is None else weights @ kern


def f_nu(t, x_eval, nu: SubProb1D, dxu_field: np.ndarray, spec: ModelSpec):
    """Nonlocal term: quadratures of Db0 . grad(u) and Df0 against nu.

    `x_eval` is where the functional derivative is evaluated; integration
    runs over nu's grid.  Returns zeros when the model carries no
    functional derivatives.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if not spec.coupled:
        return np.zeros_like(x_eval)
    dxu_field = np.asarray(dxu_field, dtype=float)
    if dxu_field.shape != nu.x.shape:
        raise GridMismatch("gradient field must live on nu's grid")
    kb, kf = nonlocal_kernels(t, nu.x, NuHandle(nu.x, nu.values), x_eval, spec)
    w = nu.weights
    return (integrate_kernel(kb, nu.values * dxu_field * w)
            + integrate_kernel(kf, nu.values * w))


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
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    return minimize_control(t, x, np.asarray(p, dtype=float), fac, spec.box_array[0],
                            spec, np.exp(-np.asarray(y, dtype=float)), tol)


def f_tilde_mu(t, x_eval, y_eval, mu: Density2D, dxu_2d: np.ndarray,
               spec: ModelSpec):
    """Nonlocal term of the joint-density Hamiltonian.

    e^{-y_eval} [ <mu, Db0(., x_eval) dxu_2d> + <mu, e^{-y'} Df0(., x_eval)> ],
    with the mu quadrature restricted to y' >= 0.  x_eval/y_eval broadcast.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    y_eval = np.asarray(y_eval, dtype=float)
    out_shape = np.broadcast(x_eval, y_eval).shape
    if not spec.coupled:
        return np.zeros(out_shape)
    dxu_2d = np.asarray(dxu_2d, dtype=float)
    if dxu_2d.shape != mu.values.shape:
        raise GridMismatch("gradient field must live on mu's grid")
    keep, weigh = survival_pairing(mu)
    zq = np.unique(np.atleast_1d(x_eval).ravel())
    kb, kf = nonlocal_kernels(t, mu.x, NuHandle(mu.x, s_map(mu).values), zq, spec)
    vals = (integrate_kernel(kb, weigh(dxu_2d[:, keep]))
            + integrate_kernel(kf, weigh(np.exp(-mu.y[keep]))))
    lookup = np.searchsorted(zq, np.broadcast_to(x_eval, out_shape))
    return np.exp(-np.broadcast_to(y_eval, out_shape)) * vals[lookup]


def h_tilde_mu(t, x, y, p, mu_value, fallback_g, nu: NuHandle, spec: ModelSpec):
    """Branch on the local density: minimize where mu > floor, otherwise
    evaluate at the supplied fallback control."""
    g_min = minimize_k_tilde(t, x, y, p, nu, spec)
    val_min = k_tilde(t, x, y, p, g_min, nu, spec)
    val_fb = k_tilde(t, x, y, p, fallback_g, nu, spec)
    return np.where(np.asarray(mu_value) > MU_FLOOR, val_min, val_fb)
