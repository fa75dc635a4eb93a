"""The box-constrained control minimizer and the nonlocal kernels.

`bound_minimizer` is the one box-constrained control minimizer, bound to
a time and box once, and `nonlocal_kernels` the one evaluation of the
Db0/Df0 kernels.  The solvers call both through `steps.StepOperators`,
which also evaluates the Hamiltonians themselves: the kernels once per
time step, the minimizer in every inner iteration of a value solve.
`minimize_hamiltonian`, `minimize_k_tilde` and `f_nu` evaluate the same
minimizer and kernels at arbitrary points; they stay only for the
benchmark tracer (`perfbench/tracer.py`) and as oracles in the tests.
"""

from __future__ import annotations

import math

import numpy as np

try:  # the ufunc behind ndarray.clip, called without the method's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .errors import GridMismatch, NonfiniteInput
from .measures import NuHandle, SubProb1D
from .model import ModelSpec

__all__ = [
    "minimize_hamiltonian",
    "f_nu",
]

MU_FLOOR = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL, GOLDEN_MAX_ITER = 1e-9, 80  # golden section: bracket width, shrinks
# ndarray.all and ndarray.max without the methods' Python wrappers, for
# the checks that the solvers' inner iterations make
_all, max_reduce = np.logical_and.reduce, np.maximum.reduce


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite: `np.isfinite(values).all()`."""
    return _all(np.isfinite(values), axis=None)


def _golden_min(obj, lo: np.ndarray, hi: np.ndarray, out=None) -> np.ndarray:
    """Vectorized golden-section minimization of elementwise-unimodal obj,
    written into `out` when given."""
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = obj(c)
    fd = obj(d)
    for _ in range(GOLDEN_MAX_ITER):
        if np.max(b - a) < GOLDEN_TOL:
            break
        # keep [a, d] or [c, b]; its interior point and value carry over
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        new = np.where(take_left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        f_new = obj(new)
        c, d = np.where(take_left, new, d), np.where(take_left, c, new)
        fc, fd = np.where(take_left, f_new, fd), np.where(take_left, fc, f_new)
    return np.multiply(0.5, np.add(a, b, out=out), out=out)


def bound_minimizer(spec: ModelSpec, t: float, box: tuple):
    """`minimize(x, p, fac, scale, out=None)`: the pointwise minimizer over
    the box (lo, hi) of h -> fac h p + scale f1(t, x, h), written into
    `out` when given.

    `fac` is b1_factor at `x`; `scale` is 1 for the marginal Hamiltonian
    and e^{-y} for the joint one.  The model's closed-form
    `control_minimizer` when it has one, clipped to the box; vectorized
    golden-section search otherwise.  A non-finite `p` raises.
    """
    lo, hi = box
    closed, f1 = spec.control_minimizer, spec.f1

    def minimize(x, p, fac, scale, out=None):
        if not all_finite(p):
            raise NonfiniteInput("control minimizer received a non-finite gradient")
        if closed is not None:
            return _clip(closed(t, x, p, fac, scale), lo, hi, out=out)

        def obj(g):
            return fac * g * p + scale * np.asarray(f1(t, x, g), dtype=float)

        shape = np.broadcast(x, p, scale).shape
        return _golden_min(obj, np.full(shape, lo), np.full(shape, hi), out=out)
    return minimize


def minimize_hamiltonian(t, x, p, spec: ModelSpec):
    """Minimizer over the control box of h -> b1(t,x,h) p + f1(t,x,h)."""
    if not np.all(np.isfinite(x)):
        raise NonfiniteInput("minimize_hamiltonian received a non-finite state")
    return minimize_k_tilde(t, x, 0.0, p, None, spec)  # e^{-0} = 1


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
    kb, kf = nonlocal_kernels(t, nu.x, nu, x_eval, spec)
    w = nu.weights
    return (integrate_kernel(kb, nu.values * dxu_field * w)
            + integrate_kernel(kf, nu.values * w))


def minimize_k_tilde(t, x, y, p, nu: NuHandle, spec: ModelSpec):
    """Minimizer over the box of h -> b1(h) p + e^{-y} f1(h), vectorized."""
    x = np.asarray(x, dtype=float)
    fac = np.asarray(spec.b1_factor(t, x), dtype=float)
    minimize = bound_minimizer(spec, t, spec.box_array[0])
    return minimize(x, np.asarray(p, dtype=float), fac, np.exp(-np.asarray(y, dtype=float)))
