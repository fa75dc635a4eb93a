"""Model specification, grids, control box, and validation.

A model bundles the coefficients of the controlled dynamics

    dX = (b0(t, X, nu) + b1_factor(t, X) . g) dt + sigma(t, X) dB + sigma0(t) dW,
    dLambda = lam(t, X) dt,

together with the running costs f0/f1, the terminal cost psi and its
derivative, the control box G, the horizon, and the initial joint density
of (X, Lambda).  Coefficients are plain callables that must broadcast over
numpy arrays in the state argument.  Measure arguments are passed as
:class:`mfckill.measures.NuHandle` objects (a checked `SubProb1D` where
the solver holds one) exposing mass, moments, density values and an L2
pairing, which is all the coefficients in this suite ever consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DegenerateRange,
    GridMismatch,
    ModelValidationError,
    NegativeIntensity,
    NonconvexControlCost,
    NondegeneracyViolation,
    NonlinearDrift,
)
from .measures import NuHandle, survival_quadrature, trapezoid_weights

__all__ = [
    "ModelSpec",
    "Grid",
    "build_grid",
    "validate_model",
    "lq_killing",
    "const_kill",
    "lq_mean_field",
    "make_model",
]

ELLIPTICITY_FLOOR = 1e-4  # the lower bound c that validate_model requires of sigma^2


# Type aliases for the coefficient callables.  t is a float, x an array,
# nu a NuHandle, g an array of scalar controls.
Coeff = Callable[..., np.ndarray]


@dataclass
class ModelSpec:
    """Coefficients, costs, control box, horizon, and initial law."""

    b0: Coeff                        # (t, x, nu) -> drift contribution
    b1_factor: Coeff                 # (t, x) -> factor multiplying the scalar control g
    sigma: Coeff                     # (t, x) -> idiosyncratic volatility
    sigma0: Callable[[float], float]  # (t,) -> common-noise volatility
    lam: Coeff                       # (t, x) -> killing intensity >= 0
    f0: Coeff                        # (t, x, nu) -> running cost
    f1: Coeff                        # (t, x, g) -> control cost, convex in g
    psi: Callable[[NuHandle], float]  # terminal cost functional
    dpsi: Coeff                      # (nu, x) -> derivative of psi at x
    db0: Coeff | None                # (t, x, nu, z) -> functional derivative of b0
    df0: Coeff | None                # (t, x, nu, z) -> functional derivative of f0
    control_box: tuple[float, float]  # a single interval: controls are scalar
    T: float
    initial_density_2d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # optional analytic helpers
    df1: Coeff | None = None         # (t, x, g) -> gradient of f1 in g
    # (z, u1, u2) -> (x0, y0) draws from the initial law; z standard normal,
    # u1/u2 uniform(0,1); required by the particle simulator
    initial_sampler: Callable[..., tuple] | None = None
    # (t, x, p, fac, cost_scale) -> array argmin of fac g p + cost_scale *
    # f1(g), fac = b1_factor(t, x); an optional closed-form minimizer
    # bypassing the generic search, clipped to the control box by its caller
    control_minimizer: Callable[..., np.ndarray] | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    @property
    def box_array(self) -> np.ndarray:
        """Control box as an array of shape (1, 2)."""
        return np.atleast_2d(np.asarray(self.control_box, dtype=float))

    @property
    def coupled(self) -> bool:
        """True when the model carries Db0 or Df0, so the value equation
        has a nonlocal term that reads the measure itself."""
        return self.db0 is not None or self.df0 is not None

    def with_params(self, **kw) -> "ModelSpec":
        return replace(self, **kw)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid in (x, y) plus a time-step count.

    The y axis nominally covers [0, y_max]; requesting a negative
    extension adds whole cells below zero so that 0 stays a node.  The
    grid owns its quadrature: the node arrays `x` and `y`, the trapezoid
    weights `wx` and `wy`, the survival kernel e^{-y} wy, e^{-y} as a row
    and the time weights are built once per grid and are read-only; `wy`
    and `survival` are zero below y = 0, so finite data there carry no
    weight.  `check_field` is the one test that an array or solver record
    is a field on the grid.
    """

    x_min: float
    x_max: float
    nx: int
    y_max: float
    ny: int
    nt: int
    extension_ell: float = 0.0

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return self.y_max / (self.ny - 1)

    @property
    def n_ext(self) -> int:
        """Number of extra y nodes below zero."""
        if self.extension_ell >= 0.0:
            return 0
        return int(math.ceil(-self.extension_ell / self.dy - 1e-12))

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(self.x_min + self.dx * np.arange(self.nx))

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen(self.dy * np.arange(-self.n_ext, self.ny))

    @property
    def ny_total(self) -> int:
        return self.ny + self.n_ext

    @cached_property
    def wx(self) -> np.ndarray:
        return _frozen(trapezoid_weights(self.nx, self.dx))

    @cached_property
    def wy(self) -> np.ndarray:
        """Trapezoid weights of the y >= 0 nodes, zero below y = 0."""
        return _frozen(survival_quadrature(self.y, self.dy)[0])

    @cached_property
    def survival(self) -> np.ndarray:
        """The survival kernel e^{-y} wy, zero below y = 0."""
        return _frozen(survival_quadrature(self.y, self.dy)[1])

    @cached_property
    def ey(self) -> np.ndarray:
        """The survival factor e^{-y} as a (1, ny_total) row."""
        return _frozen(np.exp(-self.y)[None, :])

    @cached_property
    def time_weights(self) -> np.ndarray:
        """Trapezoid weights of the nt + 1 time nodes, in units of dt."""
        return _frozen(trapezoid_weights(self.nt + 1, 1.0))

    def check_field(self, field, what: str, joint: bool | None = None,
                    series: bool = True) -> None:
        """Raise `GridMismatch`, naming `field` `what`, unless it is an (nx,)
        or (nx, ny_total) slice per time node, or one slice if not `series`;
        `joint` True or False asks for the second or the first.  `field` is
        an array or holds one in `u` (a value field) or `values`; if it
        carries a `grid`, that must be this grid."""
        values = field.u if hasattr(field, "u") else getattr(field, "values", field)
        shape, on = np.shape(values), getattr(field, "grid", self)
        lead = (self.nt + 1, self.nx) if series else (self.nx,)
        shapes = [lead, (*lead, self.ny_total)]
        if joint is not None:
            shapes = [shapes[joint]]
        if on != self or shape not in shapes:
            where = "" if on == self else f" on {on}"
            raise GridMismatch(f"{what} is not on the grid: shape {shape}{where}, "
                               f"not {' or '.join(map(str, shapes))} on {self}")

    def times(self, T: float) -> np.ndarray:
        return np.linspace(0.0, T, self.nt + 1)

    def dt(self, T: float) -> float:
        return T / self.nt


def build_grid(
    x_min: float,
    x_max: float,
    nx: int,
    y_max: float,
    ny: int,
    nt: int,
    extension_ell: float = 0.0,
) -> Grid:
    """Build a uniform grid; node coordinates are reproducible bit-exactly."""
    if not (x_max > x_min) or not (y_max > 0.0):
        raise DegenerateRange(f"bounds not ordered: x [{x_min}, {x_max}], y_max {y_max}")
    if nx < 2 or ny < 2 or nt < 2:
        raise DegenerateRange(f"counts must be >= 2, got nx={nx}, ny={ny}, nt={nt}")
    if extension_ell > 0.0:
        raise DegenerateRange("extension_ell must be <= 0")
    return Grid(float(x_min), float(x_max), int(nx), float(y_max), int(ny), int(nt), float(extension_ell))


def validate_model(spec: ModelSpec, n_samples: int = 1000) -> ModelSpec:
    """Check the standing assumptions on the probe grid t_probe x x_probe
    and, for the convexity of f1, on `n_samples` seeded random points.
    sigma0 must be finite on t_probe, sigma and lam finite on t_probe x
    x_probe, and b0 and f0 finite there at a standard normal probe measure.

    Returns spec itself.  Raises the first violated assumption; emits a
    warning (not an error) when the intensity is nonzero for x >= 0, since
    several test configurations use a spatially constant intensity.
    """
    rng = np.random.default_rng(0)
    x_probe = np.linspace(-5.0, 5.0, 41)
    t_probe = np.linspace(0.0, spec.T, 7)
    # the one measure b0 and f0 are probed at: a standard normal density
    nu_probe = NuHandle(x_probe, np.exp(-0.5 * x_probe**2) / math.sqrt(2.0 * math.pi))
    box = spec.box_array
    if box.shape != (1, 2) or not (np.isfinite(box).all() and box[0, 0] <= box[0, 1]):
        raise ModelValidationError(
            "control box must be one interval (lo, hi), finite with lo <= hi; "
            f"got {spec.control_box}")

    for t in t_probe:
        sig = np.asarray(spec.sigma(t, x_probe), dtype=float)
        if not np.isfinite(sig).all():
            raise ModelValidationError(f"sigma not finite at t={t:.3f}")
        sig2 = sig**2
        if np.any(sig2 < ELLIPTICITY_FLOOR):
            raise NondegeneracyViolation(
                f"sigma^2 < {ELLIPTICITY_FLOOR} at t={t:.3f} (min {sig2.min():.3e})"
            )
        lam = np.asarray(spec.lam(t, x_probe), dtype=float)
        if not np.isfinite(lam).all():
            raise ModelValidationError(f"lam not finite at t={t:.3f}")
        if np.any(lam < 0.0):
            raise NegativeIntensity(f"lambda < 0 at t={t:.3f} (min {lam.min():.3e})")
        # the drift is b0 + b1_factor * g, linear in g by construction; what
        # can fail is a factor that is not a finite number
        fac = np.asarray(spec.b1_factor(t, x_probe), dtype=float)
        if not np.all(np.isfinite(fac)):
            raise NonlinearDrift(f"b1_factor not finite at t={t:.3f}")
        if not np.isfinite(np.asarray(spec.sigma0(t), dtype=float)).all():
            raise ModelValidationError(f"sigma0 not finite at t={t:.3f}")
        for name in ("b0", "f0"):
            vals = np.asarray(getattr(spec, name)(t, x_probe, nu_probe), dtype=float)
            if not np.isfinite(vals).all():
                raise ModelValidationError(f"{name} not finite at t={t:.3f}")

    lamT = np.asarray(spec.lam(0.0, x_probe), dtype=float)
    if np.any(lamT[x_probe >= 0.0] > 0.0):
        import warnings

        warnings.warn(
            "killing intensity is nonzero for x >= 0; allowed for constant-"
            "intensity test models",
            stacklevel=2,
        )

    # midpoint convexity of f1 on random triples (t, x, pair of controls)
    lo, hi = box[0]
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, spec.T))
        x = float(rng.uniform(x_probe[0], x_probe[-1]))
        g1 = float(rng.uniform(lo, hi))
        g2 = float(rng.uniform(lo, hi))
        fm = float(spec.f1(t, x, 0.5 * (g1 + g2)))
        favg = 0.5 * float(spec.f1(t, x, g1)) + 0.5 * float(spec.f1(t, x, g2))
        if fm > favg + 1e-9 * (1.0 + abs(favg)):
            raise NonconvexControlCost(
                f"midpoint convexity fails at t={t:.3f}, x={x:.3f}: {fm} > {favg}"
            )
    return spec


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _gamma2_profile(y: np.ndarray, scale: float) -> np.ndarray:
    """Gamma(2, scale) density in y; vanishes at y = 0."""
    out = np.where(y >= 0.0, np.maximum(y, 0.0) / scale**2 * np.exp(-np.maximum(y, 0.0) / scale), 0.0)
    return out


def lq_killing(
    kappa: float = 0.9,
    T: float = 0.8,
    control_box: tuple[float, float] = (-1.0, 1.0),
    x0: float = 0.3,
    s0: float = 0.35,
    zeta_scale: float = 0.12,
    f0_weight: float = 0.5,
    f1_weight: float = 1.0,
    psi_weight: float = 0.5,
    sigma0: float = 0.0,
) -> ModelSpec:
    """Linear-quadratic model with killing on the negative half-line.

    b = g, sigma = 1, lambda = kappa * 1_{x<0}, f0 = f0_weight * x^2,
    f1 = 0.5 * f1_weight * g^2, psi(nu) = <nu, psi_weight * x^2>.  The
    initial law is N(x0, s0^2) in x times a Gamma(2, zeta_scale)
    profile in y (point mass at zero intensity when zeta_scale == 0).
    """

    def b0(t, x, nu):
        return np.zeros_like(np.asarray(x, dtype=float))

    def b1_factor(t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def sigma(t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def lam(t, x):
        x = np.asarray(x, dtype=float)
        return kappa * (x < 0.0).astype(float)

    def f0(t, x, nu):
        return f0_weight * np.asarray(x, dtype=float) ** 2

    def f1(t, x, g):
        return 0.5 * f1_weight * np.asarray(g, dtype=float) ** 2

    def df1(t, x, g):
        return f1_weight * np.asarray(g, dtype=float)

    def psi(nu: NuHandle) -> float:
        return psi_weight * nu.second_moment

    def dpsi(nu, x):
        return psi_weight * np.asarray(x, dtype=float) ** 2

    def rho0(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = np.exp(-0.5 * ((x - x0) / s0) ** 2) / (s0 * math.sqrt(2.0 * math.pi))
        if zeta_scale <= 0.0:
            raise ValueError("2d initial density requires zeta_scale > 0")
        return gx * _gamma2_profile(y, zeta_scale)

    def sample0(z, u1, u2):
        xs = x0 + s0 * z
        if zeta_scale <= 0.0:
            return xs, np.zeros_like(xs)
        return xs, -zeta_scale * np.log(u1 * u2)

    return ModelSpec(
        b0=b0,
        b1_factor=b1_factor,
        sigma=sigma,
        sigma0=lambda t: sigma0,
        lam=lam,
        f0=f0,
        f1=f1,
        psi=psi,
        dpsi=dpsi,
        db0=None,
        df0=None,
        df1=df1,
        control_minimizer=lambda t, x, p, fac, scale: -fac * p / (f1_weight * scale),
        initial_sampler=sample0,
        control_box=control_box,
        T=T,
        initial_density_2d=rho0,
        name="lq_killing",
        params=dict(
            kappa=kappa, T=T, x0=x0, s0=s0, zeta_scale=zeta_scale,
            f0_weight=f0_weight, f1_weight=f1_weight, psi_weight=psi_weight,
            sigma0=sigma0,
        ),
    )


def const_kill(
    kappa: float = 0.8,
    T: float = 0.8,
    control_box: tuple[float, float] = (0.0, 0.0),
    x0: float = 0.0,
    s0: float = 0.4,
    zeta_scale: float = 0.12,
    f0_const: float = 1.0,
    sigma0: float = 0.0,
) -> ModelSpec:
    """Spatially constant intensity test model (validator warns, not fails).

    b = g (with a possibly degenerate box), sigma = 1, lambda = kappa,
    f0 = f0_const, f1 = 0.5 g^2, psi = 0: `lq_killing` with those
    coefficients replaced.
    """
    base = lq_killing(T=T, control_box=control_box, x0=x0, s0=s0,
                      zeta_scale=zeta_scale, sigma0=sigma0)

    def lam(t, x):
        return np.full_like(np.asarray(x, dtype=float), kappa)

    def f0(t, x, nu):
        return np.full_like(np.asarray(x, dtype=float), f0_const)

    return replace(
        base,
        lam=lam,
        f0=f0,
        psi=lambda nu: 0.0,
        dpsi=lambda nu, x: np.zeros_like(np.asarray(x, dtype=float)),
        name="const_kill",
        params=dict(kappa=kappa, T=T, x0=x0, s0=s0, zeta_scale=zeta_scale,
                    f0_const=f0_const, sigma0=sigma0),
    )


def lq_mean_field(
    kappa: float = 0.6,
    T: float = 0.6,
    beta: float = 0.4,
    gamma: float = 0.3,
    control_box: tuple[float, float] = (-1.0, 1.0),
    x0: float = 0.3,
    s0: float = 0.35,
    zeta_scale: float = 0.12,
) -> ModelSpec:
    """LQ model with an attractive mean-field drift and cost coupling.

    b0 = beta * (mean(nu) - x) with D b0(t, x, nu)(z) = beta * z, and
    f0 = 0.5 x^2 + gamma * mean(nu) * x with D f0(t, x, nu)(z) = gamma * x * z.
    """
    base = lq_killing(kappa=kappa, T=T, control_box=control_box, x0=x0, s0=s0,
                      zeta_scale=zeta_scale)

    def b0(t, x, nu: NuHandle):
        return beta * (nu.mean - np.asarray(x, dtype=float) * nu.mass)

    def db0(t, x, nu, z):
        # derivative of nu -> beta*(mean(nu) - x*mass(nu)) at location z
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return beta * (z - x)

    def f0(t, x, nu: NuHandle):
        x = np.asarray(x, dtype=float)
        return 0.5 * x**2 + gamma * nu.mean * x

    def df0(t, x, nu, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return gamma * x * z

    return replace(
        base,
        b0=b0,
        db0=db0,
        f0=f0,
        df0=df0,
        name="lq_mean_field",
        params=dict(base.params, beta=beta, gamma=gamma),
    )


_BUILTINS = {
    "lq_killing": lq_killing,
    "const_kill": const_kill,
    "lq_mean_field": lq_mean_field,
}


def make_model(name: str, **params) -> ModelSpec:
    """Instantiate a named built-in model with keyword overrides."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ModelValidationError(
            f"unknown model {name!r}; built-ins: {sorted(_BUILTINS)}"
        ) from None
    return factory(**params)
