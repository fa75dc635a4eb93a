"""Subprobability containers, the survival-weighted marginal, the d_p
metrics, and the hat-basis weights and smooth truncation `regularize` uses.

A measure on the line has one type: `NuHandle`, what the coefficients of
a model read (mass, moments, density values, trapezoid weights and the
L2 pairing).  `SubProb1D` is the `NuHandle` whose density is checked: it
has the shape of x, no value below the clip floor and mass at most 1.
`s_map`, `ForwardTrajectory1D.at` and `empirical_subprob` return one, and
the solvers hand it to the model as it is; `initial_marginal` is the
survival-weighted marginal of a model's initial law.  A plain `NuHandle` is built
only where a solver holds raw density values, such as mid-march.

Conventions: densities live on uniform node grids and all pairings use the
trapezoid rule (tensor-product trapezoid in 2d).  These types take their
spacing from their nodes, since they also serve nodes that belong to no
`model.Grid`; a solver takes its weights from its grid.  Negative values produced
by numerics are tolerated down to -1e-12 and clipped only in diagnostics,
never inside solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

__all__ = [
    "NuHandle",
    "SubProb1D",
    "Density2D",
    "s_map",
    "metric_dp",
    "truncate_measure",
    "trapezoid_weights",
    "hat_nodes",
    "cutoff",
]

NEG_FLOOR = -1e-12


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class NuHandle:
    """Read-only view of a gridded subprobability measure.

    Exposes exactly the functionals the drift and cost coefficients use:
    total mass, first/second moments, raw density values and trapezoid
    weights, and the trapezoid L2 pairing against a sampled function.
    """

    __slots__ = ("x", "values", "weights")

    def __init__(self, x: np.ndarray, values: np.ndarray):
        self.x = x
        self.values = values
        self.weights = trapezoid_weights(x.size, x[1] - x[0])

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def mass(self) -> float:
        return float(self.values @ self.weights)

    @property
    def mean(self) -> float:
        return float((self.values * self.x) @ self.weights)

    @property
    def second_moment(self) -> float:
        return float((self.values * self.x**2) @ self.weights)

    def pair(self, f_values: np.ndarray) -> float:
        """Trapezoid integral of f against the measure."""
        return float((self.values * f_values) @ self.weights)


class SubProb1D(NuHandle):
    """A `NuHandle` whose density values on the uniform x grid are checked:
    same shape as x, none below the clip floor, and total mass at most 1."""

    __slots__ = ()

    def __init__(self, x: np.ndarray, values: np.ndarray):
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.shape != values.shape:
            raise GridMismatch("x and values must have the same shape")
        if values.min(initial=0.0) < NEG_FLOOR:
            raise ValueError(f"density below clip floor: {values.min():.3e}")
        super().__init__(x, values)
        if self.mass > 1.0 + 1e-8:
            raise ValueError(f"total mass {self.mass:.10f} exceeds 1")

    def to_csv(self, path) -> None:
        header = "x,value"
        data = np.column_stack([self.x, self.values])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


@dataclass
class Density2D:
    """Joint density of (position, cumulative intensity) on a tensor grid."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray  # shape (nx, ny)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x.size, self.y.size):
            raise GridMismatch("values must have shape (nx, ny)")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def mass(self) -> float:
        wx, wy = (trapezoid_weights(v.size, float(v[1] - v[0])) for v in (self.x, self.y))
        return float(wx @ self.values @ wy)

    def to_csv(self, path) -> None:
        xs, ys = np.meshgrid(self.x, self.y, indexing="ij")
        data = np.column_stack([xs.ravel(), ys.ravel(), self.values.ravel()])
        np.savetxt(path, data, delimiter=",", header="x,y,value", comments="",
                   fmt="%.17g")


def survival_quadrature(y: np.ndarray, dy: float) -> tuple:
    """Two rows over the nodes `y`, zero below y = 0: the trapezoid weights
    w_y of the y >= 0 nodes and the survival kernel e^{-y} w_y.  Finite
    data below zero carry no weight against them; a NaN there propagates."""
    keep = y >= 0.0
    wy = np.zeros(y.size)
    wy[keep] = trapezoid_weights(int(keep.sum()), dy)
    return wy, np.exp(-y) * wy


def s_map(mu: Density2D) -> SubProb1D:
    """Survival-weighted x marginal: nu(x) = int e^{-y} mu(x, y) dy.

    Trapezoid rule over the y >= 0 part of the grid; nodes below zero
    (present only on extended grids) carry no physical mass and weight
    zero, so the result does not depend on finite ghost data there.
    """
    return SubProb1D(mu.x, mu.values @ survival_quadrature(mu.y, mu.dy)[1])


def initial_marginal(spec, grid) -> np.ndarray:
    """The survival-weighted x marginal of `spec`'s initial joint density on
    `grid`'s x nodes: a 2001-node trapezoid rule in y over [0, max(y_max,
    6)], finer than the grid's own y nodes."""
    yq = np.linspace(0.0, max(grid.y_max, 6.0), 2001)
    rho2 = spec.initial_density_2d(grid.x[:, None], yq[None, :])
    return rho2 @ survival_quadrature(yq, yq[1] - yq[0])[1]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _atoms(nu: SubProb1D) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell masses (trapezoid weights), clipped at zero, plus total mass."""
    w = np.maximum(nu.values, 0.0) * nu.weights
    m = float(w.sum())
    return nu.x, w, m


def _completed_quantiles(
    x: np.ndarray, w: np.ndarray, m: float, q: np.ndarray
) -> np.ndarray:
    """Quantile function of the probability measure nu + (1 - m) delta_0."""
    defect = max(0.0, 1.0 - m)
    if defect > 0.0:
        # insert the completion atom at 0 keeping positions sorted
        idx = int(np.searchsorted(x, 0.0))
        x = np.insert(x, idx, 0.0)
        w = np.insert(w, idx, defect)
    total = w.sum()
    if total <= 0.0:
        return np.zeros_like(q)
    cums = np.cumsum(w) / total
    pos = np.searchsorted(cums, q, side="left")
    pos = np.minimum(pos, x.size - 1)
    return x[pos]


def metric_dp(v1: SubProb1D, v2: SubProb1D, p: int = 1) -> float:
    """d_p = W_p(completed measures) + |mass gap|.

    Both inputs are completed to probability measures by an atom at 0 of
    size (1 - mass).  W_p is the inverse-CDF integral evaluated with the
    midpoint rule on a quantile grid 10 times denser than the atom
    count, which is exact for atomic inputs up to grid placement.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if v1.x.shape != v2.x.shape or not np.allclose(v1.x, v2.x):
        raise GridMismatch("inputs live on different grids")
    x1, w1, m1 = _atoms(v1)
    x2, w2, m2 = _atoms(v2)
    k = 10 * (v1.x.size + 1)
    q = (np.arange(k) + 0.5) / k
    q1 = _completed_quantiles(x1, w1, m1, q)
    q2 = _completed_quantiles(x2, w2, m2, q)
    wp = (np.mean(np.abs(q1 - q2) ** p)) ** (1.0 / p)
    return float(wp + abs(m1 - m2))


# ---------------------------------------------------------------------------
# Partition-of-unity discretization and smooth truncation
# ---------------------------------------------------------------------------


def hat_nodes(n: int, k: int) -> np.ndarray:
    """Interior nodes x_i = -n + i 2^{-k}, i = 1, ..., 2 n 2^k - 1."""
    h = 2.0 ** (-k)
    count = 2 * n * 2**k
    return -n + h * np.arange(1, count)


def hat_weights(v: SubProb1D, n: int, k: int) -> np.ndarray:
    """Partition-of-unity weights w_i = int psi_i dv."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    h = 2.0 ** (-k)
    # every hat function at every node of v: (nx, number of hat nodes)
    basis = np.maximum(0.0, 1.0 - np.abs(v.x[:, None] - hat_nodes(n, k)[None, :]) / h)
    cell = np.maximum(v.values, 0.0) * v.weights
    return cell @ basis


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def cutoff(x: np.ndarray, n: int) -> np.ndarray:
    """Smooth cutoff equal to 1 on [-(n-1), n-1] and 0 outside [-n, n]."""
    x = np.asarray(x, dtype=float)
    return smooth_step(n - np.abs(x))


def truncate_measure(v: SubProb1D, n: int) -> SubProb1D:
    """Multiply the density by the smooth cutoff; mass is nonincreasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SubProb1D(v.x, v.values * cutoff(v.x, n))
