"""Reference computations the tests compare `mfckill` against.

None of them is part of the library: no solver calls them.  Each checks
a finite-difference result or one of the paper's approximation lemmas by
an independent method: a sine-basis Galerkin solve of the linear value
equation, the bounded-Lipschitz distance as a linear program, and the
reconstruction of a measure from its hat-basis weights.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from mfckill.measures import NuHandle, SubProb1D, hat_nodes, trapezoid_weights


def solve_backward_1d_galerkin(spec, grid, nu_traj, terminal, n_modes=48) -> np.ndarray:
    """The (nt+1, nx) value field of the linear regime (singleton control
    box, no common noise) by a sine-basis Galerkin method.

    Projects the equation on n_modes sine modes over the x interval and
    marches their coefficients with backward Euler.  It reads the model's
    coefficients itself, the diffusion (sigma^2 + sigma0^2)/2 included, and
    suits problems whose solution decays at the ends of the interval.
    """
    lo, hi = spec.control_box
    assert abs(hi - lo) <= 1e-14, "needs a singleton control box"
    g0 = float(lo)
    x = grid.x
    dt = grid.dt(spec.T)
    nt = grid.nt
    L = grid.x_max - grid.x_min
    n = np.arange(1, n_modes + 1)
    phi = np.sqrt(2.0 / L) * np.sin(np.outer(x - grid.x_min, n) * np.pi / L)
    dphi = np.sqrt(2.0 / L) * (n * np.pi / L)[None, :] * np.cos(
        np.outer(x - grid.x_min, n) * np.pi / L
    )
    d2phi = -((n * np.pi / L) ** 2)[None, :] * phi
    w = trapezoid_weights(grid.nx, grid.dx)

    def coeff(fn, t, *args):
        return np.asarray(fn(t, x, *args), dtype=float)

    times = grid.times(spec.T)
    u = np.empty((nt + 1, grid.nx))
    u[nt] = np.asarray(terminal, dtype=float)
    coef = phi.T @ (w * u[nt])
    for k in range(nt - 1, -1, -1):
        t = times[k]
        nu = NuHandle(x, nu_traj.values[k])
        a = 0.5 * (coeff(spec.sigma, t) ** 2 + spec.sigma0(t) ** 2)
        b = coeff(spec.b0, t, nu) + coeff(spec.b1_factor, t) * g0
        f = coeff(spec.f0, t, nu) + coeff(spec.f1, t, g0)
        op = phi.T @ (w[:, None] * (a[:, None] * d2phi + b[:, None] * dphi
                                    - coeff(spec.lam, t)[:, None] * phi))
        rhs = coef + dt * (phi.T @ (w * f))
        coef = np.linalg.solve(np.eye(n_modes) - dt * op, rhs)
        u[k] = phi @ coef
    return u


def metric_d0(v1: SubProb1D, v2: SubProb1D) -> float:
    """Bounded-Lipschitz distance via linear programming on the grid.

    Maximises <v1 - v2, phi> over grid functions with |phi| <= 1 and
    |phi_{i+1} - phi_i| <= dx.
    """
    assert v1.x.shape == v2.x.shape and np.allclose(v1.x, v2.x), "one grid"
    c = (v1.values - v2.values) * v1.weights
    n = c.size
    # maximize c.phi  ->  minimize (-c).phi
    rows = np.arange(n - 1)
    d = sp.csr_matrix(
        (np.concatenate([np.ones(n - 1), -np.ones(n - 1)]),
         (np.concatenate([rows, rows]), np.concatenate([rows + 1, rows]))),
        shape=(n - 1, n),
    )
    a_ub = sp.vstack([d, -d])
    b_ub = np.full(2 * (n - 1), v1.dx)
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs")
    assert res.success, res.message
    return float(-res.fun)


def hat_basis(x: np.ndarray, n: int, k: int) -> np.ndarray:
    """Every hat function of spacing 2^{-k} centred on `hat_nodes(n, k)`,
    at the points x: shape (x.size, number of nodes)."""
    h = 2.0 ** (-k)
    return np.maximum(0.0, 1.0 - np.abs(x[:, None] - hat_nodes(n, k)[None, :]) / h)


def hat_reconstruction(v: SubProb1D, weights: np.ndarray, n: int, k: int) -> SubProb1D:
    """sum_i w_i psi_i / int(psi_i) on v's grid, from the hat weights w_i =
    int psi_i dv (meaningful when the hat spacing is no finer than the
    grid)."""
    h = 2.0 ** (-k)
    return SubProb1D(v.x, (hat_basis(v.x, n, k) / h) @ weights)
