"""The step layer: what one time step of every marcher reads and applies.

`StepOperators` evaluates the model at one time and measure.  The stencils
act on (nx,) fields on the line or (nx, m) fields on the half-plane along
axis 0, with face drifts of shape (nx-1,), (nx-1, 1) or (nx-1, m) that
broadcast along y.  Each transport stencil sits beside its transpose, so a
fixed-feedback backward step is the algebraic transpose of a forward step.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .errors import NonfiniteInput
from .hamiltonians import integrate_kernel, minimize_control, nonlocal_kernels
from .measures import Density2D, s_map, survival_pairing
from .model import Grid, ModelSpec, NuHandle

if TYPE_CHECKING:
    from .forward import CommonNoisePath

__all__ = [
    "StepOperators", "diffuse", "face_average", "y_column", "central_grad",
    "weighted_l2_sq", "shift_density", "face_flux_divergence",
    "upwind_flux_divergence", "upwind_transport_adjoint", "upwind_flux_derivative",
    "y_transport", "y_transport_adjoint_rate",
]


class StepOperators:
    """What one time step of a solver reads from the model.

    Coefficients, the control box, the nonlocal kernels and their Df0
    term are evaluated at time `t` and the step's measure (`nu`, or the
    survival marginal of a joint density `mu`) on first use, and reused
    by every inner iteration.  (nx,) fields live on the line, (nx, m)
    fields on the half-plane, where f carries the factor e^{-y}.  The
    diffusion coefficient is (sigma^2 + sigma0^2)/2, or sigma^2/2 when a
    common-noise path moves the density instead.  `matrix` holds the three
    diagonals of I - dt L, L the conservative centered (a rho)_xx under
    zero-flux closure, or of its transpose (the centered a u_xx) when
    `transpose` is set, from the same coefficients.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, t: float,
                 nu: NuHandle | None = None,
                 noise: CommonNoisePath | None = None, transpose: bool = False,
                 mu: Density2D | None = None):
        self.spec, self.grid, self.t, self.mu = spec, grid, t, mu
        self.x, self.dx, self.dt = grid.x, grid.dx, grid.dt(spec.T)
        self.nu = NuHandle(self.x, s_map(mu).values) if mu is not None else nu
        self.noisy = noise is not None
        self.transpose = transpose

    def _coeff(self, fn, *args) -> np.ndarray:
        return np.asarray(fn(self.t, self.x, *args), dtype=float)

    @cached_property
    def a(self) -> np.ndarray:
        sig = self._coeff(self.spec.sigma)
        if self.noisy:
            return 0.5 * sig**2
        return 0.5 * (sig**2 + self.spec.sigma0(self.t) ** 2)

    @cached_property
    def matrix(self) -> tuple:
        """(lower, main, upper) diagonals of the implicit diffusion matrix."""
        a = self.a
        if not np.all(np.isfinite(a)):
            raise NonfiniteInput("diffusion coefficient is not finite")
        r = self.dt / self.dx**2
        diag = 1.0 + 2.0 * r * a
        diag[0] = 1.0 + r * a[0]
        diag[-1] = 1.0 + r * a[-1]
        # row i couples rho_{i+1} through a_{i+1}; the transpose uses a_i
        upper, lower = (a[:-1], a[1:]) if self.transpose else (a[1:], a[:-1])
        return -r * lower, diag, -r * upper

    @cached_property
    def lam(self) -> np.ndarray:
        return self._coeff(self.spec.lam)

    @cached_property
    def kill(self) -> np.ndarray:
        """Exact killing factor e^{-lam dt} of the step."""
        return np.exp(-self.lam * self.dt)

    @cached_property
    def fac(self) -> np.ndarray:
        return self._coeff(self.spec.b1_factor)

    @cached_property
    def b0(self) -> np.ndarray:
        return self._coeff(self.spec.b0, self.nu)

    @cached_property
    def f0(self) -> np.ndarray:
        return self._coeff(self.spec.f0, self.nu)

    @cached_property
    def box(self) -> np.ndarray:
        return self.spec.box_array[0]

    @cached_property
    def ey(self) -> np.ndarray:
        """The survival factor e^{-y} as a (1, ny) row."""
        return np.exp(-self.grid.y)[None, :]

    def _rows(self, values: np.ndarray, field: np.ndarray) -> np.ndarray:
        """Node values as a column when `field` lives on the half-plane."""
        return values[:, None] if field.ndim == 2 else values

    def drift(self, g: np.ndarray) -> np.ndarray:
        """Node drift b0 + b1_factor g for a (nx,) or (nx, m) feedback."""
        return self._rows(self.b0, g) + self._rows(self.fac, g) * g

    def face_drift(self, g: np.ndarray) -> np.ndarray:
        return face_average(self.drift(g))

    def cost(self, g: np.ndarray) -> np.ndarray:
        """Node running cost f0 + f1(g) for a (nx,) or (nx, m) feedback."""
        return self._rows(self.f0, g) + np.asarray(
            self.spec.f1(self.t, self._rows(self.x, g), g), dtype=float)

    def control(self, p: np.ndarray) -> np.ndarray:
        """Pointwise minimizer over the box of b1_factor h p + f1(h), with
        f1 scaled by e^{-y} for an (nx, ny) gradient."""
        return minimize_control(self.t, self._rows(self.x, p), p, self._rows(self.fac, p),
                                self.box, self.spec, self.ey if p.ndim == 2 else 1.0)

    def k_tilde(self, p: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Running Hamiltonian b(h) p + e^{-y} (f0 + f1(h)) on the half-plane."""
        return self.drift(h) * p + self.ey * self.cost(h)

    @cached_property
    def kernels(self) -> tuple:
        """(Db0, Df0) at the step's measure on nodes x nodes."""
        return nonlocal_kernels(self.t, self.x, self.nu, self.x, self.spec)

    @cached_property
    def _pairing(self) -> tuple:
        """The columns a field is integrated over, and field -> its x
        weights against the step's measure."""
        if self.mu is not None:
            return survival_pairing(self.mu)
        nu = self.nu
        return slice(None), lambda field: nu.values * field * nu.weights

    @cached_property
    def _df0_term(self):
        cols, weigh = self._pairing
        unit = 1.0 if self.mu is None else np.exp(-self.mu.y[cols])
        return integrate_kernel(self.kernels[1], weigh(unit))

    def nonlocal_term(self, p: np.ndarray):
        """<nu, Db0 p> + <nu, Df0> at the step's nu for a (nx,) gradient;
        with a joint `mu`, e^{-y} (<mu, Db0 p> + <mu, e^{-y'} Df0>) over
        y' >= 0 on the half-plane for an (nx, ny) gradient."""
        cols, weigh = self._pairing
        vals = integrate_kernel(self.kernels[0], weigh(p[..., cols])) + self._df0_term
        return vals if self.mu is None else self.ey * vals[:, None]


def diffuse(values: np.ndarray, matrix: tuple) -> np.ndarray:
    """Solve one implicit diffusion step with a `StepOperators.matrix`."""
    if not np.isfinite(values).all():
        raise NonfiniteInput("diffusion step received non-finite values")
    *_, out, info = dgtsv(*matrix, values)
    if info != 0:
        raise LinAlgError(f"singular diffusion matrix (gtsv info {info})")
    return out


def face_average(b_nodes: np.ndarray) -> np.ndarray:
    """Node values averaged onto the nx - 1 cell faces (axis 0)."""
    return 0.5 * (b_nodes[1:] + b_nodes[:-1])


def y_column(values: np.ndarray) -> np.ndarray:
    """View a (nx,) feedback as (nx, 1) so it broadcasts along y."""
    return values[:, None] if values.ndim == 1 else values


def central_grad(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered interior differences, one-sided at the ends (axis 0)."""
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    out[0] = (u[1] - u[0]) / dx
    out[-1] = (u[-1] - u[-2]) / dx
    return out


def weighted_l2_sq(vals: np.ndarray, wx: np.ndarray, wy: np.ndarray | None) -> float:
    """Trapezoid L2 norm squared of a (nx,) profile, or (nx, ny) with `wy`."""
    if wy is None:
        return float((vals**2) @ wx)
    return float(wx @ (vals**2) @ wy)


def _shifted(values: np.ndarray, m: int) -> np.ndarray:
    """values[i - m] along axis 0, zero where i - m falls outside."""
    if m == 0:
        return values
    out = np.zeros_like(values)
    if m > 0:
        out[m:] = values[:-m]
    else:
        out[:m] = values[-m:]
    return out


def shift_density(values: np.ndarray, offset: float, dx: float) -> np.ndarray:
    """Shift a sampled profile by `offset` (new(x) = old(x - offset)).

    Linear interpolation between nodes; inflow cells are zero-filled, so
    mass can only leave through the outflow boundary.  Works on 1d arrays
    or on the x axis (axis 0) of 2d arrays.
    """
    s = offset / dx
    k = int(np.floor(s))
    frac = s - k
    return (1.0 - frac) * _shifted(values, k) + frac * _shifted(values, k + 1)


def face_flux_divergence(flux: np.ndarray, dx: float) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx with zero-flux outer faces."""
    div = np.zeros((flux.shape[0] + 1, *flux.shape[1:]))
    div[:-1] += flux
    div[1:] -= flux
    div /= -dx
    return div


def upwind_flux_divergence(values: np.ndarray, b_face: np.ndarray,
                           dx: float) -> np.ndarray:
    """Conservative upwind d/dx(b rho) with zero-flux outer faces: the
    interface flux is b^+ rho_left + b^- rho_right."""
    flux = np.maximum(b_face, 0.0) * values[:-1] + np.minimum(b_face, 0.0) * values[1:]
    return face_flux_divergence(flux, dx)


def upwind_transport_adjoint(u: np.ndarray, b_face: np.ndarray,
                             dx: float) -> np.ndarray:
    """Exact transpose of `upwind_flux_divergence`: an upwind b du/dx."""
    du = u[1:] - u[:-1]
    du /= dx
    out = np.empty_like(u)
    np.multiply(np.maximum(b_face, 0.0), du, out=out[:-1])
    out[-1] = 0.0
    out[1:] += np.minimum(b_face, 0.0) * du
    return out


def upwind_flux_derivative(values: np.ndarray, b_face: np.ndarray,
                           db_face: np.ndarray, dx: float) -> np.ndarray:
    """Derivative of `upwind_flux_divergence(values, b_face, dx)` along the
    face drift direction `db_face`: db_face times the upwind-side values."""
    return face_flux_divergence(
        db_face * np.where(b_face > 0.0, values[:-1], values[1:]), dx)


def y_transport(values: np.ndarray, lam_nodes: np.ndarray, dt: float,
                dy: float) -> np.ndarray:
    """Explicit upwind transport toward larger y at rate lam(x) >= 0.

    Zero inflow at the bottom; the top cell collects its incoming flux
    so total mass is conserved exactly.
    """
    c = (dt / dy) * lam_nodes[:, None]
    out = values * (1.0 - c)
    out[:, 1:] += c * values[:, :-1]
    out[:, -1] += c[:, 0] * values[:, -1]  # no outflow above the top cell
    return out


def y_transport_adjoint_rate(w: np.ndarray, lam_nodes: np.ndarray, dy: float,
                             ghost_decay: float) -> np.ndarray:
    """lam(x) * (w(y+dy) - w(y)) / dy with the ghost above the top row
    taken as ghost_decay * w(top).  dt times it, plus w, is the transpose
    of `y_transport` applied to w when ghost_decay is 1."""
    upper = np.empty_like(w)
    upper[:, :-1] = w[:, 1:]
    upper[:, -1] = ghost_decay * w[:, -1]
    return lam_nodes[:, None] * (upper - w) / dy
