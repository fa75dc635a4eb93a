"""Interacting-particle Monte Carlo oracle for the killed dynamics.

Randomness comes from a counter-based generator: every variate is a pure
function of (seed, particle index, channel, step), so trajectories are
bit-reproducible, a particle's stream does not depend on the ensemble
size, and the common-noise increments are shared across particles.

Each run records both killing conventions on the same trajectory: hard
kills against a per-particle exponential clock drawn once at time zero,
and multiplicative survival weights e^{-Lambda}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import FeedbackControl
from .errors import SeedRequired
from .forward import CommonNoisePath, ForwardTrajectory1D
from .measures import SubProb1D, trapezoid_weights
from .model import Grid, ModelSpec, NuHandle

__all__ = [
    "ParticleEnsemble",
    "simulate_particles",
    "empirical_subprob",
    "estimate_cost_mc",
]

_N_BATCH = 10


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; uint64 array arithmetic wraps mod 2^64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _counter_uniform(seed: int, idx: np.ndarray, channel: int, step: int) -> np.ndarray:
    """Uniform(0, 1) stream value per particle for one (channel, step)."""
    mask = 0xFFFFFFFFFFFFFFFF
    base = (seed ^ 0xD1B54A32D192ED03) & mask
    ctr = ((step << 3) | channel) & mask
    mixed = (base ^ ((ctr * 0x9E3779B97F4A7C15) & mask)) & mask
    key = _splitmix64(np.array([mixed], dtype=np.uint64))[0]
    h = _splitmix64((idx * np.uint64(0xA24BAED4963EE407)) ^ key)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _interp_uniform(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp) on uniform nodes `xp`, bit for bit for finite fp.

    The interval comes from index arithmetic instead of a binary search,
    corrected by one against the stored nodes so that xp[j] <= x < xp[j+1]
    as numpy finds it; numpy's slopes and end/node cases are kept.
    """
    top = xp.size - 2
    s = x - xp[0]
    s /= xp[1] - xp[0]
    j = np.fmin(np.fmax(s, 0.0, out=s), top, out=s).astype(np.intp)  # NaN -> 0
    j -= xp[j] > x
    j += xp[j + 1] <= x  # may reach top + 1 for x >= xp[-1]: pad the slopes
    slope = np.zeros(xp.size)
    slope[:-1] = np.diff(fp) / np.diff(xp)
    xj, fj = xp[j], fp[j]
    out = x - xj
    with np.errstate(invalid="ignore"):  # inf x meets a zero pad; masked below
        out *= slope[j]
    out += fj
    np.copyto(out, fj, where=x == xj)
    np.copyto(out, fp[0], where=x < xp[0])
    np.copyto(out, fp[-1], where=x >= xp[-1])
    return out


def _counter_normal(seed: int, idx: np.ndarray, channel: int, step: int) -> np.ndarray:
    u1 = _counter_uniform(seed, idx, channel, step)
    u2 = _counter_uniform(seed, idx, channel + 1, step)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


@dataclass
class ParticleEnsemble:
    """Final-time ensemble state plus per-step summaries of the run."""

    n: int
    seed: int
    grid: Grid
    times: np.ndarray
    positions: np.ndarray        # X at the final time
    intensities: np.ndarray      # Lambda at the final time (nondecreasing)
    clocks: np.ndarray           # theta ~ Exp(1), drawn once at t = 0
    alive: np.ndarray            # hard-kill flags at the final time
    weights: np.ndarray          # e^{-Lambda} at the final time
    alive_fraction: np.ndarray   # per step
    mean_weight: np.ndarray      # per step
    running_cost_hard: np.ndarray  # per batch, trapezoid-in-time sums
    running_cost_soft: np.ndarray
    batch_index: np.ndarray
    noise: CommonNoisePath | None
    coupling: str


def _histogram(positions: np.ndarray, w: np.ndarray, n_total: int,
               grid: Grid) -> np.ndarray:
    """Cell-centered histogram density normalized by the full count."""
    dx = grid.dx
    idx = np.floor((positions - (grid.x_min - 0.5 * dx)) / dx).astype(int)
    ok = (idx >= 0) & (idx < grid.nx)
    dens = np.bincount(idx[ok], weights=w[ok], minlength=grid.nx)
    return dens / (n_total * dx)


def _smooth3(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    out[1:-1] = 0.25 * v[:-2] + 0.5 * v[1:-1] + 0.25 * v[2:]
    out[0] = 0.75 * v[0] + 0.25 * v[1]
    out[-1] = 0.75 * v[-1] + 0.25 * v[-2]
    return out


def simulate_particles(
    spec: ModelSpec,
    g: FeedbackControl,
    n: int,
    seed: int | None,
    grid: Grid,
    noise: CommonNoisePath | None = None,
    coupling: str = "none",
    nu_traj: ForwardTrajectory1D | None = None,
) -> ParticleEnsemble:
    """Euler-Maruyama ensemble with cumulative-intensity bookkeeping.

    coupling="none" reads the measure argument of the coefficients from
    `nu_traj` when given (otherwise from the ensemble itself, which is
    exact for measure-free coefficients); coupling="empirical" rebuilds
    the smoothed weighted histogram every step and feeds it back into the
    drift and running cost.
    """
    if seed is None:
        raise SeedRequired("particle simulations require an explicit seed")
    if spec.initial_sampler is None:
        raise SeedRequired("model provides no initial sampler")
    nt = grid.nt
    dt = grid.dt(spec.T)
    times = grid.times(spec.T)
    idx = np.arange(n, dtype=np.uint64)
    batch = (np.arange(n) % _N_BATCH).astype(int)

    z0 = _counter_normal(seed, idx, 0, 0)
    u1 = _counter_uniform(seed, idx, 2, 0)
    u2 = _counter_uniform(seed, idx, 3, 0)
    x_pos, lam_cum = spec.initial_sampler(z0, u1, u2)
    x_pos = np.asarray(x_pos, dtype=float)
    lam_cum = np.asarray(lam_cum, dtype=float)
    theta = -np.log(_counter_uniform(seed, idx, 4, 0))

    increments = noise.increments if noise is not None else None
    cw = trapezoid_weights(nt + 1, 1.0)

    alive_fraction = np.empty(nt + 1)
    mean_weight = np.empty(nt + 1)
    rc_hard = np.zeros(_N_BATCH)
    rc_soft = np.zeros(_N_BATCH)
    batch_counts = np.bincount(batch, minlength=_N_BATCH).astype(float)

    def nu_handle_at(k: int, weights: np.ndarray) -> NuHandle:
        if coupling == "none" and nu_traj is not None:
            return NuHandle(grid.x, nu_traj.values[k])
        dens = _smooth3(_histogram(x_pos, weights, n, grid))
        return NuHandle(grid.x, dens)

    for k in range(nt + 1):
        t = times[k]
        weights = np.exp(-lam_cum)
        alive = lam_cum < theta
        alive_fraction[k] = alive.mean()
        mean_weight[k] = weights.mean()
        nu = nu_handle_at(k, weights)
        gk = g.at_step(k)
        gp = _interp_uniform(x_pos, grid.x, gk)
        f_run = np.asarray(spec.f0(t, x_pos, nu), dtype=float) + np.asarray(
            spec.f1(t, x_pos, gp), dtype=float
        )
        rc_hard += cw[k] * dt * np.bincount(batch, weights=alive * f_run,
                                            minlength=_N_BATCH) / batch_counts
        rc_soft += cw[k] * dt * np.bincount(batch, weights=weights * f_run,
                                            minlength=_N_BATCH) / batch_counts
        if k == nt:
            break
        drift = np.asarray(spec.b0(t, x_pos, nu), dtype=float) + np.asarray(
            spec.b1_factor(t, x_pos), dtype=float
        ) * gp
        lam_rate = np.asarray(spec.lam(t, x_pos), dtype=float)  # left endpoint
        z = _counter_normal(seed, idx, 6, k + 1)
        dx_common = spec.sigma0(t) * increments[k] if increments is not None else 0.0
        x_pos = x_pos + drift * dt + np.asarray(spec.sigma(t, x_pos), dtype=float) \
            * math.sqrt(dt) * z + dx_common
        lam_cum = lam_cum + lam_rate * dt

    return ParticleEnsemble(
        n=n, seed=seed, grid=grid, times=times, positions=x_pos,
        intensities=lam_cum, clocks=theta,
        alive=lam_cum < theta, weights=np.exp(-lam_cum),
        alive_fraction=alive_fraction, mean_weight=mean_weight,
        running_cost_hard=rc_hard, running_cost_soft=rc_soft,
        batch_index=batch, noise=noise, coupling=coupling,
    )


def empirical_subprob(ens: ParticleEnsemble, mode: str, grid: Grid) -> SubProb1D:
    """Histogram subprobability of the final ensemble state.

    Hard mode bins living particles with unit weight, soft mode bins all
    particles with weight e^{-Lambda}; both normalize by the full count.
    """
    if mode == "hard":
        w = ens.alive.astype(float)
    elif mode == "soft":
        w = ens.weights
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SubProb1D(grid.x, _histogram(ens.positions, w, ens.n, grid))


def estimate_cost_mc(
    spec: ModelSpec,
    g: FeedbackControl,
    ens: ParticleEnsemble,
    mode: str = "soft",
) -> tuple[float, float]:
    """Cost estimate and a 3-sigma half-width from 10 batch means."""
    running = ens.running_cost_hard if mode == "hard" else ens.running_cost_soft
    totals = np.empty(_N_BATCH)
    for b in range(_N_BATCH):
        sel = ens.batch_index == b
        nb = int(sel.sum())
        w = (ens.alive[sel].astype(float) if mode == "hard" else ens.weights[sel])
        dens = _histogram(ens.positions[sel], w, nb, ens.grid)
        totals[b] = running[b] + spec.psi(NuHandle(ens.grid.x, dens))
    j_hat = float(totals.mean())
    ci = 3.0 * float(totals.std(ddof=1)) / math.sqrt(_N_BATCH)
    return j_hat, ci
