"""Interacting-particle Monte Carlo oracle for the killed dynamics.

Randomness comes from a counter-based generator: every variate is a pure
function of (seed, particle index, channel, step), so trajectories are
bit-reproducible, a particle's stream does not depend on the ensemble
size, and the common-noise increments are shared across particles.

Each run records both killing conventions on the same trajectory: hard
kills against a per-particle exponential clock drawn once at time zero,
and multiplicative survival weights e^{-Lambda}.  The ensemble drives
itself: the coefficients read its own smoothed weighted histogram.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .controls import FeedbackControl
from .errors import ModelValidationError, SeedRequired
from .forward import CommonNoisePath
from .measures import NuHandle, SubProb1D
from .model import Grid, ModelSpec
from .steps import noise_offsets

__all__ = [
    "ParticleEnsemble",
    "simulate_particles",
    "empirical_subprob",
    "estimate_cost_mc",
]

_N_BATCH = 10
_MIX = np.uint64(0xA24BAED4963EE407)  # particle index multiplier of every stream
_BLOCK = 16384                         # variates per in-place block (128 KB arrays)
_NOISE = 6                             # channels 6 and 7: the Brownian normals


def _splitmix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer of z in place; uint64 arithmetic wraps mod 2^64.
    `tmp` is scratch of z's shape."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)


def _stream_key(seed: int, channel: int, step: int) -> np.uint64:
    """Key of one (channel, step) stream; a particle's value hashes its
    mixed index with it."""
    mask = 0xFFFFFFFFFFFFFFFF
    base = (seed ^ 0xD1B54A32D192ED03) & mask
    ctr = ((step << 3) | channel) & mask
    key = np.array([(base ^ ((ctr * 0x9E3779B97F4A7C15) & mask)) & mask], dtype=np.uint64)
    _splitmix64(key, np.empty_like(key))
    return key[0]


def _uniform_into(out, idx_m, key, h, tmp) -> None:
    np.bitwise_xor(idx_m, key, out=h)
    _splitmix64(h, tmp)
    h >>= np.uint64(11)
    np.copyto(out, h.view(np.int64))  # exact: h < 2^53 (the signed cast is faster)
    out += 0.5
    out *= 2.0 ** -53


def _draw(out: np.ndarray, idx_m: np.ndarray, seed: int, channel: int, steps,
          normal: bool) -> np.ndarray:
    """Fill `out` (one row per step, one column per particle) with stream values.

    `idx_m` holds the particle indices times `_MIX`.  A row holds the
    Uniform(0, 1) values of (channel, step), or with `normal` the Box-Muller
    normals sqrt(-2 log u1) cos(2 pi u2) of the uniforms of channels
    (channel, channel + 1).  The ufuncs run in place on blocks of at most
    `_BLOCK` values; each is elementwise, so the bits do not depend on the
    blocking or on how many steps one call draws.
    """
    rows, n = out.shape
    keys = np.array([[_stream_key(seed, c, s) for c in (channel, channel + 1)]
                     for s in steps], dtype=np.uint64)
    cols = min(n, _BLOCK)
    per = max(1, _BLOCK // n)  # rows per block
    h, tmp = np.empty(_BLOCK, np.uint64), np.empty(_BLOCK, np.uint64)
    c = np.empty(_BLOCK) if normal else None
    for r0 in range(0, rows, per):
        r = slice(r0, r0 + per)
        for c0 in range(0, n, cols):
            o = out[r, c0:c0 + cols]
            ib, m = idx_m[c0:c0 + cols], o.size
            hb, tb = h[:m].reshape(o.shape), tmp[:m].reshape(o.shape)
            _uniform_into(o, ib, keys[r, 0:1], hb, tb)
            if not normal:
                continue
            np.log(o, out=o)
            o *= -2.0
            np.sqrt(o, out=o)
            cb = c[:m].reshape(o.shape)
            _uniform_into(cb, ib, keys[r, 1:2], hb, tb)
            cb *= 2.0 * math.pi
            o *= np.cos(cb, out=cb)
    return out


def _counter_uniform(seed: int, idx_m: np.ndarray, channel: int, step: int) -> np.ndarray:
    """Uniform(0, 1) stream value per particle for one (channel, step);
    `idx_m` holds the particle indices times `_MIX`."""
    return _draw(np.empty((1, idx_m.size)), idx_m, seed, channel, [step], False)[0]


def _counter_normal(seed: int, idx_m: np.ndarray, channel: int, step: int) -> np.ndarray:
    """Standard normal per particle from channels (channel, channel + 1)."""
    return _draw(np.empty((1, idx_m.size)), idx_m, seed, channel, [step], True)[0]


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


class _EnsembleNu(NuHandle):
    """The ensemble's smoothed weighted histogram, built on first read of
    `values`, so that a step whose coefficients never read the measure
    builds none.  Read it within its step: the positions move after it."""

    __slots__ = ("_build", "_values")

    def __init__(self, x: np.ndarray, build):
        self._build = build
        super().__init__(x, None)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._build()
        return self._values

    @values.setter
    def values(self, values) -> None:
        """`NuHandle.__init__` sets None here: the histogram waits for a read."""
        self._values = values


def simulate_particles(
    spec: ModelSpec,
    g: FeedbackControl,
    n: int,
    seed: int | None,
    grid: Grid,
    noise: CommonNoisePath | None = None,
) -> ParticleEnsemble:
    """Euler-Maruyama ensemble with cumulative-intensity bookkeeping.

    The coefficients read their measure argument from the ensemble's own
    smoothed weighted histogram, built anew in each step whose
    coefficients read it.  Raises `SeedRequired` without a seed,
    `ModelValidationError` for a model without an `initial_sampler`,
    ValueError for fewer than 10 particles (one per batch of the cost
    estimate), and `GridMismatch` for a feedback or noise path off the
    grid.

    One helper thread draws the Brownian normals of the next steps while
    the current step runs (every variate depends only on seed, particle,
    channel and step), so the stream and every output are those of
    drawing them in the step.
    """
    if seed is None:
        raise SeedRequired("particle simulations require an explicit seed")
    if spec.initial_sampler is None:
        raise ModelValidationError("model provides no initial sampler")
    if n < _N_BATCH:
        raise ValueError(f"n = {n} particles cannot fill {_N_BATCH} batches")
    grid.check_field(g, "feedback", joint=False)
    offsets = noise_offsets(spec, grid, noise)
    nt = grid.nt
    dt = grid.dt(spec.T)
    times = grid.times(spec.T)
    idx_m = np.arange(n, dtype=np.uint64)
    idx_m *= _MIX
    # one draw task covers `rows` steps: at least _BLOCK normals unless the run is shorter
    rows = min(-(-_BLOCK // n), max(nt, 1))
    z_bufs = (np.empty((rows, n)), np.empty((rows, n)))

    # bins[:n] is the batch of each particle; one bincount over bins and
    # (alive * f, weight * f) gives the hard and the soft batch sums
    bins = np.empty(2 * n, dtype=int)
    np.remainder(np.arange(n), _N_BATCH, out=bins[:n])
    np.add(bins[:n], _N_BATCH, out=bins[n:])
    batch = bins[:n]
    batch_counts = np.tile(np.bincount(batch, minlength=_N_BATCH).astype(float), 2)
    weighted = np.empty(2 * n)
    weights = np.empty(n)
    alive = np.empty(n, dtype=bool)

    cw = grid.time_weights
    alive_fraction = np.empty(nt + 1)
    mean_weight = np.empty(nt + 1)
    rc = np.zeros(2 * _N_BATCH)

    with ThreadPoolExecutor(1) as pool:
        def draw_from(k: int):
            """Start drawing the normals of loop steps k, k + 1, ..."""
            buf = z_bufs[(k // rows) % 2][:min(rows, nt - k)]
            steps = range(k + 1, k + 1 + buf.shape[0])
            return pool.submit(_draw, buf, idx_m, seed, _NOISE, steps, True)

        pending = draw_from(0) if nt else None
        z0 = _counter_normal(seed, idx_m, 0, 0)
        u1 = _counter_uniform(seed, idx_m, 2, 0)
        u2 = _counter_uniform(seed, idx_m, 3, 0)
        # own copies: the loop updates them in place
        x_pos, lam_cum = (np.broadcast_to(v, (n,)).astype(float)
                          for v in spec.initial_sampler(z0, u1, u2))
        del z0, u1, u2
        theta = _counter_uniform(seed, idx_m, 4, 0)
        np.negative(np.log(theta, out=theta), out=theta)

        for k in range(nt + 1):
            t = times[k]
            np.exp(np.negative(lam_cum, out=weights), out=weights)
            np.less(lam_cum, theta, out=alive)
            alive_fraction[k] = alive.mean()
            mean_weight[k] = weights.mean()
            nu = _EnsembleNu(grid.x, lambda: _smooth3(_histogram(x_pos, weights, n, grid)))
            gk = g.at_step(k)
            gp = _interp_uniform(x_pos, grid.x, gk)
            f_run = np.asarray(spec.f0(t, x_pos, nu), dtype=float) + np.asarray(
                spec.f1(t, x_pos, gp), dtype=float
            )
            np.multiply(alive, f_run, out=weighted[:n])
            np.multiply(weights, f_run, out=weighted[n:])
            del f_run
            rc += cw[k] * dt * np.bincount(bins, weights=weighted,
                                           minlength=2 * _N_BATCH) / batch_counts
            if k == nt:
                break
            drift = np.multiply(np.asarray(spec.b1_factor(t, x_pos), dtype=float), gp, out=gp)
            drift += np.asarray(spec.b0(t, x_pos, nu), dtype=float)
            lam_rate = np.asarray(spec.lam(t, x_pos), dtype=float)  # left endpoint
            sigma = np.asarray(spec.sigma(t, x_pos), dtype=float)
            dx_common = offsets[k] if offsets is not None else 0.0
            if k % rows == 0:
                z_rows = pending.result()
                pending = draw_from(k + rows) if k + rows < nt else None
            z = z_rows[k % rows]
            # x + drift dt + (sigma sqrt(dt)) z + dx_common and lam + lam_rate dt
            # in place, in the order of those sums.  sigma and lam_rate are read
            # before x_pos moves, since a coefficient may return its input;
            # weighted is scratch until the next step's cost sums
            lam_cum += np.multiply(lam_rate, dt, out=weighted[:n])
            z *= np.multiply(sigma, math.sqrt(dt), out=weighted[:n])
            drift *= dt
            x_pos += drift
            x_pos += z
            x_pos += dx_common
            del gp, drift, lam_rate, sigma  # free before the next step allocates

    rc_hard, rc_soft = rc.reshape(2, _N_BATCH)
    return ParticleEnsemble(
        n=n, seed=seed, grid=grid, times=times, positions=x_pos,
        intensities=lam_cum, clocks=theta,
        alive=lam_cum < theta, weights=np.exp(-lam_cum),
        alive_fraction=alive_fraction, mean_weight=mean_weight,
        running_cost_hard=rc_hard, running_cost_soft=rc_soft,
        batch_index=batch.copy(), noise=noise,
    )


def empirical_subprob(ens: ParticleEnsemble, mode: str) -> SubProb1D:
    """Histogram subprobability of the final ensemble state on its grid.

    Hard mode bins living particles with unit weight, soft mode bins all
    particles with weight e^{-Lambda}; both normalize by the full count.
    """
    if mode == "hard":
        w = ens.alive.astype(float)
    elif mode == "soft":
        w = ens.weights
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SubProb1D(ens.grid.x, _histogram(ens.positions, w, ens.n, ens.grid))


def estimate_cost_mc(
    spec: ModelSpec,
    g: FeedbackControl,
    ens: ParticleEnsemble,
    mode: str = "soft",
) -> tuple[float, float]:
    """Cost estimate and a 3-sigma half-width from 10 batch means."""
    if mode not in ("hard", "soft"):
        raise ValueError(f"unknown mode {mode!r}")
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
