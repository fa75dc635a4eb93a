"""The benchmark workloads.

Each workload builds its inputs from a seed (`setup`), runs the timed
library calls (`solve`), and checks what they returned (`check`).  The
timed calls go through the `mfckill` package attributes, so the span
wrappers of a traced run see them.  `solve` returns a flat dict of the
outputs: floats, flags and arrays.  Why each workload is in the benchmark
is recorded in BENCHMARK.json.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 7          # the README quick-start's particle seed
TOL_PI = 1e-6             # solve_mfc's default Picard tolerance
COST_RTOL = 1e-8          # cost agreement demanded by the ROADMAP gates
SMP_MAX = 1e-6            # first-order residual bound (acceptance criterion 5)
FORM_GAP_MAX = 1e-8       # cost-form identity bound (acceptance criterion 7),
                          # for both forms taken from one 2d trajectory
GAP_ATOL = 1e-12          # separability-gap agreement with the reference
GATEAUX_RTOL = 1e-8
MC_RTOL = 1e-5            # particle cost when g_star moved within TOL_PI
# Level-1 (399x79x400) separability gap of acceptance criterion 1 (constant
# feedback 0.1), and the slack allowed above it for a seeded feedback field
# in [-0.5, 0.5]; seeds 0-3, 7 and 11 land within 3e-9 of it.
GAP_LEVEL1 = 0.004594998243982506
GAP_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    solve: Callable
    check: Callable          # (out, seed, ref, ref_arrays) -> list of failures
    reference: Callable      # out -> (scalars, arrays) stored for DEFAULT_SEED


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_picard(out, fails):
    if not out["converged"]:
        fails.append("Picard loop did not converge")
    if out["stalled"]:
        fails.append("Picard loop stalled")
    if not np.isfinite(out["cost"]):
        fails.append(f"cost not finite: {out['cost']}")


def _check_control(out, ref, ref_g, fails):
    if _rel(out["cost"], ref["cost"]) > COST_RTOL:
        fails.append(f"cost {out['cost']!r} differs from reference {ref['cost']!r}")
    dg = float(np.max(np.abs(out["g_star"] - ref_g)))
    if dg > TOL_PI:
        fails.append(f"g_star differs from reference by {dg:.3e} > {TOL_PI}")


# -- quickstart --------------------------------------------------------------


def quickstart_setup(mk, seed):
    spec = mk.validate_model(mk.make_model("lq_killing"))
    grid = mk.build_grid(-4, 4, 161, 2.4, 20, 160)
    return dict(spec=spec, grid=grid, seed=seed)


def quickstart_solve(mk, spec, grid, seed):
    res = mk.solve_mfc(spec, grid, with_2d=True)
    lift = mk.separable_lift(res.u, grid)
    smp = mk.smp_residual(spec, res.g_star, res.mu_traj, lift)
    ens = mk.simulate_particles(spec, res.g_star, 100_000, seed=seed, grid=grid)
    mc_j, mc_ci = mk.estimate_cost_mc(spec, res.g_star, ens)
    d = res.diagnostics
    return dict(
        cost=float(res.cost.total), form_gap=float(res.cost.form_gap), smp=smp,
        converged=d["converged"], stalled=d["stalled"], picard=d["picard_iterations"],
        g_star=res.g_star.values, u=res.u.u, nu=res.nu_traj.values,
        mu=res.mu_traj.values, mc_j=mc_j, mc_ci=mc_ci,
        positions=ens.positions, intensities=ens.intensities,
    )


def quickstart_check(out, seed, ref, ref_arrays):
    fails = []
    _check_picard(out, fails)
    if not out["smp"] <= SMP_MAX:
        fails.append(f"smp_residual {out['smp']:.3e} > {SMP_MAX}")
    # no form_gap bound here: the nu form comes from the 1d marcher and the
    # mu form from the 2d one, which differ by discretization error (~6e-3)
    if not (np.isfinite(out["mc_j"]) and np.isfinite(out["mc_ci"])):
        fails.append("particle cost estimate not finite")
    # the control solve does not depend on the seed: compare it on every seed
    _check_control(out, ref, ref_arrays["g_star"], fails)
    if seed == DEFAULT_SEED:
        pair = (out["mc_j"], out["mc_ci"])
        ref_pair = (ref["mc_j"], ref["mc_ci"])
        if np.array_equal(out["g_star"], ref_arrays["g_star"]):
            # same feedback, counter-based stream: the pair repeats exactly
            if pair != ref_pair:
                fails.append(f"estimate_cost_mc {pair!r} != reference {ref_pair!r}")
        elif max(_rel(a, b) for a, b in zip(pair, ref_pair)) > MC_RTOL:
            fails.append(f"estimate_cost_mc {pair!r} far from reference {ref_pair!r}")
    return fails


def quickstart_reference(out):
    keys = ("cost", "mc_j", "mc_ci")
    return {k: out[k] for k in keys}, {"g_star": out["g_star"]}


# -- mean_field_noise --------------------------------------------------------


def mean_field_noise_setup(mk, seed):
    spec = mk.make_model("lq_mean_field").with_params(sigma0=lambda t: 0.3)
    spec = mk.validate_model(spec)
    # nt = 20 keeps the sweeps (22) and inner iterations per step (~34) of
    # nt = 100, but a solve is short enough that a run holds about ten of them
    grid = mk.build_grid(-4, 4, 101, 2.4, 20, 20)
    noise = mk.CommonNoisePath.from_seed(seed, grid.nt, grid.dt(spec.T))
    return dict(spec=spec, grid=grid, noise=noise)


def mean_field_noise_solve(mk, spec, grid, noise):
    res = mk.solve_mfc(spec, grid, noise=noise)
    d = res.diagnostics
    return dict(
        cost=float(res.cost.total), converged=d["converged"], stalled=d["stalled"],
        picard=d["picard_iterations"], g_star=res.g_star.values, u=res.u.u,
        q=res.u.q, nu=res.nu_traj.values,
    )


def mean_field_noise_check(out, seed, ref, ref_arrays):
    fails = []
    _check_picard(out, fails)
    if seed == DEFAULT_SEED:
        _check_control(out, ref, ref_arrays["g_star"], fails)
    return fails


def mean_field_noise_reference(out):
    return {"cost": out["cost"]}, {"g_star": out["g_star"]}


# -- halfplane ---------------------------------------------------------------


HALFPLANE_GRID = (-4.0, 4.0, 399, 2.4, 79, 400)   # separability level 1


def smooth_field(grid, rng, lo, hi):
    """Smooth (nt+1, nx) field spanning [lo, hi], drawn from `rng`."""
    xs = grid.x
    f = np.zeros((grid.nt + 1, grid.nx))
    span = grid.x_max - grid.x_min
    for m in range(1, 4):
        f += rng.normal() * np.sin(m * np.pi * (xs - grid.x_min) / span)[None, :]
        f += rng.normal() * np.cos(0.5 * m * np.pi * xs)[None, :]
    f = (f - f.min()) / (f.max() - f.min())
    return lo + (hi - lo) * f


def halfplane_setup(mk, seed):
    spec = mk.validate_model(mk.make_model("lq_killing"))
    grid = mk.build_grid(*HALFPLANE_GRID)
    rng = np.random.default_rng(seed)
    g = mk.FeedbackControl.from_array(smooth_field(grid, rng, -0.5, 0.5), spec)
    h = 0.1 * smooth_field(grid, rng, -1.0, 1.0)
    return dict(spec=spec, grid=grid, g=g, h=h)


def halfplane_solve(mk, spec, grid, g, h):
    x, y = grid.x, grid.y
    mu = mk.solve_forward_2d(spec, grid, g)
    nu_vals = np.stack([mk.s_map(mu.at(k)).values for k in range(grid.nt + 1)])
    nu_traj = mk.ForwardTrajectory1D(grid, mu.times, nu_vals, g, None,
                                     nu_vals.sum(axis=1) * grid.dx, mu.energy, 0.0)
    term1 = np.asarray(spec.dpsi(mk.NuHandle(x, nu_vals[-1]), x), dtype=float)
    u1 = mk.solve_backward_1d(spec, grid, nu_traj, term1)
    term2 = np.exp(-y)[None, :] * term1[:, None]
    u2 = mk.solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2)
    # the separability gap of acceptance criterion 1, one slice at a time
    ey = np.exp(-y)[None, :]
    gap = max(float(np.abs(u2.u[k] - ey * u1.u[k][:, None]).max())
              for k in range(grid.nt + 1)) / float(np.abs(u1.u).max())
    adj = mk.solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    gateaux = mk.gateaux_derivative(spec, g, h, mu, adj)
    cost = mk.evaluate_cost(spec, g, nu_traj=nu_traj, mu_traj=mu)
    return dict(
        gap=gap, gateaux=float(gateaux), cost=float(cost.total),
        form_gap=float(cost.form_gap),
        mu=mu.values, u1=u1.u, u2=u2.u, adj=adj.u,
    )


def halfplane_check(out, seed, ref, ref_arrays):
    fails = []
    for key in ("gap", "gateaux", "cost"):
        if not np.isfinite(out[key]):
            fails.append(f"{key} not finite: {out[key]}")
    if not out["form_gap"] <= FORM_GAP_MAX:
        fails.append(f"form_gap {out['form_gap']:.3e} > {FORM_GAP_MAX}")
    if not out["gap"] <= GAP_LEVEL1 + GAP_SLACK:
        fails.append(f"separability gap {out['gap']:.5f} > {GAP_LEVEL1} + {GAP_SLACK}")
    if seed == DEFAULT_SEED:
        if abs(out["gap"] - ref["gap"]) > GAP_ATOL:
            fails.append(f"gap {out['gap']!r} differs from reference {ref['gap']!r}")
        if _rel(out["gateaux"], ref["gateaux"]) > GATEAUX_RTOL:
            fails.append(f"gateaux {out['gateaux']!r} differs from "
                         f"reference {ref['gateaux']!r}")
        if _rel(out["cost"], ref["cost"]) > COST_RTOL:
            fails.append(f"cost {out['cost']!r} differs from reference {ref['cost']!r}")
    return fails


def halfplane_reference(out):
    return {k: out[k] for k in ("gap", "gateaux", "cost")}, {}


def halfplane_field_bytes() -> int:
    """Size of one (nt+1, nx, ny) float64 field on the halfplane grid."""
    _, _, nx, _, ny, nt = HALFPLANE_GRID
    return (nt + 1) * nx * ny * 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart", quickstart_setup, quickstart_solve,
                 quickstart_check, quickstart_reference),
        Workload("mean_field_noise", mean_field_noise_setup, mean_field_noise_solve,
                 mean_field_noise_check, mean_field_noise_reference),
        Workload("halfplane", halfplane_setup, halfplane_solve,
                 halfplane_check, halfplane_reference),
    )
}
