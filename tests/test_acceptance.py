"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import mfckill as mk
from mfckill.backward import solve_backward_1d, solve_backward_2d
from mfckill.controls import FeedbackControl
from mfckill.forward import ForwardTrajectory2D
from mfckill.measures import metric_dp, trapezoid_weights
from mfckill.mfc import (
    evaluate_cost,
    gateaux_derivative,
    separability_gap,
    separable_lift,
    smp_residual,
    solve_mfc,
    solve_mfc_2d,
)
from mfckill.measures import NuHandle
from mfckill.particles import empirical_subprob, simulate_particles
from mfckill.regularize import build_approx_family, inf_convolution


def report(num, ok, text):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def solve_separability_gap(spec, grid):
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    nut = mu.marginal()
    term1 = np.asarray(spec.dpsi(NuHandle(grid.x, nut.values[-1]), grid.x))
    u1 = solve_backward_1d(spec, grid, nut, term1)
    term2 = np.exp(-grid.y)[None, :] * term1[:, None]
    u2 = solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2)
    return separability_gap(u2, u1)


def smooth_field(grid, seed, lo, hi):
    r = np.random.default_rng(seed)
    xs = grid.x
    f = np.zeros((grid.nt + 1, grid.nx))
    span = grid.x_max - grid.x_min
    for m in range(1, 4):
        f += r.normal() * np.sin(m * np.pi * (xs - grid.x_min) / span)[None, :]
        f += r.normal() * np.cos(0.5 * m * np.pi * xs)[None, :]
    f = (f - f.min()) / (f.max() - f.min())
    return lo + (hi - lo) * f


def test_criterion_1_separability():
    spec = mk.make_model("lq_killing")
    gaps = []
    for level, (nx, ny, nt) in enumerate([(200, 40, 200), (399, 79, 400),
                                          (797, 157, 800)]):
        t0 = time.time()
        grid = mk.build_grid(-4.0, 4.0, nx, 2.4, ny, nt)
        gaps.append(solve_separability_gap(spec, grid))
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"level {level} took {elapsed:.1f}s"
    ok = gaps[0] <= 0.05 and gaps[0] / gaps[1] >= 1.5 and gaps[1] / gaps[2] >= 1.5
    report(1, ok, f"separability gaps {['%.5f' % g for g in gaps]}, "
                  f"ratios {gaps[0]/gaps[1]:.2f}, {gaps[1]/gaps[2]:.2f}")


def test_criterion_2_no_boundary_condition():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 121, 2.4, 20, 120, extension_ell=-0.3)
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    term1 = np.asarray(spec.dpsi(None, grid.x))
    term2 = np.exp(-grid.y)[None, :] * term1[:, None]
    base = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)

    rng = np.random.default_rng(0)
    term_p = term2.copy()
    term_p[:, : grid.n_ext] = rng.normal(size=(grid.nx, grid.n_ext))
    vals = mu.values.copy()
    vals[:, :, : grid.n_ext] = np.abs(rng.normal(size=vals[:, :, : grid.n_ext].shape))
    mu_p = ForwardTrajectory2D(grid, mu.times, vals, g, None, mu.mass_series,
                               mu.energy, 0.0)
    pert = solve_backward_2d(spec, grid, mu_p, g=g, terminal=term_p)
    identical = np.array_equal(base.u[:, :, grid.n_ext:], pert.u[:, :, grid.n_ext:])
    elapsed = time.time() - t0
    report(2, identical and elapsed < 10.0,
           f"solution on y >= 0 bit-identical under sub-zero perturbations "
           f"({elapsed:.1f}s)")


def test_criterion_3_mass_decay():
    t0 = time.time()
    kappa = 0.8
    spec = mk.make_model("const_kill", kappa=kappa, zeta_scale=0.0)
    grid = mk.build_grid(-4.0, 4.0, 161, 2.0, 11, 160)
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = np.exp(-0.5 * (grid.x / 0.4) ** 2) / (0.4 * math.sqrt(2 * math.pi))
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0)
    pde_err = np.abs(tr.mass_series / tr.mass_series[0]
                     - np.exp(-kappa * tr.times)).max()

    n = 100_000
    ens = simulate_particles(spec, g, n, 7, grid)
    ok_mc = True
    for k in (grid.nt // 4, grid.nt // 2, grid.nt):
        p = math.exp(-kappa * ens.times[k])
        se = math.sqrt(p * (1 - p) / n)
        ok_mc &= abs(ens.alive_fraction[k] - p) <= 3.0 * se
    elapsed = time.time() - t0
    report(3, pde_err <= 1e-6 and ok_mc and elapsed < 30.0,
           f"PDE mass error {pde_err:.2e} <= 1e-6; hard-kill survival inside "
           f"3-sigma at N=1e5 ({elapsed:.1f}s)")


def lattice_dp(spec, nxl=50, ntl=50, nc=101, xlim=4.0):
    """Brute-force value iteration on a Markov-chain lattice."""
    x_lat = np.linspace(-xlim, xlim, nxl)
    dxl = x_lat[1] - x_lat[0]
    dtl = spec.T / ntl
    controls = np.linspace(*spec.control_box, nc)
    v = np.asarray(spec.dpsi(None, x_lat), dtype=float)
    feedback = np.zeros((ntl, nxl))
    for k in reversed(range(ntl)):
        t = k * dtl
        sig2 = np.asarray(spec.sigma(t, x_lat)) ** 2
        lam = np.asarray(spec.lam(t, x_lat))
        fac = np.asarray(spec.b1_factor(t, x_lat))
        vup = np.concatenate([v[1:], v[-1:]])
        vdn = np.concatenate([v[:1], v[:-1]])
        b = fac[None, :] * controls[:, None]
        pup = (sig2[None, :] / 2 + dxl * b / 2) * dtl / dxl**2
        pdn = (sig2[None, :] / 2 - dxl * b / 2) * dtl / dxl**2
        ps = 1.0 - pup - pdn
        assert min(pup.min(), pdn.min(), ps.min()) > -1e-12
        ev = pup * vup[None, :] + pdn * vdn[None, :] + ps * v[None, :]
        fr = np.asarray(spec.f0(t, x_lat, None))[None, :] \
            + np.asarray(spec.f1(t, x_lat[None, :], controls[:, None]))
        q = dtl * fr + np.exp(-lam * dtl)[None, :] * ev
        best = q.argmin(axis=0)
        feedback[k] = controls[best]
        v = q[best, np.arange(nxl)]
    return v, feedback, x_lat, dtl


def test_criterion_4_dp_oracle():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 321, 2.4, 24, 320)
    res = solve_mfc(spec, grid)
    v0, feedback, x_lat, dtl = lattice_dp(spec)
    dxl = x_lat[1] - x_lat[0]
    s = spec.params["zeta_scale"]
    w0 = (1 + s) ** -2  # survival weight of the Gamma(2, s) initial intensity
    nu0 = w0 * np.exp(-0.5 * ((x_lat - spec.params["x0"]) / spec.params["s0"]) ** 2) \
        / (spec.params["s0"] * math.sqrt(2 * math.pi))
    wl = trapezoid_weights(x_lat.size, dxl)
    j_dp = float((nu0 * v0) @ wl)
    cost_gap = abs(res.cost.total - j_dp) / abs(j_dp)

    interior = np.abs(x_lat) <= 3.0
    sup_gap = 0.0
    for k in range(feedback.shape[0]):
        kk = min(int(round(k * dtl / grid.dt(spec.T))), grid.nt)
        g_pde = np.interp(x_lat, grid.x, res.g_star.values[kk])
        sup_gap = max(sup_gap, np.abs(g_pde[interior] - feedback[k][interior]).max())
    elapsed = time.time() - t0
    ok = sup_gap <= 2.0 * dxl and cost_gap <= 0.02 and elapsed < 120.0
    report(4, ok, f"feedback sup gap {sup_gap:.4f} <= {2*dxl:.4f}; "
                  f"cost gap {100*cost_gap:.2f}% <= 2% ({elapsed:.1f}s)")


def test_criterion_5_smp_and_gateaux():
    t0 = time.time()
    spec = mk.make_model("lq_killing")

    # first-order conditions at convergence
    grid_c = mk.build_grid(-4.0, 4.0, 161, 2.4, 20, 160)
    res = solve_mfc(spec, grid_c, tol_pi=1e-8, with_2d=True)
    lift = separable_lift(res.u, grid_c)
    resid = smp_residual(spec, res.g_star, res.mu_traj, lift)

    # derivative versus central finite differences of the discrete cost
    grid = mk.build_grid(-6.0, 6.0, 180, 3.6, 36, 120)
    eps = 1e-3
    worst = 0.0
    for trial in range(5):
        lohi = (0.12, 0.88) if trial % 2 == 0 else (-0.88, -0.12)
        gv = smooth_field(grid, 10 + trial, *lohi)
        g = FeedbackControl.from_array(gv, spec)
        mu = mk.solve_forward_2d(spec, grid, g)
        nu_t = mk.s_map(mu.at(grid.nt))
        term1 = np.asarray(spec.dpsi(nu_t, grid.x))
        term2 = np.exp(-grid.y)[None, :] * term1[:, None]
        adj = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)

        def cost_of(gvals):
            gg = FeedbackControl.from_array(gvals, spec)
            m = mk.solve_forward_2d(spec, grid, gg)
            return evaluate_cost(spec, gg, mu_traj=m).total

        for d in range(4):
            hv = 0.1 * smooth_field(grid, 100 + 10 * trial + d, -1.0, 1.0)
            gd = gateaux_derivative(spec, g, hv, mu, adj)
            fd = (cost_of(gv + eps * hv) - cost_of(gv - eps * hv)) / (2 * eps)
            worst = max(worst, abs(gd - fd) / max(abs(fd), abs(gd)))
    elapsed = time.time() - t0
    ok = resid <= 1e-6 and worst <= 1e-3 and elapsed < 60.0
    report(5, ok, f"smp residual {resid:.2e} <= 1e-6; gateaux-vs-FD worst "
                  f"rel {worst:.2e} <= 1e-3 over 20 checks ({elapsed:.1f}s)")


def test_criterion_6_particle_pde_consistency():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 161, 2.4, 11, 160)
    gv = np.clip(-0.5 * np.tanh(grid.x), -1, 1)
    g = FeedbackControl.from_array(np.tile(gv, (grid.nt + 1, 1)), spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    n = 100_000
    c_cal = 0.25  # frozen from the refinement study (observed <= 0.13)
    ens = simulate_particles(spec, g, n, 42, grid)
    budget = 3.0 / math.sqrt(n) + c_cal * (grid.dx + grid.dt(spec.T))
    d_hard = metric_dp(empirical_subprob(ens, "hard"), tr.at(grid.nt), p=1)
    d_soft = metric_dp(empirical_subprob(ens, "soft"), tr.at(grid.nt), p=1)

    n_small = 4096
    gaps = []
    for seed in range(50):
        e = simulate_particles(spec, g, n_small, 1000 + seed, grid)
        gaps.append(metric_dp(empirical_subprob(e, "hard"),
                              empirical_subprob(e, "soft"), p=1))
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - t0
    ok = (d_hard <= budget and d_soft <= budget
          and mean_gap <= 1.0 / math.sqrt(n_small) and elapsed < 90.0)
    report(6, ok, f"d1 to PDE {d_hard:.5f}/{d_soft:.5f} <= {budget:.5f}; "
                  f"hard-soft mean gap {mean_gap:.5f} <= "
                  f"{1/math.sqrt(n_small):.5f} over 50 seeds ({elapsed:.1f}s)")


def test_criterion_7_cost_form_identity():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4.0, 4.0, 121, 2.4, 20, 120)
    gv = np.clip(0.4 * np.sin(grid.x), -1, 1)
    g = FeedbackControl.from_array(np.tile(gv, (grid.nt + 1, 1)), spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    nut = mu.marginal()
    rep = evaluate_cost(spec, g, nu_traj=nut, mu_traj=mu)
    elapsed = time.time() - t0
    ok = rep.form_gap <= 1e-8 and elapsed < 5.0
    report(7, ok, f"running+terminal cost forms differ by {rep.form_gap:.2e} "
                  f"<= 1e-8 ({elapsed:.1f}s)")


def test_criterion_8_energy_estimate():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    consts = []
    for (nx, ny, nt) in [(101, 16, 100), (201, 31, 200)]:
        grid = mk.build_grid(-4.0, 4.0, nx, 2.4, ny, nt)
        g = FeedbackControl.constant(0.1, grid, spec)
        tr = mk.solve_forward_1d(spec, grid, g)
        sol = solve_backward_1d(spec, grid, tr, np.asarray(spec.dpsi(None, grid.x)))
        consts.append(sol.energy["constant"])
    stable = abs(consts[1] - consts[0]) / consts[0] <= 0.2

    lin = mk.make_model("const_kill", kappa=0.5, f0_const=0.0)
    grid = mk.build_grid(-4.0, 4.0, 121, 2.0, 9, 100)
    g0 = FeedbackControl.constant(0.0, grid, lin)
    rho0 = np.exp(-0.5 * (grid.x / 0.4) ** 2)
    tr = mk.solve_forward_1d(lin, grid, g0, initial=rho0 / (rho0.sum() * grid.dx))
    term = np.exp(-0.5 * (grid.x / 0.3) ** 2)
    a = solve_backward_1d(lin, grid, tr, term)
    b = solve_backward_1d(lin, grid, tr, 2.0 * term)
    quadruple = b.energy["sup_u_sq"] <= 4.0 * a.energy["sup_u_sq"] * (1 + 1e-10)
    elapsed = time.time() - t0
    ok = all(np.isfinite(c) and c > 0 for c in consts) and stable and quadruple \
        and elapsed < 30.0
    report(8, ok, f"energy constants {consts[0]:.3f} -> {consts[1]:.3f} "
                  f"(drift {100*abs(consts[1]-consts[0])/consts[0]:.1f}% <= 20%); "
                  f"doubled terminal at most quadruples the sup norm ({elapsed:.1f}s)")


def test_criterion_9_regularization():
    t0 = time.time()
    gg = np.linspace(-2.0, 2.0, 1001)
    dg = gg[1] - gg[0]
    c = 1.0
    ok_env = True
    prev = None
    for n in (1, 2, 4, 8, 16):
        env_q = inf_convolution(0.5 * c * gg**2, gg, n)
        ok_env &= np.abs(env_q - c * n / (c + 2 * n) * gg**2).max() <= dg + 1e-8
        env_h = inf_convolution(np.abs(gg), gg, n)
        huber = np.where(np.abs(gg) <= 1 / (2 * n), n * gg**2,
                         np.abs(gg) - 1 / (4 * n))
        ok_env &= np.abs(env_h - huber).max() <= dg + 1e-8
        if prev is not None:
            ok_env &= bool(np.all(env_q >= prev - 1e-12))
        prev = env_q

    spec = mk.make_model("lq_killing")
    ok_valid = True
    for n in (1, 2, 4, 8, 16):
        fam = build_approx_family(spec, n)
        ok_valid &= fam.certified["assumptions"]

    grid = mk.build_grid(-4.0, 4.0, 120, 2.4, 24, 120)
    v_base = solve_mfc(spec, grid).cost.total
    gaps = {}
    for n in (4, 8, 16):
        fam = build_approx_family(spec, n)
        gaps[n] = abs(solve_mfc(fam.spec_n, grid).cost.total - v_base)
    monotone = gaps[4] > gaps[8] > gaps[16]
    tight = gaps[16] / abs(v_base) <= 0.01
    elapsed = time.time() - t0
    ok = ok_env and ok_valid and monotone and tight and elapsed < 120.0
    report(9, ok, f"envelopes at grid accuracy; families valid; |V^n - V| "
                  f"{gaps[4]:.4f} > {gaps[8]:.4f} > {gaps[16]:.4f}, final "
                  f"{100*gaps[16]/abs(v_base):.2f}% <= 1% ({elapsed:.1f}s)")


def test_criterion_10_intensity_independence():
    t0 = time.time()
    spec = mk.make_model("lq_killing")
    c_cal = 0.3  # frozen from the refinement study (observed <= 0.18)
    diags = []
    sums = []
    for (nx, ny, nt) in [(100, 20, 100), (159, 31, 160)]:
        grid = mk.build_grid(-4.0, 4.0, nx, 2.4, ny, nt)
        _, _, _, diag = solve_mfc_2d(spec, grid, tol_pi=1e-5, max_iter=60)
        diags.append(diag["intensity_independence"])
        sums.append(grid.dx + grid.dy + grid.dt(spec.T))
    elapsed = time.time() - t0
    ok = (diags[0] <= c_cal * sums[0] and diags[1] <= c_cal * sums[1]
          and diags[1] < diags[0] and elapsed < 120.0)
    report(10, ok, f"joint-feedback spread over intensity {diags[0]:.4f} -> "
                   f"{diags[1]:.4f}, bounded by {c_cal}*(dx+dy+dt) and "
                   f"decreasing ({elapsed:.1f}s)")
