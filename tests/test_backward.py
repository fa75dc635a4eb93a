import math

import numpy as np
import pytest

import mfckill as mk
import mfckill.backward as backward_mod
from mfckill.backward import (
    energy_report,
    solve_backward_1d,
    solve_backward_1d_galerkin,
    solve_backward_2d,
)
from mfckill.controls import FeedbackControl
from mfckill.errors import ArgumentConflict, FixedPointDiverged, GridMismatch, NonfiniteInput
from mfckill.forward import CommonNoisePath, ForwardTrajectory2D
from mfckill.hamiltonians import f_nu, minimize_hamiltonian, minimize_k_tilde
from mfckill.mfc import separable_lift
from mfckill.steps import StepOperators


def gaussian(x, s):
    return np.exp(-0.5 * (x / s) ** 2)


def free_spec(kappa=0.0):
    return mk.make_model("const_kill", kappa=kappa, f0_const=0.0)


def run_1d(spec, grid, terminal):
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = gaussian(grid.x, 0.4) / (0.4 * math.sqrt(2 * math.pi))
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0)
    return solve_backward_1d(spec, grid, tr, terminal)


def test_backward_heat_flow_closed_form():
    spec = free_spec()
    grid = mk.build_grid(-5, 5, 201, 2.0, 11, 160)
    s = 0.3
    sol = run_1d(spec, grid, gaussian(grid.x, s))
    s2 = s * s + spec.T  # variance widened by a = 1/2 over the horizon
    exact = s / math.sqrt(s2) * np.exp(-0.5 * grid.x**2 / s2)
    rel = np.abs(sol.u[0] - exact).max() / exact.max()
    assert rel < 0.02


def test_backward_killing_exact_splitting():
    # operator-splitting oracle: constant-rate decay times the same
    # discrete heat flow, exact for the exponential-factor scheme
    grid = mk.build_grid(-5, 5, 201, 2.0, 11, 160)
    term = gaussian(grid.x, 0.3)
    base = run_1d(free_spec(0.0), grid, term)
    killed = run_1d(free_spec(0.7), grid, term)
    gap = np.abs(killed.u[0] - math.exp(-0.7 * killed.times[-1]) * base.u[0]).max()
    assert gap < 1e-3


def test_terminal_slice_exact():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x))
    sol = solve_backward_1d(spec, grid, tr, term)
    assert np.array_equal(sol.u[-1], term)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    sol2 = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    assert np.array_equal(sol2.u[-1], term2)


def test_nonlocal_term_absent_when_decoupled():
    # identical runs with and without declared functional derivatives match
    # when the derivatives are zero functions
    spec = mk.make_model("lq_killing")
    spec_zero = spec.with_params(
        db0=lambda t, x, nu, z: np.zeros(np.broadcast(np.asarray(x), np.asarray(z)).shape),
        df0=lambda t, x, nu, z: np.zeros(np.broadcast(np.asarray(x), np.asarray(z)).shape),
    )
    grid = mk.build_grid(-4, 4, 81, 2.4, 12, 60)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x))
    a = solve_backward_1d(spec, grid, tr, term)
    b = solve_backward_1d(spec_zero, grid, tr, term)
    assert np.allclose(a.u, b.u, atol=1e-12)


def model_and_noise(name, grid, noisy, **params):
    """The model, with sigma0 0.4 and a seed-5 noise path when `noisy`."""
    spec = mk.make_model(name, sigma0=0.4 if noisy else 0.0, **params)
    return spec, CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T)) if noisy else None


@pytest.mark.parametrize("noisy", [False, True])
def test_2d_slices_match_1d_bit_exact_without_intensity(noisy):
    # no killing, no costs: each intensity slice solves the marginal
    # equation; shared kernels make the runs bitwise identical
    grid = mk.build_grid(-4, 4, 101, 2.0, 9, 80)
    spec, noise = model_and_noise("const_kill", grid, noisy, kappa=0.0, f0_const=0.0)

    def b0(t, x, nu):
        return 0.3 * np.sin(np.asarray(x, dtype=float))

    spec.b0 = b0
    g2 = FeedbackControl.constant(0.0, grid, spec, two_d=True)
    mu = mk.solve_forward_2d(spec, grid, g2, noise)
    nu_traj = mu.marginal()
    term1 = gaussian(grid.x, 0.5)
    term2 = np.outer(term1, np.exp(-grid.y))
    # run the inner loops to the full iteration budget so the stopping
    # rule (a max over all columns in 2d) cannot desynchronize slices
    cols = [solve_backward_1d(spec, grid, nu_traj, term2[:, j], noise, tol_fp=0.0)
            for j in range(grid.ny_total)]
    u1d = solve_backward_1d(spec, grid, nu_traj, term1, noise, tol_fp=0.0)
    sol2 = solve_backward_2d(spec, grid, mu, u_1d=u1d, terminal=term2, noise=noise,
                             tol_fp=0.0)
    assert np.array_equal(sol2.u, np.stack([c.u for c in cols], axis=-1))
    assert np.array_equal(sol2.q, np.stack([c.q for c in cols], axis=-1))


def test_no_boundary_condition_below_zero():
    # data below y = 0 never influences the solution on y >= 0
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 81, 2.4, 16, 80, extension_ell=-0.3)
    assert grid.n_ext > 0
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    term1 = np.asarray(spec.dpsi(None, grid.x))
    term2 = np.exp(-grid.y)[None, :] * term1[:, None]
    base = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)

    rng = np.random.default_rng(0)
    term_perturbed = term2.copy()
    term_perturbed[:, : grid.iy0] += rng.normal(size=(grid.nx, grid.iy0))
    vals = mu.values.copy()
    vals[:, :, : grid.iy0] += np.abs(rng.normal(size=(grid.nt + 1, grid.nx, grid.iy0)))
    mu2 = ForwardTrajectory2D(grid, mu.times, vals, g, None, mu.mass_series,
                              mu.energy, 0.0)
    pert = solve_backward_2d(spec, grid, mu2, g=g, terminal=term_perturbed)
    assert np.array_equal(base.u[:, :, grid.iy0:], pert.u[:, :, grid.iy0:])


def test_monotonicity_nonnegative_data():
    spec = mk.make_model("lq_killing", f1_weight=1.0)
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x))
    sol = solve_backward_1d(spec, grid, tr, term)
    assert sol.u.min() >= -1e-8


def test_fixed_point_contracts():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    sol = solve_backward_1d(spec, grid, tr, np.asarray(spec.dpsi(None, grid.x)))
    assert 0.0 <= sol.fixed_point.contraction < 1.0
    assert max(sol.fixed_point.iterations) <= 50


def test_argument_conflict():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.zeros((grid.nx, grid.ny_total))
    with pytest.raises(ArgumentConflict):
        solve_backward_2d(spec, grid, mu, g=None, u_1d=None, terminal=term2)
    with pytest.raises(ArgumentConflict):
        solve_backward_2d(spec, grid, mu, g=g, u_1d=object(), terminal=term2)


def test_grid_mismatch():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    with pytest.raises(GridMismatch):
        solve_backward_1d(spec, grid, tr, np.zeros(17))


def test_energy_report_zero_data():
    spec = free_spec()
    grid = mk.build_grid(-4, 4, 81, 2.0, 9, 40)
    sol = run_1d(spec, grid, np.zeros(grid.nx))
    assert sol.energy["constant"] == 0.0
    assert sol.energy["sup_u_sq"] == 0.0


def test_energy_linearity_quadruples():
    # linear regime: value field scales with the terminal data
    spec = free_spec(kappa=0.5)
    grid = mk.build_grid(-4, 4, 101, 2.0, 9, 80)
    term = gaussian(grid.x, 0.4)
    a = run_1d(spec, grid, term)
    b = run_1d(spec, grid, 2.0 * term)
    ratio = b.energy["sup_u_sq"] / a.energy["sup_u_sq"]
    assert abs(ratio - 4.0) < 1e-6


def test_q_field_convention():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x))
    sol = solve_backward_1d(spec, grid, tr, term)
    assert np.array_equal(sol.q, np.zeros_like(sol.u))
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    for mode in ({"g": g}, {"u_1d": sol}):
        sol2 = solve_backward_2d(spec, grid, mu, terminal=term2, **mode)
        assert sol2.q.shape == sol2.u.shape and not sol2.q.any()

    spec_n = mk.make_model("lq_killing", sigma0=0.4)
    noise = CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec_n.T))
    tr_n = mk.solve_forward_1d(spec_n, grid, g, noise=noise)
    sol_n = solve_backward_1d(spec_n, grid, tr_n, term, noise=noise)
    assert np.abs(sol_n.q[:-1]).max() > 0.0


def test_galerkin_cross_check():
    spec = free_spec(kappa=0.6)
    grid = mk.build_grid(-6, 6, 241, 2.0, 9, 160)
    term = gaussian(grid.x, 0.5)
    fd = run_1d(spec, grid, term)
    g = FeedbackControl.constant(0.0, grid, spec)
    rho0 = gaussian(grid.x, 0.4)
    tr = mk.solve_forward_1d(spec, grid, g, initial=rho0 / (rho0.sum() * grid.dx))
    sp = solve_backward_1d_galerkin(spec, grid, tr, term, n_modes=64)
    inner = np.abs(grid.x) <= 3.0
    rel = np.abs(fd.u[0, inner] - sp.u[0, inner]).max() / np.abs(fd.u[0]).max()
    assert rel < 0.02


def test_galerkin_requires_singleton_box():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 81, 2.0, 9, 40)
    g = FeedbackControl.constant(0.0, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    with pytest.raises(ArgumentConflict):
        solve_backward_1d_galerkin(spec, grid, tr, np.zeros(grid.nx))


def test_energy_constant_stable_under_refinement():
    spec = mk.make_model("lq_killing")
    consts = []
    for (nx, ny, nt) in [(101, 16, 100), (201, 31, 200)]:
        grid = mk.build_grid(-4, 4, nx, 2.4, ny, nt)
        g = FeedbackControl.constant(0.1, grid, spec)
        tr = mk.solve_forward_1d(spec, grid, g)
        sol = solve_backward_1d(spec, grid, tr, np.asarray(spec.dpsi(None, grid.x)))
        consts.append(sol.energy["constant"])
    assert all(np.isfinite(c) and c > 0 for c in consts)
    assert abs(consts[1] - consts[0]) / consts[0] < 0.2


@pytest.mark.parametrize("noisy", [False, True])
def test_fixed_feedback_duality_with_measure_dependent_cost(noisy):
    # the fixed-g half-plane march is the transpose of the forward march
    # with the running cost injected at every step, so <mu_0, u_0> equals
    # the cell-sum cost; f0 depends on nu, so the end-point injection must
    # use nu at step N, as the cost sum does
    grid = mk.build_grid(-4.0, 4.0, 81, 4.0, 16, 80)
    spec, noise = model_and_noise("lq_killing", grid, noisy)
    spec.f0 = lambda t, x, nu: (0.5 * np.asarray(x, dtype=float) ** 2
                                + 3.0 * nu.mass * np.asarray(x, dtype=float))
    x, y = grid.x, grid.y
    g = FeedbackControl.from_array(np.tile(0.3 * np.tanh(x), (grid.nt + 1, 1)), spec)
    mu = mk.solve_forward_2d(spec, grid, g, noise)
    nu_T = mk.NuHandle(x, mk.s_map(mu.at(grid.nt)).values)
    term = np.exp(-y)[None, :] * np.asarray(spec.dpsi(nu_T, x))[:, None]
    adj = solve_backward_2d(spec, grid, mu, g=g, terminal=term, noise=noise)
    dt, cell = grid.dt(spec.T), grid.dx * grid.dy
    cost = float((mu.values[-1] * term).sum()) * cell
    for k in range(grid.nt + 1):
        t = mu.times[k]
        nu = mk.NuHandle(x, mk.s_map(mu.at(k)).values)
        f = np.asarray(spec.f0(t, x, nu))[:, None] + spec.f1(t, x[:, None], g.at_step(k)[:, None])
        weight = 0.5 if k in (0, grid.nt) else 1.0
        cost += weight * dt * float((mu.values[k] * np.exp(-y)[None, :] * f).sum()) * cell
    pairing = float((mu.values[0] * adj.u[0]).sum()) * cell
    assert abs(pairing - cost) < 1e-6


def test_model_derivatives_read_once_per_step():
    # b1_factor and the Db0/Df0 kernels are fixed within a time step, so
    # the inner fixed point must not re-evaluate them
    base = mk.make_model("lq_mean_field")
    calls = dict.fromkeys(("b1_factor", "db0", "df0"), 0)

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    spec = base.with_params(**{name: counted(name) for name in calls})
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 30)
    tr = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    terminal = np.asarray(spec.dpsi(mk.NuHandle(grid.x, tr.values[-1]), grid.x))
    calls.update(dict.fromkeys(calls, 0))
    sol = solve_backward_1d(spec, grid, tr, terminal)
    assert min(sol.fixed_point.iterations) > 1
    for name, n in calls.items():
        assert 1 <= n <= grid.nt, (name, n)


def test_step_operators_match_pointwise_functions():
    # the per-step minimizer and marginal nonlocal term are the pointwise
    # functions evaluated on the step's nodes, bit for bit
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 81, 2.4, 12, 40)
    x, y, t = grid.x, grid.y, 0.2
    nu = mk.SubProb1D(x, 0.9 * gaussian(x, 0.6) / (0.6 * math.sqrt(2 * math.pi)))
    p = np.sin(x)
    ops = StepOperators(spec, grid, t, mk.NuHandle(x, nu.values))
    assert np.array_equal(ops.nonlocal_term(p), f_nu(t, x, nu, p, spec))
    assert np.array_equal(ops.control(p), minimize_hamiltonian(t, x, p, spec))
    mu = mk.solve_forward_2d(spec, grid, FeedbackControl.constant(0.1, grid, spec)).at(5)
    p2 = np.cos(x)[:, None] * (1.0 + y)[None, :]
    ops2 = StepOperators(spec, grid, t, mu=mu)
    assert np.array_equal(ops2.control(p2),
                          minimize_k_tilde(t, x[:, None], y[None, :], p2, ops2.nu, spec))


def test_nonfinite_terminal_raises():
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 30)
    terminal = gaussian(grid.x, 0.5)
    terminal[20] = np.nan
    with pytest.raises(NonfiniteInput):
        run_1d(spec, grid, terminal)


def test_energy_computed_on_first_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return energy_report(*args)
    monkeypatch.setattr(backward_mod, "energy_report", counted)
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 30)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x))
    sol = solve_backward_1d(spec, grid, tr, term)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    sol2 = solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    lift = separable_lift(sol, grid)
    assert calls == []
    assert sol.energy == energy_report(sol, sol.terminal)
    assert sol2.energy == energy_report(sol2, sol2.terminal)
    assert lift.energy == energy_report(lift, lift.terminal)
    assert len(calls) == 3


def capping_run(box, f1_weight, nt):
    spec = mk.make_model("lq_killing", control_box=box, f1_weight=f1_weight, psi_weight=5.0)
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, nt)
    tr = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.0, grid, spec))
    return solve_backward_1d(spec, grid, tr, np.asarray(spec.dpsi(None, grid.x)))


def test_inner_divergence_guard_raises():
    # a wide box and a cheap control make the inner map expand
    with pytest.raises(FixedPointDiverged):
        capping_run((-30.0, 30.0), 0.02, 4)


def test_inner_cap_counted():
    # slow contraction at a coarse dt: every step stops at MAX_FP above tol_fp
    sol = capping_run((-10.0, 10.0), 0.05, 8)
    assert sol.fixed_point.iterations == [backward_mod.MAX_FP] * 8
    assert sol.fixed_point.capped == 8
    # the run of test_fixed_point_contracts meets tol_fp on every step
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 101, 2.4, 16, 100)
    tr = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    sol = solve_backward_1d(spec, grid, tr, np.asarray(spec.dpsi(None, grid.x)))
    assert max(sol.fixed_point.iterations) < backward_mod.MAX_FP
    assert sol.fixed_point.capped == 0
