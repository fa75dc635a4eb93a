import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import mfckill as mk
import mfckill.backward as backward_mod
from mfckill.backward import energy_report, solve_backward_1d, solve_backward_2d
from mfckill.controls import FeedbackControl
from mfckill.errors import ArgumentConflict, FixedPointDiverged, GridMismatch, NonfiniteInput
from mfckill.forward import CommonNoisePath, ForwardTrajectory2D
from mfckill.hamiltonians import MU_FLOOR, f_nu, minimize_hamiltonian, minimize_k_tilde
from mfckill.mfc import separable_lift
from mfckill.steps import (
    StepOperators,
    central_grad,
    diffuse,
    noise_offsets,
    shift_density,
    upwind_transport_adjoint,
    y_transport_adjoint_rate,
)
from oracles import solve_backward_1d_galerkin


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
    cols = [solve_backward_1d(spec, grid, nu_traj, term2[:, j], tol_fp=0.0)
            for j in range(grid.ny_total)]
    u1d = solve_backward_1d(spec, grid, nu_traj, term1, tol_fp=0.0)
    sol2 = solve_backward_2d(spec, grid, mu, u_1d=u1d, terminal=term2, tol_fp=0.0)
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
    term_perturbed[:, : grid.n_ext] += rng.normal(size=(grid.nx, grid.n_ext))
    vals = mu.values.copy()
    vals[:, :, : grid.n_ext] += np.abs(rng.normal(size=(grid.nt + 1, grid.nx, grid.n_ext)))
    mu2 = ForwardTrajectory2D(grid, mu.times, vals, g, None, mu.mass_series,
                              mu.energy, 0.0)
    pert = solve_backward_2d(spec, grid, mu2, g=g, terminal=term_perturbed)
    assert np.array_equal(base.u[:, :, grid.n_ext:], pert.u[:, :, grid.n_ext:])


def test_diagnostics_ignore_data_below_zero():
    # the diagnostics that integrate over the half-plane weigh y >= 0 only,
    # so finite data below y = 0 leave them bit-identical
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 81, 2.4, 16, 80, extension_ell=-0.3)
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    term2 = np.exp(-grid.y)[None, :] * np.asarray(spec.dpsi(None, grid.x))[:, None]
    rng = np.random.default_rng(0)
    term_perturbed = term2.copy()
    term_perturbed[:, : grid.n_ext] += rng.normal(size=(grid.nx, grid.n_ext))
    vals = mu.values.copy()
    vals[:, :, : grid.n_ext] += np.abs(rng.normal(size=(grid.nt + 1, grid.nx, grid.n_ext)))
    mu2 = ForwardTrajectory2D(grid, mu.times, vals, g, None, mu.mass_series,
                              mu.energy, 0.0)
    runs = [(m, solve_backward_2d(spec, grid, m, g=g, terminal=t))
            for m, t in ((mu, term2), (mu2, term_perturbed))]
    h = np.full(g.values.shape, 0.05)

    def diagnostics(m, adj):
        return (energy_report(adj),
                mk.gateaux_derivative(spec, g, h, m, adj, quadrature="dual"),
                mk.gateaux_derivative(spec, g, h, m, adj, quadrature="node"),
                mk.smp_residual(spec, g, m, adj),
                mk.evaluate_cost(spec, g, mu_traj=m).total)

    assert diagnostics(*runs[0]) == diagnostics(*runs[1])


def test_forward_and_transposed_steps_read_the_same_nu():
    # every half-plane step takes nu from s_map on the grid's survival row,
    # so the forward step and its transpose hand b0 the same measure, also
    # where y[1] - y[0] is not grid.dy
    spec = mk.make_model("lq_mean_field")
    grid = mk.build_grid(-4, 4, 81, 2.4, 16, 80, extension_ell=-0.5)
    seen = {}
    b0 = spec.b0

    def recording_b0(t, x, nu):
        seen.setdefault(t, []).append(nu.values.copy())
        return b0(t, x, nu)

    spec.b0 = recording_b0
    g = FeedbackControl.constant(0.1, grid, spec)
    mu = mk.solve_forward_2d(spec, grid, g)
    forward = {t: vals[0] for t, vals in seen.items()}
    seen.clear()
    solve_backward_2d(spec, grid, mu, g=g, terminal=np.zeros((grid.nx, grid.ny_total)))
    assert len(forward) == grid.nt
    for t, nu in forward.items():
        assert np.array_equal(seen[t][0], nu)


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
    with pytest.raises(GridMismatch):
        solve_backward_1d(spec, grid, tr, np.zeros(41), previous=np.zeros((20, 41)))


def test_noise_path_is_read_from_the_trajectory_only():
    # the backward solves take the path their trajectory moved under; an
    # old call that passes a path fifth raises instead of binding it to
    # tol_fp, and the half-plane solve has no noise keyword
    spec = mk.make_model("lq_killing", sigma0=0.4)
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    noise = CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T))
    tr = mk.solve_forward_1d(spec, grid, g, noise)
    mu = mk.solve_forward_2d(spec, grid, g, noise)
    term = np.asarray(spec.dpsi(None, grid.x), dtype=float)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    with pytest.raises(TypeError):
        solve_backward_1d(spec, grid, tr, term, noise)
    with pytest.raises(TypeError):
        solve_backward_2d(spec, grid, mu, g=g, terminal=term2, noise=noise)
    assert np.abs(solve_backward_1d(spec, grid, tr, term).q[:-1]).max() > 0.0


@pytest.mark.parametrize("plane", [False, True])
def test_terminal_is_the_solutions_own_slice(plane):
    # sol.terminal is u[nt], the solve's copy of the data: editing the
    # caller's array after the solve moves neither it nor the energy
    # computed on first read
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    term = np.asarray(spec.dpsi(None, grid.x), dtype=float)
    if plane:
        mu = mk.solve_forward_2d(spec, grid, g)
        term = np.exp(-grid.y)[None, :] * term[:, None]

        def solve(data):
            return solve_backward_2d(spec, grid, mu, g=g, terminal=data)
    else:
        tr = mk.solve_forward_1d(spec, grid, g)

        def solve(data):
            return solve_backward_1d(spec, grid, tr, data)
    kept = term.copy()
    sol = solve(term)
    term[...] = 7.0
    assert sol.terminal is not term and np.array_equal(sol.terminal, sol.u[-1])
    assert np.array_equal(sol.terminal, kept)
    assert sol.energy == energy_report(solve(kept))


@pytest.mark.parametrize("n_increments", [15, 25])
def test_noise_path_length_mismatch(n_increments):
    # a path longer than grid.nt is not cut, and a shorter one is not read
    # past its end: both backward marchers and the particle oracle refuse
    # it, as solve_forward_1d does
    spec = mk.make_model("lq_killing", sigma0=0.4)
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    tr = mk.solve_forward_1d(spec, grid, g)
    mu = mk.solve_forward_2d(spec, grid, g)
    term = np.asarray(spec.dpsi(None, grid.x), dtype=float)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    u1 = solve_backward_1d(spec, grid, tr, term)
    noise = CommonNoisePath.from_seed(5, n_increments, grid.dt(spec.T))
    # the backward solves read the path from their trajectory: hand-built
    # records carry the wrong-length one
    tr, mu = (dataclasses.replace(traj, noise=noise) for traj in (tr, mu))
    with pytest.raises(GridMismatch, match="noise path"):
        solve_backward_1d(spec, grid, tr, term)
    with pytest.raises(GridMismatch, match="noise path"):
        solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    with pytest.raises(GridMismatch, match="noise path"):
        solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2)
    with pytest.raises(GridMismatch, match="noise path"):
        mk.simulate_particles(spec, g, 100, 1, grid, noise)


def test_noise_offsets_built_once_per_solve(monkeypatch):
    # each backward solve builds its common-noise shift once, in _march,
    # and hands it to the step
    calls = []

    def counted(*args):
        calls.append(args)
        return noise_offsets(*args)
    monkeypatch.setattr(backward_mod, "noise_offsets", counted)
    spec = mk.make_model("lq_killing", sigma0=0.4)
    grid = mk.build_grid(-4, 4, 41, 2.4, 8, 20)
    g = FeedbackControl.constant(0.1, grid, spec)
    noise = CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T))
    tr = mk.solve_forward_1d(spec, grid, g, noise)
    mu = mk.solve_forward_2d(spec, grid, g, noise)
    term = np.asarray(spec.dpsi(None, grid.x), dtype=float)
    term2 = np.exp(-grid.y)[None, :] * term[:, None]
    u1 = solve_backward_1d(spec, grid, tr, term)
    assert len(calls) == 1
    solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2)
    assert len(calls) == 2
    solve_backward_2d(spec, grid, mu, g=g, terminal=term2)
    assert len(calls) == 3


@pytest.mark.parametrize("noisy", [False, True])
def test_solve_started_from_its_own_field(noisy):
    # started from the field of a cold solve of the same inputs, the start
    # correction cancels the extrapolation (under noise, of the shifted
    # slice) and each step stops within two inner iterations
    spec = mk.make_model("lq_mean_field").with_params(sigma0=lambda t: 0.4 if noisy else 0.0)
    grid = mk.build_grid(-4, 4, 61, 2.4, 8, 40)
    noise = CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T)) if noisy else None
    tr = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec), noise)
    term = np.asarray(spec.dpsi(mk.NuHandle(grid.x, tr.values[-1]), grid.x), dtype=float)
    cold = solve_backward_1d(spec, grid, tr, term)
    warm = solve_backward_1d(spec, grid, tr, term, previous=cold.u)
    assert min(cold.fixed_point.iterations) > 2
    assert max(warm.fixed_point.iterations) <= 2 and warm.fixed_point.capped == 0
    assert np.abs(warm.u - cold.u).max() <= 1e-9


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
    sol_n = solve_backward_1d(spec_n, grid, tr_n, term)
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
    rel = np.abs(fd.u[0, inner] - sp[0, inner]).max() / np.abs(fd.u[0]).max()
    assert rel < 0.02


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
    nu_T = mk.s_map(mu.at(grid.nt))
    term = np.exp(-y)[None, :] * np.asarray(spec.dpsi(nu_T, x))[:, None]
    adj = solve_backward_2d(spec, grid, mu, g=g, terminal=term)
    dt, cell = grid.dt(spec.T), grid.dx * grid.dy
    cost = float((mu.values[-1] * term).sum()) * cell
    for k in range(grid.nt + 1):
        t = mu.times[k]
        nu = mk.s_map(mu.at(k))
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
    ops = StepOperators(spec, grid, t, nu)
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
    assert sol.energy == energy_report(sol)
    assert sol2.energy == energy_report(sol2)
    assert lift.energy == energy_report(lift)
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


class _StepMap(Exception):
    """Carries one step's inner map out of a solve."""


def step_map_of(monkeypatch, steps_before, solver, *args, **kwargs):
    """(map, start, slice above) of the inner fixed point that
    `solver(*args, **kwargs)` runs after `steps_before` steps, where the
    solve stops.  The slice above is what the step before returned (None
    for the first step)."""
    run = backward_mod._run_fixed_point
    fields = [None]

    def capture(apply_map, u_init, t_k, tol_fp):
        if len(fields) > steps_before:
            raise _StepMap(apply_map, u_init, fields[-1])
        w, record = run(apply_map, u_init, t_k, tol_fp)
        fields.append(w.copy())
        return w, record

    with monkeypatch.context() as m:
        m.setattr(backward_mod, "_run_fixed_point", capture)
        with pytest.raises(_StepMap) as caught:
            solver(*args, **kwargs)
    return caught.value.args


def line_case(nx, nt):
    """lq_mean_field under common noise on the line: spec, grid, noise,
    nu trajectory and terminal data."""
    spec = mk.make_model("lq_mean_field").with_params(sigma0=lambda t: 0.3)
    grid = mk.build_grid(-4, 4, nx, 2.4, 8, nt)
    noise = CommonNoisePath.from_seed(5, grid.nt, grid.dt(spec.T))
    tr = mk.solve_forward_1d(spec, grid, FeedbackControl.constant(0.1, grid, spec), noise)
    term = np.asarray(spec.dpsi(mk.NuHandle(grid.x, tr.values[-1]), grid.x), dtype=float)
    return spec, grid, noise, tr, term


def halfplane_case(nx, ny, nt):
    """lq_killing on the half-plane: spec, grid, joint trajectory, 1d
    solve and terminal data."""
    spec = mk.make_model("lq_killing")
    grid = mk.build_grid(-4, 4, nx, 2.4, ny, nt)
    mu = mk.solve_forward_2d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    term = np.asarray(spec.dpsi(None, grid.x), dtype=float)
    u1 = solve_backward_1d(spec, grid, mu.marginal(), term)
    return spec, grid, mu, u1, np.exp(-grid.y)[None, :] * term[:, None]


def test_line_map_matches_pointwise_composition(monkeypatch):
    # one application of the line's inner map, with its step constants and
    # work arrays, is the composition of the pointwise stencils and
    # StepOperators members; a second application repeats it
    spec, grid, noise, tr, term = line_case(81, 40)
    apply_map, w, above = step_map_of(monkeypatch, 3, solve_backward_1d,
                                      spec, grid, tr, term)
    k = grid.nt - 4
    dx, dt = grid.dx, grid.dt(spec.T)
    v = shift_density(above, -noise_offsets(spec, grid, noise)[k], dx)
    ops = StepOperators(spec, grid, grid.times(spec.T)[k], tr.at(k), noise, transpose=True)
    p = central_grad(w, dx)
    g = ops.control(p)
    expl = upwind_transport_adjoint(w, ops.face_drift(g), dx) + ops.cost(g) + ops.nonlocal_term(p)
    expected = diffuse(ops.kill * (v + dt * expl), ops.matrix)
    for _ in range(2):
        assert np.abs(apply_map(w) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_golden_section_solve_matches_closed_form():
    # a model without a closed-form minimizer runs the golden-section
    # search in every inner iteration; its solve agrees with the
    # closed-form one (measured 3.2e-10 apart with max|u| = 8, in 696
    # against 694 inner iterations)
    spec, grid, noise, tr, term = line_case(101, 20)
    closed = solve_backward_1d(spec, grid, tr, term)
    golden = solve_backward_1d(spec.with_params(control_minimizer=None), grid, tr, term)
    assert np.abs(golden.u - closed.u).max() <= 4e-10 * np.abs(closed.u).max()
    assert sum(golden.fixed_point.iterations) <= 1.02 * sum(closed.fixed_point.iterations)


def test_halfplane_map_matches_pointwise_composition(monkeypatch):
    # as on the line, for the semilinear half-plane map: the minimizer where
    # mu > MU_FLOOR, the 1d solve's control elsewhere
    spec, grid, mu, u1, term = halfplane_case(81, 16, 40)
    apply_map, w, above = step_map_of(monkeypatch, 3, solve_backward_2d,
                                      spec, grid, mu, u_1d=u1, terminal=term)
    k = grid.nt - 4
    dx, dy, dt = grid.dx, grid.dy, grid.dt(spec.T)
    ops = StepOperators(spec, grid, grid.times(spec.T)[k], transpose=True, mu=mu.at(k))
    p = central_grad(w, dx)
    mu_pos = ops.mu.values > MU_FLOOR
    assert mu_pos.any() and not mu_pos.all()
    g = np.where(mu_pos, ops.control(p), ops.control(central_grad(u1.u[k], dx))[:, None])
    expl = (upwind_transport_adjoint(w, ops.face_drift(g), dx) + grid.ey * ops.cost(g)
            + y_transport_adjoint_rate(w, ops.lam[:, None] / dy, math.exp(-dy)))
    expected = diffuse(above + dt * expl, ops.matrix)
    for _ in range(2):
        assert np.abs(apply_map(w) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_row_windows_cover_the_field():
    # each block's window adds at most two halo rows on either side, and
    # the blocks tile the rows in order
    for nx, ny in ((81, 16), (797, 157), (399, 79), (10, 5000)):
        windows = backward_mod._row_windows(nx, ny)
        assert [w[2] for w in windows] == [0] + [w[3] for w in windows[:-1]]
        assert windows[-1][3] == nx
        for a, b, i0, i1 in windows:
            assert a == max(i0 - 2, 0) and b == min(i1 + 2, nx) and i0 < i1
            assert (i1 - i0) * ny <= max(backward_mod.WINDOW_CELLS, ny)


@pytest.mark.parametrize("model", ["lq_killing", "lq_mean_field"])
def test_halfplane_windows_change_no_bit(monkeypatch, model):
    # the semilinear half-plane march run window by window (and its fixed
    # point block by block) gives the one-window solve bit for bit, with
    # windows of 3 to 5 rows, blocks that do not divide nx, and the 1d
    # control below MU_FLOOR in some of them; a coupled model keeps one window
    spec = mk.make_model(model)
    grid = mk.build_grid(-4, 4, 81, 2.4, 16, 40)
    mu = mk.solve_forward_2d(spec, grid, FeedbackControl.constant(0.1, grid, spec))
    assert (mu.values <= MU_FLOOR).any()
    term1 = np.asarray(spec.dpsi(mk.NuHandle(grid.x, mu.marginal().values[-1]), grid.x))
    u1 = solve_backward_1d(spec, grid, mu.marginal(), term1)
    term2 = np.exp(-grid.y)[None, :] * term1[:, None]
    solves = []
    for cells in (10**6, 3 * grid.ny_total, 5 * grid.ny_total):
        monkeypatch.setattr(backward_mod, "WINDOW_CELLS", cells)
        solves.append(solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2))
    for sol in solves[1:]:
        assert np.array_equal(sol.u, solves[0].u)
        assert sol.fixed_point.iterations == solves[0].fixed_point.iterations


@pytest.mark.parametrize("plane", [False, True])
def test_inner_map_allocates_few_fields(monkeypatch, plane):
    # after warm-up, one application of a semilinear inner map holds at
    # most a few field-size arrays at once (the stencils write into the
    # solve's work arrays): measured 2.05 fields on the line (the model's
    # minimizer and f1 results and temporaries, and the diffusion solve's
    # copy) and 1.8 on the half-plane, against 8.1 and 7.0 when every
    # stencil allocated its result.  The half-plane is 399x79 because
    # numpy's ufunc buffers (up to 64 KiB per operand on a strided or
    # broadcast operand) are about a field each at 199x39 and a quarter of
    # one here
    if plane:
        spec, grid, mu, u1, term = halfplane_case(399, 79, 40)
        apply_map, w, _ = step_map_of(monkeypatch, 0, solve_backward_2d,
                                      spec, grid, mu, u_1d=u1, terminal=term)
        bound = 3.0
    else:
        spec, grid, noise, tr, term = line_case(801, 120)
        apply_map, w, _ = step_map_of(monkeypatch, 0, solve_backward_1d,
                                      spec, grid, tr, term)
        bound = 2.5
    for _ in range(2):
        apply_map(w)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        apply_map(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / w.nbytes <= bound
