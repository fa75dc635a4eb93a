"""Command-line entry point: config ingestion, experiment dispatch, output.

Configuration is a UTF-8 JSON document::

    {
      "model":  {"name": "lq_killing" | "const_kill" | "lq_mean_field",
                  "params": { ... keyword overrides: real numbers,
                              a [lo, hi] pair for control_box ... }},
      "grid":   {"x_min": -4.0, "x_max": 4.0, "nx": 161,
                  "y_max": 2.4, "ny": 24, "nt": 160, "extension_ell": 0.0},
      "solver": {"tol_pi": 1e-6, "tol_fp": 1e-10,  # default backward.TOL_FP
                  "max_iter": 200},
      "experiment": "solve",
      "seed": 0,                 # >= 0
      "control": 0.0,            # constant feedback for forward/backward runs
      "particles": 100000,       # ensemble size for the particles experiment (>= 10)
      "refine_levels": 3,        # levels for separability-check (>= 2)
      "approx_indices": [1, 2, 4, 8, 16],  # each >= 1
      "sigma0": null             # override common-noise volatility
    }

Counts (grid node and step counts, max_iter, seed, particles, refine_levels,
approx indices) are whole numbers, other values real numbers, never bools.

Experiments: solve, forward, backward, particles, separability-check,
smp-check, regularize-sweep.  Exit codes: 0 success, 2 configuration or
validation error, 3 solver non-convergence.  CSV files carry a header row
and 17-significant-digit floats; every run writes a manifest.json with
the config hash, grid, tolerances, seed, version, and mass series.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backward import TOL_FP, solve_backward_1d, solve_backward_2d
from .controls import FeedbackControl
from .errors import (
    ConfigError,
    DegenerateRange,
    MFCKillError,
    ModelValidationError,
    UnknownExperiment,
)
from .forward import CommonNoisePath, solve_forward_1d, solve_forward_2d
from .measures import NuHandle, s_map
from .mfc import (
    gateaux_derivative,
    separability_gap,
    separable_lift,
    smp_residual,
    solve_mfc,
)
from .model import _BUILTINS, Grid, build_grid, make_model, validate_model
from .particles import empirical_subprob, estimate_cost_mc, simulate_particles
from .regularize import build_approx_family

_DEF_SOLVER = {
    "tol_pi": 1e-6,
    "tol_fp": TOL_FP,
    "max_iter": 200,
}


@dataclass
class RunConfig:
    model_name: str
    model_params: dict
    grid: Grid
    solver: dict
    experiment: str
    seed: int
    out_dir: Path
    control: float = 0.0
    particles: int = 100_000
    refine_levels: int = 3
    approx_indices: list = field(default_factory=lambda: [1, 2, 4, 8, 16])
    sigma0: float | None = None
    raw: dict = field(default_factory=dict)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    overrides = overrides or {}
    raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        mdl = raw["model"]
        gb = dict({"extension_ell": 0.0}, **raw["grid"])
        grid = build_grid(*(_number(f"grid {k}", gb[k], k in ("nx", "ny", "nt"))
                            for k in ("x_min", "x_max", "nx", "y_max", "ny", "nt",
                                      "extension_ell")))
        solver = dict(_DEF_SOLVER, **raw.get("solver", {}))
        for key, val in solver.items():
            if key not in _DEF_SOLVER:
                raise ConfigError(f"unknown solver key {key!r}; known: {sorted(_DEF_SOLVER)}")
            solver[key] = val = _number(f"solver {key}", val, key == "max_iter")
            if not val > 0:
                raise ConfigError(f"solver {key} must be positive")
        exp = raw.get("experiment", "solve")
        if exp not in EXPERIMENTS:
            raise UnknownExperiment(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
        seed = _number("seed", raw.get("seed", 0), True)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, not {seed}")
        # the keys left out of the config take RunConfig's defaults
        optional = {key: _number(key, raw[key], whole)
                    for key, whole in (("control", False), ("particles", True),
                                       ("refine_levels", True)) if key in raw}
        if "approx_indices" in raw:
            if not isinstance(raw["approx_indices"], list):
                raise ConfigError(f"approx_indices must be a list, not {raw['approx_indices']!r}")
            optional["approx_indices"] = [_number("approx index", n, True)
                                          for n in raw["approx_indices"]]
        return RunConfig(
            model_name=mdl["name"],
            model_params=dict(mdl.get("params", {})),
            grid=grid,
            solver=solver,
            experiment=exp,
            seed=seed,
            out_dir=Path(raw.get("out_dir", "out")),
            sigma0=None if raw.get("sigma0") is None else _number("sigma0", raw["sigma0"]),
            raw=raw,
            **optional,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    except (TypeError, ValueError, DegenerateRange) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _number(what: str, val, whole: bool = False) -> float | int:
    """`val` as an int if `whole`, else as a float; `ConfigError` naming
    `what` unless it is a real number, and whole if `whole`."""
    if not _is_real(val) or (whole and val % 1):
        raise ConfigError(f"{what} must be a {'whole' if whole else 'real'} number, not {val!r}")
    return int(val) if whole else float(val)


def _refined(grid: Grid, k: int) -> Grid:
    nx, ny, nt = grid.nx, grid.ny, grid.nt
    for _ in range(k):
        nx, ny, nt = 2 * nx - 1, 2 * ny - 1, 2 * nt
    return build_grid(grid.x_min, grid.x_max, nx, grid.y_max, ny, nt,
                      grid.extension_ell)


def _write_csv(path: Path, header: str, columns: list) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _field_csv(path: Path, times, x, field2) -> None:
    tt = np.repeat(times, x.size)
    xx = np.tile(x, times.size)
    _write_csv(path, "t,x,value", [tt, xx, field2.ravel()])


def _manifest(cfg: RunConfig, extra: dict) -> dict:
    canon = json.dumps(cfg.raw, sort_keys=True).encode()
    g = cfg.grid
    return {
        "version": __version__,
        "config_sha256": hashlib.sha256(canon).hexdigest(),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "grid": {
            "x_min": g.x_min, "x_max": g.x_max, "nx": g.nx,
            "y_max": g.y_max, "ny": g.ny, "nt": g.nt,
            "extension_ell": g.extension_ell,
            "dx": g.dx, "dy": g.dy,
        },
        "tolerances": cfg.solver,
        **extra,
    }


def _dump(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def _spec_for(cfg: RunConfig):
    params = dict(cfg.model_params)
    if cfg.sigma0 is not None:
        params["sigma0"] = cfg.sigma0
    try:
        spec = make_model(cfg.model_name, **params)
    except TypeError as exc:
        raise ConfigError(f"model {cfg.model_name!r}: {exc}") from exc
    defaults = inspect.signature(_BUILTINS[cfg.model_name]).parameters
    for key, val in params.items():
        if isinstance(defaults[key].default, tuple):
            kind = "a pair of real numbers"
            ok = isinstance(val, (list, tuple)) and len(val) == 2 and all(map(_is_real, val))
        else:
            kind, ok = "a real number", _is_real(val)
        if not ok:
            raise ConfigError(f"model parameter {key!r} must be {kind}, not {val!r}")
    return validate_model(spec)


def _is_real(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _noise_path(cfg: RunConfig, spec) -> CommonNoisePath | None:
    """The seeded common-noise path, or None for a model without common noise."""
    if spec.sigma0(0.0) == 0.0:
        return None
    return CommonNoisePath.from_seed(cfg.seed, cfg.grid.nt, cfg.grid.dt(spec.T))


def _terminal_1d(spec, grid, nu_vals):
    return np.asarray(spec.dpsi(NuHandle(grid.x, nu_vals), grid.x), dtype=float)


def _solve_mfc(cfg: RunConfig, spec, **kwargs):
    """`solve_mfc` on the configured grid with every configured solver key."""
    s = cfg.solver
    return solve_mfc(spec, cfg.grid, tol_pi=s["tol_pi"], tol_fp=s["tol_fp"],
                     max_iter=s["max_iter"], **kwargs)


def _run_solve(cfg: RunConfig, spec, out: Path) -> int:
    res = _solve_mfc(cfg, spec, with_2d=True)
    grid = cfg.grid
    _field_csv(out / "g_star.csv", res.nu_traj.times, grid.x, res.g_star.values)
    _field_csv(out / "u.csv", res.u.times, grid.x, res.u.u)
    _field_csv(out / "nu.csv", res.nu_traj.times, grid.x, res.nu_traj.values)
    lift = separable_lift(res.u, grid)
    adj2 = solve_backward_2d(spec, grid, res.mu_traj, u_1d=res.u,
                             terminal=lift.u[-1], tol_fp=cfg.solver["tol_fp"])
    diag = dict(res.diagnostics)
    diag.update({
        "cost_total": res.cost.total,
        "cost_running": res.cost.running,
        "cost_terminal": res.cost.terminal,
        "cost_form_gap": res.cost.form_gap,
        "separability_gap": separability_gap(adj2, res.u),
        "smp_residual": smp_residual(spec, res.g_star, res.mu_traj, lift),
        "energy": res.u.energy,
    })
    _dump(out / "diagnostics.json", diag)
    _dump(out / "manifest.json", _manifest(cfg, {
        "mass_series": res.nu_traj.mass_series.tolist(),
    }))
    return 0 if res.diagnostics["converged"] else 3


def _run_forward(cfg: RunConfig, spec, out: Path) -> int:
    grid = cfg.grid
    g = FeedbackControl.constant(cfg.control, grid, spec)
    noise = _noise_path(cfg, spec)
    tr1 = solve_forward_1d(spec, grid, g, noise)
    tr2 = solve_forward_2d(spec, grid, g, noise)
    _field_csv(out / "nu_series.csv", tr1.times, grid.x, tr1.values)
    tr1.at(grid.nt).to_csv(out / "nu_T.csv")
    tr2.at(grid.nt).to_csv(out / "mu_T.csv")
    s_map(tr2.at(grid.nt)).to_csv(out / "smap_mu_T.csv")
    _dump(out / "manifest.json", _manifest(cfg, {
        "mass_series": tr1.mass_series.tolist(),
        "mass_series_2d": tr2.mass_series.tolist(),
        "boundary_leakage": tr1.boundary_leakage,
        "energy_constant": tr2.energy.constant,
    }))
    return 0


def _run_backward(cfg: RunConfig, spec, out: Path) -> int:
    grid = cfg.grid
    g = FeedbackControl.constant(cfg.control, grid, spec)
    tr1 = solve_forward_1d(spec, grid, g)
    term = _terminal_1d(spec, grid, tr1.values[-1])
    sol = solve_backward_1d(spec, grid, tr1, term, tol_fp=cfg.solver["tol_fp"])
    _field_csv(out / "u.csv", sol.times, grid.x, sol.u)
    _dump(out / "energy.json", sol.energy)
    _dump(out / "manifest.json", _manifest(cfg, {
        "mass_series": tr1.mass_series.tolist(),
        "fixed_point_iterations": sol.fixed_point.iterations,
    }))
    return 0


def _run_particles(cfg: RunConfig, spec, out: Path) -> int:
    grid = cfg.grid
    g = FeedbackControl.constant(cfg.control, grid, spec)
    noise = _noise_path(cfg, spec)
    try:
        ens = simulate_particles(spec, g, cfg.particles, cfg.seed, grid, noise)
    except ValueError as exc:
        raise ConfigError(f"particles: {exc}") from exc
    j_soft, ci_soft = estimate_cost_mc(spec, g, ens, mode="soft")
    j_hard, ci_hard = estimate_cost_mc(spec, g, ens, mode="hard")
    nu_hard = empirical_subprob(ens, "hard")
    nu_soft = empirical_subprob(ens, "soft")
    nu_hard.to_csv(out / "empirical_hard.csv")
    nu_soft.to_csv(out / "empirical_soft.csv")
    _write_csv(out / "ensemble_T.csv", "x,intensity,weight,alive", [
        ens.positions, ens.intensities, ens.weights, ens.alive.astype(float),
    ])
    _dump(out / "summary.json", {
        "n": ens.n,
        "alive_fraction_T": float(ens.alive_fraction[-1]),
        "mean_weight_T": float(ens.mean_weight[-1]),
        "mass_hard": nu_hard.mass,
        "mass_soft": nu_soft.mass,
        "cost_soft": j_soft, "ci_soft": ci_soft,
        "cost_hard": j_hard, "ci_hard": ci_hard,
    })
    _dump(out / "manifest.json", _manifest(cfg, {
        "mass_series": ens.mean_weight.tolist(),
    }))
    return 0


def _run_separability(cfg: RunConfig, spec, out: Path) -> int:
    if cfg.refine_levels < 2:
        # the verdict compares successive gaps, so it needs two
        raise ConfigError(f"refine_levels must be >= 2, not {cfg.refine_levels}")
    gaps = []
    for level in range(cfg.refine_levels):
        grid = _refined(cfg.grid, level)
        g = FeedbackControl.constant(cfg.control, grid, spec)
        mu = solve_forward_2d(spec, grid, g)
        nu_traj = mu.marginal()
        term1 = _terminal_1d(spec, grid, nu_traj.values[-1])
        u1 = solve_backward_1d(spec, grid, nu_traj, term1,
                               tol_fp=cfg.solver["tol_fp"])
        term2 = grid.ey * term1[:, None]
        u2 = solve_backward_2d(spec, grid, mu, u_1d=u1, terminal=term2,
                               tol_fp=cfg.solver["tol_fp"])
        gaps.append(separability_gap(u2, u1))
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    _dump(out / "diagnostics.json", {
        "separability_gap": gaps,
        "decreasing": decreasing,
    })
    _dump(out / "manifest.json", _manifest(cfg, {"levels": cfg.refine_levels}))
    return 0 if decreasing else 3


def _run_smp(cfg: RunConfig, spec, out: Path) -> int:
    res = _solve_mfc(cfg, spec, with_2d=True)
    lift = separable_lift(res.u, cfg.grid)
    resid = smp_residual(spec, res.g_star, res.mu_traj, lift)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = spec.control_box
    derivs = []
    for _ in range(8):
        width = np.minimum(res.g_star.values - lo, hi - res.g_star.values)
        h = rng.uniform(0.0, 1.0, size=res.g_star.values.shape) * width \
            * np.where(res.g_star.values > 0.5 * (lo + hi), -1.0, 1.0)
        derivs.append(gateaux_derivative(spec, res.g_star, h, res.mu_traj, lift,
                                         quadrature="node"))
    _dump(out / "diagnostics.json", {
        "smp_residual": resid,
        "inward_gateaux_derivatives": derivs,
        "min_inward_derivative": min(derivs),
        "picard_iterations": res.diagnostics["picard_iterations"],
    })
    _dump(out / "manifest.json", _manifest(cfg, {}))
    ok = resid <= 1e-6 and min(derivs) >= -1e-4
    return 0 if (res.diagnostics["converged"] and ok) else 3


def _run_regularize(cfg: RunConfig, spec, out: Path) -> int:
    try:
        families = [build_approx_family(spec, n) for n in cfg.approx_indices]
    except ValueError as exc:
        raise ConfigError(f"approx_indices: {exc}") from exc
    base = _solve_mfc(cfg, spec)
    v = base.cost.total
    rows = []
    for n, fam in zip(cfg.approx_indices, families):
        rn = _solve_mfc(cfg, fam.spec_n)
        rows.append({
            "n": n,
            "value": rn.cost.total,
            "gap": abs(rn.cost.total - v),
            "k_n": fam.k_n,
            "certified": fam.certified,
        })
    _dump(out / "diagnostics.json", {"value": v, "sweep": rows})
    _dump(out / "manifest.json", _manifest(cfg, {}))
    return 0


_RUNNERS = {
    "solve": _run_solve,
    "forward": _run_forward,
    "backward": _run_backward,
    "particles": _run_particles,
    "separability-check": _run_separability,
    "smp-check": _run_smp,
    "regularize-sweep": _run_regularize,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config_path: str | Path, experiment: str | None = None,
        out_dir: str | None = None, seed: int | None = None,
        refine: int = 0) -> int:
    """Load the config, dispatch the experiment, write artifacts."""
    try:
        cfg = load_config(config_path, {
            "experiment": experiment, "out_dir": out_dir, "seed": seed,
        })
        if refine < 0:
            raise ConfigError(f"--refine must be >= 0, not {refine}")
        cfg.grid = _refined(cfg.grid, refine)
        spec = _spec_for(cfg)
    except (ConfigError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _RUNNERS[cfg.experiment](cfg, spec, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MFCKillError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfckill",
        description="Mean-field control with killing: solver experiments",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--experiment", choices=EXPERIMENTS, default=None,
                        help="override the experiment named in the config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--refine", type=int, default=0, metavar="K",
                        help="halve dx, dy, dt K times")
    args = parser.parse_args(argv)
    return run(args.config, args.experiment, args.out, args.seed, args.refine)


if __name__ == "__main__":
    sys.exit(main())
