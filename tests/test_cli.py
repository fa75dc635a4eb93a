import json
from pathlib import Path

import numpy as np
import pytest

from mfckill.cli import load_config, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "mfckill" / "configs"


def small_config(tmp_path, **overrides):
    cfg = {
        "model": {"name": "lq_killing", "params": {}},
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 61, "y_max": 2.4,
                 "ny": 10, "nt": 60},
        "experiment": "solve",
        "seed": 0,
        "control": 0.1,
        "particles": 5000,
        "refine_levels": 2,
        "approx_indices": [2, 4],
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_solve_smoke(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    for name in ("g_star.csv", "u.csv", "diagnostics.json", "manifest.json"):
        assert (out / name).exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["picard_iterations"] > 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["grid"]["nx"] == 61
    # the inner tolerance each value solve asked for, the first at tol_fp
    assert len(diag["inner_tolerances"]) == len(diag["inner_iterations"])
    assert diag["inner_tolerances"][0] == man["tolerances"]["tol_fp"]
    assert len(man["config_sha256"]) == 64
    assert "tol_pi" in man["tolerances"]
    assert man["version"]


def test_bundled_solve_config(tmp_path):
    out = tmp_path / "run"
    rc = main(["--config", str(CONFIG_DIR / "lq_killing.json"), "--out", str(out)])
    assert rc == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["picard_iterations"] > 0
    assert diag["separability_gap"] < 0.05


def test_separability_gaps_decrease(tmp_path):
    cfg = small_config(tmp_path, experiment="separability-check",
                       refine_levels=3,
                       grid={"x_min": -4.0, "x_max": 4.0, "nx": 50,
                             "y_max": 2.4, "ny": 10, "nt": 50})
    out = tmp_path / "sep"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    gaps = diag["separability_gap"]
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2]


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_key_exit_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": {"name": "lq_killing"}}))
    assert main(["--config", str(p)]) == 2


def test_unknown_experiment_exit_2(tmp_path):
    cfg = small_config(tmp_path, experiment="frobnicate")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_solver_key_exit_2(tmp_path, capsys):
    cfg = small_config(tmp_path, solver={"tol_pi": 1e-6, "eps_neg": -1e-12})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "eps_neg" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["damping", "mu_floor"])
def test_removed_solver_keys_exit_2(tmp_path, capsys, key):
    # the first Picard step and the residual's density floor are not settable
    cfg = small_config(tmp_path, solver={"tol_pi": 1e-6, key: 0.5})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"solver": {"tol_pi": "1e-6"}},
    {"grid": {"x_min": -4.0, "x_max": 4.0, "nx": "21", "y_max": 2.4, "ny": 10, "nt": 60}},
    {"model": {"name": "lq_killing", "params": {"kapa": 0.5}}},
    {"model": {"name": "lq_killing", "params": [0.5]}},
    {"grid": {"x_min": -4.0, "x_max": 4.0, "nx": 1, "y_max": 2.4, "ny": 10, "nt": 60}},
    {"sigma0": "0.4x"},
    {"model": {"name": "lq_killing", "params": {"kappa": "0.5"}}},
    {"model": {"name": "lq_killing", "params": {"x0": "0.3"}}},
    {"model": {"name": "lq_killing", "params": {"kappa": True}}},
    {"model": {"name": "lq_killing", "params": {"kappa": [0.5, 0.6]}}},
    {"model": {"name": "lq_killing", "params": {"control_box": [-1.0, "1"]}}},
    {"sigma0": float("nan")},
    {"model": {"name": "lq_killing", "params": {"kappa": float("nan")}}},
    {"approx_indices": "ab"},
    {"approx_indices": [2, 4.5]},
    {"particles": 10.9},
    {"solver": {"max_iter": 2.7}},
    {"solver": {"tol_pi": True}},
    {"grid": {"x_min": -4.0, "x_max": 4.0, "nx": 21.5, "y_max": 2.4, "ny": 10, "nt": 60}},
    {"control": True},
    {"seed": True},
    {"seed": -1},
], ids=["solver-string", "grid-string", "model-unknown-param", "model-params-list",
        "grid-too-coarse", "sigma0-string", "kappa-string", "x0-string", "kappa-bool",
        "kappa-pair", "box-string", "sigma0-nan",
        "kappa-nan", "indices-string", "indices-fraction", "particles-fraction",
        "max-iter-fraction", "tol-pi-bool", "grid-count-fraction", "control-bool",
        "seed-bool", "seed-negative"])
def test_bad_config_value_exit_2(tmp_path, capsys, overrides):
    # a configuration error exits 2 with one line, not 1 with a traceback,
    # before the experiment reads a coefficient
    cfg = small_config(tmp_path, experiment="forward", **overrides)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs_load(path):
    assert set(load_config(path).solver) == {"tol_pi", "tol_fp", "max_iter"}


def test_too_few_particles_exit_2(tmp_path, capsys):
    cfg = small_config(tmp_path, experiment="particles", particles=5)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "n = 5 particles" in capsys.readouterr().err
    # an experiment that runs no particles ignores the count
    cfg = small_config(tmp_path, experiment="forward", particles=5)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "f")]) == 0


def test_approx_index_below_one_exit_2(tmp_path, capsys):
    cfg = small_config(tmp_path, experiment="regularize-sweep", approx_indices=[2, 0])
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: approx_indices") and "n must be >= 1" in err


@pytest.mark.parametrize("levels", [0, 1])
def test_too_few_refine_levels_exit_2(tmp_path, capsys, levels):
    # the separability verdict compares successive gaps, so it needs two
    cfg = small_config(tmp_path, experiment="separability-check", refine_levels=levels)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: refine_levels must be >= 2")


def test_bad_model_name_exit_2(tmp_path):
    cfg = small_config(tmp_path, model={"name": "nope", "params": {}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_reruns_bit_identical(tmp_path):
    cfg = small_config(tmp_path, experiment="particles", particles=2000)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("ensemble_T.csv", "empirical_soft.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_forward_and_backward_experiments(tmp_path):
    out = tmp_path / "fwd"
    cfg = small_config(tmp_path, experiment="forward")
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert len(man["mass_series"]) == 61
    m2 = np.asarray(man["mass_series_2d"])
    assert np.abs(m2 - m2[0]).max() < 1e-8

    out2 = tmp_path / "bwd"
    cfg2 = small_config(tmp_path, experiment="backward")
    assert main(["--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out2 / "u.csv").exists()
    assert (out2 / "energy.json").exists()


def test_refine_flag(tmp_path):
    cfg = small_config(tmp_path, experiment="forward")
    out = tmp_path / "ref"
    assert main(["--config", str(cfg), "--out", str(out), "--refine", "1"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["grid"]["nx"] == 121
    assert man["grid"]["nt"] == 120


def test_negative_refine_exit_2(tmp_path, capsys):
    # a negative count used to be ignored, running on the unrefined grid
    cfg = small_config(tmp_path, experiment="forward")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--refine", "-1"]) == 2
    assert capsys.readouterr().err == "error: --refine must be >= 0, not -1\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["forward", "solve"])
@pytest.mark.parametrize("box", [[1.0, -1.0], [-float("inf"), float("inf")],
                                 [float("nan"), 1.0]], ids=["inverted", "infinite", "nan"])
def test_bad_control_box_exit_2(tmp_path, capsys, experiment, box):
    # a box the model validation refuses is a configuration error, not a
    # numpy traceback from inside it
    cfg = small_config(tmp_path, experiment=experiment,
                       model={"name": "lq_killing", "params": {"control_box": box}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "finite with lo <= hi" in err and err.count("\n") == 1


def test_smp_experiment(tmp_path):
    cfg = small_config(tmp_path, experiment="smp-check",
                       solver={"tol_pi": 1e-7})
    out = tmp_path / "smp"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["smp_residual"] <= 1e-6
    assert diag["min_inward_derivative"] >= -1e-4


def test_regularize_sweep(tmp_path):
    cfg = small_config(tmp_path, experiment="regularize-sweep",
                       approx_indices=[4, 8])
    out = tmp_path / "reg"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert [row["n"] for row in diag["sweep"]] == [4, 8]
    assert all(np.isfinite(row["value"]) for row in diag["sweep"])


@pytest.mark.parametrize("experiment", ["solve", "smp-check", "regularize-sweep"])
def test_runners_pass_every_solver_key(tmp_path, monkeypatch, experiment):
    import mfckill.cli as cli

    solver = {"tol_pi": 1e-5, "tol_fp": 1e-9, "max_iter": 150}
    calls = []
    solve_mfc = cli.solve_mfc

    def recording_solve_mfc(spec, grid, **kwargs):
        calls.append(kwargs)
        return solve_mfc(spec, grid, **kwargs)

    monkeypatch.setattr(cli, "solve_mfc", recording_solve_mfc)
    cfg = small_config(tmp_path, experiment=experiment, solver=solver, approx_indices=[4])
    main(["--config", str(cfg), "--out", str(tmp_path / "run")])
    assert calls
    for kwargs in calls:
        assert {k: kwargs.get(k) for k in solver} == solver


def test_solve_diagnostics_leave_out_intensity_independence(tmp_path):
    # the (t, x) feedback of solve_mfc does not vary with intensity by
    # construction; the spread of the joint feedback is solve_mfc_2d's
    out = tmp_path / "run"
    assert main(["--config", str(small_config(tmp_path)), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "separability_gap" in diag
    assert "intensity_independence" not in diag
