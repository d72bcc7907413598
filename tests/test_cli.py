"""End-to-end CLI tests: run, sweep-mu, table, check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adafamily import checks
from adafamily.checks import CHECKS
from adafamily.cli import (
    OUT_DIR_ENV,
    load_run_config_file,
    main,
    save_run_config_file,
)
from adafamily.data import BatchPlan
from adafamily.harness import RunConfig, load_results
from adafamily.optim import Algorithm, OptimizerConfig

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _small_config(**overrides):
    base = dict(
        problem="quadratic",
        optimizer=OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.5),
        epochs=3,
        batch_plan=None,
        schedule=((1, 0.5),),
        seeds=(0, 1),
    )
    base.update(overrides)
    return RunConfig(**base)


def _strip_elapsed(path):
    payload = json.loads(Path(path).read_text())
    for result in payload["results"]:
        result["elapsed_seconds"] = 0.0
    return payload


# ---------------------------------------------------------------------------
# run


def test_run_missing_config_names_path(capsys):
    assert main(["run", "--config", "definitely-missing.json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "definitely-missing.json" in err


def test_run_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "bad.json" in capsys.readouterr().err


def test_run_rejects_wrong_config_version(tmp_path, capsys):
    bad = tmp_path / "v9.json"
    bad.write_text(json.dumps({"version": 9, "run": {}}))
    assert main(["run", "--config", str(bad)]) == 1
    assert "version" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [["0"], [0.5], [-1, 2**64 - 1], [2**64]])
def test_run_rejects_seeds_it_cannot_run(tmp_path, capsys, seeds):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    payload = json.loads(config_path.read_text())
    payload["run"]["seeds"] = seeds
    config_path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ") and "[0, 2**64)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("batch_plan", "batch_size", 2.5, "batch_size must be an integer >= 1, got 2.5"),
        (None, "epochs", True, "epochs must be an integer >= 1, got True"),
        ("optimizer", "mu", True, "mu must be a number, got True"),
    ],
    ids=["batch_size-2.5", "epochs-true", "mu-true"],
)
def test_run_refuses_config_numbers_of_the_wrong_type(
    tmp_path, capsys, section, key, value, message
):
    plan = BatchPlan(batch_size=32, shuffle_seed=12345)
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config(problem="blobs-logreg", batch_plan=plan))
    payload = json.loads(config_path.read_text())
    run = payload["run"]
    (run if section is None else run[section])[key] = value
    config_path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ") and message in err
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_schedule_it_would_coerce(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    payload = json.loads(config_path.read_text())
    payload["run"]["schedule"] = [[2.7, "0.5"]]
    config_path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ") and "integer milestone" in err
    assert not (tmp_path / "out").exists()


def _unreadable(tmp_path, kind):
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 1, "note": "\u00d5"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "command, kind",
    [("run", "directory"), ("run", "non-utf-8"), ("table", "directory"), ("table", "non-utf-8")],
)
def test_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, command, kind):
    path = _unreadable(tmp_path, kind)
    argv = ["run", "--config", str(path)] if command == "run" else ["table", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_run_writes_results_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "2 runs" in out
    results_path = out_dir / "quadratic--adafamily-0.5.json"
    assert results_path.exists()
    loaded_config, results = load_results(results_path)
    assert loaded_config == _small_config()
    assert [r.seed for r in results] == [0, 1]


def test_run_twice_is_deterministic_excluding_elapsed(tmp_path):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    for sub in ("a", "b"):
        assert (
            main(["run", "--config", str(config_path), "--out", str(tmp_path / sub)])
            == 0
        )
    name = "quadratic--adafamily-0.5.json"
    assert _strip_elapsed(tmp_path / "a" / name) == _strip_elapsed(
        tmp_path / "b" / name
    )


def test_run_fixture_config(tmp_path):
    assert (
        main(
            [
                "run",
                "--config",
                str(FIXTURES / "quadratic_run.json"),
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    _, results = load_results(written[0])
    assert len(results) == 3
    assert all(not r.diverged for r in results)


def test_out_dir_env_var_is_honored(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    env_dir = tmp_path / "env-results"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert env_dir.exists() and list(env_dir.glob("*.json"))


def test_config_file_roundtrip(tmp_path):
    config = _small_config(epochs=5, seeds=(3,))
    path = tmp_path / "c.json"
    save_run_config_file(path, config)
    assert load_run_config_file(path) == config


# ---------------------------------------------------------------------------
# table


def test_table_csv_reproduces_golden_file(capsys):
    smoke = sorted(str(p) for p in (FIXTURES / "smoke").glob("*.json"))
    assert len(smoke) == 18
    assert main(["table", "--format", "csv", *smoke]) == 0
    captured = capsys.readouterr().out
    assert captured == (FIXTURES / "golden_table.csv").read_text()


def test_table_file_order_does_not_matter(capsys):
    smoke = sorted(str(p) for p in (FIXTURES / "smoke").glob("*.json"))
    assert main(["table", "--format", "csv", *reversed(smoke)]) == 0
    captured = capsys.readouterr().out
    assert captured == (FIXTURES / "golden_table.csv").read_text()


def test_table_markdown_marks_best(capsys):
    smoke = sorted(str(p) for p in (FIXTURES / "smoke").glob("*.json"))
    assert main(["table", *smoke]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| algorithm | blobs-logreg |")
    assert "**" in out  # some row is marked best
    rows = [line for line in out.splitlines() if line.startswith("| Ada")]
    assert len(rows) == 9  # full lineup


def test_table_missing_file_names_path(capsys):
    assert main(["table", "nowhere/missing.json"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_table_rejects_same_file_twice(capsys):
    path = str(FIXTURES / "smoke" / "blobs-logreg--adabelief.json")
    assert main(["table", path, path]) == 1
    assert "adabelief.json" in capsys.readouterr().err


def test_table_malformed_file_names_path(tmp_path, capsys):
    bad = tmp_path / "mangled.json"
    bad.write_text('{"version": 1}')
    assert main(["table", str(bad)]) == 1
    assert "mangled.json" in capsys.readouterr().err


@pytest.mark.parametrize("final_metric", [None, 3.0])
def test_table_refuses_final_metric_other_than_last_eval(tmp_path, capsys, final_metric):
    payload = json.loads((FIXTURES / "smoke" / "blobs-mlp1--adam.json").read_text())
    run = payload["results"][1]
    assert not run["diverged"] and run["eval_metric"][-1] != final_metric
    run["final_metric"] = final_metric
    path = tmp_path / "blobs-mlp1--adam.json"
    path.write_text(json.dumps(payload))
    assert main(["table", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"seed {run['seed']}" in err


@pytest.mark.parametrize("seed", ["1", 1.0, True, -1])
def test_table_refuses_a_run_seed_that_is_no_seed(tmp_path, capsys, seed):
    payload = json.loads((FIXTURES / "smoke" / "blobs-mlp1--adam.json").read_text())
    assert payload["results"][1]["seed"] == 1
    payload["results"][1]["seed"] = seed
    path = tmp_path / "blobs-mlp1--adam.json"
    path.write_text(json.dumps(payload))
    assert main(["table", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: seed {seed!r}: ") and "[0, 2**64)" in err


def test_table_refuses_a_run_cut_short(tmp_path, capsys):
    payload = json.loads((FIXTURES / "smoke" / "blobs-mlp1--adam.json").read_text())
    run = payload["results"][0]
    del run["train_loss"][1:], run["eval_metric"][1:]
    run["final_metric"] = run["eval_metric"][0]
    path = tmp_path / "blobs-mlp1--adam.json"
    path.write_text(json.dumps(payload))
    assert main(["table", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "seed 0" in err and "not 5" in err


# ---------------------------------------------------------------------------
# sweep-mu


def test_sweep_mu_small_grid(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep-mu",
                "--mus",
                "0.5",
                "--problem",
                "quadratic",
                "--seeds",
                "2",
                "--epochs",
                "2",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    # 4 baselines + 1 mu results files plus the table file
    results = sorted(p.name for p in out_dir.glob("*.json"))
    assert results == [
        "quadratic--adabelief.json",
        "quadratic--adafamily-0.5.json",
        "quadratic--adam.json",
        "quadratic--adamomentum.json",
        "quadratic--adamw.json",
    ]
    table_path = out_dir / "sweep_quadratic.md"
    assert table_path.exists()
    assert captured.out == table_path.read_text()
    assert "wrote 5 results files" in captured.err
    for path in out_dir.glob("*.json"):
        config, loaded = load_results(path)
        assert config.epochs == 2
        assert [r.seed for r in loaded] == [0, 1]


def test_sweep_mu_csv_format(tmp_path, capsys):
    assert (
        main(
            [
                "sweep-mu",
                "--mus",
                "0.0,1.0",
                "--problem",
                "rosenbrock",
                "--seeds",
                "1",
                "--epochs",
                "2",
                "--format",
                "csv",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "algorithm,rosenbrock,rosenbrock_rank,rosenbrock_diverged"
    assert (tmp_path / "sweep_rosenbrock.csv").exists()


@pytest.mark.parametrize(
    "mus",
    ["", "abc", "0.5,,nope", "1.5", "0.5,-0.25"],
)
def test_sweep_mu_invalid_mus(tmp_path, capsys, mus):
    code = main(
        [
            "sweep-mu",
            "--mus",
            mus,
            "--problem",
            "quadratic",
            "--seeds",
            "1",
            "--epochs",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_mu_repeated_mu_fails_before_training(tmp_path, capsys):
    code = main(
        [
            "sweep-mu",
            "--mus",
            "0.5,0.5",
            "--problem",
            "quadratic",
            "--seeds",
            "2",
            "--epochs",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config 5: seed 0 of AdaFamily(0.5) on quadratic repeats one from config 4" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_mu_rejects_zero_seeds(tmp_path, capsys):
    code = main(
        [
            "sweep-mu",
            "--mus",
            "0.5",
            "--problem",
            "quadratic",
            "--seeds",
            "0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "--seeds" in capsys.readouterr().err


def test_sweep_mu_unknown_problem_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-mu", "--mus", "0.5", "--problem", "nope"])


# ---------------------------------------------------------------------------
# check


def test_check_filter_passes(capsys):
    assert main(["check", "--filter", "normalization"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_every_self_check_passes(name, check):
    passed, detail = check()
    assert passed, f"{name}: {detail}"


def _nan_trajectory(config, grads, theta0, lr_scales=None):
    return np.full((len(grads), theta0.shape[0]), np.nan).tolist()


_real_step = checks.step


def _step_leaving_v_nan(state, *args, **kwargs):
    params = _real_step(state, *args, **kwargs)
    state.v[:] = np.nan
    return params


_NAN_INJECTIONS = {
    "trajectory": (
        "trajectory",
        _nan_trajectory,
        ["endpoint-adamomentum", "endpoint-adam-eps-in-v", "endpoint-adabelief-eps-in-v"],
    ),
    "v": ("step", _step_leaving_v_nan, ["v-lower-bound"]),
    "finite-difference": (
        "finite_diff_grad",
        lambda problem, params, batch=None: np.full(problem.dim, np.nan),
        ["gradients"],
    ),
}


@pytest.mark.parametrize("injection", _NAN_INJECTIONS)
def test_a_nan_fails_the_checks_that_compare_it(monkeypatch, capsys, injection):
    attr, fake, failing = _NAN_INJECTIONS[injection]
    monkeypatch.setattr(checks, attr, fake)
    for name in failing:
        assert not dict(CHECKS)[name]()[0], name
    assert main(["check", "--filter", failing[0]]) == 1
    assert f"FAIL {failing[0]}" in capsys.readouterr().out


def test_check_unknown_filter_fails(capsys):
    assert main(["check", "--filter", "zzz-not-a-check"]) == 1
    assert "no check matches" in capsys.readouterr().out


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "adafamily", "check", "--filter", "state"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
