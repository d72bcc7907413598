"""End-to-end CLI tests: run, sweep-mu, table, check."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import bitwise

from adafamily import checks, cli
from adafamily.checks import CHECKS
from adafamily.cli import main
from adafamily.data import BatchPlan
from adafamily.harness import (
    RunConfig,
    aggregate_result_files,
    build_problem,
    load_results,
    load_run_config_file,
    problem_names,
    run_grid,
    save_run_config_file,
    sweep_mu_configs,
)
from adafamily.optim import Algorithm, OptimizerConfig
from adafamily.tables import emit_table

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
        ("optimizer", "alpha", 10**400, "int too large to convert to float"),
        (None, "optimizer", [["algorithm", "adam"]], "optimizer must be a JSON object"),
        (None, "problem", "nope", "unknown problem 'nope'"),
        (None, "problem", "quadratic", "problem quadratic is analytic and takes no batch_plan"),
    ],
    ids=[
        "batch_size-2.5",
        "epochs-true",
        "mu-true",
        "alpha-huge-int",
        "optimizer-pairs",
        "problem-unknown",
        "problem-analytic",
    ],
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


_NOT_AN_OBJECT = {"section-list": [], "section-string": "x", "section-null": None}


def _unreadable(tmp_path, command, kind):
    if kind == "directory":
        return tmp_path
    path = tmp_path / "input.json"
    if kind == "non-utf-8":
        path.write_bytes('{"version": 1, "note": "\u00d5"}'.encode("latin-1"))
    else:
        # the config's section is "run" in a run-config file, "config" in a results file
        section = "run" if command == "run" else "config"
        path.write_text(json.dumps({"version": 1, section: _NOT_AN_OBJECT[kind]}))
    return path


@pytest.mark.parametrize(
    "command, kind",
    [
        (command, kind)
        for command in ("run", "table")
        for kind in ("directory", "non-utf-8", *_NOT_AN_OBJECT)
    ],
)
def test_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, command, kind):
    path = _unreadable(tmp_path, command, kind)
    argv = ["run", "--config", str(path)] if command == "run" else ["table", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if kind in _NOT_AN_OBJECT:
        assert "malformed" in err and "must be a JSON object" in err


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
    a, b = (load_results(tmp_path / sub / name) for sub in ("a", "b"))
    assert bitwise(a) == bitwise(b)


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


def test_run_without_out_writes_to_results_and_reads_no_environment(
    tmp_path, monkeypatch, capsys
):
    config_path = tmp_path / "config.json"
    save_run_config_file(config_path, _small_config())
    env_dir = tmp_path / "env-results"
    monkeypatch.setenv("ADAFAMILY_OUT_DIR", str(env_dir))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert list((tmp_path / "results").glob("*.json"))
    assert not env_dir.exists()


def test_config_file_roundtrip(tmp_path):
    config = _small_config(epochs=5, seeds=(3,))
    path = tmp_path / "c.json"
    save_run_config_file(path, config)
    assert load_run_config_file(path) == config


def _edited_input(tmp_path, command, keys, value):
    """``command``'s input file with the entry at the path ``keys`` set to
    ``value``, and the argv that reads it: a blobs-logreg run config for
    run, a smoke results file for table."""
    if command == "run":
        path = tmp_path / "config.json"
        plan = BatchPlan(batch_size=32, shuffle_seed=12345)
        save_run_config_file(path, _small_config(problem="blobs-logreg", batch_plan=plan))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        path = tmp_path / "blobs-mlp1--adam.json"
        path.write_text((FIXTURES / "smoke" / path.name).read_text())
        argv = ["table", str(path)]
    payload = json.loads(path.read_text())
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(payload))
    return path, argv


_SECTIONS = {
    "run": [(), ("run",), ("run", "optimizer"), ("run", "batch_plan")],
    "table": [(), ("config",), ("config", "optimizer"), ("config", "batch_plan"), ("results", 1)],
}


@pytest.mark.parametrize(
    "command, section",
    [(command, section) for command, sections in _SECTIONS.items() for section in sections],
    ids=lambda x: ("-".join(map(str, x)) or "top-level") if isinstance(x, tuple) else x,
)
def test_an_unknown_key_is_refused_in_every_section(tmp_path, capsys, command, section):
    # a misspelt key would leave its field at the default: a run section
    # with "seedz" would train seed 0 alone
    path, argv = _edited_input(tmp_path, command, (*section, "seedz"), [1, 2])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed") and "'seedz'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, source",
    [("run", "quadratic_run.json"), ("table", "smoke/blobs-mlp1--adam.json")],
    ids=["run", "table"],
)
def test_a_key_repeated_in_one_object_is_refused(tmp_path, capsys, command, source):
    # json keeps the last value: the run config would train 40 epochs, not 50
    path = tmp_path / Path(source).name
    text = (FIXTURES / source).read_text()
    path.write_text(re.sub(r'("epochs": \d+,)', r'\1 "epochs": 40,', text, count=1))
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        argv = ["table", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: cannot read JSON (key 'epochs' repeats)\n"
    assert not out.exists()


_PAIRS = [["batch_size", 32], ["shuffle_seed", 12345]]


@pytest.mark.parametrize(
    "command, keys, value",
    [
        ("table", ("results", 1), 1.5),
        ("table", ("results", 1), "seed 1"),
        ("table", ("results", 1), [["seed", 1]]),
        ("table", ("config", "batch_plan"), _PAIRS),
        ("run", ("run", "batch_plan"), _PAIRS),
        ("table", ("results", 1, "train_loss"), "0.125"),
    ],
    ids=[
        "entry-number",
        "entry-string",
        "entry-list",
        "table-batch_plan-list",
        "run-batch_plan-list",
        "train_loss-string",
    ],
)
def test_a_misshapen_section_is_refused_naming_the_file(tmp_path, capsys, command, keys, value):
    # "0.125" has as many characters as the smoke runs have epochs, so only
    # the list rule refuses it
    path, argv = _edited_input(tmp_path, command, keys, value)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem", [["blobs-mlp1"], 7, None])
def test_a_problem_that_is_no_string_is_refused(tmp_path, capsys, problem):
    path, argv = _edited_input(tmp_path, "table", ("config", "problem"), problem)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed results file")


def test_table_reads_a_problem_registered_only_in_another_process(tmp_path, capsys):
    path, _ = _edited_input(tmp_path, "table", ("config", "problem"), "elsewhere-mlp1")
    assert "elsewhere-mlp1" not in problem_names()
    assert main(["table", "--format", "csv", str(path)]) == 0
    assert capsys.readouterr().out.startswith("algorithm,elsewhere-mlp1,")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["run", "sweep-mu"])
def test_out_naming_a_file_is_refused_before_training(
    tmp_path, monkeypatch, capsys, command, below
):
    def train(*args):
        raise AssertionError("trained before refusing --out")

    monkeypatch.setattr(cli, "run_configs", train)
    monkeypatch.setattr(cli, "run_grid", train)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    if command == "run":
        config_path = tmp_path / "config.json"
        save_run_config_file(config_path, _small_config())
        argv = ["run", "--config", str(config_path)]
    else:
        argv = ["sweep-mu", "--mus", "0.5", "--problem", "quadratic", "--seeds", "1"]
    assert main(argv + ["--out", str(afile / below)]) == 1
    assert capsys.readouterr().err == f"error: {afile}: not a directory\n"
    assert afile.read_text() == "kept\n"


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


@pytest.mark.parametrize("problem", ["blobs|mlp1", "blobs/mlp1", "blobs\tmlp1"])
def test_table_refuses_a_problem_name_no_table_cell_or_file_name_holds(
    tmp_path, capsys, problem
):
    # a "|" would split the problem's header cell over one separator cell
    path, argv = _edited_input(tmp_path, "table", ("config", "problem"), problem)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: malformed results file "
        f"(problem {problem!r} holds '/', '|' or a control character)\n"
    )


# ---------------------------------------------------------------------------
# sweep-mu


def test_sweep_mu_refuses_a_problem_name_with_a_slash_before_training(
    tmp_path, monkeypatch, capsys, temporary_problem
):
    # the name would turn each results file name into a path below --out, so
    # the registry refuses it and sweep-mu never offers it as a choice
    def train(*args):
        raise AssertionError("trained before refusing the problem name")

    before = problem_names()
    with pytest.raises(ValueError) as refused:
        temporary_problem("blobs/mlp1", lambda: build_problem("blobs-mlp1"))
    assert str(refused.value) == "problem 'blobs/mlp1' holds '/', '|' or a control character"
    assert problem_names() == before
    monkeypatch.setattr(cli, "run_grid", train)
    out = tmp_path / "out"
    argv = ["sweep-mu", "--mus", "0.5", "--problem", "blobs/mlp1", "--out", str(out)]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "invalid choice: 'blobs/mlp1'" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_mu_runs_an_analytic_problem_once_per_start_by_default(tmp_path, capsys):
    argv = ["sweep-mu", "--mus", "0.5", "--problem", "quadratic", "--epochs", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert "wrote 5 results files" in capsys.readouterr().err
    for path in tmp_path.glob("*.json"):
        config, loaded = load_results(path)
        assert config.seeds == (0,)
        assert [r.seed for r in loaded] == [0]


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
    out = tmp_path / "out"
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
            str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --mus repeats 0.5\n"
    assert not out.exists()
    # the harness's cell rule refuses the same grid, naming configs rather
    # than the value the user wrote
    configs = sweep_mu_configs([0.5, 0.5], "quadratic", seeds=range(2), epochs=1)
    with pytest.raises(ValueError) as refused:
        run_grid(configs)
    err = str(refused.value)
    assert "config 5: seed 0 of AdaFamily(0.5) on quadratic repeats one from config 4" in err


def test_sweep_mu_refuses_a_negative_zero_mu_before_training(tmp_path, monkeypatch, capsys):
    # -0.0 == 0.0, but it would write AdaFamily(-0.0) beside AdaFamily(0.0)
    def train(*args):
        raise AssertionError("trained before refusing the mu")

    monkeypatch.setattr(cli, "run_grid", train)
    out = tmp_path / "out"
    argv = ["sweep-mu", "--mus=-0", "--problem", "quadratic", "--seeds", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: mu must lie in [0, 1], got -0.0\n"
    assert not out.exists()


def test_table_refuses_a_negative_zero_mu(tmp_path, capsys):
    path, argv = _edited_input(tmp_path, "table", ("config", "optimizer", "mu"), -0.0)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed results file (mu must lie in [0, 1]")


def test_table_refuses_a_baseline_with_a_mu(tmp_path, capsys):
    # no baseline reads mu, so an Adam file with mu 0.7 is no Adam row
    path, argv = _edited_input(tmp_path, "table", ("config", "optimizer", "mu"), 0.7)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {path}: malformed results file (mu belongs to AdaFamily alone; "
        "Adam takes 0.0, got 0.7)"
    )


@pytest.mark.parametrize("command", ["run", "sweep-mu"])
def test_a_batch_larger_than_the_training_split_fails_before_training(
    tmp_path, capsys, command
):
    out = tmp_path / "out"
    if command == "run":
        config_path = tmp_path / "config.json"
        plan = BatchPlan(batch_size=5000, shuffle_seed=12345)
        save_run_config_file(config_path, _small_config(problem="blobs-logreg", batch_plan=plan))
        argv = ["run", "--config", str(config_path)]
    else:
        argv = ["sweep-mu", "--mus", "0.5", "--problem", "blobs-logreg", "--batch-size", "5000"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "batch_size 5000 exceeds the 480 training samples" in err
    if command == "run":
        assert err.startswith(f"error: {config_path}: ")
    assert not out.exists()


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


def test_sweep_mu_refuses_a_batch_size_on_an_analytic_problem(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep-mu", "--mus", "0.5", "--problem", "quadratic", "--batch-size", "7"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "problem quadratic is analytic and takes no --batch-size, got 7" in err
    assert not out.exists()


def test_sweep_mu_unknown_problem_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-mu", "--mus", "0.5", "--problem", "nope"])


def test_sweep_mu_has_no_format_option(capsys):
    # the sweep writes Markdown; `table --format csv` prints its files' CSV
    with pytest.raises(SystemExit):
        main(["sweep-mu", "--mus", "0.5", "--problem", "quadratic", "--format", "csv"])
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_filter_passes(capsys):
    assert main(["check", "--filter", "normalization"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_prints_every_check_in_order(capsys):
    names = [
        "normalization-endpoints",
        "normalization-symmetry",
        "endpoint-adamomentum",
        "endpoint-adam-eps-in-v",
        "endpoint-adabelief-eps-in-v",
        "v-lower-bound",
        "determinism",
        "state-size",
        "gradients",
        "schedule",
    ]
    # the filter is a substring: "endpoint" alone also picks normalization-endpoints
    for argv, expected in [(["check"], names), (["check", "--filter", "endpoint-"], names[2:5])]:
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(expected)
        for line, name in zip(lines, expected):
            assert line.startswith(f"PASS {name}: "), line


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


def test_a_zero_whose_sign_flips_fails_determinism(monkeypatch, capsys):
    replays = []

    def sign_flipping_trajectory(config, grads, theta0, lr_scales=None):
        # every second replay turns the first 0.0 into -0.0, which == accepts
        replays.append(config)
        return [[-0.0 if len(replays) % 2 == 0 else 0.0, 1.0]]

    monkeypatch.setattr(checks, "trajectory", sign_flipping_trajectory)
    assert main(["check", "--filter", "determinism"]) == 1
    assert "FAIL determinism" in capsys.readouterr().out


def test_check_unknown_filter_fails(capsys):
    assert main(["check", "--filter", "zzz-not-a-check"]) == 1
    assert "no check matches" in capsys.readouterr().out


_WRITE_DIVERGENT_TABLE = """
import sys
from adafamily.harness import RunResult, write_text_atomic
from adafamily.tables import emit_table
runs = [RunResult(0, [1.0], [1.5], 0.0), RunResult(1, [], [], 0.0, divergence_epoch=0)]
write_text_atomic(sys.argv[1], emit_table({("Adam", "quadratic"): runs}, "md"))
"""


def _ascii_locale_env():
    # the C locale's encoding is ASCII, which has no divergence dagger
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
    )


def test_tables_are_written_as_utf_8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "table.md"
    proc = subprocess.run(
        [sys.executable, "-c", _WRITE_DIVERGENT_TABLE, str(path)],
        capture_output=True,
        text=True,
        env=_ascii_locale_env(),
    )
    assert proc.returncode == 0, proc.stderr
    table = path.read_bytes().decode("utf-8")
    assert "**1.50**\u2020" in table and "1 of 2 runs diverged" in table


def test_table_prints_utf_8_under_an_ascii_locale(tmp_path):
    payload = json.loads((FIXTURES / "smoke" / "blobs-mlp1--adam.json").read_text())
    run = payload["results"][0]
    del run["train_loss"][1:], run["eval_metric"][1:]
    run.update(diverged=True, divergence_epoch=1, final_metric=None)
    path = tmp_path / "div.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "adafamily", "table", str(path)],
        capture_output=True,
        env=_ascii_locale_env(),
    )
    assert proc.returncode == 0, proc.stderr
    table = emit_table(aggregate_result_files([path]), "md")
    assert "\u2020" in table and proc.stdout == table.encode("utf-8")


def test_sweep_mu_prints_its_table_to_a_stream_without_a_buffer(tmp_path):
    stdout = io.StringIO()
    argv = ["sweep-mu", "--mus", "0.5", "--problem", "quadratic", "--seeds", "1",
            "--epochs", "1", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    table = (tmp_path / "sweep_quadratic.md").read_bytes().decode("utf-8")
    assert table.startswith("| algorithm |") and stdout.getvalue() == table


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
