"""Replay gate: the committed smoke results must reproduce bit for bit.

Each file under fixtures/smoke/ stores the RunConfig that produced it.
Re-running that config must give payloads equal to the committed ones in
every field but elapsed_seconds, so any change to the arithmetic of the
optimizer, the problems or the data pipeline shows up here.  Replayed
alone, each config's lockstep stack holds one algorithm; replayed all
together, the stacks mix every algorithm of a problem, and must still
give the same payloads.  Running tools/regen_fixtures.py must also write
every committed fixture back byte for byte, elapsed_seconds aside, which
pins the file formats as well as the numbers, and so must `adafamily run`
on a smoke config.  The run-config example in docs/schemas.md is the
committed quadratic run config, and its results example is a file that
loads and replays, so the gate pins the doc as well.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import bitwise

from adafamily.cli import main
from adafamily.harness import RunConfig, load_results, run_configs, save_run_config_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SMOKE = sorted((FIXTURES / "smoke").glob("*.json"))


def test_smoke_fixtures_present():
    assert len(SMOKE) == 18


@pytest.mark.host_kernels
@pytest.mark.parametrize("path", SMOKE, ids=[p.stem for p in SMOKE])
def test_smoke_fixture_replays_bitwise(path):
    config, committed = load_results(path)
    assert bitwise(run_configs([config])[0]) == bitwise(committed)


@pytest.mark.host_kernels
def test_smoke_fixtures_replay_bitwise_in_mixed_stacks():
    loaded = [load_results(path) for path in SMOKE]
    replayed = run_configs([config for config, _ in loaded])
    differing = [
        path.stem
        for path, (_, committed), results in zip(SMOKE, loaded, replayed)
        if bitwise(results) != bitwise(committed)
    ]
    assert differing == []


def _fixture_files(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _mask_elapsed(name, data):
    if not name.startswith("smoke/"):
        return data
    return re.sub(rb'("elapsed_seconds": )[^,\n]+', rb"\1<elapsed>", data)


@pytest.mark.host_kernels
def test_regenerated_fixtures_match_committed_bytes(tmp_path):
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "regen_fixtures.py", tmp_path / "tools")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "regen_fixtures.py")],
        check=True,
        capture_output=True,
        cwd=tmp_path,
    )
    committed = _fixture_files(FIXTURES)
    regenerated = _fixture_files(tmp_path / "fixtures")
    assert sorted(regenerated) == sorted(committed)
    differing = [
        name
        for name, data in committed.items()
        if _mask_elapsed(name, regenerated[name]) != _mask_elapsed(name, data)
    ]
    assert differing == []


@pytest.mark.host_kernels
def test_cli_run_rewrites_a_smoke_fixture(tmp_path, capsys):
    path = FIXTURES / "smoke" / "blobs-mlp1--adafamily-0.5.json"
    config_path = tmp_path / "run.json"
    save_run_config_file(config_path, load_results(path)[0])
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert "wrote" in capsys.readouterr().out
    name = f"smoke/{path.name}"
    written = (out_dir / path.name).read_bytes()
    assert _mask_elapsed(name, written) == _mask_elapsed(name, path.read_bytes())


def _schema_doc_example(heading):
    # the JSON block under a docs/schemas.md heading
    doc = (ROOT / "docs" / "schemas.md").read_text(encoding="utf-8")
    (block,) = re.findall(rf"## {heading} .*?```json\n(.*?)```", doc, re.DOTALL)
    return block


def test_schema_doc_run_config_is_the_committed_fixture():
    example = json.loads(_schema_doc_example("Run config"))
    committed = json.loads((FIXTURES / "quadratic_run.json").read_text(encoding="utf-8"))
    # sorted JSON text, so 50 and 50.0 would also differ
    assert json.dumps(example, sort_keys=True) == json.dumps(committed, sort_keys=True)
    assert RunConfig.from_dict(example["run"]).to_dict() == example["run"]


def test_schema_doc_results_example_loads_and_replays(tmp_path):
    block = _schema_doc_example("Results")
    path = tmp_path / "example.json"
    path.write_text(block, encoding="utf-8")
    config, results = load_results(path)
    assert config.to_dict() == json.loads(block)["config"]
    assert bitwise(run_configs([config])[0]) == bitwise(results)
