"""Replay gate: the committed smoke results must reproduce bit for bit.

Each file under fixtures/smoke/ stores the RunConfig that produced it.
Re-running that config must give payloads equal to the committed ones in
every field but elapsed_seconds, so any change to the arithmetic of the
optimizer, the problems or the data pipeline shows up here.
"""

import json
from pathlib import Path

import pytest

from adafamily.harness import load_results, run_config

SMOKE = sorted((Path(__file__).resolve().parent.parent / "fixtures" / "smoke").glob("*.json"))


def _payloads(results):
    # JSON text, so that -0.0 vs 0.0 or a NaN would also count as a change
    out = []
    for result in results:
        payload = result.to_dict()
        del payload["elapsed_seconds"]
        out.append(payload)
    return json.dumps(out, sort_keys=True)


def test_smoke_fixtures_present():
    assert len(SMOKE) == 18


@pytest.mark.parametrize("path", SMOKE, ids=[p.stem for p in SMOKE])
def test_smoke_fixture_replays_bitwise(path):
    config, committed = load_results(path)
    assert _payloads(run_config(config)) == _payloads(committed)
