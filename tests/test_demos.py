"""Smoke test: every demo script, and the README's library quickstart,
runs to completion, and the quadratic race prints its pinned table."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the nine rows of the quadratic race's table: first step below a 1e-6 gap
# and the gap after 20000 steps, per lineup row
RACE_ROWS = [
    "Adam                           7624      5.630e-11",
    "AdamW                          7624      5.630e-11",
    "AdaBelief                      3753     -1.110e-16",
    "AdaMomentum                    7553      1.110e-16",
    "AdaFamily(0.0)                 7820      1.110e-16",
    "AdaFamily(0.25)                6910      2.220e-16",
    "AdaFamily(0.5)                 3753      0.000e+00",
    "AdaFamily(0.75)                6472     -2.220e-16",
    "AdaFamily(1.0)                 7553      1.110e-16",
]


def test_demos_exist():
    assert DEMOS


# the race's first hits move with the BLAS core that builds the quadratic
@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(d, marks=pytest.mark.host_kernels) if d.name == "05_quadratic_race.py" else d
        for d in DEMOS
    ],
    ids=lambda p: p.name,
)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.name == "05_quadratic_race.py":
        lines = proc.stdout.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("algorithm"))
        assert lines[header + 1 : header + 10] == RACE_ROWS


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (quickstart,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", quickstart],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the README promises a gap of ~1e-9 and falling
    assert abs(float(proc.stdout)) < 1e-8
