"""Shared pytest wiring: the acceptance-criteria report, the text that
bitwise claims compare, and temporary problem registration."""

import json

import pytest

from adafamily.harness import RunResult, _PROBLEM_BUILDERS, build_problem, register_problem

# one line per acceptance criterion, echoed after the test summary so the
# PASS/FAIL verdicts are visible even with output capture on
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bitwise(value) -> str:
    """``value`` as JSON text: two values replay bitwise when their texts
    are equal.

    A float renders as its shortest round-trip repr, so -0.0 and 0.0 differ
    (`==` calls them equal) and a NaN equals a NaN.  A `RunResult` renders
    as its `to_dict()` without `elapsed_seconds`, an object with a
    `to_dict` (a config) as that, and a dict as its (key, value) pairs in
    order, so tuple keys and their order count.
    """
    return json.dumps(_plain(value))


def _plain(value):
    if isinstance(value, RunResult):
        d = value.to_dict()
        del d["elapsed_seconds"]
        return _plain(d)
    if hasattr(value, "to_dict"):
        return _plain(value.to_dict())
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.fixture
def temporary_problem():
    """``temporary_problem(name, builder)`` registers a problem for one
    test; when the test ends, however it ends, every name it registered
    leaves the registry and the build cache is cleared."""
    names = []

    def register(name, builder):
        register_problem(name, builder)
        names.append(name)

    yield register
    for name in names:
        del _PROBLEM_BUILDERS[name]
    build_problem.cache_clear()
