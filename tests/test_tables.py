"""Tests for table emission: ranking, marking, formats, round-trips."""

import csv
import io

import pytest

from adafamily.harness import RunResult
from adafamily.tables import FORMATS, emit_table, ordinal_ranks

LINEUP = [
    "Adam",
    "AdamW",
    "AdaBelief",
    "AdaMomentum",
    "AdaFamily(0.0)",
    "AdaFamily(0.25)",
    "AdaFamily(0.5)",
    "AdaFamily(0.75)",
    "AdaFamily(1.0)",
]


def _runs(mean, runs=10, diverged=0):
    """A cell of ``runs`` runs: the first ``diverged`` diverged in epoch 0,
    the rest end at ``mean``.  A None mean is a cell whose every run
    diverged, the only cell that has no mean."""
    if mean is None:
        diverged = runs
    return [
        RunResult(seed=s, train_loss=[], eval_metric=[], elapsed_seconds=0.0, divergence_epoch=0)
        if s < diverged
        else RunResult(seed=s, train_loss=[0.0], eval_metric=[mean], elapsed_seconds=0.0)
        for s in range(runs)
    ]


def _cells(means_by_label, problem="bench", divergent=None, seeds=10):
    return {
        (label, problem): _runs(mean, seeds, (divergent or {}).get(label, 0))
        for label, mean in means_by_label.items()
    }


# ---------------------------------------------------------------------------
# ordinal_ranks


def test_ordinal_ranks_smallest_first():
    assert ordinal_ranks([3.0, 1.0, 2.0]) == [3, 1, 2]


def test_ordinal_ranks_ties_break_by_position():
    assert ordinal_ranks([2.0, 1.0, 1.0]) == [3, 1, 2]


def test_ordinal_ranks_none_sorts_last():
    assert ordinal_ranks([None, 1.0, None, 0.5]) == [3, 2, 4, 1]


def test_ordinal_ranks_always_a_permutation():
    values = [5.0, None, 5.0, 0.0, None, -1.0]
    assert sorted(ordinal_ranks(values)) == list(range(1, 7))


def test_ordinal_ranks_empty():
    assert ordinal_ranks([]) == []


# ---------------------------------------------------------------------------
# markdown emission


def test_markdown_structure_and_cells():
    cells = _cells({"Adam": 10.128, "AdamW": 9.874, "AdaBelief": 11.5})
    lines = emit_table(cells, format="md").splitlines()
    assert lines[0] == "| algorithm | bench |"
    assert set(lines[1]) <= {"|", "-", " ", ":"}
    assert lines[2] == "| Adam | *10.13* |"
    assert lines[3] == "| AdamW | **9.87** |"
    assert lines[4] == "| AdaBelief | 11.50 |"


def test_markdown_marks_best_bold_second_italic():
    cells = _cells({"A": 3.0, "B": 1.0, "C": 2.0})
    text = emit_table(cells, format="md")
    assert "**1.00**" in text
    assert "*2.00*" in text
    assert "**2.00**" not in text
    assert "| 3.00 |" in text


def test_marking_uses_full_precision_not_rendered_cells():
    # the two cells render identically at 2 decimals, but only the smaller
    # underlying mean gets the best marker
    cells = _cells({"A": 1.004, "B": 1.001})
    text = emit_table(cells, format="md")
    assert "| A | *1.00* |" in text
    assert "| B | **1.00** |" in text


def test_single_row_is_marked_best():
    cells = _cells({"Adam": 4.2})
    text = emit_table(cells, format="md")
    assert "**4.20**" in text


def test_none_mean_renders_na():
    cells = _cells({"A": None, "B": 2.0})
    text = emit_table(cells, format="md")
    assert "n/a" in text
    assert "**2.00**" in text


def test_divergence_dagger_and_footnote():
    cells = _cells({"A": 5.0, "B": 6.0, "C": 7.0}, divergent={"C": 3}, seeds=10)
    text = emit_table(cells, format="md")
    assert "7.00†" in text
    assert "† C on bench: 3 of 10 runs diverged and were excluded from the mean." in text
    # the clean rows carry no dagger and no footnote
    assert "5.00**†" not in text and "**5.00†" not in text
    assert "† A on bench" not in text and "† B on bench" not in text


def test_divergence_dagger_sits_outside_marking():
    cells = _cells({"A": 5.0, "B": 6.0}, divergent={"B": 1}, seeds=4)
    text = emit_table(cells, format="md")
    assert "| B | *6.00*† |" in text


def test_no_divergence_no_footnote():
    cells = _cells({"A": 5.0, "B": 6.0})
    assert "†" not in emit_table(cells, format="md")


def test_multi_problem_columns():
    cells = {
        ("Adam", "p1"): _runs(1.0, 3),
        ("Adam", "p2"): _runs(9.0, 3),
        ("AdamW", "p1"): _runs(2.0, 3),
        ("AdamW", "p2"): _runs(8.0, 3),
    }
    lines = emit_table(cells, format="md").splitlines()
    assert lines[0] == "| algorithm | p1 | p2 |"
    assert lines[2] == "| Adam | **1.00** | *9.00* |"
    assert lines[3] == "| AdamW | *2.00* | **8.00** |"


def test_cells_without_a_finite_mean_across_two_problems():
    # A's p2 mean is inf and B's p1 mean is NaN; C has no p2 cell at all
    cells = {
        ("A", "p1"): _runs(1.0, 4, diverged=1),
        ("A", "p2"): _runs(float("inf"), 4, diverged=2),
        ("B", "p1"): _runs(float("nan"), 4, diverged=3),
        ("B", "p2"): _runs(2.0, 4),
        ("C", "p1"): _runs(0.5, 4),
    }
    # A's p2 cell ranks second but takes no mark; notes run row by row
    assert emit_table(cells, format="md") == (
        "| algorithm | p1 | p2 |\n"
        "| --- | --- | --- |\n"
        "| A | *1.00*† | n/a† |\n"
        "| B | n/a† | **2.00** |\n"
        "| C | **0.50** | n/a |\n"
        "\n"
        "† A on p1: 1 of 4 runs diverged and were excluded from the mean.\n"
        "† A on p2: 2 of 4 runs diverged and were excluded from the mean.\n"
        "† B on p1: 3 of 4 runs diverged and were excluded from the mean.\n"
    )
    assert emit_table(cells, format="csv") == (
        "algorithm,p1,p1_rank,p1_diverged,p2,p2_rank,p2_diverged\n"
        "A,1.00,2,1,,2,2\n"
        "B,,3,3,2.00,1,0\n"
        "C,0.50,1,0,,3,0\n"
    )


# ---------------------------------------------------------------------------
# csv emission


def test_csv_emission_and_round_trip():
    cells = _cells({"Adam": 10.128, "AdamW": 9.874}, divergent={"AdamW": 1})
    text = emit_table(cells, format="csv")
    lines = text.splitlines()
    assert lines[0] == "algorithm,bench,bench_rank,bench_diverged"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert [p["algorithm"] for p in parsed] == ["Adam", "AdamW"]
    # cells round to 2 decimals on the wire
    assert [p["bench"] for p in parsed] == ["10.13", "9.87"]
    assert [p["bench_rank"] for p in parsed] == ["2", "1"]
    assert [p["bench_diverged"] for p in parsed] == ["0", "1"]


def test_csv_ranks_each_mean_as_summed_in_the_cell_order():
    # one set of final metrics in two orders: A's mean is
    # 0.20000000000000004 and B's 0.19999999999999998, so B ranks first; a
    # sorted or reordered sum would tie them and rank A first by position
    def ending(*finals):
        return [
            RunResult(seed=s, train_loss=[0.0], eval_metric=[f], elapsed_seconds=0.0)
            for s, f in enumerate(finals)
        ]

    cells = {("A", "bench"): ending(0.1, 0.2, 0.3), ("B", "bench"): ending(0.3, 0.2, 0.1)}
    parsed = list(csv.DictReader(io.StringIO(emit_table(cells, format="csv"))))
    assert [p["bench"] for p in parsed] == ["0.20", "0.20"]
    assert [p["bench_rank"] for p in parsed] == ["2", "1"]


def test_csv_none_mean_round_trips():
    cells = _cells({"A": None, "B": 2.0})
    parsed = list(csv.DictReader(io.StringIO(emit_table(cells, format="csv"))))
    assert [p["bench"] for p in parsed] == ["", "2.00"]
    assert [p["bench_rank"] for p in parsed] == ["2", "1"]


# ---------------------------------------------------------------------------
# argument validation


def test_emit_table_rejects_empty():
    with pytest.raises(ValueError):
        emit_table({}, format="md")


def test_emit_table_rejects_unknown_format():
    cells = _cells({"Adam": 1.0})
    with pytest.raises(ValueError, match="html"):
        emit_table(cells, format="html")


def test_formats_constant():
    assert FORMATS == ("md", "csv")


# ---------------------------------------------------------------------------
# published-style column fixture


def test_reference_column_best_and_second_marking():
    # canonical nine-row lineup with a fixed top-1 error column; the best
    # cell is 12.65 and the runner-up 12.69
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    cells = _cells(dict(zip(LINEUP, column)), problem="resnet")
    text = emit_table(cells, format="md")
    assert "| AdaFamily(0.5) | **12.65** |" in text
    assert "| AdaFamily(0.0) | *12.69* |" in text
    # every other cell is unmarked
    assert text.count("**") == 2
    assert "| AdaBelief | 12.70 |" in text


def test_reference_column_rank_order():
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    assert ordinal_ranks(column) == [5, 6, 3, 8, 2, 4, 1, 7, 9]
