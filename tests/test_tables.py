"""Tests for table emission: ranking, marking, formats, round-trips."""

import csv
import io

import pytest

from adafamily.harness import AggregateResult
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


def _rows(means_by_label, problem="bench", divergent=None, seeds=10):
    rows = []
    for label, mean in means_by_label.items():
        agg = AggregateResult(label=label)
        agg.means[problem] = mean
        agg.divergent[problem] = (divergent or {}).get(label, 0)
        agg.seeds_per_problem[problem] = seeds
        rows.append(agg)
    return rows


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
    rows = _rows({"Adam": 10.128, "AdamW": 9.874, "AdaBelief": 11.5})
    lines = emit_table(rows, format="md").splitlines()
    assert lines[0] == "| algorithm | bench |"
    assert set(lines[1]) <= {"|", "-", " ", ":"}
    assert lines[2] == "| Adam | *10.13* |"
    assert lines[3] == "| AdamW | **9.87** |"
    assert lines[4] == "| AdaBelief | 11.50 |"


def test_markdown_marks_best_bold_second_italic():
    rows = _rows({"A": 3.0, "B": 1.0, "C": 2.0})
    text = emit_table(rows, format="md")
    assert "**1.00**" in text
    assert "*2.00*" in text
    assert "**2.00**" not in text
    assert "| 3.00 |" in text


def test_marking_uses_full_precision_not_rendered_cells():
    # the two cells render identically at 2 decimals, but only the smaller
    # underlying mean gets the best marker
    rows = _rows({"A": 1.004, "B": 1.001})
    text = emit_table(rows, format="md")
    assert "| A | *1.00* |" in text
    assert "| B | **1.00** |" in text


def test_single_row_is_marked_best():
    rows = _rows({"Adam": 4.2})
    text = emit_table(rows, format="md")
    assert "**4.20**" in text


def test_none_mean_renders_na():
    rows = _rows({"A": None, "B": 2.0})
    text = emit_table(rows, format="md")
    assert "n/a" in text
    assert "**2.00**" in text


def test_divergence_dagger_and_footnote():
    rows = _rows({"A": 5.0, "B": 6.0, "C": 7.0}, divergent={"C": 3}, seeds=10)
    text = emit_table(rows, format="md")
    assert "7.00†" in text
    assert "† C on bench: 3 of 10 runs diverged and were excluded from the mean." in text
    # the clean rows carry no dagger and no footnote
    assert "5.00**†" not in text and "**5.00†" not in text
    assert "† A on bench" not in text and "† B on bench" not in text


def test_divergence_dagger_sits_outside_marking():
    rows = _rows({"A": 5.0, "B": 6.0}, divergent={"B": 1}, seeds=4)
    text = emit_table(rows, format="md")
    assert "| B | *6.00*† |" in text


def test_no_divergence_no_footnote():
    rows = _rows({"A": 5.0, "B": 6.0})
    assert "†" not in emit_table(rows, format="md")


def test_multi_problem_columns():
    a = AggregateResult(label="Adam")
    a.means = {"p1": 1.0, "p2": 9.0}
    a.divergent = {"p1": 0, "p2": 0}
    a.seeds_per_problem = {"p1": 3, "p2": 3}
    b = AggregateResult(label="AdamW")
    b.means = {"p1": 2.0, "p2": 8.0}
    b.divergent = {"p1": 0, "p2": 0}
    b.seeds_per_problem = {"p1": 3, "p2": 3}
    lines = emit_table([a, b], format="md").splitlines()
    assert lines[0] == "| algorithm | p1 | p2 |"
    assert lines[2] == "| Adam | **1.00** | *9.00* |"
    assert lines[3] == "| AdamW | *2.00* | **8.00** |"


def test_cells_without_a_finite_mean_across_two_problems():
    # A's p2 mean overflowed and B's p1 mean is NaN; C has no p2 cell at all
    a = AggregateResult(label="A", means={"p1": 1.0, "p2": float("inf")})
    a.divergent = {"p1": 1, "p2": 2}
    a.seeds_per_problem = {"p1": 4, "p2": 4}
    b = AggregateResult(label="B", means={"p1": float("nan"), "p2": 2.0})
    b.divergent = {"p1": 3, "p2": 0}
    b.seeds_per_problem = {"p1": 4, "p2": 4}
    c = AggregateResult(label="C", means={"p1": 0.5})
    c.divergent = {"p1": 0}
    c.seeds_per_problem = {"p1": 4}
    # A's p2 cell ranks second but takes no mark; notes run row by row
    assert emit_table([a, b, c], format="md") == (
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
    assert emit_table([a, b, c], format="csv") == (
        "algorithm,p1,p1_rank,p1_diverged,p2,p2_rank,p2_diverged\n"
        "A,1.00,2,1,,2,2\n"
        "B,,3,3,2.00,1,0\n"
        "C,0.50,1,0,,3,0\n"
    )


# ---------------------------------------------------------------------------
# csv emission


def test_csv_emission_and_round_trip():
    rows = _rows({"Adam": 10.128, "AdamW": 9.874}, divergent={"AdamW": 1})
    text = emit_table(rows, format="csv")
    lines = text.splitlines()
    assert lines[0] == "algorithm,bench,bench_rank,bench_diverged"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert [p["algorithm"] for p in parsed] == ["Adam", "AdamW"]
    # cells round to 2 decimals on the wire
    assert [p["bench"] for p in parsed] == ["10.13", "9.87"]
    assert [p["bench_rank"] for p in parsed] == ["2", "1"]
    assert [p["bench_diverged"] for p in parsed] == ["0", "1"]


def test_csv_none_mean_round_trips():
    rows = _rows({"A": None, "B": 2.0})
    parsed = list(csv.DictReader(io.StringIO(emit_table(rows, format="csv"))))
    assert [p["bench"] for p in parsed] == ["", "2.00"]
    assert [p["bench_rank"] for p in parsed] == ["2", "1"]


# ---------------------------------------------------------------------------
# argument validation


def test_emit_table_rejects_empty():
    with pytest.raises(ValueError):
        emit_table([], format="md")


def test_emit_table_rejects_unknown_format():
    rows = _rows({"Adam": 1.0})
    with pytest.raises(ValueError, match="html"):
        emit_table(rows, format="html")


def test_formats_constant():
    assert FORMATS == ("md", "csv")


# ---------------------------------------------------------------------------
# published-style column fixture


def test_reference_column_best_and_second_marking():
    # canonical nine-row lineup with a fixed top-1 error column; the best
    # cell is 12.65 and the runner-up 12.69
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    rows = _rows(dict(zip(LINEUP, column)), problem="resnet")
    text = emit_table(rows, format="md")
    assert "| AdaFamily(0.5) | **12.65** |" in text
    assert "| AdaFamily(0.0) | *12.69* |" in text
    # every other cell is unmarked
    assert text.count("**") == 2
    assert "| AdaBelief | 12.70 |" in text


def test_reference_column_rank_order():
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    assert ordinal_ranks(column) == [5, 6, 3, 8, 2, 4, 1, 7, 9]
