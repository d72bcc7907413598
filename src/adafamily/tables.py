"""Result-table emission: Markdown and CSV with best/second-best marking.

The emitter consumes table cells, ``{(label, problem): [RunResult, ...]}``
as `adafamily.harness.run_grid` and `aggregate_result_files` return
them, and prints one row per label, one column per problem, each in
first-seen order, means at 2 decimals.  `emit_table` works out each cell
once, into one grid that both formats only print: its value, its rank in
its column, its divergence count and its run count.  A cell's value is
the float64 mean of its non-divergent runs' `final_metric`, summed in the
order the cell lists them (seed order, from the harness).  Ranks are computed
here and only here, from the full-precision means, not the printed
values: the column minimum is best (bold in Markdown), the runner-up
second best (italic).  CSV carries the same information as explicit rank
and divergence columns.
A missing cell or a non-finite mean has no value: it prints as n/a in
Markdown and empty in CSV, unmarked, and ranks after every value.  Cells
whose runs partly diverged get a dagger and a footnote, row by row.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple, Sequence

import numpy as np

FORMATS = ("md", "csv")


def ordinal_ranks(values: Sequence[float | None]) -> list[int]:
    """1-based ranks, smallest first, ties and Nones broken by position.

    None (no value) sorts after every real value.  The result is always a
    permutation of 1..len(values).
    """
    order = sorted(
        range(len(values)),
        key=lambda i: (values[i] is None, values[i] if values[i] is not None else 0.0, i),
    )
    ranks = [0] * len(values)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    return ranks


class _Cell(NamedTuple):
    """One row's entry in one problem column."""

    value: float | None  # the mean when finite, else None (printed as no value)
    rank: int  # 1-based within the column, from `ordinal_ranks`
    diverged: int  # runs excluded from the mean; 0 for a missing cell
    runs: int  # runs in the cell; 0 for a missing cell


def emit_table(cells, format: str = "md") -> str:
    """Render table cells, ``{(label, problem): runs}``, as Markdown or CSV text."""
    if not cells:
        raise ValueError("no results to tabulate")
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    labels = list(dict.fromkeys(label for label, _ in cells))
    problems = list(dict.fromkeys(problem for _, problem in cells))
    grid: list[list[_Cell]] = [[] for _ in labels]
    for problem in problems:
        column = [cells.get((label, problem), []) for label in labels]
        values = []
        for runs in column:
            good = np.array([r.final_metric for r in runs if not r.diverged], dtype=np.float64)
            # a sum past the float range is inf, a mean with no value
            with np.errstate(over="ignore"):
                mean = float(np.mean(good)) if good.size else math.nan
            values.append(mean if math.isfinite(mean) else None)
        ranks = ordinal_ranks(values)
        for row, runs, value, rank in zip(grid, column, values, ranks):
            row.append(_Cell(value, rank, sum(r.diverged for r in runs), len(runs)))
    if format == "md":
        return _emit_markdown(labels, problems, grid)
    return _emit_csv(labels, problems, grid)


def _emit_markdown(labels, problems, grid) -> str:
    lines = [
        "| algorithm | " + " | ".join(problems) + " |",
        "| --- |" + " --- |" * len(problems),
    ]
    notes = []
    for label, cells in zip(labels, grid):
        texts = [label]
        for problem, cell in zip(problems, cells):
            if cell.value is None:
                text = "n/a"
            else:
                text = f"{cell.value:.2f}"
                if cell.rank == 1:
                    text = f"**{text}**"
                elif cell.rank == 2:
                    text = f"*{text}*"
            if cell.diverged:
                text += "†"
                notes.append(
                    f"† {label} on {problem}: {cell.diverged} of {cell.runs} runs diverged "
                    "and were excluded from the mean."
                )
            texts.append(text)
        lines.append("| " + " | ".join(texts) + " |")
    if notes:
        lines.append("")
        lines.extend(notes)
    return "\n".join(lines) + "\n"


def _emit_csv(labels, problems, grid) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["algorithm"]
    for problem in problems:
        header.extend([problem, f"{problem}_rank", f"{problem}_diverged"])
    writer.writerow(header)
    for label, cells in zip(labels, grid):
        row = [label]
        for cell in cells:
            text = "" if cell.value is None else f"{cell.value:.2f}"
            row.extend([text, str(cell.rank), str(cell.diverged)])
        writer.writerow(row)
    return buf.getvalue()
