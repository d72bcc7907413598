"""Result-table emission: Markdown and CSV with best/second-best marking.

The emitter consumes `adafamily.harness.AggregateResult` rows (`label`,
`means`, `divergent`, `seeds_per_problem`) and prints one row per
algorithm, one column per problem, means at 2 decimals.  `emit_table`
works out each cell once, into one grid that both formats only print: its
value, its rank in its column and its divergence count.  Ranks are
computed here and only here, from the full-precision means, not the
printed values: the column minimum is best (bold in Markdown), the
runner-up second best (italic).  CSV carries the same information as
explicit rank and divergence columns.
A missing or non-finite mean has no value: it prints as n/a in Markdown
and empty in CSV, unmarked, and ranks after every value.  Cells whose
runs partly diverged get a dagger and a footnote, row by row.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple, Sequence

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


def emit_table(aggregates, format: str = "md") -> str:
    """Render aggregate rows as Markdown or CSV text."""
    aggregates = list(aggregates)
    if not aggregates:
        raise ValueError("no results to tabulate")
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    problems: list[str] = []  # in first-seen order
    for agg in aggregates:
        for problem in agg.means:
            if problem not in problems:
                problems.append(problem)
    if not problems:
        raise ValueError("results contain no problem columns")
    grid: list[list[_Cell]] = [[] for _ in aggregates]
    for problem in problems:
        values = []
        for agg in aggregates:
            mean = agg.means.get(problem)
            values.append(mean if mean is not None and math.isfinite(mean) else None)
        ranks = ordinal_ranks(values)
        for agg, cells, value, rank in zip(aggregates, grid, values, ranks):
            cells.append(_Cell(value, rank, agg.divergent.get(problem, 0)))
    if format == "md":
        return _emit_markdown(aggregates, problems, grid)
    return _emit_csv(aggregates, problems, grid)


def _emit_markdown(aggregates, problems, grid) -> str:
    lines = [
        "| algorithm | " + " | ".join(problems) + " |",
        "| --- |" + " --- |" * len(problems),
    ]
    notes = []
    for agg, cells in zip(aggregates, grid):
        texts = [agg.label]
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
                    f"† {agg.label} on {problem}: {cell.diverged} of "
                    f"{agg.seeds_per_problem[problem]} runs diverged "
                    "and were excluded from the mean."
                )
            texts.append(text)
        lines.append("| " + " | ".join(texts) + " |")
    if notes:
        lines.append("")
        lines.extend(notes)
    return "\n".join(lines) + "\n"


def _emit_csv(aggregates, problems, grid) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["algorithm"]
    for problem in problems:
        header.extend([problem, f"{problem}_rank", f"{problem}_diverged"])
    writer.writerow(header)
    for agg, cells in zip(aggregates, grid):
        row = [agg.label]
        for cell in cells:
            text = "" if cell.value is None else f"{cell.value:.2f}"
            row.extend([text, str(cell.rank), str(cell.diverged)])
        writer.writerow(row)
    return buf.getvalue()
