"""Result-table emission: Markdown and CSV with best/second-best marking.

The emitter consumes `adafamily.harness.AggregateResult` rows (`label`,
`means`, `divergent`, `seeds_per_problem`) and prints one row per
algorithm, one column per problem, means at 2 decimals.  Ranks are
computed here and only here, from the full-precision means, not the
printed values: the column minimum is best (bold in Markdown), the
runner-up second best (italic).  CSV carries the same information as
explicit rank columns.
Cells whose runs partly diverged get a dagger and a footnote; cells with
no surviving runs print as n/a.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

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


def _column_order(aggregates) -> list[str]:
    problems: list[str] = []
    for agg in aggregates:
        for problem in agg.means:
            if problem not in problems:
                problems.append(problem)
    return problems


def _cell_values(aggregates, problem: str) -> list[float | None]:
    out = []
    for agg in aggregates:
        mean = agg.means.get(problem)
        if mean is not None and not math.isfinite(mean):
            mean = None
        out.append(mean)
    return out


def _divergence_notes(aggregates, problems) -> list[tuple[str, str, int, int]]:
    notes = []
    for agg in aggregates:
        for problem in problems:
            count = agg.divergent.get(problem, 0)
            if count:
                notes.append((agg.label, problem, count, agg.seeds_per_problem[problem]))
    return notes


def emit_table(aggregates, format: str = "md") -> str:
    """Render aggregate rows as Markdown or CSV text."""
    aggregates = list(aggregates)
    if not aggregates:
        raise ValueError("no results to tabulate")
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    problems = _column_order(aggregates)
    if not problems:
        raise ValueError("results contain no problem columns")
    ranks = {p: ordinal_ranks(_cell_values(aggregates, p)) for p in problems}
    if format == "md":
        return _emit_markdown(aggregates, problems, ranks)
    return _emit_csv(aggregates, problems, ranks)


def _emit_markdown(aggregates, problems, ranks) -> str:
    lines = [
        "| algorithm | " + " | ".join(problems) + " |",
        "| --- |" + " --- |" * len(problems),
    ]
    for row_index, agg in enumerate(aggregates):
        cells = []
        for problem in problems:
            mean = agg.means.get(problem)
            if mean is None or not math.isfinite(mean):
                text = "n/a"
            else:
                text = f"{mean:.2f}"
                rank = ranks[problem][row_index]
                if rank == 1:
                    text = f"**{text}**"
                elif rank == 2:
                    text = f"*{text}*"
            if agg.divergent.get(problem, 0):
                text += "†"
            cells.append(text)
        lines.append("| " + " | ".join([agg.label] + cells) + " |")
    notes = _divergence_notes(aggregates, problems)
    if notes:
        lines.append("")
        for label, problem, count, total in notes:
            lines.append(
                f"† {label} on {problem}: {count} of {total} runs diverged "
                "and were excluded from the mean."
            )
    return "\n".join(lines) + "\n"


def _emit_csv(aggregates, problems, ranks) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["algorithm"]
    for problem in problems:
        header.extend([problem, f"{problem}_rank", f"{problem}_diverged"])
    writer.writerow(header)
    for row_index, agg in enumerate(aggregates):
        row = [agg.label]
        for problem in problems:
            mean = agg.means.get(problem)
            text = "" if mean is None or not math.isfinite(mean) else f"{mean:.2f}"
            row.extend(
                [
                    text,
                    str(ranks[problem][row_index]),
                    str(agg.divergent.get(problem, 0)),
                ]
            )
        writer.writerow(row)
    return buf.getvalue()
