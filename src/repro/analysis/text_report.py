"""Plain-text / Markdown rendering of results and campaigns.

The CLI and benches need tables; users scripting campaigns want the
same rendering without pulling in a plotting stack.  Everything here is
pure string formatting over the result dataclasses.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.ptest.campaign import CampaignRow
from repro.ptest.harness import TestRunResult


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], markdown: bool = False
) -> str:
    """Render rows as a fixed-width (or Markdown) table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in cells))
        if cells
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    if markdown:
        head = "| " + " | ".join(
            str(h).ljust(w) for h, w in zip(headers, widths)
        ) + " |"
        rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        body = [
            "| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |"
            for row in cells
        ]
        return "\n".join([head, rule, *body])
    head = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = [
        " | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells
    ]
    return "\n".join([head, rule, *body])


def render_run(result: TestRunResult, markdown: bool = False) -> str:
    """One run's summary block."""
    lines = [
        f"**{result.summary()}**" if markdown else result.summary(),
        render_table(
            ["metric", "value"],
            [
                ("rounds", result.rounds),
                ("ticks", result.ticks),
                ("commands issued", result.commands_issued),
                ("commands completed", result.commands_completed),
                ("error replies", result.commands_failed),
                ("merged length", result.merged_length),
            ],
            markdown=markdown,
        ),
    ]
    if result.service_counts:
        lines.append("")
        lines.append(
            render_table(
                ["service", "invocations"],
                sorted(result.service_counts.items()),
                markdown=markdown,
            )
        )
    if result.found_bug:
        lines.append("")
        lines.append(result.report.describe())
    return "\n".join(lines)


def render_campaign(
    rows: Sequence[CampaignRow],
    markdown: bool = False,
    expected: Mapping[str, str] | None = None,
) -> str:
    """A campaign's summary table.

    ``expected`` (variant -> label) adds an ``expected`` column beside
    the detected kinds; variants it does not name show ``-``.
    """
    headers = ["variant", "runs", "detections", "rate", "kinds"]
    if expected is not None:
        headers.append("expected")
    headers += ["mean ticks", "mean commands"]
    table = []
    for row in rows:
        cells = [
            row.variant,
            row.runs,
            row.detections,
            f"{row.rate:.2f}",
            ",".join(row.kinds) or "-",
        ]
        if expected is not None:
            cells.append(expected.get(row.variant, "-"))
        cells += [
            f"{row.mean_ticks_to_detection:.0f}",
            f"{row.mean_commands:.0f}",
        ]
        table.append(cells)
    return render_table(headers, table, markdown=markdown)
