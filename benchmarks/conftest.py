"""Shared helpers for the benchmark/experiment harness.

Every bench regenerates one of the paper's tables or figures and both
prints the rows and writes them under ``benchmarks/out/``, one text
file per experiment id.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def emit():
    """Return a function writing experiment output to file + stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(experiment_id: str, text: str) -> None:
        path = OUT_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {experiment_id} =====")
        print(text)

    return _emit


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Plain-text table with right-padded columns."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append(
            " | ".join(
                value.ljust(width) for value, width in zip(row, widths)
            )
        )
    return "\n".join(lines)
