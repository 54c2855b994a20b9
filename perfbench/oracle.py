"""Ground truth for every benchmark request.

Three checks, all cheap enough to run inside every timed and traced run:

* **Verdicts.**  Each registered scenario at its default parameters has
  a known outcome: ``philosophers`` deadlocks, ``quicksort_stress``
  crashes, and every other benchmark scenario runs clean.  Every cell is
  held to it.
* **Rows.**  A request's campaign rows are pure aggregates of its cells,
  so they are recomputed from the per-cell digests and compared exactly.
* **Golden digests.**  At the default workload seed the per-cell digest
  ``(scenario, seed, ticks, commands_issued, found_bug, kind)``, the
  rows and a hash of the detections are pinned in ``golden.json``.

A cell that misses any check counts as failed; the run then reports
``correct: false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Expected detection kind per scenario at its default parameters
#: (``None``: the detector must stay silent).
EXPECTED_VERDICT: dict[str, str | None] = {
    "philosophers": "deadlock",
    "quicksort_stress": "crash",
    "clean_spin": None,
    "priority_inversion": None,
    "barrier": None,
    "pipeline": None,
    "producer_consumer": None,
    "readers_writers": None,
}


@dataclass(frozen=True)
class CellDigest:
    """One cell's outcome.  ``ticks``, ``commands_issued`` and
    ``detected_at`` are ``None`` for streamed cells, whose frames carry
    only the verdict."""

    scenario: str
    seed: int
    found_bug: bool
    kind: str | None
    ticks: int | None = None
    commands_issued: int | None = None
    detected_at: int | None = None

    @classmethod
    def of(cls, scenario: str, seed: int, result: Any) -> "CellDigest":
        report = result.report
        return cls(
            scenario=scenario,
            seed=seed,
            found_bug=report is not None,
            kind=report.primary.kind.value if report is not None else None,
            ticks=result.ticks,
            commands_issued=result.commands_issued,
            detected_at=(
                report.primary.detected_at if report is not None else None
            ),
        )

    def verdict(self) -> tuple[bool, str | None]:
        return (self.found_bug, self.kind)

    def golden(self) -> list[Any]:
        return [
            self.scenario,
            self.seed,
            self.ticks,
            self.commands_issued,
            self.found_bug,
            self.kind,
        ]


def verdict_error(cell: CellDigest) -> str | None:
    """Why ``cell`` misses its scenario's expected verdict, if it does."""
    if cell.scenario not in EXPECTED_VERDICT:
        return f"{cell.scenario} seed={cell.seed}: no expected verdict"
    expected = EXPECTED_VERDICT[cell.scenario]
    if expected is None and cell.found_bug:
        return f"{cell.scenario} seed={cell.seed}: false {cell.kind}"
    if expected is not None and cell.kind != expected:
        got = cell.kind if cell.found_bug else "nothing"
        return f"{cell.scenario} seed={cell.seed}: expected {expected}, got {got}"
    return None


def expected_row(variant: str, cells: Sequence[CellDigest]) -> dict[str, Any]:
    """The campaign row ``cells`` must aggregate to (full digests only),
    in the wire form of ``repro.ptest.spec.row_to_dict``."""
    detected = [cell for cell in cells if cell.found_bug]
    return {
        "variant": variant,
        "runs": len(cells),
        "detections": len(detected),
        "kinds": sorted({cell.kind for cell in detected}),
        "mean_ticks_to_detection": (
            sum(cell.detected_at for cell in detected) / len(detected)
            if detected
            else 0.0
        ),
        "mean_commands": (
            sum(cell.commands_issued for cell in cells) / len(cells)
            if cells
            else 0.0
        ),
    }


def streamed_row_errors(
    row: dict[str, Any], cells: Sequence[CellDigest]
) -> list[str]:
    """The parts of a row checkable from verdict-only (streamed) cells."""
    detected = [cell for cell in cells if cell.found_bug]
    expected = {
        "runs": len(cells),
        "detections": len(detected),
        "kinds": sorted({cell.kind for cell in detected}),
    }
    return [
        f"row {row['variant']}: {key} {row[key]!r} != cells {value!r}"
        for key, value in expected.items()
        if row[key] != value
    ]


@dataclass
class RequestCheck:
    """Accumulates the oracle's verdict over a run's requests.

    ``known_ticks`` maps ``(scenario, seed)`` to the tick count a cell
    must reproduce (the stratified seed catalogue).
    """

    known_ticks: dict[tuple[str, int], int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, cells: int, message: str) -> None:
        # Capped: one cell can miss several checks (verdict and golden).
        self.failed = min(self.failed + cells, self.attempted)
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_request(
        self,
        spec: Any,
        cells: Sequence[CellDigest] | None,
        rows: Sequence[dict[str, Any]] | None,
    ) -> None:
        """Hold one request's cells and rows to the oracle.  ``cells``
        or ``rows`` of ``None`` mean the request raised."""
        expected_cells = len(spec.seeds)
        self.attempted += expected_cells
        if cells is None or rows is None:
            self.fail(expected_cells, f"{spec.scenario}: request failed")
            return
        bad = [error for error in map(self.cell_error, cells) if error]
        if [cell.seed for cell in cells] != list(spec.seeds):
            self.fail(expected_cells, f"{spec.scenario}: cells != seeds")
            return
        if len(rows) != 1:
            self.fail(expected_cells, f"{spec.scenario}: {len(rows)} rows")
            return
        row = rows[0]
        if cells and cells[0].ticks is not None:
            want = expected_row(spec.scenario, cells)
            row_errors = [] if row == want else [f"row {row} != {want}"]
        else:
            row_errors = streamed_row_errors(row, cells)
        if row_errors:
            self.fail(expected_cells, row_errors[0])
        elif bad:
            self.fail(len(bad), bad[0])

    def cell_error(self, cell: CellDigest) -> str | None:
        want = self.known_ticks.get((cell.scenario, cell.seed))
        if want is not None and cell.ticks is not None and cell.ticks != want:
            return (
                f"{cell.scenario} seed={cell.seed}: {cell.ticks} ticks, "
                f"catalogued {want}"
            )
        return verdict_error(cell)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def detections_digest(detections: Iterable[dict[str, Any]]) -> str:
    text = json.dumps(list(detections), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(
    spec: Any,
    cells: Sequence[CellDigest],
    rows: Sequence[dict[str, Any]],
    detections: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    return {
        "scenario": spec.scenario,
        "seeds": list(spec.seeds),
        "cells": [cell.golden() for cell in cells],
        "rows": list(rows),
        "detections_sha256": detections_digest(detections),
    }


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, list[dict[str, Any]]]:
    return json.loads(path.read_text(encoding="utf-8"))


def golden_errors(
    expected: Sequence[dict[str, Any]], observed: Sequence[dict[str, Any]]
) -> list[str]:
    """One message per golden request that differs, naming the fields."""
    if len(expected) != len(observed):
        return [f"{len(observed)} golden requests, expected {len(expected)}"]
    errors = []
    for index, (want, got) in enumerate(zip(expected, observed)):
        keys = [key for key in want if want[key] != got.get(key)]
        if keys:
            errors.append(
                f"golden request {index} ({want['scenario']}): {', '.join(keys)}"
            )
    return errors
