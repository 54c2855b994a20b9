#!/usr/bin/env python3
"""End-to-end campaign benchmark for the pTest reproduction.

    python3 perfbench/run.py --workload tick_heavy --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.py``; why each was chosen is in
``perfbench/interactions.json``): ``tick_heavy``, serial 4-seed requests
alternating ``clean_spin`` and ``priority_inversion``;
``pattern_heavy``, 16-seed ``quicksort_stress`` requests on a 2-worker
pool; ``served_mix``, 24-seed requests cycling five short scenarios over
one client connection to an in-process ``repro.serve`` server.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` over
a closed loop of ``--seconds`` (whole scenario cycles), one client:

* ``cells_per_s``: completed cells per wall second of the loop;
* ``request_ms_p50``: request latency (send to ``done`` frame, or around
  ``execute_spec``), the median per scenario averaged over the
  workload's scenarios (see :func:`perfbench.stats.mix_median`);
* ``first_result_ms_p50``: request start to the first streamed cell,
  summarised the same way;
* ``setup_s``: median over fresh processes of launch to the end of one
  warm-up request (import, pool spawn, server start included);
* ``peak_rss_mib``: peak RSS of this process plus its pool workers.

Every timing is host-speed calibrated (``perfbench/calibrate.py``): a
fixed reference loop, run between requests for 5% of the loop and
before each setup probe, gives the host's current speed, and timings
are scaled to a nominal reference speed so that the shared host's drift
cancels out (``cells_per_s`` by the run's speed, each request's latency
by the speed measured next to it).  The raw values are printed on a
``raw`` line.

It also prints ``request_ms_p90`` where at least ten samples lie beyond
it, and ``failed_frac`` (the JSON's ``failed / attempted``).

``--trace 1`` instead runs a fixed set of requests with spans around
every layer and prints the per-layer table and metrics (see
``perfbench/traced.py``), each with the end-to-end metric it should move
(``perfbench/interactions.json``).  Both modes hold every cell to the
oracle (``perfbench/oracle.py``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every cell passed the oracle.

Other modes: ``--write-golden`` re-pins ``catalogue.json`` and
``golden.json`` from the current code; ``--setup-probe`` is the child
process that ``setup_s`` times.  ``perfbench/steady.py`` reruns every
workload to check the spreads; tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
#: Reference chunks run before each setup probe to calibrate ``setup_s``.
SETUP_CHUNKS = 10


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    # Replace the script directory with the checkout root (for the
    # perfbench package) and src/ (for repro).
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


_bootstrap()

from perfbench import oracle, stats, traced  # noqa: E402
from perfbench.calibrate import NOMINAL_MS, Calibration  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CATALOGUE_PATH,
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    build_catalogue,
    closed_loop,
    known_ticks,
    load_catalogue,
    open_runner,
    run_direct,
)


def _catalogue(workload: Workload) -> dict | None:
    return load_catalogue() if workload.stratified else None


def _served_vs_direct(served, direct, check: oracle.RequestCheck) -> None:
    """Served rows and cell verdicts must equal a direct run's."""
    same = (
        served.error is None
        and direct.error is None
        and served.rounds == direct.rounds
        and [c.verdict() for c in served.cells] == [c.verdict() for c in direct.cells]
    )
    if not same:
        check.fail(len(served.spec.seeds), f"{served.spec.scenario}: served != direct")


def golden_pass(runner, workload: Workload, check: oracle.RequestCheck) -> list:
    """Run the golden requests (also the warm-up) and hold them to the
    oracle; returns their golden entries as observed."""
    catalogue = _catalogue(workload)
    observed = []
    for index in range(workload.golden_requests):
        spec = workload.spec(DEFAULT_SEED, index, catalogue)
        record = runner.run(spec)
        check.check_request(spec, record.cells, record.rows)
        full = record
        if workload.served:
            full = run_direct(spec)
            _served_vs_direct(record, full, check)
        observed.append(
            {}
            if full.error
            else oracle.golden_entry(spec, full.cells, full.rows, full.detections)
        )
    return observed


def check_golden(
    workload: Workload, observed: list, check: oracle.RequestCheck
) -> None:
    try:
        expected = oracle.load_golden()[workload.name]
    except (OSError, KeyError, ValueError) as error:
        check.fail(1, f"no golden entries for {workload.name}: {error!r}")
        return
    for error in oracle.golden_errors(expected, observed):
        check.fail(workload.seeds_per_request, error)


def setup_probe(workload: Workload) -> float:
    """Seconds from launching a fresh process to the end of its first
    (warm-up) request: import, pool spawn, server start included."""
    start = time.perf_counter()
    with subprocess.Popen(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--setup-probe",
            "--workload",
            workload.name,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def _probe_main(workload: Workload) -> int:
    runner = open_runner(workload)
    runner.setup()
    try:
        record = runner.run(workload.spec(DEFAULT_SEED, 0, _catalogue(workload)))
        print("ready" if record.error is None else f"error {record.error}", flush=True)
    finally:
        runner.close()
    return 0


def measure(workload: Workload, seed: int, seconds: float):
    """The untraced run: returns (check, metrics, report lines)."""
    # Each probe's time with the calibration of the chunks just before it.
    setup = []
    for _ in range(SETUP_PROBES):
        before = Calibration()
        for _ in range(SETUP_CHUNKS):
            before.chunk()
        setup.append((setup_probe(workload), before))
    catalogue = _catalogue(workload)
    check = oracle.RequestCheck(known_ticks(catalogue) if catalogue else {})
    calibration = Calibration()
    runner = open_runner(workload)
    runner.setup()
    try:
        check_golden(workload, golden_pass(runner, workload, check), check)
        records, wall_ns = closed_loop(
            runner, workload, seed, seconds, catalogue, calibration
        )
        for record in records:
            check.check_request(record.spec, record.cells, record.rows)
        if workload.served:
            # Served rows must equal direct rows: one request per scenario.
            for record in records[: workload.cycle]:
                _served_vs_direct(record, run_direct(record.spec), check)
        rss = stats.peak_rss_mib()
    finally:
        runner.close()
    # Each done request with its local calibration factor.
    done = [
        (record, calibration.local_factor(index))
        for index, record in enumerate(records)
        if record.error is None
    ]
    cells = sum(len(record.spec.seeds) for record, _ in done)
    latencies = [record.latency_ms * local for record, local in done]
    raw = {
        "cells_per_s": cells / (wall_ns / 1e9),
        "request_ms_p50": stats.mix_median(
            [(record.spec.scenario, record.latency_ms) for record, _ in done]
        ),
        "first_result_ms_p50": stats.mix_median(
            [(record.spec.scenario, record.first_ms) for record, _ in done]
        ),
        "setup_s": statistics.median(seconds for seconds, _ in setup),
    }
    metrics = {
        "cells_per_s": raw["cells_per_s"] / calibration.factor(),
        "request_ms_p50": stats.mix_median(
            [(record.spec.scenario, record.latency_ms * local) for record, local in done]
        ),
        "first_result_ms_p50": stats.mix_median(
            [(record.spec.scenario, record.first_ms * local) for record, local in done]
        ),
        "setup_s": statistics.median(
            seconds * before.factor() for seconds, before in setup
        ),
        "peak_rss_mib": rss,
    }
    try:
        p90 = (
            f"{stats.tail_percentile(latencies, 0.9):.2f} ms "
            f"(n={len(latencies)})"
        )
    except stats.InsufficientSamples as refused:
        p90 = f"not reported: {refused}"
    lines = [
        f"requests {len(records)} ({len(done)} done), cells {cells}, "
        f"wall {wall_ns / 1e9:.2f} s, closed loop, 1 client",
        f"calibration: reference chunk {calibration.mean_ms():.3f} ms mean over "
        f"{len(calibration.samples_ns)}, nominal {NOMINAL_MS} ms; "
        "timings below are scaled to nominal",
        "raw " + " ".join(f"{name}={value:.4f}" for name, value in raw.items()),
        "setup_s samples (raw s @ chunk ms) "
        + ", ".join(f"{seconds:.3f}@{before.mean_ms():.2f}" for seconds, before in setup),
        f"request_ms_p90 {p90}",
    ]
    return check, metrics, lines


def trace(workload: Workload, seed: int):
    """The traced run: returns (check, per-layer metrics, report lines)."""
    from repro.ptest.pool import pool_telemetry

    catalogue = _catalogue(workload)
    check = oracle.RequestCheck(known_ticks(catalogue) if catalogue else {})
    recorder = SpanRecorder()
    runner = open_runner(workload)
    runner.setup()
    try:
        check_golden(workload, golden_pass(runner, workload, check), check)
        if workload.served:
            runner.recorder = recorder
        specs = [
            workload.spec(seed, index, catalogue)
            for index in range(workload.traced_requests)
        ]
        phases = traced.run_traced(workload, runner, specs, check, recorder)
        for record in phases["records"]:
            check.check_request(record.spec, record.cells, record.rows)
        spawns = sum(pool["spawns"] for pool in pool_telemetry())
    finally:
        runner.close()
    metrics = traced.layer_metrics(recorder, phases, spawns)
    path = traced.write_spans(recorder, BENCH / "out", f"{workload.name}-seed{seed}")
    lines = [
        traced.layer_table(recorder, phases),
        traced.shape_line(recorder, phases),
        f"spans written to {path.relative_to(ROOT)}",
    ]
    return check, metrics, lines


def _interaction_notes() -> dict[str, str]:
    """Per-layer metric -> what it should move, from interactions.json."""
    rows = json.loads((BENCH / "interactions.json").read_text(encoding="utf-8"))
    notes = {}
    for row in rows["per_layer"]:
        moves = ", ".join(f"{m['metric']}@{m['workload']}" for m in row["moves"])
        flat = f"; flat on {', '.join(row['flat_on'])}" if row["flat_on"] else ""
        notes[row["metric"]] = f"moves {moves}{flat}" if moves else row.get("note", "")
    return notes


def write_golden() -> int:
    """Re-pin the ground truth from the current code: the stratified
    seed catalogue first (golden requests draw from it), then the
    golden requests of every workload."""
    stratified = sorted({s for w in WORKLOADS.values() for s in w.stratified})
    catalogue = {scenario: build_catalogue(scenario) for scenario in stratified}
    CATALOGUE_PATH.write_text(json.dumps(catalogue) + "\n", encoding="utf-8")
    entries = {}
    for workload in WORKLOADS.values():
        check = oracle.RequestCheck()
        runner = open_runner(workload)
        runner.setup()
        try:
            entries[workload.name] = golden_pass(runner, workload, check)
        finally:
            runner.close()
        if check.failed:
            print(f"{workload.name}: oracle failed: {check.errors}", file=sys.stderr)
            return 1
    oracle.GOLDEN_PATH.write_text(
        json.dumps(entries, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {oracle.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return _probe_main(workload)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("provenance " + json.dumps(stats.provenance(ROOT), sort_keys=True))
    if args.trace:
        check, metrics, lines = trace(workload, args.seed)
    else:
        check, metrics, lines = measure(workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(
        f"failed_frac {check.failed_frac:.4f} "
        f"({check.failed} of {check.attempted} cells)"
    )
    notes = _interaction_notes() if args.trace else {}
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"{name:<32}{metrics[name]:>14.4f} {unit:<6}{note}".rstrip())
    for error in check.errors:
        print(f"oracle: {error}")
    print(
        json.dumps(
            {
                "correct": check.failed == 0,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
