"""The traced run: per-layer self times and counts for one workload.

Spans are recorded around the public entry points of each layer, from
this file, by temporarily wrapping them (:class:`perfbench.spans.
Instrumentation`); nothing under ``src/`` knows it is being traced.

Pool workers are separate processes, so their spans could not reach
this one.  For pool workloads the traced run therefore has two phases:

1. **Real run.**  The workload's requests go through the real warm pool
   (and server) with only parent-side spans installed — ``execute_spec``,
   ``WorkerPool.submit_tagged``, the executor's waits on pool futures
   and the client round trip — plus the executor's batch shapes.
2. **Replay.**  The same requests' batches are re-run in this process
   through the same public ``make_batch_table`` + ``run_table_batch``
   calls, batch sizes (``CellExecutor.last_batch_size``) and knobs the
   workers used: once untraced, for the overhead baseline, then with
   every layer's spans installed.  Replayed cells must match the real
   run's cells.

The serial workload runs in this process anyway: its requests run once
untraced and once with every span installed.
"""

from __future__ import annotations

import json
import pickle
import time
from functools import partial
from pathlib import Path
from typing import Any

from perfbench.oracle import CellDigest, RequestCheck
from perfbench.spans import Instrumentation, SpanRecorder, traced
from perfbench.workloads import RequestRecord, Workload, run_direct

#: Spans whose self time and call count are per-layer metrics.
LAYER_SPANS = (
    "sim.soc_step",
    "sim.trace_record",
    "bridge.step",
    "pcore.kernel_step",
    "pcore.enqueue",
    "harness.run",
    "committer.step",
    "recording.note",
    "generator.sample",
    "merger.merge",
    "pool.run_table_batch",
    "detector.sweep",
    "workloads.build",
    "spec.execute",
)


def layer_targets(recorder: SpanRecorder) -> list[tuple[Any, str, Any]]:
    """Every in-process layer's entry points, as span targets."""
    from repro.bridge.bridge import SlaveBridgeAdapter
    from repro.pcore.kernel import PCoreKernel
    from repro.pcore.scheduler import PriorityScheduler
    from repro.ptest import pool
    from repro.ptest.committer import Committer
    from repro.ptest.detector import BugDetector
    from repro.ptest.generator import BatchPatternStream, PatternGenerator
    from repro.ptest.harness import AdaptiveTest
    from repro.ptest.merger import PatternMerger
    from repro.ptest.recording import ProcessStateRecorder
    from repro.sim.soc import DualCoreSoC
    from repro.sim.trace import Tracer
    from repro.workloads.registry import REGISTRY

    spans = [
        (DualCoreSoC, "step", "sim.soc_step"),
        (Tracer, "record", "sim.trace_record"),
        (SlaveBridgeAdapter, "step", "bridge.step"),
        (PCoreKernel, "step", "pcore.kernel_step"),
        (PriorityScheduler, "enqueue", "pcore.enqueue"),
        (AdaptiveTest, "run", "harness.run"),
        (Committer, "step", "committer.step"),
        (ProcessStateRecorder, "note_slave_state", "recording.note"),
        (BugDetector, "sweep", "detector.sweep"),
        (PatternGenerator, "generate_batch", "generator.sample"),
        (BatchPatternStream, "generate_batch", "generator.sample"),
        (PatternMerger, "merge", "merger.merge"),
        (PatternMerger, "merge_batch", "merger.merge"),
        (pool, "run_table_batch", "pool.run_table_batch"),
    ]
    # ScenarioRegistry.build and the worker cache both call the
    # registered builder, so the builders themselves are wrapped.
    spans += [(spec, "builder", "workloads.build") for spec in REGISTRY]
    return [
        (owner, attr, partial(traced, recorder, name)) for owner, attr, name in spans
    ]


class _TimedFuture:
    """A pool future whose ``result()`` is an ``executor.wait`` span and
    whose result's pickled size counts toward ``executor.bytes_in``."""

    def __init__(self, future, recorder: SpanRecorder):
        self._future = future
        self._recorder = recorder

    def result(self, timeout=None):
        recorder = self._recorder
        frame = recorder.enter("executor.wait")
        try:
            value = self._future.result(timeout)
        finally:
            recorder.exit(frame)
        _measure(recorder, "executor.bytes_in", value)
        return value

    def __getattr__(self, name):
        return getattr(self._future, name)


def _measure(recorder: SpanRecorder, counter: str, value: Any) -> None:
    # Pickling to size a payload is the benchmark's own work: its time
    # is a span of its own, never charged to the layer around it.
    frame = recorder.enter("bench.measure")
    try:
        recorder.count(counter, len(pickle.dumps(value)))
    finally:
        recorder.exit(frame)


def parent_targets(
    recorder: SpanRecorder, batch_sizes: list[int | None]
) -> list[tuple[Any, str, Any]]:
    """Parent-side spans of a pool run; ``batch_sizes`` collects each
    request's ``CellExecutor.last_batch_size``."""
    import repro.serve
    from repro.ptest import spec
    from repro.ptest.executor import CellExecutor
    from repro.ptest.pool import WorkerPool

    def wrap_submit(submit_tagged):
        def wrapper(self, fn, *args):
            frame = recorder.enter("executor.submit")
            try:
                future, pool_id = submit_tagged(self, fn, *args)
            finally:
                recorder.exit(frame)
            recorder.count("executor.submits")
            _measure(recorder, "executor.bytes_out", (fn, *args))
            return _TimedFuture(future, recorder), pool_id

        return wrapper

    def wrap_run_cells(run_cells):
        def wrapper(self, *args, **kwargs):
            try:
                return run_cells(self, *args, **kwargs)
            finally:
                batch_sizes.append(self.last_batch_size)
                recorder.count("executor.batches", self.batches_submitted)

        return wrapper

    execute = partial(traced, recorder, "spec.execute")
    return [
        (spec, "execute_spec", execute),
        (repro.serve, "execute_spec", execute),
        (WorkerPool, "submit_tagged", wrap_submit),
        (CellExecutor, "run_cells", wrap_run_cells),
    ]


def replay(
    records: list[RequestRecord], batch_sizes: list[int | None]
) -> list[list[Any]]:
    """Re-run each request's batches in this process, as the workers
    ran them; returns each request's ``TestRunResult``s."""
    from repro.ptest import pool
    from repro.workloads.registry import scenario_ref

    # Both passes start from a cold cache, like a freshly spawned worker
    # (and no cached entry may hold an unwrapped builder).
    pool.clear_worker_cache()
    out = []
    for record, size in zip(records, batch_sizes):
        spec = record.spec
        ref = scenario_ref(spec.scenario, **dict(spec.params))
        size = size or len(spec.seeds)
        results = []
        for start in range(0, len(spec.seeds), size):
            seeds = spec.seeds[start : start + size]
            table, jobs = pool.make_batch_table([ref] * len(seeds), seeds)
            results.extend(
                pool.run_table_batch(
                    table, jobs, spec.batch_sampling, spec.merge_batch
                )
            )
        out.append(results)
    pool.clear_worker_cache()
    return out


def _check_replay(
    check: RequestCheck,
    record: RequestRecord,
    results: list[Any],
) -> None:
    spec = record.spec
    replayed = [
        CellDigest.of(spec.scenario, seed, result)
        for seed, result in zip(spec.seeds, results)
    ]
    real = record.cells or []
    streamed = bool(real) and real[0].ticks is None
    same = len(real) == len(replayed) and all(
        (a.verdict() == b.verdict()) if streamed else a == b
        for a, b in zip(real, replayed)
    )
    if not same:
        check.fail(len(spec.seeds), f"{spec.scenario}: replay != real run")


def run_traced(
    workload: Workload,
    runner: Any,
    specs: list[Any],
    check: RequestCheck,
    recorder: SpanRecorder,
) -> dict[str, Any]:
    """Trace ``specs`` on a set-up ``runner``; returns the phase timings
    and the in-process results the layer counts come from."""
    batch_sizes: list[int | None] = []
    records: list[RequestRecord] = []
    if workload.workers == 1:
        start = time.perf_counter_ns()
        untraced = [run_direct(spec) for spec in specs]
        untraced_ns = time.perf_counter_ns() - start
        results: list[Any] = []
        start = time.perf_counter_ns()
        with Instrumentation(
            layer_targets(recorder) + parent_targets(recorder, batch_sizes)
        ):
            records = _run_requests(
                recorder, partial(run_direct, results=results), specs
            )
        traced_ns = time.perf_counter_ns() - start
        for before, after in zip(untraced, records):
            if before.cells != after.cells:
                check.fail(len(after.spec.seeds), "traced cells != untraced")
        return {
            "untraced_ns": untraced_ns,
            "traced_ns": traced_ns,
            "total_ns": traced_ns,
            "records": records,
            "results": results,
        }
    start = time.perf_counter_ns()
    with Instrumentation(parent_targets(recorder, batch_sizes)):
        records = _run_requests(recorder, runner.run, specs)
    real_ns = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    replay(records, batch_sizes)
    untraced_ns = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    with Instrumentation(layer_targets(recorder)):
        replayed = replay(records, batch_sizes)
    traced_ns = time.perf_counter_ns() - start
    for record, results in zip(records, replayed):
        _check_replay(check, record, results)
    return {
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "total_ns": real_ns + traced_ns,
        "records": records,
        "results": [result for results in replayed for result in results],
    }


def _run_requests(recorder, run, specs) -> list[RequestRecord]:
    """Run ``specs`` one by one, tagging spans with the request index."""
    records = []
    for index, spec in enumerate(specs):
        recorder.request = index
        records.append(run(spec))
    recorder.request = None
    return records


def layer_metrics(
    recorder: SpanRecorder, phases: dict[str, Any], spawns: int
) -> dict[str, float]:
    """The per-layer metrics, by the names in ``BENCHMARK.json``."""
    results = phases["results"]
    ticks = sum(result.ticks for result in results)
    metrics: dict[str, float] = {"sim.ticks": ticks}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_ms"] = recorder.self_ms(name)
        metrics[f"{name}.calls"] = recorder.calls(name)
    counters = recorder.counters
    frames = [frame for record in phases["records"] for frame in record.frames]
    metrics.update(
        {
            "sim.host_ns_per_tick": phases["untraced_ns"] / ticks if ticks else 0.0,
            "committer.commands": sum(r.commands_issued for r in results),
            "committer.stalls": sum(r.command_stalls for r in results),
            "detector.detections": sum(r.found_bug for r in results),
            "executor.batches": counters.get("executor.batches", 0),
            "executor.resubmits": counters.get("executor.submits", 0)
            - counters.get("executor.batches", 0),
            "executor.wait_ms": recorder.self_ms("executor.wait"),
            "executor.bytes_out": counters.get("executor.bytes_out", 0),
            "executor.bytes_in": counters.get("executor.bytes_in", 0),
            "pool.spawns": spawns,
            "serve.frames": len(frames),
            "serve.bytes": sum(len(json.dumps(frame)) + 1 for frame in frames),
            "serve.stream_ms": recorder.self_ms("client.request"),
            "trace.overhead_ratio": phases["traced_ns"] / phases["untraced_ns"],
            "unattributed.self_ms": (
                phases["total_ns"] - recorder.total_self_ns()
            )
            / 1e6,
        }
    )
    return metrics


def layer_table(recorder: SpanRecorder, phases: dict[str, Any]) -> str:
    """Self time, share of the traced total and calls, per span name."""
    total_ns = phases["total_ns"]
    rows = sorted(
        recorder.stats.items(), key=lambda item: item[1].self_ns, reverse=True
    )
    lines = [f"{'layer':<24}{'self ms':>12}{'share':>9}{'calls':>11}"]
    for name, stats in rows:
        lines.append(
            f"{name:<24}{stats.self_ns / 1e6:>12.1f}"
            f"{100 * stats.self_ns / total_ns:>8.1f}%{stats.calls:>11}"
        )
    unattributed = total_ns - recorder.total_self_ns()
    lines.append(
        f"{'unattributed':<24}{unattributed / 1e6:>12.1f}"
        f"{100 * unattributed / total_ns:>8.1f}%{'':>11}"
    )
    lines.append(f"{'traced total':<24}{total_ns / 1e6:>12.1f}{100.0:>8.1f}%")
    lines.append(
        f"tracing overhead: {phases['traced_ns'] / phases['untraced_ns']:.2f}x "
        f"({phases['untraced_ns'] / 1e6:.0f} ms untraced vs "
        f"{phases['traced_ns'] / 1e6:.0f} ms traced, same cells)"
    )
    if recorder.dropped:
        lines.append(f"spans kept: {len(recorder.spans)}, dropped: {recorder.dropped}")
    return "\n".join(lines)


#: Span groups whose shares check the workloads' predicted shape.
SHAPE_GROUPS = {
    "tick loop (sim/bridge/pcore/harness)": ("sim.", "bridge.", "pcore.", "harness."),
    "pattern plane (generator/merger/run_table_batch)": (
        "generator.",
        "merger.",
        "pool.run_table_batch",
    ),
    "serve (client round trip minus execute_spec)": ("client.request",),
}


def shape_line(recorder: SpanRecorder, phases: dict[str, Any]) -> str:
    """Each shape group's share of the traced total, on one line."""
    total_ns = phases["total_ns"]
    shares = []
    for label, prefixes in SHAPE_GROUPS.items():
        self_ns = sum(
            stats.self_ns
            for name, stats in recorder.stats.items()
            if name.startswith(prefixes)
        )
        shares.append(f"{label} {100 * self_ns / total_ns:.1f}%")
    return "shape: " + " | ".join(shares)


def write_spans(recorder: SpanRecorder, out_dir: Path, label: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{label}.jsonl"
    recorder.write(path)
    return path
