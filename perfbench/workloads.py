"""The benchmark's workloads and the two ways it sends them.

Every request is one :class:`~repro.ptest.spec.CampaignSpec`: one
registered scenario at its default parameters, swept over seeds derived
from the workload seed (``--seed``) and the request's index, so the same
seed always sends the same requests.  Load is a closed loop from one
process: the next request goes out when the previous reply is in.

* :class:`DirectRunner` calls :func:`~repro.ptest.spec.execute_spec`
  with a sink that timestamps the first streamed cell.
* :class:`ServedRunner` sends the spec over one
  :class:`~repro.client.Client` connection to a ``repro.serve`` server
  on a thread of this process, with ``stream_cells=True``.

``quicksort_stress`` cells cost anywhere from 200 to 5,000+ ticks
depending on the seed, so a plain random draw of 16 seeds makes request
latency swing by a third from one request to the next.  Its requests
are therefore *stratified*: ``catalogue.json`` holds 384 seeds sorted by
tick count into 16 strata, and every request draws one seed per stratum
(the draw comes from ``--seed``).  Each cell's ticks must then equal the
catalogue's, which doubles as an oracle on any seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.calibrate import Calibration
from perfbench.oracle import CellDigest
from perfbench.spans import SpanRecorder

CATALOGUE_PATH = Path(__file__).with_name("catalogue.json")

#: The workload seed whose first requests are pinned in ``golden.json``.
DEFAULT_SEED = 0

STRATA = 16
#: Middle strata first: the first batch a pool worker finishes (what
#: ``first_result_ms_p50`` times) then holds two mid-cost cells, and
#: the batches that follow pair a cheaper stratum with a dearer one.
STRATUM_ORDER = (7, 8, 6, 9, 5, 10, 4, 11, 3, 12, 2, 13, 1, 14, 0, 15)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Scenarios cycled request by request.
    scenarios: tuple[str, ...]
    seeds_per_request: int
    #: ``CampaignSpec.workers``; 1 is the spec default (serial).
    workers: int
    served: bool
    #: Requests of :data:`DEFAULT_SEED` checked against ``golden.json``
    #: at the start of every run (they double as the warm-up).
    golden_requests: int
    #: Requests the traced run executes.
    traced_requests: int
    #: Scenarios whose seeds come from the tick-stratified catalogue.
    stratified: tuple[str, ...] = ()

    @property
    def cycle(self) -> int:
        return len(self.scenarios)

    def spec(self, seed: int, index: int, catalogue: dict | None = None):
        from repro.ptest.spec import CampaignSpec

        scenario = self.scenarios[index % len(self.scenarios)]
        seeds = request_seeds(self, seed, index, scenario, catalogue)
        if self.workers == 1:
            return CampaignSpec(scenario=scenario, seeds=seeds)
        return CampaignSpec(scenario=scenario, seeds=seeds, workers=self.workers)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tick_heavy",
            scenarios=("clean_spin", "priority_inversion"),
            seeds_per_request=4,
            workers=1,
            served=False,
            golden_requests=2,
            traced_requests=8,
        ),
        Workload(
            name="pattern_heavy",
            scenarios=("quicksort_stress",),
            seeds_per_request=STRATA,
            workers=2,
            served=False,
            golden_requests=1,
            traced_requests=2,
            stratified=("quicksort_stress",),
        ),
        Workload(
            name="served_mix",
            scenarios=(
                "philosophers",
                "barrier",
                "pipeline",
                "producer_consumer",
                "readers_writers",
            ),
            seeds_per_request=24,
            workers=2,
            served=True,
            golden_requests=5,
            traced_requests=10,
        ),
    )
}


def request_seeds(
    workload: Workload,
    seed: int,
    index: int,
    scenario: str,
    catalogue: dict | None = None,
) -> tuple[int, ...]:
    """The seeds of request ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    if scenario in workload.stratified:
        strata = (catalogue or load_catalogue())[scenario]
        return tuple(rng.choice(strata[j])[0] for j in STRATUM_ORDER)
    return tuple(rng.randrange(2**31) for _ in range(workload.seeds_per_request))


def load_catalogue(path: Path = CATALOGUE_PATH) -> dict[str, list]:
    return json.loads(path.read_text(encoding="utf-8"))


def known_ticks(catalogue: dict[str, list]) -> dict[tuple[str, int], int]:
    """``(scenario, seed) -> ticks`` for every catalogued seed."""
    return {
        (scenario, seed): ticks
        for scenario, strata in catalogue.items()
        for stratum in strata
        for seed, ticks in stratum
    }


def build_catalogue(scenario: str, size: int = 384) -> list[list[list[int]]]:
    """Run ``size`` seeds of ``scenario`` and split them by tick count
    into :data:`STRATA` equal strata of ``[seed, ticks]`` pairs."""
    from repro.workloads.registry import build_scenario

    rng = random.Random(f"perfbench-catalogue:{scenario}")
    seeds: set[int] = set()
    while len(seeds) < size:
        seeds.add(rng.randrange(2**31))
    measured = sorted(
        (build_scenario(scenario, seed).run().ticks, seed) for seed in seeds
    )
    per = len(measured) // STRATA
    return [
        [[seed, ticks] for ticks, seed in measured[j * per : (j + 1) * per]]
        for j in range(STRATA)
    ]


@dataclass
class RequestRecord:
    """One request's timings and outputs.

    ``cells``/``rows`` are ``None`` when the request raised (``error``).
    """

    spec: Any
    start_ns: int
    end_ns: int
    first_ns: int | None = None
    cells: list[CellDigest] | None = None
    rounds: tuple | None = None
    error: str | None = None
    frames: list[dict] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def first_ms(self) -> float | None:
        if self.first_ns is None:
            return None
        return (self.first_ns - self.start_ns) / 1e6

    @property
    def rows(self) -> list[dict] | None:
        from repro.ptest.spec import row_to_dict

        if self.rounds is None:
            return None
        return [row_to_dict(row) for row in self.rounds[-1].rows]

    @property
    def detections(self) -> list[dict]:
        from repro.ptest.spec import detection_to_dict

        return [
            detection_to_dict(sample)
            for round_ in self.rounds or ()
            for sample in round_.detections
        ]


class _DigestSink:
    """ResultSink: digests each cell and stamps the first one; keeps the
    full results too when given a ``results`` list."""

    def __init__(self, scenario: str, results: list | None = None):
        self.scenario = scenario
        self.results = results
        self.first_ns: int | None = None
        self.cells: list[CellDigest] = []

    def accept(self, cell, result) -> None:
        if self.first_ns is None:
            self.first_ns = time.perf_counter_ns()
        self.cells.append(CellDigest.of(self.scenario, cell.seed, result))
        if self.results is not None:
            self.results.append(result)


def run_direct(spec, results: list | None = None) -> RequestRecord:
    """One request through ``execute_spec``, in this thread."""
    from repro.ptest import spec as spec_module

    sink = _DigestSink(spec.scenario, results)
    start = time.perf_counter_ns()
    try:
        outcome = spec_module.execute_spec(spec, sink)
    except Exception as error:  # a failed request is counted, not fatal
        return RequestRecord(
            spec,
            start,
            time.perf_counter_ns(),
            error=f"{type(error).__name__}: {error}",
        )
    end = time.perf_counter_ns()
    return RequestRecord(
        spec, start, end, sink.first_ns, sink.cells, outcome.rounds
    )


class DirectRunner:
    """Sends requests straight to ``execute_spec`` (warm shared pool
    when the spec has ``workers > 1``)."""

    def __init__(self, workload: Workload):
        self.workload = workload

    def setup(self) -> None:
        if self.workload.workers > 1:
            from repro.ptest.pool import get_pool

            get_pool(self.workload.workers).ping()

    def run(self, spec) -> RequestRecord:
        return run_direct(spec)

    def close(self) -> None:
        from repro.ptest.pool import shutdown_pools

        shutdown_pools()


class ServedRunner:
    """Sends requests over one client connection to an in-process
    ``repro.serve`` server thread, streaming cells."""

    def __init__(self, workload: Workload):
        self.workload = workload
        #: Set by the traced run: each request becomes a
        #: ``client.request`` span and keeps its frames.
        self.recorder: SpanRecorder | None = None
        self.handle = None
        self.client = None

    def setup(self) -> None:
        from repro.client import Client
        from repro.ptest.pool import get_pool
        from repro.serve import start_server_thread

        get_pool(self.workload.workers).ping()
        self.handle = start_server_thread(max_concurrent=1)
        self.client = Client(*self.handle.address, timeout=120.0)
        self.client.connect()
        if not self.client.ping():
            raise RuntimeError("server did not answer ping")

    def run(self, spec) -> RequestRecord:
        from repro.client import ServerError
        from repro.ptest.spec import round_from_dict

        recorder = self.recorder
        span = None
        if recorder is not None:
            span = recorder.enter("client.request")
            recorder.anchor(span)
        record = RequestRecord(spec, time.perf_counter_ns(), 0, cells=[])
        rounds = []
        try:
            for frame in self.client.stream(spec, stream_cells=True):
                kind = frame.get("type")
                if kind == "cell":
                    if record.first_ns is None:
                        record.first_ns = time.perf_counter_ns()
                    record.cells.append(
                        CellDigest(
                            scenario=spec.scenario,
                            seed=frame["seed"],
                            found_bug=frame["found_bug"],
                            kind=frame["kind"],
                        )
                    )
                elif kind == "round":
                    rounds.append(round_from_dict(frame["round"]))
                elif kind == "error":
                    record.error = frame.get("message", "error frame")
                if recorder is not None:
                    record.frames.append(frame)
        except (ServerError, OSError) as error:
            record.error = f"{type(error).__name__}: {error}"
        finally:
            record.end_ns = time.perf_counter_ns()
            if span is not None:
                recorder.anchor(None)
                recorder.exit(span)
        if record.error is not None:
            record.cells = None
        else:
            record.rounds = tuple(rounds)
        return record

    def close(self) -> None:
        from repro.ptest.pool import shutdown_pools

        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.close()
        shutdown_pools()


def closed_loop(
    runner,
    workload: Workload,
    seed: int,
    seconds: float,
    catalogue: dict | None,
    calibration: Calibration | None = None,
) -> tuple[list[RequestRecord], int]:
    """Requests back to back until ``seconds`` have passed, in whole
    scenario cycles (so each scenario sends as many requests); returns
    the records and the wall time in nanoseconds.  With a
    ``calibration``, reference chunks run between requests and their
    time is left out of the returned wall time."""
    records = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    index = 0
    while True:
        records.append(runner.run(workload.spec(seed, index, catalogue)))
        index += 1
        now = time.perf_counter_ns()
        if calibration is not None:
            calibration.keep_up(now - start - calibration.total_ns)
        if index % workload.cycle == 0 and now >= deadline:
            break
    spent = calibration.total_ns if calibration is not None else 0
    return records, time.perf_counter_ns() - start - spent


def open_runner(workload: Workload):
    if workload.served:
        return ServedRunner(workload)
    return DirectRunner(workload)
