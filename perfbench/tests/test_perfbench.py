"""Tests for the benchmark's own code (no pools, no timing)."""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import pytest

from perfbench import calibrate, oracle, stats, traced, workloads
from perfbench.oracle import CellDigest, RequestCheck
from perfbench.spans import Instrumentation, SpanRecorder
from perfbench.spans import traced as span

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


# -- spans and self time --------------------------------------------------


class SoC:
    def __init__(self, clock, kernel_depth=1):
        self.clock = clock
        self.kernel_depth = kernel_depth

    def step(self):
        self.clock.tick(10)
        self.bridge_step()
        self.clock.tick(5)

    def bridge_step(self):
        self.clock.tick(20)
        self.kernel_step(self.kernel_depth)

    def kernel_step(self, depth):
        self.clock.tick(100)
        if depth > 1:
            self.kernel_step(depth - 1)  # recursion: a span inside itself


def _instrumented(recorder):
    return Instrumentation(
        [
            (SoC, "step", partial(span, recorder, "soc.step")),
            (SoC, "bridge_step", partial(span, recorder, "bridge.step")),
            (SoC, "kernel_step", partial(span, recorder, "kernel.step")),
        ]
    )


def test_self_time_of_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with _instrumented(recorder):
        SoC(clock).step()
    assert recorder.stats["soc.step"].self_ns == 15
    assert recorder.stats["bridge.step"].self_ns == 20
    assert recorder.stats["kernel.step"].self_ns == 100
    assert recorder.stats["soc.step"].total_ns == 135
    assert recorder.total_self_ns() == 135
    parents = {s.name: s.parent_id for s in recorder.spans}
    ids = {s.name: s.span_id for s in recorder.spans}
    assert parents["kernel.step"] == ids["bridge.step"]
    assert parents["bridge.step"] == ids["soc.step"]
    assert parents["soc.step"] is None


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with _instrumented(recorder):
        SoC(clock, kernel_depth=3).step()
    kernel = recorder.stats["kernel.step"]
    assert kernel.calls == 3
    assert kernel.self_ns == 300  # each level counted once
    assert kernel.total_ns == 300  # outermost occurrence only
    assert recorder.stats["bridge.step"].self_ns == 20
    assert recorder.total_self_ns() == 335 == recorder.stats["soc.step"].total_ns


def test_instrumentation_restores_originals():
    original = SoC.__dict__["step"]
    with _instrumented(SpanRecorder()):
        assert SoC.__dict__["step"] is not original
    assert SoC.__dict__["step"] is original


def test_anchor_charges_other_thread_spans_to_the_request():
    import threading

    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    request = recorder.enter("client.request")
    recorder.anchor(request)

    def server():
        frame = recorder.enter("spec.execute")
        clock.tick(70)
        recorder.exit(frame)

    clock.tick(5)
    worker = threading.Thread(target=server)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.tick(5)
    recorder.anchor(None)
    recorder.exit(request)
    assert recorder.self_ms("client.request") == pytest.approx(10 / 1e6)
    assert recorder.self_ms("spec.execute") == pytest.approx(70 / 1e6)


def test_spans_beyond_keep_are_counted_not_stored():
    recorder = SpanRecorder(keep=2)
    for _ in range(5):
        recorder.exit(recorder.enter("x"))
    assert len(recorder.spans) == 2 and recorder.dropped == 3
    assert recorder.calls("x") == 5


# -- percentiles ------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(stats.InsufficientSamples):
        stats.tail_percentile(range(1, 100), 0.9)  # 99 samples: 9 beyond p90
    assert stats.tail_percentile(range(1, 101), 0.9) == 90
    with pytest.raises(stats.InsufficientSamples):
        stats.tail_percentile([1.0] * 19, 0.5)


def test_mix_median_is_stable_across_two_modes():
    fast = [("a", 40.0 + i) for i in range(10)]
    slow = [("b", 80.0 + i) for i in range(10)]
    assert stats.mix_median(fast + slow) == pytest.approx((44.5 + 84.5) / 2)
    assert stats.mix_median(fast) == 44.5


def test_calibration_keeps_its_share_and_scales_to_nominal():
    cal = calibrate.Calibration()
    cal.keep_up(0)
    assert len(cal.samples_ns) == 1
    elapsed = int(4 * cal.total_ns / calibrate.SHARE)
    cal.keep_up(elapsed)
    assert len(cal.samples_ns) > 2
    assert cal.total_ns >= calibrate.SHARE * (elapsed + cal.total_ns)
    assert len(cal.groups) == 2 and sum(map(len, cal.groups)) == len(cal.samples_ns)
    cal.samples_ns = [int(2 * calibrate.NOMINAL_MS * 1e6)] * 3  # a host half as fast
    assert cal.factor() == pytest.approx(0.5)


def test_local_factor_uses_only_the_groups_next_to_the_request():
    cal = calibrate.Calibration()
    nominal = int(calibrate.NOMINAL_MS * 1e6)
    # Requests 0-9 ran on a host at nominal speed, 10-19 on one half as fast.
    cal.groups = [[nominal]] * 10 + [[2 * nominal, 2 * nominal]] * 10
    assert cal.local_factor(0) == pytest.approx(1.0)
    assert cal.local_factor(19) == pytest.approx(0.5)
    assert cal.local_factor(10 + calibrate.LOCAL) == pytest.approx(0.5)
    assert 0.5 < cal.local_factor(10) < 1.0


def test_provenance_mismatch_is_reported():
    base = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
            "start_method": "fork", "repro_no_numpy": False, "git_sha": "a"}
    assert stats.comparable(base, dict(base, git_sha="b")) == []
    assert stats.comparable(base, dict(base, start_method="forkserver")) == [
        "start_method"
    ]
    assert stats.comparable(base, dict(base, repro_no_numpy=True)) == [
        "repro_no_numpy"
    ]


# -- the oracle ---------------------------------------------------------------


class Spec:
    def __init__(self, scenario, seeds):
        self.scenario = scenario
        self.seeds = tuple(seeds)


def _cells(scenario, seeds, found, kind, ticks=100):
    return [
        CellDigest(scenario, seed, found, kind, ticks, 3, 50 if found else None)
        for seed in seeds
    ]


def test_matching_request_passes():
    spec = Spec("philosophers", [1, 2])
    cells = _cells("philosophers", [1, 2], True, "deadlock")
    check = RequestCheck()
    check.check_request(spec, cells, [oracle.expected_row("philosophers", cells)])
    assert check.failed == 0 and check.attempted == 2 and check.failed_frac == 0


def test_verdict_mismatch_counts_as_failed():
    spec = Spec("philosophers", [1, 2])
    cells = _cells("philosophers", [1], True, "deadlock") + _cells(
        "philosophers", [2], False, None
    )
    check = RequestCheck()
    check.check_request(spec, cells, [oracle.expected_row("philosophers", cells)])
    assert check.failed == 1 and check.failed_frac == 0.5


def test_false_positive_on_clean_scenario_counts_as_failed():
    spec = Spec("barrier", [7])
    cells = _cells("barrier", [7], True, "deadlock")
    check = RequestCheck()
    check.check_request(spec, cells, [oracle.expected_row("barrier", cells)])
    assert check.failed_frac == 1.0


def test_row_digest_mismatch_fails_the_whole_request():
    spec = Spec("quicksort_stress", [1, 2, 3])
    cells = _cells("quicksort_stress", [1, 2, 3], True, "crash")
    row = dict(oracle.expected_row("quicksort_stress", cells), mean_commands=2.5)
    check = RequestCheck()
    check.check_request(spec, cells, [row])
    assert check.failed == 3 and check.errors


def test_catalogued_tick_mismatch_counts_as_failed():
    spec = Spec("quicksort_stress", [1])
    cells = _cells("quicksort_stress", [1], True, "crash", ticks=101)
    check = RequestCheck(known_ticks={("quicksort_stress", 1): 100})
    check.check_request(spec, cells, [oracle.expected_row("quicksort_stress", cells)])
    assert check.failed == 1


def test_raised_request_counts_every_cell():
    check = RequestCheck()
    check.check_request(Spec("pipeline", [1, 2, 3, 4]), None, None)
    assert (check.attempted, check.failed) == (4, 4)


def test_golden_mismatch_is_reported():
    spec = Spec("pipeline", [1])
    cells = _cells("pipeline", [1], False, None)
    rows = [oracle.expected_row("pipeline", cells)]
    entry = oracle.golden_entry(spec, cells, rows, [])
    assert oracle.golden_errors([entry], [entry]) == []
    changed = dict(entry, cells=[["pipeline", 1, 99, 3, False, None]], rows=[])
    assert oracle.golden_errors([entry], [changed]) == [
        "golden request 0 (pipeline): cells, rows"
    ]


def test_failed_never_exceeds_attempted():
    spec = Spec("philosophers", [1])
    check = RequestCheck()
    check.check_request(spec, _cells("philosophers", [1], False, None), [{}])
    check.fail(1, "golden mismatch for the same cell")
    assert (check.attempted, check.failed) == (1, 1)


# -- workload seeds -------------------------------------------------------------


class RecordingRunner:
    def __init__(self):
        self.specs = []

    def run(self, spec):
        self.specs.append(spec)
        return workloads.RequestRecord(spec, 0, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed_reaches_scenario_seeds(name):
    workload = workloads.WORKLOADS[name]
    catalogue = workloads.load_catalogue()
    sent = {}
    for seed in (0, 1):
        runner = RecordingRunner()
        workloads.closed_loop(runner, workload, seed, 0, catalogue)
        assert len(runner.specs) == workload.cycle
        sent[seed] = [spec.seeds for spec in runner.specs]
        for index, spec in enumerate(runner.specs):
            assert spec.scenario == workload.scenarios[index % workload.cycle]
            assert len(spec.seeds) == workload.seeds_per_request
            assert spec.seeds == workloads.request_seeds(
                workload, seed, index, spec.scenario, catalogue
            )
            assert spec.workers == workload.workers
    assert sent[0] != sent[1]
    again = RecordingRunner()
    workloads.closed_loop(again, workload, 1, 0, catalogue)
    assert [spec.seeds for spec in again.specs] == sent[1]


def test_stratified_requests_take_one_seed_per_stratum():
    workload = workloads.WORKLOADS["pattern_heavy"]
    catalogue = workloads.load_catalogue()
    strata = catalogue["quicksort_stress"]
    seeds = workloads.request_seeds(workload, 3, 0, "quicksort_stress", catalogue)
    for position, seed in zip(workloads.STRATUM_ORDER, seeds):
        assert seed in {entry[0] for entry in strata[position]}


# -- the declared benchmark ---------------------------------------------------------


def test_layer_metrics_cover_benchmark_json_and_interaction_map():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["per_layer"]]
    phases = {"results": [], "records": [], "untraced_ns": 1, "traced_ns": 2,
              "total_ns": 2}
    metrics = traced.layer_metrics(SpanRecorder(), phases, spawns=0)
    assert set(names) <= set(metrics)
    interactions = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    assert [row["metric"] for row in interactions["per_layer"]] == names
    assert set(interactions["workloads"]) == {w["name"] for w in declared["workloads"]}
    assert set(interactions["workloads"]) == set(workloads.WORKLOADS)
