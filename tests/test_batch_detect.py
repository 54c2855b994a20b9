"""Replaying recorded wait-for snapshots through the cycle search.

:meth:`~repro.ptest.detector.BugDetector.sweep_batch` promises, for
every snapshot, the sorted waiter tids of ``find_cycle_edges(edges)``
(or ``None``) — the reduction the live sweep applies before it
debounces and reports.  These tests hold that promise over seeded
random digraphs (cyclicity cross-checked against networkx) and the
degenerate shapes (empty sets, self-loops, disjoint multi-cycles),
then cover the recording path end to end: ``record_wait_deltas``
snapshots taken during a real deadlocking run, the snapshot-order
contract, and the :func:`audit_deadlocks` consistency verdicts — for
one run and for every registered scenario.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace

import networkx as nx
import pytest

from repro.ptest.detector import (
    Anomaly,
    AnomalyKind,
    BugDetector,
    DeadlockAudit,
    audit_deadlocks,
)
from repro.ptest.waitgraph import IncrementalWaitForGraph, find_cycle_edges
from repro.workloads.registry import build_scenario, scenario_names
from repro.workloads.scenarios import philosophers_case2


def random_edge_sets(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """``count`` small random digraphs, cyclic and acyclic mixed."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        nodes = rng.randrange(0, 9)
        edges = [
            (rng.randrange(nodes), rng.randrange(nodes))
            for _ in range(rng.randrange(0, 2 * nodes + 1))
        ] if nodes else []
        sets.append(edges)
    return sets


def cycle_tids(edges) -> tuple[int, ...] | None:
    """The per-snapshot reduction, spelled out."""
    cycle = find_cycle_edges(edges)
    return tuple(sorted({edge[0] for edge in cycle})) if cycle else None


class TestFindCyclesBatch:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    def test_matches_scalar_on_random_digraphs(self, seed):
        sets = random_edge_sets(seed, 120)
        tids = BugDetector.sweep_batch(sets)
        assert tids == [cycle_tids(edges) for edges in sets]
        for edges, found in zip(sets, tids):
            assert (found is not None) == (
                not nx.is_directed_acyclic_graph(nx.DiGraph(edges))
            )
        # The sets must hold both outcomes to mean much.
        assert any(found is not None for found in tids)
        assert any(found is None for found in tids)

    def test_degenerate_shapes(self):
        sets = [
            [],  # no edges at all
            [(3, 3)],  # self-loop: a one-edge cycle
            [(0, 1), (1, 2)],  # plain chain
            [(0, 1), (1, 0), (5, 6), (6, 5)],  # two disjoint cycles
            [(2, 1), (1, 2), (0, 1)],  # tail feeding a cycle
            [(-4, -3), (-3, -4)],  # negative node ids
        ]
        assert find_cycle_edges(sets[0]) is None
        assert find_cycle_edges(sets[1]) == [(3, 3)]
        assert find_cycle_edges(sets[2]) is None
        assert BugDetector.sweep_batch(sets) == [
            None,
            (3,),
            None,
            (0, 1),
            (1, 2),
            (-4, -3),
        ]

    def test_empty_batch_and_all_empty_sets(self):
        assert BugDetector.sweep_batch([]) == []
        assert BugDetector.sweep_batch([[], [], []]) == [None, None, None]

    def test_scalar_fallback_is_identical(self, monkeypatch):
        # `import numpy` fails from here on: the search is stdlib-only.
        monkeypatch.setitem(sys.modules, "numpy", None)
        sets = random_edge_sets(42, 60)
        assert BugDetector.sweep_batch(sets) == [
            cycle_tids(edges) for edges in sets
        ]

    def test_cycle_tids_reduction(self):
        sets = [
            [(0, 1), (1, 2)],
            [(7, 3), (3, 7), (1, 7)],
            [(5, 5)],
        ]
        assert BugDetector.sweep_batch(sets) == [None, (3, 7), (5,)]
        # Generators work too: snapshots are consumed once, in order.
        assert BugDetector.sweep_batch(iter(sets)) == [None, (3, 7), (5,)]


class TestSnapshotContract:
    def test_snapshot_feeds_the_scalar_search_in_order(self):
        graph = IncrementalWaitForGraph()
        # Two resources holding a cycle plus a tail; the snapshot must
        # replay through find_cycle_edges to the cached cycle exactly.
        graph._edges_by_resource = {
            "m1": ((1, 2),),
            "m0": ((2, 1), (3, 1)),
        }
        graph._dirty = True
        snapshot = graph.snapshot()
        assert snapshot == ((1, 2), (2, 1), (3, 1))
        assert find_cycle_edges(snapshot) == graph.find_cycle()
        assert BugDetector.sweep_batch([snapshot]) == [(1, 2)]


@dataclass
class _FakeResult:
    """The duck-typed slice of TestRunResult audit_deadlocks reads."""

    anomalies: list
    wait_deltas: tuple = ()


def _deadlock_anomaly(tids: tuple[int, ...]) -> Anomaly:
    return Anomaly(
        kind=AnomalyKind.DEADLOCK,
        detected_at=100,
        description="test deadlock",
        tids=tids,
    )


class TestAuditDeadlocks:
    def test_confirmed_when_a_snapshot_supports_the_report(self):
        result = _FakeResult(
            anomalies=[_deadlock_anomaly((1, 2))],
            wait_deltas=(
                (10, ((1, 2),)),
                (20, ((1, 2), (2, 1))),
            ),
        )
        audit = audit_deadlocks([result])
        assert audit == DeadlockAudit(
            runs=1, snapshots=2, confirmed=1
        )
        assert audit.consistent

    def test_unsupported_report_is_an_inconsistency(self):
        result = _FakeResult(
            anomalies=[_deadlock_anomaly((5, 6))],
            wait_deltas=((10, ((1, 2), (2, 1))),),
        )
        audit = audit_deadlocks([result])
        assert audit.confirmed == 0
        assert audit.unsupported == [(0, (5, 6))]
        assert not audit.consistent

    def test_cycle_without_report_is_informational(self):
        # Legitimate under the confirmation debounce: the cycle showed
        # up in a delta but never survived long enough to report.
        result = _FakeResult(
            anomalies=[],
            wait_deltas=((10, ((1, 2), (2, 1))),),
        )
        audit = audit_deadlocks([result])
        assert audit.cyclic_without_report == 1
        assert audit.consistent

    def test_runs_without_recording_are_counted_but_empty(self):
        audit = audit_deadlocks([_FakeResult(anomalies=[])])
        assert audit == DeadlockAudit(runs=1, snapshots=0)

    def test_scalar_fallback_audit_is_identical(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        results = [
            _FakeResult(
                anomalies=[_deadlock_anomaly((1, 2))],
                wait_deltas=((10, ((1, 2), (2, 1))),),
            ),
            _FakeResult(
                anomalies=[],
                wait_deltas=((5, ((0, 1), (1, 2))),),
            ),
        ]
        assert audit_deadlocks(results) == DeadlockAudit(
            runs=2, snapshots=2, confirmed=1
        )
        # Any iterable of results, consumed once.
        assert audit_deadlocks(iter(results)) == audit_deadlocks(results)


class TestEndToEndRecording:
    @pytest.fixture(scope="class")
    def deadlocked_run(self):
        test = philosophers_case2(seed=0, op="cyclic")
        test.config = replace(test.config, record_wait_deltas=True)
        return test.run()

    def test_deltas_recorded_only_when_asked(self, deadlocked_run):
        assert deadlocked_run.found_bug
        assert deadlocked_run.wait_deltas
        for tick, edges in deadlocked_run.wait_deltas:
            assert isinstance(tick, int)
            assert all(len(edge) == 2 for edge in edges)
        # Off by default: the same scenario records nothing.
        plain = philosophers_case2(seed=0, op="cyclic").run()
        assert plain.found_bug
        assert plain.wait_deltas == ()

    def test_recording_does_not_perturb_the_run(self, deadlocked_run):
        plain = philosophers_case2(seed=0, op="cyclic").run()
        assert plain.ticks == deadlocked_run.ticks
        assert plain.patterns == deadlocked_run.patterns
        assert [a.kind for a in plain.anomalies] == [
            a.kind for a in deadlocked_run.anomalies
        ]

    def test_audit_confirms_the_reported_deadlock(self, deadlocked_run):
        audit = audit_deadlocks([deadlocked_run])
        assert audit.runs == 1
        assert audit.snapshots == len(deadlocked_run.wait_deltas)
        assert audit.confirmed == 1
        assert audit.consistent

    def test_sweep_batch_replays_the_recorded_deltas(self, deadlocked_run):
        snapshots = [edges for _tick, edges in deadlocked_run.wait_deltas]
        tids = BugDetector.sweep_batch(snapshots)
        assert tids == [cycle_tids(edges) for edges in snapshots]
        reported = {
            anomaly.tids
            for anomaly in deadlocked_run.anomalies
            if anomaly.kind is AnomalyKind.DEADLOCK
        }
        found = {cycle for cycle in tids if cycle is not None}
        assert reported <= found


class TestAuditCoverage:
    def test_every_scenario_audits_consistent(self):
        """Every registered scenario × seeds 0-7, recording deltas:
        the audit is consistent everywhere and re-confirms exactly the
        runs that reported a deadlock."""
        confirmed, snapshots = {}, {}
        for name in scenario_names():
            results = []
            for seed in range(8):
                test = build_scenario(name, seed)
                test.config = replace(test.config, record_wait_deltas=True)
                results.append(test.run())
            audit = audit_deadlocks(results)
            assert audit.runs == 8
            assert audit.consistent, (name, audit.unsupported)
            deadlocked = sum(
                any(a.kind is AnomalyKind.DEADLOCK for a in result.anomalies)
                for result in results
            )
            assert audit.confirmed == deadlocked, name
            confirmed[name] = audit.confirmed
            snapshots[name] = audit.snapshots
        assert confirmed["philosophers"] == 8
        assert sum(confirmed.values()) == confirmed["philosophers"]
        # Lock-using clean scenarios record acyclic snapshots, so the
        # audit is not vacuous beyond the deadlocking case.
        assert snapshots["priority_inversion"] > 0
        assert snapshots["readers_writers"] > 0
