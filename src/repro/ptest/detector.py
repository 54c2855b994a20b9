"""The bug detector.

"The bug detector tracks the progress of test activities until it
detects the potential system failures and then it terminates the test
activity that results in these failures."  It watches four anomaly
classes:

``CRASH``
    The slave kernel panicked (test case 1's GC failure shows up here).
``DEADLOCK``
    A cycle in the wait-for graph built from mutex ownership (test
    case 2's dining philosophers).
``STARVATION``
    A live, unsuspended task whose last progress is older than the
    progress window while the system is otherwise active — the paper's
    "processes ... stay in the same state for a period of time".
``HANG``
    The oldest unanswered remote command exceeds the reply timeout (the
    slave stopped answering the bridge without an observable panic).

The detector "is run as a new process" in the paper; here it is a
component swept every ``interval`` ticks by the harness, which is the
same observational model (sampled, concurrent monitoring) without host
processes.  Wait-for cycles are tracked by an incrementally maintained
:class:`~repro.ptest.waitgraph.IncrementalWaitForGraph`: mutex
``version`` counters tell a sweep which resources' edges moved, and the
cycle search itself runs only when some edge actually changed.  Runs
that record their wait-graph deltas can be re-checked offline with
:func:`audit_deadlocks`.

Each sweep also computes its *alarm* (:attr:`BugDetector.alarm`), the
first tick at which a later sweep could report, so that the harness can
skip the sweep ticks before it while the slave only computes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.bridge.bridge import BridgeMaster
from repro.pcore.kernel import PCoreKernel
from repro.pcore.tcb import TaskState
from repro.ptest.waitgraph import IncrementalWaitForGraph, find_cycle_edges
from repro.sim.trace import CATEGORY_DETECTOR, Tracer


class AnomalyKind(enum.Enum):
    CRASH = "crash"
    DEADLOCK = "deadlock"
    STARVATION = "starvation"
    HANG = "hang"


@dataclass(frozen=True)
class Anomaly:
    """One detected failure."""

    kind: AnomalyKind
    detected_at: int
    description: str
    #: Tasks involved (cycle members, starved task, ...).
    tids: tuple[int, ...] = ()
    #: Resources involved (deadlock cycle edges).
    resources: tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"[{self.detected_at}] {self.kind.value}: {self.description}"
        )


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for the sampled monitors."""

    reply_timeout: int = 400
    progress_window: int = 600
    interval: int = 8
    #: Require the blocked set to be stable across this many sweeps
    #: before declaring deadlock (debounce against transient contention).
    deadlock_confirmations: int = 2
    #: Record a ``(tick, edge-set)`` snapshot on every sweep whose
    #: wait-graph refresh actually changed edges.  The recorded deltas
    #: feed the offline re-check of :func:`audit_deadlocks`.
    record_wait_deltas: bool = False


@dataclass
class BugDetector:
    """Sampled monitor over the kernel and bridge.

    Each :meth:`sweep` sets :attr:`alarm`: the first tick at which a
    later sweep could report, provided that until then only the running
    task's progress fields change (what a compute-only batch does).
    It is the next tick while the kernel is halted, while a wait-for
    cycle awaits its confirming sweep, or while a command is
    unanswered.  Otherwise it is the first tick at which one of the
    tasks the starvation monitor watches would exceed the progress
    window, and ``None`` when it watches none.  The running task is one
    of them; its ``last_progress`` only moves later, so including it
    can only make the alarm early.

    ``sweeps`` counts sweep ticks: the sweeps run, plus those a caller
    skipped because they fell before the alarm (the harness's drain
    adds them), so it equals the count of a run that sweeps them all.
    """

    kernel: PCoreKernel
    bridge: BridgeMaster
    config: DetectorConfig = field(default_factory=DetectorConfig)
    tracer: Tracer | None = None
    anomalies: list[Anomaly] = field(default_factory=list)
    sweeps: int = 0
    #: The last sweep's alarm (class docstring); ``None`` before the
    #: first sweep and when no later sweep could report.
    alarm: int | None = None
    waitgraph: IncrementalWaitForGraph = field(
        default_factory=IncrementalWaitForGraph
    )
    _last_cycle: tuple[int, ...] = ()
    _cycle_streak: int = 0
    _reported: set[tuple] = field(default_factory=set)
    #: ``(tick, edges)`` per changed sweep, when
    #: ``config.record_wait_deltas`` is set.  Edges are stored in the
    #: exact order the cycle search consumes them, so replaying a delta
    #: through :meth:`sweep_batch` reproduces its cycle.
    wait_deltas: list[tuple[int, tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )

    @property
    def triggered(self) -> bool:
        return bool(self.anomalies)

    def first(self, kind: AnomalyKind) -> Anomaly | None:
        for anomaly in self.anomalies:
            if anomaly.kind is kind:
                return anomaly
        return None

    # -- sweep ----------------------------------------------------------------

    def sweep(self, now: int) -> list[Anomaly]:
        """Run all monitors; returns anomalies *new* in this sweep."""
        self.sweeps += 1
        found: list[Anomaly] = []
        found.extend(self._check_crash(now))
        found.extend(self._check_deadlock(now))
        found.extend(self._check_starvation(now))
        found.extend(self._check_hang(now))
        if self.kernel.is_halted() or self._last_cycle or self.bridge.issue_times:
            self.alarm = now + 1
        for anomaly in found:
            self.anomalies.append(anomaly)
            if self.tracer is not None:
                self.tracer.record(
                    now,
                    "ptest",
                    CATEGORY_DETECTOR,
                    kind=anomaly.kind.value,
                    description=anomaly.description,
                )
        return found

    # -- monitors ---------------------------------------------------------------

    def _emit_once(self, key: tuple, anomaly: Anomaly) -> list[Anomaly]:
        if key in self._reported:
            return []
        self._reported.add(key)
        return [anomaly]

    def _check_crash(self, now: int) -> list[Anomaly]:
        if not self.kernel.is_halted():
            return []
        reason = self.kernel.panic_reason or "unknown panic"
        return self._emit_once(
            ("crash",),
            Anomaly(
                kind=AnomalyKind.CRASH,
                detected_at=now,
                description=f"slave kernel panic: {reason}",
            ),
        )

    @staticmethod
    def sweep_batch(
        snapshots: "Iterable[tuple[tuple[int, int], ...]]",
    ) -> "list[tuple[int, ...] | None]":
        """Check many recorded wait-graph snapshots in one call.

        Returns each snapshot's sorted cycle-member tids (the same
        reduction :meth:`_check_deadlock` applies before debouncing) or
        ``None``, from :func:`find_cycle_edges` run per snapshot.
        """
        return [
            tuple(sorted({edge[0] for edge in cycle})) if cycle else None
            for cycle in map(find_cycle_edges, snapshots)
        ]

    def _check_deadlock(self, now: int) -> list[Anomaly]:
        if (
            self.waitgraph.refresh(self.kernel.resources)
            and self.config.record_wait_deltas
        ):
            self.wait_deltas.append((now, self.waitgraph.snapshot()))
        cycle_edges = self.waitgraph.find_cycle()
        if cycle_edges is None:
            self._cycle_streak = 0
            self._last_cycle = ()
            return []
        cycle_tids = tuple(sorted({edge[0] for edge in cycle_edges}))
        if cycle_tids == self._last_cycle:
            self._cycle_streak += 1
        else:
            self._last_cycle = cycle_tids
            self._cycle_streak = 1
        if self._cycle_streak < self.config.deadlock_confirmations:
            return []
        resources = tuple(
            self.waitgraph.resource_of(waiter, owner)
            for waiter, owner in cycle_edges
        )
        names = ", ".join(
            self.kernel.tasks[tid].name if tid in self.kernel.tasks else str(tid)
            for tid in cycle_tids
        )
        return self._emit_once(
            ("deadlock", cycle_tids),
            Anomaly(
                kind=AnomalyKind.DEADLOCK,
                detected_at=now,
                description=(
                    f"wait-for cycle among tasks [{names}] over resources "
                    f"[{', '.join(resources)}]"
                ),
                tids=cycle_tids,
                resources=resources,
            ),
        )

    def _check_starvation(self, now: int) -> list[Anomaly]:
        """Report starved tasks; sets :attr:`alarm` from the oldest
        progress among the tasks it watches."""
        found: list[Anomaly] = []
        window = self.config.progress_window
        oldest: int | None = None
        for task in self.kernel.live_tasks():
            if task.state in (TaskState.SUSPENDED, TaskState.SLEEPING):
                continue  # waiting there is intended, not starvation
            last_progress = task.last_progress
            if oldest is None or last_progress < oldest:
                oldest = last_progress
            age = now - last_progress
            if age <= window:
                continue
            found.extend(
                self._emit_once(
                    ("starvation", task.tid),
                    Anomaly(
                        kind=AnomalyKind.STARVATION,
                        detected_at=now,
                        description=(
                            f"task {task.tid} ({task.name}) made no progress "
                            f"for {age} ticks in state {task.state.value}"
                        ),
                        tids=(task.tid,),
                    ),
                )
            )
        self.alarm = None if oldest is None else oldest + window + 1
        return found

    def wait_for_dot(self) -> str:
        """Render the current wait-for graph as Graphviz DOT.

        Included in bug reports so a deadlock's cycle can be *seen*;
        nodes are task names, edges are labelled with the contested
        resource.
        """
        lines = ["digraph wait_for {", "  rankdir=LR;"]
        tids = set()
        edges = self.kernel.wait_for_edges()
        for waiter, owner, _resource in edges:
            tids.update((waiter, owner))
        for tid in sorted(tids):
            task = self.kernel.tasks.get(tid)
            label = task.name if task is not None else f"tid{tid}"
            state = task.state.value if task is not None else "gone"
            lines.append(f'  t{tid} [label="{label}\\n({state})"];')
        for waiter, owner, resource in edges:
            lines.append(f'  t{waiter} -> t{owner} [label="{resource}"];')
        lines.append("}")
        return "\n".join(lines)

    def _check_hang(self, now: int) -> list[Anomaly]:
        age = self.bridge.oldest_outstanding_age()
        if age is None or age <= self.config.reply_timeout:
            return []
        pending = sorted(self.bridge.outstanding)
        return self._emit_once(
            ("hang", pending[0] if pending else -1),
            Anomaly(
                kind=AnomalyKind.HANG,
                detected_at=now,
                description=(
                    f"command seq {pending[0] if pending else '?'} unanswered "
                    f"for {age} ticks ({len(pending)} outstanding)"
                ),
            ),
        )


@dataclass
class DeadlockAudit:
    """Outcome of re-checking recorded wait-graph deltas offline.

    ``confirmed`` counts runs whose reported deadlock's task set was
    re-found as a cycle in at least one recorded snapshot;
    ``unsupported`` lists ``(run_index, tids)`` for reported deadlocks
    no recorded snapshot supports (an inconsistency worth failing on).
    ``cyclic_without_report`` counts runs where some snapshot held a
    cycle but no deadlock was reported — legitimate under the
    detector's confirmation debounce, so informational only.
    """

    runs: int = 0
    snapshots: int = 0
    confirmed: int = 0
    cyclic_without_report: int = 0
    unsupported: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.unsupported


def audit_deadlocks(results: Iterable) -> DeadlockAudit:
    """Cross-check runs' reported deadlocks against their recorded
    wait-graph deltas.

    Each result must carry ``wait_deltas`` (runs executed with
    ``record_wait_deltas=True``) and ``anomalies``.  Every recorded
    snapshot goes back through :meth:`BugDetector.sweep_batch`.
    """
    audit = DeadlockAudit()
    for index, result in enumerate(results):
        snapshots = [edges for _tick, edges in getattr(result, "wait_deltas", ())]
        audit.runs += 1
        audit.snapshots += len(snapshots)
        found = set(BugDetector.sweep_batch(snapshots)) - {None}
        reported = {
            anomaly.tids
            for anomaly in result.anomalies
            if anomaly.kind is AnomalyKind.DEADLOCK
        }
        if reported and reported <= found:
            audit.confirmed += 1
        elif found and not reported:
            audit.cyclic_without_report += 1
        for tids in sorted(reported - found):
            audit.unsupported.append((index, tids))
    return audit
