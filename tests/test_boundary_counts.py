"""Calls into the tick path's layer boundaries, pinned over fixed cells.

``perfbench/traced.py`` wraps eight tick-path methods by name and
reports each one's call count beside its self time.  Those counts are
the work a speed change must leave unchanged: a faster layer that is
also called less often would be a different change.  The golden
fixtures pin only ticks and the trace length, so this test counts the
calls into all eight, through ``monkeypatch`` wrappers, over a fixed
set of cells and compares them with a literal table.

A deliberate change to one of these counts updates :data:`EXPECTED`
and says so in the change's notes.
"""

from __future__ import annotations

from collections import Counter

from repro.bridge.bridge import SlaveBridgeAdapter
from repro.pcore.kernel import PCoreKernel
from repro.pcore.scheduler import PriorityScheduler
from repro.ptest.committer import Committer
from repro.ptest.detector import BugDetector
from repro.ptest.recording import ProcessStateRecorder
from repro.sim.soc import DualCoreSoC
from repro.sim.trace import Tracer
from repro.workloads.registry import build_scenario

#: The tick-path methods perfbench's traced run wraps.
BOUNDARIES = (
    (DualCoreSoC, "step"),
    (Tracer, "record"),
    (SlaveBridgeAdapter, "step"),
    (PCoreKernel, "step"),
    (PriorityScheduler, "enqueue"),
    (Committer, "step"),
    (ProcessStateRecorder, "note_slave_state"),
    (BugDetector, "sweep"),
)

#: ``(scenario, seed, params)``: the commit-heavy scenario on four seeds
#: (capped), a deadlock, a clean run and a starvation.
CELLS = (
    *(("quicksort_stress", seed, {"max_ticks": 4_000}) for seed in range(4)),
    ("philosophers", 0, {}),
    ("clean_spin", 0, {}),
    ("producer_consumer", 0, {"faulty": True}),
)

#: Calls per boundary over :data:`CELLS`.
EXPECTED = {
    "BugDetector.sweep": 839,
    "Committer.step": 4_791,
    "DualCoreSoC.step": 4_791,
    "PCoreKernel.step": 5_934,
    "PriorityScheduler.enqueue": 2_409,
    "ProcessStateRecorder.note_slave_state": 1_002,
    "SlaveBridgeAdapter.step": 4_775,
    "Tracer.record": 13_806,
}


def _counting(method, key: str, calls: Counter):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)

    return wrapper


def test_tick_path_boundary_call_counts(monkeypatch):
    calls: Counter = Counter()
    for owner, name in BOUNDARIES:
        key = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, _counting(getattr(owner, name), key, calls))
    for scenario, seed, params in CELLS:
        build_scenario(scenario, seed, **params).run()
    assert dict(calls) == EXPECTED
