"""Compute-only stretches applied in one call must equal stepping them.

``PCoreKernel.fast_forward`` batches the steps that would only decrement
the running task's ``compute_remaining``; ``DualCoreSoC.fast_forward``
batches the ticks of such steps while the master is halted.  The kernel
and SoC tests below check each of their bounds against a twin that
takes the same steps one by one.

The harness drain loop ends a batch at the first sweep tick at or after
the last sweep's alarm, or at the tick budget, and skips the sweep
ticks it crosses.  The harness tests run a scenario twice — once as
shipped, once with ``DualCoreSoC.fast_forward`` replaced by a stub that
advances 0 ticks (the stepwise reference) — and compare the run result,
the kernel counters, every task's fields, the whole trace and the
detector's sweep count.  The fast run's sweeps must be an ordered
subsequence of the reference's, with equal kernel and detector state at
each; every reference sweep the fast run skipped must have reported
nothing and changed none of the detector's anomalies, cycle streak,
last cycle, wait-graph counters and recorded deltas.  Hand-written cases
put a starvation report and a deadlock's confirming sweep inside what
would otherwise be one long batch; a hypothesis test checks generated
runs the same way.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bridge.bridge import build_bridge
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Acquire, Compute, Exit, Release, Sleep, YieldCpu
from repro.pcore.services import ServiceCode, ServiceRequest
from repro.pcore.tcb import TaskState
from repro.pcore.testkit import create_task, run_service
from repro.ptest import harness
from repro.ptest.config import PTestConfig
from repro.ptest.detector import AnomalyKind, BugDetector
from repro.ptest.harness import AdaptiveTest
from repro.sim.mailbox import MailboxMessage
from repro.sim.soc import DualCoreSoC, SoCConfig
from repro.workloads.registry import build_scenario
from repro.workloads.scenarios import lifecycle_pfa


def _program(*syscalls):
    """A task body issuing ``syscalls``, then exiting."""

    def program(ctx):
        del ctx
        for syscall in syscalls:
            yield syscall
        yield Exit(0)

    return program


def _task_state(task) -> tuple:
    return (
        task.tid,
        task.name,
        task.state,
        task.steps_run,
        task.last_progress,
        task.compute_remaining,
        task.wakeup_at,
        task.created_at,
        task.terminated_at,
    )


def _kernel_state(kernel: PCoreKernel) -> tuple:
    return (
        kernel.steps,
        kernel.idle_steps,
        kernel.now,
        kernel.context_switches,
        kernel.scheduler.dispatches,
        kernel.scheduler.preemptions,
        kernel.gc.collected,
        kernel.gc.leaked_items,
        len(kernel.gc.pending),
        kernel.memory.free_bytes,
        [_task_state(task) for task in kernel.tasks.values()],
    )


# -- kernel ------------------------------------------------------------------


def _kernel(tasks, steps: int, **config) -> PCoreKernel:
    """A kernel that created ``tasks`` (``(priority, syscalls)`` pairs)
    and then stepped at ticks ``0 .. steps - 1``."""
    kernel = PCoreKernel(config=KernelConfig(**config))
    for index, (priority, syscalls) in enumerate(tasks):
        kernel.register_program(f"p{index}", _program(*syscalls))
        create_task(kernel, priority=priority, program=f"p{index}")
    for now in range(steps):
        kernel.step(now)
    return kernel


def _fast_forward_against_steps(build, limit: int) -> int:
    """Fast-forward one ``build()`` by up to ``limit`` steps and step a
    twin as often; both must agree then and after 60 more steps.
    Returns the steps fast-forwarded."""
    fast, slow = build(), build()
    now = fast.now + 1
    advanced = fast.fast_forward(now, limit)
    for tick in range(now, now + advanced):
        slow.step(tick)
    assert _kernel_state(fast) == _kernel_state(slow)
    for tick in range(now + advanced, now + advanced + 60):
        fast.step(tick)
        slow.step(tick)
    assert _kernel_state(fast) == _kernel_state(slow)
    return advanced


class TestKernelFastForward:
    def test_run_ends_with_the_compute_or_the_limit(self):
        # Step 0 issues Compute(100) (99 left), step 1 leaves 98.
        build = partial(_kernel, [(1, [Compute(100)])], steps=2)
        assert _fast_forward_against_steps(build, limit=1_000) == 98
        assert _fast_forward_against_steps(build, limit=10) == 10

    def test_higher_priority_sleeper_due_ends_the_run(self):
        # The sleeper sleeps at tick 0 until 20; the cruncher computes
        # from tick 1.  The step at 20 wakes it and it preempts.
        build = partial(
            _kernel,
            [(1, [Compute(100)]), (2, [Sleep(20), Compute(5)])],
            steps=3,
        )
        assert _fast_forward_against_steps(build, limit=1_000) == 17

    def test_lower_priority_sleeper_due_ends_the_run(self):
        # The cruncher sleeps until 2 and the low task until 21; its
        # wake changes no running task but still ends the stretch.
        build = partial(
            _kernel,
            [(2, [Sleep(2), Compute(100)]), (1, [Sleep(20), Compute(5)])],
            steps=4,
        )
        assert _fast_forward_against_steps(build, limit=1_000) == 17

    @pytest.mark.parametrize("buggy_gc", [False, True])
    def test_gc_pass_with_pending_items_ends_the_run(self, buggy_gc):
        def build():
            kernel = _kernel(
                [(1, [Compute(200)]), (2, [Compute(50)])],
                steps=5,
                buggy_gc=buggy_gc,
            )
            # Killed mid-flight: the item the buggy collector leaks.
            run_service(kernel, ServiceCode.TD, target=2)
            kernel.step(5)
            kernel.step(6)
            return kernel

        assert build().gc.pending
        # 7 steps taken; the pass at step 32 must run on its own.
        assert _fast_forward_against_steps(build, limit=1_000) == 24

    def test_gc_pass_without_pending_items_is_skipped(self):
        build = partial(_kernel, [(1, [Compute(200)])], steps=2)
        assert _fast_forward_against_steps(build, limit=1_000) == 198

    @pytest.mark.parametrize(
        "blocker",
        ["inbox", "higher_priority_ready", "halted", "no_running_task"],
    )
    def test_nothing_to_fast_forward(self, blocker):
        tasks = [] if blocker == "no_running_task" else [(1, [Compute(100)])]
        kernel = _kernel(tasks, steps=2)
        if blocker == "inbox":
            kernel.submit(ServiceRequest(service=ServiceCode.TY))
        elif blocker == "higher_priority_ready":
            create_task(kernel, priority=5)
        elif blocker == "halted":
            kernel.panic("test")
        before = _kernel_state(kernel)
        assert kernel.fast_forward(kernel.now + 1, 1_000) == 0
        assert _kernel_state(kernel) == before

    def test_switch_penalty_is_stepped(self):
        # The high task wakes at 14 and preempts the low one with 95
        # units left; it exits at step 21, and step 22 switches back
        # with a 3-step penalty that fast_forward must not consume.
        build = partial(
            _kernel,
            [(1, [Compute(100)]), (2, [Sleep(10), Compute(3)])],
            steps=23,
            context_switch_cost=3,
        )
        assert build().scheduler.current.compute_remaining == 95
        assert _fast_forward_against_steps(build, limit=1_000) == 0

    def test_task_between_computes_is_stepped(self):
        # Compute(1) leaves nothing to decrement: the next step resumes
        # the program.
        build = partial(_kernel, [(1, [Compute(1), Compute(5)])], steps=1)
        assert _fast_forward_against_steps(build, limit=1_000) == 0


# -- SoC ---------------------------------------------------------------------


class _HaltedMaster:
    name = "master"

    def step(self, now: int) -> bool:
        raise AssertionError("a halted master is never stepped")

    def is_halted(self) -> bool:
        return True


def _soc(slave_steps_per_tick: int = 1):
    """``(soc, kernel, bridge master)``: a SoC whose slave kernel
    computes 500 units behind the bridge, two ticks in, with a halted
    master core."""
    soc = DualCoreSoC(config=SoCConfig(slave_steps_per_tick=slave_steps_per_tick))
    kernel = _kernel([(1, [Compute(500)])], steps=0)
    bridge, slave = build_bridge(soc.mailboxes, kernel)
    soc.attach(_HaltedMaster(), slave)
    soc.step()
    soc.step()
    return soc, kernel, bridge


class TestSoCFastForward:
    def test_advances_clock_ticks_and_slave(self):
        fast, fast_kernel, _ = _soc()
        slow, slow_kernel, _ = _soc()
        assert fast.fast_forward(100) == 100
        for _ in range(100):
            slow.step()
        assert (fast.now, fast.ticks_run) == (slow.now, slow.ticks_run) == (102, 102)
        assert fast.slave.now == slow.slave.now == 101
        assert _kernel_state(fast_kernel) == _kernel_state(slow_kernel)

    def test_timed_event_ends_the_run(self):
        fired = []
        socs = [_soc()[:2], _soc()[:2]]
        for soc, kernel in socs:
            soc.scheduler.schedule_at(
                soc.now + 5,
                lambda soc=soc, kernel=kernel: fired.append((soc.now, kernel.steps)),
            )
        (fast, fast_kernel), (slow, slow_kernel) = socs
        assert fast.fast_forward(100) == 4
        fast.step()
        for _ in range(5):
            slow.step()
        assert fired[0] == fired[1] == (7, 7)
        assert _kernel_state(fast_kernel) == _kernel_state(slow_kernel)

    @pytest.mark.parametrize("traffic", ["command", "reply"])
    def test_mailbox_traffic_is_stepped(self, traffic):
        soc, _, bridge = _soc()
        if traffic == "reply":
            # A full reply mailbox holds the next reply in the backlog.
            for _ in range(soc.config.mailbox_capacity):
                soc.mailboxes["dsp2arm_reply"].post(MailboxMessage(word=0))
        bridge.issue(ServiceRequest(service=ServiceCode.TCH, target=1, priority=7))
        if traffic == "reply":
            soc.step()
            assert soc.slave._reply_backlog
        assert soc.fast_forward(100) == 0

    def test_two_slave_steps_per_tick_are_stepped(self):
        soc, _, _ = _soc(slave_steps_per_tick=2)
        assert soc.fast_forward(100) == 0

    def test_live_master_is_stepped(self):
        soc, _, _ = _soc()
        soc.master.is_halted = lambda: False
        assert soc.fast_forward(100) == 0


# -- harness -----------------------------------------------------------------


class _RecordingTasks(dict):
    """``kernel.tasks`` that also keeps every task ever added to it."""

    def __init__(self, seen: list) -> None:
        super().__init__()
        self.seen = seen

    def __setitem__(self, tid, task) -> None:
        self.seen.append(task)
        super().__setitem__(tid, task)


class _Sweep(NamedTuple):
    """One ``BugDetector.sweep`` call as the comparison sees it."""

    tick: int
    kernel: tuple
    found: list
    #: :func:`_detector_state` before and after the sweep.
    before: tuple
    after: tuple


def _detector_state(detector: BugDetector) -> tuple:
    """What a sweep that reports nothing must leave as it found it."""
    return (
        tuple(detector.anomalies),
        detector._cycle_streak,
        detector._last_cycle,
        detector.waitgraph.rescans,
        detector.waitgraph.searches,
        tuple(detector.wait_deltas),
    )


def _run(build, stepwise: bool) -> tuple[dict, int]:
    """Run a fresh ``build()``; returns what the equivalence compares
    and the ticks fast-forwarded.  ``stepwise`` swaps in a
    ``DualCoreSoC.fast_forward`` that advances 0 ticks."""
    seen: list = []
    kernels: list = []
    detectors: dict = {}
    sweeps: list = []
    skipped: list = []
    fast_forward = DualCoreSoC.fast_forward
    sweep = BugDetector.sweep

    def counting_fast_forward(self, limit):
        ticks = 0 if stepwise else fast_forward(self, limit)
        skipped.append(ticks)
        return ticks

    def recording_sweep(self, now):
        detectors[id(self)] = self
        kernel, before = _kernel_state(self.kernel), _detector_state(self)
        found = sweep(self, now)
        sweeps.append(_Sweep(now, kernel, found, before, _detector_state(self)))
        return found

    test = build()
    original_setup = test.setup

    def setup(kernel):
        kernel.tasks = _RecordingTasks(seen)
        kernels.append(kernel)
        if original_setup is not None:
            original_setup(kernel)

    test.setup = setup
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DualCoreSoC, "fast_forward", counting_fast_forward)
        patch.setattr(BugDetector, "sweep", recording_sweep)
        result = test.run()
    (kernel,) = kernels
    (detector,) = detectors.values()
    observed = {
        "result": result,
        "kernel": _kernel_state(kernel),
        "tasks": [_task_state(task) for task in seen],
        "trace": test.tracer.dump(),
        "sweeps": sweeps,
        "sweep_count": detector.sweeps,
    }
    return observed, sum(skipped)


def _assert_matches_reference(fast: dict, reference: dict) -> None:
    """``fast`` equals the stepwise ``reference`` but for the sweeps it
    skipped, each of which reported nothing and changed nothing."""
    for key in ("result", "kernel", "tasks", "trace", "sweep_count"):
        assert fast[key] == reference[key], key
    for sweeps in (fast["sweeps"], reference["sweeps"]):
        ticks = [sweep.tick for sweep in sweeps]
        assert ticks == sorted(set(ticks)), "a tick was swept twice"
    # Both lists are ordered by tick, so a subset of ticks is an
    # ordered subsequence.
    kept = {sweep.tick: sweep for sweep in fast["sweeps"]}
    assert kept.keys() <= {sweep.tick for sweep in reference["sweeps"]}
    for sweep in reference["sweeps"]:
        if sweep.tick in kept:
            assert kept[sweep.tick] == sweep, sweep.tick
        else:
            assert not sweep.found and sweep.after == sweep.before, sweep.tick


def _variant(name: str, params=None, kernel=None, **config) -> AdaptiveTest:
    """Registered scenario ``name`` (seed 0) with ``params`` passed to
    its builder and ``config``/``kernel`` fields replaced."""
    test = build_scenario(name, 0, **(params or {}))
    if kernel:
        config["kernel"] = replace(test.config.kernel, **kernel)
    test.config = replace(test.config, **config)
    return test


def _sleeper_test(sleeper_priority: str) -> AdaptiveTest:
    """A cruncher computing while a second task wakes twice during the
    drain, from the higher or the lower priority band."""
    pairs = ("sleeper", "cruncher")
    if sleeper_priority == "high":
        pairs = pairs[::-1]
    return AdaptiveTest(
        config=PTestConfig(
            pattern_count=2,
            pattern_size=1,
            program="cruncher",
            pair_programs=pairs,
            max_ticks=2_000,
        ),
        programs={
            "cruncher": _program(Compute(300)),
            "sleeper": _program(Sleep(29), Compute(3), Sleep(45), Compute(3)),
        },
        pfa=lifecycle_pfa(("TC",)),
    )


def _gc_test() -> AdaptiveTest:
    """Both pairs' tasks are deleted mid-flight (``TC TD``) while a
    lowest-priority task created at setup keeps computing through the
    drain and across the buggy collector's passes."""

    def setup(kernel):
        create_task(kernel, priority=0, program="cruncher")

    return AdaptiveTest(
        config=PTestConfig(
            pattern_count=2,
            pattern_size=2,
            program="victim",
            max_ticks=3_000,
            kernel=KernelConfig(buggy_gc=True),
        ),
        programs={
            "cruncher": _program(Compute(600)),
            "victim": _program(Compute(1_000)),
        },
        pfa=lifecycle_pfa(("TC", "TD")),
        setup=setup,
    )


def _philosophers_beside_a_cruncher(**config) -> AdaptiveTest:
    """The philosophers deadlock while a priority-0 task, created at
    setup, computes 5,000 units: their cycle forms, and waits for its
    confirming sweep, while that task runs."""
    test = _variant("philosophers", **config)
    test.programs = {**test.programs, "cruncher": _program(Compute(5_000))}
    test.setup = partial(create_task, priority=0, program="cruncher")
    return test


#: Case -> (builder, the anomaly kind the run must report).
CASES = {
    "sleeper_wakes_high": (partial(_sleeper_test, "high"), None),
    "sleeper_wakes_low": (partial(_sleeper_test, "low"), None),
    "buggy_gc_pending": (_gc_test, None),
    "max_ticks_mid_stretch": (
        partial(_variant, "priority_inversion", max_ticks=1_003),
        None,
    ),
    "detector_interval_1": (
        partial(_variant, "clean_spin", detector_interval=1),
        None,
    ),
    "barrier_starvation": (
        partial(_variant, "barrier", {"faulty": True}),
        AnomalyKind.STARVATION,
    ),
    "producer_consumer_starvation": (
        partial(_variant, "producer_consumer", {"faulty": True}),
        AnomalyKind.STARVATION,
    ),
    "context_switch_cost": (
        partial(_variant, "clean_spin", kernel={"context_switch_cost": 3}),
        None,
    ),
    "priority_inheritance": (
        partial(_variant, "priority_inversion", {"inheritance": True}),
        None,
    ),
    "philosophers_deadlock": (
        partial(_variant, "philosophers"),
        AnomalyKind.DEADLOCK,
    ),
    # The waiters starve while the hog computes: the starvation bound
    # must end what would otherwise be one batch to the hog's end.
    "starvation_inside_a_batch": (
        partial(_variant, "priority_inversion", progress_window=500),
        AnomalyKind.STARVATION,
    ),
    "starvation_inside_a_batch_interval_5": (
        partial(
            _variant,
            "priority_inversion",
            progress_window=777,
            detector_interval=5,
        ),
        AnomalyKind.STARVATION,
    ),
    # The cycle's confirming sweep falls inside a batch of the cruncher.
    "deadlock_beside_a_cruncher": (
        _philosophers_beside_a_cruncher,
        AnomalyKind.DEADLOCK,
    ),
    "deadlock_beside_a_cruncher_wait_deltas": (
        partial(_philosophers_beside_a_cruncher, record_wait_deltas=True),
        AnomalyKind.DEADLOCK,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_path_matches_stepwise_reference(case):
    build, kind = CASES[case]
    fast, skipped = _run(build, stepwise=False)
    reference, stepped = _run(build, stepwise=True)
    assert skipped > 0 and stepped == 0
    _assert_matches_reference(fast, reference)
    report = fast["result"].report
    assert (report.primary.kind if report else None) is kind


def test_sweeps_are_skipped():
    """The batches cross sweep ticks that the stepwise run sweeps."""
    build, _ = CASES["starvation_inside_a_batch"]
    fast, _ = _run(build, stepwise=False)
    reference, _ = _run(build, stepwise=True)
    assert len(fast["sweeps"]) < len(reference["sweeps"]) // 4


def test_budget_ends_inside_a_stretch():
    build, _ = CASES["max_ticks_mid_stretch"]
    fast, _ = _run(build, stepwise=False)
    assert fast["result"].ticks == 1_003
    # The hog is still mid-compute when the budget runs out.
    assert any(task[5] > 0 for task in fast["kernel"][-1])


@pytest.mark.parametrize(
    "max_ticks, found_at", [(192, None), (193, 193), (None, 200)]
)
def test_a_tick_is_swept_once(max_ticks, found_at):
    """The philosophers' cycle is first seen by the sweep at 192, so a
    budget ending there must not confirm it by sweeping 192 again; a
    final sweep at 193, or the sweep at 200, does."""
    config = {} if max_ticks is None else {"max_ticks": max_ticks}
    build = partial(_variant, "philosophers", **config)
    for stepwise in (False, True):
        observed, _ = _run(build, stepwise=stepwise)
        assert [
            (anomaly.kind, anomaly.detected_at)
            for anomaly in observed["result"].anomalies
        ] == ([] if found_at is None else [(AnomalyKind.DEADLOCK, found_at)])


def test_two_slave_steps_per_tick_fall_back_to_stepping(monkeypatch):
    monkeypatch.setattr(
        harness, "SoCConfig", partial(SoCConfig, slave_steps_per_tick=2)
    )
    build = partial(_variant, "clean_spin")
    fast, skipped = _run(build, stepwise=False)
    reference, _ = _run(build, stepwise=True)
    assert skipped == 0
    assert fast == reference


def test_live_tasks_are_exactly_the_task_table():
    """``_terminate`` drops a task from ``kernel.tasks`` as it marks it
    TERMINATED, so ``live_tasks()`` needs no filter."""
    observed, _ = _run(partial(_variant, "quicksort_stress"), stepwise=False)
    states = [task[2] for task in observed["tasks"]]
    assert states.count(TaskState.TERMINATED) > 10
    for sweep in observed["sweeps"]:
        assert all(task[2] is not TaskState.TERMINATED for task in sweep.kernel[-1])
    assert len(observed["kernel"][-1]) == len(states) - states.count(
        TaskState.TERMINATED
    )


# -- generated runs ----------------------------------------------------------

MUTEXES = ("m0", "m1")

#: One critical section: take one or both mutexes (in either order),
#: compute, release in reverse.
_SECTION = st.tuples(
    st.lists(st.sampled_from(MUTEXES), min_size=1, max_size=2, unique=True),
    st.integers(1, 100),
).map(
    lambda section: (
        *(Acquire(name) for name in section[0]),
        Compute(section[1]),
        *(Release(name) for name in reversed(section[0])),
    )
)
_STEP = st.one_of(
    st.integers(1, 300).map(lambda units: (Compute(units),)),
    st.integers(1, 200).map(lambda ticks: (Sleep(ticks),)),
    st.just((YieldCpu(),)),
    _SECTION,
)
_SYSCALLS = st.lists(_STEP, min_size=1, max_size=5).map(
    lambda steps: tuple(syscall for step in steps for syscall in step)
)


def _generated_test(
    bodies,
    background: bool,
    interval: int,
    window: int,
    max_ticks: int,
    deltas: bool,
) -> AdaptiveTest:
    """One task per body.  With ``background`` (and two bodies or more)
    the first runs at priority 0 from a task created at setup, so it
    computes under the others from tick 0; every other body runs in the
    task of a pair's ``TC``."""
    names = tuple(f"p{index}" for index in range(len(bodies)))
    background = background and len(names) > 1
    pairs = names[1:] if background else names
    return AdaptiveTest(
        config=PTestConfig(
            pattern_count=len(pairs),
            pattern_size=1,
            program=pairs[0],
            pair_programs=pairs,
            max_ticks=max_ticks,
            detector_interval=interval,
            progress_window=window,
            record_wait_deltas=deltas,
        ),
        programs={
            name: _program(*body) for name, body in zip(names, bodies)
        },
        pfa=lifecycle_pfa(("TC",)),
        setup=(
            partial(create_task, priority=0, program=names[0]) if background else None
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(_SYSCALLS, min_size=1, max_size=4),
    background=st.booleans(),
    interval=st.integers(1, 9),
    window=st.integers(5, 400),
    max_ticks=st.integers(50, 3_000),
    deltas=st.booleans(),
)
def test_generated_runs_match_stepwise_reference(
    bodies, background, interval, window, max_ticks, deltas
):
    build = partial(
        _generated_test, bodies, background, interval, window, max_ticks, deltas
    )
    fast, _ = _run(build, stepwise=False)
    reference, _ = _run(build, stepwise=True)
    _assert_matches_reference(fast, reference)
