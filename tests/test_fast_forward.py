"""Runs of steps applied in one call must equal stepping them.

``PCoreKernel.fast_forward`` batches the steps that would only decrement
the running task's ``compute_remaining``.  ``PCoreKernel.run_steps``
takes a run of steps, each compute-only run through ``fast_forward``
and every other step through ``step``, and returns after a step on
which the kernel halted or parked; its first compute-only run may go on
past its step bound to a second one, ``reach``, and then ends the call.
``DualCoreSoC.run_slave`` lets the kernel run so while the master is
halted and the bridge is quiet, and otherwise steps one tick.  The
kernel and SoC tests below check each of their bounds against a twin
that takes the same steps one by one.

The harness drain makes one ``run_slave`` call per iteration: the slave
runs alone up to the next sweep tick, and on a swept tick its first
compute-only run may go on to the first sweep tick at or after that
sweep's alarm, or to the tick budget, skipping the sweep ticks it
crosses.  ``run_slave`` is the one stub point.  The harness tests run a
scenario twice — once as shipped, once with ``DualCoreSoC.run_slave``
replaced by a stub that steps one tick (the stepwise reference, which
must take every tick through ``DualCoreSoC.step``) — and compare the run
result, the kernel counters, every task's fields, the whole trace and
the detector's sweep count.  The fast run's sweeps must be an ordered
subsequence of the reference's, with equal kernel and detector state at
each; every reference sweep the fast run skipped must have reported
nothing and changed none of the detector's anomalies, cycle streak,
last cycle, wait-graph counters and recorded deltas.  A third run, whose
``run_slave`` is the real one limited to one tick (a compute-only run
on to ``reach``, else one step), must equal the fast run in everything,
down to the number of ``PCoreKernel.step`` calls.  Hand-written cases
put a starvation report, a deadlock's confirming sweep and a kernel
panic inside what would otherwise be one long run; a hypothesis test
checks generated runs the same way (``REPRO_DRAIN_EXAMPLES`` sets its
example count, default 60).
"""

from __future__ import annotations

import os
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
from repro.ptest.config import PTestConfig
from repro.ptest.detector import AnomalyKind, BugDetector
from repro.ptest.harness import AdaptiveTest
from repro.sim.mailbox import MailboxMessage
from repro.sim.soc import DualCoreSoC
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


#: Not a syscall: the kernel panics on it (``KernelError``).
NOT_A_SYSCALL = "not a syscall"


def _counting_steps(core) -> list:
    """Record the arguments of each later ``core.step`` call in the
    returned list."""
    calls: list = []
    step = core.step

    def counting_step(*args):
        calls.append(args)
        return step(*args)

    core.step = counting_step
    return calls


def _run_steps_against_steps(build, limit: int, reach: int | None = None) -> int:
    """Run one ``build()`` for up to ``limit`` steps through
    ``run_steps`` (``reach`` passed on) and step a twin tick by tick up
    to ``limit``, or as far as the call went when its first compute-only
    run passed ``limit``, stopping after a step on which it halted or
    parked.  Both must agree then and after 60 more steps, and no step
    of the run may pass ``limit``.  A third ``build()`` tries a
    compute-only batch before every step, as the drain loop did tick by
    tick: ``run_steps`` must make exactly its ``step`` calls.  Returns
    the steps taken."""
    fast, slow, batched = build(), build(), build()
    now = fast.now + 1
    fast_calls, batched_calls = _counting_steps(fast), _counting_steps(batched)
    taken = fast.run_steps(now, limit, reach)
    assert all(tick < now + limit for (tick,) in fast_calls)
    stepped = 0
    while stepped < max(limit, taken):
        slow.step(now + stepped)
        stepped += 1
        if slow.is_halted() or slow.parked():
            break
    assert taken == stepped
    assert _kernel_state(fast) == _kernel_state(slow)
    done = batched.fast_forward(now, limit if reach is None else reach)
    while done < limit:
        advanced = batched.fast_forward(now + done, limit - done)
        if advanced:
            done += advanced
            continue
        batched.step(now + done)
        done += 1
        if batched.is_halted() or batched.parked():
            break
    assert done == taken
    assert fast_calls == batched_calls
    for tick in range(now + taken, now + taken + 60):
        fast.step(tick)
        slow.step(tick)
    assert _kernel_state(fast) == _kernel_state(slow)
    return taken


class TestKernelRunSteps:
    def test_limit_ends_the_run(self):
        build = partial(_kernel, [(1, [Compute(100)])], steps=2)
        assert _run_steps_against_steps(build, limit=10) == 10
        assert _run_steps_against_steps(build, limit=98) == 98
        # One step past the compute resumes the program.
        assert _run_steps_against_steps(build, limit=99) == 99

    def test_returns_when_no_task_is_left(self):
        # 98 units left; the step after them exits the only task.
        build = partial(_kernel, [(1, [Compute(100)])], steps=2)
        assert _run_steps_against_steps(build, limit=1_000) == 99

    def test_returns_on_a_halt(self):
        # 20 units left after step 0; step 21 yields no syscall.
        build = partial(_kernel, [(1, [Compute(21), NOT_A_SYSCALL])], steps=1)
        assert _run_steps_against_steps(build, limit=1_000) == 21
        kernel = build()
        kernel.run_steps(kernel.now + 1, 1_000)
        assert kernel.is_halted()

    def test_returns_when_parked(self):
        def build():
            kernel = _kernel(
                [(1, [Compute(50)]), (2, [Sleep(300), Compute(5)])], steps=3
            )
            run_service(kernel, ServiceCode.TS, target=2)
            return kernel

        # Tid 1 has 48 units left, then exits: tid 2, suspended while
        # sleeping, is the only live task.
        assert _run_steps_against_steps(build, limit=1_000) == 49

    def test_idle_steps_are_taken_inside_the_run(self):
        # Asleep until 40, then 10 units and the exit.
        build = partial(_kernel, [(1, [Sleep(40), Compute(10)])], steps=1)
        assert _run_steps_against_steps(build, limit=1_000) == 50

    def test_a_deadlock_runs_to_the_limit(self):
        # Each task takes one mutex, sleeps, and waits for the other's:
        # from step 13 on, nothing runs and nothing is parked.
        build = partial(
            _kernel,
            [
                (1, [Acquire("m0"), Sleep(10), Acquire("m1")]),
                (2, [Acquire("m1"), Sleep(5), Acquire("m0")]),
            ],
            steps=1,
        )
        assert _run_steps_against_steps(build, limit=300) == 300

    def test_a_first_run_past_the_limit_ends_the_call(self):
        build = partial(_kernel, [(1, [Compute(100)])], steps=2)
        assert _run_steps_against_steps(build, limit=10, reach=50) == 50
        assert _run_steps_against_steps(build, limit=10, reach=1_000) == 98

    def test_a_first_run_short_of_the_limit_steps_on_to_it(self):
        # 98 units left; the step after them starts Compute(50), whose
        # run the limit cuts.
        build = partial(_kernel, [(1, [Compute(100), Compute(50)])], steps=2)
        assert _run_steps_against_steps(build, limit=120, reach=1_000) == 120

    @pytest.mark.parametrize("limit", [19, 20, 25, 31, 45, 52, 60])
    def test_no_step_passes_the_limit(self, limit):
        # From tick 1: a run of 19, steps at 20-30 (the sleep), a run of
        # 19, steps at 50 (the yield) and 51, a run of 19.  The limits
        # end the first run, fall on steps and cut later runs.
        build = partial(
            _kernel,
            [(1, [Compute(20), Sleep(10), Compute(20), YieldCpu(), Compute(20)])],
            steps=1,
        )
        assert _run_steps_against_steps(build, limit=limit, reach=1_000) == limit

    @pytest.mark.parametrize("context_switch_cost", [0, 2])
    def test_runs_sleepers_and_gc_passes_inside_one_run(self, context_switch_cost):
        def build():
            kernel = _kernel(
                [
                    (1, [Compute(300)]),
                    (2, [Sleep(20), Compute(5), Sleep(30), Compute(5)]),
                    (3, [Compute(50)]),
                ],
                steps=5,
                buggy_gc=True,
                context_switch_cost=context_switch_cost,
            )
            # Killed mid-flight: a pending item, so each collector pass
            # (steps 32, 64, ...) must be stepped.
            run_service(kernel, ServiceCode.TD, target=3)
            return kernel

        assert build().gc.pending
        assert _run_steps_against_steps(build, limit=250) == 250


# -- SoC ---------------------------------------------------------------------


class _HaltedMaster:
    name = "master"

    def step(self, now: int) -> bool:
        raise AssertionError("a halted master is never stepped")

    def is_halted(self) -> bool:
        return True


def _soc():
    """``(soc, kernel, bridge master)``: a SoC whose slave kernel
    computes 500 units behind the bridge, two ticks in, with a halted
    master core."""
    soc = DualCoreSoC()
    kernel = _kernel([(1, [Compute(500)])], steps=0)
    bridge, slave = build_bridge(soc.mailboxes, kernel)
    soc.attach(_HaltedMaster(), slave)
    soc.step()
    soc.step()
    return soc, kernel, bridge


class TestSoCFastForward:
    """``run_slave``'s first compute-only run, on to its ``reach``, and
    the one step taken when the slave cannot run alone."""

    def test_advances_clock_ticks_and_slave(self):
        fast, fast_kernel, _ = _soc()
        slow, slow_kernel, _ = _soc()
        stepped = _counting_steps(fast)
        assert fast.run_slave(1, 100) == 100
        assert stepped == []
        for _ in range(100):
            slow.step()
        assert fast.now == slow.now == 102
        assert fast.slave.now == slow.slave.now == 101
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
        stepped = _counting_steps(soc)
        assert soc.run_slave(1, 100) == 1
        assert stepped == [()]

    def test_live_master_is_stepped(self):
        soc, _, _ = _soc()
        soc.master.is_halted = lambda: False
        soc.master.step = lambda now: False
        stepped = _counting_steps(soc)
        assert soc.run_slave(1, 100) == 1
        assert stepped == [()]


class TestSoCRunSlave:
    def test_slave_runs_alone_until_it_parks(self):
        fast, fast_kernel, _ = _soc()
        slow, slow_kernel, _ = _soc()
        stepped = _counting_steps(fast)
        # 498 units left at tick 2; the step at 500 exits the only task.
        assert fast.run_slave(1_000) == 499
        assert stepped == []
        while not slow_kernel.parked():
            slow.step()
        assert fast.now == slow.now == 501
        assert fast.slave.now == slow.slave.now == 500
        assert _kernel_state(fast_kernel) == _kernel_state(slow_kernel)

    def test_limit_ends_the_run(self):
        fast, fast_kernel, _ = _soc()
        slow, slow_kernel, _ = _soc()
        assert fast.run_slave(30) == 30
        for _ in range(30):
            slow.step()
        assert (fast.now, fast.slave.now) == (32, 31)
        assert (slow.now, slow.slave.now) == (32, 31)
        assert _kernel_state(fast_kernel) == _kernel_state(slow_kernel)

    @pytest.mark.parametrize(
        "blocker",
        [
            "live_master",
            "command",
            "reply",
            "kernel_inbox",
            "halted_kernel",
        ],
    )
    def test_one_step_unless_quiet(self, blocker):
        soc, kernel, bridge = _soc()
        request = ServiceRequest(service=ServiceCode.TCH, target=1, priority=7)
        if blocker == "live_master":
            soc.master.is_halted = lambda: False
            soc.master.step = lambda now: False
        elif blocker == "command":
            bridge.issue(request)
        elif blocker == "reply":
            # A full reply mailbox holds the next reply in the backlog.
            for _ in range(soc.config.mailbox_capacity):
                soc.mailboxes["dsp2arm_reply"].post(MailboxMessage(word=0))
            bridge.issue(request)
            soc.step()
            assert soc.slave._reply_backlog
        elif blocker == "kernel_inbox":
            kernel.submit(request)
        elif blocker == "halted_kernel":
            kernel.panic("test")
        stepped = _counting_steps(soc)
        now = soc.now
        assert soc.run_slave(100) == 1
        assert (stepped, soc.now) == ([()], now + 1)


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


def _step_one_tick(soc: DualCoreSoC, limit: int, reach: int | None = None) -> int:
    """A ``DualCoreSoC.run_slave`` that steps one tick."""
    del limit, reach
    soc.step()
    return 1


_run_slave = DualCoreSoC.run_slave


def _batch_or_step_one_tick(
    soc: DualCoreSoC, limit: int, reach: int | None = None
) -> int:
    """A ``DualCoreSoC.run_slave`` that decides one tick at a time, as
    the drain did before the slave ran alone: a compute-only run (on to
    ``reach``) if there is one, else one step."""
    del limit
    return _run_slave(soc, 1, reach)


def _run(build, stepwise: bool, per_tick_drain: bool = False) -> tuple[dict, int]:
    """Run a fresh ``build()``; returns what the equivalence compares
    and the ticks not taken through ``DualCoreSoC.step``.  ``stepwise``
    swaps in a ``DualCoreSoC.run_slave`` that steps one tick, so the
    reference steps every tick; ``per_tick_drain`` swaps in
    :func:`_batch_or_step_one_tick`.  ``observed`` counts the
    ``PCoreKernel.step`` calls."""
    seen: list = []
    kernels: list = []
    detectors: dict = {}
    sweeps: list = []
    soc_steps: list = []
    kernel_steps: list = []
    soc_step = DualCoreSoC.step
    kernel_step = PCoreKernel.step
    sweep = BugDetector.sweep

    def counting_soc_step(self):
        soc_steps.append(self.now)
        return soc_step(self)

    def counting_kernel_step(self, now):
        kernel_steps.append(now)
        return kernel_step(self, now)

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
        patch.setattr(DualCoreSoC, "step", counting_soc_step)
        patch.setattr(PCoreKernel, "step", counting_kernel_step)
        patch.setattr(BugDetector, "sweep", recording_sweep)
        if stepwise:
            patch.setattr(DualCoreSoC, "run_slave", _step_one_tick)
        elif per_tick_drain:
            patch.setattr(DualCoreSoC, "run_slave", _batch_or_step_one_tick)
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
        "kernel_steps": len(kernel_steps),
    }
    return observed, result.ticks - len(soc_steps)


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


def _panic_test() -> AdaptiveTest:
    """One pair whose task computes 21 units from tick 0 and then yields
    a value that is no syscall: the kernel panics in the drain, on the
    step at tick 21, between two sweep ticks."""
    return AdaptiveTest(
        config=PTestConfig(pattern_count=1, pattern_size=1, program="crasher"),
        programs={"crasher": _program(Compute(21), NOT_A_SYSCALL)},
        pfa=lifecycle_pfa(("TC",)),
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
    # The run must end on the tick after the panic, not at the next
    # sweep tick.
    "kernel_panic_in_the_drain": (_panic_test, AnomalyKind.CRASH),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_path_matches_stepwise_reference(case):
    build, kind = CASES[case]
    fast, skipped = _run(build, stepwise=False)
    reference, stepped = _run(build, stepwise=True)
    assert skipped > 0 and stepped == 0
    _assert_matches_reference(fast, reference)
    assert fast == _run(build, stepwise=False, per_tick_drain=True)[0]
    report = fast["result"].report
    assert (report.primary.kind if report else None) is kind


def test_a_panic_ends_the_drain_on_its_tick():
    fast, _ = _run(_panic_test, stepwise=False)
    result = fast["result"]
    assert result.ticks == 22
    assert [anomaly.describe()[:10] for anomaly in result.anomalies] == ["[22] crash"]


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


@pytest.mark.parametrize("max_ticks", [574, 575, 576])
def test_a_restart_run_sweeps_its_last_tick(max_ticks):
    """quicksort_stress (seed 0, ``restart_patterns``) panics its slave
    kernel at tick 573.  A budget that ends off the sweep grid, at 574
    or 575, must still sweep its last tick and report the crash there,
    as the sweep at 576 does."""
    observed, _ = _run(
        partial(_variant, "quicksort_stress", max_ticks=max_ticks), stepwise=False
    )
    ticks = [sweep.tick for sweep in observed["sweeps"]]
    assert ticks == sorted(set(ticks)), "a tick was swept twice"
    assert [
        (anomaly.kind, anomaly.detected_at)
        for anomaly in observed["result"].anomalies
    ] == [(AnomalyKind.CRASH, max_ticks)]


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


#: Generated runs per test run; a test-only variable, so CI can run the
#: drain's broadest exactness check deeper than tier-1 does.
DRAIN_EXAMPLES = int(os.environ.get("REPRO_DRAIN_EXAMPLES", "60"))


def _generated_test(
    bodies,
    background: bool,
    interval: int,
    window: int,
    max_ticks: int,
    deltas: bool,
    crash: bool,
    suspend: bool,
) -> AdaptiveTest:
    """One task per body.  With ``background`` (and two bodies or more)
    the first runs at priority 0 from a task created at setup, so it
    computes under the others from tick 0; every other body runs in the
    task of a pair's ``TC``, which ``suspend`` follows with a ``TS``.
    With ``crash`` the last body ends in a value that is no syscall, so
    the kernel panics there."""
    names = tuple(f"p{index}" for index in range(len(bodies)))
    background = background and len(names) > 1
    pairs = names[1:] if background else names
    if crash:
        bodies = [*bodies[:-1], (*bodies[-1], NOT_A_SYSCALL)]
    symbols = ("TC", "TS") if suspend else ("TC",)
    return AdaptiveTest(
        config=PTestConfig(
            pattern_count=len(pairs),
            pattern_size=len(symbols),
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
        pfa=lifecycle_pfa(symbols),
        setup=(
            partial(create_task, priority=0, program=names[0]) if background else None
        ),
    )


@settings(max_examples=DRAIN_EXAMPLES, deadline=None)
@given(
    bodies=st.lists(_SYSCALLS, min_size=1, max_size=4),
    background=st.booleans(),
    interval=st.integers(1, 9),
    window=st.integers(5, 400),
    max_ticks=st.integers(50, 3_000),
    deltas=st.booleans(),
    crash=st.booleans(),
    suspend=st.booleans(),
)
def test_generated_runs_match_stepwise_reference(
    bodies, background, interval, window, max_ticks, deltas, crash, suspend
):
    build = partial(
        _generated_test,
        bodies,
        background,
        interval,
        window,
        max_ticks,
        deltas,
        crash,
        suspend,
    )
    fast, _ = _run(build, stepwise=False)
    reference, stepped = _run(build, stepwise=True)
    assert stepped == 0
    _assert_matches_reference(fast, reference)
    assert fast == _run(build, stepwise=False, per_tick_drain=True)[0]
