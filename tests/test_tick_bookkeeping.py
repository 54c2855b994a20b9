"""Tick-loop bookkeeping kept incrementally must equal redoing it.

Two pieces of the command tick loop skip work that used to be repeated
on every tick:

* ``PCoreKernel._wake_sleepers`` returns at once while no task is
  SLEEPING; the kernel tracks the sleeping tids wherever a task enters
  or leaves that state.  The kernel tests run a scripted kernel twice —
  as shipped, and with ``_wake_sleepers`` patched back to a scan of the
  whole task table on every step (the reference) — and compare the
  task states, ``now``, ``steps`` and the ready list after every step.
* ``AdaptiveTest._update_recorder`` writes a pair's slave state only
  when its ``(tid, state)`` changed.  A scripted pair (a new tid in an
  unchanged state, a task gone, unbound) and scenario variants run
  against the per-tick writer (the reference), comparing every round's
  recorder and the run result.
* ``Committer.done`` reads a count of the pairs awaiting a reply.  The
  same scenario variants check, after every committer step, that the
  count and ``done`` equal a scan of every binding (the reference).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.pcore.kernel import PCoreKernel
from repro.pcore.programs import Compute, Exit, Sleep
from repro.pcore.services import ServiceCode, ServiceRequest
from repro.pcore.tcb import TaskState
from repro.pcore.testkit import create_task
from repro.ptest import harness
from repro.ptest.committer import Committer
from repro.ptest.harness import AdaptiveTest
from repro.ptest.patterns import TestPattern
from repro.ptest.recording import ProcessStateRecorder
from repro.workloads.registry import build_scenario

# -- sleepers ----------------------------------------------------------------


def _program(*syscalls):
    """A task body issuing ``syscalls``, then exiting."""

    def program(ctx):
        del ctx
        for syscall in syscalls:
            yield syscall
        yield Exit(0)

    return program


def _full_scan_wake(self: PCoreKernel) -> None:
    """The reference: scan the whole task table on every step."""
    for task in self.tasks.values():
        if (
            task.state is TaskState.SLEEPING
            and task.wakeup_at is not None
            and task.wakeup_at <= self.now
        ):
            task.wakeup_at = None
            task.transition(TaskState.READY)
            self.scheduler.enqueue(task)


#: ``(priority, syscalls)`` per task, created in this order (tids 1-3).
#: Tid 1 sleeps at step 0 and tid 2 at step 1, both until step 12;
#: tid 1 sleeps once more after waking.  Tid 3 computes throughout.
TASKS = (
    (3, (Sleep(12), Compute(4), Sleep(5), Compute(2))),
    (2, (Sleep(11), Compute(4))),
    (1, (Compute(200),)),
)

#: Case -> {step: requests submitted just before it}.
SLEEPER_CASES = {
    "two_due_on_one_step": {},
    "suspend_sleeping": {5: [(ServiceCode.TS, 1)]},
    "resume_before_due": {5: [(ServiceCode.TS, 1)], 8: [(ServiceCode.TR, 1)]},
    "resume_after_due": {5: [(ServiceCode.TS, 1)], 20: [(ServiceCode.TR, 1)]},
    "delete_sleeping": {5: [(ServiceCode.TD, 1)], 9: [(ServiceCode.TD, 2)]},
}
#: The state each request's target is in when it is submitted: TR
#: resumes the task TS suspended in its sleep.
TARGET_STATES = {
    ServiceCode.TS: TaskState.SLEEPING,
    ServiceCode.TD: TaskState.SLEEPING,
    ServiceCode.TR: TaskState.SUSPENDED,
}


def _sleeper_run(actions: dict, check_sleepers: bool) -> list[tuple]:
    """Step the :data:`TASKS` kernel through ``actions``; returns what
    the comparison reads after every step."""
    kernel = PCoreKernel()
    for priority, syscalls in TASKS:
        kernel.register_program(f"p{priority}", _program(*syscalls))
        create_task(kernel, priority=priority, program=f"p{priority}")
    observed = []
    for now in range(40):
        for service, target in actions.get(now, ()):
            assert kernel.tasks[target].state is TARGET_STATES[service]
            kernel.submit(ServiceRequest(service=service, target=target))
        kernel.step(now)
        states = kernel.task_states()
        if check_sleepers:
            sleeping = {
                tid for tid, state in states.items() if state is TaskState.SLEEPING
            }
            assert kernel._sleepers == sleeping
        ready = [task.tid for task in kernel.scheduler.ready_tasks()]
        observed.append((states, kernel.now, kernel.steps, ready))
    return observed


@pytest.mark.parametrize("case", sorted(SLEEPER_CASES))
def test_sleepers_match_the_full_scan(case):
    actions = SLEEPER_CASES[case]
    tracked = _sleeper_run(actions, check_sleepers=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PCoreKernel, "_wake_sleepers", _full_scan_wake)
        reference = _sleeper_run(actions, check_sleepers=False)
    assert tracked == reference


def test_two_sleepers_wake_on_one_step():
    observed = _sleeper_run({}, check_sleepers=True)
    before, due = observed[11][0], observed[12][0]
    assert before[1] is before[2] is TaskState.SLEEPING
    assert (due[1], due[2]) == (TaskState.RUNNING, TaskState.READY)


# -- recorder ----------------------------------------------------------------


def _per_tick_update_recorder(recorder, committer, kernel, written):
    """The reference: write every bound pair's slave state every tick."""
    del written
    if recorder is None:
        return
    for pair_id, binding in committer.bindings.items():
        if binding.tid is None:
            continue
        task = kernel.tasks.get(binding.tid)
        if task is not None:
            recorder.note_slave_state(pair_id, task.state, tid=binding.tid)
        else:
            recorder.note_slave_state(pair_id, "s:gone", tid=binding.tid)


def _recorded_run(test: AdaptiveTest, per_tick: bool):
    """Run ``test``; returns its result, each round's recorder state
    (records plus slave tids) and the number of slave-state writes."""
    recorders: list[ProcessStateRecorder] = []
    writes = []
    note = ProcessStateRecorder.note_slave_state

    def make_recorder() -> ProcessStateRecorder:
        recorder = ProcessStateRecorder()
        recorders.append(recorder)
        return recorder

    def counting_note(self, *args, **kwargs):
        writes.append(args[0])
        return note(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "ProcessStateRecorder", make_recorder)
        patch.setattr(ProcessStateRecorder, "note_slave_state", counting_note)
        if per_tick:
            patch.setattr(
                AdaptiveTest,
                "_update_recorder",
                staticmethod(_per_tick_update_recorder),
            )
        result = test.run()
    # A round's recorder is not written after its round ends.
    rounds = [
        (recorder.snapshot(), [recorder.slave_tid(p) for p in recorder.pairs()])
        for recorder in recorders
    ]
    return result, rounds, len(writes)


#: Pair 0's bound tid and that task's state (``None``: no such task),
#: tick by tick: a new tid in an unchanged state, a task gone, unbound.
OBSERVATIONS = (
    (None, None),
    (3, TaskState.READY),
    (3, TaskState.READY),
    (5, TaskState.READY),
    (5, TaskState.RUNNING),
    (5, None),
    (None, None),
    (3, TaskState.READY),
)


def test_recorder_follows_tid_and_state_changes():
    trajectories = []
    for update in (AdaptiveTest._update_recorder, _per_tick_update_recorder):
        recorder = ProcessStateRecorder()
        recorder.register_pair(TestPattern(pattern_id=0, symbols=("TC",)))
        binding = SimpleNamespace(tid=None)
        committer = SimpleNamespace(bindings={0: binding})
        written: dict = {}
        trajectory = []
        for tid, state in OBSERVATIONS:
            binding.tid = tid
            tasks = {} if state is None else {tid: SimpleNamespace(state=state)}
            update(recorder, committer, SimpleNamespace(tasks=tasks), written)
            trajectory.append((recorder.record(0), recorder.slave_tid(0)))
        trajectories.append(trajectory)
    assert trajectories[0] == trajectories[1]


VARIANTS = {
    "defaults": {},
    "fire_and_forget": {"lockstep": False},
    "noise": {"noise_ticks": 3},
    # Hundreds of rounds on the clean scenarios within the budget.
    "restart": {"restart_patterns": True, "max_ticks": 2_000},
}
SCENARIOS = ("philosophers", "producer_consumer", "readers_writers", "quicksort_stress")


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_recorder_matches_per_tick_writes(scenario, variant, seed):
    def build() -> AdaptiveTest:
        test = build_scenario(scenario, seed)
        test.config = replace(test.config, **VARIANTS[variant])
        return test

    result, rounds, writes = _recorded_run(build(), per_tick=False)
    reference, reference_rounds, reference_writes = _recorded_run(
        build(), per_tick=True
    )
    assert len(rounds) == result.rounds
    assert rounds == reference_rounds
    assert result == reference
    if result.report is not None:
        assert result.report.state_records == reference.report.state_records
    assert 0 < writes <= reference_writes


# -- committer ---------------------------------------------------------------


def _full_scan_done(committer: Committer) -> bool:
    """The reference: scan every binding for an unanswered command."""
    if committer.cursor < len(committer.merged.commands) or committer._stalled_request:
        return False
    if committer.lockstep:
        return all(
            binding.outstanding_seq is None
            for binding in committer.bindings.values()
        )
    return True


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_done_matches_the_full_scan(scenario, variant, seed):
    seen = set()
    step = Committer.step

    def checking_step(self, now):
        worked = step(self, now)
        awaiting = sum(
            binding.outstanding_seq is not None
            for binding in self.bindings.values()
        )
        assert (self._awaiting, self.done) == (awaiting, _full_scan_done(self))
        seen.add(self.done)
        return worked

    test = build_scenario(scenario, seed)
    test.config = replace(test.config, **VARIANTS[variant])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Committer, "step", checking_step)
        test.run()
    assert seen == {False, True}
