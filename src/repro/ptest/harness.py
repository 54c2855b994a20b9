"""``AdaptiveTest`` (Algorithm 1), end to end.

The procedure: generate *n* patterns of size *s* (pattern generator),
merge them under *op* (pattern merger), fork the bug detector, and let
the committer drive the slave.  Here the "fork" is a component swept at
a fixed interval alongside the simulated cores; everything else follows
the paper's structure directly::

    for i = 1 to n:  T[i] <- PatternGenerator(RE, PD, s)
    M <- PatternMerger(T, n, op)
    ... BugDetector(op) || Committer(M)

:func:`run_adaptive_test` builds the whole simulated OMAP platform from
a :class:`~repro.ptest.config.PTestConfig`, runs it, and returns a
:class:`TestRunResult` with any :class:`~repro.ptest.report.BugReport`.

Each round runs one tick loop in two phases, and one sweep block serves
both: the loop sweeps each ``detector_interval``-th tick it lands on.
Until the round's last reply, every tick is one ``DualCoreSoC.step``
and the Definition 2 slave states are recorded.  That reply ends the
round when ``restart_patterns`` is set (the next round starts at once);
otherwise the drain starts, in which the slave keeps running with the
detector watching.  The drain advances by one
:meth:`~repro.sim.soc.DualCoreSoC.run_slave` call per iteration, in
which the slave kernel runs alone: compute-only runs in one call, every
other tick through ``PCoreKernel.step``.

* **Stretches.**  A call ends by the next sweep tick and ``max_ticks``,
  and early after a step on which the kernel halted or every live task
  is SUSPENDED (``PCoreKernel.parked``).
* **Alarm-extended runs.**  On the tick of a sweep, the call's first
  compute-only run may go on to the first sweep tick at or after that
  sweep's alarm (``BugDetector.alarm``), or to ``max_ticks``.  The
  kernel bounds it further (the end of a compute, a sleeper's wake, a GC
  pass with pending items).  A run that passes the next sweep tick ends
  the call; one that stops short of it goes on as a stretch.

A stretch is exact.  The drain starts only once the committer is done
with nothing outstanding, and nothing refills the command mailbox, the
adapter's reply backlog or the kernel inbox until the run ends: no
command is issued and no reply can arise.  With the master halted, a
``DualCoreSoC.step`` is then only the adapter's empty flush and poll,
the kernel step and the clock.  The drain's stop checks (kernel
halted; every live task SUSPENDED) can only turn true on a stepped
tick, and a stretch returns exactly there.  A stretch never passes the
next sweep tick, so every sweep it reaches runs as it would tick by
tick.  An alarm-extended run that stops short of the next sweep tick
leaves a task RUNNING, so no sweep and no stop check could fire before
the stretch that goes on from there.

The sweep ticks an alarm-extended run crosses are skipped, and none of
them could have reported.  Between a sweep and the next stepped tick,
the run changes only the running task's progress fields.  The kernel
cannot halt inside it, and it needs a halted master, so no command is
outstanding: no crash and no hang can start.  No mutex changes hands, so
the wait-for graph stays as the sweep left it: a cycle could only be one
that sweep saw, and then its alarm is the next tick.  What remains is a
waiting task's age crossing the progress window, and the alarm is the
first tick at which that can happen.  The skipped sweeps still count in
``BugDetector.sweeps``.  No stop check could fire inside the run either:
a task is RUNNING, so the kernel has not halted and not every task is
SUSPENDED.  The last tick of a call runs the checks due on it like any
stepped tick.

A run that ends on a tick no sweep has seen, with nothing reported,
sweeps that tick once more (the final sweep), in either mode: an anomaly
that arose after the last sweep tick is still reported, and every tick
is swept at most once.

The drain does not record the Definition 2 slave states tick by tick:
no reply arrives in it, so no pair's binding changes, and the recorder
is brought up to date once, before a bug report is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.automata.pfa import PFA
from repro.bridge.bridge import build_bridge
from repro.pcore.kernel import PCoreKernel
from repro.pcore.programs import TaskProgram
from repro.pcore.tcb import TaskState
from repro.ptest.committer import Committer
from repro.ptest.config import PTestConfig
from repro.ptest.detector import Anomaly, BugDetector, DetectorConfig
from repro.ptest.generator import PatternGenerator
from repro.ptest.merger import PatternMerger
from repro.ptest.patterns import MergedPattern
from repro.ptest.pcore_model import PCORE_REGULAR_EXPRESSION, pcore_pfa
from repro.ptest.recording import ProcessStateRecorder
from repro.ptest.report import BugReport
from repro.sim.rng import RngStreams
from repro.sim.soc import DualCoreSoC, SoCConfig
from repro.sim.trace import Tracer


@dataclass
class TestRunResult:
    """Outcome of one ``AdaptiveTest`` run."""

    config: PTestConfig
    anomalies: list[Anomaly]
    report: BugReport | None
    ticks: int
    rounds: int
    commands_issued: int
    commands_completed: int
    commands_failed: int
    #: Issue attempts rejected by a full command mailbox.
    command_stalls: int
    service_counts: dict[str, int]
    patterns: list[tuple[str, ...]]
    merged_length: int
    #: ``(tick, edge-set)`` wait-graph deltas, recorded only when the
    #: config sets ``record_wait_deltas`` (off by default: empty).
    wait_deltas: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()

    @property
    def found_bug(self) -> bool:
        return self.report is not None

    def summary(self) -> str:
        verdict = (
            self.report.primary.kind.value if self.report else "no anomaly"
        )
        return (
            f"{verdict}: {self.commands_issued} commands over {self.ticks} "
            f"ticks, {self.rounds} round(s)"
        )


@dataclass
class AdaptiveTest:
    """Builds and runs one adaptive stress test on the simulated SoC.

    Parameters
    ----------
    config:
        The run parameters (RE, n, s, op, seed, platform, detector).
    programs:
        Extra slave task programs to register, by name; the config's
        ``program`` field selects which one created tasks run.
    pfa:
        Override the generator's automaton with a hand-built PFA.  By
        default RE (2) uses the Fig. 5 PFA; any other regex goes
        through the regex pipeline with uniform rows.
    setup:
        Optional hook called with the kernel before the run starts
        (pre-creating semaphores, seeding shared memory, ...).
    """

    config: PTestConfig
    programs: Mapping[str, TaskProgram] = field(default_factory=dict)
    pfa: PFA | None = None
    setup: Callable[[PCoreKernel], None] | None = None
    tracer: Tracer = field(default_factory=Tracer)
    #: When set, skip generation/merging and replay exactly this merged
    #: pattern (single round).  Used by the systematic (CHESS-lite)
    #: baseline and by reproduction of externally crafted interleavings.
    merged_override: "MergedPattern | None" = None

    def pattern_pfa(self) -> PFA | None:
        """The automaton the generator will walk: ``pfa`` when set, the
        Fig. 5 PFA for RE (2), otherwise ``None`` (the regex
        pipeline)."""
        if self.pfa is not None:
            return self.pfa
        if self.config.regex == PCORE_REGULAR_EXPRESSION:
            return pcore_pfa()
        return None

    def _build_generator(self, seed: int) -> PatternGenerator:
        pfa = self.pattern_pfa()
        if pfa is not None:
            return PatternGenerator.from_pfa(pfa, seed=seed)
        return PatternGenerator(
            regex=self.config.regex,
            alphabet=self.config.alphabet,
            seed=seed,
        )

    def run(self) -> TestRunResult:
        """Execute Algorithm 1 until a bug, budget exhaustion, or done."""
        config = self.config
        streams = RngStreams(master_seed=config.seed)
        generator = self._build_generator(streams.fresh_seed("generator"))
        merger = PatternMerger(
            op=config.op,
            seed=streams.fresh_seed("merger"),
            chunk=config.chunk,
        )

        soc = DualCoreSoC(
            config=SoCConfig(
                mailbox_capacity=config.mailbox_capacity,
                master_steps_per_tick=config.master_steps_per_tick,
            ),
            tracer=self.tracer,
        )
        kernel = PCoreKernel(
            config=config.kernel,
            tracer=self.tracer,
            shared_memory=soc.sram,
        )
        for name, program in self.programs.items():
            kernel.register_program(name, program)
        if self.setup is not None:
            self.setup(kernel)
        bridge_master, slave_core = build_bridge(
            soc.mailboxes, kernel, tracer=self.tracer
        )
        detector = BugDetector(
            kernel=kernel,
            bridge=bridge_master,
            config=DetectorConfig(
                reply_timeout=config.reply_timeout,
                progress_window=config.progress_window,
                interval=config.detector_interval,
                record_wait_deltas=config.record_wait_deltas,
            ),
            tracer=self.tracer,
        )

        rounds = 0
        ticks = 0
        swept_at: int | None = None
        interval = config.detector_interval
        issued_total = 0
        all_patterns: list[tuple[str, ...]] = []
        committer: Committer | None = None
        recorder: ProcessStateRecorder | None = None
        merged_length = 0

        while ticks < config.max_ticks:
            # Start a (new) round: generate, merge, commit.
            if self.merged_override is not None:
                merged = self.merged_override
                patterns = list(merged.sources)
            else:
                patterns = generator.generate_batch(
                    config.pattern_count, config.pattern_size
                )
                merged = merger.merge(patterns)
            all_patterns.extend(p.symbols for p in patterns)
            merged_length = len(merged)
            recorder = ProcessStateRecorder()
            written: dict[int, tuple[int, TaskState | str]] = {}
            committer = Committer(
                bridge=bridge_master,
                merged=merged,
                recorder=recorder,
                tracer=self.tracer,
                lockstep=config.lockstep,
                program=config.program,
                pair_programs=config.pair_programs,
                noise_ticks=config.noise_ticks,
                noise_seed=streams.fresh_seed("noise"),
            )
            soc.attach(master=committer, slave=slave_core)
            rounds += 1

            # One tick loop per round: the committer's ticks, then the
            # drain (module docstring).
            draining = False
            while ticks < config.max_ticks:
                if draining:
                    # Up to the next sweep tick; from a swept tick, a
                    # compute-only run may go on to the alarm's sweep
                    # tick, and the sweeps it crosses, which could not
                    # report, still count.
                    next_sweep = ticks - ticks % interval + interval
                    reach = next_sweep
                    if swept_at == ticks:
                        alarm = detector.alarm
                        reach = config.max_ticks
                        if alarm is not None:
                            reach = max(next_sweep, -(-alarm // interval) * interval)
                    start = ticks
                    ticks += soc.run_slave(
                        min(config.max_ticks, next_sweep) - ticks,
                        min(config.max_ticks, reach) - ticks,
                    )
                    detector.sweeps += (ticks - 1) // interval - start // interval
                else:
                    soc.step()
                    ticks += 1
                    self._update_recorder(recorder, committer, kernel, written)
                if ticks % interval == 0:
                    detector.sweep(soc.now)
                    swept_at = ticks
                    if detector.triggered:
                        break
                if draining:
                    if kernel.is_halted() or kernel.parked():
                        # Nothing left that can move: the kernel is down,
                        # or every surviving task is parked by a pattern
                        # that ended in TS.
                        break
                elif committer.done and not bridge_master.outstanding:
                    if config.restart_patterns:
                        break
                    # Let the slave drain: leftover tasks may still wedge
                    # (a blocked consumer only ages past the progress
                    # window well after the last command was issued).
                    draining = True
            issued_total += committer.issued
            if detector.triggered or draining:
                break
        if not (detector.triggered or swept_at == ticks):
            detector.sweep(soc.now)

        report = None
        if detector.triggered and committer is not None:
            # The drain leaves the records to this one update (module
            # docstring).
            self._update_recorder(recorder, committer, kernel, written)
            # "it terminates the current job and helps users reproduce
            # the bugs": stop and dump.
            report = BugReport(
                config=config,
                anomalies=list(detector.anomalies),
                found_at=soc.now,
                commands_issued=issued_total,
                merged_position=committer.cursor,
                merged_length=merged_length,
                merged_op=config.op,
                merged_description=committer.merged.describe(),
                state_records=recorder.snapshot() if recorder else [],
                task_dump=kernel.describe_tasks(),
                trace_tail=self.tracer.dump(self.tracer.tail(60)),
                kernel_panic=kernel.panic_reason,
                wait_for_dot=detector.wait_for_dot(),
            )

        completed = len(committer.results) if committer else 0
        failed = len(committer.error_results) if committer else 0
        stalls = committer.stall_events if committer else 0
        return TestRunResult(
            config=config,
            anomalies=list(detector.anomalies),
            report=report,
            ticks=ticks,
            rounds=rounds,
            commands_issued=issued_total,
            commands_completed=completed,
            commands_failed=failed,
            command_stalls=stalls,
            service_counts=dict(kernel.stats.invoked),
            patterns=all_patterns,
            merged_length=merged_length,
            wait_deltas=tuple(detector.wait_deltas),
        )

    @staticmethod
    def _update_recorder(
        recorder: ProcessStateRecorder | None,
        committer: Committer,
        kernel: PCoreKernel,
        written: dict[int, tuple[int, TaskState | str]],
    ) -> None:
        """Record each bound pair's slave state, writing only on change.

        A pair's ``(tid, state)`` (``"s:gone"`` once its task is gone)
        goes to :meth:`ProcessStateRecorder.note_slave_state` only when
        it differs from the last one written, kept in ``written`` (empty
        with each round's fresh recorder).  This is exact: that call
        only overwrites the pair's slave state and tid, and nothing else
        writes them, so skipping the write of values the recorder
        already holds leaves it as a write on every tick would.
        """
        if recorder is None:
            return
        tasks = kernel.tasks
        for pair_id, binding in committer.bindings.items():
            tid = binding.tid
            if tid is None:
                continue
            task = tasks.get(tid)
            observed = (tid, task.state if task is not None else "s:gone")
            if written.get(pair_id) != observed:
                written[pair_id] = observed
                recorder.note_slave_state(pair_id, observed[1], tid=tid)


def run_adaptive_test(
    config: PTestConfig,
    programs: Mapping[str, TaskProgram] | None = None,
    pfa: PFA | None = None,
    setup: Callable[[PCoreKernel], None] | None = None,
) -> TestRunResult:
    """Convenience wrapper: build :class:`AdaptiveTest` and run it."""
    return AdaptiveTest(
        config=config,
        programs=programs or {},
        pfa=pfa,
        setup=setup,
    ).run()

