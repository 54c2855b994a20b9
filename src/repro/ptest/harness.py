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

The drain phase (after the last reply, without ``restart_patterns``)
fast-forwards: compute-only ticks are applied in batches
(:meth:`~repro.sim.soc.DualCoreSoC.fast_forward`).  A batch that starts
on the tick of a detector sweep ends at the first sweep tick at or
after that sweep's alarm (``BugDetector.alarm``), or at ``max_ticks``;
any other batch ends by the next sweep tick and ``max_ticks``.  The
kernel bounds every batch further (the end of a compute, a sleeper's
wake, a GC pass with pending items, a timed event).

The sweep ticks a batch crosses are skipped, and none of them could
have reported.  Between a sweep and the next stepped tick, a batch
changes only the running task's progress fields.  The kernel cannot
halt inside a batch, and a batch needs a halted master, so no command
is outstanding: no crash and no hang can start.  No mutex changes
hands, so the wait-for graph stays as the sweep left it: a cycle could
only be one that sweep saw, and then its alarm is the next tick.  What
remains is a waiting task's age crossing the progress window, and the
alarm is the first tick at which that can happen.  The skipped sweeps
still count in ``BugDetector.sweeps``.  No stop check could fire inside
a batch either: a task is RUNNING, so the kernel has not halted and not
every task is SUSPENDED.  The batch's last tick runs the checks due on
it like any stepped tick, and every tick is swept at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.automata.compiled import CompiledPFA
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
        Override the generator's automaton — a hand-built PFA, or an
        already-compiled :class:`CompiledPFA` (cached pool workers
        substitute one here to skip per-run recompilation; sampling is
        bit-identical).  By default RE (2) with
        ``use_paper_distribution`` uses the Fig. 5 PFA, anything else
        goes through the regex pipeline with uniform rows.
    setup:
        Optional hook called with the kernel before the run starts
        (pre-creating semaphores, seeding shared memory, ...).
    """

    config: PTestConfig
    programs: Mapping[str, TaskProgram] = field(default_factory=dict)
    pfa: PFA | CompiledPFA | None = None
    setup: Callable[[PCoreKernel], None] | None = None
    tracer: Tracer = field(default_factory=Tracer)
    #: When set, skip generation/merging and replay exactly this merged
    #: pattern (single round).  Used by the systematic (CHESS-lite)
    #: baseline and by reproduction of externally crafted interleavings.
    merged_override: "MergedPattern | None" = None

    def pattern_pfa(self) -> PFA | CompiledPFA | None:
        """The automaton the generator will walk, ``None`` for the regex
        pipeline.

        This is the substitution point the worker-side cache of
        :mod:`repro.ptest.pool` uses: it reads the PFA a freshly-built
        test would construct, compiles it once per ``ScenarioRef`` cache
        key, and assigns the compiled form back to ``self.pfa`` so every
        later seed of the same variant skips recompilation.
        """
        if self.pfa is not None:
            return self.pfa
        if (
            self.config.use_paper_distribution
            and self.config.regex == PCORE_REGULAR_EXPRESSION
        ):
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
                seed=config.seed,
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

            while ticks < config.max_ticks:
                soc.step()
                ticks += 1
                self._update_recorder(recorder, committer, kernel, written)
                if ticks % config.detector_interval == 0:
                    detector.sweep(soc.now)
                    swept_at = ticks
                    if detector.triggered:
                        break
                if committer.done and not bridge_master.outstanding:
                    break
            issued_total += committer.issued
            if detector.triggered:
                break
            if not config.restart_patterns:
                # Let the slave drain: leftover tasks may still wedge
                # (a blocked consumer only ages past the progress window
                # well after the last command was issued).
                interval = config.detector_interval
                while ticks < config.max_ticks:
                    # A compute-only batch ends by the next sweep tick,
                    # or by the alarm's if a sweep ran on this tick; the
                    # sweeps it crosses could not report (module
                    # docstring).
                    stop = ticks - ticks % interval + interval
                    if swept_at == ticks:
                        alarm = detector.alarm
                        if alarm is None:
                            stop = config.max_ticks
                        else:
                            stop = max(stop, -(-alarm // interval) * interval)
                    advanced = soc.fast_forward(min(config.max_ticks, stop) - ticks)
                    if advanced:
                        end = ticks + advanced
                        detector.sweeps += (end - 1) // interval - ticks // interval
                        ticks = end
                    else:
                        soc.step()
                        ticks += 1
                    if ticks % interval == 0:
                        detector.sweep(soc.now)
                        swept_at = ticks
                        if detector.triggered:
                            break
                    if advanced:
                        continue  # a task is RUNNING: no stop check fires
                    if kernel.is_halted():
                        break
                    if not bridge_master.outstanding and all(
                        task.state is TaskState.SUSPENDED
                        for task in kernel.live_tasks()
                    ):
                        # Nothing left that can move: every surviving
                        # task is parked by a pattern that ended in TS.
                        break
                if swept_at != ticks:
                    detector.sweep(soc.now)
                break

        report = None
        if detector.triggered and committer is not None:
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


def reproduce(report: BugReport) -> TestRunResult:
    """Re-run a bug report's config; deterministic seeds re-find the bug.

    Note: reproduction needs the same ``programs``/``setup`` the
    original run used; for the built-in workloads use the scenario
    helpers in :mod:`repro.workloads.scenarios`.
    """
    return run_adaptive_test(report.config)
