"""The commit loop's contract, from merged pattern to rows.

:class:`~repro.ptest.committer.Committer` walks a
:class:`~repro.ptest.patterns.MergedPattern` command by command.  These
tests hold that one walk to its contract over the op × lockstep ×
noise × mailbox-stall matrix against a deterministic echo bridge:
commands issue exactly once, in merged order; lockstep pairs never
have two commands in flight; a full mailbox stalls and retries the
same command.  Then the pieces around it: the recorder's lazy records,
per-cell merges over a shared lockstep sampler, and rows that stay
identical whatever the worker entry point's trailing knobs, the worker
count, the batch size or ``REPRO_NO_NUMPY`` say — no field or
parameter selects a pattern path any more.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

from repro.automata.batch import NO_NUMPY_ENV
from repro.automata.compiled import CompiledPFA
from repro.errors import ConfigError
from repro.pcore.services import ServiceCode, ServiceResult, ServiceStatus
from repro.ptest.campaign import Campaign
from repro.ptest.chaos import run_chaos_batch
from repro.ptest.committer import Committer
from repro.ptest.executor import CellExecutor
from repro.ptest.generator import PatternGenerator, SharedPatternBatch
from repro.ptest.harness import AdaptiveTest
from repro.ptest.merger import PatternMerger
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import (
    clear_worker_cache,
    make_batch_table,
    run_table_batch,
    shutdown_pools,
)
from repro.ptest.recording import ProcessStateRecorder, StateRecord
from repro.sim.trace import Tracer
from repro.workloads.registry import build_scenario, scenario_ref


@pytest.fixture(scope="module")
def compiled() -> CompiledPFA:
    return CompiledPFA.from_pfa(pcore_pfa())


class EchoBridge:
    """Deterministic ``BridgeMaster`` stand-in for committer tests.

    Issued requests are answered ``OK`` after sitting ``reply_delay``
    extra pumps (0 = next step, like the real mailbox round trip); TC
    replies carry fresh tids so pair bindings evolve as in a real run.
    ``capacity`` bounds the in-flight mailbox, so a small value forces
    the committer's stall/retry path.  ``max_in_flight`` records the
    most commands any one pair ever had unanswered.
    """

    def __init__(
        self, capacity: int | None = None, reply_delay: int = 0
    ) -> None:
        self.capacity = capacity
        self.reply_delay = reply_delay
        self.now = 0
        self.outstanding: dict = {}
        self.max_in_flight = 0
        self._pending: list = []  # [age, bound request]
        self._next_seq = 1
        self._next_tid = 1

    def issue(self, request):
        if (
            self.capacity is not None
            and len(self._pending) >= self.capacity
        ):
            return None
        sequence = self._next_seq
        self._next_seq += 1
        bound = replace(request, sequence=sequence)
        self.outstanding[sequence] = bound
        self._pending.append([0, bound])
        in_flight = sum(
            1
            for other in self.outstanding.values()
            if other.issuer == request.issuer
        )
        self.max_in_flight = max(self.max_in_flight, in_flight)
        return sequence

    def pump(self) -> list:
        arrived = []
        keep = []
        for entry in self._pending:
            entry[0] += 1
            if entry[0] > self.reply_delay:
                bound = entry[1]
                value = None
                if bound.service is ServiceCode.TC:
                    value = self._next_tid
                    self._next_tid += 1
                del self.outstanding[bound.sequence]
                arrived.append(
                    ServiceResult(
                        request=bound,
                        status=ServiceStatus.OK,
                        value=value,
                        completed_at=self.now,
                    )
                )
            else:
                keep.append(entry)
        self._pending = keep
        return arrived


def build_merged(
    compiled: CompiledPFA,
    op: str,
    slot: int,
    per_merge: int = 4,
    size: int = 24,
    chunk: int = 3,
    merge_seed: int = 77,
) -> MergedPattern:
    """One deterministic merge per ``(op, slot)``."""
    patterns = [
        PatternGenerator.from_pfa(
            compiled, seed=(1 << 40) + 7919 * slot + index, on_final="restart"
        ).generate(size, pattern_id=index)
        for index in range(per_merge)
    ]
    return PatternMerger(op=op, seed=merge_seed, chunk=chunk).merge(patterns)


def drive(
    merged: MergedPattern,
    bridge_kw: dict | None = None,
    lockstep: bool = True,
    noise_ticks: int = 0,
    recorder: ProcessStateRecorder | None = None,
    tracer: Tracer | None = None,
) -> Committer:
    committer = Committer(
        bridge=EchoBridge(**(bridge_kw or {})),
        merged=merged,
        recorder=recorder,
        tracer=tracer,
        lockstep=lockstep,
        noise_ticks=noise_ticks,
        noise_seed=13,
    )
    now = 0
    while not committer.is_halted():
        committer.step(now)
        now += 1
        assert now < 10_000, "commit loop failed to halt"
    return committer


def commits(tracer: Tracer) -> list[tuple[str, int, int]]:
    """``(symbol, pair, position)`` of every commit event, in order."""
    return [
        (event.payload["symbol"], event.payload["pair"], event.payload["position"])
        for event in tracer.events
        if event.payload.get("event") == "commit"
    ]


def expected_commits(merged: MergedPattern) -> list[tuple[str, int, int]]:
    return [(c.symbol, c.pattern_id, c.position) for c in merged.commands]


def assert_walk_contract(merged, lockstep=True, **drive_kw) -> Committer:
    """Drive ``merged`` and check the walk's contract; a second drive
    must reproduce the first exactly."""
    runs = []
    for _ in range(2):
        recorder = ProcessStateRecorder()
        tracer = Tracer()
        committer = drive(
            merged, recorder=recorder, tracer=tracer, lockstep=lockstep, **drive_kw
        )
        runs.append((committer, recorder, tracer))
    (committer, recorder, tracer), (again, again_rec, again_tr) = runs
    assert commits(tracer) == expected_commits(merged)
    assert committer.issued == committer.cursor == len(merged)
    assert len(committer.results) == len(merged)
    assert committer.error_results == []
    if lockstep:
        assert committer.bridge.max_in_flight == 1
    sources = merged.sources
    assert recorder.snapshot_columns() == (
        [pattern.pattern_id for pattern in sources],
        [len(pattern) for pattern in sources],
        [0] * len(sources),
    )
    assert again.results == committer.results
    assert (again.steps, again.stall_events) == (
        committer.steps,
        committer.stall_events,
    )
    assert again_rec.snapshot() == recorder.snapshot()
    assert again_tr.dump() == tracer.dump()
    return committer


class TestColumnWalkEquivalence:
    """The one commit walk across the op × lockstep × noise × mailbox
    matrix."""

    @pytest.mark.parametrize("op", ["round_robin", "cyclic"])
    @pytest.mark.parametrize(
        "lockstep", [True, False], ids=["lockstep", "fire-and-forget"]
    )
    @pytest.mark.parametrize("noise_ticks", [0, 3], ids=["quiet", "noisy"])
    @pytest.mark.parametrize(
        "bridge_kw",
        [{"reply_delay": 1}, {"capacity": 1, "reply_delay": 1}],
        ids=["roomy-mailbox", "stalling-mailbox"],
    )
    def test_matrix(self, compiled, op, lockstep, noise_ticks, bridge_kw):
        merged = build_merged(compiled, op, slot=5)
        committer = assert_walk_contract(
            merged,
            bridge_kw=bridge_kw,
            lockstep=lockstep,
            noise_ticks=noise_ticks,
        )
        if "capacity" not in bridge_kw:
            assert committer.stall_events == 0
            if op == "cyclic" and not lockstep and noise_ticks == 0:
                # Replies lag issue and cyclic issues runs of one pair,
                # so without lockstep a pair has several commands in
                # flight: the lockstep check above is not vacuous.
                assert committer.bridge.max_in_flight > 1
        elif noise_ticks == 0:
            # The tight mailbox must actually exercise stall/retry.
            assert committer.stall_events > 0

    def test_fallback_walk_matches_under_env_mask(self, monkeypatch):
        """`REPRO_NO_NUMPY` changes nothing from sampling to report: a
        deadlocking and a crashing scenario run identically masked."""
        cells = [("philosophers", 3), ("quicksort_stress", 0)]

        def run_all():
            runs = []
            for name, seed in cells:
                test = build_scenario(name, seed)
                runs.append((test.run(), test.tracer.dump()))
            return runs

        unmasked = run_all()
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert run_all() == unmasked
        assert all(result.found_bug for result, _trace in unmasked)


class TestHandBuiltColumns:
    """Walks over hand-built merges with known commit sequences."""

    ALPHABET = ("TC", "TS", "TR", "TD")

    def _hand_built(self) -> MergedPattern:
        sources = [
            TestPattern(pattern_id=pair, symbols=self.ALPHABET)
            for pair in (0, 1)
        ]
        commands = [
            PatternCommand(
                symbol=self.ALPHABET[position // 2],
                pattern_id=position % 2,
                sequence_in_pattern=position // 2 + 1,
                position=position,
            )
            for position in range(8)
        ]
        merged = MergedPattern(
            commands=commands, op="round_robin", sources=sources
        )
        merged.validate()
        return merged

    @pytest.mark.parametrize(
        "lockstep", [True, False], ids=["lockstep", "fire-and-forget"]
    )
    def test_walks_match(self, lockstep):
        merged = self._hand_built()
        committer = assert_walk_contract(
            merged, lockstep=lockstep, bridge_kw={"reply_delay": 1}
        )
        assert [r.request.service.name for r in committer.results] == [
            "TC", "TC", "TS", "TS", "TR", "TR", "TD", "TD"
        ]

    def test_stall_retry_and_done_never_materialise(self):
        """A full mailbox stalls the walk on one command, which is
        retried until it issues; ``done`` turns true only once the last
        command has issued (and, in lockstep mode, been answered)."""
        merged = self._hand_built()
        committer = assert_walk_contract(
            merged,
            bridge_kw={"capacity": 1, "reply_delay": 1},
            lockstep=False,
        )
        assert committer.stall_events > 0
        stepping = Committer(
            bridge=EchoBridge(capacity=1, reply_delay=1),
            merged=merged,
            lockstep=True,
        )
        now = 0
        while not stepping.done:
            assert stepping.issued < len(merged) or stepping.bridge.outstanding
            stepping.step(now)
            now += 1
        assert stepping.issued == len(merged)
        assert not stepping.bridge.outstanding

    def test_unknown_symbol_raises_at_the_step_reached(self):
        source = TestPattern(pattern_id=0, symbols=("TC", "XQ"))
        merged = MergedPattern(
            commands=[
                PatternCommand("TC", 0, 1, 0),
                PatternCommand("XQ", 0, 2, 1),
            ],
            op="round_robin",
            sources=[source],
        )
        committer = Committer(
            bridge=EchoBridge(), merged=merged, lockstep=False
        )
        committer.step(0)  # the TC issues fine
        assert committer.issued == 1
        with pytest.raises(
            ConfigError, match="symbol 'XQ' is not a service"
        ):
            committer.step(1)


class TestRecorderLaziness:
    """Regression: the snapshot hot path keeps the pattern and SN, and
    slices no tuples until a record is read."""

    ALPHABET = ("TC", "TS", "TR", "TD")

    def test_recording_stays_on_the_id_plane(self):
        pattern = TestPattern(pattern_id=0, symbols=self.ALPHABET)
        recorder = ProcessStateRecorder()
        recorder.register_pair(pattern)
        recorder.note_issue(0, "m0.1")
        recorder.note_slave_state(0, "s:ready", tid=3)
        record = recorder.record(0)
        snapshot = recorder.snapshot()
        assert recorder.snapshot_columns() == ([0], [1], [3])
        assert record._pattern is None and record._remaining is None
        assert all(
            r._pattern is None and r._remaining is None for r in snapshot
        )

    def test_lazy_record_equals_its_eager_twin(self):
        pattern = TestPattern(pattern_id=0, symbols=self.ALPHABET)
        recorder = ProcessStateRecorder()
        recorder.register_pair(pattern)
        recorder.note_issue(0, "m0.1")
        recorder.note_slave_state(0, "s:ready")
        record = recorder.record(0)
        eager = StateRecord(
            pair_id=0,
            master_state="m0.1",
            slave_state="s:ready",
            pattern=self.ALPHABET,
            sequence_number=1,
            remaining=("TS", "TR", "TD"),
        )
        assert record == eager
        assert hash(record) == hash(eager)
        assert record.describe() == eager.describe()
        # Reading materialises (and caches) exactly the eager values.
        assert record.pattern == self.ALPHABET
        assert record.remaining == ("TS", "TR", "TD")


def own_merges(compiled, seed, merger_seed, rounds, count, size, op, chunk):
    """A cell's rounds from its own generator and merger."""
    generator = PatternGenerator.from_pfa(compiled, seed=seed)
    merger = PatternMerger(op=op, seed=merger_seed, chunk=chunk)
    return [
        merger.merge(generator.generate_batch(count, size))
        for _ in range(rounds)
    ]


class TestSharedMergeBatch:
    """Per-cell merges over a shared lockstep sampler: each cell's
    rounds equal its own generate+merge, however the cells interleave."""

    def test_interleaved_cells_match_their_own_merges(self, compiled):
        seeds = (2**40 + 5, 11, -(2**35))
        merger_seeds = (301, 302, 303)
        size, count, op, chunk = 8, 3, "cyclic", 2
        shared = SharedPatternBatch(pfa=compiled, seeds=seeds, size=size)
        streams = [shared.stream(cell) for cell in range(len(seeds))]
        order = [0, 0, 2, 1, 0, 1, 2]
        expected = {
            cell: own_merges(
                compiled,
                seeds[cell],
                merger_seeds[cell],
                order.count(cell),
                count,
                size,
                op,
                chunk,
            )
            for cell in range(len(seeds))
        }
        progress = {cell: 0 for cell in range(len(seeds))}
        # Drain in a deliberately unfair order.
        for cell in order:
            merger = PatternMerger(op=op, seed=merger_seeds[cell], chunk=chunk)
            merged = merger.merge(streams[cell].generate_batch(count, size))
            want = expected[cell][progress[cell]]
            assert merged == want
            assert merged.describe() == want.describe()
            progress[cell] += 1
        assert [stream.generated for stream in streams] == [
            count * order.count(cell) for cell in range(len(seeds))
        ]

    def test_prime_premerges_without_changing_output(self, compiled):
        seeds = (2**40 + 5, 11)
        shared = SharedPatternBatch(pfa=compiled, seeds=seeds, size=6)
        shared.prime(4)
        for cell, seed in enumerate(seeds):
            merger = PatternMerger(op="round_robin", seed=41 + cell, chunk=1)
            stream = shared.stream(cell)
            got = [merger.merge(stream.generate_batch(2, 6)) for _ in range(3)]
            assert got == own_merges(
                compiled, seed, 41 + cell, 3, 2, 6, "round_robin", 1
            )

    def test_validation(self, compiled):
        shared = SharedPatternBatch(pfa=compiled, seeds=(1, 2), size=4)
        generator = PatternGenerator.from_pfa(compiled, seed=1)
        for source in (shared.stream(0), generator):
            with pytest.raises(ConfigError, match="pattern count must be >= 1"):
                source.generate_batch(0, 4)
            with pytest.raises(ConfigError, match="pattern size must be >= 1"):
                source.generate(0)

    def test_merge_batch_seed_count_mismatch(self):
        merger = PatternMerger(op="round_robin", seed=1, chunk=1)
        group = [TestPattern(pattern_id=0, symbols=("TC",))]
        with pytest.raises(ConfigError, match="1 groups but 2 seeds"):
            merger.merge_batch([group], seeds=(5, 6))

    def test_harness_ignores_mismatched_merge_stream(self, compiled):
        """The harness takes no generator or merge stream: neither is a
        field, and an attribute of that name changes nothing."""
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        plain = ref(5).run()
        for name in ("generator_override", "merge_override"):
            with pytest.raises(TypeError, match=name):
                AdaptiveTest(config=ref(5).config, **{name: None})
        test = ref(5)
        stream = SharedPatternBatch(pfa=compiled, seeds=(5,), size=4).stream(0)
        test.generator_override = stream
        test.merge_override = stream
        assert test.run() == plain
        assert stream.generated == 0


class TestWorkerMergeBatch:
    """`run_table_batch` in process: its two trailing knobs are
    accepted and ignored."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_worker_cache()
        yield
        clear_worker_cache()

    def _table(self):
        refs = [scenario_ref("clean_spin", tasks=2, total_steps=40)] * 4 + [
            scenario_ref("philosophers", op="cyclic")
        ] * 3
        seeds = [0, 1, 2, 3, 10, 11, 12]
        return make_batch_table(refs, seeds)

    def test_rows_identical_across_merge_batch_settings(self):
        table, jobs = self._table()
        baseline = run_table_batch(table, jobs)
        for merge_batch in (False, None, True):
            clear_worker_cache()
            assert run_table_batch(table, jobs, None, merge_batch) == (
                baseline
            ), f"rows diverged at merge_batch={merge_batch}"

    def test_sampling_off_disables_merge_batching(self):
        table, jobs = self._table()
        baseline = run_table_batch(table, jobs)
        for knobs in ((False, None), (False, True), (True, False)):
            clear_worker_cache()
            assert run_table_batch(table, jobs, *knobs) == baseline, knobs

    def test_executor_rejects_explicit_merge_batch(self):
        with pytest.raises(TypeError, match="merge_batch"):
            CellExecutor(workers=2, merge_batch=True)
        assert list(inspect.signature(run_chaos_batch).parameters) == [
            "spec",
            "attempt",
            "table",
            "jobs",
        ]

    def test_rows_identical_with_numpy_masked(self, monkeypatch):
        table, jobs = self._table()
        unmasked = run_table_batch(table, jobs)
        clear_worker_cache()
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert run_table_batch(table, jobs) == unmasked


class TestCampaignMergeBatchIdentity:
    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _campaign(self, workers, batch_size=None):
        campaign = Campaign(seeds=(0, 1, 2), workers=workers, batch_size=batch_size)
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        campaign.add_grid(
            "phil", "philosophers", {"op": ["cyclic", "random", "round_robin"]}
        )
        return campaign

    def test_rows_identical_at_every_merge_setting(self):
        """Every merge op, serial or pooled at any batch size: the same
        rows, detections and anomaly kinds."""
        baseline = self._campaign(workers=1)
        rows = baseline.run()
        for workers, batch_size in [(2, None), (2, 1)]:
            campaign = self._campaign(workers, batch_size)
            assert campaign.run() == rows, (
                f"rows diverged at workers={workers}, batch_size={batch_size}"
            )
            for variant in baseline.results:
                expected = baseline.results[variant]
                actual = campaign.results[variant]
                assert [r.found_bug for r in actual] == [
                    r.found_bug for r in expected
                ]
                assert [
                    [a.kind for a in r.anomalies] for r in actual
                ] == [[a.kind for a in r.anomalies] for r in expected]
