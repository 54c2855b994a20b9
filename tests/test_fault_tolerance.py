"""Tests for the fault-tolerant campaign fabric.

Covers the deterministic chaos harness (:mod:`repro.ptest.chaos`), the
executor's watchdog timeouts, poison-cell quarantine via bisection, and
the partial-result accounting the campaign layers surface.  The load-
bearing invariant throughout: cells that complete produce bit-identical
rows/detections at any ``(workers, batch_size, chaos on/off)``
configuration, and quarantined cells are reported identically at every
configuration that isolates them.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ChaosInjectedError, ConfigError, WatchdogTimeout
from repro.ptest.adaptive import AdaptiveCampaign, Repeat
from repro.ptest.chaos import CHAOS_EXIT_STATUS, ChaosSpec, transient_decisions
from repro.ptest.executor import (
    CellExecutor,
    CollectSink,
    QuarantinedCell,
    QuarantineReport,
    WorkCell,
)
from repro.ptest.pool import WorkerPool, shutdown_pools
from repro.workloads.registry import scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    """Every test starts and ends without lingering shared pools."""
    shutdown_pools()
    yield
    shutdown_pools()


def _spin_campaign(seeds=(0, 1, 2, 3, 4, 5), **fabric) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(seeds=tuple(seeds), executor=CellExecutor(**fabric))
    campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
    return campaign


def _sig(result):
    """The final rows of a campaign run, field by field."""
    return [
        (
            row.variant,
            row.runs,
            row.detections,
            row.kinds,
            row.mean_ticks_to_detection,
            row.mean_commands,
        )
        for row in result.final_rows
    ]


class _RaisesInRun:
    def __init__(self, seed: int):
        self.seed = seed

    def run(self) -> None:
        raise ValueError(f"cell {self.seed} is unrunnable")


def _raising_builder(seed: int) -> _RaisesInRun:
    return _RaisesInRun(seed)


class _RaisesOnSeeds:
    def __init__(self, bad: tuple[int, ...], seed: int):
        self.bad = bad
        self.seed = seed

    def run(self):
        if self.seed in self.bad:
            raise ValueError(f"cell {self.seed} is unrunnable")
        from repro.workloads.registry import build_scenario

        return build_scenario("clean_spin", self.seed, tasks=2, total_steps=40).run()


def _mixed_builder(seed: int, bad: tuple[int, ...] = ()) -> _RaisesOnSeeds:
    return _RaisesOnSeeds(bad, seed)


class _GivesUpOnSeedOne:
    def __init__(self, seed: int):
        self.seed = seed

    def run(self):
        if self.seed == 1:
            raise TimeoutError("cell gave up")
        from repro.workloads.registry import build_scenario

        return build_scenario("clean_spin", self.seed, tasks=2, total_steps=40).run()


def _gives_up_builder(seed: int) -> _GivesUpOnSeedOne:
    return _GivesUpOnSeedOne(seed)


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ConfigError, match="kill_rate"):
            ChaosSpec(kill_rate=1.5)
        with pytest.raises(ConfigError, match="hang_s"):
            ChaosSpec(hang_s=0)

    def test_seed_sets_coerced_and_picklable(self):
        spec = ChaosSpec(kill_seeds={1, 2}, raise_seeds=[3])
        assert spec.kill_seeds == frozenset({1, 2})
        assert isinstance(spec.raise_seeds, frozenset)
        assert spec.has_poison
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert CHAOS_EXIT_STATUS != 1  # distinguishable from real crashes

    def test_transient_decisions_deterministic_and_attempt_keyed(self):
        spec = ChaosSpec(seed=3, kill_rate=0.5, hang_rate=0.5, delay_rate=0.5)
        jobs = ((0, 0), (0, 1))
        first = transient_decisions(spec, 0, jobs)
        assert transient_decisions(spec, 0, jobs) == first
        # Some attempt draws a different fate — that is what makes an
        # injected kill transient rather than a forever-poison batch.
        assert any(
            transient_decisions(spec, attempt, jobs) != first
            for attempt in range(1, 8)
        )

    def test_rate_extremes(self):
        always = ChaosSpec(kill_rate=1.0)
        never = ChaosSpec()
        jobs = ((0, 7),)
        assert transient_decisions(always, 0, jobs)[0] is True
        assert transient_decisions(never, 0, jobs) == (False, False, False)

    def test_describe_names_the_faults(self):
        spec = ChaosSpec(seed=9, kill_rate=0.25, hang_seeds={4})
        text = spec.describe()
        assert "kill_rate=0.25" in text and "hang_seeds=[4]" in text


class TestTransientRecovery:
    def test_injected_kills_leave_rows_bit_identical(self):
        clean = _sig(_spin_campaign(workers=2).run())
        for batch_size in (None, 1):
            chaos = _spin_campaign(
                workers=2,
                batch_size=batch_size,
                chaos=ChaosSpec(seed=7, kill_rate=0.3),
                cell_timeout=60.0,
            )
            assert _sig(chaos.run()) == clean, f"batch_size={batch_size}"

    def test_injected_delays_leave_rows_bit_identical(self):
        clean = _sig(_spin_campaign(workers=2).run())
        chaos = _spin_campaign(
            workers=2,
            chaos=ChaosSpec(seed=11, delay_rate=0.5, delay_s=0.005),
        )
        assert _sig(chaos.run()) == clean

    def test_injected_hangs_recovered_by_watchdog(self):
        # Transient hangs re-draw per attempt, so the watchdog's
        # kill-and-resubmit converges to the clean rows.
        clean = _sig(_spin_campaign(seeds=(0, 1, 2, 3), workers=2).run())
        chaos = _spin_campaign(
            seeds=(0, 1, 2, 3),
            workers=2,
            batch_size=1,
            chaos=ChaosSpec(seed=5, hang_rate=0.35, hang_s=20.0),
            cell_timeout=0.8,
        )
        assert _sig(chaos.run()) == clean

    def test_mixed_fault_soup_still_bit_identical(self):
        clean = _sig(_spin_campaign(seeds=(0, 1, 2, 3), workers=2).run())
        chaos = _spin_campaign(
            seeds=(0, 1, 2, 3),
            workers=2,
            batch_size=1,
            chaos=ChaosSpec(
                seed=13,
                kill_rate=0.2,
                hang_rate=0.2,
                delay_rate=0.3,
                delay_s=0.002,
                hang_s=20.0,
            ),
            cell_timeout=0.8,
        )
        assert _sig(chaos.run()) == clean


class TestPoisonQuarantine:
    POISON = frozenset({2, 4})

    def _reference_rows(self):
        """Clean rows over exactly the seeds that survive quarantine."""
        survivors = tuple(s for s in range(6) if s not in self.POISON)
        return _sig(_spin_campaign(seeds=survivors, workers=2).run())

    def test_raise_poison_quarantined_identically_across_configs(self):
        reference = self._reference_rows()
        reports = []
        for workers, batch_size in ((2, None), (2, 1), (2, 3)):
            campaign = _spin_campaign(
                workers=workers,
                batch_size=batch_size,
                chaos=ChaosSpec(seed=1, raise_seeds=self.POISON),
                quarantine=True,
                cell_timeout=60.0,
            )
            result = campaign.run()
            assert _sig(result) == reference, (workers, batch_size)
            report = result.rounds[0].quarantine
            assert report.attempted == 6 and report.completed == 4
            reports.append(
                tuple((c.variant, c.seed, c.kind, c.detail) for c in report.cells)
            )
        # The invariant: identical quarantine accounting — cells, kinds
        # and detail strings — at every configuration.
        assert len(set(reports)) == 1
        assert {(c[1], c[2]) for c in reports[0]} == {
            (2, "lethal"),
            (4, "lethal"),
        }

    def test_kill_poison_quarantined_as_crash(self):
        campaign = _spin_campaign(
            workers=2,
            chaos=ChaosSpec(seed=1, kill_seeds=frozenset({3})),
            quarantine=True,
            cell_timeout=60.0,
        )
        result = campaign.run()
        report = result.rounds[0].quarantine
        assert [(c.seed, c.kind) for c in report.cells] == [(3, "crash")]
        assert report.cells[0].detail == "worker process died"
        assert result.final_rows[0].runs == 5
        assert _sig(result) == _sig(
            _spin_campaign(seeds=(0, 1, 2, 4, 5), workers=2).run()
        )

    def test_hang_poison_quarantined_as_timeout(self):
        campaign = _spin_campaign(
            workers=2,
            chaos=ChaosSpec(seed=1, hang_seeds=frozenset({1}), hang_s=25.0),
            quarantine=True,
            cell_timeout=0.8,
        )
        result = campaign.run()
        report = result.rounds[0].quarantine
        assert [(c.seed, c.kind) for c in report.cells] == [(1, "timeout")]
        assert "0.8" in report.cells[0].detail
        assert result.final_rows[0].runs == 5

    def test_poison_propagates_with_quarantine_off(self):
        campaign = _spin_campaign(
            workers=2,
            chaos=ChaosSpec(seed=1, raise_seeds=frozenset({2})),
        )
        with pytest.raises(ChaosInjectedError):
            campaign.run()

    def test_serial_and_parallel_quarantine_reports_agree(
        self, register_scenario
    ):
        # The serial path quarantines raising cells with the same kind
        # and the same config-independent detail strings the parallel
        # bisection produces.
        bad = (1, 3)
        cells = [WorkCell(variant="mixed", seed=seed) for seed in range(5)]
        builders = {"mixed": register_scenario("ft_mixed", _mixed_builder, bad=bad)}
        serial_sink, parallel_sink = CollectSink(), CollectSink()
        serial = CellExecutor(workers=1, quarantine=True)
        serial.run_cells(builders, cells, serial_sink)
        with WorkerPool(2) as pool:
            parallel = CellExecutor(workers=2, pool=pool, batch_size=2, quarantine=True)
            parallel.run_cells(builders, cells, parallel_sink)
        serial_cells = [
            (c.variant, c.seed, c.kind, c.detail)
            for c in serial.last_quarantine.cells
        ]
        parallel_cells = [
            (c.variant, c.seed, c.kind, c.detail)
            for c in parallel.last_quarantine.cells
        ]
        assert serial_cells == parallel_cells
        assert {c[1] for c in serial_cells} == set(bad)
        assert all(c[2] == "lethal" for c in serial_cells)
        # Both paths deliver exactly the survivors, in submission order,
        # with equal results.
        survivors = [cell for cell in cells if cell.seed not in bad]
        assert serial_sink.cells == parallel_sink.cells == survivors
        assert [r.ticks for r in serial_sink.results] == [
            r.ticks for r in parallel_sink.results
        ]

    def test_sink_never_sees_quarantined_cells(self, register_scenario):
        sink = CollectSink()
        campaign_cells = [
            WorkCell(variant="bad", seed=seed) for seed in range(4)
        ]
        executor = CellExecutor(workers=1, quarantine=True)
        returned = executor.run_cells(
            {"bad": register_scenario("ft_raising", _raising_builder)},
            campaign_cells,
            sink=sink,
        )
        assert returned is None
        assert sink.cells == []
        assert executor.last_quarantine.quarantined == 4
        assert executor.last_quarantine.completed == 0

    def test_clean_quarantine_run_reports_explicit_zero(self):
        result = _spin_campaign(workers=2, quarantine=True).run()
        clean = _sig(_spin_campaign(workers=2).run())
        assert _sig(result) == clean  # quarantine on is free
        report = result.rounds[0].quarantine
        assert report.quarantined == 0 and report.completed == 6
        assert report.describe() == "quarantine: 0 of 6 cells"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_cell_instance_counts_every_delivery(self, workers):
        # One WorkCell object three times is three cells: three
        # deliveries, and the report counts each of them.
        cell = WorkCell("spin", 0)
        sink = CollectSink()
        executor = CellExecutor(workers=workers, quarantine=True)
        executor.run_cells(
            {"spin": scenario_ref("clean_spin")}, [cell, cell, cell], sink
        )
        assert sink.cells == [cell, cell, cell]
        assert len(sink.results) == 3
        assert executor.last_quarantine == QuarantineReport((), 3, 3)


class TestWatchdog:
    def test_hang_without_quarantine_raises_watchdog_timeout(self):
        campaign = _spin_campaign(
            workers=2,
            chaos=ChaosSpec(seed=1, hang_seeds=frozenset({1}), hang_s=25.0),
            cell_timeout=0.5,
        )
        with pytest.raises(WatchdogTimeout, match="quarantine=True"):
            campaign.run()

    def test_timeouts_detected_telemetry(self):
        executor = CellExecutor(
            workers=2,
            batch_size=1,
            chaos=ChaosSpec(seed=1, hang_seeds=frozenset({0}), hang_s=25.0),
            cell_timeout=0.8,
            quarantine=True,
        )
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        cells = [WorkCell(variant="spin", seed=seed) for seed in range(3)]
        executor.run_cells({"spin": ref}, cells, CollectSink())
        # Main drain + at least one screening attempt saw the hang.
        assert executor.timeouts_detected >= 2

    def test_cell_timeout_validated(self):
        # Rejected when the executor is built, before any cell exists.
        with pytest.raises(ConfigError, match="cell_timeout must be > 0"):
            CellExecutor(workers=1, cell_timeout=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="cell_timeout must be a finite"):
                CellExecutor(workers=1, cell_timeout=value)

    def test_one_cell_run_is_watched_on_the_pool(self):
        # A lone cell at workers > 1 goes through the pool like any
        # other: chaos hangs it, the watchdog fires, quarantine isolates.
        executor = CellExecutor(
            workers=2,
            cell_timeout=0.5,
            quarantine=True,
            chaos=ChaosSpec(seed=1, hang_seeds=frozenset({0}), hang_s=3.0),
        )
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        sink = CollectSink()
        executor.run_cells({"spin": ref}, [WorkCell("spin", 0)], sink)
        assert sink.cells == []
        assert executor.last_pool_id is not None
        report = executor.last_quarantine
        assert [(c.seed, c.kind) for c in report.cells] == [(0, "timeout")]
        assert (report.attempted, report.completed) == (1, 0)

    def test_no_deadline_means_no_watchdog(self):
        # cell_timeout=None is the pre-watchdog behaviour: futures are
        # waited on without a deadline (nothing here to hang on).
        campaign = _spin_campaign(workers=2)
        assert campaign.executor.cell_timeout is None
        assert campaign.run().final_rows[0].runs == 6


class TestCellRaisedTimeout:
    """A cell's own ``TimeoutError`` is a cell failure like any other
    exception, never a watchdog expiry, at every worker count."""

    @staticmethod
    def _run(register_scenario, workers, quarantine, sink):
        executor = CellExecutor(
            workers=workers, cell_timeout=30, batch_size=4, quarantine=quarantine
        )
        executor.run_cells(
            {"t": register_scenario("ft_gives_up", _gives_up_builder)},
            [WorkCell("t", seed) for seed in range(4)],
            sink,
        )
        return executor

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantined_as_lethal(self, register_scenario, workers):
        sink = CollectSink()
        executor = self._run(register_scenario, workers, True, sink)
        assert [cell.seed for cell in sink.cells] == [0, 2, 3]
        assert executor.last_quarantine.cells == (
            QuarantinedCell("t", 1, "lethal", "TimeoutError: cell gave up"),
        )
        assert executor.timeouts_detected == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_propagates_without_quarantine(self, register_scenario, workers):
        # A TimeoutError, not the executor's WatchdogTimeout.
        with pytest.raises(TimeoutError, match="cell gave up"):
            self._run(register_scenario, workers, False, CollectSink())


class TestAdaptiveQuarantine:
    def test_rounds_carry_quarantine_reports(self):
        campaign = AdaptiveCampaign(
            seeds=(0, 1, 2, 3),
            rounds=2,
            policy=Repeat(),
            executor=CellExecutor(
                workers=2,
                quarantine=True,
                cell_timeout=60.0,
                chaos=ChaosSpec(seed=1, raise_seeds=frozenset({2})),
            ),
        )
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        result = campaign.run()
        assert len(result.rounds) == 2
        for observation in result.rounds:
            assert observation.quarantine is not None
            quarantined = observation.quarantine.cells
            assert [(c.seed, c.kind) for c in quarantined] == [(2, "lethal")]
            assert observation.rows[0].runs == 3
        assert result.total_quarantined == 2  # one per round
        assert "quarantine" in result.describe()
