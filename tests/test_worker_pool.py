"""Tests for the persistent worker-pool subsystem.

Covers the :class:`~repro.ptest.pool.WorkerPool` lifecycle (warm reuse
across campaign runs, dead-worker respawn, deterministic
shutdown), the deduped ScenarioRef-table batch wire format, and
parameter twins — refs differing only in params, packed into the same
batches — whose results match the serial path.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.pool import (
    MAX_WORKERS,
    WorkerPool,
    active_pools,
    close_pool,
    get_pool,
    make_batch_table,
    run_table_batch,
    shutdown_pools,
)
from repro.workloads.registry import build_scenario, scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    """Every test starts and ends without lingering shared pools."""
    shutdown_pools()
    yield
    shutdown_pools()


def _spin_campaign(workers=1, pool=None, seeds=(0, 1, 2)) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(
        seeds=seeds, executor=CellExecutor(workers=workers, pool=pool)
    )
    campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
    return campaign


# -- module-level helpers: must pickle to (forked) worker processes ------------


@dataclass(frozen=True)
class _Marker:
    """Stand-in run result (executors pass results through opaquely)."""

    seed: int


class _FlakyOnce:
    """Kills its worker the first time any instance runs, then behaves.

    The first ``run`` finds no marker file, drops one, and hard-exits
    the worker process (taking the whole process pool with it); every
    rerun after the executor's respawn finds the marker and succeeds.
    """

    def __init__(self, marker_path: str, seed: int):
        self.marker_path = marker_path
        self.seed = seed

    def run(self) -> _Marker:
        marker = Path(self.marker_path)
        if not marker.exists():
            marker.write_text("worker died here")
            os._exit(1)
        return _Marker(self.seed)


def _flaky_builder(seed: int, marker_path: str = "") -> _FlakyOnce:
    return _FlakyOnce(marker_path, seed)


class _AlwaysDies:
    def __init__(self, seed: int):
        self.seed = seed

    def run(self) -> None:
        os._exit(1)


def _lethal_builder(seed: int) -> _AlwaysDies:
    return _AlwaysDies(seed)


def _exit_worker() -> None:
    os._exit(1)


class _RaisesInRun:
    def __init__(self, seed: int):
        self.seed = seed

    def run(self) -> None:
        raise ValueError(f"cell {self.seed} is unrunnable")


def _raising_builder(seed: int) -> _RaisesInRun:
    return _RaisesInRun(seed)


def _shadow_spin_builder(seed: int, tasks: int = 2, total_steps: int = 40):
    """A scenario registered mid-run that no cell names."""
    raise AssertionError("must never run in this test")


class TestWorkerPoolLifecycle:
    def test_explicit_pool_reused_across_campaign_runs(self):
        with WorkerPool(2) as pool:
            campaign = _spin_campaign(workers=2, pool=pool)
            first = campaign.run()
            second = campaign.run()
            assert first.final_rows == second.final_rows
            assert first.pool_ids[0] is not None
            assert second.pool_ids == first.pool_ids  # same warm pool
            assert pool.spawns == 1

    def test_shared_pool_reused_across_separate_campaigns(self):
        a = _spin_campaign(workers=2).run()
        b = _spin_campaign(workers=2).run()
        assert a.final_rows == b.final_rows
        assert a.pool_ids[0] == b.pool_ids[0] is not None
        assert get_pool(2).spawns == 1

    def test_serial_run_reports_no_pool(self):
        assert _spin_campaign(workers=1).run().pool_ids == (None,)
        assert active_pools() == []

    def test_dead_worker_respawn_at_pool_level(self):
        with WorkerPool(2) as pool:
            assert pool.ping()
            first_id = pool.pool_id
            with pytest.raises(BrokenProcessPool):
                pool.submit(_exit_worker).result()
            pool.notify_broken()
            # The next use respawns transparently.
            assert pool.ping()
            assert pool.pool_id != first_id
            assert pool.spawns == 2

    def test_executor_resubmits_batches_after_worker_death(
        self, tmp_path, register_scenario
    ):
        marker = str(tmp_path / "died-once")
        builder = register_scenario(
            "pool_flaky", _flaky_builder, marker_path=marker
        )
        cells = [WorkCell(variant="flaky", seed=seed) for seed in range(4)]
        with WorkerPool(2) as pool:
            executor = CellExecutor(workers=2, pool=pool, batch_size=2)
            sink = CollectSink()
            executor.run_cells({"flaky": builder}, cells, sink)
            assert sink.results == [_Marker(seed) for seed in range(4)]
            assert pool.spawns == 2  # the respawn happened mid-run

    def test_deterministically_lethal_batch_surfaces(self, register_scenario):
        boom = register_scenario("pool_lethal", _lethal_builder)
        cells = [WorkCell(variant="boom", seed=seed) for seed in range(2)]
        with WorkerPool(2) as pool:
            executor = CellExecutor(workers=2, pool=pool)
            with pytest.raises(BrokenProcessPool):
                executor.run_cells({"boom": boom}, cells, CollectSink())

    def test_cell_exception_aborts_but_leaves_pool_usable(
        self, register_scenario
    ):
        # A raising cell propagates out of run_cells; queued batches
        # are cancelled rather than left burning the persistent pool,
        # and the same pool serves the next run.
        bad = register_scenario("pool_raising", _raising_builder)
        cells = [WorkCell(variant="bad", seed=seed) for seed in range(8)]
        with WorkerPool(2) as pool:
            executor = CellExecutor(workers=2, pool=pool, batch_size=1)
            with pytest.raises(ValueError, match="unrunnable"):
                executor.run_cells({"bad": bad}, cells, CollectSink())
            assert pool.ping()  # no respawn, no wedged queue
            assert pool.spawns == 1
            good = _spin_campaign(workers=2, pool=pool)
            assert good.run().final_rows[0].runs == 3

    def test_stale_break_notification_is_a_no_op(self):
        with WorkerPool(2) as pool:
            assert pool.ping()
            first_id = pool.pool_id
            with pytest.raises(BrokenProcessPool):
                pool.submit(_exit_worker).result()
            pool.notify_broken(first_id)
            assert pool.ping()
            respawned_id = pool.pool_id
            assert respawned_id != first_id
            # A second observer reporting the *old* executor's death
            # must not tear down the fresh one.
            pool.notify_broken(first_id)
            assert pool.pool_id == respawned_id
            assert pool.spawns == 2

    def test_context_manager_gives_deterministic_shutdown(self):
        with WorkerPool(2) as pool:
            assert pool.ping()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_exit_worker)

    def test_shutdown_pools_is_idempotent_and_replaces(self):
        pool = get_pool(2)
        assert pool.ping()
        shutdown_pools()
        shutdown_pools()  # second call is a no-op
        assert pool.closed
        replacement = get_pool(2)
        assert replacement is not pool and not replacement.closed

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            WorkerPool(0)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            get_pool(0)

    def test_worker_count_over_the_cap_rejected(self):
        # Rejected at construction; the executor is lazy anyway, so
        # nothing is spawned either way.
        with pytest.raises(ConfigError, match="MAX_WORKERS"):
            WorkerPool(MAX_WORKERS + 1)
        with pytest.raises(ConfigError, match="MAX_WORKERS"):
            get_pool(MAX_WORKERS + 1)
        assert all(pool.workers <= MAX_WORKERS for pool in active_pools())


class TestShutdownRobustness:
    """Regressions for the multi-owner close story: explicit close,
    context manager, close_pool/shutdown_pools and the atexit sweep can
    all fire for the same pool, in any order — every combination must
    be a strict no-op after the first."""

    def test_double_close_is_idempotent(self):
        pool = WorkerPool(2)
        assert pool.ping()
        pool.close()
        pool.close()  # second close must not re-enter executor shutdown
        assert pool.closed

    def test_double_close_of_cold_pool(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        assert pool.closed and pool.spawns == 0

    def test_shutdown_pools_after_explicit_close(self):
        # The atexit-shaped sweep runs after an owner already closed
        # the shared pool explicitly; it must tolerate that, twice.
        pool = get_pool(2)
        assert pool.ping()
        pool.close()
        shutdown_pools()
        shutdown_pools()
        assert pool.closed

    def test_close_pool_then_shutdown_pools(self):
        pool = get_pool(2)
        assert pool.ping()
        close_pool(2)
        assert pool.closed
        close_pool(2)  # deregistered: nothing left to close
        shutdown_pools()

    def test_terminate_kills_workers_and_respawns(self):
        with WorkerPool(2) as pool:
            assert pool.ping()
            first = pool.pool_id
            assert pool.terminate() >= 1
            assert pool.ping()  # next use respawns transparently
            assert pool.pool_id != first
            assert pool.spawns == 2

    def test_stale_terminate_is_a_no_op(self):
        with WorkerPool(2) as pool:
            assert pool.ping()
            first = pool.pool_id
            pool.terminate(first)
            assert pool.ping()
            fresh = pool.pool_id
            # A second watchdog reporting the *old* executor hung must
            # not kill the fresh one (mirrors notify_broken scoping).
            assert pool.terminate(first) == 0
            assert pool.pool_id == fresh

    def test_terminate_on_cold_pool_is_zero(self):
        with WorkerPool(2) as pool:
            assert pool.terminate() == 0


class TestSubmitAfterWorkerDeath:
    def test_campaign_after_worker_death_respawns(self):
        # A worker died and nobody called notify_broken: the campaign's
        # first submissions hit the broken executor and must ride the
        # submit-time respawn instead of wedging or surfacing the break.
        with WorkerPool(2) as pool:
            assert pool.ping()
            first = pool.pool_id
            with pytest.raises(BrokenProcessPool):
                pool.submit(_exit_worker).result()
            campaign = _spin_campaign(workers=2, pool=pool)
            assert campaign.run().final_rows == _spin_campaign().run().final_rows
            assert pool.pool_id != first
            assert pool.spawns == 2


class TestLateRegistration:
    def test_scenarios_registered_after_spawn_still_resolve(self):
        # Warm workers snapshot the registry at fork; a registration
        # made afterwards bumps the registry version, which retires the
        # stale workers transparently on the next dispatch.
        from repro.workloads.registry import REGISTRY

        name = "late_registered_for_pool_test"
        with WorkerPool(2) as pool:
            warmup = _spin_campaign(workers=2, pool=pool)
            warmup.run()
            assert pool.spawns == 1

            @REGISTRY.register(name)
            def _late(seed: int, total_steps: int = 40):
                # Forked workers inherit this closure through the
                # registry — only the ref crosses the wire.
                from repro.workloads.registry import build_scenario

                return build_scenario(
                    "clean_spin", seed, tasks=2, total_steps=total_steps
                )

            try:
                late = AdaptiveCampaign(
                    seeds=(0, 1), executor=CellExecutor(workers=2, pool=pool)
                )
                late.add_scenario("late", name)
                rows = late.run().final_rows
                assert rows[0].runs == 2
                assert pool.spawns == 2  # stale workers were retired
            finally:
                del REGISTRY._specs[name]


class TestExplicitPoolRequestsParallelism:
    def test_multiworker_pool_drives_default_workers(self):
        # Handing over a multi-worker pool IS the parallelism request;
        # the executor must not silently run serial at workers=None.
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        cells = [WorkCell(variant="spin", seed=seed) for seed in range(4)]
        with WorkerPool(2) as pool:
            executor = CellExecutor(pool=pool)  # workers left unset
            parallel = CollectSink()
            executor.run_cells({"spin": ref}, cells, parallel)
            assert executor.batches_submitted > 0
            assert executor.last_pool_id == pool.pool_id
        serial = CollectSink()
        CellExecutor().run_cells({"spin": ref}, cells, serial)
        assert [r.ticks for r in parallel.results] == [
            r.ticks for r in serial.results
        ]

    def test_explicit_workers_one_forces_in_process_execution(self):
        # workers=1 must stay an honoured in-process escape hatch
        # (debuggers, monkeypatched builders) even with a pool wired.
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        cells = [WorkCell(variant="spin", seed=seed) for seed in range(2)]
        with WorkerPool(2) as pool:
            executor = CellExecutor(workers=1, pool=pool)
            executor.run_cells({"spin": ref}, cells, CollectSink())
            assert executor.batches_submitted == 0
            assert executor.last_pool_id is None
            assert pool.spawns == 0  # the pool was never touched
            serial = _spin_campaign(workers=1, pool=pool).run()
            assert serial.pool_ids == (None,)
            assert pool.spawns == 0
            parallel = _spin_campaign(workers=None, pool=pool).run()
            assert parallel.final_rows == serial.final_rows  # pool agrees
            assert parallel.pool_ids == (pool.pool_id,)


class TestMidRunRegistration:
    def test_registration_during_drain_does_not_abort_the_run(self):
        # A registry version bump mid-run retires the executor under
        # the dispatch loop; queued futures come back cancelled and
        # must be resubmitted, not surfaced as a crash.
        from repro.workloads.registry import REGISTRY

        name = "registered_mid_run_for_pool_test"
        registered = []

        class _RegisteringSink:
            def accept(self, cell, result):
                if not registered:
                    registered.append(name)
                    REGISTRY.register(name, _shadow_spin_builder)

        try:
            with WorkerPool(2) as pool:
                campaign = AdaptiveCampaign(
                    seeds=tuple(range(6)),
                    executor=CellExecutor(workers=2, batch_size=1, pool=pool),
                )
                campaign.add_scenario(
                    "spin", "clean_spin", tasks=2, total_steps=40
                )
                rows = campaign.run(sink=_RegisteringSink()).final_rows
            assert rows[0].runs == 6
            serial = AdaptiveCampaign(seeds=tuple(range(6)))
            serial.add_scenario(
                "spin", "clean_spin", tasks=2, total_steps=40
            )
            assert serial.run().final_rows == rows
        finally:
            REGISTRY._specs.pop(name, None)


class TestBatchTable:
    def test_equal_refs_collapse_to_one_table_entry(self):
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        twin = scenario_ref("clean_spin", total_steps=40, tasks=2)
        table, jobs = make_batch_table([ref, twin, ref], [0, 1, 2])
        assert table == (ref,)
        assert jobs == ((0, 0), (0, 1), (0, 2))

    def test_distinct_refs_keep_distinct_entries(self):
        fast = scenario_ref("clean_spin", total_steps=40)
        slow = scenario_ref("clean_spin", total_steps=80)
        table, jobs = make_batch_table([fast, slow, fast], [0, 0, 1])
        assert table == (fast, slow)
        assert jobs == ((0, 0), (1, 0), (0, 1))

    def test_misaligned_builders_and_seeds_rejected(self):
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        with pytest.raises(ValueError, match="cell-for-cell"):
            make_batch_table([ref, ref], [0])

    def test_unpicklable_ref_payload_rejected_explicitly(self):
        # A ref can satisfy construction-time validation (hashable
        # params) yet carry an unpicklable payload — here a local
        # closure as a parameter value.  Before the explicit probe this
        # surfaced as a raw PicklingError from deep inside the pool
        # submission machinery; the table must reject it by name
        # instead.
        from repro.workloads.registry import ScenarioRef

        ref = ScenarioRef(name="clean_spin", params=(("hook", lambda: None),))
        with pytest.raises(ConfigError, match="clean_spin.*cannot be pickled"):
            make_batch_table([ref], [0])

    def test_run_table_batch_matches_direct_build(self):
        ref = scenario_ref("clean_spin", tasks=2, total_steps=40)
        results = run_table_batch((ref,), ((0, 0), (0, 1)))
        direct = [
            build_scenario("clean_spin", seed, tasks=2, total_steps=40).run()
            for seed in (0, 1)
        ]
        assert [r.ticks for r in results] == [r.ticks for r in direct]


class TestParamTwins:
    def test_one_worker_runs_both_twins_like_the_serial_path(self):
        # A single-process pool runs every batch of both twins in the
        # same worker, one after the other.
        fast = scenario_ref("clean_spin", tasks=2, total_steps=40)
        slow = scenario_ref("clean_spin", tasks=2, total_steps=80)
        cells = [
            WorkCell(variant=name, seed=seed)
            for name in ("fast", "slow")
            for seed in range(3)
        ]
        with WorkerPool(1) as pool:
            executor = CellExecutor(workers=2, pool=pool)
            parallel = CollectSink()
            executor.run_cells({"fast": fast, "slow": slow}, cells, parallel)
        serial = CollectSink()
        CellExecutor(workers=1).run_cells({"fast": fast, "slow": slow}, cells, serial)
        assert [r.ticks for r in parallel.results] == [
            r.ticks for r in serial.results
        ]

    def test_no_cross_variant_leakage_between_param_twins(self):
        # Same scenario name, params differing only in one flag, packed
        # into the same batches: the buggy variant must still detect and
        # the control must still stay clean.
        campaign = AdaptiveCampaign(
            seeds=(0, 1), executor=CellExecutor(workers=2, batch_size=4)
        )
        campaign.add_grid("phil", "philosophers", {"ordered": [False, True]})
        rows = {row.variant: row for row in campaign.run().final_rows}
        assert rows["phil[ordered=False]"].rate == 1.0
        assert rows["phil[ordered=True]"].rate == 0.0

    def test_rows_identical_across_warm_cold_and_serial(self):
        campaign = AdaptiveCampaign(seeds=(0, 1))
        campaign.add_scenario("cyclic", "philosophers", op="cyclic")
        campaign.add_scenario("ordered", "philosophers", ordered=True)
        serial_rows = campaign.run().final_rows
        with WorkerPool(2) as pool:
            warm = AdaptiveCampaign(
                seeds=(0, 1), executor=CellExecutor(workers=2, pool=pool)
            )
            warm.add_scenario("cyclic", "philosophers", op="cyclic")
            warm.add_scenario("ordered", "philosophers", ordered=True)
            cold_rows = warm.run().final_rows  # first dispatch: cold pool
            warm_rows = warm.run().final_rows  # second: warm pool
        assert cold_rows == serial_rows
        assert warm_rows == serial_rows
