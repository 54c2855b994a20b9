"""Tests for the scenario registry and the batched streaming executor.

Covers the registry's typed parameter specs, ``ScenarioRef``
round-trips (ref -> pickle -> worker-side build), batched-vs-unbatched
campaign determinism, the result-sink streaming protocol, the
registered workloads themselves (runnable by name, ``clean_spin``
never detecting), and their ground truth: every built-in's
``expect=`` against what the detector reports over eight seeds, and
against the benchmark oracle's own verdict table.
"""

from __future__ import annotations

import importlib.util
import inspect
import pickle
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.detector import AnomalyKind
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.pool import MAX_WORKERS
from repro.workloads.registry import (
    REGISTRY,
    ScenarioRef,
    ScenarioRegistry,
    build_scenario,
    scenario_names,
    scenario_ref,
)

#: The first-class workloads the registry must always expose.
WORKLOADS = (
    "philosophers",
    "quicksort_stress",
    "producer_consumer",
    "priority_inversion",
    "barrier",
    "readers_writers",
    "pipeline",
    "clean_spin",
    "priority_starvation",
    "healthy_control",
)


class TestRegistry:
    def test_all_workloads_registered(self):
        names = scenario_names()
        for name in WORKLOADS:
            assert name in names

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register("dup", lambda seed, x=1: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("dup", lambda seed, x=1: None)
        # The default registry enforces the same invariant.
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register("philosophers", lambda seed: None)

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ConfigError, match="philosophers"):
            build_scenario("no_such_scenario")

    def test_param_spec_inferred_from_signature(self):
        spec = REGISTRY.get("philosophers")
        op = spec.param("op")
        assert op.type is str and op.default == "cyclic"
        ordered = spec.param("ordered")
        assert ordered.type is bool and ordered.default is False

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="no parameter"):
            scenario_ref("philosophers", flavour="spicy")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="expects int"):
            scenario_ref("clean_spin", tasks="many")
        with pytest.raises(ConfigError, match="expects a bool"):
            scenario_ref("philosophers", ordered="maybe")
        # bool is an int subclass but must not pass for one.
        with pytest.raises(ConfigError, match="expects int"):
            scenario_ref("clean_spin", tasks=True)

    def test_string_params_coerced(self):
        # CLI --param values arrive as strings; the spec converts them.
        ref = scenario_ref(
            "philosophers", ordered="true", hold_steps="30", op="cyclic"
        )
        params = dict(ref.params)
        assert params["ordered"] is True
        assert params["hold_steps"] == 30
        assert params["op"] == "cyclic"

    def test_builder_without_seed_param_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(ConfigError, match="seed"):
            registry.register("bad", lambda: None)

    def test_builder_without_param_default_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(ConfigError, match="needs a default"):
            registry.register("bad", lambda seed, size: None)


class TestScenarioRef:
    def test_ref_round_trips_through_pickle(self):
        ref = scenario_ref("philosophers", op="cyclic", hold_steps=30)
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        # The unpickled ref resolves its builder through the registry
        # (exactly what happens inside a worker process) and produces
        # the same run as a direct build.
        direct = build_scenario(
            "philosophers", 0, op="cyclic", hold_steps=30
        ).run()
        sink = CollectSink()
        CellExecutor(workers=1).run_cells(
            {"clone": clone}, [WorkCell(variant="clone", seed=0)], sink
        )
        (via_ref,) = sink.results
        assert via_ref.found_bug == direct.found_bug
        assert via_ref.ticks == direct.ticks
        assert via_ref.commands_issued == direct.commands_issued

    def test_params_are_order_canonical(self):
        a = scenario_ref("philosophers", op="cyclic", chunk=2)
        b = scenario_ref("philosophers", chunk=2, op="cyclic")
        assert a == b and hash(a) == hash(b)

    def test_with_params_overlays(self):
        base = scenario_ref("philosophers", op="cyclic")
        control = base.with_params(ordered=True)
        assert dict(control.params)["ordered"] is True
        assert dict(control.params)["op"] == "cyclic"
        assert dict(base.params).get("ordered") is None

    def test_describe(self):
        ref = scenario_ref("clean_spin", tasks=2)
        assert ref.describe() == "clean_spin(tasks=2)"

    def test_hash_eq_follow_name_and_sorted_params(self):
        # The batch-table equality contract: equality/hash over
        # (name, sorted(params)) only — hand-built refs with scrambled
        # param order dedupe exactly like registry-minted ones.
        minted = scenario_ref("clean_spin", tasks=2, total_steps=40)
        hand_built = ScenarioRef(
            name="clean_spin",
            params=(("total_steps", 40), ("tasks", 2)),  # unsorted
        )
        assert hand_built == minted
        assert hash(hand_built) == hash(minted)
        assert len({hand_built, minted}) == 1
        assert minted != scenario_ref("clean_spin", tasks=3, total_steps=40)
        assert minted != "clean_spin"  # foreign types never equal

    def test_mapping_params_accepted_and_canonicalised(self):
        minted = scenario_ref("clean_spin", tasks=2, total_steps=40)
        from_mapping = ScenarioRef(
            name="clean_spin", params={"total_steps": 40, "tasks": 2}
        )
        assert from_mapping == minted
        assert from_mapping.params == minted.params

    def test_malformed_params_get_a_clear_error(self):
        with pytest.raises(ConfigError, match="mapping or .key, value."):
            ScenarioRef(name="clean_spin", params=("tasks", 2))

    def test_non_string_param_keys_rejected(self):
        with pytest.raises(ConfigError, match="must be strings"):
            ScenarioRef(name="clean_spin", params=((1, "tasks"),))

    def test_duplicate_param_keys_rejected(self):
        with pytest.raises(ConfigError, match="duplicate parameter"):
            ScenarioRef(
                name="clean_spin", params=(("tasks", 1), ("tasks", 2))
            )

    def test_unhashable_param_value_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unhashable"):
            ScenarioRef(name="clean_spin", params=(("tasks", [1, 2]),))
        with pytest.raises(ConfigError, match="must be hashable"):
            ScenarioRef(name="clean_spin", params=(("cfg", {"a": 1}),))


class TestWorkloadCatalogue:
    @pytest.mark.parametrize(
        "name", ["barrier", "readers_writers", "pipeline", "clean_spin"]
    )
    def test_new_scenarios_run_clean_by_default(self, name):
        result = build_scenario(name, 0).run()
        assert not result.found_bug, result.summary()

    def test_faulty_barrier_starves(self):
        result = build_scenario("barrier", 0, faulty=True).run()
        assert result.found_bug
        assert result.report.primary.kind is AnomalyKind.STARVATION

    def test_clean_spin_duration_scales_and_stays_clean(self):
        short = build_scenario("clean_spin", 0, total_steps=100).run()
        long = build_scenario("clean_spin", 0, total_steps=2_000).run()
        assert not short.found_bug and not long.found_bug
        assert long.ticks > 4 * short.ticks  # the benchmarking knob

    def test_philosophers_by_name_matches_direct(self):
        from repro.workloads.scenarios import philosophers_case2

        by_name = build_scenario("philosophers", 0, op="cyclic").run()
        direct = philosophers_case2(seed=0, op="cyclic").run()
        assert by_name.found_bug and direct.found_bug
        assert by_name.ticks == direct.ticks


def _ref_campaign(workers=1, batch_size=None, seeds=(0, 1, 2)):
    campaign = AdaptiveCampaign(
        seeds=seeds,
        executor=CellExecutor(workers=workers, batch_size=batch_size),
    )
    campaign.add_scenario("cyclic", "philosophers", op="cyclic")
    campaign.add_scenario("ordered", "philosophers", ordered=True)
    return campaign


class TestBatchedDeterminism:
    def test_rows_identical_at_any_workers_and_batch_size(self):
        baseline_runs = CollectSink()
        baseline = _ref_campaign().run(sink=baseline_runs).final_rows
        for workers, batch_size in [(2, 1), (2, 2), (2, 100), (3, None)]:
            runs = CollectSink()
            rows = _ref_campaign(workers, batch_size).run(sink=runs).final_rows
            assert rows == baseline, (workers, batch_size)
            # Per-run outcomes agree too, not just the summaries.
            assert runs.cells == baseline_runs.cells
            assert [r.ticks for r in runs.results] == [
                r.ticks for r in baseline_runs.results
            ]

    def test_ref_variants_always_parallelise(self):
        campaign = _ref_campaign(workers=2, seeds=(0, 1))
        executor = CellExecutor(workers=2)
        cells = [
            WorkCell(variant=name, seed=seed)
            for name in campaign.variants
            for seed in (0, 1)
        ]
        executor.run_cells(campaign.variants, cells, CollectSink())
        assert executor.batches_submitted > 0
        assert executor.last_pool_id is not None

    def test_batch_packing_telemetry(self):
        variants = {"spin": scenario_ref("clean_spin", total_steps=50, tasks=2)}
        cells = [WorkCell(variant="spin", seed=s) for s in range(6)]
        executor = CellExecutor(workers=2, batch_size=2)
        executor.run_cells(variants, cells, CollectSink())
        assert executor.last_batch_size == 2
        assert executor.batches_submitted == 3
        executor = CellExecutor(workers=2, batch_size=4)
        executor.run_cells(variants, cells, CollectSink())
        assert executor.last_batch_size == 4
        assert executor.batches_submitted == 2

    def test_bad_batch_size_rejected(self):
        # Rejected when the executor is built, before any cell exists;
        # the serial path rejects it too (no silent acceptance).
        for workers in (2, 1):
            with pytest.raises(ConfigError, match="batch_size must be >= 1"):
                CellExecutor(workers=workers, batch_size=0)
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            CellExecutor(batch_size=-3)

    @pytest.mark.parametrize("workers", [0, -3, MAX_WORKERS + 1])
    def test_bad_worker_count_rejected(self, workers):
        # Never silently serial: an out-of-range count is a config error
        # at construction, so no campaign can be built on it.
        with pytest.raises(ConfigError, match="workers must be"):
            CellExecutor(workers=workers)


class TestResultSinks:
    def test_sink_receives_cells_in_submission_order(self):
        variants = {"spin": scenario_ref("clean_spin", total_steps=50, tasks=2)}
        cells = [WorkCell(variant="spin", seed=s) for s in range(5)]
        reference = CollectSink()
        CellExecutor(workers=1).run_cells(variants, cells, reference)
        for workers, batch_size in [(1, None), (2, 2)]:
            sink = CollectSink()
            returned = CellExecutor(
                workers=workers, batch_size=batch_size
            ).run_cells(variants, cells, sink)
            assert returned is None  # streaming materialises nothing
            assert sink.cells == cells
            assert [r.ticks for r in sink.results] == [
                r.ticks for r in reference.results
            ]

    def test_round_rows_fold_from_the_stream(self, monkeypatch):
        # A round folds each result into its row as it streams off the
        # executor: run_cells is handed a sink and returns no list.
        run_cells = CellExecutor.run_cells
        returned = []

        def spy(self, variants, cells, sink):
            returned.append(run_cells(self, variants, cells, sink))

        monkeypatch.setattr(CellExecutor, "run_cells", spy)
        observation = _ref_campaign(workers=2, seeds=(0, 1)).run().rounds[0]
        assert returned == [None]
        monkeypatch.undo()
        reference = _ref_campaign(seeds=(0, 1)).run().final_rows
        assert observation.rows == reference
        assert observation.rate("cyclic") == 1.0
        assert observation.rate("ordered") == 0.0
        assert observation.kind_counts() == {"deadlock": 2}

    def test_campaign_forwards_to_external_sink(self):
        campaign = _ref_campaign(seeds=(0, 1))
        sink = CollectSink()
        campaign.run(sink=sink)
        assert len(sink.results) == 4  # 2 variants x 2 seeds
        assert [c.variant for c in sink.cells] == [
            "cyclic", "cyclic", "ordered", "ordered",
        ]


class TestGridSweeps:
    def test_add_grid_products_and_fixed_params(self):
        campaign = AdaptiveCampaign(seeds=(0,))
        names = campaign.add_grid(
            "phil",
            "philosophers",
            {"op": ["cyclic", "round_robin"], "ordered": [False, True]},
            hold_steps=30,
        )
        assert names == [
            "phil[op=cyclic,ordered=False]",
            "phil[op=cyclic,ordered=True]",
            "phil[op=round_robin,ordered=False]",
            "phil[op=round_robin,ordered=True]",
        ]
        for name in names:
            assert dict(campaign.variants[name].params)["hold_steps"] == 30

    def test_grid_campaign_detects_only_buggy_variants(self):
        campaign = AdaptiveCampaign(
            seeds=(0, 1), executor=CellExecutor(workers=2)
        )
        campaign.add_grid(
            "phil", "philosophers", {"ordered": [False, True]}
        )
        rows = {row.variant: row for row in campaign.run().final_rows}
        assert rows["phil[ordered=False]"].rate == 1.0
        assert rows["phil[ordered=True]"].rate == 0.0

    def test_grid_duplicate_names_rejected(self):
        campaign = AdaptiveCampaign()
        campaign.add_grid("p", "philosophers", {"ordered": [True]})
        with pytest.raises(ValueError, match="already registered"):
            campaign.add_grid("p", "philosophers", {"ordered": [True]})

    def test_grid_empty_axis_rejected(self):
        # An axis with no values would expand to no variant at all, and
        # the campaign would silently run nothing.
        campaign = AdaptiveCampaign()
        with pytest.raises(ConfigError, match="'op' has no values"):
            campaign.add_grid("x", "philosophers", {"op": []})
        assert campaign.variants == {}

    def test_grid_fixed_param_overlap_rejected(self):
        campaign = AdaptiveCampaign()
        with pytest.raises(ConfigError, match="both fixed and in the grid"):
            campaign.add_grid(
                "p", "philosophers", {"ordered": [False, True]}, ordered=True
            )


class TestDescriptions:
    def test_description_is_the_docstrings_first_paragraph(self):
        builtins = [
            spec
            for spec in REGISTRY
            if spec.builder.__module__ == "repro.workloads.scenarios"
        ]
        assert len(builtins) == 11
        for spec in builtins:
            paragraph = inspect.getdoc(spec.builder).split("\n\n", 1)[0]
            assert spec.description == " ".join(paragraph.split()), spec.name

    def test_explicit_description_wins(self):
        registry = ScenarioRegistry()

        def build(seed):
            """Docstring."""

        registry.register("x", build, description="given")
        assert registry.get("x").description == "given"


#: ``(scenario, params, expected kind)`` for every built-in at its
#: defaults and at each flip of a fault switch.
EXPECTATIONS = (
    ("quicksort_stress", {}, AnomalyKind.CRASH),
    ("quicksort_stress", {"buggy_gc": False}, None),
    ("philosophers", {}, AnomalyKind.DEADLOCK),
    ("philosophers", {"op": "round_robin"}, AnomalyKind.DEADLOCK),
    ("philosophers", {"ordered": True}, None),
    ("philosophers_random", {}, AnomalyKind.DEADLOCK),
    ("producer_consumer", {}, None),
    ("producer_consumer", {"faulty": True}, AnomalyKind.STARVATION),
    ("barrier", {}, None),
    ("barrier", {"faulty": "true"}, AnomalyKind.STARVATION),
    ("priority_starvation", {}, AnomalyKind.STARVATION),
    ("clean_spin", {}, None),
    ("pipeline", {}, None),
    ("priority_inversion", {"inheritance": True}, None),
    ("priority_inversion", {}, None),
    ("readers_writers", {"greedy": True}, None),
    ("readers_writers", {}, None),
    ("healthy_control", {}, None),
)


class TestExpectations:
    @pytest.mark.parametrize(
        ("name", "params", "kind"),
        EXPECTATIONS,
        ids=[
            "-".join([name, *(f"{key}={value}" for key, value in params.items())])
            for name, params, _ in EXPECTATIONS
        ],
    )
    def test_builtin_expectation(self, name, params, kind):
        assert scenario_ref(name, **params).expected() is kind
        assert REGISTRY.get(name).expected(params) is kind

    def test_no_expect_means_no_expectation_not_a_clean_run(self):
        registry = ScenarioRegistry()
        registry.register("bare", lambda seed, x=1: None)
        registry.register("clean", lambda seed, x=1: None, expect=lambda **_: None)
        assert registry.get("bare").expect is None
        with pytest.raises(ConfigError, match="no expectation"):
            registry.get("bare").expected()
        assert registry.get("clean").expected() is None

    def test_expect_sees_the_defaults_under_the_given_params(self):
        seen = []
        registry = ScenarioRegistry()
        registry.register(
            "s",
            lambda seed, a=1, b="x": None,
            expect=lambda **params: seen.append(params),
        )
        registry.get("s").expected({"b": "y"})
        registry.get("s").expected()
        assert seen == [{"a": 1, "b": "y"}, {"a": 1, "b": "x"}]


#: Default flips that plant or remove a fault, run beside every
#: registered scenario at its defaults.
FLIPS = (
    ("philosophers", {"ordered": True}),
    ("philosophers", {"op": "random"}),
    ("producer_consumer", {"faulty": True}),
    ("barrier", {"faulty": True}),
    ("quicksort_stress", {"buggy_gc": False, "max_ticks": 4_000}),
    ("readers_writers", {"greedy": True}),
    ("priority_inversion", {"inheritance": True}),
)

#: Detections of the expected kind over :data:`GATE_SEEDS` that each
#: faulty case reaches today: a floor, never to fall.
DETECTION_FLOORS = {
    "philosophers": 8,
    "philosophers[op=random]": 5,
    "quicksort_stress": 8,
    "priority_starvation": 8,
    "producer_consumer[faulty=True]": 8,
    "barrier[faulty=True]": 8,
    # The random baseline carries the philosophers' deadlock and misses
    # it on every seed: a known false negative, not a failure.
    "philosophers_random": 0,
}

GATE_SEEDS = tuple(range(8))


class TestGroundTruth:
    def test_detections_agree_with_the_registry(self):
        campaign = AdaptiveCampaign(seeds=GATE_SEEDS)
        for name in scenario_names():
            campaign.add_scenario(name, name)
        for name, params in FLIPS:
            label = ",".join(f"{key}={value}" for key, value in params.items())
            campaign.add_scenario(f"{name}[{label}]", name, **params)
        observation = campaign.run().rounds[0]
        for variant, ref in campaign.variants.items():
            kind = ref.expected()
            row = observation.row(variant)
            if kind is None:
                assert row.detections == 0, f"{variant}: false positives {row.kinds}"
                continue
            wrong = [found for found in row.kinds if found != kind.value]
            assert wrong == [], f"{variant}: expected {kind.value}, got {wrong}"
            # No wrong kind: every detection is of the expected kind.
            hits = row.detections
            assert hits >= DETECTION_FLOORS[variant], (
                f"{variant}: {hits}/{len(GATE_SEEDS)} {kind.value} detections"
            )

    def test_benchmark_verdicts_match_the_registry(self, monkeypatch):
        # The benchmark keeps its own verdict table; load it by path
        # (the benchmark is not a package of the library) so the two
        # tables cannot drift apart.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their annotations through sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, oracle)
        spec.loader.exec_module(oracle)
        table = oracle.EXPECTED_VERDICT
        assert len(table) == 8
        for name, verdict in table.items():
            kind = REGISTRY.get(name).expected()
            assert verdict == (kind.value if kind else None), name
