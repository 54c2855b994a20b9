"""Tests for crash-safe checkpoint/resume of adaptive campaigns.

The contract under test: ``AdaptiveCampaign(checkpoint=path)`` persists
each round's observation atomically, and ``resume=True`` replays the
completed rounds through the refine policy — re-executing zero cells —
then continues, producing results bit-identical to an uninterrupted
run.  Tampered, mismatched or torn checkpoints are refused with
:class:`~repro.errors.CheckpointError`, never silently misread.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.errors import CheckpointError, ConfigError
from repro.ptest.adaptive import (
    AdaptiveCampaign,
    GridZoom,
    Repeat,
    SuccessiveHalving,
    parse_pipeline,
)
from repro.ptest.checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    campaign_fingerprint,
)
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import run_table_batch, shutdown_pools
from repro.ptest.replay import replay_ref
from repro.workloads.registry import scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    shutdown_pools()
    yield
    shutdown_pools()


def _campaign(
    policy, rounds=3, grid=False, chaos=None, cell_timeout=None, **kwargs
) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(
        seeds=(0, 1, 2),
        rounds=rounds,
        policy=policy,
        executor=CellExecutor(workers=2, chaos=chaos, cell_timeout=cell_timeout),
        **kwargs,
    )
    if grid:
        campaign.add_grid(
            "phil",
            "philosophers",
            {"ordered": [False, True], "chunk": [1, 2]},
            max_ticks=600,
        )
    else:
        campaign.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
    return campaign


def _result_signature(result):
    return [
        (
            obs.index,
            sorted(obs.variants),
            [
                (row.variant, row.runs, row.detections, row.kinds)
                for row in obs.rows
            ],
            tuple((s.variant, s.seed) for s in obs.detections),
        )
        for obs in result.rounds
    ]


def _no_cell_may_run(*args, **kwargs):
    raise AssertionError("a replayed round ran a cell")


def _as_parent_wrote_it(source, destination) -> None:
    """Copy checkpoint ``source`` to ``destination`` in the layout that
    builds which still pre-warmed pools wrote: the same payload plus
    their pre-warm counter (its key is split so no live spelling of the
    removed name is left in the tree)."""
    payload = pickle.loads(source.read_bytes())
    payload["prewarm" "ed_refs"] = 3
    destination.write_bytes(pickle.dumps(payload))


class TestFingerprint:
    def test_sensitive_to_identity_not_execution(self):
        base = _campaign(Repeat())
        fp = campaign_fingerprint(
            base.seeds, base.variants, Repeat(), base.capture_per_variant
        )
        # Execution knobs are excluded by design: resume may change
        # workers/batch/chaos without invalidating the checkpoint.
        assert fp == campaign_fingerprint(
            base.seeds, base.variants, Repeat(), base.capture_per_variant
        )
        assert fp != campaign_fingerprint(
            (9, 10), base.variants, Repeat(), base.capture_per_variant
        )
        assert fp != campaign_fingerprint(
            base.seeds, base.variants, GridZoom(), base.capture_per_variant
        )

    def test_pipeline_policies_have_stable_signatures(self):
        one = parse_pipeline("grid_zoom:2,replay:1")
        two = parse_pipeline("grid_zoom:2,replay:1")
        first = campaign_fingerprint((0,), {}, one, 4)
        assert first == campaign_fingerprint((0,), {}, two, 4)

    def test_pipeline_fingerprint_is_pinned(self):
        # Checkpoints written by earlier builds must keep resuming.
        assert (
            campaign_fingerprint(
                (0, 1),
                {"phil": scenario_ref("philosophers", count=2)},
                parse_pipeline("grid_zoom:2,replay:1"),
                4,
            )
            == "a3d08bc47cc14a7116bed813"
        )


#: ``scenario_ref("philosophers", op="cyclic")`` and a replay ref over
#: ``scenario_ref("philosophers")``, pickled (protocol 4) by a build
#: whose refs still carried a ``registry`` field: each ScenarioRef's
#: state holds ``registry: None``.
_REGISTRY_FIELD_SCENARIO_REF = (
    b"\x80\x04\x95q\x00\x00\x00\x00\x00\x00\x00\x8c\x18repro.workloads."
    b"registry\x94\x8c\x0bScenarioRef\x94\x93\x94)\x81\x94}\x94(\x8c\x04"
    b"name\x94\x8c\x0cphilosophers\x94\x8c\x06params\x94\x8c\x02op\x94"
    b"\x8c\x06cyclic\x94\x86\x94\x85\x94\x8c\x08registry\x94Nub."
)
_REGISTRY_FIELD_REPLAY_REF = (
    b"\x80\x04\x95\xa6\x00\x00\x00\x00\x00\x00\x00\x8c\x12repro.ptest."
    b"replay\x94\x8c\tReplayRef\x94\x93\x94)\x81\x94\x8c\x18repro."
    b"workloads.registry\x94\x8c\x0bScenarioRef\x94\x93\x94)\x81\x94}"
    b"\x94(\x8c\x04name\x94\x8c\x0cphilosophers\x94\x8c\x06params\x94)"
    b"\x8c\x08registry\x94Nub\x8c\x1aTC[p0#1] TC[p1#1] TC[p2#1]\x94\x86"
    b"\x94b."
)


class TestRefsFromEarlierCheckpoints:
    def test_refs_pickled_with_a_registry_field_load_run_and_fingerprint(
        self,
    ):
        fresh_ref = scenario_ref("philosophers", op="cyclic")
        fresh_replay = replay_ref(
            scenario_ref("philosophers"), "TC[p0#1] TC[p1#1] TC[p2#1]"
        )
        old_ref = pickle.loads(_REGISTRY_FIELD_SCENARIO_REF)
        old_replay = pickle.loads(_REGISTRY_FIELD_REPLAY_REF)
        assert old_ref == fresh_ref and hash(old_ref) == hash(fresh_ref)
        assert old_replay == fresh_replay
        assert hash(old_replay) == hash(fresh_replay)
        jobs = ((0, 0), (0, 1), (1, 0), (1, 1))
        old_runs = run_table_batch((old_ref, old_replay), jobs)
        fresh_runs = run_table_batch((fresh_ref, fresh_replay), jobs)
        assert [(r.found_bug, r.ticks) for r in old_runs] == [
            (r.found_bug, r.ticks) for r in fresh_runs
        ]
        # The digest that build wrote for this campaign: its checkpoint
        # resumes here.
        for variants in (
            {"phil": old_ref, "replay": old_replay},
            {"phil": fresh_ref, "replay": fresh_replay},
        ):
            assert (
                campaign_fingerprint((0, 1), variants, Repeat(), 4)
                == "bb26360d05db28ad993fcb08"
            )


#: The checkpoint of a finished 2-round ``Repeat`` campaign, variant
#: ``phil`` = ``scenario_ref("philosophers", count=2)`` over seeds 0-1,
#: as written (997 bytes) by a build whose round records kept their
#: detection samples in a per-variant dict and had no ``stage``.
_PER_VARIANT_DETECTIONS_CHECKPOINT = (
    b"\x80\x04\x95\xda\x03\x00\x00\x00\x00\x00\x00}\x94(\x8c\x07version"
    b"\x94K\x01\x8c\x0bfingerprint\x94\x8c\x18b46fd9c8239bc644a1640652"
    b"\x94\x8c\x0cobservations\x94]\x94(\x8c\x14repro.ptest.adaptive"
    b"\x94\x8c\x10RoundObservation\x94\x93\x94)\x81\x94}\x94(\x8c\x05in"
    b"dex\x94K\x00\x8c\x08variants\x94}\x94\x8c\x04phil\x94\x8c\x18repr"
    b"o.workloads.registry\x94\x8c\x0bScenarioRef\x94\x93\x94)\x81\x94}"
    b"\x94(\x8c\x04name\x94\x8c\x0cphilosophers\x94\x8c\x06params\x94"
    b"\x8c\x05count\x94K\x02\x86\x94\x85\x94ubs\x8c\x04rows\x94\x8c\x14"
    b"repro.ptest.campaign\x94\x8c\x0bCampaignRow\x94\x93\x94)\x81\x94}"
    b"\x94(\x8c\x07variant\x94h\x0e\x8c\x04runs\x94K\x02\x8c\ndetection"
    b"s\x94K\x02\x8c\x05kinds\x94\x8c\x08deadlock\x94\x85\x94\x8c\x17me"
    b"an_ticks_to_detection\x94G@a\x00\x00\x00\x00\x00\x00\x8c\rmean_co"
    b"mmands\x94G@\x18\x00\x00\x00\x00\x00\x00ub\x85\x94h\"}\x94h\x0eh"
    b"\x1b\x8c\x0fDetectionSample\x94\x93\x94)\x81\x94}\x94(h h\x0e\x8c"
    b"\x04seed\x94K\x00\x8c\x04kind\x94h$\x8c\tmerged_op\x94\x8c\x06cyc"
    b"lic\x94\x8c\x12merged_description\x94\x8c5TC[p0#1] TS[p0#2] TC[p1"
    b"#1] TS[p1#2] TR[p0#3] TR[p1#3]\x94ubh+)\x81\x94}\x94(h h\x0eh.K"
    b"\x01h/h$h0h1h2\x8c5TC[p0#1] TS[p0#2] TC[p1#1] TS[p1#2] TR[p0#3] T"
    b"R[p1#3]\x94ub\x86\x94s\x8c\x07pool_id\x94N\x8c\nquarantine\x94Nub"
    b"h\x08)\x81\x94}\x94(h\x0bK\x01h\x0c}\x94h\x0eh\x12sh\x1ah\x1d)"
    b"\x81\x94}\x94(h h\x0eh!K\x02h\"K\x02h#h$\x85\x94h&G@a\x00\x00\x00"
    b"\x00\x00\x00h'G@\x18\x00\x00\x00\x00\x00\x00ub\x85\x94h\"}\x94h"
    b"\x0eh+)\x81\x94}\x94(h h\x0eh.K\x00h/h$h0h1h2\x8c5TC[p0#1] TS[p0#"
    b"2] TC[p1#1] TS[p1#2] TR[p0#3] TR[p1#3]\x94ubh+)\x81\x94}\x94(h h"
    b"\x0eh.K\x01h/h$h0h1h2\x8c5TC[p0#1] TS[p0#2] TC[p1#1] TS[p1#2] TR["
    b"p0#3] TR[p1#3]\x94ub\x86\x94sh8Nh9Nube\x8c\rstopped_early\x94\x89"
    b"\x8c\x08finished\x94\x88u."
)


class TestObservationsFromEarlierCheckpoints:
    def test_per_variant_detections_resume_to_a_straight_run(
        self, tmp_path, monkeypatch
    ):
        def campaign(**kwargs) -> AdaptiveCampaign:
            campaign = AdaptiveCampaign(
                seeds=(0, 1), rounds=3, policy=Repeat(), **kwargs
            )
            campaign.add_scenario("phil", "philosophers", count=2)
            return campaign

        straight = campaign().run()
        path = tmp_path / "earlier.ckpt"
        path.write_bytes(_PER_VARIANT_DETECTIONS_CHECKPOINT)
        runs = []
        run_cells = CellExecutor.run_cells

        def counting_run_cells(self, variants, cells, sink):
            runs.append(len(cells))
            run_cells(self, variants, cells, sink)

        monkeypatch.setattr(CellExecutor, "run_cells", counting_run_cells)
        resumed = campaign(checkpoint=path, resume=True).run()
        # Rounds 1-2 replay from disk; only round 3 runs its 2 cells.
        assert runs == [2]
        assert resumed.resumed_rounds == 2
        assert resumed.rounds == straight.rounds
        assert not resumed.stopped_early and not straight.stopped_early
        assert [
            (s.variant, s.seed, s.kind) for s in resumed.rounds[0].detections
        ] == [("phil", 0, "deadlock"), ("phil", 1, "deadlock")]
        assert {r.stage for r in resumed.rounds} == {None}


class TestResumeBitIdentity:
    def test_resume_matches_straight_through(self, tmp_path):
        path = tmp_path / "run.ckpt"
        straight = _campaign(GridZoom(), grid=True).run()

        # Interrupted run: only one round completes before the "crash".
        _campaign(GridZoom(), rounds=1, grid=True, checkpoint=path).run()
        assert path.exists()
        parent = tmp_path / "parent.ckpt"
        _as_parent_wrote_it(path, parent)

        for checkpoint in (path, parent):
            resumed = _campaign(
                GridZoom(), grid=True, checkpoint=checkpoint, resume=True
            ).run()
            assert resumed.resumed_rounds == 1
            assert _result_signature(resumed) == _result_signature(straight)
            assert "resumed: 1 round(s) replayed" in resumed.describe()

    def test_resume_rebuilds_pipeline_stage_state(self, tmp_path):
        # The engine's stage position lives in the run; replay must
        # rebuild it so the handoff round refines identically.
        path = tmp_path / "pipeline.ckpt"
        straight = _campaign(parse_pipeline("grid_zoom:2,replay:1"), grid=True).run()
        _campaign(
            parse_pipeline("grid_zoom:2,replay:1"),
            rounds=2,
            grid=True,
            checkpoint=path,
        ).run()
        resumed = _campaign(
            parse_pipeline("grid_zoom:2,replay:1"),
            grid=True,
            checkpoint=path,
            resume=True,
        ).run()
        assert resumed.resumed_rounds == 2
        assert _result_signature(resumed) == _result_signature(straight)

    def test_pipeline_checkpoint_without_stages_resumes(self, tmp_path):
        # Earlier builds stored every round with stage=None; resume
        # labels replayed rounds from the schedule, as a straight run
        # labels executed ones.
        pipeline = parse_pipeline("grid_zoom:2,replay:1")
        straight = _campaign(pipeline, grid=True).run()
        path = tmp_path / "pipeline.ckpt"
        _campaign(pipeline, rounds=2, grid=True, checkpoint=path).run()
        payload = pickle.loads(path.read_bytes())
        payload["observations"] = [
            replace(observation, stage=None)
            for observation in payload["observations"]
        ]
        path.write_bytes(pickle.dumps(payload))
        resumed = _campaign(
            pipeline, grid=True, checkpoint=path, resume=True
        ).run()
        assert resumed.resumed_rounds == 2
        assert [r.stage for r in resumed.rounds] == [
            "grid_zoom", "grid_zoom", "replay",
        ]
        assert resumed.rounds == straight.rounds

    def test_finished_run_resumes_as_pure_replay(self, tmp_path):
        path = tmp_path / "done.ckpt"
        first = _campaign(Repeat(), checkpoint=path).run()
        parent = tmp_path / "parent.ckpt"
        _as_parent_wrote_it(path, parent)
        for checkpoint in (path, parent):
            replayed = _campaign(
                Repeat(), checkpoint=checkpoint, resume=True
            ).run()
            assert replayed.resumed_rounds == len(first.rounds) == 3
            assert _result_signature(replayed) == _result_signature(first)

    def test_stopped_early_run_resumes_as_pure_replay(
        self, tmp_path, monkeypatch
    ):
        # Four variants halve to two, then one; round 3's single
        # variant stops the run inside its 4-round budget.
        path = tmp_path / "early.ckpt"
        first = _campaign(
            SuccessiveHalving(), rounds=4, grid=True, checkpoint=path
        ).run()
        assert first.stopped_early and len(first.rounds) == 3
        saved = path.read_bytes()
        monkeypatch.setattr(CellExecutor, "run_cells", _no_cell_may_run)
        replayed = _campaign(
            SuccessiveHalving(), rounds=4, grid=True, checkpoint=path, resume=True
        ).run()
        assert replayed.stopped_early
        assert replayed.resumed_rounds == 3
        assert _result_signature(replayed) == _result_signature(first)
        assert path.read_bytes() == saved

    def test_budget_below_stored_progress_replays_only_the_budget(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "long.ckpt"
        first = _campaign(Repeat(), checkpoint=path).run()
        saved = path.read_bytes()
        monkeypatch.setattr(CellExecutor, "run_cells", _no_cell_may_run)
        short = _campaign(Repeat(), rounds=2, checkpoint=path, resume=True).run()
        assert short.resumed_rounds == 2
        assert not short.stopped_early
        assert _result_signature(short) == _result_signature(first)[:2]
        assert path.read_bytes() == saved

    def test_extending_rounds_continues_from_checkpoint(self, tmp_path):
        path = tmp_path / "extend.ckpt"
        _campaign(Repeat(), rounds=2, checkpoint=path).run()
        extended = _campaign(Repeat(), rounds=4, checkpoint=path, resume=True).run()
        assert extended.resumed_rounds == 2
        assert [obs.index for obs in extended.rounds] == [0, 1, 2, 3]
        assert _result_signature(extended) == _result_signature(
            _campaign(Repeat(), rounds=4).run()
        )

    def test_resume_under_chaos_matches_clean_straight_through(
        self, tmp_path
    ):
        # The full matrix corner: a checkpoint written under injected
        # worker kills, resumed under the same chaos, must equal a
        # clean uninterrupted run — chaos is an execution knob, not an
        # identity change, so it is not fingerprinted either.
        from repro.ptest.chaos import ChaosSpec

        path = tmp_path / "chaos.ckpt"
        straight = _campaign(Repeat()).run()
        chaos = ChaosSpec(seed=3, kill_rate=0.15)
        _campaign(
            Repeat(),
            rounds=1,
            checkpoint=path,
            chaos=chaos,
            cell_timeout=60.0,
        ).run()
        resumed = _campaign(
            Repeat(),
            checkpoint=path,
            resume=True,
            chaos=chaos,
            cell_timeout=60.0,
        ).run()
        assert resumed.resumed_rounds == 1
        assert _result_signature(resumed) == _result_signature(straight)

    def test_resume_may_change_execution_configuration(self, tmp_path):
        # workers/batch_size are not fingerprinted: the determinism
        # contract says they cannot change results.
        path = tmp_path / "exec.ckpt"
        _campaign(Repeat(), rounds=1, checkpoint=path).run()
        resumed = AdaptiveCampaign(
            seeds=(0, 1, 2),
            rounds=3,
            policy=Repeat(),
            executor=CellExecutor(workers=1, batch_size=1),
            checkpoint=path,
            resume=True,
        )
        resumed.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
        result = resumed.run()
        assert _result_signature(result) == _result_signature(_campaign(Repeat()).run())


class TestCheckpointHygiene:
    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        _campaign(Repeat(), rounds=1, checkpoint=path).run()
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["atomic.ckpt"]

    def test_stopped_early_is_persisted(self, tmp_path):
        path = tmp_path / "early.ckpt"

        class _StopNow:
            def refine(self, observation):
                return None

            def describe(self):
                return "stop-now"

        campaign = _campaign(_StopNow(), checkpoint=path)
        result = campaign.run()
        assert result.stopped_early
        payload = pickle.loads(path.read_bytes())
        assert payload["stopped_early"] is True
        assert payload["finished"] is True

    def test_corrupt_checkpoint_refused(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            _campaign(Repeat(), checkpoint=path, resume=True).run()

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "old.ckpt"
        store = CampaignCheckpoint(path)
        path.write_bytes(
            pickle.dumps({"version": CHECKPOINT_VERSION + 1, "fingerprint": ""})
        )
        with pytest.raises(CheckpointError, match="version"):
            store.load("anything")

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "other.ckpt"
        _campaign(Repeat(), rounds=1, checkpoint=path).run()
        # Same checkpoint, different seeds: a different campaign.
        other = AdaptiveCampaign(
            seeds=(7, 8),
            rounds=2,
            policy=Repeat(),
            executor=CellExecutor(workers=2),
            checkpoint=path,
            resume=True,
        )
        other.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
        with pytest.raises(CheckpointError, match="different campaign"):
            other.run()

    def test_resume_without_checkpoint_is_config_error(self):
        campaign = AdaptiveCampaign(seeds=(0,), rounds=1, policy=Repeat(), resume=True)
        campaign.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
        with pytest.raises(ConfigError, match="checkpoint"):
            campaign.run()

    def test_resume_with_no_checkpoint_yet_starts_fresh(self, tmp_path):
        # First invocation of an always-pass-``--resume`` workflow:
        # nothing on disk yet, so the run starts from round 0 and
        # *creates* the checkpoint rather than refusing.
        path = tmp_path / "first-run.ckpt"
        result = _campaign(Repeat(), checkpoint=path, resume=True).run()
        assert result.resumed_rounds == 0
        assert len(result.rounds) == 3
        assert path.exists()

    def test_clear_removes_and_tolerates_missing(self, tmp_path):
        path = tmp_path / "gone.ckpt"
        store = CampaignCheckpoint(path)
        store.save(
            fingerprint="x",
            observations=[],
            stopped_early=False,
            finished=False,
        )
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent
