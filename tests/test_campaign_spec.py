"""CampaignSpec: the serializable request schema behind the CLI,
``repro serve`` and embedders.

Three contracts pinned here: (1) ``to_json``/``from_json`` round-trips
every knob combination to an *equal* spec — the wire format loses
nothing; (2) ``validate()`` is the single choke point that rejects
contradictory knob combinations with messages naming the fix; (3)
``execute_spec`` produces results bit-identical to driving
``Campaign``/``AdaptiveCampaign`` by hand, so the spec path is a pure
re-plumbing of the legacy entry points.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, ReproError
from repro.ptest.campaign import Campaign
from repro.ptest.adaptive import AdaptiveCampaign, GridZoom
from repro.ptest.spec import (
    CampaignSpec,
    RoundResult,
    SpecOutcome,
    execute_spec,
    round_from_dict,
    round_to_dict,
)

REPO = Path(__file__).parent.parent


# -- JSON round-trip ----------------------------------------------------


ROUND_TRIP_SPECS = [
    CampaignSpec(scenario="philosophers"),
    CampaignSpec(scenario="philosophers", mode="run", seeds=(7,)),
    CampaignSpec(
        scenario="philosophers",
        params=(("count", "3"), ("hold_steps", "5")),
        grid=(("op", ("rr", "random")),),
        seeds=(0, 1, 2),
        workers=4,
        batch_size=8,
        cell_timeout=2.5,
        quarantine=True,
        capture_per_variant=2,
    ),
    CampaignSpec(
        scenario="clean_spin",
        mode="adapt",
        policy="grid_zoom",
        rounds=4,
        seeds=(0, 1),
    ),
    CampaignSpec(
        scenario="philosophers",
        mode="adapt",
        pipeline="grid_zoom:2,replay:1",
        max_sources=3,
        prewarm=False,
        checkpoint="/tmp/ck.json",
        resume=True,
        seeds=(5, 6),
    ),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_json_round_trip_is_equal(spec):
    rebuilt = CampaignSpec.from_json(spec.to_json())
    assert rebuilt == spec
    # And the dict form is plain-JSON stable (no tuples leaking out).
    assert json.loads(spec.to_json()) == spec.to_dict()


def test_to_dict_omits_defaults():
    # scenario/mode/seeds are always explicit on the wire; every other
    # default-valued knob is omitted so spec files stay readable.
    payload = CampaignSpec(scenario="philosophers").to_dict()
    assert payload == {
        "scenario": "philosophers",
        "mode": "campaign",
        "seeds": [0, 1, 2, 3, 4],
    }


def test_param_order_is_canonical_grid_order_is_not():
    a = CampaignSpec(
        scenario="philosophers", params=(("a", "1"), ("b", "2"))
    )
    b = CampaignSpec(
        scenario="philosophers", params=(("b", "2"), ("a", "1"))
    )
    assert a == b  # fixed params: order irrelevant, stored sorted
    g1 = CampaignSpec(
        scenario="philosophers", grid=(("x", ("1",)), ("y", ("2",)))
    )
    g2 = CampaignSpec(
        scenario="philosophers", grid=(("y", ("2",)), ("x", ("1",)))
    )
    assert g1 != g2  # grid order names the cartesian variants


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ReproError, match="unknown"):
        CampaignSpec.from_dict(
            {"scenario": "philosophers", "worker": 2}
        )


def test_from_json_rejects_malformed_json():
    with pytest.raises(ReproError, match="not valid JSON"):
        CampaignSpec.from_json("{nope")


def test_with_seeds():
    spec = CampaignSpec(scenario="philosophers", seeds=(3, 4))
    assert spec.with_seeds(3).seeds == (0, 1, 2)


def test_round_result_wire_codec_round_trips():
    spec = CampaignSpec(
        scenario="philosophers",
        params=(("count", "2"),),
        seeds=(0, 1),
    )
    outcome = execute_spec(spec)
    for round_ in outcome.rounds:
        assert round_from_dict(round_to_dict(round_)) == round_


# -- validate(): the contradictory-knob choke point ---------------------


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"scenario": ""}, "non-empty scenario"),
        ({"scenario": "x", "mode": "sweep"}, "mode must be one of"),
        ({"scenario": "x", "seeds": ()}, "at least one seed"),
        ({"scenario": "x", "seeds": (0, "1")}, "integers"),
        ({"scenario": "x", "workers": 0}, "workers must be >= 1"),
        ({"scenario": "x", "batch_size": 0}, "batch_size must be >= 1"),
        ({"scenario": "x", "cell_timeout": 0}, "cell_timeout must be > 0"),
        ({"scenario": "x", "quarantine": 1}, "quarantine must be"),
        ({"scenario": "x", "capture_per_variant": -1}, "capture_per_variant"),
        (
            {
                "scenario": "x",
                "params": (("k", "1"),),
                "grid": (("k", ("1", "2")),),
            },
            "both fixed and in the grid",
        ),
        ({"scenario": "x", "grid": (("k", ()),)}, "no values to sweep"),
        (
            {"scenario": "x", "mode": "run", "seeds": (0, 1)},
            "one cell",
        ),
        (
            {"scenario": "x", "mode": "run", "seeds": (0,), "workers": 2},
            "in-process",
        ),
        (
            {
                "scenario": "x",
                "mode": "run",
                "seeds": (0,),
                "grid": (("k", ("1",)),),
            },
            "fixed params only",
        ),
        (
            {"scenario": "x", "mode": "campaign", "rounds": 3},
            "only apply to mode 'adapt'",
        ),
        (
            {"scenario": "x", "mode": "campaign", "checkpoint": "ck"},
            "never take effect",
        ),
        (
            {
                "scenario": "x",
                "mode": "adapt",
                "policy": "grid_zoom",
                "pipeline": "replay",
            },
            "mutually exclusive",
        ),
        ({"scenario": "x", "mode": "adapt", "rounds": 0}, "rounds must be"),
        (
            {"scenario": "x", "mode": "adapt", "max_sources": 0},
            "max_sources must be",
        ),
        (
            {"scenario": "x", "mode": "adapt", "resume": True},
            "needs a checkpoint",
        ),
        (
            {"scenario": "x", "mode": "adapt", "policy": "nope"},
            "unknown policy",
        ),
        (
            {"scenario": "x", "mode": "adapt", "pipeline": "grid_zoom"},
            "unbounded",
        ),
    ],
)
def test_validate_rejects(kwargs, match):
    with pytest.raises((ReproError, ValueError), match=match):
        CampaignSpec(**kwargs)


def test_spec_files_with_removed_batch_knobs_still_load():
    """Spec files written before the batch knobs went away carry
    ``batch_sampling``/``merge_batch``; they load, ignore both, and run
    exactly as the same spec without them."""
    plain = {"scenario": "clean_spin", "params": {"tasks": 2}, "seeds": [0, 1]}
    old = dict(plain, batch_sampling=True, merge_batch=False)
    spec = CampaignSpec.from_json(json.dumps(old))
    bare = CampaignSpec.from_json(json.dumps(plain))
    assert spec == bare
    assert (spec.batch_sampling, spec.merge_batch) == (None, None)
    assert "batch_sampling" not in spec.to_dict()
    assert CampaignSpec.from_json(spec.to_json()) == spec
    assert execute_spec(spec).rounds == execute_spec(bare).rounds
    for name in ("batch_sampling", "merge_batch"):
        with pytest.raises(ConfigError, match=name):
            CampaignSpec(scenario="x", **{name: "yes"})


def test_validate_runs_on_from_json_too():
    payload = json.dumps(
        {"scenario": "x", "mode": "run", "seeds": [0], "workers": 3}
    )
    with pytest.raises(ReproError, match="in-process"):
        CampaignSpec.from_json(payload)


def test_serial_quarantine_and_timeout_stay_legal():
    # Pinned: these are real configurations (see the CLI fault-
    # tolerance tests), not contradictions.
    spec = CampaignSpec(
        scenario="philosophers", quarantine=True, cell_timeout=5.0
    )
    assert spec.workers == 1


# -- execute_spec equivalence vs the legacy entry points ---------------


GRID = {"hold_steps": ["3", "5"]}


def test_execute_spec_campaign_matches_hand_built_campaign():
    spec = CampaignSpec(
        scenario="philosophers",
        params=(("count", "2"),),
        grid=(("hold_steps", ("3", "5")),),
        seeds=(0, 1),
    )
    outcome = execute_spec(spec)
    direct = Campaign(seeds=(0, 1), workers=1)
    direct.add_grid("philosophers", "philosophers", GRID, count="2")
    assert list(outcome.rows) == list(direct.run())
    assert isinstance(outcome, SpecOutcome)
    assert outcome.rounds and isinstance(outcome.rounds[0], RoundResult)


def test_execute_spec_adapt_matches_hand_built_adaptive():
    spec = CampaignSpec(
        scenario="philosophers",
        mode="adapt",
        params=(("count", "2"),),
        grid=(("hold_steps", ("3", "5")),),
        seeds=(0, 1),
        policy="grid_zoom",
        rounds=2,
    )
    outcome = execute_spec(spec)
    direct = AdaptiveCampaign(
        seeds=(0, 1), workers=1, rounds=2, policy=GridZoom()
    )
    direct.add_grid("philosophers", "philosophers", GRID, count="2")
    result = direct.run()
    assert [list(r.rows) for r in outcome.rounds] == [
        list(obs.rows) for obs in result.rounds
    ]
    assert outcome.schedule == "policy=grid_zoom"


def test_execute_spec_run_mode():
    spec = CampaignSpec(
        scenario="philosophers",
        mode="run",
        params=(("count", "2"),),
        seeds=(0,),
    )
    outcome = execute_spec(spec)
    assert outcome.run_result is not None
    assert len(outcome.rounds) == 1


# -- CLI round trip: --dump-spec / --spec ------------------------------


def _repro(*args: str, timeout: int = 300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_dump_spec_then_spec_round_trip(tmp_path):
    spec_file = tmp_path / "campaign.json"
    dumped = _repro(
        "campaign",
        "philosophers",
        "--seeds",
        "2",
        "--grid",
        "count=2,3",
        "--dump-spec",
        str(spec_file),
    )
    assert dumped.returncode == 0, dumped.stderr
    assert "spec written to" in dumped.stdout
    spec = CampaignSpec.from_json(spec_file.read_text())
    assert spec.scenario == "philosophers"
    assert spec.seeds == (0, 1)

    flags = _repro(
        "campaign", "philosophers", "--seeds", "2", "--grid", "count=2,3"
    )
    from_file = _repro("campaign", "--spec", str(spec_file))
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == flags.stdout


def test_cli_spec_mode_mismatch_is_config_error(tmp_path):
    spec_file = tmp_path / "adapt.json"
    spec_file.write_text(
        CampaignSpec(
            scenario="philosophers", mode="adapt", rounds=2
        ).to_json()
    )
    result = _repro("campaign", "--spec", str(spec_file))
    assert result.returncode == 2
    assert "mode 'adapt'" in result.stdout
    assert "repro submit" in result.stdout


def test_cli_spec_and_scenario_together_is_config_error(tmp_path):
    spec_file = tmp_path / "c.json"
    spec_file.write_text(CampaignSpec(scenario="philosophers").to_json())
    result = _repro(
        "campaign", "philosophers", "--spec", str(spec_file)
    )
    assert result.returncode == 2
    assert "not both" in result.stdout
