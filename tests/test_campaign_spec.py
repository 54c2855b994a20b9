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
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ReproError
from repro.ptest.campaign import DetectionCapture
from repro.ptest.adaptive import AdaptiveCampaign, GridZoom, RoundObservation
from repro.ptest.executor import CellExecutor, CollectSink, QuarantineReport
from repro.ptest.pool import MAX_WORKERS, close_pool
from repro.ptest.spec import (
    CampaignSpec,
    SpecOutcome,
    execute_spec,
    round_from_dict,
    round_to_dict,
)

REPO = Path(__file__).parent.parent


# -- JSON round-trip ----------------------------------------------------


ROUND_TRIP_SPECS = [
    CampaignSpec(scenario="philosophers"),
    CampaignSpec(scenario="philosophers", seeds=(7,)),
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
    # The second text nests deeper than the JSON decoder's recursion limit.
    for text in ("{nope", "[" * 200_000):
        with pytest.raises(ConfigError, match="not valid JSON"):
            CampaignSpec.from_json(text)


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
        # Mode "run" left the spec (`repro run` runs one cell, not a
        # spec); a campaign runs on the adaptive engine as one round,
        # yet takes no schedule or checkpoint.
        (
            {"scenario": "x", "mode": "run", "seeds": (0,)},
            "mode must be one of campaign, adapt",
        ),
        ({"scenario": "x", "policy": "repeat"}, "policy only apply"),
        ({"scenario": "x", "resume": True}, "resume only apply"),
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
        ({"scenario": "x", "mode": "adapt", "pipeline": 5}, "pipeline must be"),
        ({"scenario": "x", "mode": "adapt", "policy": [1]}, "policy must be"),
        ({"scenario": "x", "mode": "adapt", "checkpoint": 5}, "checkpoint must be"),
        ({"scenario": "x", "cell_timeout": float("nan")}, "must be a finite"),
        ({"scenario": "x", "cell_timeout": float("inf")}, "must be a finite"),
        ({"scenario": "x", "workers": MAX_WORKERS + 1}, "MAX_WORKERS"),
    ],
)
def test_validate_rejects(kwargs, match):
    with pytest.raises((ReproError, ValueError), match=match):
        CampaignSpec(**kwargs)


def test_huge_finite_cell_timeout_means_no_deadline():
    """A finite budget past the lock-wait limit waits like no budget
    rather than overflowing inside ``Future.result``."""
    spec = CampaignSpec(
        scenario="clean_spin", params=(("tasks", 2),), seeds=(0, 1), workers=2
    )
    huge = replace(spec, cell_timeout=1e300)
    assert execute_spec(huge).rounds == execute_spec(spec).rounds


#: Arbitrary JSON, plus the strings that reach deeper validation
#: (policy names, pipeline spellings, scenario names, file paths).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(
        ["grid_zoom", "replay", "grid_zoom:2,replay:1", "replay:0", "ck.json"]
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
#: Every field but ``mode`` (always set), plus the removed ``prewarm``
#: knob that older spec files still carry.
SPEC_FIELDS = sorted(
    {f.name for f in fields(CampaignSpec)} - {"mode"} | {"prewarm"}
)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["campaign", "adapt"]),
    payload=st.dictionaries(st.sampled_from(SPEC_FIELDS), JSON_VALUES, max_size=6),
)
def test_from_dict_returns_a_spec_or_raises_config_error(mode, payload):
    """Whatever JSON a spec file or socket carries, ``from_dict`` either
    builds a spec or raises :class:`ConfigError` — nothing else, not
    even when the required ``scenario`` is missing."""
    payload = {**payload, "mode": mode}
    try:
        spec = CampaignSpec.from_dict(payload)
    except ConfigError:
        return
    assert spec.mode == mode


def test_spec_files_with_removed_batch_knobs_still_load():
    """Spec files written before the batch knobs and cross-round
    pre-warming went away carry ``batch_sampling``/``merge_batch`` or
    ``prewarm``; they load, ignore them, and run exactly as the same
    spec without them."""
    plain = {"scenario": "clean_spin", "params": {"tasks": 2}, "seeds": [0, 1]}
    adapt = dict(plain, mode="adapt", policy="repeat", rounds=2)
    for base, removed in (
        (plain, {"batch_sampling": True, "merge_batch": False}),
        (plain, {"prewarm": True}),
        (adapt, {"prewarm": True}),
        (adapt, {"prewarm": False}),
    ):
        spec = CampaignSpec.from_json(json.dumps(dict(base, **removed)))
        bare = CampaignSpec.from_json(json.dumps(base))
        assert spec == bare
        assert (spec.batch_sampling, spec.merge_batch) == (None, None)
        assert not set(removed) & set(spec.to_dict())
        assert CampaignSpec.from_json(spec.to_json()) == spec
        assert execute_spec(spec).rounds == execute_spec(bare).rounds
    for name in ("batch_sampling", "merge_batch"):
        with pytest.raises(ConfigError, match=name):
            CampaignSpec(scenario="x", **{name: "yes"})
    with pytest.raises(ConfigError, match="prewarm must be a boolean"):
        CampaignSpec.from_dict(dict(adapt, prewarm=1))
    with pytest.raises(TypeError, match="prewarm"):
        CampaignSpec(scenario="x", prewarm=False)


def test_validate_runs_on_from_json_too():
    payload = json.dumps({"scenario": "x", "mode": "run", "seeds": [0]})
    with pytest.raises(ConfigError, match="mode must be one of campaign, adapt"):
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
    direct = AdaptiveCampaign(seeds=(0, 1), executor=CellExecutor(workers=1))
    direct.add_grid("philosophers", "philosophers", GRID, count="2")
    assert outcome.final_rows == direct.run().final_rows
    assert isinstance(outcome, SpecOutcome)
    assert outcome.rounds and isinstance(outcome.rounds[0], RoundObservation)


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
        seeds=(0, 1),
        executor=CellExecutor(workers=1),
        rounds=2,
        policy=GridZoom(),
    )
    direct.add_grid("philosophers", "philosophers", GRID, count="2")
    result = direct.run()
    assert [list(r.rows) for r in outcome.rounds] == [
        list(obs.rows) for obs in result.rounds
    ]
    assert outcome.schedule == "policy=grid_zoom"


@pytest.mark.parametrize("workers", [1, 2])
def test_execute_spec_campaign_outcome_matches_hand_built_campaign(workers):
    """A campaign spec is one unrefined round of the adaptive engine;
    every field of its outcome equals a plain campaign's."""
    seeds = (0, 1, 2)
    spec = CampaignSpec(
        scenario="philosophers",
        params=(("count", "2"),),
        grid=(("hold_steps", ("3", "5")),),
        seeds=seeds,
        workers=workers,
        quarantine=True,
        capture_per_variant=1,
    )
    direct = AdaptiveCampaign(
        seeds=seeds,
        executor=CellExecutor(workers=workers, quarantine=True),
        capture_per_variant=1,
    )
    direct.add_grid("philosophers", "philosophers", GRID, count="2")
    capture = DetectionCapture(limit_per_variant=1)
    seen, cells = [], CollectSink()
    try:
        result = direct.run(sink=capture)
        outcome = execute_spec(spec, cells, on_round=seen.append)
    finally:
        close_pool(workers)
    rows = result.final_rows
    assert outcome.rounds == result.rounds
    [round_] = outcome.rounds
    assert round_.rows == rows
    assert round_.detections == tuple(
        sample for row in rows for sample in capture.for_variant(row.variant)
    )
    assert len(round_.detections) == 2  # one per variant, of 3 each
    assert round_.quarantine == QuarantineReport((), 6, 6)
    assert outcome.pool_ids == result.pool_ids
    assert (round_.stage, round_.index) == (None, 0)
    assert (
        outcome.stopped_early,
        outcome.resumed_rounds,
        outcome.rounds_budget,
        outcome.schedule,
    ) == (False, 0, None, "")
    assert seen == [round_]
    assert [(cell.variant, cell.seed) for cell in cells.cells] == [
        (row.variant, seed) for row in rows for seed in seeds
    ]


def test_execute_spec_run_mode():
    """Mode ``run`` left the spec: the one cell it ran is a one-seed
    campaign, whose one round holds that cell's row and detection."""
    spec = CampaignSpec(
        scenario="philosophers",
        params=(("count", "2"),),
        seeds=(0,),
    )
    outcome = execute_spec(spec)
    [round_] = outcome.rounds
    assert [(row.variant, row.runs, row.detections) for row in round_.rows] == [
        ("philosophers", 1, 1)
    ]
    assert [(s.variant, s.seed, s.kind) for s in round_.detections] == [
        ("philosophers", 0, "deadlock")
    ]


# -- CLI round trip: --dump-spec / --spec ------------------------------


def _repro(*args: str, timeout: int = 300, stdout=subprocess.PIPE):
    """Run ``python -m repro`` in a minimal environment that keeps the
    caller's ``PYTHONDONTWRITEBYTECODE``, so a cache-free tree stays so."""
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=REPO,
        env=env,
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


_SPEC_OPTIONS = set(
    "-h --help --spec --dump-spec --seeds --workers --batch-size "
    "--param -p --grid -g".split()
)
_LOCAL_OPTIONS = {"--keep-pool", "--cell-timeout", "--quarantine"}
_ADAPT_OPTIONS = set(
    "--rounds --policy --pipeline --max-sources --checkpoint --resume".split()
)
#: Per spec subcommand: its option strings, an invocation setting every
#: flag that reaches the spec, and the spec that invocation dumps.
_SPEC_SURFACES = {
    "campaign": (
        _SPEC_OPTIONS | _LOCAL_OPTIONS,
        "philosophers --seeds 3 --workers 2 --batch-size 4 -p count=3 "
        "--param op=round_robin -g chunk=1,2 --grid max_ticks=900,1200 "
        "--cell-timeout 7.5 --quarantine --keep-pool",
        {
            "scenario": "philosophers",
            "mode": "campaign",
            "params": {"count": "3", "op": "round_robin"},
            "grid": {"chunk": ["1", "2"], "max_ticks": ["900", "1200"]},
            "seeds": [0, 1, 2],
            "workers": 2,
            "batch_size": 4,
            "cell_timeout": 7.5,
            "quarantine": True,
        },
    ),
    "adapt": (
        _SPEC_OPTIONS | _LOCAL_OPTIONS | _ADAPT_OPTIONS,
        "philosophers --seeds 2 --workers 2 --batch-size 3 -p count=3 "
        "-g chunk=1,2 --cell-timeout 5 --quarantine --keep-pool "
        "--pipeline grid_zoom:2,replay:1 --rounds 4 --max-sources 3 "
        "--checkpoint adapt.ckpt --resume",
        {
            "scenario": "philosophers",
            "mode": "adapt",
            "params": {"count": "3"},
            "grid": {"chunk": ["1", "2"]},
            "seeds": [0, 1],
            "workers": 2,
            "batch_size": 3,
            "cell_timeout": 5.0,
            "quarantine": True,
            "pipeline": "grid_zoom:2,replay:1",
            "rounds": 4,
            "max_sources": 3,
            "checkpoint": "adapt.ckpt",
            "resume": True,
        },
    ),
    "submit": (
        _SPEC_OPTIONS | {"--host", "--port", "--timeout"},
        "barrier --seeds 4 --workers 2 --batch-size 2 -p parties=3 "
        "-g faulty=false,true --host 127.0.0.1 --port 1 --timeout 9.5",
        {
            "scenario": "barrier",
            "mode": "campaign",
            "params": {"parties": "3"},
            "grid": {"faulty": ["false", "true"]},
            "seeds": [0, 1, 2, 3],
            "workers": 2,
            "batch_size": 2,
        },
    ),
}


@pytest.mark.parametrize("command", sorted(_SPEC_SURFACES))
def test_cli_spec_subcommand_surface(command, tmp_path, capsys):
    """Each spec subcommand's flags, and the spec an invocation that
    sets every one of them writes (``submit`` never connects)."""
    from repro.cli import build_parser, main

    options, argv, expected = _SPEC_SURFACES[command]
    subparsers = build_parser()._subparsers._group_actions[0]
    parser = subparsers.choices[command]
    assert set(parser._option_string_actions) == options
    assert [a.dest for a in parser._actions if not a.option_strings] == [
        "scenario"
    ]
    dump = tmp_path / f"{command}.json"
    assert main([command, *argv.split(), "--dump-spec", str(dump)]) == 0
    assert capsys.readouterr().out == f"spec written to {dump}\n"
    assert json.loads(dump.read_text()) == expected


@pytest.mark.parametrize("command", ["adapt", "campaign", "submit"])
def test_cli_run_mode_spec_file_is_config_error(command, tmp_path, capsys):
    """No flag makes a mode-"run" spec, and no subcommand takes one
    from a file: one line, exit 2 (``submit`` never connects)."""
    from repro.cli import main

    spec_file = tmp_path / "run.json"
    spec_file.write_text(
        json.dumps({"scenario": "philosophers", "mode": "run", "seeds": [3]})
    )
    assert main([command, "--spec", str(spec_file)]) == 2
    assert capsys.readouterr().out == (
        "mode must be one of campaign, adapt, got 'run'\n"
    )


@pytest.mark.parametrize("command", ["adapt", "campaign", "submit"])
def test_cli_unwritable_dump_spec_is_config_error(command, tmp_path):
    """A --dump-spec path that cannot be written is one line and exit
    2, like an unreadable --spec file, never a traceback (exit 1 would
    read as "bug found")."""
    path = tmp_path / "missing" / "spec.json"
    result = _repro(command, "philosophers", "--dump-spec", str(path))
    assert result.returncode == 2
    assert result.stdout.startswith(f"cannot write spec file {str(path)!r}: ")
    assert result.stdout.count("\n") == 1
    assert "Traceback" not in result.stdout + result.stderr
    assert not path.parent.exists()


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


def test_cli_spec_nested_too_deeply_is_config_error(tmp_path):
    spec_file = tmp_path / "deep.json"
    spec_file.write_text("[" * 200_000)
    result = _repro("campaign", "--spec", str(spec_file))
    assert result.returncode == 2
    assert "not valid JSON" in result.stdout
    assert "Traceback" not in result.stdout + result.stderr


def test_cli_spec_file_over_the_worker_cap_is_config_error(tmp_path, capsys):
    from repro.cli import main

    spec_file = tmp_path / "wide.json"
    # One seed: even past the cap no pool would start.
    spec_file.write_text(
        json.dumps(
            {"scenario": "clean_spin", "seeds": [0], "workers": MAX_WORKERS + 1}
        )
    )
    assert main(["campaign", "--spec", str(spec_file)]) == 2
    output = capsys.readouterr().out
    assert output.count("\n") == 1 and "MAX_WORKERS" in output


def test_cli_spec_and_scenario_together_is_config_error(tmp_path):
    spec_file = tmp_path / "c.json"
    spec_file.write_text(CampaignSpec(scenario="philosophers").to_json())
    result = _repro(
        "campaign", "philosophers", "--spec", str(spec_file)
    )
    assert result.returncode == 2
    assert "not both" in result.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("run", "clean_spin"),
        ("run", "quicksort_stress", "-p", "max_ticks=576"),
        ("scenarios",),
        ("campaign", "clean_spin", "--seeds", "2"),
    ],
    ids=["run-clean", "run-bug-found", "scenarios", "campaign"],
)
def test_cli_closed_stdout_exits_141_without_traceback(args):
    """A reader gone before the first write ends the command as SIGPIPE
    would end a writer: exit 141, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _repro(*args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr
