"""Command-line interface: ``python -m repro <command>``.

Commands mirror the examples so the tool is usable without writing
Python:

``run``            an adaptive stress test — either a registered
                   scenario by name (``run philosophers -p op=cyclic``)
                   or the explicit (n, s, op, seed) form
``campaign``       sweep a registered scenario over seeds (and an
                   optional parameter grid) through the batched
                   process-pool executor; each row shows the verdict
                   its scenario expects at that grid point
``adapt``          multi-round adaptive campaign: rounds run on one
                   warm worker pool and a refine policy (grid_zoom,
                   halving, replay, repeat) steers each next round's
                   variants from the previous round's detections
``serve``          long-running campaign server: many concurrent
                   requests multiplexed onto shared warm pools over a
                   newline-JSON socket protocol
``submit``         send one campaign/adapt spec to a running server
                   via :class:`repro.client.Client`
``scenarios``      list the scenario registry with parameter specs and
                   each scenario's expected verdict at its defaults
``bench``          run the perf hot-path benchmark suite and print the
                   JSON artifact path plus headline speedups
``fig1``           the Fig. 1 example (--order good|bad)

``campaign``/``adapt`` parse into one serializable
:class:`~repro.ptest.spec.CampaignSpec` and dispatch through
:func:`~repro.ptest.spec.execute_spec` — the same schema ``serve``
accepts on the wire (``campaign --spec file.json`` loads one,
``--dump-spec`` writes one without running).  ``run`` is no spec: it
runs its one cell through the cell path every campaign takes
(:class:`~repro.ptest.executor.CellExecutor`) and prints the full
result.  ``campaign``, ``adapt`` and ``submit`` share one set of spec
flags and one spec builder; ``campaign`` and ``adapt`` share one
handler, which differs between them only in the mode it asks for, and
one printer renders local and submitted outcomes alike.

Exit codes: 0 success, 1 a bug was found (``run`` and friends), 2
configuration error, 3 execution-fabric failure (a campaign's worker
pool died or hung unrecoverably — see ``--cell-timeout`` /
``--quarantine``), 141 stdout closed before all output was written
(128 + SIGPIPE, as a shell reports a writer killed by a closed pipe).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ConfigError, ReproError
from repro.ptest.config import PTestConfig
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell, check_fabric
from repro.ptest.harness import run_adaptive_test
from repro.ptest.merger import MERGE_OPS
from repro.workloads.fig1 import run_fig1
from repro.workloads.registry import REGISTRY, scenario_ref


def _print_result(result) -> int:
    print(result.summary())
    if result.found_bug:
        print(result.report.describe())
        return 1
    return 0


def _parse_params(pairs: list[str] | None) -> dict[str, str]:
    """``key=value`` strings -> param mapping (registry coerces types)."""
    params: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"malformed parameter {pair!r}; expected key=value"
            )
        params[key] = value
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    explicit_flags = {
        "--patterns/-n": args.patterns,
        "--size/-s": args.size,
        "--op": args.op,
        "--max-ticks": args.max_ticks,
    }
    if args.scenario is not None:
        # The explicit-form flags do not apply to a registered scenario
        # (its parameters travel via --param); reject rather than
        # silently ignore them.
        given = [flag for flag, value in explicit_flags.items() if value is not None]
        if given:
            print(
                f"{', '.join(given)} only apply to the explicit form; "
                f"use --param to parameterise scenario {args.scenario!r} "
                "(see `repro scenarios`)"
            )
            return 2
        try:
            # The one cell path every campaign takes (pool._run_cached).
            ref = scenario_ref(args.scenario, **_parse_params(args.param))
            sink = CollectSink()
            CellExecutor(workers=1).run_cells(
                {args.scenario: ref}, [WorkCell(args.scenario, args.seed)], sink
            )
            [result] = sink.results
        except ReproError as error:
            # Unknown scenario, bad param, or a builder rejecting an
            # out-of-range value — never exit 1 (that means "bug found").
            print(error)
            return 2
        print(f"scenario: {args.scenario} seed={args.seed}")
        return _print_result(result)
    if args.param:
        print("--param requires a scenario name (see `repro scenarios`)")
        return 2
    # Omit flags the user left unset so PTestConfig's own defaults apply.
    overrides = {
        "pattern_count": args.patterns,
        "pattern_size": args.size,
        "op": args.op,
        "max_ticks": args.max_ticks,
    }
    try:
        config = PTestConfig(
            seed=args.seed,
            **{key: value for key, value in overrides.items() if value is not None},
        )
    except ConfigError as error:
        print(error)
        return 2
    print(f"adaptive test: {config.describe()}")
    return _print_result(run_adaptive_test(config))


def _print_quarantine(report) -> None:
    """Summarise a run's quarantine accounting.

    Printed whenever quarantine was requested — a clean run states
    "0 of N cells" explicitly rather than staying silent, so partial
    results are never mistaken for complete ones (or vice versa).
    """
    if report is None:
        return
    print(report.describe())
    for cell in report.cells:
        print(f"  quarantined: {cell.describe()}")


def _load_spec_file(path: str):
    """A validated :class:`~repro.ptest.spec.CampaignSpec` from a JSON
    file (``--spec``); I/O problems are config errors, not tracebacks."""
    from pathlib import Path

    from repro.ptest.spec import CampaignSpec

    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ConfigError(f"cannot read spec file {path!r}: {error}")
    return CampaignSpec.from_json(text)


def _parse_grid(pairs: list[str] | None) -> dict[str, list[str]]:
    """``key=v1,v2,...`` strings -> param grid (registry coerces types)."""
    grid: dict[str, list[str]] = {}
    for pair in pairs or []:
        key, sep, values = pair.partition("=")
        if not sep or not key or not values:
            raise ConfigError(
                f"malformed grid {pair!r}; expected key=v1,v2,..."
            )
        if key in grid:
            raise ConfigError(f"grid parameter {key!r} given more than once")
        grid[key] = values.split(",")
    return grid


def _build_spec(args: argparse.Namespace, mode: str | None):
    """The subcommand's :class:`~repro.ptest.spec.CampaignSpec` — from
    ``--spec FILE`` when given, otherwise from the parsed flags.

    ``mode`` is the one a spec file must have; ``None`` (``repro
    submit``) accepts a file of any mode and builds a campaign from
    flags.  ``getattr`` defaults keep embedders that call the handlers
    with a partial namespace (bypassing argparse) on the ConfigError
    path rather than an AttributeError.
    """
    from repro.ptest.spec import CampaignSpec

    spec_path = getattr(args, "spec", None)
    if spec_path is not None:
        if args.scenario is not None:
            raise ConfigError(
                "give a scenario name or --spec FILE, not both"
            )
        spec = _load_spec_file(spec_path)
        if mode is not None and spec.mode != mode:
            raise ConfigError(
                f"spec file {spec_path!r} has mode {spec.mode!r}; "
                f"`repro {mode}` runs mode {mode!r} specs "
                "(use `repro submit` to dispatch any mode)"
            )
        return spec
    if args.scenario is None:
        raise ConfigError(
            f"`repro {mode or 'submit'}` needs a scenario name or --spec FILE"
        )
    common = dict(
        scenario=args.scenario,
        mode=mode or "campaign",
        params=tuple(_parse_params(args.param).items()),
        grid=tuple(
            (key, tuple(values))
            for key, values in _parse_grid(args.grid).items()
        ),
        seeds=tuple(range(args.seeds)),
        workers=args.workers,
        batch_size=args.batch_size,
        cell_timeout=getattr(args, "cell_timeout", None),
        quarantine=getattr(args, "quarantine", False),
    )
    if mode == "adapt":
        return CampaignSpec(
            **common,
            policy=args.policy,
            pipeline=args.pipeline,
            rounds=args.rounds,
            max_sources=args.max_sources,
            checkpoint=getattr(args, "checkpoint", None),
            resume=getattr(args, "resume", False),
        )
    return CampaignSpec(**common)


def _dump_spec(args: argparse.Namespace, spec) -> bool:
    """Handle ``--dump-spec PATH``: write the spec as JSON and skip
    execution.  Returns whether the run should stop here; a path that
    cannot be written is a config error, not a traceback."""
    path = getattr(args, "dump_spec", None)
    if path is None:
        return False
    from pathlib import Path

    try:
        Path(path).write_text(spec.to_json(indent=2) + "\n")
    except OSError as error:
        raise ConfigError(f"cannot write spec file {path!r}: {error}")
    print(f"spec written to {path}")
    return True


def _expected_label(scenario, params=None) -> str:
    """A scenario's expected verdict at ``params`` as the CLI prints
    it: the anomaly kind, ``none`` for a clean run, or ``-`` when the
    scenario was registered without ``expect=``."""
    if scenario.expect is None:
        return "-"
    kind = scenario.expected(params)
    return kind.value if kind is not None else "none"


def _print_campaign_outcome(spec, outcome) -> None:
    from repro.analysis.text_report import render_campaign
    from repro.ptest.spec import spec_variants

    print(
        f"campaign: {spec.scenario} over {len(spec.seeds)} seed(s), "
        f"workers={spec.workers}"
        + (f", batch_size={spec.batch_size}" if spec.batch_size else "")
    )
    expected = {}
    # A server may know scenarios this process does not; their rows
    # show "-".
    if spec.scenario in REGISTRY:
        scenario = REGISTRY.get(spec.scenario)
        expected = {
            name: _expected_label(scenario, dict(ref.params))
            for name, ref in spec_variants(spec).items()
        }
    print(render_campaign(list(outcome.final_rows), expected=expected))
    _print_quarantine(outcome.rounds[-1].quarantine)


def _print_adapt_outcome(spec, outcome) -> None:
    from repro.analysis.text_report import render_campaign

    print(
        f"adaptive campaign: {spec.scenario} x {len(spec.seeds)} seed(s), "
        f"{outcome.schedule}, {len(outcome.rounds)}/{outcome.rounds_budget} "
        f"round(s), workers={spec.workers}"
        + (" [stopped early]" if outcome.stopped_early else "")
        + (
            f" [resumed {outcome.resumed_rounds} round(s) from checkpoint]"
            if outcome.resumed_rounds
            else ""
        )
    )
    for round_ in outcome.rounds:
        pool_note = (
            f" pool_id={round_.pool_id}" if round_.pool_id is not None else ""
        )
        stage_note = f" stage={round_.stage}" if round_.stage is not None else ""
        print(
            f"-- round {round_.index + 1}: "
            f"{round_.total_detections} detection(s)"
            f"{stage_note}{pool_note}"
        )
        print(render_campaign(list(round_.rows)))
        _print_quarantine(round_.quarantine)


def _print_outcome(spec, outcome) -> None:
    """Render a spec's outcome, run here or on a server: per round for
    an adapt spec, as one campaign table otherwise."""
    if spec.mode == "adapt":
        _print_adapt_outcome(spec, outcome)
    else:
        _print_campaign_outcome(spec, outcome)


def _execute_locally(args: argparse.Namespace, mode: str) -> int:
    """``repro campaign`` and ``repro adapt``: build the spec, run it
    here, print it.

    A dead or hung execution fabric gets a one-line diagnosis and exit
    3, distinct from "bug found" (1) and config errors (2), in the
    spelling ``repro serve``'s error frames use (see
    :func:`~repro.ptest.executor.executor_diagnosis`).
    """
    from repro.ptest.executor import (
        EXECUTOR_FAILURES,
        QUARANTINE_HINT,
        executor_diagnosis,
    )
    from repro.ptest.pool import close_pool
    from repro.ptest.spec import execute_spec

    try:
        spec = _build_spec(args, mode)
        if _dump_spec(args, spec):
            return 0
    except (ReproError, ValueError) as error:
        # Contradictory knobs, malformed --param/--grid, an unknown
        # policy, an unreadable --spec file or unwritable --dump-spec
        # path — config problems, caught before any pool exists.
        print(error)
        return 2
    try:
        outcome = execute_spec(spec)
    except EXECUTOR_FAILURES as error:
        # Before the ReproError arm: a hung batch (WatchdogTimeout) is
        # a fabric failure, not a config mistake.
        print(executor_diagnosis(error))
        if not spec.quarantine:
            print(QUARANTINE_HINT)
        return 3
    except (ReproError, ValueError) as error:
        # ValueError covers duplicate variant names (e.g. a repeated
        # grid value); ReproError covers registry/param problems and
        # builders rejecting a value at cell-build time.
        print(error)
        return 2
    finally:
        if not getattr(args, "keep_pool", False):
            # Deterministic teardown of this run's shared pool only —
            # an embedding caller's other warm pools survive.  With
            # --keep-pool even this one stays warm (the atexit hook
            # reaps it eventually).
            close_pool(spec.workers)
    _print_outcome(spec, outcome)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    return _execute_locally(args, "campaign")


def _cmd_adapt(args: argparse.Namespace) -> int:
    return _execute_locally(args, "adapt")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.ptest.pool import shutdown_pools
    from repro.serve import serve

    if not 0 <= args.port <= 65535:
        print(f"port must be in 0-65535, got {args.port}")
        return 2

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        print(
            f"repro serve: listening on {host}:{port} "
            f"(max_concurrent={args.max_concurrent}); "
            'send {"op": "shutdown"} to drain and exit',
            flush=True,
        )

    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                max_concurrent=args.max_concurrent,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: interrupted")
    except (ReproError, OSError) as error:
        # Bad max_concurrent, port already bound — config problems.
        print(error)
        return 2
    finally:
        # The server process owns its warm pools; tear them down
        # deterministically rather than leaning on the atexit hook.
        shutdown_pools()
    print("repro serve: drained and stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.client import Client, ServerError

    if not 0 <= args.port <= 65535:
        print(f"port must be in 0-65535, got {args.port}")
        return 2
    try:
        spec = _build_spec(args, None)
        # Connects lazily: a bad --timeout is rejected here, before any
        # socket exists.
        client = Client(args.host, args.port, timeout=args.timeout)
        if _dump_spec(args, spec):
            return 0
    except (ReproError, ValueError) as error:
        print(error)
        return 2
    try:
        outcome = client.run(spec)
    except ServerError as error:
        # The server already classified the failure; mirror the local
        # CLI's exit-code mapping (2 config, 3 executor failure).
        print(error)
        if error.hint:
            print(error.hint)
        return error.exit_code if error.exit_code is not None else 2
    finally:
        client.close()
    queue_note = " [queued]" if outcome.queued else ""
    print(f"submitted to {args.host}:{args.port}{queue_note}")
    _print_outcome(spec, outcome)
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for spec in REGISTRY:
        print(spec.describe())
        if spec.description:
            print(f"    {spec.description}")
        print(f"    expected at defaults: {_expected_label(spec)}")
    return 0


def _load_bench_main():
    """Import ``benchmarks/bench_perf_hotpaths.py`` from the repo tree.

    The bench suite lives beside the package, not inside it, so the CLI
    locates it relative to the source checkout; returns ``None`` when
    the tree is not there (e.g. an installed wheel without benchmarks).
    """
    import importlib.util
    from pathlib import Path

    script = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "bench_perf_hotpaths.py"
    )
    if not script.is_file():
        return None
    spec = importlib.util.spec_from_file_location(
        "repro_bench_perf_hotpaths", script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        check_fabric(workers=args.workers)
    except ConfigError as error:
        print(error)
        return 2
    bench_main = _load_bench_main()
    if bench_main is None:
        print(
            "benchmarks/bench_perf_hotpaths.py not found; `repro bench` "
            "needs the source checkout (the bench suite is not installed "
            "with the package)"
        )
        return 2
    argv = []
    if args.quick:
        argv.append("--quick")
    argv.extend(["--workers", str(args.workers)])
    return bench_main(argv)


def _cmd_fig1(args: argparse.Namespace) -> int:
    result = run_fig1(args.order)
    outcome = "terminated" if result.terminated else "wedged"
    print(f"order={args.order}: {outcome} after {result.ticks} ticks")
    print(f"  reached: {''.join(sorted(result.reached))}")
    if result.unreachable:
        print(f"  unreachable: {''.join(sorted(result.unreachable))}")
    for anomaly in result.anomalies:
        print(f"  {anomaly.describe()}")
    return 0 if result.terminated else 1


def _policy_choices() -> tuple[str, ...]:
    """Adapt-policy names, straight from the registry (one source)."""
    from repro.ptest.adaptive import POLICIES

    return tuple(sorted(POLICIES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="pTest (DATE 2009) reproduction — adaptive stress "
        "testing of concurrent software on a simulated embedded "
        "multicore platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an adaptive stress test")
    run_p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="registered scenario name (see `scenarios`); omit for the "
        "explicit (n, s, op) form",
    )
    run_p.add_argument(
        "--param",
        "-p",
        action="append",
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable)",
    )
    # Explicit-form flags default to None so the scenario form can tell
    # "flag given" from "default" and reject the combination.
    run_p.add_argument("--patterns", "-n", type=int, default=None)
    run_p.add_argument("--size", "-s", type=int, default=None)
    run_p.add_argument("--op", choices=sorted(MERGE_OPS), default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--max-ticks", type=int, default=None)
    run_p.set_defaults(func=_cmd_run)

    # The spec flags, declared once: every subcommand that builds a
    # CampaignSpec from flags takes them, and the ones that run it
    # here take the local execution flags too.
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="registered scenario name (or give --spec FILE)",
    )
    spec_flags.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="load the whole spec from a CampaignSpec JSON file instead "
        "of flags (see --dump-spec; `submit` takes any mode)",
    )
    spec_flags.add_argument(
        "--dump-spec",
        metavar="PATH",
        default=None,
        help="write the parsed CampaignSpec as JSON to PATH and exit "
        "without running (round-trips through --spec and `repro serve`)",
    )
    spec_flags.add_argument("--seeds", type=int, default=5)
    spec_flags.add_argument("--workers", type=int, default=1)
    spec_flags.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="cells per worker submission (default: auto)",
    )
    spec_flags.add_argument(
        "--param",
        "-p",
        action="append",
        metavar="KEY=VALUE",
        help="fixed scenario parameter (repeatable)",
    )
    spec_flags.add_argument(
        "--grid",
        "-g",
        action="append",
        metavar="KEY=V1,V2,...",
        help="sweep a parameter over several values (repeatable; "
        "variants are the cartesian product, which `adapt` refines "
        "round by round)",
    )
    local_flags = argparse.ArgumentParser(add_help=False)
    local_flags.add_argument(
        "--keep-pool",
        action="store_true",
        help="leave the shared worker pool warm after the run instead of "
        "shutting it down (for embedding callers that will dispatch "
        "again)",
    )
    local_flags.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog deadline per cell: hung worker batches are "
        "killed and retried instead of wedging the run "
        "(default: wait forever)",
    )
    local_flags.add_argument(
        "--quarantine",
        action="store_true",
        help="bisect repeatedly-failing batches down to the poison "
        "cells and complete with partial results (reported per cell) "
        "instead of aborting",
    )

    campaign_p = sub.add_parser(
        "campaign",
        parents=[spec_flags, local_flags],
        help="sweep a registered scenario over seeds",
    )
    campaign_p.set_defaults(func=_cmd_campaign)

    adapt_p = sub.add_parser(
        "adapt",
        parents=[spec_flags, local_flags],
        help="multi-round adaptive campaign on one warm worker pool",
    )
    adapt_p.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="maximum refinement rounds (policy may stop earlier; "
        "default 3, or the pipeline's own total when --pipeline is "
        "given)",
    )
    adapt_p.add_argument(
        "--policy",
        choices=_policy_choices(),
        default=None,
        help="refine policy steering each next round (default grid_zoom: "
        "narrow the grid around the highest-detection cell; halving: "
        "drop the bottom half of variants; replay: re-merge detecting "
        "interleavings into replay cells; repeat: rerun unchanged)",
    )
    adapt_p.add_argument(
        "--pipeline",
        metavar="NAME:ROUNDS,...",
        default=None,
        help='composed policy schedule, e.g. "grid_zoom:3,replay:2" — '
        "run each stage's policy for its round count, handing the "
        "latest round's detections to the next stage (mutually "
        "exclusive with --policy; only the final stage may omit "
        ":rounds, capped by --rounds)",
    )
    adapt_p.add_argument(
        "--max-sources",
        type=int,
        default=2,
        help="detections seeding each replay round (replay policy only)",
    )
    adapt_p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="persist round-by-round progress to PATH (atomic "
        "write-then-rename after every round)",
    )
    adapt_p.add_argument(
        "--resume",
        action="store_true",
        help="replay completed rounds from --checkpoint and continue "
        "where the previous run stopped (bit-identical to an "
        "uninterrupted run; a missing file starts fresh)",
    )
    adapt_p.set_defaults(func=_cmd_adapt)

    serve_p = sub.add_parser(
        "serve",
        help="serve campaigns over a socket: accept CampaignSpec "
        "requests from many clients on shared warm worker pools",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=7341,
        help="TCP port to listen on (0 picks a free port; default 7341)",
    )
    serve_p.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="campaigns executing at once; excess requests queue "
        "(never rejected) until a slot frees up",
    )
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit",
        parents=[spec_flags],
        help="submit a spec to a running `repro serve` instance: a "
        "campaign from flags, any mode with --spec",
    )
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=7341)
    submit_p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-read socket timeout in seconds",
    )
    submit_p.set_defaults(func=_cmd_submit)

    scenarios_p = sub.add_parser(
        "scenarios", help="list the scenario registry"
    )
    scenarios_p.set_defaults(func=_cmd_scenarios)

    bench_p = sub.add_parser(
        "bench", help="run the perf hot-path benchmark suite"
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="small iteration counts (the CI smoke configuration)",
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="process-pool width for the campaign layers (default 4)",
    )
    bench_p.set_defaults(func=_cmd_bench)

    fig1_p = sub.add_parser("fig1", help="the Fig. 1 example")
    fig1_p.add_argument("--order", choices=("good", "bad"), default="bad")
    fig1_p.set_defaults(func=_cmd_fig1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, not at interpreter exit, so a closed stdout
        # surfaces below rather than as an ignored exception.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the exit
        # flush cannot raise again, and exit as a writer killed by
        # SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
