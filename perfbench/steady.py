#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report spreads.

    python3 perfbench/steady.py --runs 10 --seed-base 100 --save before.json
    python3 perfbench/steady.py --runs 10 --seed-base 100 --against before.json

Each run is ``perfbench/run.py --trace 0`` with its own seed.  For every
end-to-end metric the check prints the median, the quartiles and the
spread ``(q3 - q1) / median``, and flags a spread above the metric's
bound in ``BENCHMARK.json`` (``setup_s`` is reported but exempt: its
bound governs drift, not spread).  ``--save`` keeps the values with
their provenance; ``--against`` compares medians with a saved set and
flags any metric worse by more than its bound.  Results whose
provenance differs (Python, numpy, core count, start method,
``REPRO_NO_NUMPY``) are never compared.  Exit status 1 when anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.stats import comparable, spread  # noqa: E402

SPREAD_EXEMPT = ("setup_s",)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run: (provenance, metric values)."""
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed={seed} failed (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    provenance = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("provenance ")
    )
    return provenance, {
        name: metric["value"] for name, metric in result["metrics"].items()
    }


def _sign(metric: dict) -> int:
    return 1 if metric["better"] == "lower" else -1


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in declared["workloads"]),
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    metrics = {metric["name"]: metric for metric in declared["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    provenance = None
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in metrics}
        for index in range(args.runs):
            seed = args.seed_base + index
            run_provenance, measured = run_once(workload, seed, args.seconds)
            if provenance is None:
                provenance = run_provenance
            elif comparable(provenance, run_provenance):
                raise SystemExit(
                    f"provenance changed mid-check: {run_provenance}"
                )
            for name in metrics:
                values[workload][name].append(measured[name])
            print(
                f"{workload} seed={seed} "
                + " ".join(f"{name}={measured[name]:.4g}" for name in metrics),
                flush=True,
            )

    flagged = []
    print(f"\n{'workload':<15}{'metric':<22}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}")
    for workload, by_name in values.items():
        for name, series in by_name.items():
            median, q1, q3, share = spread(series)
            bound = metrics[name]["bound"]
            over = share > bound and name not in SPREAD_EXEMPT
            if over:
                flagged.append(f"{workload} {name}: spread {share:.3f} > {bound}")
            print(
                f"{workload:<15}{name:<22}{median:>11.4g}{q1:>11.4g}{q3:>11.4g}"
                f"{share:>9.3f}{bound:>7}{'  OVER' if over else ''}"
            )

    if args.against is not None:
        baseline = json.loads(args.against.read_text(encoding="utf-8"))
        differ = comparable(baseline["provenance"], provenance)
        if differ:
            raise SystemExit(
                f"refusing to compare: provenance differs on {', '.join(differ)}"
            )
        print(f"\nagainst {args.against} (git {baseline['provenance'].get('git_sha')})")
        for workload, by_name in values.items():
            for name, series in by_name.items():
                base = baseline["values"].get(workload, {}).get(name)
                if not base:
                    continue
                before, after = spread(base)[0], spread(series)[0]
                worse = _sign(metrics[name]) * (after - before) / before
                bound = metrics[name]["bound"]
                mark = "  WORSE" if worse > bound else ""
                if mark:
                    flagged.append(f"{workload} {name}: worse by {worse:.3f}")
                print(
                    f"{workload:<15}{name:<22}{before:>11.4g} -> {after:<11.4g}"
                    f"{-worse:>+8.3f}{mark}"
                )

    if args.save is not None:
        args.save.write_text(
            json.dumps({"provenance": provenance, "values": values}, indent=1) + "\n",
            encoding="utf-8",
        )
    print("\nsteady" if not flagged else "\nflagged:\n  " + "\n  ".join(flagged))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
