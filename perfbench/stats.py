"""Percentiles, spreads, memory and provenance for benchmark results."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from typing import Any, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``, refusing unless at
    least :data:`MIN_BEYOND` samples lie beyond it.

    Nearest-rank definition: the smallest value with at least ``q`` of
    the samples at or below it.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} beyond "
            f"it; at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def mix_median(samples: Sequence[tuple[str, float]]) -> float:
    """The mean over request kinds of each kind's median.

    A workload that cycles scenarios of different cost has one latency
    mode per scenario; with two equal modes the plain median falls in
    the gap between them and jumps with every sample.  The per-kind
    medians are each stable, and so is their mean.  With one kind this
    is the plain median.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(statistics.median(values) for values in by_kind.values())


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of ``values``."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, share


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its live child processes (the pool
    workers), from ``VmHWM``; falls back to ``getrusage`` off Linux."""
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            if pid == os.getpid():
                total_kib += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kib / 1024


#: Provenance fields that must agree before two results are compared;
#: the code identity (sha, source digest) is what a comparison varies.
COMPARABLE = ("python", "numpy", "nproc", "start_method", "repro_no_numpy")


def provenance(root: Path) -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "repro_no_numpy": bool(os.environ.get("REPRO_NO_NUMPY")),
    }


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """The provenance fields on which ``a`` and ``b`` differ."""
    return [key for key in COMPARABLE if a.get(key) != b.get(key)]


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree (the
    source digest still identifies the code)."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
