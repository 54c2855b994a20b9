"""Deterministic chaos injection at the pool boundary.

The paper's machinery exists to surface hangs and deadlocks in the
*workload under test*; this module injects hangs and crashes into the
*execution fabric itself*, so every recovery invariant — watchdog
timeouts, dead-worker respawn, poison-cell quarantine, checkpoint
resume — is provable in ordinary tests instead of only under real
production failures.  It is deliberately distinct from the faulty
scenarios of :mod:`repro.workloads.scenarios`, which plant bugs inside
workloads for the detector to find: chaos faults happen *around* the
workload, at the worker-batch boundary, and a correctly recovering
executor produces results bit-identical to a chaos-free run.

Two fault families, both derived from :class:`ChaosSpec` seeds alone
(no wall clock, no ambient randomness), so a chaos run is replayable:

* **Transient faults** (``kill_rate`` / ``hang_rate`` / ``delay_rate``)
  are drawn per *batch attempt*: the decision RNG is seeded from
  ``(spec.seed, attempt, jobs)``, so a batch that was killed on its
  first attempt usually survives its resubmission — exactly the
  worker-death / stuck-future shapes the executor's respawn and
  watchdog paths must absorb without losing or changing a single row.

* **Poison cells** (``kill_seeds`` / ``hang_seeds`` / ``raise_seeds``)
  are keyed by the *cell seed* alone, independent of attempt or batch
  packing: the fault follows the cell through every retry, rebatch and
  bisection step, which is what lets the quarantine tests assert the
  same cells are isolated at any ``(workers, batch_size)``.

Worker-side entry point is :func:`run_chaos_batch`, which the executor
substitutes for :func:`~repro.ptest.pool.run_table_batch` whenever a
``chaos=`` spec is configured; the serial path never applies chaos
(there is no pool boundary to inject at — the serial run is the clean
reference the invariants compare against).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ChaosInjectedError, ConfigError

if TYPE_CHECKING:
    from repro.ptest.pool import Variant
    from repro.ptest.harness import TestRunResult

#: Exit status used for injected worker kills — distinct from the 1 a
#: real crash helper tends to use, so a chaos kill is recognisable in
#: worker-death telemetry and core-dump triage.
CHAOS_EXIT_STATUS = 23


@dataclass(frozen=True)
class ChaosSpec:
    """A picklable, fully-seeded description of the faults to inject.

    Rates are probabilities in ``[0, 1]`` drawn once per batch attempt;
    seed sets are exact per-cell triggers.  ``hang_s`` must comfortably
    exceed the executor's ``cell_timeout`` — the injected hang is meant
    to be *detected and killed* by the watchdog, never to finish.
    """

    seed: int = 0
    #: P(injected worker kill) per batch attempt — ``os._exit`` before
    #: any job runs, surfacing as ``BrokenProcessPool`` in the parent.
    kill_rate: float = 0.0
    #: P(forced hang) per batch attempt — sleep ``hang_s`` before the
    #: jobs, tripping the parent's watchdog deadline.
    hang_rate: float = 0.0
    #: P(batch delay) per batch attempt, plus its length: the batch
    #: still completes correctly, just late — exercising the in-order
    #: delivery contract under skew.
    delay_rate: float = 0.0
    delay_s: float = 0.01
    #: Sleep length of an injected hang (transient or poison).
    hang_s: float = 30.0
    #: Cells (by seed) that kill their worker every single attempt.
    kill_seeds: frozenset[int] = field(default_factory=frozenset)
    #: Cells (by seed) that hang every attempt (watchdog fodder).
    hang_seeds: frozenset[int] = field(default_factory=frozenset)
    #: Cells (by seed) that raise :class:`ChaosInjectedError` — the
    #: deterministically lethal-batch shape, without a worker death.
    raise_seeds: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"ChaosSpec.{name} must be in [0, 1], got {rate}"
                )
        if self.delay_s < 0 or self.hang_s <= 0:
            raise ConfigError(
                "ChaosSpec delays must be non-negative and hang_s > 0"
            )
        # The seed sets must be frozen (the spec is hashed into RNG
        # derivations and shipped between processes); coerce iterables.
        for name in ("kill_seeds", "hang_seeds", "raise_seeds"):
            value = getattr(self, name)
            if not isinstance(value, frozenset):
                object.__setattr__(self, name, frozenset(value))

    @property
    def has_poison(self) -> bool:
        return bool(self.kill_seeds or self.hang_seeds or self.raise_seeds)

    def describe(self) -> str:
        parts = []
        if self.kill_rate:
            parts.append(f"kill_rate={self.kill_rate}")
        if self.hang_rate:
            parts.append(f"hang_rate={self.hang_rate}")
        if self.delay_rate:
            parts.append(f"delay_rate={self.delay_rate}")
        for name in ("kill_seeds", "hang_seeds", "raise_seeds"):
            seeds = getattr(self, name)
            if seeds:
                parts.append(f"{name}={sorted(seeds)}")
        return f"ChaosSpec(seed={self.seed}, {', '.join(parts) or 'clean'})"


def transient_decisions(
    spec: ChaosSpec, attempt: int, jobs: Sequence[tuple[int, int]]
) -> tuple[bool, bool, bool]:
    """The (kill, hang, delay) draw for one batch attempt.

    Pure and parent-computable: the RNG is seeded from integers only
    (spec seed, attempt, the flattened job rows), so ints hash
    identically in every process and the same attempt of the same batch
    draws the same fate wherever it is evaluated — tests predict
    worker-side behaviour without running a worker.  Three draws are
    always consumed, in a fixed order, so enabling one rate never
    shifts another's stream.
    """
    key = (spec.seed, attempt) + tuple(
        part for job in jobs for part in job
    )
    rng = random.Random(hash(key))
    kill = rng.random() < spec.kill_rate
    hang = rng.random() < spec.hang_rate
    delay = rng.random() < spec.delay_rate
    return kill, hang, delay


def _poison_kind(spec: ChaosSpec, seed: int) -> str | None:
    """Which poison (if any) spec plants in the cells of ``seed``."""
    if seed in spec.kill_seeds:
        return "kill"
    if seed in spec.hang_seeds:
        return "hang"
    if seed in spec.raise_seeds:
        return "raise"
    return None


def run_chaos_batch(
    spec: ChaosSpec,
    attempt: int,
    table: Sequence["Variant"],
    jobs: Sequence[tuple[int, int]],
) -> list["TestRunResult"]:
    """Worker-side entry point: inject, then run the batch normally.

    Module-level so it pickles to workers.  Faults fire *before* any
    job executes — a killed or hung batch computes nothing, which is
    the worst case the parent's resubmit/bisect machinery must handle
    (partial batch results are never observable either way, since one
    future carries the whole batch).  A clean draw falls through to
    :func:`~repro.ptest.pool.run_table_batch` untouched, so chaos-on
    results are byte-for-byte the chaos-off results.
    """
    from repro.ptest.pool import run_table_batch

    kill, hang, delay = transient_decisions(spec, attempt, jobs)
    if kill:
        os._exit(CHAOS_EXIT_STATUS)
    if hang:
        time.sleep(spec.hang_s)
    if delay:
        time.sleep(spec.delay_s)
    if spec.has_poison:
        for _position, seed in jobs:
            kind = _poison_kind(spec, seed)
            if kind == "kill":
                os._exit(CHAOS_EXIT_STATUS)
            elif kind == "hang":
                time.sleep(spec.hang_s)
            elif kind == "raise":
                raise ChaosInjectedError(
                    f"chaos poison cell seed={seed} (injected, not a "
                    "workload bug)"
                )
    return run_table_batch(table, jobs)
