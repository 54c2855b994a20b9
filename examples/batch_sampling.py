#!/usr/bin/env python
"""Batch sampling: many seeded pattern walks as one vectorized sweep.

Demonstrates the numpy fast path introduced for campaign-scale runs:

1. ``BatchSampler`` draws one pattern per seed in lockstep and the
   result is *bit-identical* to independent ``PatternSampler`` walks —
   verified here pattern by pattern, on the fast path and the scalar
   fallback alike.
2. Recorded wait-for-graph deltas (``record_wait_deltas=True``) replay
   through the batched deadlock screen, re-confirming the reported
   cycle offline.

Run:  python examples/batch_sampling.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.automata.batch import BatchSampler, numpy_available
from repro.automata.compiled import CompiledPFA
from repro.automata.sampling import PatternSampler
from repro.ptest.batchdetect import audit_deadlocks
from repro.ptest.detector import BugDetector
from repro.ptest.pcore_model import pcore_pfa
from repro.workloads.scenarios import philosophers_case2


def main() -> None:
    print("batch sampling demo")
    print(f"  numpy fast path available: {numpy_available()}")

    # -- 1. lockstep batch == N scalar walks, bit for bit -------------
    compiled = CompiledPFA.from_pfa(pcore_pfa())
    seeds = [(1 << 40) + 977 * index for index in range(256)]
    batch = BatchSampler(compiled, seeds)
    started = time.perf_counter()
    drawn = batch.sample(8)
    elapsed = time.perf_counter() - started
    scalar = [
        PatternSampler(compiled, seed=seed).sample(8) for seed in seeds
    ]
    assert drawn == scalar, "batch must equal the scalar walks exactly"
    print(
        f"  {len(seeds)} patterns in one lockstep sweep "
        f"({elapsed * 1e3:.1f} ms, used_numpy={batch.used_numpy}): "
        f"bit-identical to {len(seeds)} scalar samplers"
    )
    print(f"    cell 0: {' -> '.join(drawn[0].symbols)}")

    fallback = BatchSampler(compiled, seeds, use_numpy=False)
    assert fallback.sample(8) == [
        PatternSampler(compiled, seed=seed).sample(8) for seed in seeds
    ]
    print("    scalar fallback (use_numpy=False): same patterns")

    # -- 2. recorded wait-graph deltas replay through the batch screen
    test = philosophers_case2(seed=0, op="cyclic")
    test.config = replace(test.config, record_wait_deltas=True)
    result = test.run()
    verdict = result.summary().split(":")[0]
    print(
        f"\n  philosophers run: {verdict}, "
        f"{len(result.wait_deltas)} wait-graph delta(s) recorded"
    )
    snapshots = [edges for _tick, edges in result.wait_deltas]
    cycles = BugDetector.sweep_batch(snapshots)
    for (tick, _edges), tids in zip(result.wait_deltas, cycles):
        shown = "acyclic" if tids is None else f"cycle tids={tids}"
        print(f"    tick {tick}: {shown}")
    audit = audit_deadlocks([result])
    print(
        f"  audit: {audit.confirmed}/{audit.runs} reported deadlock(s) "
        f"re-confirmed from recorded deltas "
        f"(consistent={audit.consistent})"
    )


if __name__ == "__main__":
    main()
