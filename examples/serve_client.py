#!/usr/bin/env python
"""Campaign-as-a-service: one warm server, many concurrent clients.

Starts a ``repro serve`` instance on a background thread, then fires
three concurrent clients at it, each submitting the same serializable
:class:`~repro.ptest.spec.CampaignSpec` (a dining-philosophers grid on
two workers).  The server multiplexes all three onto one shared warm
worker pool — ``status()`` shows a single pool spawn — and every
client's rounds come back **bit-identical** to running the spec
directly in this process, which the script cross-checks.

This is the in-process flavour; `repro serve` / `repro submit` are the
same machinery across real process boundaries:

    repro serve --port 7341 &
    repro campaign philosophers --grid count=2,3 --dump-spec spec.json
    repro submit --spec spec.json --port 7341

Run:  python examples/serve_client.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.client import Client
from repro.ptest.pool import shutdown_pools
from repro.ptest.spec import CampaignSpec, execute_spec
from repro.serve import start_server_thread

CLIENTS = 3

SPEC = CampaignSpec(
    scenario="philosophers",
    params=(("count", "2"),),
    grid=(("hold_steps", ("3", "5")),),
    seeds=(0, 1, 2),
    workers=2,
    batch_size=2,
)


def detections(outcome) -> int:
    return sum(round_.total_detections for round_ in outcome.rounds)


def main() -> None:
    print(f"spec: {SPEC.to_json()}")

    # The reference: the same spec, executed directly in this process.
    direct = execute_spec(SPEC)
    print(
        f"direct run: {len(direct.final_rows)} row(s), "
        f"{detections(direct)} detection(s)"
    )

    handle = start_server_thread()
    print(f"server: listening on {handle.host}:{handle.port}")
    try:
        outcomes = [None] * CLIENTS

        def submit(index: int) -> None:
            with Client(*handle.address) as client:
                outcomes[index] = client.run(SPEC)

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for index, remote in enumerate(outcomes):
            match = remote is not None and remote.rounds == direct.rounds
            queued = " (queued)" if remote and remote.queued else ""
            print(
                f"client {index}: {detections(remote)} detection(s)"
                f"{queued}, bit-identical to direct: {match}"
            )

        with Client(*handle.address) as client:
            status = client.status()
        pools = status["pools"]
        print(
            f"server pools: {pools} "
            f"(served {status['served']} request(s))"
        )
        spawns_ok = all(p["spawns"] == 1 for p in pools)
        print(f"one pool spawn per worker count: {spawns_ok}")
        identical = all(
            remote is not None and remote.rounds == direct.rounds
            for remote in outcomes
        )
        print(f"all clients bit-identical: {identical}")
    finally:
        handle.close()
        shutdown_pools()
    print("server drained and stopped")


if __name__ == "__main__":
    main()
