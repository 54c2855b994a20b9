"""Client/server round trip: ``repro serve`` + ``repro.client``.

The tentpole invariant, exercised end to end over real sockets: rows
and detections received through the server are **bit-identical** to a
direct :func:`~repro.ptest.spec.execute_spec` of the same spec, at any
combination of concurrent clients, workers and batch size.  Plus the
service contracts around it: admission control queues (never rejects),
structured error frames for config mistakes and malformed JSON, pool
reuse across requests, and graceful drain on shutdown.

The server runs in-process on a background thread, so dynamically
registered scenarios are visible to it and no subprocess orchestration
is needed; ``examples/serve_client.py`` covers the separate-process
flow.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.client import Client, ServerError
from repro.ptest.pool import shutdown_pools
from repro.ptest.spec import CampaignSpec, execute_spec
from repro.serve import MAX_LINE_BYTES, start_server_thread
from repro.workloads.registry import REGISTRY, build_scenario


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    yield
    shutdown_pools()


@pytest.fixture()
def server():
    handle = start_server_thread()
    yield handle
    handle.close()


def _register(name, builder):
    """Register a test-local scenario; caller must pop it afterwards
    (the registry refuses silent replacement by design)."""
    REGISTRY.register(name, builder)
    return name


def _unregister(name):
    REGISTRY._specs.pop(name, None)
    REGISTRY.version += 1


PHIL_SPEC = CampaignSpec(
    scenario="philosophers",
    params=(("count", "2"),),
    grid=(("hold_steps", ("3", "5")),),
    seeds=(0, 1),
    workers=2,
    batch_size=2,
)


# -- bit-identity ------------------------------------------------------


def test_single_client_matches_direct_execution(server):
    direct = execute_spec(PHIL_SPEC)
    with Client(*server.address) as client:
        remote = client.run(PHIL_SPEC)
    assert remote.rounds == direct.rounds
    assert list(remote.rows) == list(direct.rows)
    assert remote.total_detections == direct.total_detections


def test_concurrent_clients_bit_identical(server):
    direct = execute_spec(PHIL_SPEC)
    results: list = [None] * 3
    errors: list = []

    def one(index: int) -> None:
        try:
            with Client(*server.address) as client:
                results[index] = client.run(PHIL_SPEC)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors
    for remote in results:
        assert remote is not None
        assert remote.rounds == direct.rounds


def test_serial_spec_bit_identical(server):
    spec = CampaignSpec(
        scenario="philosophers", params=(("count", "2"),), seeds=(0, 1)
    )
    direct = execute_spec(spec)
    with Client(*server.address) as client:
        remote = client.run(spec)
    assert remote.rounds == direct.rounds


def test_adapt_spec_bit_identical(server):
    spec = CampaignSpec(
        scenario="philosophers",
        mode="adapt",
        params=(("count", "2"),),
        grid=(("hold_steps", ("3", "5")),),
        seeds=(0, 1),
        policy="grid_zoom",
        rounds=2,
    )
    direct = execute_spec(spec)
    with Client(*server.address) as client:
        remote = client.run(spec)
    assert remote.rounds == direct.rounds
    assert remote.schedule == "policy=grid_zoom"
    assert remote.rounds_budget == direct.rounds_budget


def test_stream_cells_submission_order(server):
    with Client(*server.address) as client:
        remote = client.run(PHIL_SPEC, stream_cells=True)
    # One cell frame per (variant, seed), delivered in submission
    # order — the executor's determinism contract, preserved over the
    # socket even with workers=2 completing out of order.
    expected = [
        ("philosophers[hold_steps=3]", 0),
        ("philosophers[hold_steps=3]", 1),
        ("philosophers[hold_steps=5]", 0),
        ("philosophers[hold_steps=5]", 1),
    ]
    assert [(c.variant, c.seed) for c in remote.cells] == expected


# -- pool reuse --------------------------------------------------------


def test_one_pool_spawn_per_worker_count(server):
    with Client(*server.address) as client:
        client.run(PHIL_SPEC)
        client.run(PHIL_SPEC)
        status = client.status()
    pools = [p for p in status["pools"] if p["workers"] == 2]
    assert len(pools) == 1
    assert pools[0]["spawns"] == 1  # second request reused the pool


# -- admission control -------------------------------------------------


def test_admission_queues_instead_of_rejecting():
    name = _register(
        "serve_slow_spin",
        lambda seed: _Slow(build_scenario("clean_spin", seed, tasks=2)),
    )
    handle = start_server_thread(max_concurrent=1)
    try:
        slow = CampaignSpec(scenario="serve_slow_spin", seeds=(0,))
        first_accepted = threading.Event()
        first_done: list = []

        def occupy() -> None:
            with Client(*handle.address) as client:
                for frame in client.stream(slow):
                    if frame["type"] == "accepted":
                        first_accepted.set()
                    if frame["type"] == "done":
                        first_done.append(frame)

        thread = threading.Thread(target=occupy)
        thread.start()
        assert first_accepted.wait(30)
        with Client(*handle.address) as client:
            second = client.run(slow)
        thread.join(60)
        # The second request queued behind the busy slot — and still
        # completed; queueing is never rejection.
        assert second.queued is True
        assert second.rounds
        assert first_done
    finally:
        _unregister(name)
        handle.close()


class _Slow:
    """Wrap a scenario so each run holds its admission slot a while."""

    def __init__(self, inner):
        self.inner = inner

    def run(self):
        time.sleep(1.0)
        return self.inner.run()


# -- error frames ------------------------------------------------------


def test_unknown_scenario_is_config_error_frame(server):
    with Client(*server.address) as client:
        with pytest.raises(ServerError) as excinfo:
            client.run(CampaignSpec(scenario="no_such_scenario"))
        assert excinfo.value.kind == "config"
        assert excinfo.value.exit_code == 2
        # The connection survives a failed request.
        assert client.ping()


def test_invalid_spec_payload_is_config_error_frame(server):
    with Client(*server.address) as client:
        client._send(
            {
                "op": "run",
                "id": "x1",
                "spec": {"scenario": "philosophers", "workers": 0},
            }
        )
        frame = client._recv()
    assert frame["type"] == "error"
    assert frame["kind"] == "config"
    assert "workers" in frame["message"]


def test_malformed_json_keeps_connection_alive(server):
    with socket.create_connection(server.address, timeout=30) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"{this is not json\n")
        frame = json.loads(reader.readline())
        assert frame["type"] == "error"
        assert frame["kind"] == "protocol"
        # Same connection still serves well-formed requests.
        sock.sendall(json.dumps({"op": "ping", "id": "p1"}).encode() + b"\n")
        assert json.loads(reader.readline())["type"] == "pong"


def test_oversized_frames_end_in_an_error_frame(server, caplog):
    """Lines up to MAX_LINE_BYTES are served; a longer one gets one
    protocol error frame, then the connection closes cleanly."""
    with Client(*server.address) as client:
        client._send({"op": "ping", "id": "p1", "pad": "x" * 100_000})
        assert client._recv()["type"] == "pong"
        # A 20,000-seed spec (~129 KB) is over asyncio's default limit.
        wide = CampaignSpec(scenario="no_such_scenario", seeds=range(20_000))
        assert len(wide.to_json()) > 1 << 16
        with pytest.raises(ServerError) as excinfo:
            client.run(wide)
        assert excinfo.value.kind == "config"
    seeds = range(MAX_LINE_BYTES // 6)
    spec = CampaignSpec(scenario="philosophers", seeds=seeds)
    assert len(spec.to_json()) > MAX_LINE_BYTES
    with Client(*server.address) as client:
        with pytest.raises(ServerError) as excinfo:
            client.run(spec)
        assert excinfo.value.kind == "protocol"
        assert str(MAX_LINE_BYTES) in str(excinfo.value)
    with Client(*server.address) as client:
        assert client.ping()
    assert "Unhandled exception" not in caplog.text


def test_quarantined_cells_survive_the_wire(server):
    name = _register("serve_poison", lambda seed: _Poison(seed))
    try:
        spec = CampaignSpec(
            scenario="serve_poison", seeds=(0, 1, 2), quarantine=True
        )
        direct = execute_spec(spec)
        with Client(*server.address) as client:
            remote = client.run(spec)
        assert remote.rounds == direct.rounds
        assert remote.quarantine is not None
        assert [(c.seed, c.kind) for c in remote.quarantine.cells] == [
            (c.seed, c.kind) for c in direct.quarantine.cells
        ]
    finally:
        _unregister(name)


class _Poison:
    def __init__(self, seed):
        self.seed = seed

    def run(self):
        if self.seed == 1:
            raise RuntimeError("poison cell")
        return build_scenario("clean_spin", self.seed, tasks=2).run()


# -- shutdown ----------------------------------------------------------


def test_shutdown_drains_in_flight_requests():
    name = _register(
        "serve_slow_drain",
        lambda seed: _Slow(build_scenario("clean_spin", seed, tasks=2)),
    )
    handle = start_server_thread()
    try:
        slow = CampaignSpec(scenario="serve_slow_drain", seeds=(0,))
        outcome_box: list = []
        accepted = threading.Event()

        def run_one() -> None:
            with Client(*handle.address) as client:
                for frame in client.stream(slow):
                    if frame["type"] == "accepted":
                        accepted.set()
                    if frame["type"] == "done":
                        outcome_box.append(frame)

        thread = threading.Thread(target=run_one)
        thread.start()
        assert accepted.wait(30)
        with Client(*handle.address) as client:
            ack = client.shutdown_server()
        assert ack["type"] == "shutdown"
        thread.join(60)
        # In-flight request completed despite the drain...
        assert outcome_box and outcome_box[0]["rounds"] == 1
        # ...and the listener is now gone.
        handle.close()
        with pytest.raises(ServerError, match="cannot connect"):
            Client(
                *handle.address, connect_timeout=0.3
            ).ping()
    finally:
        _unregister(name)


def test_new_requests_rejected_while_draining():
    name = _register(
        "serve_slow_reject",
        lambda seed: _Slow(build_scenario("clean_spin", seed, tasks=2)),
    )
    handle = start_server_thread()
    try:
        slow = CampaignSpec(scenario="serve_slow_reject", seeds=(0,))
        accepted = threading.Event()
        thread = threading.Thread(
            target=lambda: [
                accepted.set()
                for frame in Client(*handle.address).stream(slow)
                if frame["type"] == "accepted"
            ]
        )
        thread.start()
        assert accepted.wait(30)
        with Client(*handle.address) as client:
            client.shutdown_server()
            with pytest.raises(ServerError) as excinfo:
                client.run(CampaignSpec(scenario="philosophers"))
            assert excinfo.value.kind == "shutdown"
        thread.join(60)
    finally:
        _unregister(name)
        handle.close()
