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
from hypothesis import assume, given, settings, strategies as st

from repro.client import Client, ServerError
from repro.errors import ConfigError
from repro.ptest.adaptive import RoundObservation
from repro.ptest.pool import MAX_WORKERS, shutdown_pools
from repro.ptest.spec import CampaignSpec, execute_spec, round_to_dict
from repro.serve import MAX_LINE_BYTES, PROTOCOL_VERSION, start_server_thread
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
    assert remote.final_rows == direct.final_rows
    assert [r.detections for r in remote.rounds] == [
        r.detections for r in direct.rounds
    ]
    # The done frame's pool ids land on the rebuilt rounds.
    assert len(remote.pool_ids) == len(remote.rounds)
    assert all(isinstance(pool_id, int) for pool_id in remote.pool_ids)


@pytest.mark.parametrize(
    "done", [{"pool_ids": [7]}, {}], ids=["short", "missing"]
)
def test_done_frame_pool_ids_never_drop_a_round(monkeypatch, done):
    frames = [
        {"type": "round", "round": round_to_dict(RoundObservation(index, (), ()))}
        for index in range(2)
    ]
    frames.append({"type": "done", **done})
    client = Client("127.0.0.1", 1)
    monkeypatch.setattr(client, "stream", lambda spec, stream_cells: frames)
    remote = client.run(PHIL_SPEC)
    assert [r.index for r in remote.rounds] == [0, 1]
    assert remote.pool_ids == ((7, None) if done else (None, None))


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


def _adapt_spec(**field):
    return {"spec": {"scenario": "philosophers", "mode": "adapt", **field}}


@pytest.mark.parametrize(
    ("request_", "message"),
    [
        (_adapt_spec(pipeline=5), "pipeline must be"),
        (_adapt_spec(policy=[1]), "policy must be"),
        (_adapt_spec(checkpoint=5), "checkpoint must be"),
        ({}, "must be a JSON object"),
        ({"spec": {}}, "'scenario'"),
        ({"spec": []}, "must be a JSON object, got list"),
        (
            {
                "spec": {
                    "scenario": "clean_spin",
                    "seeds": [0],
                    "workers": MAX_WORKERS + 1,
                }
            },
            "MAX_WORKERS",
        ),
        (
            {"spec": {"scenario": "philosophers", "mode": "run", "seeds": [3]}},
            "mode must be one of campaign, adapt, got 'run'",
        ),
    ],
    ids=[
        "pipeline",
        "policy",
        "checkpoint",
        "no-spec",
        "empty-spec",
        "list-spec",
        "workers-over-cap",
        "run-mode",
    ],
)
def test_mistyped_spec_fields_get_one_config_error_frame(server, request_, message):
    with socket.create_connection(server.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        request = {"op": "run", "id": "r1", **request_}
        sock.sendall(json.dumps(request).encode() + b"\n")
        frame = json.loads(reader.readline())
        assert (frame["type"], frame["id"], frame["kind"]) == (
            "error",
            "r1",
            "config",
        )
        assert message in frame["message"]
        # Exactly one frame: the next line answers the next request.
        sock.sendall(json.dumps({"op": "ping", "id": "p1"}).encode() + b"\n")
        assert json.loads(reader.readline())["type"] == "pong"


def test_malformed_json_keeps_connection_alive(server, caplog):
    # The second line nests deeper than the JSON decoder's recursion
    # limit, well under MAX_LINE_BYTES.
    deep = b"[" * 200_000
    with socket.create_connection(server.address, timeout=30) as sock:
        reader = sock.makefile("rb")
        for index, line in enumerate((b"{this is not json", deep)):
            sock.sendall(line + b"\n")
            frame = json.loads(reader.readline())
            assert frame["type"] == "error"
            assert frame["kind"] == "protocol"
            # Same connection still serves well-formed requests.
            ping = {"op": "ping", "id": f"p{index}"}
            sock.sendall(json.dumps(ping).encode() + b"\n")
            assert json.loads(reader.readline())["type"] == "pong"
    assert "Unhandled exception" not in caplog.text


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


#: Finite JSON, as a client can put it on the wire, plus the strings
#: that reach deeper spec validation (registered and unknown scenario
#: names, a policy name).
FINITE_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["philosophers", "clean_spin", "no_such_scenario", "replay"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
SPEC_KEYS = ("scenario", "mode", "seeds", "params", "grid", "rounds", "policy")
OPS = ("run", "ping", "status", "shutdown")


def _request(op, **fields):
    return st.fixed_dictionaries(
        {"op": op}, optional={"id": FINITE_JSON, **fields}
    ).map(lambda message: json.dumps(message).encode())


#: One input line of each kind the server must answer with one reply.
SERVER_LINES = st.one_of(
    st.binary(min_size=1, max_size=40).filter(
        lambda line: b"\n" not in line and line.strip()
    ),
    FINITE_JSON.filter(lambda value: not isinstance(value, dict)).map(
        lambda value: json.dumps(value).encode()
    ),
    st.dictionaries(
        st.text(max_size=4).filter(lambda key: key != "op"),
        FINITE_JSON,
        max_size=3,
    ).map(lambda message: json.dumps(message).encode()),
    _request(FINITE_JSON.filter(lambda op: not isinstance(op, str))),
    _request(st.text(max_size=8).filter(lambda op: op not in OPS)),
    _request(st.sampled_from(["ping", "status"])),
    _request(
        st.just("run"),
        spec=FINITE_JSON
        | st.dictionaries(st.sampled_from(SPEC_KEYS), FINITE_JSON, max_size=4)
        | st.fixed_dictionaries(
            {"scenario": st.text(max_size=8)},
            optional={
                "mode": st.sampled_from(["run", "campaign", "adapt"]),
                "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=3),
            },
        ),
        stream_cells=st.booleans(),
    ),
)


def _message(line: bytes) -> dict | None:
    """``line`` as the server reads it, when that is a JSON object."""
    try:
        message = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return message if isinstance(message, dict) else None


def _would_execute(message: dict | None) -> bool:
    """Whether ``message`` would drain the server or run cells."""
    if message is None:
        return False
    if message.get("op") == "shutdown":
        return True
    if message.get("op") != "run":
        return False
    try:
        spec = CampaignSpec.from_dict(message.get("spec"))
    except ConfigError:
        return False
    return spec.scenario in REGISTRY


def test_every_line_gets_exactly_one_well_formed_reply():
    """Whatever one line carries, the server answers it with exactly one
    terminal frame (``pong``, ``status``, ``error`` or ``done``), after
    only progress frames of the same request, and the connection stays
    usable."""
    terminal = {"pong", "status", "error", "done"}
    progress = {"accepted", "cell", "round"}
    with start_server_thread() as handle, socket.create_connection(
        handle.address, timeout=30
    ) as sock, sock.makefile("rb") as reader:

        def read_frame() -> dict:
            frame = json.loads(reader.readline())
            assert isinstance(frame, dict) and isinstance(frame.get("type"), str)
            return frame

        @settings(max_examples=200, deadline=None)
        @given(line=SERVER_LINES)
        def check(line: bytes) -> None:
            message = _message(line)
            assume(not _would_execute(message))
            sock.sendall(line + b"\n")
            frames = [read_frame()]
            while frames[-1]["type"] not in terminal:
                assert frames[-1]["type"] in progress, frames
                frames.append(read_frame())
            assert len({json.dumps(frame["id"]) for frame in frames}) == 1, frames
            if message is not None and message.get("id") is not None:
                assert frames[-1]["id"] == message["id"], frames
            sock.sendall(b'{"op": "ping", "id": "after"}\n')
            assert read_frame() == {
                "type": "pong",
                "id": "after",
                "version": PROTOCOL_VERSION,
            }

        check()


@pytest.fixture()
def slow_scenario():
    name = _register(
        "serve_slow_timeout",
        lambda seed: _Slow(build_scenario("clean_spin", seed, tasks=2)),
    )
    yield name
    _unregister(name)


def test_read_timeout_is_a_server_error(slow_scenario, server):
    spec = CampaignSpec(scenario=slow_scenario, seeds=(0,))
    with Client(*server.address, timeout=0.2) as client:
        with pytest.raises(ServerError) as excinfo:
            client.run(spec)
    assert excinfo.value.kind == "timeout"
    assert "0.2s read timeout" in str(excinfo.value)


def test_submit_read_timeout_exits_2_without_traceback(
    slow_scenario, server, capsys
):
    from repro.cli import main

    host, port = server.address
    argv = ["submit", slow_scenario, "--seeds", "1", "--host", host]
    argv += ["--port", str(port), "--timeout", "0.2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "no reply from repro server" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "connect_timeout",
    [float("nan"), float("inf"), -1.0],
    ids=["nan", "inf", "negative"],
)
def test_bad_connect_timeout_is_a_config_error(connect_timeout):
    # Construction only: connect() retries until a deadline that a NaN
    # or infinite connect_timeout never reaches.
    with pytest.raises(
        ConfigError, match="connect_timeout must be a non-negative, finite"
    ):
        Client("127.0.0.1", 1, connect_timeout=connect_timeout)
    assert Client("127.0.0.1", 1, connect_timeout=0).connect_timeout == 0


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
        [remote_round], [direct_round] = remote.rounds, direct.rounds
        assert remote_round.quarantine is not None
        assert [(c.seed, c.kind) for c in remote_round.quarantine.cells] == [
            (c.seed, c.kind) for c in direct_round.quarantine.cells
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

        def stream_slow() -> None:
            with Client(*handle.address) as streamer:
                for frame in streamer.stream(slow):
                    if frame["type"] == "accepted":
                        accepted.set()

        thread = threading.Thread(target=stream_slow)
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
