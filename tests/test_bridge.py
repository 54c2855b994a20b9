"""Tests for the bridge protocol codec and endpoints."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.bridge.bridge import build_bridge
from repro.bridge.protocol import (
    CommandFrame,
    MAX_PRIORITY,
    MAX_TID,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
)
from repro.errors import BridgeError
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.services import (
    ServiceCode,
    ServiceRequest,
    ServiceResult,
    ServiceStatus,
)
from repro.sim.mailbox import MailboxBank
from repro.workloads.registry import build_scenario, scenario_names


class TestProtocolCodec:
    def test_roundtrip_simple(self):
        request = ServiceRequest(
            service=ServiceCode.TC, priority=5, program="qsort", issuer=2
        )
        word, frame = encode_request(request, sequence=17)
        decoded = decode_request(word, frame)
        assert decoded.service is ServiceCode.TC
        assert decoded.priority == 5
        assert decoded.program == "qsort"
        assert decoded.issuer == 2
        assert decoded.sequence == 17

    def test_roundtrip_no_optionals(self):
        request = ServiceRequest(service=ServiceCode.TY)
        word, frame = encode_request(request, sequence=1)
        decoded = decode_request(word, frame)
        assert decoded.target is None
        assert decoded.priority is None

    def test_target_zero_is_representable(self):
        request = ServiceRequest(service=ServiceCode.TD, target=0)
        word, frame = encode_request(request, sequence=1)
        assert decode_request(word, frame).target == 0

    def test_limits_enforced(self):
        with pytest.raises(BridgeError):
            encode_request(
                ServiceRequest(service=ServiceCode.TD, target=MAX_TID + 1), 1
            )
        with pytest.raises(BridgeError):
            encode_request(
                ServiceRequest(
                    service=ServiceCode.TC, priority=MAX_PRIORITY + 1
                ),
                1,
            )

    def test_sequence_mismatch_detected(self):
        request = ServiceRequest(service=ServiceCode.TD, target=1)
        word, _frame = encode_request(request, sequence=3)
        with pytest.raises(BridgeError):
            decode_request(word, CommandFrame(sequence=4, program=None, issuer=None))

    def test_result_roundtrip(self):
        request = ServiceRequest(service=ServiceCode.TC, priority=1, sequence=9)
        result = ServiceResult(
            request=request, status=ServiceStatus.OK, value=12
        )
        word = encode_result(result, sequence=9)
        status, sequence, value = decode_result(word)
        assert status is ServiceStatus.OK
        assert sequence == 9
        assert value == 12

    def test_result_without_value(self):
        request = ServiceRequest(service=ServiceCode.TY, sequence=2)
        result = ServiceResult(
            request=request, status=ServiceStatus.NO_RUNNING_TASK
        )
        _status, _seq, value = decode_result(encode_result(result, 2))
        assert value is None

    @given(
        service=st.sampled_from(list(ServiceCode)),
        target=st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_TID)),
        priority=st.one_of(
            st.none(), st.integers(min_value=0, max_value=MAX_PRIORITY)
        ),
        sequence=st.integers(min_value=0, max_value=1000),
        program=st.one_of(st.none(), st.text(max_size=12)),
    )
    @settings(max_examples=200, deadline=None)
    def test_request_roundtrip_property(
        self, service, target, priority, sequence, program
    ):
        request = ServiceRequest(
            service=service, target=target, priority=priority, program=program
        )
        word, frame = encode_request(request, sequence)
        decoded = decode_request(word, frame)
        assert decoded.service is service
        assert decoded.target == target
        assert decoded.priority == priority
        assert (decoded.program or None) == (program or None)


def make_pair():
    bank = MailboxBank.omap5912()
    kernel = PCoreKernel(config=KernelConfig())
    master, slave = build_bridge(bank, kernel)
    return bank, kernel, master, slave


class TestBridgeEndpoints:
    def test_command_flows_to_kernel_and_reply_returns(self):
        _bank, kernel, master, slave = make_pair()
        seq = master.issue(ServiceRequest(service=ServiceCode.TC, priority=3))
        assert seq is not None
        for tick in range(4):
            slave.step(tick)
        replies = master.pump()
        assert len(replies) == 1
        assert replies[0].ok
        assert replies[0].request.sequence == seq
        assert len(kernel.tasks) == 1

    def test_mailbox_backpressure_rejects_issue(self):
        bank, _kernel, master, _slave = make_pair()
        capacity = bank["arm2dsp_cmd"].capacity
        for _ in range(capacity):
            assert master.issue(ServiceRequest(service=ServiceCode.TY)) is not None
        assert master.issue(ServiceRequest(service=ServiceCode.TY)) is None

    def test_outstanding_age_tracks_oldest(self):
        _bank, _kernel, master, _slave = make_pair()
        assert master.oldest_outstanding_age() is None
        master.now = 10
        master.issue(ServiceRequest(service=ServiceCode.TY))
        master.now = 50
        assert master.oldest_outstanding_age() == 40

    def test_crashed_kernel_stops_answering(self):
        _bank, kernel, master, slave = make_pair()
        kernel.panic("dead")
        master.issue(ServiceRequest(service=ServiceCode.TC, priority=1))
        for tick in range(10):
            slave.step(tick)
        assert master.pump() == []
        assert master.outstanding  # the command is never answered

    def test_reply_backlog_flushes_when_mailbox_frees(self):
        bank, kernel, master, slave = make_pair()
        reply_box = bank["dsp2arm_reply"]
        # Fill the reply mailbox with junk so kernel replies must queue.
        from repro.sim.mailbox import MailboxMessage

        while reply_box.post(MailboxMessage(word=0, payload=None)):
            pass
        # Note: poll() will raise on the junk payloads, so drain manually
        # after the kernel has queued its reply in the adapter backlog.
        seq = master.issue(ServiceRequest(service=ServiceCode.TC, priority=1))
        for tick in range(4):
            slave.step(tick)
        assert len(slave._reply_backlog) == 1
        list(reply_box.drain())
        slave.step(5)
        replies = master.pump()
        assert [r.request.sequence for r in replies] == [seq]

    def test_adapter_halts_with_kernel(self):
        _bank, kernel, _master, slave = make_pair()
        assert not slave.is_halted()
        kernel.panic("x")
        assert slave.is_halted()


@pytest.mark.parametrize("name", scenario_names())
def test_finished_run_leaves_no_cyclic_garbage(name):
    """A kernel -> adapter back-reference once made every finished
    platform (kernel, tracer, TCBs, task generators, ...) a reference
    cycle that only a full collection frees."""
    build_scenario(name, 1).run()  # warm the per-process caches
    gc.collect()
    gc.disable()
    try:
        build_scenario(name, 0).run()
        assert gc.collect() == 0
    finally:
        gc.enable()
