"""Tests for mailboxes, RNG streams, tracer and the SoC."""

from __future__ import annotations

import pytest

from repro.errors import MailboxError, SimulationError
from repro.sim.mailbox import (
    DEFAULT_MAILBOX_ROLES,
    Mailbox,
    MailboxBank,
    MailboxMessage,
)
from repro.sim.rng import RngStreams
from repro.sim.soc import DualCoreSoC, SoCConfig
from repro.sim.trace import TraceEvent, Tracer


class TestMailbox:
    def test_fifo_order(self):
        box = Mailbox(name="m", capacity=4)
        for word in (1, 2, 3):
            assert box.post(MailboxMessage(word=word))
        assert [box.poll().word for _ in range(3)] == [1, 2, 3]
        assert box.poll() is None

    def test_reject_policy_returns_false_when_full(self):
        box = Mailbox(name="m", capacity=1)
        assert box.post(MailboxMessage(word=1))
        assert not box.post(MailboxMessage(word=2))
        assert box.dropped == 1
        assert len(box) == 1

    def test_word_must_be_u32(self):
        with pytest.raises(MailboxError):
            MailboxMessage(word=2**32)
        with pytest.raises(MailboxError):
            MailboxMessage(word=-1)

    def test_peek_does_not_consume(self):
        box = Mailbox(name="m")
        box.post(MailboxMessage(word=9))
        assert box.peek().word == 9
        assert len(box) == 1

    def test_high_watermark(self):
        box = Mailbox(name="m", capacity=4)
        for word in range(3):
            box.post(MailboxMessage(word=word))
        box.poll()
        assert box.high_watermark == 3

    def test_drain(self):
        box = Mailbox(name="m", capacity=4)
        for word in range(3):
            box.post(MailboxMessage(word=word))
        assert [m.word for m in box.drain()] == [0, 1, 2]
        assert box.empty

    def test_capacity_validation(self):
        with pytest.raises(MailboxError):
            Mailbox(name="m", capacity=0)


class TestMailboxBank:
    def test_omap_roles(self):
        bank = MailboxBank.omap5912()
        assert set(bank.roles()) == set(DEFAULT_MAILBOX_ROLES)
        assert len(bank.roles()) == 4  # the OMAP5912's four mailboxes

    def test_unknown_role_raises(self):
        bank = MailboxBank.omap5912()
        with pytest.raises(MailboxError):
            bank["nonexistent"]

    def test_stats_shape(self):
        bank = MailboxBank.omap5912()
        bank["arm2dsp_cmd"].post(MailboxMessage(word=1))
        stats = bank.stats()
        assert stats["arm2dsp_cmd"]["posted"] == 1
        assert stats["dsp2arm_reply"]["posted"] == 0


class TestRngStreams:
    def test_streams_are_reproducible(self):
        a = RngStreams(master_seed=1).stream("merger").random()
        b = RngStreams(master_seed=1).stream("merger").random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RngStreams(master_seed=1)
        merger_draw = streams.stream("merger").random()
        # Drawing from another stream must not disturb the first.
        fresh = RngStreams(master_seed=1)
        fresh.stream("sampler").random()
        assert fresh.stream("merger").random() == merger_draw

    def test_different_names_differ(self):
        streams = RngStreams(master_seed=1)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_spawn_derives_child(self):
        child_a = RngStreams(master_seed=1).spawn("run0")
        child_b = RngStreams(master_seed=1).spawn("run0")
        assert child_a.master_seed == child_b.master_seed
        assert RngStreams(1).spawn("run1").master_seed != child_a.master_seed

    def test_fresh_seed_stable(self):
        assert RngStreams(5).fresh_seed("x") == RngStreams(5).fresh_seed("x")


class TestTracer:
    def test_records_and_filters(self):
        tracer = Tracer()
        tracer.record(1, "master", "command", seq=1)
        tracer.record(2, "slave", "task", tid=3)
        tracer.record(3, "master", "command", seq=2)
        assert len(tracer.filter(category="command")) == 2
        assert len(tracer.filter(core="slave")) == 1
        assert len(tracer.filter(since=2)) == 2

    def test_ring_discards_oldest(self):
        for capacity in (1, 2):
            tracer = Tracer(capacity=capacity)
            for index in range(5):
                tracer.record(index, "x", "c", i=index)
            assert (tracer.recorded, tracer.discarded) == (5, 5 - capacity)
            kept = [e.payload["i"] for e in tracer.events]
            assert kept == [3, 4][-capacity:]
            assert tracer.tail(50) == list(tracer.events)

    def test_tail_and_dump(self):
        tracer = Tracer()
        for index in range(10):
            tracer.record(index, "x", "c", i=index)
        tail = tracer.tail(3)
        assert [e.payload["i"] for e in tail] == [7, 8, 9]
        dumped = tracer.dump(tail)
        assert dumped[0]["i"] == 7
        assert dumped[0]["category"] == "c"

    def test_tail_bounds(self):
        tracer = Tracer()
        assert tracer.tail(5) == []
        for index in range(4):
            tracer.record(index, "x", "c", i=index)
        assert tracer.tail(0) == tracer.tail(-2) == []
        assert tracer.tail(4) == tracer.tail(50) == list(tracer.events)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_rejected(self, capacity):
        with pytest.raises(SimulationError, match="capacity"):
            Tracer(capacity=capacity)

    def test_describe_is_single_line(self):
        event = TraceEvent(time=5, core="slave", category="task", payload={"tid": 1})
        assert "\n" not in event.describe()


class _CountingCore:
    def __init__(self, name: str) -> None:
        self.name = name
        self.steps = 0
        self.halted = False

    def step(self, now: int) -> bool:
        self.steps += 1
        return True

    def is_halted(self) -> bool:
        return self.halted


class TestSoC:
    def test_step_requires_attached_cores(self):
        soc = DualCoreSoC()
        with pytest.raises(SimulationError):
            soc.step()

    def test_both_cores_step_each_tick(self):
        soc = DualCoreSoC()
        master, slave = _CountingCore("m"), _CountingCore("s")
        soc.attach(master, slave)
        for _ in range(10):
            soc.step()
        assert master.steps == 10
        assert slave.steps == 10
        assert soc.now == 10

    def test_step_ratio(self):
        soc = DualCoreSoC(config=SoCConfig(master_steps_per_tick=2))
        master, slave = _CountingCore("m"), _CountingCore("s")
        soc.attach(master, slave)
        for _ in range(5):
            soc.step()
        assert master.steps == 10
        assert slave.steps == 5

    def test_halted_core_not_stepped(self):
        soc = DualCoreSoC()
        master, slave = _CountingCore("m"), _CountingCore("s")
        slave.halted = True
        soc.attach(master, slave)
        for _ in range(4):
            soc.step()
        assert slave.steps == 0

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SoCConfig(master_steps_per_tick=0)
