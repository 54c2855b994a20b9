"""Master and slave endpoints of the bridge.

:class:`BridgeMaster` lives on the master core: it assigns sequence ids,
encodes requests, posts them to the command mailbox and collects replies
from the reply mailbox.  :class:`SlaveBridgeAdapter` wraps the pCore
kernel into a :class:`repro.sim.soc.Core`: each step it moves arrived
commands into the kernel inbox, steps the kernel, and flushes kernel
replies back through the reply mailbox (retrying when that mailbox is
full).  While it has nothing to move, a run of steps goes to the kernel
in one call (:meth:`SlaveBridgeAdapter.run_alone`).

When the slave kernel panics, outstanding and future commands never get
replies — the silence the bug detector's crash monitor keys on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import BridgeError
from repro.bridge.protocol import (
    CommandFrame,
    decode_request,
    encode_request,
    encode_result,
)
from repro.pcore.kernel import PCoreKernel
from repro.pcore.services import SERVICE_NAMES, ServiceRequest, ServiceResult
from repro.sim.mailbox import Mailbox, MailboxBank, MailboxMessage
from repro.sim.trace import CATEGORY_COMMAND, Tracer

#: Commands moved from the mailbox per step (poll burst).
POLL_BURST = 4
#: Kernel software-queue depth: the adapter stops polling while the
#: kernel inbox holds this many requests, so backpressure reaches
#: the hardware FIFO instead of hiding in an unbounded list.
INBOX_LIMIT = 2


@dataclass
class BridgeMaster:
    """Master-side endpoint: issue requests, pump replies."""

    command_box: Mailbox
    reply_box: Mailbox
    tracer: Tracer | None = None
    now: int = 0
    _next_seq: int = 1
    issued: int = 0
    #: Replies received, by sequence id.
    replies: dict[int, ServiceResult] = field(default_factory=dict)
    #: Sequence ids issued but not yet answered.
    outstanding: dict[int, ServiceRequest] = field(default_factory=dict)
    #: Issue time of each outstanding sequence id (crash detection).
    issue_times: dict[int, int] = field(default_factory=dict)

    def issue(self, request: ServiceRequest) -> int | None:
        """Encode and post ``request``; returns its sequence id, or
        ``None`` when the command mailbox is full (caller retries)."""
        sequence = self._next_seq
        word, frame = encode_request(request, sequence)
        message = MailboxMessage(word=word, payload=frame, sent_at=self.now)
        if not self.command_box.post(message):
            return None
        self._next_seq += 1
        self.issued += 1
        self.outstanding[sequence] = request
        self.issue_times[sequence] = self.now
        if self.tracer is not None:
            self.tracer.record(
                self.now,
                "bridge",
                CATEGORY_COMMAND,
                event="issue",
                seq=sequence,
                service=SERVICE_NAMES[request.service],
                target=request.target,
            )
        return sequence

    def pump(self) -> list[ServiceResult]:
        """Drain the reply mailbox; returns newly arrived results."""
        arrived: list[ServiceResult] = []
        while True:
            message = self.reply_box.poll()
            if message is None:
                return arrived
            result = message.payload
            if not isinstance(result, ServiceResult):
                raise BridgeError("reply mailbox carried a non-result payload")
            sequence = result.request.sequence
            if sequence is None:
                raise BridgeError("reply without a sequence id")
            self.replies[sequence] = result
            self.outstanding.pop(sequence, None)
            self.issue_times.pop(sequence, None)
            arrived.append(result)

    def reply_for(self, sequence: int) -> ServiceResult | None:
        return self.replies.get(sequence)

    def oldest_outstanding_age(self) -> int | None:
        """Age in ticks of the oldest unanswered command, or ``None``."""
        if not self.issue_times:
            return None
        return self.now - min(self.issue_times.values())


@dataclass
class SlaveBridgeAdapter:
    """Wraps the kernel into a Core, pumping mailboxes around it.

    :meth:`step` flushes the reply backlog, polls the command mailbox
    and steps the kernel.  With an empty backlog and command mailbox the
    flush and the poll find nothing, so a step is one kernel step.  With
    an empty kernel inbox as well no reply can arise, so the next step's
    flush finds nothing either, and :meth:`run_alone` hands the kernel
    any run of steps (:meth:`PCoreKernel.run_steps`).
    """

    kernel: PCoreKernel
    command_box: Mailbox
    reply_box: Mailbox
    name: str = "dsp"
    #: Replies the reply mailbox refused; retried next step.
    _reply_backlog: deque[ServiceResult] = field(default_factory=deque)
    delivered: int = 0
    now: int = 0

    def __post_init__(self) -> None:
        # The backlog's own append, not a bound method of the adapter: a
        # kernel -> adapter back-reference would make every finished
        # platform cyclic garbage that waits for a full collection.
        self.kernel.reply_handler = self._reply_backlog.append

    def is_halted(self) -> bool:
        return self.kernel.is_halted()

    def step(self, now: int) -> bool:
        self.now = now
        worked = self._flush_replies()
        worked |= self._poll_commands()
        worked |= self.kernel.step(now)
        return worked

    def run_alone(self, now: int, limit: int, reach: int | None = None) -> int:
        """Take up to ``limit`` steps through
        :meth:`PCoreKernel.run_steps`, whose first compute-only run may
        go on to ``reach``, while the adapter has nothing to move: an
        empty reply backlog, command mailbox and kernel inbox (so no
        reply can arise) and a live kernel.  Each such step is exactly
        :meth:`step`, whose flush and poll would find nothing.  Returns
        the steps taken, 0 when the next one must go through
        :meth:`step`."""
        kernel = self.kernel
        if (
            self._reply_backlog
            or not self.command_box.empty
            or kernel.inbox
            or kernel.is_halted()
        ):
            return 0
        steps = kernel.run_steps(now, limit, reach)
        if steps:
            self.now = now + steps - 1
        return steps

    # -- internals -----------------------------------------------------------

    def _poll_commands(self) -> bool:
        moved = False
        for _ in range(POLL_BURST):
            if self.kernel.is_halted():
                break  # a crashed kernel stops polling: commands pile up
            if len(self.kernel.inbox) >= INBOX_LIMIT:
                break  # software queue full: leave commands in the FIFO
            message = self.command_box.poll()
            if message is None:
                break
            frame = message.payload
            if not isinstance(frame, CommandFrame):
                raise BridgeError("command mailbox carried a non-frame payload")
            request = decode_request(message.word, frame)
            self.kernel.submit(request)
            self.delivered += 1
            moved = True
        return moved

    def _flush_replies(self) -> bool:
        flushed = False
        while self._reply_backlog:
            result = self._reply_backlog[0]
            word = encode_result(result, result.request.sequence or 0)
            message = MailboxMessage(word=word, payload=result, sent_at=self.now)
            if not self.reply_box.post(message):
                break
            self._reply_backlog.popleft()
            flushed = True
        return flushed


def build_bridge(
    mailboxes: MailboxBank,
    kernel: PCoreKernel,
    tracer: Tracer | None = None,
) -> tuple[BridgeMaster, SlaveBridgeAdapter]:
    """Wire both endpoints over the standard mailbox roles."""
    master = BridgeMaster(
        command_box=mailboxes["arm2dsp_cmd"],
        reply_box=mailboxes["dsp2arm_reply"],
        tracer=tracer,
    )
    slave = SlaveBridgeAdapter(
        kernel=kernel,
        command_box=mailboxes["arm2dsp_cmd"],
        reply_box=mailboxes["dsp2arm_reply"],
    )
    return master, slave
