"""Hardware mailboxes for inter-core messaging.

The OMAP5912 gives software four mailbox registers for ARM<->DSP event
exchange; the pCore Bridge builds its command/reply protocol on top of
them.  A :class:`Mailbox` here is a bounded FIFO of small messages that
refuses a post when full; a :class:`MailboxBank` groups four of them
and assigns directions the way the bridge uses them (two per direction:
command and reply channels).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import MailboxError


@dataclass(slots=True)
class MailboxMessage:
    """One word-sized message plus an optional out-of-band payload.

    Real mailboxes carry a single word; larger data travels through
    shared memory and the word is a descriptor.  ``payload`` models the
    descriptor's target without forcing every test to serialise bytes.

    A slotted value, compared by value and not hashable; nothing
    mutates one after construction, so the word checked at construction
    stays a u32.
    """

    word: int
    payload: object | None = None
    sent_at: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.word < 2**32:
            raise MailboxError(f"mailbox word {self.word} not a u32")


@dataclass
class Mailbox:
    """A bounded FIFO mailbox.

    Attributes
    ----------
    name:
        Identifier used in traces (e.g. ``"arm2dsp_cmd"``).
    capacity:
        Maximum queued messages; the OMAP's hardware FIFO depth is tiny,
        so the default is 4.
    """

    name: str
    capacity: int = 4
    _queue: deque[MailboxMessage] = field(default_factory=deque, repr=False)
    posted: int = 0
    dropped: int = 0
    delivered: int = 0
    high_watermark: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise MailboxError(f"capacity must be >= 1, got {self.capacity}")

    def post(self, message: MailboxMessage) -> bool:
        """Enqueue a message; returns ``False`` if rejected when full
        (the sender may retry later)."""
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(message)
        self.posted += 1
        self.high_watermark = max(self.high_watermark, len(self._queue))
        return True

    def poll(self) -> MailboxMessage | None:
        """Dequeue the oldest message, or ``None`` when empty.

        Polling is how the slave side consumes commands; the paper notes
        "processors polling events through shared memory" as one of the
        two common mechanisms.
        """
        if not self._queue:
            return None
        self.delivered += 1
        return self._queue.popleft()

    def peek(self) -> MailboxMessage | None:
        """Look at the head message without consuming it."""
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    def drain(self) -> Iterator[MailboxMessage]:
        """Consume and yield every queued message (used at shutdown)."""
        while self._queue:
            self.delivered += 1
            yield self._queue.popleft()


#: Conventional roles of the four OMAP mailboxes as the bridge uses them.
DEFAULT_MAILBOX_ROLES = (
    "arm2dsp_cmd",
    "arm2dsp_data",
    "dsp2arm_reply",
    "dsp2arm_event",
)


@dataclass
class MailboxBank:
    """The four-mailbox bank of the OMAP5912."""

    mailboxes: dict[str, Mailbox]

    @classmethod
    def omap5912(cls, capacity: int = 4) -> "MailboxBank":
        """Build the bank with the conventional four roles."""
        return cls(
            mailboxes={
                role: Mailbox(name=role, capacity=capacity)
                for role in DEFAULT_MAILBOX_ROLES
            }
        )

    def __getitem__(self, role: str) -> Mailbox:
        try:
            return self.mailboxes[role]
        except KeyError:
            raise MailboxError(f"no mailbox with role {role!r}") from None

    def roles(self) -> list[str]:
        return list(self.mailboxes)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-mailbox counters, for the trace dump and tests."""
        return {
            role: {
                "posted": box.posted,
                "delivered": box.delivered,
                "dropped": box.dropped,
                "queued": len(box),
                "high_watermark": box.high_watermark,
            }
            for role, box in self.mailboxes.items()
        }
