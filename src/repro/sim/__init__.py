"""Tick-stepped model of an OMAP5912-like dual-core SoC.

The paper ran pTest on a TI OMAP5912 (ARM926 master + C55x DSP slave,
four hardware mailboxes, 250 KB shared internal SRAM).  We do not have
that hardware; this package models the parts of it pTest actually
depends on:

* bounded hardware mailboxes for inter-core events
  (:mod:`repro.sim.mailbox`),
* shared on-chip memory with bounds/alignment checking
  (:mod:`repro.sim.memory`),
* the assembled SoC with two stepped cores and its tick clock
  (:mod:`repro.sim.soc`),
* structured run tracing (:mod:`repro.sim.trace`), and
* named deterministic RNG streams (:mod:`repro.sim.rng`).

Everything is deterministic under a seed: concurrency is modelled as an
explicit, replayable interleaving of core steps, which is exactly the
dimension pTest perturbs.
"""

from repro.sim.mailbox import Mailbox, MailboxBank, MailboxMessage
from repro.sim.memory import SharedMemory
from repro.sim.rng import RngStreams
from repro.sim.soc import Core, DualCoreSoC, SoCConfig
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Mailbox",
    "MailboxBank",
    "MailboxMessage",
    "SharedMemory",
    "RngStreams",
    "Core",
    "DualCoreSoC",
    "SoCConfig",
    "TraceEvent",
    "Tracer",
]
