"""The assembled dual-core system-on-chip.

:class:`DualCoreSoC` wires together two stepped cores, the four-mailbox
bank, shared SRAM and a tracer.  Its :meth:`DualCoreSoC.step` advances
simulated time by one tick: the master gets ``master_steps_per_tick``
scheduling steps, then the slave one.  Because every step is an
explicit call, any interleaving of master and slave activity is a
deterministic, replayable schedule — the property pTest's merger
exploits.

:meth:`DualCoreSoC.run_slave` applies a run of ticks at once where that
is exact.  It needs the master halted and a quiet bridge: no reply
backlog, an empty command mailbox and an empty kernel inbox
(:meth:`~repro.bridge.bridge.SlaveBridgeAdapter.run_alone`).  A tick of
:meth:`DualCoreSoC.step` is then one slave step and the clock.  So the
slave runs alone: the kernel takes each compute-only run at once, steps
every other tick (:meth:`~repro.pcore.kernel.PCoreKernel.run_steps`)
and ends the run early after a step on which it halted or parked.  A
compute-only tick changes only the clock, the slave's ``now`` and step
count and the running task's ``steps_run``, ``last_progress`` and
``compute_remaining``
(:meth:`~repro.pcore.kernel.PCoreKernel.fast_forward` lists when a step
is compute-only); a run of them leaves each exactly as stepping would.
The first compute-only run may go on past the call's tick bound, to a
second bound, and then ends the call.  When the slave cannot run alone,
``run_slave`` takes one :meth:`DualCoreSoC.step`.

Defaults model the OMAP5912 OSK of the paper's evaluation: an ARM926
master and a C55x DSP slave, both at 192 MHz (1:1 step ratio), four
mailboxes, 250 KB shared SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import SimulationError
from repro.sim.mailbox import MailboxBank
from repro.sim.memory import SharedMemory
from repro.sim.trace import Tracer


class Core(Protocol):
    """What the SoC needs from a core model."""

    name: str

    def step(self, now: int) -> bool:
        """Perform one scheduling step at time ``now``.

        Returns ``True`` if the core did useful work (ran a task or
        handled a message), ``False`` if it idled.
        """
        ...  # pragma: no cover - protocol

    def is_halted(self) -> bool:
        """Whether the core has stopped (e.g. kernel panic)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SoCConfig:
    """Static platform parameters (OMAP5912 OSK defaults)."""

    mailbox_capacity: int = 4
    #: Scheduling steps the master takes per simulated tick, against
    #: the slave's one.  With equal clocks this is 1; 2 models a master
    #: twice as fast.
    master_steps_per_tick: int = 1

    def __post_init__(self) -> None:
        if self.master_steps_per_tick < 1:
            raise SimulationError("master_steps_per_tick must be >= 1")


@dataclass
class DualCoreSoC:
    """The simulated platform: two cores plus shared fabric."""

    config: SoCConfig = field(default_factory=SoCConfig)
    tracer: Tracer = field(default_factory=Tracer)
    master: Core | None = None
    slave: Core | None = None
    mailboxes: MailboxBank = field(init=False)
    sram: SharedMemory = field(init=False)
    now: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.mailboxes = MailboxBank.omap5912(capacity=self.config.mailbox_capacity)
        self.sram = SharedMemory()

    def attach(self, master: Core, slave: Core) -> None:
        """Install the two core models (must happen before stepping)."""
        self.master = master
        self.slave = slave

    def step(self) -> None:
        """Advance one tick."""
        if self.master is None or self.slave is None:
            raise SimulationError("cores not attached; call attach() first")
        for _ in range(self.config.master_steps_per_tick):
            if not self.master.is_halted():
                self.master.step(self.now)
        if not self.slave.is_halted():
            self.slave.step(self.now)
        self.now += 1

    def run_slave(self, limit: int, reach: int | None = None) -> int:
        """Advance up to ``limit`` ticks, at least one, letting the slave
        run alone where that is exact (module docstring); the slave's
        first compute-only run may go on to ``reach`` ticks (at least
        ``limit``; default ``limit``), and a run that passes ``limit``
        ends the call.  The slave core must offer ``run_alone(now, limit,
        reach)``, as :class:`~repro.bridge.bridge.SlaveBridgeAdapter`
        does, returning early after a step on which it halted or parked.
        When the slave cannot run alone, one :meth:`step` is taken.
        Returns the ticks advanced."""
        ticks = 0
        if (
            self.master is not None
            and self.slave is not None
            and self.master.is_halted()
        ):
            ticks = self.slave.run_alone(self.now, limit, reach)
        if not ticks:
            self.step()
            return 1
        self.now += ticks
        return ticks
