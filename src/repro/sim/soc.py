"""The assembled dual-core system-on-chip.

:class:`DualCoreSoC` wires together two stepped cores, the four-mailbox
bank, shared SRAM, per-core interrupt controllers, a timed-event
scheduler and a tracer.  Its :meth:`DualCoreSoC.step` advances simulated
time by one tick: each core gets ``steps_per_tick`` scheduling steps,
then due timed events fire.  Because every step is an explicit call,
any interleaving of master and slave activity is a deterministic,
replayable schedule — the property pTest's merger exploits.

:meth:`DualCoreSoC.run_slave` applies a run of ticks at once where that
is exact.  It needs the master halted, the slave taking one step per
tick and a quiet bridge: no reply backlog, an empty command mailbox and
an empty kernel inbox
(:meth:`~repro.bridge.bridge.SlaveBridgeAdapter.run_alone`).  A tick of
:meth:`DualCoreSoC.step` is then one slave step, the clock, ``ticks_run``
and a ``fire_due`` that finds nothing, as the run ends before the next
timed event.  So the slave runs alone: the kernel takes each
compute-only run at once, steps every other tick
(:meth:`~repro.pcore.kernel.PCoreKernel.run_steps`) and ends the run
early after a step on which it halted or parked.  A compute-only tick
changes only the clock, ``ticks_run``, the slave's ``now`` and step
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
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.sim.events import EventScheduler, SimClock
from repro.sim.interrupts import InterruptController
from repro.sim.mailbox import MailboxBank, OverflowPolicy
from repro.sim.memory import OMAP5912_SRAM_BYTES, SharedMemory
from repro.sim.rng import RngStreams
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

    sram_bytes: int = OMAP5912_SRAM_BYTES
    mailbox_capacity: int = 4
    mailbox_policy: OverflowPolicy = OverflowPolicy.REJECT
    #: Scheduling steps each core takes per simulated tick.  With equal
    #: clocks this is (1, 1); a 2:1 ratio models a faster master, etc.
    master_steps_per_tick: int = 1
    slave_steps_per_tick: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.master_steps_per_tick < 1 or self.slave_steps_per_tick < 1:
            raise SimulationError("steps_per_tick values must be >= 1")


@dataclass
class DualCoreSoC:
    """The simulated platform: two cores plus shared fabric."""

    config: SoCConfig = field(default_factory=SoCConfig)
    clock: SimClock = field(default_factory=SimClock)
    tracer: Tracer = field(default_factory=Tracer)
    master: Core | None = None
    slave: Core | None = None
    scheduler: EventScheduler = field(init=False)
    mailboxes: MailboxBank = field(init=False)
    sram: SharedMemory = field(init=False)
    master_irq: InterruptController = field(default_factory=InterruptController)
    slave_irq: InterruptController = field(default_factory=InterruptController)
    rng: RngStreams = field(init=False)
    ticks_run: int = 0

    def __post_init__(self) -> None:
        self.scheduler = EventScheduler(self.clock)
        self.mailboxes = MailboxBank.omap5912(
            capacity=self.config.mailbox_capacity,
            policy=self.config.mailbox_policy,
        )
        self.sram = SharedMemory(size=self.config.sram_bytes)
        self.rng = RngStreams(master_seed=self.config.seed)

    def attach(self, master: Core, slave: Core) -> None:
        """Install the two core models (must happen before stepping)."""
        self.master = master
        self.slave = slave

    @property
    def now(self) -> int:
        return self.clock.now

    def step(self) -> bool:
        """Advance one tick; returns ``True`` if either core did work."""
        if self.master is None or self.slave is None:
            raise SimulationError("cores not attached; call attach() first")
        worked = False
        for _ in range(self.config.master_steps_per_tick):
            if not self.master.is_halted():
                worked |= self.master.step(self.clock.now)
        for _ in range(self.config.slave_steps_per_tick):
            if not self.slave.is_halted():
                worked |= self.slave.step(self.clock.now)
        self.clock.advance(1)
        self.scheduler.fire_due()
        self.ticks_run += 1
        return worked

    def run_slave(self, limit: int, reach: int | None = None) -> int:
        """Advance up to ``limit`` ticks, at least one, letting the slave
        run alone where that is exact (module docstring); the slave's
        first compute-only run may go on to ``reach`` ticks (at least
        ``limit``; default ``limit``), and a run that passes ``limit``
        ends the call.  Both bounds are cut before the next timed event.
        The slave core must offer ``run_alone(now, limit, reach)``, as
        :class:`~repro.bridge.bridge.SlaveBridgeAdapter` does, returning
        early after a step on which it halted or parked.  When the slave
        cannot run alone, one :meth:`step` is taken.  Returns the ticks
        advanced."""
        ticks = 0
        if (
            self.master is not None
            and self.slave is not None
            and self.master.is_halted()
            and self.config.slave_steps_per_tick == 1
        ):
            reach = limit if reach is None else reach
            due = self.scheduler.next_due()
            if due is not None:
                limit = min(limit, due - self.clock.now - 1)
                reach = min(reach, due - self.clock.now - 1)
            if limit > 0:
                ticks = self.slave.run_alone(self.clock.now, limit, reach)
        if not ticks:
            self.step()
            return 1
        self.clock.advance(ticks)
        self.ticks_run += ticks
        return ticks

    def run(
        self,
        max_ticks: int,
        until: Callable[["DualCoreSoC"], bool] | None = None,
        idle_limit: int | None = None,
    ) -> int:
        """Step the SoC until a predicate holds or budgets run out.

        Parameters
        ----------
        max_ticks:
            Hard tick budget for this call.
        until:
            Optional stop predicate evaluated after every tick.
        idle_limit:
            Stop after this many *consecutive* ticks in which neither
            core did work and no events are pending (system quiescent).

        Returns the number of ticks executed.
        """
        if max_ticks < 0:
            raise SimulationError(f"negative tick budget {max_ticks}")
        idle_run = 0
        for executed in range(1, max_ticks + 1):
            worked = self.step()
            if until is not None and until(self):
                return executed
            if worked or self.scheduler.pending():
                idle_run = 0
            else:
                idle_run += 1
                if idle_limit is not None and idle_run >= idle_limit:
                    return executed
        return max_ticks

    def both_halted(self) -> bool:
        if self.master is None or self.slave is None:
            return False
        return self.master.is_halted() and self.slave.is_halted()
