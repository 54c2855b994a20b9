"""The assembled dual-core system-on-chip.

:class:`DualCoreSoC` wires together two stepped cores, the four-mailbox
bank, shared SRAM, per-core interrupt controllers, a timed-event
scheduler and a tracer.  Its :meth:`DualCoreSoC.step` advances simulated
time by one tick: each core gets ``steps_per_tick`` scheduling steps,
then due timed events fire.  Because every step is an explicit call,
any interleaving of master and slave activity is a deterministic,
replayable schedule — the property pTest's merger exploits.

Two calls apply a run of ticks at once where that is exact.  Both need
the master halted, the slave taking one step per tick and no timed
event coming due before the run ends; with the master halted, a tick of
:meth:`DualCoreSoC.step` is then one slave step, the clock, an empty
``fire_due`` and ``ticks_run``.

* :meth:`DualCoreSoC.fast_forward` applies a run of *compute-only*
  ticks: no mailbox traffic, and in the kernel an empty inbox, no
  switch penalty, no higher-priority READY task, no sleeper due and no
  GC pass with pending items
  (:meth:`~repro.pcore.kernel.PCoreKernel.fast_forward`).  Such a tick
  changes only the clock, ``ticks_run``, the slave's ``now`` and step
  count, and the running task's ``steps_run``, ``last_progress`` and
  ``compute_remaining``; the batch leaves each exactly as stepping
  would.
* :meth:`DualCoreSoC.run_slave` lets the slave run alone for a run of
  ticks while the bridge is quiet: no reply backlog, an empty command
  mailbox and an empty kernel inbox
  (:meth:`~repro.bridge.bridge.SlaveBridgeAdapter.run_alone`).  The
  kernel takes each compute-only run at once and steps every other
  tick (:meth:`~repro.pcore.kernel.PCoreKernel.run_steps`), and the
  run ends early after a step on which the kernel halted or parked.
  When the slave cannot run alone, ``run_slave`` takes one
  :meth:`DualCoreSoC.step`.

Defaults model the OMAP5912 OSK of the paper's evaluation: both cores at
192 MHz (1:1 step ratio), four mailboxes, 250 KB shared SRAM.
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

    master_name: str = "arm926"
    slave_name: str = "c55x"
    master_clock_mhz: int = 192
    slave_clock_mhz: int = 192
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

    def fast_forward(self, limit: int) -> int:
        """Advance up to ``limit`` compute-only ticks in one call (module
        docstring).  The slave core must offer ``fast_forward(now,
        limit)``, as :class:`~repro.bridge.bridge.SlaveBridgeAdapter`
        does.  Returns the ticks advanced; 0 means the next tick must go
        through :meth:`step`."""
        limit = self._slave_alone_limit(limit)
        if limit <= 0:
            return 0
        return self._advance(self.slave.fast_forward(self.clock.now, limit))

    def run_slave(self, limit: int) -> int:
        """Advance up to ``limit`` ticks, at least one, letting the slave
        run alone where that is exact (module docstring).  The slave core
        must offer ``run_alone(now, limit)``, as
        :class:`~repro.bridge.bridge.SlaveBridgeAdapter` does, returning
        early after a step on which it halted or parked.  When the slave
        cannot run alone, one :meth:`step` is taken.  Returns the ticks
        advanced."""
        limit = self._slave_alone_limit(limit)
        ticks = self.slave.run_alone(self.clock.now, limit) if limit > 0 else 0
        if ticks:
            return self._advance(ticks)
        self.step()
        return 1

    def _slave_alone_limit(self, limit: int) -> int:
        """``limit`` cut to the ticks before the next timed event comes
        due, or 0 unless the master is halted and the slave takes one
        step per tick."""
        if (
            self.master is None
            or self.slave is None
            or not self.master.is_halted()
            or self.config.slave_steps_per_tick != 1
        ):
            return 0
        due = self.scheduler.next_due()
        if due is not None:
            limit = min(limit, due - self.clock.now - 1)
        return limit

    def _advance(self, ticks: int) -> int:
        """Move the clock and ``ticks_run`` past ``ticks`` ticks the
        slave ran alone; returns ``ticks``."""
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
