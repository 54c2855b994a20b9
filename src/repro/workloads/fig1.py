"""The concurrency-fault example of the paper's Fig. 1.

Two slave processes sit suspended in pCore; two master processes resume
them::

    Process S1              Process S2
    a: x = 1                f: y = 1
    b: while (y == 1)       g: while (x == 1)
    c:     yield();         h:     yield();
    d: x <- 0;              i: y <- 0;
    e: end;                 j: end;

    M1: K: remote_cmd(Resume, S1)    M2: L: remote_cmd(Resume, S2)

with ``x = y = 0`` in shared memory and S2's priority above S1's.  The
order ``L f g K i j a b d e`` terminates; the order ``K a L f g h b c
g h ...`` wedges the system: S2 spins ``g h`` forever (x stays 1) and S1
never reaches ``b`` again — states d, e, i, j become unreachable.  The
paper calls this the deadlock state; structurally it is a livelock /
starvation cycle, and pTest's detector reports S1's starvation (no
wait-for edge exists — nothing blocks on a resource).

:func:`run_fig1` reproduces both orders deterministically on the
simulated SoC and reports which line labels were reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Literal

from repro.bridge.bridge import build_bridge
from repro.master.scheduler import TimeSharingScheduler
from repro.master.system import MasterSystem
from repro.master.thread import Delay, IssueService, MasterThread, WaitReply
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Exit, MemRead, MemWrite, Syscall, TaskContext, YieldCpu
from repro.pcore.services import ServiceCode, ServiceRequest
from repro.ptest.detector import BugDetector, DetectorConfig
from repro.sim.soc import DualCoreSoC

#: Shared-memory cells (u16): the flags and "reached line d/i" markers.
X_ADDR = 0x0C00
Y_ADDR = 0x0C02
S1_D_MARKER = 0x0C10
S2_I_MARKER = 0x0C12

S1_TID = 1
S2_TID = 2
S1_PRIORITY = 10
S2_PRIORITY = 20  # S2 outranks S1, per the paper


def s1_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """Process S1: lines a-e."""
    del ctx
    yield MemWrite(X_ADDR, 1)  # a
    while True:
        y = yield MemRead(Y_ADDR)  # b
        if y != 1:
            break
        yield YieldCpu()  # c
    yield MemWrite(X_ADDR, 0)  # d
    yield MemWrite(S1_D_MARKER, 1)
    yield Exit("e")  # e


def s2_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """Process S2: lines f-j."""
    del ctx
    yield MemWrite(Y_ADDR, 1)  # f
    while True:
        x = yield MemRead(X_ADDR)  # g
        if x != 1:
            break
        yield YieldCpu()  # h
    yield MemWrite(Y_ADDR, 0)  # i
    yield MemWrite(S2_I_MARKER, 1)
    yield Exit("j")  # j


@dataclass
class Fig1Result:
    """Outcome of one Fig. 1 run."""

    order: str
    terminated: bool
    s1_exited: bool
    s2_exited: bool
    reached: frozenset[str]
    unreachable: frozenset[str]
    anomalies: list
    ticks: int

    @property
    def wedged(self) -> bool:
        return not self.terminated


def _resume(tid: int) -> ServiceRequest:
    return ServiceRequest(service=ServiceCode.TR, target=tid)


def _master_good(thread: MasterThread):
    """Order L ... K: resume S2, let it finish, then resume S1."""
    del thread
    yield IssueService(_resume(S2_TID))  # L
    yield WaitReply()
    yield Delay(60)  # let S2 run f g i j to completion
    yield IssueService(_resume(S1_TID))  # K
    yield WaitReply()


def _master_bad(thread: MasterThread):
    """Order K a L: resume S1, then immediately resume S2."""
    del thread
    yield IssueService(_resume(S1_TID))  # K
    yield IssueService(_resume(S2_TID))  # L (fire-and-forget: lands
    # one slave step after K, right after S1 executed line a)


def run_fig1(
    order: Literal["good", "bad"],
    max_ticks: int = 4_000,
    progress_window: int = 300,
) -> Fig1Result:
    """Run the Fig. 1 system under the given resume order."""
    soc = DualCoreSoC()
    kernel = PCoreKernel(
        config=KernelConfig(), shared_memory=soc.sram, tracer=soc.tracer
    )
    kernel.register_program("fig1_s1", s1_program)
    kernel.register_program("fig1_s2", s2_program)
    # Both slave processes exist and are suspended before the masters run.
    for tid, priority, program in (
        (S1_TID, S1_PRIORITY, "fig1_s1"),
        (S2_TID, S2_PRIORITY, "fig1_s2"),
    ):
        created = kernel.execute_service(
            ServiceRequest(
                service=ServiceCode.TC,
                target=tid,
                priority=priority,
                program=program,
            )
        )
        assert created.ok, created
        suspended = kernel.execute_service(
            ServiceRequest(service=ServiceCode.TS, target=tid)
        )
        assert suspended.ok, suspended

    bridge_master, slave_core = build_bridge(soc.mailboxes, kernel)
    program = _master_good if order == "good" else _master_bad
    master = MasterSystem(
        bridge=bridge_master,
        shared_memory=soc.sram,
        scheduler=TimeSharingScheduler(quantum=2),
        tracer=soc.tracer,
    )
    master.add_thread(
        MasterThread(mtid=1, name="m-issuer", program_factory=program)
    )
    soc.attach(master=master, slave=slave_core)
    detector = BugDetector(
        kernel=kernel,
        bridge=bridge_master,
        config=DetectorConfig(
            reply_timeout=max_ticks * 2,  # masters fire-and-forget here
            progress_window=progress_window,
            interval=8,
        ),
    )

    ticks = 0
    terminated = False
    while ticks < max_ticks:
        soc.step()
        ticks += 1
        if ticks % 8 == 0:
            detector.sweep(soc.now)
        if not kernel.live_tasks() and master.is_halted():
            terminated = True
            break
        if detector.triggered:
            break

    s1_exited = S1_TID not in kernel.tasks
    s2_exited = S2_TID not in kernel.tasks
    reached = set("a")  # S1 always executes line a once resumed
    if order == "good" or s2_exited:
        reached.update("fg")
    else:
        reached.update("fgh")
    if order == "good":
        reached.add("b")
    if soc.sram.read_u16(S1_D_MARKER) == 1:
        reached.update("de")
        reached.add("b")
    if soc.sram.read_u16(S2_I_MARKER) == 1:
        reached.update("ij")
    unreachable = frozenset("abcdefghij") - frozenset(reached) - {"c", "h"}
    return Fig1Result(
        order=order,
        terminated=terminated,
        s1_exited=s1_exited,
        s2_exited=s2_exited,
        reached=frozenset(reached),
        unreachable=unreachable,
        anomalies=list(detector.anomalies),
        ticks=ticks,
    )
