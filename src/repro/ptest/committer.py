"""The committer: replays the merged pattern as remote commands.

"According to the test pattern, the committer issues the corresponding
commands to enable the remote testing for a slave system."  The
committer is the master core of a pTest run: each step it pumps bridge
replies, then tries to issue the next command of the merged pattern.

Issue-order semantics: the merged pattern *is* the schedule the merger
chose, so commands are issued strictly in merged order.  In ``lockstep``
mode (the default, modelling blocking remote calls from the per-pair
master threads) a command whose pair still has an unanswered command
stalls the sequence until the reply arrives; in fire-and-forget mode
only mailbox backpressure throttles issue.

Symbol -> request binding per pair:

* ``TC`` creates the pair's task with a fresh priority from the pair's
  private priority band and the configured program;
* ``TD``/``TS``/``TR``/``TCH`` target the pair's task id (learned from
  the TC reply);
* ``TY`` targets the pair's task id (see the kernel's TY semantics);
* ``TCH`` rotates through the pair's priority band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bridge.bridge import BridgeMaster
from repro.errors import ConfigError
from repro.pcore.services import ServiceCode, ServiceRequest, ServiceResult
from repro.ptest.patterns import MergedPattern, PatternCommand
from repro.ptest.recording import ProcessStateRecorder
from repro.sim.trace import CATEGORY_COMMAND, Tracer

#: Width of each pair's private priority band (TCH rotates inside it).
PRIORITY_BAND = 32

#: Pattern symbol -> service, built once for the per-command lookup.
_SERVICES_BY_SYMBOL: dict[str, ServiceCode] = {code.name: code for code in ServiceCode}


@dataclass
class PairBinding:
    """Committer-side state of one master-thread/slave-task pair."""

    pair_id: int
    program: str
    tid: int | None = None
    priority_cursor: int = 0
    outstanding_seq: int | None = None
    issued: int = 0
    completed: int = 0
    errors: int = 0

    def base_priority(self) -> int:
        return 1 + self.pair_id * PRIORITY_BAND

    def next_priority(self) -> int:
        """A fresh priority inside the pair's band (wraps eventually)."""
        priority = self.base_priority() + (self.priority_cursor % PRIORITY_BAND)
        self.priority_cursor += 1
        return priority

    def master_state(self) -> str:
        """The qm label: which issue-state the pair's master thread is
        in (m<pair>.<#issued>, per the Fig. 4 ``m1/m2/m3`` idea)."""
        return f"m{self.pair_id}.{self.issued}"


@dataclass
class Committer:
    """Master core replaying a merged pattern (Core protocol)."""

    bridge: BridgeMaster
    merged: MergedPattern
    recorder: ProcessStateRecorder | None = None
    tracer: Tracer | None = None
    lockstep: bool = True
    program: str = "idle"
    #: Per-pair program names (index = pair id); missing entries fall
    #: back to ``program``.
    pair_programs: tuple[str, ...] | None = None
    #: ConTest-style schedule noise: before each issue, wait a seeded
    #: uniform 0..noise_ticks delay.  0 disables.
    noise_ticks: int = 0
    noise_seed: int = 0
    name: str = "committer"
    cursor: int = 0
    now: int = 0
    steps: int = 0
    issued: int = 0
    #: Issue attempts rejected by a full command mailbox (backpressure).
    stall_events: int = 0
    results: list[ServiceResult] = field(default_factory=list)
    error_results: list[ServiceResult] = field(default_factory=list)
    bindings: dict[int, PairBinding] = field(default_factory=dict)
    _seq_to_pair: dict[int, int] = field(default_factory=dict)
    #: Bindings whose ``outstanding_seq`` is set: pairs awaiting a reply.
    _awaiting: int = 0
    _stalled_request: ServiceRequest | None = None
    _stalled_command: PatternCommand | None = None
    _noise_remaining: int = 0
    _noise_rng: "random.Random" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._noise_rng = random.Random(self.noise_seed)
        for pattern in self.merged.sources:
            pair_id = pattern.pattern_id
            program = self.program
            if self.pair_programs is not None and pair_id < len(
                self.pair_programs
            ):
                program = self.pair_programs[pair_id]
            self.bindings[pair_id] = PairBinding(
                pair_id=pair_id, program=program
            )
            if self.recorder is not None:
                self.recorder.register_pair(pattern)

    # -- Core protocol ------------------------------------------------------

    def is_halted(self) -> bool:
        # Keep stepping (pumping replies) until the bridge has drained;
        # in fire-and-forget mode `done` precedes the last replies.
        return self.done and not self.bridge.outstanding

    @property
    def done(self) -> bool:
        """All commands issued and (in lockstep mode) all replies seen."""
        if self.cursor < len(self.merged.commands) or self._stalled_request:
            return False
        return not (self.lockstep and self._awaiting)

    def step(self, now: int) -> bool:
        self.now = now
        self.steps += 1
        self.bridge.now = now
        worked = self._pump()
        worked |= self._try_issue()
        return worked

    # -- internals ---------------------------------------------------------------

    def _pump(self) -> bool:
        arrived = self.bridge.pump()
        for result in arrived:
            self.results.append(result)
            sequence = result.request.sequence
            pair_id = self._seq_to_pair.get(sequence if sequence is not None else -1)
            if pair_id is None:
                continue
            binding = self.bindings[pair_id]
            if binding.outstanding_seq == sequence:
                binding.outstanding_seq = None
                self._awaiting -= 1
            binding.completed += 1
            if not result.ok:
                binding.errors += 1
                self.error_results.append(result)
            if (
                result.request.service is ServiceCode.TC
                and result.ok
                and result.value is not None
            ):
                binding.tid = result.value
            if result.ok and result.request.service in (
                ServiceCode.TD,
                ServiceCode.TY,
            ):
                binding.tid = None  # pair's task is gone
        return bool(arrived)

    def _try_issue(self) -> bool:
        if self._noise_remaining > 0:
            self._noise_remaining -= 1
            return False
        command, request = self._next_request()
        if request is None or command is None:
            return False
        sequence = self.bridge.issue(request)
        if sequence is None:  # mailbox full: keep the request for retry
            self.stall_events += 1
            self._stalled_request = request
            self._stalled_command = command
            return False
        self._stalled_request = None
        self._stalled_command = None
        if self.noise_ticks > 0:
            self._noise_remaining = self._noise_rng.randint(0, self.noise_ticks)
        binding = self.bindings[command.pattern_id]
        if binding.outstanding_seq is None:
            self._awaiting += 1
        binding.outstanding_seq = sequence
        binding.issued += 1
        self.issued += 1
        self._seq_to_pair[sequence] = command.pattern_id
        if self.recorder is not None:
            self.recorder.note_issue(command.pattern_id, binding.master_state())
        if self.tracer is not None:
            self.tracer.record(
                self.now,
                self.name,
                CATEGORY_COMMAND,
                event="commit",
                symbol=command.symbol,
                pair=command.pattern_id,
                seq=sequence,
                position=command.position,
            )
        return True

    def _next_request(
        self,
    ) -> tuple[PatternCommand | None, ServiceRequest | None]:
        """The cursor's command and request, advancing the cursor — or
        ``(None, None)`` when nothing can issue this step (exhausted,
        lockstep wait, tid wait)."""
        if self._stalled_request is not None and self._stalled_command is not None:
            return self._stalled_command, self._stalled_request
        if self.cursor >= len(self.merged.commands):
            return None, None
        command = self.merged.commands[self.cursor]
        binding = self.bindings[command.pattern_id]
        if self.lockstep and binding.outstanding_seq is not None:
            return None, None  # wait for the pair's previous reply
        request = self._build_request(command, binding)
        if request is None:
            return None, None  # target tid not known yet
        self.cursor += 1
        return command, request

    def _build_request(
        self, command: PatternCommand, binding: PairBinding
    ) -> ServiceRequest | None:
        symbol = command.symbol
        service = _SERVICES_BY_SYMBOL.get(symbol)
        if service is None:
            raise ConfigError(f"pattern symbol {symbol!r} is not a service")
        if service is ServiceCode.TC:
            return ServiceRequest(
                service=service,
                priority=binding.next_priority(),
                program=binding.program,
                issuer=binding.pair_id,
            )
        if binding.tid is None:
            # Target not known yet: the pair's TC reply has not arrived
            # (only possible in fire-and-forget mode) or the task is
            # already gone.  Issue against an invalid tid so the kernel
            # answers NO_SUCH_TASK — the stress test must exercise error
            # paths rather than silently skip them — unless we are just
            # early, in which case stall.
            if binding.outstanding_seq is not None:
                return None  # TC in flight: wait for its tid
        target = binding.tid if binding.tid is not None else 0
        if service is ServiceCode.TCH:
            return ServiceRequest(
                service=service,
                target=target,
                priority=binding.next_priority(),
                issuer=binding.pair_id,
            )
        return ServiceRequest(
            service=service, target=target, issuer=binding.pair_id
        )
