"""Configuration of an adaptive test run (Algorithm 1's parameters).

``PTestConfig`` carries the paper's ``(RE, n, s, op)`` plus everything a
deterministic re-run needs: seeds, platform parameters, detector
thresholds and fault switches.  A config is the unit of reproduction —
the bug report embeds it, and replaying the same config re-finds the
same bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.pcore.kernel import KernelConfig
from repro.ptest.merger import MERGE_OPS
from repro.ptest.pcore_model import PCORE_REGULAR_EXPRESSION, PCORE_SERVICES


@dataclass(frozen=True)
class PTestConfig:
    """Parameters of one ``AdaptiveTest`` invocation.

    Attributes
    ----------
    regex:
        The service regular expression RE.  RE (2) is sampled with the
        Fig. 5 probabilities; any other regex with uniform rows.
    pattern_count:
        The paper's ``n`` — number of patterns = number of pairs.
    pattern_size:
        The paper's ``s`` — services per pattern.
    op:
        The merge policy name.
    seed:
        Master seed; all component streams derive from it.
    program:
        Slave program registered under this name runs in created tasks.
    lockstep:
        Committer waits for each command's reply before issuing the next
        command *of the same pair* (per-thread blocking remote calls).
    restart_patterns:
        Regenerate and re-issue patterns when the merged pattern is
        exhausted, keeping the stress going until ``max_ticks``.
    max_ticks:
        Simulation budget for the run.
    reply_timeout:
        Detector: unanswered-command age that flags a hang.
    progress_window:
        Detector: no-progress age (for live, unsuspended tasks) that
        flags starvation.
    detector_interval:
        Ticks between detector sweeps ("runs as a new process", i.e.
        concurrently, but sampled).
    kernel:
        Slave kernel parameters (the GC fault switch lives here).
    chunk:
        Subsequence length for the ``cyclic`` merge op.
    """

    regex: str = PCORE_REGULAR_EXPRESSION
    pattern_count: int = 4
    pattern_size: int = 8
    op: str = "round_robin"
    seed: int = 0
    program: str = "idle"
    lockstep: bool = True
    restart_patterns: bool = False
    max_ticks: int = 20_000
    reply_timeout: int = 400
    progress_window: int = 600
    detector_interval: int = 8
    kernel: KernelConfig = field(default_factory=KernelConfig)
    chunk: int = 2
    alphabet: tuple[str, ...] = PCORE_SERVICES
    #: Optional per-pair program names (index = pair id); pairs beyond
    #: the tuple fall back to ``program``.
    pair_programs: tuple[str, ...] | None = None
    #: ConTest-style issue noise: each command is preceded by a seeded
    #: uniform 0..noise_ticks delay (0 = off).
    noise_ticks: int = 0
    #: Hardware mailbox FIFO depth (the OMAP5912's is tiny); lower
    #: values increase bridge backpressure.
    mailbox_capacity: int = 4
    #: Master core speed relative to the slave (scheduling steps per
    #: tick); >1 lets the committer outrun the kernel's service rate.
    master_steps_per_tick: int = 1
    #: Record wait-for-graph deltas during detector sweeps; the
    #: snapshots land on ``TestRunResult.wait_deltas`` and feed the
    #: offline deadlock re-check
    #: (:func:`repro.ptest.detector.audit_deadlocks`).
    record_wait_deltas: bool = False

    def __post_init__(self) -> None:
        if self.pattern_count < 1:
            raise ConfigError("pattern_count must be >= 1")
        if self.pattern_size < 1:
            raise ConfigError("pattern_size must be >= 1")
        if self.op not in MERGE_OPS:
            raise ConfigError(
                f"unknown merge op {self.op!r}; known: {sorted(MERGE_OPS)}"
            )
        if self.max_ticks < 1:
            raise ConfigError("max_ticks must be >= 1")
        if self.reply_timeout < 1 or self.progress_window < 1:
            raise ConfigError("detector windows must be >= 1")
        if self.detector_interval < 1:
            raise ConfigError("detector_interval must be >= 1")
        if self.noise_ticks < 0:
            raise ConfigError("noise_ticks must be >= 0")
        if self.mailbox_capacity < 1:
            raise ConfigError("mailbox_capacity must be >= 1")
        if self.master_steps_per_tick < 1:
            raise ConfigError("master_steps_per_tick must be >= 1")
        if self.pattern_count > self.kernel.max_tasks:
            raise ConfigError(
                f"pattern_count={self.pattern_count} exceeds the kernel's "
                f"max_tasks={self.kernel.max_tasks}: each pattern needs a "
                f"slave task"
            )

    def with_seed(self, seed: int) -> "PTestConfig":
        """A copy differing only in the master seed (sweep helper)."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        return (
            f"n={self.pattern_count} s={self.pattern_size} op={self.op} "
            f"seed={self.seed} program={self.program} "
            f"buggy_gc={self.kernel.buggy_gc}"
        )
