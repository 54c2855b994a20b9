"""Sampling symbol sequences from a PFA (the core of Algorithm 2).

Algorithm 2 walks the PFA for ``s`` steps: at each state with a
probabilistic choice it calls ``MakeChoice``; a state with exactly one
outgoing arc is followed deterministically.  Two behaviours are supported
when the walk reaches an absorbing final state before ``s`` symbols have
been produced:

* ``on_final="stop"`` — the pattern ends early (the task's life cycle is
  complete);
* ``on_final="restart"`` — the walk resumes from the initial state, which
  models continuous stress testing (the paper's test case 1 "continued to
  create tasks and removed them when their work was done").

The walk runs over a :class:`~repro.automata.compiled.CompiledPFA`:
per-state symbol/target/cumulative-probability rows built once, so
``MakeChoice`` is a :func:`bisect.bisect_right` over a float tuple
instead of re-sorting transition dicts on every step.  Seeded output is
bit-for-bit identical to the legacy dict-walking sampler: the RNG is
consumed once per multi-arc state, and the cumulative rows are built by
the same left-to-right float additions the legacy linear scan performed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Literal

from repro.automata.compiled import CompiledPFA
from repro.automata.pfa import PFA, Transition
from repro.errors import SamplingError

OnFinal = Literal["stop", "restart"]


@dataclass(frozen=True, slots=True)
class SampledPattern:
    """A sampled walk: the emitted symbols and the visited state path.

    ``states`` has one more element than ``symbols`` per segment; restarts
    insert the initial state again, so ``len(states) >= len(symbols) + 1``.
    ``log_probability`` is the natural-log probability of the walk
    (sum over chosen transitions), comparable across equal-length walks.

    Slotted: campaigns materialise one of these per pattern per round,
    so dropping the per-instance ``__dict__`` saves memory.
    """

    symbols: tuple[str, ...]
    states: tuple[int, ...]
    log_probability: float
    restarts: int


@dataclass
class PatternSampler:
    """Draws symbol sequences from a PFA with a private RNG.

    Parameters
    ----------
    pfa:
        The automaton to walk — a :class:`PFA`, or an already-built
        :class:`CompiledPFA` to share one compilation across samplers.
    seed:
        Seed for the private :class:`random.Random`; runs are reproducible
        given the seed.
    on_final:
        Behaviour at absorbing final states (see module docstring).
    """

    pfa: PFA | CompiledPFA
    seed: int | None = None
    on_final: OnFinal = "stop"
    _rng: random.Random = field(init=False, repr=False)
    _compiled: CompiledPFA = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.on_final not in ("stop", "restart"):
            raise SamplingError(f"unknown on_final mode {self.on_final!r}")
        self._rng = random.Random(self.seed)
        if isinstance(self.pfa, CompiledPFA):
            self._compiled = self.pfa
            self.pfa = self.pfa.source
        else:
            self._compiled = CompiledPFA.from_pfa(self.pfa)
        if self._compiled.is_absorbing(self._compiled.start):
            raise SamplingError("PFA start state has no outgoing transitions")

    @property
    def compiled(self) -> CompiledPFA:
        """The compiled automaton the walk runs over."""
        return self._compiled

    def _choose(self, state: int) -> Transition:
        """``MakeChoice`` of Algorithm 2: roulette-wheel selection.

        Kept for API compatibility and the ``sample_to_final`` walk;
        :meth:`sample` inlines the same index arithmetic.
        """
        return self._compiled.transition(state, self._choose_index(state))

    def _choose_index(self, state: int) -> int:
        compiled = self._compiled
        count = len(compiled.symbols[state])
        if count == 0:
            raise SamplingError(f"state {state} is absorbing")
        if count == 1:
            return 0
        row = compiled.cumulative[state]
        index = bisect_right(row, self._rng.random())
        # Guard against floating-point undershoot of the final sum.
        return index if index < count else count - 1

    def sample(self, size: int) -> SampledPattern:
        """Generate one pattern with at most ``size`` symbols.

        ``size`` counts emitted symbols (service invocations); the paper's
        ``s`` counts pattern states, which for a connected walk is the
        same number plus one.
        """
        if size < 1:
            raise SamplingError(f"pattern size must be >= 1, got {size}")
        compiled = self._compiled
        rows = compiled.rows
        rand = self._rng.random
        start = compiled.start
        on_stop = self.on_final == "stop"

        symbols: list[str] = []
        states: list[int] = [start]
        append_symbol = symbols.append
        append_state = states.append
        log_probability = 0.0
        restarts = 0
        state = start
        remaining = size
        while remaining:
            count, row_symbols, row_targets, row_cumulative, row_logs = rows[
                state
            ]
            if count > 1:
                index = bisect_right(row_cumulative, rand())
                if index == count:
                    index -= 1
            elif count == 1:
                index = 0
            else:
                if on_stop:
                    break
                restarts += 1
                state = start
                append_state(start)
                continue
            append_symbol(row_symbols[index])
            log_probability += row_logs[index]
            state = row_targets[index]
            append_state(state)
            remaining -= 1
        return SampledPattern(
            symbols=tuple(symbols),
            states=tuple(states),
            log_probability=log_probability,
            restarts=restarts,
        )

    def sample_many(self, count: int, size: int) -> list[SampledPattern]:
        """Generate ``count`` patterns (the loop in Algorithm 1, line 1-3)."""
        if count < 0:
            raise SamplingError(f"pattern count must be >= 0, got {count}")
        return [self.sample(size) for _ in range(count)]

    def sample_to_final(self, max_size: int = 10_000) -> SampledPattern:
        """Walk until an absorbing final state is reached (a complete task
        life cycle), or raise if ``max_size`` symbols pass without one."""
        compiled = self._compiled
        symbols: list[str] = []
        states: list[int] = [compiled.start]
        log_probability = 0.0
        state = compiled.start
        while not compiled.is_absorbing(state):
            if len(symbols) >= max_size:
                raise SamplingError(
                    f"no final state reached within {max_size} symbols"
                )
            index = self._choose_index(state)
            symbols.append(compiled.symbols[state][index])
            log_probability += compiled.log_probs[state][index]
            state = compiled.targets[state][index]
            states.append(state)
        return SampledPattern(
            symbols=tuple(symbols),
            states=tuple(states),
            log_probability=log_probability,
            restarts=0,
        )


def sample_pattern(
    pfa: PFA,
    size: int,
    seed: int | None = None,
    on_final: OnFinal = "stop",
) -> SampledPattern:
    """One-shot convenience wrapper around :class:`PatternSampler`."""
    return PatternSampler(pfa, seed=seed, on_final=on_final).sample(size)
