"""The pattern generator (Algorithm 2).

``PatternGenerator(RE, PD, s)`` in the paper: interpret the regular
expression, convert to an NFA, attach the probability distribution to
get a PFA, then walk it emitting one test pattern of size ``s``.  This
class performs the construction once and samples any number of patterns
from the same PFA (Algorithm 1 calls the procedure *n* times).

Distributions can be given three ways:

* a ready :class:`~repro.automata.distributions.TransitionDistribution`
  keyed by DFA state ids,
* a *label-keyed* mapping ``{(state_label, symbol): weight}`` resolved
  against the PFA's state labels (how :mod:`repro.ptest.pcore_model`
  specifies Fig. 5's numbers), or
* ``None`` — uniform over each state's outgoing arcs (the default when
  the user has no profiling knowledge).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.automata.batch import BatchSampler
from repro.automata.compiled import CompiledPFA
from repro.automata.dfa import DFA, minimize_dfa, nfa_to_dfa
from repro.automata.distributions import TransitionDistribution
from repro.automata.nfa import regex_to_nfa
from repro.automata.pfa import PFA, build_pfa
from repro.automata.regex_parser import parse_regex
from repro.automata.sampling import OnFinal, PatternSampler, SampledPattern
from repro.errors import ConfigError, DistributionError
from repro.ptest.patterns import TestPattern


def resolve_label_distribution(
    pfa_or_dfa_labels: Mapping[int, str],
    weights: Mapping[tuple[str, str], float],
) -> TransitionDistribution:
    """Convert ``{(state_label, symbol): weight}`` into state-id keys."""
    by_label: dict[str, int] = {}
    for state, label in pfa_or_dfa_labels.items():
        if label in by_label:
            raise DistributionError(f"duplicate state label {label!r}")
        by_label[label] = state
    dist = TransitionDistribution()
    for (label, symbol), weight in weights.items():
        if label not in by_label:
            raise DistributionError(f"unknown state label {label!r}")
        dist.set(by_label[label], symbol, weight)
    return dist


@dataclass
class PatternGenerator:
    """Builds a PFA from a regular expression and samples test patterns.

    Parameters
    ----------
    regex:
        The service regular expression (e.g. RE (2) of the paper).
    distribution:
        Transition weights (see module docstring); ``None`` = uniform.
    alphabet:
        Known service symbols, enabling the paper's juxtaposed notation
        (``TSTR``) to tokenize correctly.
    seed:
        RNG seed for ``MakeChoice``.
    on_final:
        What a walk does at an absorbing final state before reaching
        size ``s`` (``"stop"`` or ``"restart"``; see the sampler).
    minimize:
        Minimise the DFA before attaching probabilities.  Keep ``False``
        when the distribution distinguishes states the minimal DFA would
        merge (Fig. 5 gives TC and TCH different outgoing rows even
        though they are Myhill-Nerode equivalent).
    """

    regex: str
    distribution: TransitionDistribution | None = None
    alphabet: tuple[str, ...] | None = None
    seed: int | None = None
    on_final: OnFinal = "stop"
    minimize: bool = False
    pfa: PFA = field(init=False)
    dfa: DFA = field(init=False)
    _sampler: PatternSampler = field(init=False, repr=False)
    generated: int = 0

    def __post_init__(self) -> None:
        ast = parse_regex(self.regex, alphabet=self.alphabet)
        dfa = nfa_to_dfa(regex_to_nfa(ast))
        if self.minimize:
            dfa = minimize_dfa(dfa)
        self.dfa = dfa
        self.pfa = build_pfa(dfa, self.distribution)
        self._sampler = PatternSampler(
            self.pfa, seed=self.seed, on_final=self.on_final
        )

    @classmethod
    def from_pfa(
        cls,
        pfa: PFA | CompiledPFA,
        seed: int | None = None,
        on_final: OnFinal = "stop",
    ) -> "PatternGenerator":
        """Bypass the RE pipeline and sample a hand-built PFA (used for
        the exact Fig. 5 automaton).

        Accepts a prebuilt :class:`CompiledPFA` too, so callers that
        cache one compilation across many generators (the worker-side
        caches of :mod:`repro.ptest.pool`) skip the per-run
        recompilation; seeded output is identical either way.
        """
        generator = cls.__new__(cls)
        generator.regex = ""
        generator.distribution = None
        generator.alphabet = None
        generator.seed = seed
        generator.on_final = on_final
        generator.minimize = False
        generator.pfa = pfa.source if isinstance(pfa, CompiledPFA) else pfa
        generator.dfa = None  # type: ignore[assignment]
        generator._sampler = PatternSampler(pfa, seed=seed, on_final=on_final)
        generator.generated = 0
        return generator

    def generate(self, size: int, pattern_id: int = 0) -> TestPattern:
        """Algorithm 2: one pattern of (at most) ``size`` services."""
        if size < 1:
            raise ConfigError(f"pattern size must be >= 1, got {size}")
        sampled = self._sampler.sample(size)
        self.generated += 1
        return TestPattern(
            pattern_id=pattern_id,
            symbols=sampled.symbols,
            states=sampled.states,
            log_probability=sampled.log_probability,
        )

    def generate_batch(self, count: int, size: int) -> list[TestPattern]:
        """Algorithm 1 lines 1-3: ``T[i] <- PatternGenerator(RE, PD, s)``."""
        if count < 1:
            raise ConfigError(f"pattern count must be >= 1, got {count}")
        return [self.generate(size, pattern_id=i) for i in range(count)]

    def accepts(self, symbols: tuple[str, ...] | list[str]) -> bool:
        """Whether a symbol sequence is a *prefix walk* of the PFA — used
        by tests to re-validate every generated pattern against the RE."""
        return self.pfa.walk_probability(tuple(symbols)) > 0.0


# Unwired; perfbench/traced.py imports BatchPatternStream (drop at re-cut).
@dataclass
class SharedPatternBatch:
    """One lockstep sampler feeding many cells' pattern streams.

    A batch of same-variant cells shares one
    :class:`~repro.automata.batch.BatchSampler` over the variant's
    compiled automaton, with one column per cell (seeded with that
    cell's own generator seed).  Each cell's patterns are staged in a
    per-cell FIFO: whenever a cell needs a pattern its queue does not
    hold, one lockstep ``sample(size)`` advances *every* cell by one
    pattern.  Per-cell draw order is the scalar order, so the queue a
    cell drains equals what its own ``PatternSampler(seed)`` would
    produce, however the cells interleave.  ``size`` is fixed per
    batch; :meth:`next_pattern` rejects a mismatching request.
    """

    pfa: PFA | CompiledPFA
    seeds: Sequence[int | None]
    size: int
    on_final: OnFinal = "stop"
    sampler: BatchSampler = field(init=False, repr=False)
    _queues: list[deque] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(
                f"pattern size must be >= 1, got {self.size}"
            )
        self.sampler = BatchSampler(self.pfa, self.seeds, on_final=self.on_final)
        self._queues = [deque() for _ in self.seeds]

    def prime(self, rounds: int) -> None:
        """Pre-draw ``rounds`` patterns per cell."""
        for _ in range(rounds):
            self._advance()

    def _advance(self) -> None:
        batch = self.sampler.sample_batch(self.size)
        for queue in self._queues:
            queue.append(batch)

    def next_pattern(self, cell: int, size: int) -> SampledPattern:
        """Cell ``cell``'s next pattern."""
        if size != self.size:
            raise ConfigError(
                f"shared pattern batch was built for size {self.size}, "
                f"cell requested {size}"
            )
        queue = self._queues[cell]
        if not queue:
            self._advance()
        return queue.popleft().pattern(cell)

    def stream(self, cell: int) -> "BatchPatternStream":
        """Cell ``cell``'s generator-shaped view of this batch."""
        return BatchPatternStream(shared=self, cell=cell)


@dataclass
class BatchPatternStream:
    """One cell's :class:`PatternGenerator`-shaped view of a
    :class:`SharedPatternBatch`: :meth:`generate` and
    :meth:`generate_batch` with the generator's validation errors, and
    the ``generated`` counter."""

    shared: SharedPatternBatch
    cell: int
    generated: int = 0

    def generate(self, size: int, pattern_id: int = 0) -> TestPattern:
        if size < 1:
            raise ConfigError(f"pattern size must be >= 1, got {size}")
        sampled = self.shared.next_pattern(self.cell, size)
        self.generated += 1
        return TestPattern(
            pattern_id=pattern_id,
            symbols=sampled.symbols,
            states=sampled.states,
            log_probability=sampled.log_probability,
        )

    # Defined here, not inherited: perfbench/traced.py wraps vars(cls).
    def generate_batch(self, count: int, size: int) -> list[TestPattern]:
        if count < 1:
            raise ConfigError(f"pattern count must be >= 1, got {count}")
        return [self.generate(size, pattern_id=i) for i in range(count)]
