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

from dataclasses import dataclass, field
from typing import Mapping

from repro.automata.compiled import CompiledPFA
from repro.automata.dfa import DFA, minimize_dfa, nfa_to_dfa
from repro.automata.distributions import TransitionDistribution
from repro.automata.nfa import regex_to_nfa
from repro.automata.pfa import PFA, build_pfa
from repro.automata.regex_parser import parse_regex
from repro.automata.sampling import OnFinal, PatternSampler
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

        Accepts a prebuilt :class:`CompiledPFA` too; seeded output is
        identical either way.
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


# Never instantiated; perfbench/traced.py wraps vars(cls) (drop at re-cut).
class BatchPatternStream:
    def generate_batch(self, count: int, size: int) -> list[TestPattern]:
        raise NotImplementedError
