"""Compiled PFA: flat per-state arrays for the sampling hot path.

:class:`~repro.automata.pfa.PFA` stores transitions as nested dicts of
:class:`~repro.automata.pfa.Transition` dataclasses, which is the right
shape for construction and validation but a poor one for Algorithm 2's
walk: the legacy sampler re-sorted each state's dict into a fresh
``Transition`` list on *every* emitted symbol and then did a linear
roulette-wheel scan over it.

:class:`CompiledPFA` precomputes, per state and in the same
symbol-sorted order the legacy path used:

* ``symbols[q]`` / ``targets[q]`` — parallel tuples of arc labels and
  destination states;
* ``cumulative[q]`` — the running probability sums (built by the same
  left-to-right float additions as the legacy scan, so a ``bisect``
  over the row picks the *bit-identical* arc for any RNG draw);
* ``log_probs[q]`` — cached ``math.log`` of each arc probability, so
  walk scoring adds precomputed floats instead of calling ``log`` per
  step.

The compiled form is read-only and derived once; ``source`` keeps the
originating :class:`PFA` for introspection (labels, DOT rendering,
word probabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from repro.automata.pfa import PFA, Transition


@dataclass(frozen=True)
class CompiledPFA:
    """Read-only, array-shaped view of a :class:`PFA` for fast sampling.

    Rows are indexed by state id; every row tuple lists the state's
    outgoing arcs sorted by symbol (the PFA's deterministic iteration
    order).  Absorbing states have empty rows.
    """

    source: PFA
    num_states: int
    start: int
    symbols: tuple[tuple[str, ...], ...]
    targets: tuple[tuple[int, ...], ...]
    probabilities: tuple[tuple[float, ...], ...]
    cumulative: tuple[tuple[float, ...], ...]
    log_probs: tuple[tuple[float, ...], ...]
    #: Fused per-state rows ``(arc_count, symbols, targets, cumulative,
    #: log_probs)`` so the sampling loop pays one state subscript (and no
    #: ``len`` call) per step.
    rows: tuple[
        tuple[
            int,
            tuple[str, ...],
            tuple[int, ...],
            tuple[float, ...],
            tuple[float, ...],
        ],
        ...,
    ]

    @classmethod
    def from_pfa(cls, pfa: PFA) -> "CompiledPFA":
        """Compile ``pfa``; the PFA is treated as immutable afterwards."""
        symbols: list[tuple[str, ...]] = []
        targets: list[tuple[int, ...]] = []
        probabilities: list[tuple[float, ...]] = []
        cumulative: list[tuple[float, ...]] = []
        log_probs: list[tuple[float, ...]] = []
        for state in range(pfa.num_states):
            arcs = pfa.outgoing(state)
            symbols.append(tuple(arc.symbol for arc in arcs))
            targets.append(tuple(arc.target for arc in arcs))
            probs = tuple(arc.probability for arc in arcs)
            probabilities.append(probs)
            cumulative.append(tuple(accumulate(probs)))
            log_probs.append(tuple(math.log(p) for p in probs))
        return cls(
            source=pfa,
            num_states=pfa.num_states,
            start=pfa.start,
            symbols=tuple(symbols),
            targets=tuple(targets),
            probabilities=tuple(probabilities),
            cumulative=tuple(cumulative),
            log_probs=tuple(log_probs),
            rows=tuple(
                (len(row[0]),) + row
                for row in zip(symbols, targets, cumulative, log_probs)
            ),
        )

    def is_absorbing(self, state: int) -> bool:
        return not self.rows[state][0]

    def arc_count(self, state: int) -> int:
        return self.rows[state][0]

    def interned_alphabet(self) -> tuple[tuple[str, ...], dict[str, int]]:
        """The automaton's symbol alphabet interned to integer ids.

        Symbols are numbered in first-appearance order scanning states
        ascending and each state's arcs in row order — the exact order
        :func:`repro.automata.batch.packed_rows` interns its symbol
        table, so ids agree between the packed arrays and every
        :class:`~repro.automata.batch.PatternBatch` row.  Returns
        ``(symbols, index)`` where ``symbols[i]`` and
        ``index[symbol]`` are inverse; built once and cached on the
        instance like the packed rows (and likewise excluded from
        pickles — it is pure derived data).
        """
        cached = self.__dict__.get("_alphabet")
        if cached is None:
            index: dict[str, int] = {}
            for row in self.symbols:
                for symbol in row:
                    if symbol not in index:
                        index[symbol] = len(index)
            cached = (tuple(index), index)
            object.__setattr__(self, "_alphabet", cached)
        return cached

    def __getstate__(self) -> dict:
        # The batch sampler caches its padded numpy packing on the
        # instance (see repro.automata.batch.packed_rows), and
        # interned_alphabet its id table; both are derived data (and
        # the packing is numpy arrays besides), so pickles — worker
        # dispatch, result payloads — carry only the real fields.
        state = dict(self.__dict__)
        state.pop("_packed_rows", None)
        state.pop("_alphabet", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def transition(self, state: int, index: int) -> Transition:
        """Materialise arc ``index`` of ``state`` as a :class:`Transition`
        (compatibility shim for callers of the legacy ``_choose``)."""
        return Transition(
            source=state,
            symbol=self.symbols[state][index],
            target=self.targets[state][index],
            probability=self.probabilities[state][index],
        )
