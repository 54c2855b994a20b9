"""The pCore task-behaviour model of Section IV-A.

RE (2) of the paper::

    RE = TC ((TCH)* | TS TR (TCH)*)* (TD$ | TY$)

and the PFA of Fig. 5.  The figure labels thirteen edges ``a`` .. ``m``
with probabilities; the text does not spell out every edge's endpoints,
but the row-stochasticity requirement (Eq. (1)) pins the grouping down
uniquely: the four probabilities {0.6, 0.1, 0.1, 0.2} leaving TC, the
four {0.6, 0.2, 0.1, 0.1} leaving TCH, the single 1.0 edge TS->TR, and
the four {0.1, 0.4, 0.3, 0.2} leaving TR (each group sums to one).  The
assignment used here:

====== ===== ====== =====
edge   from  to     prob
====== ===== ====== =====
(init) start TC     1.0
a      TC    TCH    0.6
b      TC    TS     0.1
c      TC    TY     0.1
d      TC    TD     0.2
e      TS    TR     1.0
f      TCH   TCH    0.6
g      TCH   TS     0.2
h      TCH   TD     0.1
i      TCH   TY     0.1
j      TR    TS     0.1
k      TR    TCH    0.4
l      TR    TD     0.3
m      TR    TY     0.2
====== ===== ====== =====

Note Fig. 5's PFA is *not* the minimal DFA of RE (2): TC and TCH are
Myhill-Nerode equivalent but carry different probability rows, which is
why the generator keeps the unminimised automaton by default.
"""

from __future__ import annotations

from repro.automata.pfa import PFA, Transition

#: RE (2), written with explicit spaces (the tokenizer also accepts the
#: paper's juxtaposed ``TSTR`` form when given the alphabet).
PCORE_REGULAR_EXPRESSION = "TC ((TCH)* | TS TR (TCH)*)* (TD$ | TY$)"

#: The Table I service abbreviations, i.e. the PFA alphabet.
PCORE_SERVICES: tuple[str, ...] = ("TC", "TD", "TS", "TR", "TCH", "TY")

#: State ids of the hand-built Fig. 5 PFA.
START, S_TC, S_TCH, S_TS, S_TR, S_TD, S_TY = range(7)

_STATE_LABELS = {
    START: "start",
    S_TC: "TC",
    S_TCH: "TCH",
    S_TS: "TS",
    S_TR: "TR",
    S_TD: "TD",
    S_TY: "TY",
}

#: The thirteen labelled edges plus the initial arc, as in Fig. 5.
PCORE_EDGES: tuple[tuple[int, str, int, float], ...] = (
    (START, "TC", S_TC, 1.0),
    (S_TC, "TCH", S_TCH, 0.6),   # a
    (S_TC, "TS", S_TS, 0.1),     # b
    (S_TC, "TY", S_TY, 0.1),     # c
    (S_TC, "TD", S_TD, 0.2),     # d
    (S_TS, "TR", S_TR, 1.0),     # e
    (S_TCH, "TCH", S_TCH, 0.6),  # f
    (S_TCH, "TS", S_TS, 0.2),    # g
    (S_TCH, "TD", S_TD, 0.1),    # h
    (S_TCH, "TY", S_TY, 0.1),    # i
    (S_TR, "TS", S_TS, 0.1),     # j
    (S_TR, "TCH", S_TCH, 0.4),   # k
    (S_TR, "TD", S_TD, 0.3),     # l
    (S_TR, "TY", S_TY, 0.2),     # m
)


def pcore_pfa() -> PFA:
    """Build the exact Fig. 5 PFA (seven states, paper probabilities)."""
    transitions: dict[int, dict[str, Transition]] = {}
    for source, symbol, target, probability in PCORE_EDGES:
        transitions.setdefault(source, {})[symbol] = Transition(
            source=source, symbol=symbol, target=target, probability=probability
        )
    return PFA(
        num_states=7,
        alphabet=frozenset(PCORE_SERVICES),
        transitions=transitions,
        start=START,
        accepts=frozenset({S_TD, S_TY}),
        state_labels=dict(_STATE_LABELS),
    )


def pcore_distribution() -> dict[tuple[str, str], float]:
    """The Fig. 5 probabilities keyed by ``(state_label, symbol)`` — the
    form :func:`repro.ptest.generator.resolve_label_distribution` takes."""
    return {
        (_STATE_LABELS[source], symbol): probability
        for source, symbol, _target, probability in PCORE_EDGES
    }


def uniform_pcore_pfa() -> PFA:
    """The same structure with uniform rows — the "user knows nothing"
    baseline of the distribution-sensitivity experiment (E8)."""
    rows: dict[int, list[tuple[str, int]]] = {}
    for source, symbol, target, _probability in PCORE_EDGES:
        rows.setdefault(source, []).append((symbol, target))
    transitions: dict[int, dict[str, Transition]] = {}
    for source, arcs in rows.items():
        share = 1.0 / len(arcs)
        for symbol, target in arcs:
            transitions.setdefault(source, {})[symbol] = Transition(
                source=source, symbol=symbol, target=target, probability=share
            )
    return PFA(
        num_states=7,
        alphabet=frozenset(PCORE_SERVICES),
        transitions=transitions,
        start=START,
        accepts=frozenset({S_TD, S_TY}),
        state_labels=dict(_STATE_LABELS),
    )


def reweighted_pcore_pfa(
    weights: dict[tuple[str, str], float]
) -> PFA:
    """Fig. 5 structure with custom ``(state_label, symbol)`` weights,
    normalised per state.  Weights must cover exactly the existing arcs'
    rows they mention; unmentioned rows stay at the paper's values."""
    label_to_state = {label: state for state, label in _STATE_LABELS.items()}
    overrides: dict[tuple[int, str], float] = {}
    for (label, symbol), weight in weights.items():
        overrides[(label_to_state[label], symbol)] = weight
    touched_states = {state for state, _symbol in overrides}
    rows: dict[int, dict[str, tuple[int, float]]] = {}
    for source, symbol, target, probability in PCORE_EDGES:
        weight = overrides.get((source, symbol), probability)
        if source in touched_states and (source, symbol) not in overrides:
            weight = probability
        rows.setdefault(source, {})[symbol] = (target, weight)
    transitions: dict[int, dict[str, Transition]] = {}
    for source, arcs in rows.items():
        total = sum(weight for _target, weight in arcs.values())
        for symbol, (target, weight) in arcs.items():
            transitions.setdefault(source, {})[symbol] = Transition(
                source=source,
                symbol=symbol,
                target=target,
                probability=weight / total,
            )
    return PFA(
        num_states=7,
        alphabet=frozenset(PCORE_SERVICES),
        transitions=transitions,
        start=START,
        accepts=frozenset({S_TD, S_TY}),
        state_labels=dict(_STATE_LABELS),
    )
