"""Markov-chain analysis of PFAs.

A PFA is a labelled Markov chain; this module computes the quantities the
paper's future work asks about ("identify the influence of probability
distributions on the generation of test pattern"): expected pattern
length, stationary behaviour, per-state choice entropy and exact string
probabilities.  numpy does the linear algebra.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.automata.pfa import PFA
from repro.errors import AutomatonError


def transition_matrix(pfa: PFA) -> np.ndarray:
    """Dense row-stochastic matrix of the PFA's underlying chain.

    Absorbing states get a self-loop so every row sums to one; this is
    the standard embedding for absorbing-chain analysis.
    """
    matrix = np.zeros((pfa.num_states, pfa.num_states))
    for state in range(pfa.num_states):
        arcs = pfa.outgoing(state)
        if not arcs:
            matrix[state, state] = 1.0
            continue
        for transition in arcs:
            matrix[state, transition.target] += transition.probability
    return matrix


def reachable_states(pfa: PFA) -> frozenset[int]:
    """States reachable from the start state along positive-probability
    arcs."""
    seen = {pfa.start}
    queue = deque([pfa.start])
    while queue:
        state = queue.popleft()
        for transition in pfa.outgoing(state):
            if transition.target not in seen:
                seen.add(transition.target)
                queue.append(transition.target)
    return frozenset(seen)


def absorbing_states(pfa: PFA) -> frozenset[int]:
    """States with no outgoing transitions (walks end here)."""
    return frozenset(
        state for state in range(pfa.num_states) if pfa.is_absorbing(state)
    )


def expected_pattern_length(pfa: PFA, max_condition: float = 1e12) -> float:
    """Expected number of symbols emitted before absorption.

    Uses the fundamental matrix ``N = (I - Q)^-1`` of the absorbing
    chain, where ``Q`` restricts the transition matrix to transient
    states.  Returns ``math.inf`` when the start state cannot reach an
    absorbing state (the walk never terminates).
    """
    absorbing = absorbing_states(pfa)
    reachable = reachable_states(pfa)
    if not (absorbing & reachable):
        return math.inf
    transient = sorted(reachable - absorbing)
    if pfa.start in absorbing:
        return 0.0
    index = {state: i for i, state in enumerate(transient)}
    q = np.zeros((len(transient), len(transient)))
    for state in transient:
        for transition in pfa.outgoing(state):
            if transition.target in index:
                q[index[state], index[transition.target]] += (
                    transition.probability
                )
    identity = np.eye(len(transient))
    system = identity - q
    if np.linalg.cond(system) > max_condition:
        return math.inf
    # Expected steps from each transient state: N @ 1.
    expected = np.linalg.solve(system, np.ones(len(transient)))
    return float(expected[index[pfa.start]])


def stationary_distribution(pfa: PFA, tolerance: float = 1e-12) -> np.ndarray:
    """Stationary distribution of the embedded chain (absorbing states
    self-loop).

    Solves ``pi P = pi`` with ``sum(pi) = 1`` via the eigenvector of the
    transposed matrix; for absorbing chains the mass concentrates on the
    absorbing states, which is itself informative (where do patterns
    end?).
    """
    matrix = transition_matrix(pfa)
    values, vectors = np.linalg.eig(matrix.T)
    best = None
    for i, value in enumerate(values):
        if abs(value - 1.0) < 1e-8:
            vector = np.real(vectors[:, i])
            if best is None or abs(vector).sum() > abs(best).sum():
                best = vector
    if best is None:
        raise AutomatonError("no unit eigenvalue found; matrix not stochastic?")
    best = np.abs(best)
    total = best.sum()
    if total < tolerance:
        raise AutomatonError("degenerate stationary vector")
    return best / total


def string_probability(pfa: PFA, word: Sequence[str]) -> float:
    """Exact probability that the PFA generates ``word`` and stops in a
    final state.  Mirrors :meth:`PFA.word_probability`, re-exported here
    for symmetry with the other analyses."""
    return pfa.word_probability(tuple(word))


def transition_entropy(pfa: PFA, state: int) -> float:
    """Shannon entropy (bits) of the choice made at ``state``.

    Zero for deterministic or absorbing states; higher entropy means the
    pattern generator explores more alternatives from that state.
    """
    arcs = pfa.outgoing(state)
    if len(arcs) <= 1:
        return 0.0
    return -sum(
        t.probability * math.log2(t.probability) for t in arcs
    )


def mean_entropy(pfa: PFA) -> float:
    """Average choice entropy over reachable non-absorbing states.

    A scalar "how adaptive is this distribution" summary used by the
    distribution-sensitivity experiment (E8).
    """
    states = [
        state
        for state in reachable_states(pfa)
        if not pfa.is_absorbing(state)
    ]
    if not states:
        return 0.0
    return sum(transition_entropy(pfa, state) for state in states) / len(states)
