"""Incrementally maintained wait-for graph for deadlock detection.

The legacy detector rebuilt a :mod:`networkx` digraph from every mutex's
owner/waiter lists on *every* sweep and re-ran ``find_cycle`` — pure
overhead on the thousands of sweeps where nothing changed hands.

:class:`IncrementalWaitForGraph` keeps per-resource edge rows keyed by
each :class:`~repro.pcore.sync.KMutex`'s ``version`` counter: a sweep
re-derives edges only for mutexes whose version moved, and the cycle
search (a plain iterative DFS — no networkx in the hot path) runs only
when some edge row actually changed since the last search.  In the
steady state a sweep costs one integer comparison per mutex.

Edges follow the paper's convention: ``waiter -> owner`` labelled with
the contested resource.  A blocked task waits on exactly one resource,
so each waiter has at most one outgoing edge and ``(waiter, owner)``
identifies the resource uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


def find_cycle_edges(
    edges: Iterable[tuple[int, int]],
) -> list[tuple[int, int]] | None:
    """First cycle in a digraph, as its edge list, or ``None``.

    Deterministic: roots and successors are explored in sorted order, so
    the same edge set always yields the same cycle.  Iterative
    three-colour DFS — no recursion, no external graph library.

    The live sweep, :meth:`~repro.ptest.detector.BugDetector.sweep_batch`
    and :func:`~repro.ptest.detector.audit_deadlocks` all search through
    this one function, so a replayed snapshot yields the very cycle the
    live sweep found.
    """
    successors: dict[int, list[int]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    for row in successors.values():
        row.sort()
    WHITE, GRAY, BLACK = 0, 1, 2
    colour: dict[int, int] = {}
    for root in sorted(successors):
        if colour.get(root, WHITE) is not WHITE:
            continue
        # Stack of (node, iterator over successors); `path` mirrors the
        # gray chain so a back edge can be unwound into cycle edges.
        stack = [(root, iter(successors.get(root, ())))]
        colour[root] = GRAY
        path = [root]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = colour.get(child, WHITE)
                if state is GRAY:
                    start = path.index(child)
                    cycle_nodes = path[start:] + [child]
                    return list(zip(cycle_nodes, cycle_nodes[1:]))
                if state is WHITE:
                    colour[child] = GRAY
                    stack.append((child, iter(successors.get(child, ()))))
                    path.append(child)
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
                path.pop()
    return None


@dataclass
class IncrementalWaitForGraph:
    """Wait-for edges refreshed from mutex version deltas.

    ``refresh`` folds the kernel's resource table in; ``find_cycle``
    returns the (cached) first cycle.  Resources exposing an ``owner``
    attribute (mutexes) contribute edges, matching
    :meth:`PCoreKernel.wait_for_edges`; ownerless resources
    (semaphores) are skipped.  A resource without a ``version``
    counter still contributes edges — it just re-derives them on every
    refresh instead of only on version deltas.
    """

    _versions: dict[str, int] = field(default_factory=dict)
    _edges_by_resource: dict[str, tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )
    _dirty: bool = True
    _cached_cycle: list[tuple[int, int]] | None = None
    #: How many refreshes actually re-derived at least one edge row —
    #: observability for benchmarks and tests.
    rescans: int = 0
    #: How many cycle searches ran (vs. served from cache).
    searches: int = 0

    def refresh(self, resources: Mapping[str, object]) -> bool:
        """Fold in the current resource table; True when edges changed."""
        changed = False
        live: set[str] = set()
        for name, resource in resources.items():
            if not hasattr(resource, "owner"):
                continue  # semaphores: ownerless, no wait-for edges
            live.add(name)
            version = getattr(resource, "version", None)
            if version is not None:
                if self._versions.get(name) == version:
                    continue
                self._versions[name] = version
            owner = resource.owner
            if owner is None:
                edges: tuple[tuple[int, int], ...] = ()
            else:
                edges = tuple(
                    (waiter, owner) for waiter in resource.waiters
                )
            if self._edges_by_resource.get(name, ()) != edges:
                if edges:
                    self._edges_by_resource[name] = edges
                else:
                    self._edges_by_resource.pop(name, None)
                changed = True
        # Versionless resources never enter _versions, so sweep both maps.
        tracked = self._versions.keys() | self._edges_by_resource.keys()
        for name in [name for name in tracked if name not in live]:
            self._versions.pop(name, None)
            if self._edges_by_resource.pop(name, None) is not None:
                changed = True
        if changed:
            self.rescans += 1
            self._dirty = True
        return changed

    def edges(self) -> list[tuple[int, int, str]]:
        """Current ``(waiter, owner, resource)`` rows, resource-sorted."""
        return [
            (waiter, owner, name)
            for name in sorted(self._edges_by_resource)
            for waiter, owner in self._edges_by_resource[name]
        ]

    def resource_of(self, waiter: int, owner: int) -> str:
        """Name of the resource behind edge ``waiter -> owner``."""
        for name, edges in self._edges_by_resource.items():
            if (waiter, owner) in edges:
                return name
        raise KeyError(f"no wait-for edge {waiter} -> {owner}")

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        """The current flat ``(waiter, owner)`` edge set, in the exact
        order :meth:`find_cycle` feeds :func:`find_cycle_edges` — so a
        recorded snapshot replayed through
        :meth:`~repro.ptest.detector.BugDetector.sweep_batch` reproduces
        the live sweep's cycle bit for bit."""
        return tuple(
            edge
            for edges in self._edges_by_resource.values()
            for edge in edges
        )

    def find_cycle(self) -> list[tuple[int, int]] | None:
        """First wait-for cycle as edge pairs; cached until edges move."""
        if self._dirty:
            flat = [
                edge
                for edges in self._edges_by_resource.values()
                for edge in edges
            ]
            self._cached_cycle = find_cycle_edges(flat)
            self._dirty = False
            self.searches += 1
        return self._cached_cycle
