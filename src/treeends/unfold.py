"""Explicit truncations of the tree a germ unfolds to.

Nodes are numbered breadth first, tier by tier, children in edge declaration
order, so equal germs always unfold to identical node tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

from .errors import DomainError, SizeCeilingError
from .germ import GermGraph, reachable, require_valid, walk_counts

DEFAULT_CEILING = 10**6


class TreeNode(NamedTuple):
    id: int
    tier: int
    parent: int | None
    germ_vertex: str
    label: int | None  # label of the incoming edge; None at the root
    positive: bool  # no 0 label anywhere on the root path


class TruncatedTree:
    """A depth-``d`` truncation.  Node ids are stable under filtering."""

    def __init__(self, depth: int, nodes: tuple[TreeNode, ...]) -> None:
        self.depth = depth
        self.nodes = nodes
        self._by_id = {n.id: n for n in nodes}
        self._children: dict[int, list[int]] = {n.id: [] for n in nodes}
        for n in nodes:
            if n.parent is not None:
                self._children[n.parent].append(n.id)

    def node(self, node_id: int) -> TreeNode:
        return self._by_id[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        return tuple(self._children[node_id])

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def tier_nodes(self, tier: int) -> list[TreeNode]:
        return [n for n in self.nodes if n.tier == tier]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedTree)
            and self.depth == other.depth
            and self.nodes == other.nodes
        )

    def __repr__(self) -> str:
        return f"TruncatedTree(depth={self.depth}, nodes={len(self.nodes)})"


def truncate(g: GermGraph, depth: int, ceiling: int = DEFAULT_CEILING) -> TruncatedTree:
    """Unfold ``g`` to tiers 0..depth.

    Raises SizeCeilingError naming the first offending tier if the node count
    would pass ``ceiling``.
    """
    require_valid(g)
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    nodes = [TreeNode(0, 0, None, g.root, None, True)]
    tier_start = 0
    for tier in range(1, depth + 1):
        next_nodes: list[TreeNode] = []
        for parent in nodes[tier_start:]:
            for _, e in g.out_edges(parent.germ_vertex):
                positive = parent.positive and e.label > 0
                next_nodes.append(
                    TreeNode(len(nodes) + len(next_nodes), tier, parent.id, e.dst, e.label, positive)
                )
        if len(nodes) + len(next_nodes) > ceiling:
            raise SizeCeilingError(f"truncation at tier {tier}", len(nodes) + len(next_nodes), ceiling)
        tier_start = len(nodes)
        nodes.extend(next_nodes)
    return TruncatedTree(depth, tuple(nodes))


def positive_part(t: TruncatedTree) -> TruncatedTree:
    """Restriction to nodes whose root path has no 0 label.  Ids survive."""
    return TruncatedTree(t.depth, tuple(n for n in t.nodes if n.positive))


@dataclass(frozen=True)
class NullComponent:
    root_id: int  # a non-positive node whose parent is positive
    nodes: tuple[TreeNode, ...]  # the whole non-positive subtree, in id order


@dataclass(frozen=True)
class NullForest:
    components: tuple[NullComponent, ...]


def null_forest(t: TruncatedTree) -> NullForest:
    """Connected components of the non-positive part of ``t``."""
    components = []
    for n in t.nodes:
        if n.positive:
            continue
        parent_positive = n.parent is not None and t.node(n.parent).positive
        if not parent_positive:
            continue
        ids = []
        stack = [n.id]
        while stack:
            cur = stack.pop()
            ids.append(cur)
            stack.extend(reversed(t.children(cur)))
        component_nodes = tuple(t.node(i) for i in sorted(ids))
        components.append(NullComponent(n.id, component_nodes))
    return NullForest(tuple(components))


class Cardinality(Enum):
    EMPTY = "Empty"
    COUNTABLY_INFINITE = "CountablyInfinite"
    UNCOUNTABLE = "Uncountable"

    def __str__(self) -> str:
        return self.value


def gamma_plus_is_finite(g: GermGraph) -> tuple[bool, int | None]:
    """Whether the positive part of the unfolding is finite.

    Returns (True, bound) with bound the longest positive path length from the
    root, or (False, None) when a positive cycle is reachable positively.
    The positively reachable vertices are peeled by in-degree (Kahn): a
    cycle never peels, and the longest-path DP runs in peel order.
    """
    require_valid(g)
    reach = reachable(g, (g.root,), lambda e: e.label > 0)
    indegree = dict.fromkeys(reach, 0)
    for e in g.edges:
        if e.label > 0 and e.src in reach:
            indegree[e.dst] += 1
    # every other reached vertex has an in-edge, so only the root can start
    peeled = [g.root] if indegree[g.root] == 0 else []
    longest = {g.root: 0}
    for v in peeled:
        for _, e in g.out_edges(v):
            if e.label > 0:
                longest[e.dst] = max(longest.get(e.dst, 0), longest[v] + 1)
                indegree[e.dst] -= 1
                if indegree[e.dst] == 0:
                    peeled.append(e.dst)
    if len(peeled) < len(reach):
        return (False, None)
    return (True, max(longest.values()))


def _null_zone(g: GermGraph) -> set[str]:
    """The null zone of a valid germ: the targets of 0-labeled edges.  On a
    valid germ every vertex is reachable and null-closure makes every edge
    out of the zone 0-labeled, so the zone is closed under out-edges."""
    return {e.dst for e in g.edges if e.label == 0}


def null_end_class(g: GermGraph) -> Cardinality:
    """How many ends the null subtrees of the unfolding contribute.

    Empty when no 0-labeled edge is reachable.  Uncountable when some null
    vertex has two out-edges that both lead back to it: two distinct cycles
    through a shared vertex, the same as a strongly connected piece with more
    internal edges than vertices.  Countably infinite otherwise.  At most
    one search per vertex, so O(V*E).
    """
    require_valid(g)
    zone = _null_zone(g)
    if not zone:
        return Cardinality.EMPTY
    reach_from = cache(lambda w: reachable(g, (w,)))
    for v in zone:
        out = g.out_edges(v)
        if len(out) > 1 and sum(v in reach_from(e.dst) for _, e in out) > 1:
            return Cardinality.UNCOUNTABLE
    return Cardinality.COUNTABLY_INFINITE


class GrowthClass(Enum):
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"
    UNKNOWN = "unknown"


def null_path_counts(g: GermGraph, n_max: int) -> list[int]:
    """Count, for n = 1..n_max, the directed length-n paths inside the null
    subgraph that start at an entry vertex.  The growth class of this count
    separates countably many null ends from uncountably many."""
    require_valid(g)
    return list(walk_counts(g, _null_zone(g), lambda e: int(e.label == 0), n_max))[1:]


def growth_class(counts: list[int]) -> GrowthClass:
    """Classify a count sequence on a finite window.

    Polynomial when a finite difference of order at most 8 vanishes on the
    tail; exponential when the tail ratios stay at or above 5/4.  Desk-scale
    oracle: germs whose growth has not separated by the window end come back
    UNKNOWN.
    """
    tail = counts[len(counts) // 3 :]
    diffs = list(tail)
    for _ in range(9):  # difference orders 0..8
        if all(x == 0 for x in diffs):
            return GrowthClass.POLYNOMIAL
        if len(diffs) < 2:
            break
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if all(c > 0 for c in tail) and all(4 * b >= 5 * a for a, b in zip(tail, tail[1:])):
        if tail[-1] > tail[0]:
            return GrowthClass.EXPONENTIAL
    return GrowthClass.UNKNOWN
