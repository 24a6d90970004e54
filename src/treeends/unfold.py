"""Explicit truncations of the tree a germ unfolds to.

Nodes are numbered breadth first, tier by tier, children in edge declaration
order, so equal germs always unfold to identical node tables.  A truncation
is kept as flat columns, one entry per node, and a null forest as positions
into those columns; the package builds no per-node record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import not_, sub
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
    """A depth-``d`` truncation, kept as flat columns indexed by position.

    Position p holds node ``ids[p]``: the id ``parent[p]`` of its parent
    (None at the root), its germ vertex ``vertex[p]``, the label ``label[p]``
    of the edge into it (None at the root) and its flag ``positive[p]``.
    Positions run in nondecreasing tier order, tier k being the slice
    ``tier_starts[k] : tier_starts[k + 1]``, so position 0 holds the root,
    the one node without a parent.  Ids are stable under
    filtering: ``ids`` is a range for a full truncation and a list after
    ``positive_part``.  ``nodes``, the tuple of ``TreeNode`` records, is a
    read-only view built on first read and cached; the package reads the
    columns and never builds it, and the view stays only because the
    benchmark's truncation size hook counts nodes by it.  The position map
    and the child lists behind ``children`` are built on first use."""

    def __init__(
        self, depth: int, tier_starts, ids, parent: list, vertex: list, label: list, positive: list
    ) -> None:
        self.depth = depth
        self.tier_starts: tuple[int, ...] = tuple(tier_starts)  # tiers 0..depth+1
        self.ids = ids
        self.parent = parent
        self.vertex = vertex
        self.label = label
        self.positive = positive

    def tiers(self):
        """Each node's tier, in position order."""
        starts = self.tier_starts
        return chain.from_iterable(map(repeat, range(self.depth + 1), map(sub, starts[1:], starts)))

    def rows(self):
        """Each node's fields in ``TreeNode`` order, as plain tuples, in
        position order."""
        return zip(self.ids, self.tiers(), self.parent, self.vertex, self.label, self.positive)

    @cached_property
    def _nodes(self) -> tuple[TreeNode, ...]:
        return tuple(map(TreeNode._make, self.rows()))

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """Every node as a ``TreeNode``, in position order."""
        return self._nodes

    @cached_property
    def position(self):
        """Node id -> its position in the columns: ``range.index`` on a range
        of ids, a dict lookup on a list."""
        ids = self.ids
        return ids.index if isinstance(ids, range) else dict(zip(ids, range(len(ids)))).__getitem__

    @cached_property
    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {i: [] for i in self.ids}
        for i, p in zip(self.ids, self.parent):
            if p is not None:
                children[p].append(i)
        return children

    def children(self, node_id: int) -> tuple[int, ...]:
        return tuple(self._children[node_id])

    def prefix(self, depth: int) -> TruncatedTree:
        """The truncation at ``depth`` <= ``self.depth``: a tier prefix of
        every column."""
        n = self.tier_starts[depth + 1]
        return TruncatedTree(
            depth, self.tier_starts[: depth + 2], self.ids[:n],
            self.parent[:n], self.vertex[:n], self.label[:n], self.positive[:n],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedTree)
            and self.depth == other.depth
            and self.tier_starts == other.tier_starts
            and list(self.ids) == list(other.ids)
            and (self.parent, self.vertex, self.label, self.positive)
            == (other.parent, other.vertex, other.label, other.positive)
        )

    def __repr__(self) -> str:
        return f"TruncatedTree(depth={self.depth}, nodes={len(self.ids)})"


def truncate(g: GermGraph, depth: int, ceiling: int = DEFAULT_CEILING) -> TruncatedTree:
    """Unfold ``g`` to tiers 0..depth, filling the columns tier by tier.

    Raises SizeCeilingError naming the first offending tier if the node count
    would pass ``ceiling``; a tier is counted from its parents' out-degrees
    before any of its nodes is made.
    """
    require_valid(g)
    if type(depth) is not int:
        raise DomainError(f"depth {depth!r} is not an int")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    # germ vertex -> its out-degree, and its children's columns in declaration
    # order: vertices, labels, and positive flags under a positive parent and
    # under a null one
    degree: dict = {}
    kids: dict = {}
    for v in g.vertices:
        out = [e for _, e in g.out_edges(v)]
        degree[v] = len(out)
        kids[v] = ([e.dst for e in out], [e.label for e in out], [e.label > 0 for e in out], [False] * len(out))
    parent: list = [None]
    vertex: list = [g.root]
    label: list = [None]
    positive: list = [True]
    starts = [0, 1]
    for tier in range(1, depth + 1):
        first = starts[-2]
        size = starts[-1] + sum(map(degree.__getitem__, vertex[first:]))
        if size > ceiling:
            raise SizeCeilingError(f"truncation at tier {tier}", size, ceiling)
        for pid in range(first, starts[-1]):
            dsts, labels, flags, nulls = kids[vertex[pid]]
            parent += repeat(pid, len(dsts))
            vertex += dsts
            label += labels
            positive += flags if positive[pid] else nulls
        starts.append(size)
    return TruncatedTree(depth, starts, range(starts[-1]), parent, vertex, label, positive)


def positive_part(t: TruncatedTree) -> TruncatedTree:
    """Restriction to nodes whose root path has no 0 label.  Ids survive."""
    keep = t.positive
    counts = (keep[lo:hi].count(True) for lo, hi in pairwise(t.tier_starts))
    ids = list(compress(t.ids, keep))
    return TruncatedTree(
        t.depth, accumulate(counts, initial=0), ids,
        list(compress(t.parent, keep)), list(compress(t.vertex, keep)), list(compress(t.label, keep)),
        [True] * len(ids),
    )


@dataclass(frozen=True)
class NullForest:
    """The non-positive part of ``tree``, as positions into its columns:
    component k is ``positions[starts[k] : starts[k + 1]]``, in position
    order, so it starts at its root, a non-positive node whose parent is
    positive.  The last start is ``len(positions)``."""

    tree: TruncatedTree
    positions: list
    starts: tuple


def null_forest(t: TruncatedTree) -> NullForest:
    """Connected components of the non-positive part of ``t``.

    One pass over the null positions, parents before children: a
    non-positive node starts a component when its parent is positive and
    joins its parent's component otherwise."""
    components: list = []
    member_of: dict = {}  # non-positive node id -> its component's positions
    null = list(map(not_, t.positive))
    for p, node_id, up in zip(compress(range(len(null)), null), compress(t.ids, null), compress(t.parent, null)):
        comp = member_of.get(up)
        if comp is None:
            comp = []
            components.append(comp)
        comp.append(p)
        member_of[node_id] = comp
    return NullForest(
        t, list(chain.from_iterable(components)), tuple(accumulate(map(len, components), initial=0))
    )


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
    reach_from: dict = {}  # vertex -> the vertices it reaches, for this call only
    for v in zone:
        out = g.out_edges(v)
        if len(out) > 1:
            for _, e in out:
                if e.dst not in reach_from:
                    reach_from[e.dst] = reachable(g, (e.dst,))
            if sum(v in reach_from[e.dst] for _, e in out) > 1:
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
        if not any(diffs):
            return GrowthClass.POLYNOMIAL
        if len(diffs) < 2:
            break
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if all(c > 0 for c in tail) and all(4 * b >= 5 * a for a, b in zip(tail, tail[1:])):
        if tail[-1] > tail[0]:
            return GrowthClass.EXPONENTIAL
    return GrowthClass.UNKNOWN
