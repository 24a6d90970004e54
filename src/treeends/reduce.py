"""Tier-collapsing reductions of truncated trees and germ-level powers."""

from __future__ import annotations

from .errors import DomainError, SizeCeilingError
from .germ import GermEdge, GermGraph, check_label, require_valid
from .unfold import DEFAULT_CEILING, TruncatedTree


def elementary_reduction(t: TruncatedTree, i: int, j: int) -> TruncatedTree:
    """Collapse tiers i+1..j-1: every tier-j node reattaches to its tier-i
    ancestor with the product of the path labels, deeper tiers shift up,
    and node ids are renumbered breadth first.  j = i+1 changes nothing.
    """
    for tier in (i, j):
        if type(tier) is not int:
            raise DomainError(f"tier {tier!r} is not an int")
    if not (0 <= i < j <= t.depth):
        raise DomainError(f"need 0 <= i < j <= {t.depth}, got i={i}, j={j}")
    starts = t.tier_starts
    # tiers i+1..j-1 sit at positions inner..outer-1, tier j up to below
    inner, outer, below = starts[i + 1], starts[j], starts[j + 1]
    gap = outer - inner
    up = [None, *map(t.position, t.parent[1:])]  # each parent's position
    parent = up[:inner]
    label = t.label[:inner]
    for p in range(outer, below):
        # walk up to the tier-i ancestor, multiplying labels on the way
        product, cur = 1, p
        while cur >= inner:
            product *= t.label[cur]
            cur = up[cur]
        parent.append(cur)
        label.append(check_label(product))
    parent += [q - gap for q in up[below:]]
    label += t.label[below:]
    # a product of nonnegative labels is positive exactly when every factor
    # is, so each kept node keeps its flag
    return TruncatedTree(
        t.depth - (j - i - 1), (*starts[: i + 1], *(s - gap for s in starts[j:])), range(len(parent)),
        parent, t.vertex[:inner] + t.vertex[outer:], label, t.positive[:inner] + t.positive[outer:],
    )


def germ_power_detailed(
    g: GermGraph, m: int, ceiling: int = DEFAULT_CEILING
) -> tuple[GermGraph, tuple[tuple[int, ...], ...]]:
    """Power germ plus, for each new edge, the tuple of original edge
    indices of the length-m path it came from."""
    require_valid(g)
    if type(m) is not int:
        raise DomainError(f"power {m!r} is not an int")
    if m < 1:
        raise DomainError("power must be at least 1")
    edges: list[GermEdge] = []
    paths: list[tuple[int, ...]] = []
    for src in g.vertices:
        # Depth-first in declaration order gives lexicographic path order.
        stack = [(src, (), 1)]
        while stack:
            at, trail, label = stack.pop()
            if len(trail) == m:
                edges.append(GermEdge(src, at, check_label(label)))
                paths.append(trail)
                if len(edges) > ceiling:
                    raise SizeCeilingError("powered germ edges", len(edges), ceiling)
                continue
            for idx, e in reversed(g.out_edges(at)):
                stack.append((e.dst, trail + (idx,), label * e.label))
    powered = GermGraph(vertices=g.vertices, root=g.root, edges=tuple(edges))
    require_valid(powered)
    return powered, tuple(paths)


def germ_power(g: GermGraph, m: int, ceiling: int = DEFAULT_CEILING) -> GermGraph:
    """Replace edges by all length-m paths, labels multiplied along the way.

    Vertices and root are unchanged and the result is re-validated; a germ
    whose vertices are only reachable by path lengths coprime to ``m`` fails
    that validation, which is reported rather than silently repaired.
    """
    powered, _ = germ_power_detailed(g, m, ceiling)
    return powered
