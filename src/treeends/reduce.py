"""Tier-collapsing reductions of truncated trees and germ-level powers."""

from __future__ import annotations

from .errors import DomainError, SizeCeilingError
from .germ import GermEdge, GermGraph, check_label, require_valid
from .unfold import DEFAULT_CEILING, TreeNode, TruncatedTree


def elementary_reduction(t: TruncatedTree, i: int, j: int) -> TruncatedTree:
    """Collapse tiers i+1..j-1: every tier-j node reattaches to its tier-i
    ancestor with the product of the path labels, deeper tiers shift up,
    and node ids are renumbered breadth first.  j = i+1 changes nothing.
    """
    if not (0 <= i < j <= t.depth):
        raise DomainError(f"need 0 <= i < j <= {t.depth}, got i={i}, j={j}")
    removed = j - i - 1
    kept = []
    for node in t.nodes:
        if i < node.tier < j:
            continue
        new_tier = node.tier if node.tier <= i else node.tier - removed
        kept.append((new_tier, node))
    kept.sort(key=lambda pair: (pair[0], pair[1].id))

    new_id = {node.id: idx for idx, (_, node) in enumerate(kept)}
    rebuilt: list[TreeNode] = []
    positive_of: dict[int, bool] = {}
    for new_tier, node in kept:
        if node.parent is None:
            rebuilt.append(TreeNode(0, 0, None, node.germ_vertex, None, True))
            positive_of[0] = True
            continue
        if node.tier == j:
            # Walk up to the tier-i ancestor, multiplying labels on the way.
            label = 1
            cur = node
            while cur.tier > i:
                label *= cur.label
                cur = t.node(cur.parent)
            label = check_label(label)
            parent = new_id[cur.id]
        else:
            label = node.label
            parent = new_id[node.parent]
        positive = positive_of[parent] and label > 0
        nid = new_id[node.id]
        rebuilt.append(TreeNode(nid, new_tier, parent, node.germ_vertex, label, positive))
        positive_of[nid] = positive
    return TruncatedTree(t.depth - removed, tuple(rebuilt))


def germ_power_detailed(
    g: GermGraph, m: int, ceiling: int = DEFAULT_CEILING
) -> tuple[GermGraph, tuple[tuple[int, ...], ...]]:
    """Power germ plus, for each new edge, the tuple of original edge
    indices of the length-m path it came from."""
    require_valid(g)
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
