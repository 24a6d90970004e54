"""Two models of the clone tree over the positive part of an unfolding.

The coset model names vertices by (base node, residue) pairs: a node whose
root path multiplies to n contributes residues 0..n-1, and the shift-by-one
map on residues is the odometer.  The wedge model grows the same tree by
copying subtrees child by child, coloring each vertex by how it arose.
Both constructions are deterministic, and ``colored_trees_isomorphic``
checks they agree as colored rooted trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import DomainError, SizeCeilingError
from .germ import GermGraph, walk_counts
from .unfold import (
    DEFAULT_CEILING,
    NullForest,
    TreeNode,
    TruncatedTree,
    positive_part,
    truncate,
)

BLACK = "black"
GRAY = "gray"
DASHED = "dashed"


class CosetTree:
    """Clone tree in residue coordinates over a positive truncation."""

    def __init__(self, base: TruncatedTree, ceiling: int = DEFAULT_CEILING):
        for node in base.nodes:
            if not node.positive:
                raise DomainError(
                    f"coset model needs a positive base tree; node {node.id} is not"
                )
        self.base = base
        self.order_of: dict = {}
        total = 0
        for node in base.nodes:  # BFS order, parents first
            if node.parent is None:
                self.order_of[node.id] = 1
            else:
                self.order_of[node.id] = self.order_of[node.parent] * node.label
            total += self.order_of[node.id]
            if total > ceiling:
                raise SizeCeilingError("coset tree vertices", total, ceiling)
        verts = []
        for depth_nodes in self._base_tiers():
            for node in depth_nodes:
                for residue in range(self.order_of[node.id]):
                    verts.append((node.id, residue))
        self.verts: tuple = tuple(verts)
        self._tiers: tuple = tuple(base.node(bid).tier for bid, _ in verts)
        self.index: dict = {bv: i for i, bv in enumerate(self.verts)}
        self.parent_idx: list = []
        for bid, residue in self.verts:
            node = base.node(bid)
            if node.parent is None:
                self.parent_idx.append(None)
            else:
                self.parent_idx.append(
                    self.index[(node.parent, residue % self.order_of[node.parent])]
                )

    def _base_tiers(self) -> list:
        tiers: list = [[] for _ in range(self.base.depth + 1)]
        for node in self.base.nodes:
            tiers[node.tier].append(node)
        return tiers

    @property
    def depth(self) -> int:
        return self.base.depth

    def tier(self, vert_idx: int) -> int:
        return self._tiers[vert_idx]

    @property
    def root_index(self) -> int:
        return self.index[(self.base.root.id, 0)]


def lambda_plus(positive_tree: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> CosetTree:
    return CosetTree(positive_tree, ceiling=ceiling)


@dataclass(frozen=True)
class OdometerMap:
    """Residue shift (b, a) -> (b, a+1 mod order) on a coset tree."""

    coset: CosetTree

    def image_index(self, vert_idx: int, power: int = 1) -> int:
        bid, residue = self.coset.verts[vert_idx]
        n = self.coset.order_of[bid]
        return self.coset.index[(bid, (residue + power) % n)]


def frontier_count(germ: GermGraph, tier: int) -> int:
    """Number of clone-tree vertices over tier ``tier``.

    Counts label-weighted positive paths of length ``tier`` from the root,
    which avoids materializing the tree.
    """
    if tier < 0:
        raise DomainError("tier must be nonnegative")
    return next(islice(walk_counts(germ, (germ.root,), lambda e: e.label, tier), tier, None))


class ColoredNode(NamedTuple):
    id: int
    parent: int | None
    color: str | None  # None at the root, else BLACK / GRAY / DASHED
    original: bool
    germ_vertex: str
    label: int  # label of the edge from the parent; 0 at the root
    residue: int | None  # set in the coset construction, None in the wedge


class ColoredTree:
    def __init__(self, nodes: list):
        self.nodes: tuple = tuple(nodes)
        self.children: list = [[] for _ in self.nodes]
        for node in self.nodes:
            if node.parent is not None:
                self.children[node.parent].append(node.id)

    def __len__(self) -> int:
        return len(self.nodes)

    def canonical_key(self, node_id: int = 0):
        node = self.nodes[node_id]
        kids = sorted(self.canonical_key(c) for c in self.children[node_id])
        return (node.color, node.original, node.germ_vertex, node.label, tuple(kids))


def colored_trees_isomorphic(a: ColoredTree, b: ColoredTree) -> bool:
    if len(a) != len(b):
        return False
    return a.canonical_key() == b.canonical_key()


def wedge_expansion(
    tree: TruncatedTree, ceiling: int = DEFAULT_CEILING
) -> ColoredTree:
    """Grow the clone tree by copying: positive children of an original
    vertex contribute one black copy and label-1 gray copies, zero-label
    children contribute one dashed copy, and every copy under a gray vertex
    is gray with no dashed part."""
    root = tree.root
    nodes = [ColoredNode(0, None, None, True, root.germ_vertex, 0, None)]
    queue = [(0, root.id)]
    head = 0
    while head < len(queue):
        colored_id, base_id = queue[head]
        head += 1
        me = nodes[colored_id]
        for child_id in tree.children(base_id):
            child = tree.node(child_id)
            if child.label > 0:
                copies = []
                if me.original:
                    copies.append((BLACK, True))
                    copies.extend((GRAY, False) for _ in range(child.label - 1))
                else:
                    copies.extend((GRAY, False) for _ in range(child.label))
                for color, original in copies:
                    nid = len(nodes)
                    if nid >= ceiling:
                        raise SizeCeilingError("wedge tree vertices", nid + 1, ceiling)
                    nodes.append(
                        ColoredNode(nid, colored_id, color, original, child.germ_vertex, child.label, None)
                    )
                    queue.append((nid, child_id))
            else:
                if me.original:
                    nid = len(nodes)
                    if nid >= ceiling:
                        raise SizeCeilingError("wedge tree vertices", nid + 1, ceiling)
                    nodes.append(ColoredNode(nid, colored_id, DASHED, True, child.germ_vertex, 0, None))
                    queue.append((nid, child_id))
    return ColoredTree(nodes)


def lambda_of_coset(coset: CosetTree, null_parts: NullForest) -> ColoredTree:
    """Color the coset model: residue-0 vertices are the original copy
    (black edges into them), other residues are gray, and each null
    component hangs dashed off the residue-0 copy of its attach point."""
    nodes = []
    colored_of_vert: dict = {}
    for i, (bid, residue) in enumerate(coset.verts):
        parent_vert = coset.parent_idx[i]
        if parent_vert is None:
            parent_colored = None
            color = None
        else:
            parent_colored = colored_of_vert[parent_vert]
            color = BLACK if residue == 0 else GRAY
        base_node = coset.base.node(bid)
        nid = len(nodes)
        colored_of_vert[i] = nid
        label = base_node.label if parent_vert is not None else 0
        nodes.append(
            ColoredNode(nid, parent_colored, color, residue == 0, base_node.germ_vertex, label, residue)
        )
    for comp in null_parts.components:
        colored_of_node: dict = {}
        for tnode in comp.nodes:
            if tnode.id == comp.root_id:
                attach_vert = coset.index[(tnode.parent, 0)]
                parent_colored = colored_of_vert[attach_vert]
            else:
                parent_colored = colored_of_node[tnode.parent]
            nid = len(nodes)
            colored_of_node[tnode.id] = nid
            nodes.append(
                ColoredNode(nid, parent_colored, DASHED, True, tnode.germ_vertex, tnode.label, None)
            )
    return ColoredTree(nodes)


def clone_tree_models(
    germ: GermGraph, depth: int, ceiling: int = DEFAULT_CEILING
) -> tuple:
    """Build both clone-tree models at the given depth.

    Returns (coset colored tree, wedge colored tree); the two are isomorphic
    as colored rooted trees for every valid germ.
    """
    from .unfold import null_forest

    tree = truncate(germ, depth, ceiling=ceiling)
    pos = positive_part(tree)
    coset = lambda_plus(pos, ceiling=ceiling)
    via_coset = lambda_of_coset(coset, null_forest(tree))
    via_wedge = wedge_expansion(tree, ceiling=ceiling)
    return via_coset, via_wedge
