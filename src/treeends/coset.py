"""Two models of the clone tree over the positive part of an unfolding.

The coset model names vertices by (base node, residue) pairs: a node whose
root path multiplies to n contributes residues 0..n-1, and the shift-by-one
map on residues is the odometer.  The wedge model grows the same tree by
copying subtrees child by child, coloring each vertex by how it arose.
Both constructions are deterministic, and ``colored_trees_isomorphic``
checks they agree as colored rooted trees.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from typing import NamedTuple

from .errors import DomainError, SizeCeilingError
from .germ import GermGraph, walk_counts
from .unfold import (
    DEFAULT_CEILING,
    NullForest,
    TruncatedTree,
    null_forest,
    positive_part,
    truncate,
)

BLACK = "black"
GRAY = "gray"
DASHED = "dashed"


class CosetTree:
    """Clone tree in residue coordinates over a positive truncation.

    Each base node's residues form one run of consecutive vertices, and the
    runs come in tier order: vertex (b, r) is ``start[b] + r`` and its parent
    is ``start[parent] + r % order_of[parent]``.  ``runs`` lists each base
    node's start and order, in the base tree's position order.  So vertex 0
    is the root, and the vertices at tier <= i are the prefix
    ``range(ball_size(i))``.
    """

    def __init__(self, base: TruncatedTree, ceiling: int = DEFAULT_CEILING):
        self.base = base
        order_of = self.order_of = clone_orders(base, ceiling)
        start: dict = {}
        runs: list = []
        verts: list = []
        tiers: list = []
        parent_idx: list = []
        for node_id, tier, parent, _, label, _ in base.rows():  # tier order, so parents first
            order = order_of[node_id]
            start[node_id] = len(verts)
            runs.append((len(verts), order))
            verts += zip(repeat(node_id, order), range(order))
            tiers += repeat(tier, order)
            if parent is None:
                parent_idx += repeat(None, order)
            else:
                first = start[parent]
                parent_idx += list(range(first, first + order_of[parent])) * label
        self.runs: tuple = tuple(runs)
        self.verts: tuple = tuple(verts)
        self._tiers: tuple = tuple(tiers)
        self.index: dict = dict(zip(self.verts, range(len(verts))))
        self.parent_idx: list = parent_idx

    @property
    def depth(self) -> int:
        return self.base.depth

    def tier(self, vert_idx: int) -> int:
        return self._tiers[vert_idx]

    def ball_size(self, radius: int) -> int:
        """Number of vertices at tier <= ``radius``."""
        return bisect_right(self._tiers, radius)

    @property
    def root_index(self) -> int:
        return self.index[(self.base.ids[0], 0)]


def clone_orders(base: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> dict:
    """The clone count of each node of the positive truncation ``base``,
    keyed by node id: the product of the labels on its root path.  Their sum
    is the size of the clone tree over ``base``, so a caller knows that size
    before the tree is built.  Raises SizeCeilingError as soon as the
    running sum passes ``ceiling``."""
    if False in base.positive:
        node_id = base.ids[base.positive.index(False)]
        raise DomainError(f"coset model needs a positive base tree; node {node_id} is not")
    order_of: dict = {}
    total = 0
    for node_id, parent, label in zip(base.ids, base.parent, base.label):  # BFS order, parents first
        order = 1 if parent is None else order_of[parent] * label
        order_of[node_id] = order
        total += order
        if total > ceiling:
            raise SizeCeilingError("coset tree vertices", total, ceiling)
    return order_of


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
    """Colored nodes in id order; every child has a larger id than its
    parent."""

    def __init__(self, nodes: list):
        self.nodes: tuple = tuple(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def canonical_key(self, node_id: int = 0):
        """(color, original, germ vertex, label, sorted child keys) of the
        subtree at ``node_id``."""
        return _canonical_key(self, node_id, {})


def _canonical_key(tree: ColoredTree, node_id: int, interned: dict):
    """Canonical key of a subtree, built bottom-up: children have larger
    ids than their parent, so depth costs no recursion.  Keys made through
    one ``interned`` table are one object whenever they are equal, so they
    compare by identity however deep they nest."""
    kids: list = [[] for _ in tree.nodes]
    for node in reversed(tree.nodes[node_id:]):
        children = kids[node.id]
        children.sort()
        fields = (node.color, node.original, node.germ_vertex, node.label)
        key = fields + (tuple(children),)
        key = interned.setdefault((fields, tuple(map(id, children))), key)
        if node.id == node_id:
            return key
        kids[node.parent].append(key)


def colored_trees_isomorphic(a: ColoredTree, b: ColoredTree) -> bool:
    if len(a) != len(b):
        return False
    interned: dict = {}
    return _canonical_key(a, 0, interned) is _canonical_key(b, 0, interned)


def wedge_expansion(
    tree: TruncatedTree, ceiling: int = DEFAULT_CEILING
) -> ColoredTree:
    """Grow the clone tree by copying: positive children of an original
    vertex contribute one black copy and label-1 gray copies, zero-label
    children contribute one dashed copy, and every copy under a gray vertex
    is gray with no dashed part.  A base node's children are read from
    ``tree`` once, however many copies it has."""
    new = tuple.__new__
    nodes = [new(ColoredNode, (0, None, None, True, tree.vertex[0], 0, None))]
    append = nodes.append
    base_ids = [tree.ids[0]]  # the base node each colored node copies
    # base id -> each child's id, vertex, label and the (color, original) of
    # its copies under an original and under a clone
    kids: dict = {}
    for (colored_id, _, _, parent_original, _, _, _), base_id in zip(nodes, base_ids):
        children = kids.get(base_id)
        if children is None:
            children = kids[base_id] = []
            for child_id in tree.children(base_id):
                p = tree.position(child_id)
                label = tree.label[p]
                gray = [(GRAY, False)] * label
                under_original = [(BLACK, True)] + gray[1:] if label else [(DASHED, True)]
                children.append((child_id, tree.vertex[p], label, under_original, gray))
        for child_id, vertex, label, under_original, under_clone in children:
            looks = under_original if parent_original else under_clone
            nid = len(nodes)
            if nid + len(looks) > ceiling:  # refuse before making any copy
                raise SizeCeilingError("wedge tree vertices", max(nid, ceiling) + 1, ceiling)
            for color, original in looks:
                append(new(ColoredNode, (nid, colored_id, color, original, vertex, label, None)))
                nid += 1
            base_ids += repeat(child_id, len(looks))
    return ColoredTree(nodes)


def lambda_of_coset(coset: CosetTree, null_parts: NullForest) -> ColoredTree:
    """Color the coset model: residue-0 vertices are the original copy
    (black edges into them), other residues are gray, and each null
    component hangs dashed off the residue-0 copy of its attach point.
    Colored node i is coset vertex i; the null components follow."""
    new = tuple.__new__
    parent_idx = coset.parent_idx
    nodes: list = []
    append = nodes.append
    base = coset.base
    for (first, order), parent, vertex, label in zip(coset.runs, base.parent, base.vertex, base.label):
        if parent is None:
            append(new(ColoredNode, (first, None, None, True, vertex, 0, 0)))
            continue
        append(new(ColoredNode, (first, parent_idx[first], BLACK, True, vertex, label, 0)))
        for residue in range(1, order):
            i = first + residue
            append(new(ColoredNode, (i, parent_idx[i], GRAY, False, vertex, label, residue)))
    for comp in null_parts.components:
        colored_of_node: dict = {}
        for tnode in comp.nodes:
            if tnode.id == comp.root_id:
                parent_colored = coset.index[(tnode.parent, 0)]
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
    tree = truncate(germ, depth, ceiling=ceiling)
    pos = positive_part(tree)
    coset = lambda_plus(pos, ceiling=ceiling)
    via_coset = lambda_of_coset(coset, null_forest(tree))
    via_wedge = wedge_expansion(tree, ceiling=ceiling)
    return via_coset, via_wedge
