"""Two models of the clone tree over the positive part of an unfolding.

The coset model names vertices by (base node, residue) pairs: a node whose
root path multiplies to n contributes residues 0..n-1, and the shift-by-one
map on residues is the odometer.  The wedge model grows the same tree by
copying subtrees child by child, coloring each vertex by how it arose.
Both constructions are deterministic, and ``colored_trees_isomorphic``
checks they agree as colored rooted trees.  A colored tree is kept as flat
columns indexed by node id, like a truncation; neither construction makes a
per-node record.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice, repeat
from operator import itemgetter, not_

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
    runs come in the base tree's position order, so in tier order:
    ``runs[p]`` is the (start, order) of the node at position p, so vertex
    (b, r) is ``start + r``, and ``parent_idx``, the one per-vertex column,
    holds its parent, the parent's start plus ``r % order_of[parent]``.  So
    vertex 0 is the root, the vertices at tier <= i are the prefix
    ``range(ball_size(i))``, and ``len(c)`` is the clone count.  ``verts``,
    the (base node, residue) pair of every vertex, is a view built on first
    read; the package reads the runs and never builds it, and the view
    stays only because the benchmark's clone-tree size hook counts vertices
    by it.
    """

    def __init__(self, base: TruncatedTree, ceiling: int = DEFAULT_CEILING):
        self.base = base
        order_of = self.order_of = clone_orders(base, ceiling)
        position = base.position
        runs: list = []
        parent_idx: list = []
        for node_id, parent, label in zip(base.ids, base.parent, base.label):  # parents first
            order = order_of[node_id]
            runs.append((len(parent_idx), order))
            if parent is None:
                parent_idx += repeat(None, order)
            else:
                first, up_order = runs[position(parent)]
                parent_idx += list(range(first, first + up_order)) * label
        self.runs: tuple = tuple(runs)
        self.parent_idx: list = parent_idx

    def __len__(self) -> int:
        return len(self.parent_idx)

    @cached_property
    def verts(self) -> tuple:
        """Every vertex as a (base node id, residue) pair, in index order."""
        return tuple(
            chain.from_iterable(zip(repeat(b, n), range(n)) for b, (_, n) in zip(self.base.ids, self.runs))
        )

    @property
    def depth(self) -> int:
        return self.base.depth

    def _run(self, vert_idx: int) -> tuple:
        """(position, start, order) of the run that holds ``vert_idx``."""
        if not 0 <= vert_idx < len(self.parent_idx):
            raise DomainError(f"vertex {vert_idx} is not in range({len(self.parent_idx)})")
        p = bisect_right(self.runs, vert_idx, key=itemgetter(0)) - 1
        return (p, *self.runs[p])

    def tier(self, vert_idx: int) -> int:
        return bisect_right(self.base.tier_starts, self._run(vert_idx)[0]) - 1

    def ball_size(self, radius: int) -> int:
        """Number of vertices at tier <= ``radius``: the start of the first
        run past that tier."""
        p = self.base.tier_starts[min(max(radius, -1), self.depth) + 1]
        return self.runs[p][0] if p < len(self.runs) else len(self.parent_idx)


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
        _, start, order = self.coset._run(vert_idx)
        return start + (vert_idx - start + power) % order


def frontier_count(germ: GermGraph, tier: int) -> int:
    """Number of clone-tree vertices over tier ``tier``.

    Counts label-weighted positive paths of length ``tier`` from the root,
    which avoids materializing the tree.
    """
    if tier < 0:
        raise DomainError("tier must be nonnegative")
    return next(islice(walk_counts(germ, (germ.root,), lambda e: e.label, tier), tier, None))


class ColoredTree:
    """A colored clone tree, kept as flat columns indexed by node id.

    Node i has the parent ``parent[i]`` (None at the root), the color
    ``color[i]`` (None at the root, else BLACK, GRAY or DASHED), the flag
    ``original[i]``, the germ vertex ``vertex[i]``, the label ``label[i]`` of
    the edge from its parent (0 at the root) and the residue ``residue[i]``
    (set in the coset construction, None in the wedge).  Every child has a
    larger id than its parent."""

    def __init__(self, parent: list, color: list, original: list, vertex: list, label: list, residue: list):
        self.parent = parent
        self.color = color
        self.original = original
        self.vertex = vertex
        self.label = label
        self.residue = residue

    def __len__(self) -> int:
        return len(self.parent)

    def rows(self):
        """Each node's id and fields, in id order, as plain tuples."""
        return zip(count(), self.parent, self.color, self.original, self.vertex, self.label, self.residue)


def _canonical_key(tree: ColoredTree, node_id: int, interned: dict):
    """(color, original, germ vertex, label, sorted child keys) of the
    subtree at ``node_id``, built bottom-up: children have larger ids than
    their parent, so depth costs no recursion.  Keys made through one
    ``interned`` table are one object whenever they are equal, so they
    compare by identity however deep they nest."""
    parent = tree.parent
    kids: list = [[] for _ in parent]
    fields = list(zip(tree.color, tree.original, tree.vertex, tree.label))
    for i in range(len(parent) - 1, node_id - 1, -1):
        children = kids[i]
        children.sort()
        key = fields[i] + (tuple(children),)
        key = interned.setdefault((fields[i], tuple(map(id, children))), key)
        if i == node_id:
            return key
        kids[parent[i]].append(key)


def colored_trees_isomorphic(a: ColoredTree, b: ColoredTree) -> bool:
    if len(a) != len(b):
        return False
    interned: dict = {}
    return _canonical_key(a, 0, interned) is _canonical_key(b, 0, interned)


def _wedge_copies(tree: TruncatedTree, base_id: int, original: bool) -> tuple:
    """The columns that the children of base node ``base_id`` add under a
    colored copy of it, an original one or a clone: each copy's base node,
    color, original flag, germ vertex and label."""
    columns: tuple = ([], [], [], [], [])
    bases, colors, originals, vertices, labels = columns
    for child_id in tree.children(base_id):
        p = tree.position(child_id)
        label = tree.label[p]
        if original:
            looks = [BLACK] + [GRAY] * (label - 1) if label else [DASHED]
        else:
            looks = [GRAY] * label
        n = len(looks)
        bases += repeat(child_id, n)
        colors += looks
        originals += (color != GRAY for color in looks)
        vertices += repeat(tree.vertex[p], n)
        labels += repeat(label, n)
    return columns


def wedge_expansion(
    tree: TruncatedTree, ceiling: int = DEFAULT_CEILING
) -> ColoredTree:
    """Grow the clone tree by copying: positive children of an original
    vertex contribute one black copy and label-1 gray copies, zero-label
    children contribute one dashed copy, and every copy under a gray vertex
    is gray with no dashed part.  The columns grow once per colored node,
    by copies read from ``tree`` once per (base node, original flag)."""
    parent, color, original, vertex, label = [None], [None], [True], [tree.vertex[0]], [0]
    bases = [tree.ids[0]]  # the base node each colored node copies
    copies: dict = {}
    for colored_id, base_id, is_original in zip(count(), bases, original):
        key = (base_id, is_original)
        columns = copies.get(key)
        if columns is None:
            columns = copies[key] = _wedge_copies(tree, base_id, is_original)
        n = len(columns[0])
        if not n:
            continue
        if len(parent) + n > ceiling:  # refuse before making any copy
            raise SizeCeilingError("wedge tree vertices", max(len(parent), ceiling) + 1, ceiling)
        parent += repeat(colored_id, n)
        for column, extra in zip((bases, color, original, vertex, label), columns):
            column += extra
    return ColoredTree(parent, color, original, vertex, label, [None] * len(parent))


def lambda_of_coset(coset: CosetTree, null_parts: NullForest) -> ColoredTree:
    """Color the coset model: residue-0 vertices are the original copy
    (black edges into them), other residues are gray, and each null
    component hangs dashed off the residue-0 copy of its attach point.
    Colored node i is coset vertex i; the null nodes follow in the null
    forest's order."""
    base = coset.base
    orders = [order for _, order in coset.runs]
    residue = list(chain.from_iterable(map(range, orders)))
    original = list(map(not_, residue))
    color = [BLACK if first else GRAY for first in original]
    vertex = list(chain.from_iterable(map(repeat, base.vertex, orders)))
    label = list(chain.from_iterable(map(repeat, base.label, orders)))
    color[0], label[0] = None, 0  # the root
    parent = list(coset.parent_idx)
    # the null nodes: a component root hangs off the residue-0 copy of its
    # positive parent, every other null node off its parent's copy
    t, positions, up = null_parts.tree, null_parts.positions, null_parts.tree.parent
    attach = (up[positions[s]] for s in null_parts.starts[:-1])
    colored = {a: coset.runs[base.position(a)][0] for a in attach}
    colored.update(zip(map(t.ids.__getitem__, positions), count(len(residue))))
    parent += (colored[up[p]] for p in positions)
    n = len(positions)
    color += repeat(DASHED, n)
    original += repeat(True, n)
    vertex += map(t.vertex.__getitem__, positions)
    label += map(t.label.__getitem__, positions)
    residue += repeat(None, n)
    return ColoredTree(parent, color, original, vertex, label, residue)


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
