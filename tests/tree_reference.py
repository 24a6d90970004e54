"""Reference for ``unfold.truncate``, ``unfold.positive_part``,
``unfold.null_forest``, ``reduce.elementary_reduction``,
``coset.CosetTree``, ``coset.lambda_of_coset``, ``coset.wedge_expansion``
and the canonical keys of ``coset.colored_trees_isomorphic``: the keyed
tree builders, and the record views the package no longer builds.

The builders make every tree node with a named-tuple call after an
out-edge lookup, index nodes and children in eagerly built dicts, filter
and reduce trees node record by node record, place each coset vertex by a
dict keyed by (base node, residue), map coset vertices to colored nodes
through a dict, walk each null component through the id and child maps,
copy each wedge child through a per-child list after looking up its parent
and the child node, and key each colored subtree by recursion.  The
package keeps truncations, null forests and clone trees as flat columns,
fills the columns tier by tier from a per-vertex child table, finds the
null components in one pass over the null positions, extends the wedge
columns once per colored node from copies read once per (base node,
original flag), keys subtrees bottom-up, and lays the coset vertices out in
residue runs instead; the tests check on random germs that both give the
same trees, node for node and in the same order, and refuse at the same
point with the same message.

The record views turn the package's columns into named tuples, so the
tests can compare them with the builders here: ``node``, ``root`` and
``tier_nodes`` of a truncation, ``null_components`` of a null forest and
``colored_nodes`` of a clone tree; ``tree_from_nodes`` and
``colored_tree`` go the other way.
"""

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import NamedTuple

from treeends.coset import BLACK, DASHED, GRAY, ColoredTree, _canonical_key
from treeends.errors import DomainError, SizeCeilingError
from treeends.germ import check_label, require_valid
from treeends.unfold import DEFAULT_CEILING, TreeNode, TruncatedTree


class ColoredNode(NamedTuple):
    id: int
    parent: int | None
    color: str | None  # None at the root, else BLACK / GRAY / DASHED
    original: bool
    germ_vertex: str
    label: int  # label of the edge from the parent; 0 at the root
    residue: int | None  # set in the coset construction, None in the wedge


class NullComponent(NamedTuple):
    root_id: int  # a non-positive node whose parent is positive
    nodes: tuple  # the whole non-positive subtree as TreeNode records, in id order


def node(t, node_id):
    """The TreeNode record of node ``node_id`` of a truncation."""
    p = t.position(node_id)
    tier = bisect_right(t.tier_starts, p) - 1
    return TreeNode(node_id, tier, t.parent[p], t.vertex[p], t.label[p], t.positive[p])


def root(t):
    return node(t, t.ids[0])


def tier_nodes(t, tier):
    """The TreeNode records of one tier of a truncation, in position order."""
    if not 0 <= tier <= t.depth:
        return ()
    s = slice(t.tier_starts[tier], t.tier_starts[tier + 1])
    columns = (t.parent[s], t.vertex[s], t.label[s], t.positive[s])
    return tuple(map(TreeNode._make, zip(t.ids[s], repeat(tier), *columns)))


def null_components(nf):
    """Each component of a null forest as a NullComponent of TreeNode
    records."""
    t, positions = nf.tree, nf.positions
    comps = [positions[lo:hi] for lo, hi in zip(nf.starts, nf.starts[1:])]
    return tuple(NullComponent(t.ids[comp[0]], tuple(node(t, t.ids[p]) for p in comp)) for comp in comps)


def colored_nodes(ct):
    """Every node of a clone tree as a ColoredNode, in id order."""
    return tuple(map(ColoredNode._make, ct.rows()))


def colored_tree(nodes):
    """The ColoredTree whose ``colored_nodes`` are ``nodes``, ColoredNode
    records in id order."""
    return ColoredTree(*([getattr(n, field) for n in nodes] for field in ColoredNode._fields[1:]))


def canonical_key(tree, node_id=0):
    """The package's bottom-up key of the subtree at ``node_id``."""
    return _canonical_key(tree, node_id, {})


def tree_from_nodes(depth, nodes):
    """The TruncatedTree whose ``nodes`` view is ``nodes``, TreeNode
    records in nondecreasing tier order."""
    tiers = [n.tier for n in nodes]
    return TruncatedTree(
        depth,
        [bisect_left(tiers, k) for k in range(depth + 2)],
        [n.id for n in nodes],
        [n.parent for n in nodes],
        [n.germ_vertex for n in nodes],
        [n.label for n in nodes],
        [n.positive for n in nodes],
    )


class KeyedTree:
    """A truncation with its id and child maps built up front."""

    def __init__(self, depth, nodes):
        self.depth = depth
        self.nodes = nodes
        self._by_id = {n.id: n for n in nodes}
        self._children = {n.id: [] for n in nodes}
        for n in nodes:
            if n.parent is not None:
                self._children[n.parent].append(n.id)

    def node(self, node_id):
        return self._by_id[node_id]

    def children(self, node_id):
        return tuple(self._children[node_id])

    def positive_part(self):
        return KeyedTree(self.depth, tuple(n for n in self.nodes if n.positive))


def keyed_elementary_reduction(t, i, j):
    """Collapse tiers i+1..j-1 of a KeyedTree: sort the kept nodes by new
    tier and old id, renumber them through a dict, and climb from each
    tier-j node to its tier-i ancestor through the id map."""
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
    rebuilt = []
    positive_of = {}
    for new_tier, node in kept:
        if node.parent is None:
            rebuilt.append(TreeNode(0, 0, None, node.germ_vertex, None, True))
            positive_of[0] = True
            continue
        if node.tier == j:
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
    return KeyedTree(t.depth - removed, tuple(rebuilt))


def keyed_truncate(g, depth, ceiling=DEFAULT_CEILING):
    """Unfold ``g`` to tiers 0..depth, checking the ceiling after each tier
    is built."""
    require_valid(g)
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    nodes = [TreeNode(0, 0, None, g.root, None, True)]
    tier_start = 0
    for tier in range(1, depth + 1):
        next_nodes = []
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
    return KeyedTree(depth, tuple(nodes))


class KeyedCosetTree:
    """Clone tree in residue coordinates, every vertex placed through the
    (base node, residue) index."""

    def __init__(self, base, ceiling=DEFAULT_CEILING):
        for node in base.nodes:
            if not node.positive:
                raise DomainError(
                    f"coset model needs a positive base tree; node {node.id} is not"
                )
        self.base = base
        self.order_of = {}
        total = 0
        for node in base.nodes:
            if node.parent is None:
                self.order_of[node.id] = 1
            else:
                self.order_of[node.id] = self.order_of[node.parent] * node.label
            total += self.order_of[node.id]
            if total > ceiling:
                raise SizeCeilingError("coset tree vertices", total, ceiling)
        tiers = [[] for _ in range(base.depth + 1)]
        for node in base.nodes:
            tiers[node.tier].append(node)
        verts = []
        for depth_nodes in tiers:
            for node in depth_nodes:
                for residue in range(self.order_of[node.id]):
                    verts.append((node.id, residue))
        self.verts = tuple(verts)
        self.tiers = tuple(base.node(bid).tier for bid, _ in verts)
        self.index = {bv: i for i, bv in enumerate(self.verts)}
        self.parent_idx = []
        for bid, residue in self.verts:
            node = base.node(bid)
            if node.parent is None:
                self.parent_idx.append(None)
            else:
                self.parent_idx.append(
                    self.index[(node.parent, residue % self.order_of[node.parent])]
                )


def keyed_lambda_of_coset(coset, null_parts):
    """The colored nodes of the coset model, coset vertices mapped to
    colored ids through a dict; ``null_parts`` is a ``keyed_null_forest``."""
    nodes = []
    colored_of_vert = {}
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
    for comp in null_parts:
        colored_of_node = {}
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
    return tuple(nodes)


def keyed_wedge_expansion(tree, ceiling=DEFAULT_CEILING):
    """The colored nodes of the wedge clone tree over a KeyedTree, each
    colored node looked up again to read whether it is an original, and each
    child's copies listed one by one, the ceiling checked before each copy."""
    top = tree.nodes[0]
    nodes = [ColoredNode(0, None, None, True, top.germ_vertex, 0, None)]
    queue = [(0, top.id)]
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
    return tuple(nodes)


def keyed_null_forest(t):
    """Connected components of the non-positive part of a KeyedTree, as
    NullComponents: a depth-first walk through the id and child maps from
    each non-positive node whose parent is positive."""
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
    return tuple(components)


def recursive_canonical_key(nodes, node_id=0):
    """(color, original, germ vertex, label, sorted child keys) of the
    subtree at ``node_id`` of ColoredNode records, one call per node."""
    top = nodes[node_id]
    kids = sorted(recursive_canonical_key(nodes, c.id) for c in nodes if c.parent == node_id)
    return (top.color, top.original, top.germ_vertex, top.label, tuple(kids))
