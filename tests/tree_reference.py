"""Reference for ``unfold.truncate``, ``unfold.null_forest``,
``coset.CosetTree``, ``coset.lambda_of_coset``, ``coset.wedge_expansion``
and ``coset.ColoredTree.canonical_key``: the keyed tree builders.

They make every tree node with a named-tuple call after an out-edge lookup,
index nodes and children in eagerly built dicts, place each coset vertex by
a dict keyed by (base node, residue), map coset vertices to colored nodes
through a dict, walk each null component through the id and child maps,
copy each wedge child through a per-child list after looking up its parent
and the child node, and key each colored subtree by recursion.  The package
builds nodes from a per-call child table, builds the node maps on first
use, finds the null components in one pass over the nodes, reads each base
node's children once for all its wedge copies, keys subtrees bottom-up, and
lays the coset vertices out in residue runs instead; the tests check on
random germs that both give the same trees, node for node and in the same
order, and refuse at the same point with the same message.
"""

from treeends.coset import BLACK, DASHED, GRAY, ColoredNode, ColoredTree
from treeends.errors import DomainError, SizeCeilingError
from treeends.germ import require_valid
from treeends.unfold import DEFAULT_CEILING, NullComponent, NullForest, TreeNode


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
    colored ids through a dict."""
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
    for comp in null_parts.components:
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
    """The wedge clone tree, each colored node looked up again to read
    whether it is an original, and each child's copies listed one by one,
    the ceiling checked before each copy."""
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


def keyed_null_forest(t):
    """Connected components of the non-positive part of ``t``: a depth-first
    walk through the id and child maps from each non-positive node whose
    parent is positive."""
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


def recursive_canonical_key(tree, node_id=0):
    """(color, original, germ vertex, label, sorted child keys), one call
    per node."""
    node = tree.nodes[node_id]
    kids = sorted(
        recursive_canonical_key(tree, c.id) for c in tree.nodes if c.parent == node_id
    )
    return (node.color, node.original, node.germ_vertex, node.label, tuple(kids))
