"""Reference for ``cw.build_frontier_graph`` and ``cw.collapse_h1_matrix``:
the key-indexed frontier graph and its collapse bond.

It numbers every vertex through a dict keyed by (coset vertex, height),
names every edge by a ('tree', child vertex, height) or ('col', vertex,
height) key, and maps each deep edge to a shallow one by rewriting its key.
The package reads both graphs' numberings off the coset tree's tier layout
instead; the tests check on random germs that both give the same graphs,
edge for edge and in the same order, and the same bonds.

The cycle basis here is the package's former one, kept apart from it: a BFS
forest over (neighbour, edge, sign) adjacency tuples, and each fundamental
cycle walked edge by edge up the forest.  The package keeps its forest as
int-coded adjacency and reads a bond's columns off forest potentials; the
tests check that both give the same forest and the same columns.
"""

from treeends.cw import CollapseBond, CW2Complex
from treeends.errors import DomainError


def spanning_forest(k):
    """BFS forest: parent[v] = (up vertex, edge, sign) with sign +1 when the
    edge is oriented up->v.  Returns (parent, depth, non-tree edges in
    index order)."""
    adj = [[] for _ in range(k.num_vertices)]
    for idx, (t, h) in enumerate(zip(k.tails, k.heads)):
        adj[t].append((h, idx, 1))
        adj[h].append((t, idx, -1))
    parent = [None] * k.num_vertices
    depth = [None] * k.num_vertices
    tree_edges = set()
    for start in range(k.num_vertices):
        if depth[start] is not None:
            continue
        depth[start] = 0
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w, idx, sign in adj[v]:
                if depth[w] is None:
                    depth[w] = depth[v] + 1
                    parent[w] = (v, idx, sign)
                    tree_edges.add(idx)
                    queue.append(w)
    return parent, depth, [idx for idx in range(len(k.tails)) if idx not in tree_edges]


def fundamental_cycles(k):
    """(non-tree edge indices, cycle chains): a basis of the cycle space.
    Each non-tree edge is closed up by the forest path from its head back to
    its tail, climbing the deeper endpoint one edge at a time."""
    parent, depth, non_tree = spanning_forest(k)
    chains = []
    for idx in non_tree:
        chain = {}
        a, b = k.heads[idx], k.tails[idx]
        while a != b:
            # walking v -> parent(v) uses the edge against parent[v]'s sign
            if depth[a] >= depth[b]:
                a, e, sign = parent[a]
                chain[e] = chain.get(e, 0) - sign
            else:
                b, e, sign = parent[b]
                chain[e] = chain.get(e, 0) + sign
        chain[idx] = chain.get(idx, 0) + 1
        chains.append(chain)
    return non_tree, chains


def keyed_frontier_graph(c, i):
    """(complex, edge key -> edge index) of the radius-``i`` frontier graph."""
    if i < 0 or i > c.depth:
        raise DomainError(f"radius {i} outside 0..{c.depth}")
    if i == 0:
        return CW2Complex(1, [], [], []), {}
    ball = [vi for vi in range(len(c.verts)) if c.tier(vi) <= i]
    frontier = [vi for vi in ball if c.tier(vi) == i]
    vertex_index = {}  # (coset vert, h) -> vertex
    for vi in ball:
        vertex_index[(vi, i)] = len(vertex_index)
    for vi in ball:
        vertex_index[(vi, -i)] = len(vertex_index)
    for vi in frontier:
        for h in range(-i + 1, i):
            vertex_index[(vi, h)] = len(vertex_index)
    edges = []
    edge_index = {}
    for h in (i, -i):
        for vi in ball:
            parent = c.parent_idx[vi]
            if parent is None:
                continue
            edge_index[("tree", vi, h)] = len(edges)
            edges.append((vertex_index[(vi, h)], vertex_index[(parent, h)]))
    for vi in frontier:
        for h in range(-i, i):
            edge_index[("col", vi, h)] = len(edges)
            edges.append((vertex_index[(vi, h)], vertex_index[(vi, h + 1)]))
    return CW2Complex(len(vertex_index), [t for t, _ in edges], [h for _, h in edges], []), edge_index


def keyed_collapse(c, i):
    """Collapse sheets by ancestor, clamp column heights, and push the deep
    frontier graph's cycle basis into the shallow one's coordinates."""
    if i + 1 > c.depth:
        raise DomainError(f"need coset depth {i + 1}, have {c.depth}")
    deep, deep_index = keyed_frontier_graph(c, i + 1)
    shallow, shallow_index = keyed_frontier_graph(c, i)

    def edge_image(key):
        kind = key[0]
        if kind == "tree":
            _, child, h = key
            if c.tier(child) > i:
                return None  # contracts into the ancestor vertex
            return ("tree", child, i if h > 0 else -i)
        _, vi, h = key
        lo, hi = max(h, -i), min(h + 1, i)
        if lo >= hi:
            return None  # clamped flat
        return ("col", vi if c.tier(vi) <= i else c.parent_idx[vi], lo)

    non_tree_deep, cycles_deep = fundamental_cycles(deep)
    non_tree_shallow = spanning_forest(shallow)[2]
    shallow_pos = {idx: r for r, idx in enumerate(non_tree_shallow)}
    row_of = {}
    for key, idx in deep_index.items():
        image_key = edge_image(key)
        if image_key is not None:
            row = shallow_pos.get(shallow_index[image_key])
            if row is not None:
                row_of[idx] = row

    columns = []
    for chain in cycles_deep:
        col = {}
        for e_idx, coef in chain.items():
            row = row_of.get(e_idx)
            if row is not None:
                col[row] = col.get(row, 0) + coef
        columns.append({r: x for r, x in col.items() if x})
    return CollapseBond(
        columns=tuple(columns),
        rows=len(non_tree_shallow),
        cols=len(non_tree_deep),
    )
