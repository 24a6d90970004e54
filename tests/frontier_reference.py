"""Reference for ``cw.build_frontier_graph`` and ``cw.collapse_h1_matrix``:
the key-indexed frontier graph and its collapse bond, in the package's
layout and in the former subdivided one.

It numbers every vertex through a dict keyed by (coset vertex, height),
names every edge by a ('tree', child vertex, height) or ('col', vertex,
height) key, and maps each deep edge to a shallow one by rewriting its key.
The package reads both graphs' numberings off the coset tree's tier layout
instead; the tests check on random germs that both give the same graphs,
edge for edge and in the same order, and the same bonds.

The package lays each frontier column out as one edge from height -i to i.
The former layout, kept here as ``subdivided_frontier_graph`` and
``subdivided_collapse``, cut it into 2i edges through the inner heights.
Both are the same space up to homotopy: ``subdivision_map`` sends each
former column's bottom edge onto the column and contracts the rest.  The
tests check that it carries each former bond onto the package's, and that
both bonds have the same shape and the same cokernel.

The cycle basis here is the package's former one, kept apart from it: a BFS
forest over (neighbour, edge, sign) adjacency tuples, and each fundamental
cycle walked edge by edge up the forest.  The package keeps its forest as
int-coded adjacency and reads a bond's columns off forest potentials; the
tests check that both give the same forest and the same columns.

``edge_vector_induced`` is the former inclusion-induced map: each generator
of the subcomplex expanded into walked cycles, written back onto the big
complex's edges as a full-length edge vector and pushed through
``H1Calculator.h1_coords``, boundary check included.  The package reads the
generators' cycles straight onto the big complex's cycle rows instead.
"""

from treeends.cw import CollapseBond, CW2Complex, H1Calculator, subcomplex
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


def edge_vector_induced(k, sel):
    """Matrix of H1(selection) -> H1(k) through full-length edge vectors:
    rows the nontrivial summands of H1(k), columns the generators of the
    selected subcomplex."""
    calc = H1Calculator(k)
    sub, _, emap = subcomplex(k, sel)
    sub_calc = H1Calculator(sub)
    edge_back = {new: old for old, new in emap.items()}
    _, cycles = fundamental_cycles(sub)
    cols = []
    for which in range(len(sub_calc.presentation.slots)):
        vec = [0] * len(k.tails)
        for r, c in sub_calc.presentation.generator(which).items():
            for e, x in cycles[r].items():
                vec[edge_back[e]] += c * x
        cols.append(calc.h1_coords(vec))
    return [[col[r] for col in cols] for r in range(len(calc.presentation.slots))]


def _pushed(chains, row_of):
    """Each edge chain as a sparse column on the rows ``row_of`` gives its
    edges (an edge with no row drops out), zeros left out."""
    columns = []
    for chain in chains:
        col = {}
        for e, x in chain.items():
            r = row_of.get(e)
            if r is not None:
                col[r] = col.get(r, 0) + x
        columns.append({r: x for r, x in col.items() if x})
    return columns


def _keyed_graph(c, i, column_heights):
    """(complex, edge key -> edge index) of the radius-``i`` frontier graph
    whose frontier columns pass through ``column_heights`` from -i up to i."""
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
        for h in column_heights[1:-1]:
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
        for lo, hi in zip(column_heights, column_heights[1:]):
            edge_index[("col", vi, lo)] = len(edges)
            edges.append((vertex_index[(vi, lo)], vertex_index[(vi, hi)]))
    return CW2Complex(len(vertex_index), [t for t, _ in edges], [h for _, h in edges], []), edge_index


def _keyed_bond(c, i, build, column_image):
    """Push the deep graph's walked cycles through ``build``'s keyed layouts:
    a sheet edge over the radius-i ball keeps its sheet, a column key goes
    where ``column_image(vi, h)`` sends it (None: contracts), and the other
    sheet edges contract."""
    if i + 1 > c.depth:
        raise DomainError(f"need coset depth {i + 1}, have {c.depth}")
    deep, deep_index = build(c, i + 1)
    shallow, shallow_index = build(c, i)

    def edge_image(key):
        kind = key[0]
        if kind == "tree":
            _, child, h = key
            if c.tier(child) > i:
                return None  # contracts into the ancestor vertex
            return ("tree", child, i if h > 0 else -i)
        _, vi, h = key
        return column_image(vi if c.tier(vi) <= i else c.parent_idx[vi], h)

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

    return CollapseBond(
        columns=tuple(_pushed(cycles_deep, row_of)),
        rows=len(non_tree_shallow),
        cols=len(non_tree_deep),
    )


def keyed_frontier_graph(c, i):
    """(complex, edge key -> edge index) of the radius-``i`` frontier graph,
    each column one edge ('col', vi, -i) from height -i to i."""
    return _keyed_graph(c, i, (-i, i))


def keyed_collapse(c, i):
    """Collapse sheets and columns by ancestor, and push the deep frontier
    graph's cycle basis into the shallow one's coordinates."""
    return _keyed_bond(c, i, keyed_frontier_graph, lambda vi, h: ("col", vi, -i) if i else None)


def subdivided_frontier_graph(c, i):
    """The former layout: each column cut into 2i edges ('col', vi, h) from
    height h to h + 1, through 2i - 1 inner vertices."""
    return _keyed_graph(c, i, tuple(range(-i, i + 1)))


def subdivided_collapse(c, i):
    """The former bond: collapse sheets by ancestor, clamp column heights to
    [-i, i], and push the deep cycle basis into the shallow coordinates."""

    def clamped(vi, h):
        lo, hi = max(h, -i), min(h + 1, i)
        return ("col", vi, lo) if lo < hi else None  # None: clamped flat

    return _keyed_bond(c, i, subdivided_frontier_graph, clamped)


def subdivision_map(c, i):
    """H1 of the subdivided radius-``i`` graph into the package layout's, as
    sparse columns: each former fundamental cycle carried over by the
    cellular map that keeps the sheets, sends a column's bottom edge
    ('col', vi, -i) onto the column and contracts its other edges, read in
    the package layout's fundamental-cycle coordinates."""
    sub, sub_index = subdivided_frontier_graph(c, i)
    new, new_index = keyed_frontier_graph(c, i)
    row = {e: r for r, e in enumerate(spanning_forest(new)[2])}
    row_of = {}
    for key, idx in sub_index.items():
        if key[0] == "tree" or key[2] == -i:
            row_of[idx] = row.get(new_index[key])
    return _pushed(fundamental_cycles(sub)[1], row_of)
