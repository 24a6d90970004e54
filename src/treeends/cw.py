"""Finite CW 2-complexes for label telescopes and their covers.

This module is the brute-force side of every dual check: it materializes
actual cell complexes, runs exact integer homology on them, and lets the
closed-form answers elsewhere be compared against cell counting.

Complexes are immutable after construction.  Faces are attaching words:
sequences of (edge index, +1/-1) steps that must chain into a closed loop.

Every H1 route reads cycles off one BFS spanning forest; a ``FrontierTower``
builds each radius's graph and forest once and reads its bonds off them.
A frontier graph is the boundary of a clone ball times [-i, i]: two sheets
of the ball joined by one edge per frontier column, with no vertex at the
inner heights, so its cells grow with the ball and not with the radius.
One ``H1Calculator`` serves every induced map into its complex, and
``H1Calculator.fundamental_class`` reads the class of one non-tree edge's
cycle, such as a telescope loop's, without an edge vector.  Its
presentation comes from ``intmat.unit_pivot_presentation``, whose passes
skip the relations no elimination changed, in the same order, so the
generators are the same.  ``CW2Complex.level_component_counts`` counts a
whole nested family of full subgraphs, such as a telescope's neighbourhoods
of infinity, in one union-find sweep.

Checks that read only vertices and edges build 1-skeletons:
``telescope_graph`` is the face-free telescope, which ``build_base`` fills
with faces, and ``build_cover_graph`` the face-free cover, which
``build_cover`` fills.  A cover is laid out shell by shell, height 0 first,
then -1, 1, -2, 2 and so on, so the cover at any height is a prefix of every
taller one, and ``CW2Complex.prefix_component_counts`` counts the components
of every such prefix in one union-find pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .coset import CosetTree
from .errors import DomainError, SizeCeilingError
from .intmat import Matrix, unit_pivot_presentation
from .unfold import DEFAULT_CEILING, NullForest, TruncatedTree


class CW2Complex:
    """A finite 2-complex.  Edge e runs from ``tails[e]`` to ``heads[e]``.
    The two lists are kept as given, so no one may change them afterwards;
    complexes with the same 1-skeleton may share them."""

    def __init__(self, num_vertices: int, tails: list, heads: list, faces: list):
        if len(tails) != len(heads):
            raise DomainError(f"{len(tails)} edge tails but {len(heads)} heads")
        self.num_vertices = num_vertices
        self.tails, self.heads = tails, heads
        self.faces = tuple(tuple([(int(e), int(s)) for e, s in word]) for word in faces)
        if tails and (
            min(tails) < 0
            or min(heads) < 0
            or max(tails) >= num_vertices
            or max(heads) >= num_vertices
        ):
            for t, h in zip(tails, heads):  # name the first bad edge
                if not (0 <= t < num_vertices and 0 <= h < num_vertices):
                    raise DomainError(f"edge endpoint out of range: ({t}, {h})")
        n_edges = len(tails)
        for fi, word in enumerate(self.faces):
            if not word:
                raise DomainError(f"face {fi} has an empty attaching word")
            # One walk checks that the word is a closed path, so its
            # boundary telescopes to zero.
            at = start = None
            for e, s in word:
                if not (0 <= e < n_edges) or s not in (1, -1):
                    raise DomainError(f"face {fi} has a bad step ({e}, {s})")
                src, dst = (tails[e], heads[e]) if s == 1 else (heads[e], tails[e])
                if at is None:
                    start = src
                elif at != src:
                    raise DomainError(f"face {fi} attaching word is not a path")
                at = dst
            if at != start:
                raise DomainError(f"face {fi} attaching word does not close up")

    @property
    def edges(self) -> tuple:
        """The edges as (tail, head) pairs, built on first read."""
        try:
            return self._edges
        except AttributeError:
            self._edges = tuple(zip(self.tails, self.heads))
            return self._edges

    def _union_find(self, selected=None, parent=None) -> tuple:
        """(root links, merge count) over every edge, or over the edges
        ``selected``, a sequence of indices, starting from the root links
        ``parent`` (all singletons when None), which it updates in place.
        Each root is the least vertex of its component, so parent[v] <= v."""
        tails, heads = self.tails, self.heads
        if selected is not None:
            tails, heads = map(tails.__getitem__, selected), map(heads.__getitem__, selected)
        if parent is None:
            parent = list(range(self.num_vertices))
        merges = 0
        for t, h in zip(tails, heads):
            # path halving; the smaller root wins
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]
            while parent[h] != h:
                parent[h] = h = parent[parent[h]]
            if t < h:
                parent[h] = t
                merges += 1
            elif h < t:
                parent[t] = h
                merges += 1
        return parent, merges

    def components(self) -> list:
        """Connected components of the 1-skeleton, each a sorted vertex tuple."""
        parent = self._union_find()[0]
        # parent[v] <= v, so one ascending pass sends each vertex to its root
        groups: dict = {}
        for v in range(len(parent)):
            parent[v] = root = parent[parent[v]]
            groups.setdefault(root, []).append(v)
        return [tuple(vs) for vs in groups.values()]

    def component_count(self, sel: CellSelection | None = None) -> int:
        """Number of connected components of the 1-skeleton, or of the
        closed selection ``sel`` (checked as ``subcomplex`` checks it)."""
        if sel is None:
            return self.num_vertices - self._union_find()[1]
        vset = _closed_cells(self, sel)[0]
        return len(vset) - self._union_find(sel.edges)[1]

    def level_component_counts(self, level: list) -> list:
        """Given a level >= 0 for each vertex, the number of components of
        the full subgraph on the vertices of level <= L, for L = 0 up to
        the top level.  One union-find sweep adds each edge at the larger
        level of its two ends and reads the merge count at every level."""
        if len(level) != self.num_vertices:
            raise DomainError(f"{len(level)} levels for {self.num_vertices} vertices")
        if min(level, default=0) < 0:
            raise DomainError(f"negative vertex level {min(level)}")
        top = max(level, default=-1)
        new_vertices = [0] * (top + 1)
        for x in level:
            new_vertices[x] += 1
        new_edges: list = [[] for _ in range(top + 1)]
        edge_levels = map(max, map(level.__getitem__, self.tails), map(level.__getitem__, self.heads))
        for e, x in enumerate(edge_levels):
            new_edges[x].append(e)
        counts, parent, count = [], None, 0
        for n, edges in zip(new_vertices, new_edges):
            parent, merges = self._union_find(edges, parent)
            count += n - merges
            counts.append(count)
        return counts

    def prefix_component_counts(self, cuts: list) -> list:
        """Given ascending (vertex count, edge count) cuts, the number of
        components of each prefix: vertices ``range(nv)`` and edges
        ``range(ne)``.  Each prefix must be closed, its edges ending at its
        vertices.  One union-find pass adds each cut's new run of edges; the
        root links grow with the vertex prefix, so an edge that leaves it
        fails at its lookup and no edge list is copied."""
        counts: list = []
        parent: list = []
        merges = done = 0
        for nv, ne in cuts:
            if not (len(parent) <= nv <= self.num_vertices and done <= ne <= len(self.tails)):
                raise DomainError(
                    f"cut ({nv}, {ne}) does not ascend from ({len(parent)}, {done})"
                    f" within ({self.num_vertices}, {len(self.tails)})"
                )
            parent += range(len(parent), nv)
            try:
                merges += self._union_find(range(done, ne), parent)[1]
            except IndexError:
                e = next(e for e in range(done, ne) if max(self.tails[e], self.heads[e]) >= nv)
                raise DomainError(f"prefix of {nv} vertices drops an endpoint of edge {e}") from None
            done = ne
            counts.append(nv - merges)
        return counts


@dataclass(frozen=True)
class H1Summary:
    betti: int
    torsion: tuple

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise DomainError("torsion factors must divide in order")


class H1Calculator:
    """Exact H1 = ker d1 / im d2 with coordinates.

    A cycle is coordinatized by its non-tree edges over a BFS spanning
    forest (the fundamental-cycle basis).  Faces become sparse relations on
    those coordinates, and ``presentation`` (see ``unit_pivot_presentation``)
    turns them into invariant factors and generators, so inclusion-induced
    maps still come out as honest integer matrices.
    """

    def __init__(self, k: CW2Complex):
        self.complex = k
        self._parent, self._depth, self._non_tree = _spanning_forest(k)
        pos = {e: r for r, e in enumerate(self._non_tree)}
        relations = []
        for word in k.faces:
            col: dict = {}
            for e, s in word:
                r = pos.get(e)
                if r is not None:
                    col[r] = col.get(r, 0) + s
            relations.append(col)
        self.presentation = unit_pivot_presentation(len(self._non_tree), relations)

    def summary(self) -> H1Summary:
        factors = self.presentation.factors
        return H1Summary(
            betti=sum(1 for f in factors if f == 0),
            torsion=tuple(f for f in factors if f > 1),
        )

    def cycle_coords(self, edge_vector: list) -> list:
        """Coordinates of an edge cycle in the fundamental-cycle basis: its
        non-tree-edge entries, once its boundary is checked to vanish."""
        k = self.complex
        if len(edge_vector) != len(k.tails):
            raise DomainError(
                f"edge vector has length {len(edge_vector)}, want {len(k.tails)}"
            )
        acc: dict = {}
        for t, h, c in zip(k.tails, k.heads, edge_vector):
            if c and t != h:
                acc[h] = acc.get(h, 0) + c
                acc[t] = acc.get(t, 0) - c
        if any(acc.values()):
            raise DomainError("edge vector is not a cycle")
        return [edge_vector[e] for e in self._non_tree]

    def h1_coords(self, edge_vector: list) -> list:
        """Class of a cycle on the nontrivial summands, torsion reduced."""
        coords = self.cycle_coords(edge_vector)
        return self.presentation.coords({r: c for r, c in enumerate(coords) if c})

    def fundamental_class(self, e: int) -> list:
        """Class of non-tree edge ``e``'s fundamental cycle, ``e`` closed up
        by the forest path from its head back to its tail: the class of its
        one coordinate, torsion reduced.  A loop is never a forest edge."""
        if not 0 <= e < len(self.complex.tails):
            raise DomainError(f"edge {e} is not in range({len(self.complex.tails)})")
        r = bisect_left(self._non_tree, e)
        if r == len(self._non_tree) or self._non_tree[r] != e:
            raise DomainError(f"edge {e} is a forest edge")
        return self.presentation.coords({r: 1})

    def induced(self, sel: CellSelection) -> Matrix:
        """Matrix of H1(selection) -> H1(k) on Smith-basis generators.

        Rows index the nontrivial summands of H1(k), columns the generators
        of the selected subcomplex; torsion rows are reduced modulo their
        factor.  Only the subcomplex gets an engine of its own, so one
        engine serves any number of selections.
        """
        k = self.complex
        sub, _, emap = subcomplex(k, sel)
        sub_calc = H1Calculator(sub)
        emap_back = {new: old for old, new in emap.items()}
        cols = []
        for which in range(len(sub_calc.presentation.slots)):
            sub_vec = sub_calc.generator_edge_vector(which)
            big_vec = [0] * len(k.tails)
            for new_idx, coef in enumerate(sub_vec):
                if coef:
                    big_vec[emap_back[new_idx]] = coef
            cols.append(self.h1_coords(big_vec))
        rows = len(self.presentation.slots)
        return [[col[r] for col in cols] for r in range(rows)]

    def generator_edge_vector(self, which: int) -> list:
        """Edge chain of the ``which``-th H1 generator."""
        k = self.complex
        vec = [0] * len(k.tails)
        for r, c in self.presentation.generator(which).items():
            # non-tree edge e, closed up by the forest path back to its tail
            e = self._non_tree[r]
            vec[e] += c
            for idx, x in _tree_path_chain(self._parent, self._depth, k.heads[e], k.tails[e]).items():
                vec[idx] += c * x
        return vec


def h1(k: CW2Complex) -> H1Summary:
    return H1Calculator(k).summary()


@dataclass(frozen=True)
class CellSelection:
    vertices: tuple
    edges: tuple
    faces: tuple


def _closed_cells(k: CW2Complex, sel: CellSelection) -> tuple:
    """(vertex set, edge set) of a selection, once every index is checked
    to name a cell of ``k`` and the selection to be closed: each selected
    edge keeps both endpoints and each selected face all its edges."""
    for kind, cells, size in (
        ("vertex", sel.vertices, k.num_vertices),
        ("edge", sel.edges, len(k.tails)),
        ("face", sel.faces, len(k.faces)),
    ):
        if cells and (min(cells) < 0 or max(cells) >= size):
            bad = next(x for x in cells if not 0 <= x < size)
            raise DomainError(f"selected {kind} {bad} is not in range({size})")
    vset, eset = set(sel.vertices), set(sel.edges)
    tails, heads = k.tails, k.heads
    for e in sel.edges:
        if tails[e] not in vset or heads[e] not in vset:
            raise DomainError(f"selection drops an endpoint of edge {e}")
    for f in sel.faces:
        for e, _ in k.faces[f]:
            if e not in eset:
                raise DomainError(f"selection drops an edge of face {f}")
    return vset, eset


def subcomplex(k: CW2Complex, sel: CellSelection):
    """Restrict to a selection, checking closure.

    Returns (complex, vertex_map, edge_map) where the maps send old indices
    to new ones.
    """
    vset, eset = _closed_cells(k, sel)
    vmap = {v: i for i, v in enumerate(sorted(vset))}
    kept = sorted(eset)
    emap = {e: i for i, e in enumerate(kept)}
    tails = [vmap[k.tails[e]] for e in kept]
    heads = [vmap[k.heads[e]] for e in kept]
    faces = [
        [(emap[e], s) for e, s in k.faces[f]] for f in sorted(sel.faces)
    ]
    return CW2Complex(len(vmap), tails, heads, faces), vmap, emap


def induced_h1(k: CW2Complex, sel: CellSelection) -> Matrix:
    """Matrix of H1(selection) -> H1(k), from an engine of its own
    (``H1Calculator.induced``)."""
    return H1Calculator(k).induced(sel)


@dataclass
class BaseComplex:
    """Telescope complex of a truncated tree, with cell registries.

    One vertex per node; a tree edge child -> parent for every non-root
    node; a loop at every positive node; and for every positive non-root
    node with label k a face whose word walks its own loop once, the tree
    edge up, the parent loop -k times, and the tree edge back.  Null tree
    edges stay naked: no loop, no face.
    """

    complex: CW2Complex
    tree: TruncatedTree
    vertex_of_node: dict
    tree_edge_of_node: dict
    loop_of_node: dict
    face_of_node: dict


def _telescope_edges(t: TruncatedTree, ceiling: int) -> tuple:
    """(vertex of each node id, tree edges, loops, heads) of the telescope
    of ``t``: vertex i is node i, the tree edges child -> parent and the
    loops, one per positive node, are given by their nodes' vertices in
    node order, and the heads follow the same order.  Refuses a telescope
    whose cells, faces included, exceed ``ceiling``."""
    parent = t.parent
    n = len(parent)
    vertex_of = dict(zip(t.ids, range(n)))
    climbs = [i for i, up in enumerate(parent) if up is not None]
    loops = list(compress(range(n), t.positive))
    n_faces = sum(parent[i] is not None for i in loops)
    total = n + len(climbs) + len(loops) + n_faces
    if total > ceiling:
        raise SizeCeilingError("telescope cells", total, ceiling)
    return vertex_of, climbs, loops, [vertex_of[parent[i]] for i in climbs] + loops


def telescope_graph(t: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> CW2Complex:
    """The 1-skeleton of the telescope ``build_base(t)``, with no faces:
    vertex i is node i, the tree edges child -> parent come in node order,
    then one loop per positive node.  It refuses the trees that
    ``build_base`` refuses, with the same count, faces included."""
    _, climbs, loops, heads = _telescope_edges(t, ceiling)
    return CW2Complex(len(t.ids), climbs + loops, heads, [])


def build_base(t: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> BaseComplex:
    """The skeleton ``telescope_graph(t, ceiling)`` with its faces and cell
    registries."""
    vertex_of, climbs, loops, heads = _telescope_edges(t, ceiling)
    ids = t.ids
    tree_edge_of = {ids[i]: e for e, i in enumerate(climbs)}
    loop_of = {ids[i]: e for e, i in enumerate(loops, len(climbs))}
    faces: list = []
    face_of: dict = {}
    for node_id, parent, label, positive in zip(ids, t.parent, t.label, t.positive):
        if positive and parent is not None:
            word = [(loop_of[node_id], 1), (tree_edge_of[node_id], 1)]
            word.extend([(loop_of[parent], -1)] * label)
            word.append((tree_edge_of[node_id], -1))
            face_of[node_id] = len(faces)
            faces.append(word)
    return BaseComplex(
        complex=CW2Complex(len(ids), climbs + loops, heads, faces),
        tree=t,
        vertex_of_node=vertex_of,
        tree_edge_of_node=tree_edge_of,
        loop_of_node=loop_of,
        face_of_node=face_of,
    )


def infinity_neighborhood_base(b: BaseComplex, i: int) -> CellSelection:
    """Cells at tiers >= i plus the connecting structure: the closure of the
    complement of the inner tiers, circle cells at tier i included."""
    t = b.tree
    if not (0 <= i <= t.depth):
        raise DomainError(f"tier {i} outside 0..{t.depth}")
    lo, hi = t.tier_starts[i], t.tier_starts[i + 1]
    outer = t.ids[lo:]
    deeper = t.ids[hi:]  # non-root, so each has a tree edge
    # build_base numbers every kind of cell in node order, tree edges before
    # loops, so the lists come out sorted
    loops = [b.loop_of_node[n] for n in compress(outer, t.positive[lo:])]
    return CellSelection(
        tuple([b.vertex_of_node[n] for n in outer]),
        tuple([b.tree_edge_of_node[n] for n in deeper] + loops),
        tuple([b.face_of_node[n] for n in compress(deeper, t.positive[hi:])]),
    )


def branch_selection(b: BaseComplex, branch_root: int) -> CellSelection:
    """Cells of the subtree hanging at ``branch_root`` (its own loop included)."""
    t = b.tree
    ids = []
    stack = [branch_root]
    while stack:
        cur = stack.pop()
        ids.append(cur)
        stack.extend(t.children(cur))
    verts = [b.vertex_of_node[x] for x in ids]
    edges = []
    faces = []
    for x in ids:
        positive = t.positive[t.position(x)]
        if positive:
            edges.append(b.loop_of_node[x])
        if x != branch_root:  # the walk reached x from its parent
            edges.append(b.tree_edge_of_node[x])
            if positive:
                faces.append(b.face_of_node[x])
    return CellSelection(tuple(sorted(verts)), tuple(sorted(edges)), tuple(sorted(faces)))


@dataclass
class CoverComplex:
    """Product structure on (clone tree) x [-N, N] plus dangling null copies."""

    complex: CW2Complex
    coset: CosetTree
    height: int
    product_vertex: dict  # (coset vert index, h) -> vertex
    null_vertex: dict  # (component index, h, node id) -> vertex

    @property
    def middle_vertex(self) -> int:
        return self.product_vertex[(self.coset.root_index, 0)]


def _layout_heights(height: int) -> list:
    """The heights of a cover of height bound ``height``, in layout order:
    0, -1, 1, -2, 2, ...  Past 0, the next inner height of the one at
    position p is at position max(p - 2, 0)."""
    return [0] + [h for s in range(1, height + 1) for h in (-s, s)]


def _cover_width(clones: int, nf: NullForest) -> int:
    """Vertices at each height of a cover over a clone tree of ``clones``
    vertices and the null forest ``nf``: the clones, then the null copies."""
    return clones + sum(len(comp.nodes) for comp in nf.components)


def cover_vertex(vi: int, h: int, clones: int, nf: NullForest) -> int:
    """Index of product vertex (vi, h) in a cover over a clone tree of
    ``clones`` vertices and the null forest ``nf``: height h is at position
    2|h| - (h < 0) of the layout."""
    return (2 * abs(h) - (h < 0)) * _cover_width(clones, nf) + vi


def check_cover_size(
    clones: int,
    nf: NullForest,
    height: int,
    ceiling: int = DEFAULT_CEILING,
) -> tuple:
    """Refuse the cover at ``height`` over a clone tree of ``clones``
    vertices and the null forest ``nf`` if its cells exceed ``ceiling``,
    else return its (vertex, edge) counts.  The count includes the square
    faces of ``build_cover``, so ``build_cover_graph`` and ``build_cover``
    refuse the same covers.  It needs only sizes, so a caller can refuse
    before it builds the clone tree or any other work that the cover's size
    bounds.  Each cover is a prefix of every taller one, so the two counts
    also cut this cover out of a taller one."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    n_heights = 2 * height + 1
    width = _cover_width(clones, nf)
    vertices = width * n_heights
    edges = (width - 1) * n_heights + clones * (n_heights - 1)
    faces = (clones - 1) * (n_heights - 1)
    if vertices + edges + faces > ceiling:
        raise SizeCeilingError("cover cells", vertices + edges + faces, ceiling)
    return vertices, edges


def build_cover_graph(
    c: CosetTree,
    nf: NullForest,
    height: int,
    ceiling: int = DEFAULT_CEILING,
) -> CW2Complex:
    """The 1-skeleton of the cover, with no faces, laid out shell by shell.

    The heights come in the order 0, -1, 1, ..., -height, height.  Each
    brings its ``width`` vertices: the product vertices (vi, h) in vi order,
    so (vi, h) is ``cover_vertex(vi, h, clones, nf)``, then the null copies in
    (component, node) order.  Then come its edges: horizontal
    (vi, h) -> (parent, h) over every non-root vi; each null node to its
    parent's copy, where a null root's parent copy is the product vertex
    that the residue odometer picks at height h; and, but at height 0, the
    vertical edges (vi, h) -> (vi, h + 1) between h and the next inner
    height.  No edge reaches out past its own height, so the cover at any
    height up to ``height`` is the prefix of this one that
    ``check_cover_size`` counts."""
    clones = len(c.verts)
    n_vertices, _ = check_cover_size(clones, nf, height, ceiling)
    width = _cover_width(clones, nf)
    # vertex 0 is the root, the only clone without a parent
    parents = c.parent_idx[1:]
    # per null component: the attach point's run start and order, and the
    # head of every other node's edge, counted from its height's first vertex
    null_runs = []
    at = clones
    for comp in nf.components:
        # comp.nodes[0] is the null root; the others hang below it
        pos = {tnode.id: j for j, tnode in enumerate(comp.nodes, at)}
        attach = comp.nodes[0].parent
        inner = [pos[t.parent] for t in comp.nodes[1:]]
        null_runs.append((c.index[(attach, 0)], c.order_of[attach], inner))
        at += len(comp.nodes)
    tails: list = []
    heads: list = []
    for shell, h in enumerate(_layout_heights(height)):
        first = shell * width
        tails += range(first + 1, first + width)
        heads += map(first.__add__, parents)
        for run, order, inner in null_runs:
            heads.append(first + run + h % order)
            heads += map(first.__add__, inner)
        if shell:
            inward = max(shell - 2, 0) * width
            low, high = (first, inward) if h < 0 else (inward, first)
            tails += range(low, low + clones)
            heads += range(high, high + clones)
    return CW2Complex(n_vertices, tails, heads, [])


def build_cover(
    c: CosetTree,
    nf: NullForest,
    height: int,
    ceiling: int = DEFAULT_CEILING,
) -> CoverComplex:
    """Cell the strip over the clone tree with square faces, then hang a
    copy of every truncated null subtree at each integer height, shifted by
    the residue odometer: ``build_cover_graph`` with its squares filled.
    Each height but 0 brings the squares between it and the next inner
    height, so the faces nest too."""
    skeleton = build_cover_graph(c, nf, height, ceiling)
    clones = len(c.verts)
    width = _cover_width(clones, nf)
    heights = _layout_heights(height)
    # the skeleton's numbering, height by height
    product_vertex = {
        (vi, h): shell * width + vi for shell, h in enumerate(heights) for vi in range(clones)
    }
    null_nodes = [(ci, tnode.id) for ci, comp in enumerate(nf.components) for tnode in comp.nodes]
    null_vertex = {
        (ci, h, node_id): shell * width + v
        for shell, h in enumerate(heights)
        for v, (ci, node_id) in enumerate(null_nodes, clones)
    }

    # The skeleton's edge runs: a height brings ``own`` horizontal and null
    # edges, horizontal edge (vi, h) being the (vi - 1)-th, and past 0 then
    # ``clones`` vertical ones, vertical edge vi being the vi-th.
    own = width - 1

    def first_edge(shell: int) -> int:
        return shell * own + max(shell - 1, 0) * clones

    faces: list = []
    for shell, h in enumerate(heights[1:], 1):
        # horizontal edge (vi, h) is outer + vi, and (vi, next inner) inner + vi
        outer, inner = first_edge(shell) - 1, first_edge(max(shell - 2, 0)) - 1
        below, above = (outer, inner) if h < 0 else (inner, outer)
        up = first_edge(shell) + own
        faces.extend(
            [(below + vi, 1), (up + parent, 1), (above + vi, -1), (up + vi, -1)]
            for vi, parent in enumerate(c.parent_idx[1:], 1)
        )

    k = CW2Complex(skeleton.num_vertices, skeleton.tails, skeleton.heads, faces)
    return CoverComplex(
        complex=k,
        coset=c,
        height=height,
        product_vertex=product_vertex,
        null_vertex=null_vertex,
    )


@dataclass
class FrontierGraph:
    """Two sheets of the radius-``i`` clone ball at heights +-i, joined by one
    vertical column edge over every distance-exactly-i vertex.

    The ball is the coset prefix ``range(nb)`` and its frontier the suffix
    ``range(f0, nb)`` (``nb = c.ball_size(i)``, ``f0 = c.ball_size(i - 1)``).
    Vertex (vi, i) is vi and (vi, -i) is nb + vi.  Edges come as the tree
    edges vi -> parent of sheet +i (vi = 1..nb-1), then those of sheet -i,
    then each frontier column (vi, -i) -> (vi, i) in vi order.  A column
    needs no inner vertices: no check reads a height strictly between -i
    and i, and a subdivided column has the same homotopy type."""

    complex: CW2Complex

    @property
    def betti(self) -> int:
        """First Betti number: edges - vertices + components."""
        k = self.complex
        return len(k.tails) - k.num_vertices + k.component_count()


def build_frontier_graph(c: CosetTree, i: int) -> FrontierGraph:
    if i < 0 or i > c.depth:
        raise DomainError(f"radius {i} outside 0..{c.depth}")
    if i == 0:
        return FrontierGraph(CW2Complex(1, [], [], []))
    nb, f0 = c.ball_size(i), c.ball_size(i - 1)
    parents = c.parent_idx[1:nb]
    # sheet +i, sheet -i, then the columns from (vi, -i) up to (vi, i)
    tails = [*range(1, nb), *range(nb + 1, 2 * nb), *range(nb + f0, 2 * nb)]
    heads = [*parents, *[nb + p for p in parents], *range(f0, nb)]
    return FrontierGraph(CW2Complex(2 * nb, tails, heads, []))


def _spanning_forest(k: CW2Complex):
    """BFS forest: parent[v] = (up vertex, edge, sign) with sign +1 when the
    edge is oriented up->v.  Returns (parent, depth, non-tree edges in
    index order)."""
    tails, heads = k.tails, k.heads
    # edge idx is idx in its tail's list and ~idx in its head's, tail first
    adj: list = [[] for _ in range(k.num_vertices)]
    for idx, t, h in zip(range(len(tails)), tails, heads):
        adj[t].append(idx)
        adj[h].append(~idx)
    parent: list = [None] * k.num_vertices
    depth: list = [None] * k.num_vertices
    non_tree = bytearray(b"\x01") * len(tails)
    for start in range(k.num_vertices):
        if depth[start] is not None:
            continue
        depth[start] = 0
        queue = [start]
        for v in queue:
            d = depth[v] + 1
            for idx in adj[v]:
                if idx >= 0:
                    w, sign = heads[idx], 1
                else:
                    idx = ~idx
                    w, sign = tails[idx], -1
                if depth[w] is None:
                    depth[w] = d
                    parent[w] = (v, idx, sign)
                    non_tree[idx] = 0
                    queue.append(w)
    return parent, depth, list(compress(range(len(tails)), non_tree))


def _tree_path_chain(parent, depth, frm: int, to: int) -> dict:
    """Edge chain of the forest path from ``frm`` to ``to`` as {edge: coeff}."""
    chain: dict = {}
    a, b = frm, to
    # climb the deeper endpoint; walking v -> parent(v) uses the edge with
    # opposite sign to parent[v]'s orientation.
    while a != b:
        if depth[a] >= depth[b]:
            up, idx, sign = parent[a]
            chain[idx] = chain.get(idx, 0) - sign
            a = up
        else:
            up, idx, sign = parent[b]
            chain[idx] = chain.get(idx, 0) + sign
            b = up
    return chain


def _cycle_columns(k: CW2Complex, forest: tuple, row_of: list) -> list:
    """Each fundamental cycle of ``forest``, a spanning forest of ``k``, as a
    sparse column on the rows ``row_of[e]`` of its edges (None: no row):
    row(e) + pot[tail] - pot[head] for non-tree edge e, pot[v] being the
    image of the forest path from v's root down to v."""
    parent, depth, non_tree = forest
    pot: list = [{}] * len(parent)  # roots share one empty dict, children their parent's over a rowless edge
    for v in sorted(range(len(parent)), key=depth.__getitem__):
        if parent[v] is not None:
            up, idx, sign = parent[v]
            row, p = row_of[idx], pot[up]
            pot[v] = p if row is None else {**p, row: p.get(row, 0) + sign}
    columns = []
    for e in non_tree:
        a, b, row = pot[k.tails[e]], pot[k.heads[e]], row_of[e]
        col = {} if a is b else {**a, **{r: a.get(r, 0) - x for r, x in b.items()}}
        if row is not None:
            col[row] = col.get(row, 0) + 1
        columns.append({r: x for r, x in col.items() if x})
    return columns


@dataclass(frozen=True)
class CollapseBond:
    """H1 matrix of the collapse from the radius-(i+1) frontier graph onto
    the radius-i one in fundamental-cycle coordinates, as sparse columns."""

    columns: tuple
    rows: int
    cols: int

    def surjective(self) -> bool:
        """Whether the bond is onto: its cokernel has only unit factors."""
        return all(f == 1 for f in unit_pivot_presentation(self.rows, self.columns).factors)


class FrontierTower:
    """The frontier graphs of one coset tree and the collapse bonds between
    neighbouring radii.  Each radius's graph and BFS spanning forest are
    built on first use and kept, so bonds i and i + 1 share radius i + 1."""

    def __init__(self, c: CosetTree):
        self.coset = c
        self._levels: dict = {}

    def level(self, i: int) -> tuple:
        """(frontier graph, spanning forest) at radius ``i``."""
        if i not in self._levels:
            graph = build_frontier_graph(self.coset, i)
            self._levels[i] = graph, _spanning_forest(graph.complex)
        return self._levels[i]

    def bond(self, i: int) -> CollapseBond:
        """Collapse sheets and columns by ancestor, and push the deep frontier
        graph's cycle basis into the shallow one's coordinates."""
        c = self.coset
        if i + 1 > c.depth:
            raise DomainError(f"need coset depth {i + 1}, have {c.depth}")
        deep, forest = self.level(i + 1)
        _, (_, _, non_tree_shallow) = self.level(i)

        # Each deep edge lands on at most one shallow edge, read off the two
        # layouts (see FrontierGraph): a sheet edge over a vertex of the
        # radius-i ball keeps its sheet, the column over a deep frontier
        # vertex lands on its parent's column, and everything else contracts.
        # Only sheet -i edges are rows: BFS from the root, vertex 0 on sheet
        # +i, reaches each (vi, -i) first up its own column, so every column
        # and every sheet +i edge is a forest edge.  So shallow row r, sheet
        # -i edge nb - 1 + j, goes straight to deep sheet -i edge
        # nb_deep - 1 + j.  At radius 0, a point, there are no rows.
        nb_deep, nb = c.ball_size(i + 1), c.ball_size(i)
        assert all(nb - 1 <= idx < 2 * nb - 2 for idx in non_tree_shallow), "a row off sheet -i"
        row_of = [None] * len(deep.complex.tails)
        for r, idx in enumerate(non_tree_shallow):
            row_of[idx + nb_deep - nb] = r
        columns = _cycle_columns(deep.complex, forest, row_of)
        return CollapseBond(tuple(columns), rows=len(non_tree_shallow), cols=len(columns))


def collapse_h1_matrix(c: CosetTree, i: int) -> CollapseBond:
    """Bond i of the frontier tower of ``c``, built on its own."""
    return FrontierTower(c).bond(i)
