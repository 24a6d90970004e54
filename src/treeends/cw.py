"""Finite CW 2-complexes for label telescopes and their covers.

This module is the brute-force side of every dual check: it materializes
actual cell complexes, runs exact integer homology on them, and lets the
closed-form answers elsewhere be compared against cell counting.

Complexes are immutable after construction.  Faces are attaching words:
sequences of (edge index, +1/-1) steps that must chain into a closed loop.

Every H1 route reads cycles off one BFS spanning forest, and one routine,
``_cycle_columns``, expands its fundamental cycles: it pushes forest
potentials down once and reads each cycle onto the rows of another graph's
cycle coordinates.  A ``FrontierTower`` builds each radius's graph and
forest once and reads its bonds that way, and ``H1Calculator.induced``
reads a subcomplex's generators straight onto the big complex's rows.
A frontier graph is the boundary of a clone ball times [-i, i]: two sheets
of the ball joined by one edge per frontier column, with no vertex at the
inner heights, so its cells grow with the ball and not with the radius.
One ``H1Calculator`` serves every induced map into its complex, and
``H1Calculator.fundamental_class`` reads the class of one non-tree edge's
cycle, such as a telescope loop's, without an edge vector.  That engine's
state, its forest, cycle rows and presentation, belongs to the complex: it
is built on first use and kept, so ``h1`` and ``induced_h1`` build it once
per complex, however often they are called.  Its presentation comes from
``intmat.unit_pivot_presentation``, whose passes skip the relations no
elimination changed, in the same order, and never visit an empty one, which
no elimination reaches, so the generators are the same.
``CW2Complex.level_component_counts`` counts a whole nested family of full
subgraphs, such as a telescope's neighbourhoods of infinity, in one
union-find sweep.

Checks that read only vertices and edges build 1-skeletons:
``telescope_graph`` is the face-free telescope, which ``build_base`` fills
with faces, and ``build_cover_graph`` the face-free cover, which
``build_cover`` fills.  A cover is laid out shell by shell, height 0 first,
then -1, 1, -2, 2 and so on, so the cover at any height is a prefix of every
taller one, and ``CW2Complex.prefix_component_counts`` counts the components
of every such prefix in one union-find pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, pairwise

from .coset import CosetTree
from .errors import DomainError, SizeCeilingError
from .intmat import Matrix, unit_pivot_presentation
from .unfold import DEFAULT_CEILING, NullForest, TruncatedTree


class CW2Complex:
    """A finite 2-complex.  Edge e runs from ``tails[e]`` to ``heads[e]``.
    The two lists are kept as given, so no one may change them afterwards;
    complexes with the same 1-skeleton may share them.  The H1 engine state
    read off them is kept on the complex once built (see ``H1Calculator``)."""

    def __init__(self, num_vertices: int, tails: list, heads: list, faces: list):
        if type(num_vertices) is not int or num_vertices < 0:
            raise DomainError(f"vertex count {num_vertices!r} is not a nonnegative int")
        if len(tails) != len(heads):
            raise DomainError(f"{len(tails)} edge tails but {len(heads)} heads")
        self.num_vertices = num_vertices
        self.tails, self.heads = tails, heads
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
        words: list = []
        for fi, word in enumerate(faces):
            # One walk checks that the word is a closed path, so its
            # boundary telescopes to zero.
            steps: list = []
            at = start = None
            for e, s in word:
                if not (type(e) is int and type(s) is int and 0 <= e < n_edges and s in (1, -1)):
                    raise DomainError(f"face {fi} has a bad step ({e}, {s})")
                src, dst = (tails[e], heads[e]) if s == 1 else (heads[e], tails[e])
                if at is None:
                    start = src
                elif at != src:
                    raise DomainError(f"face {fi} attaching word is not a path")
                at = dst
                steps.append((e, s))
            if not steps:
                raise DomainError(f"face {fi} has an empty attaching word")
            if at != start:
                raise DomainError(f"face {fi} attaching word does not close up")
            words.append(tuple(steps))
        self.faces = tuple(words)

    @property
    def edges(self) -> tuple:
        """The edges as (tail, head) pairs, built on first read."""
        try:
            return self._edges
        except AttributeError:
            self._edges = tuple(zip(self.tails, self.heads))
            return self._edges

    @staticmethod
    def _union_find(tails, heads, parent: list) -> int:
        """Merge the edges whose ends are paired up in ``tails`` and
        ``heads`` into the root links ``parent``, in place, and return the
        number of merges.  Each root is the least vertex of its component,
        so parent[v] <= v."""
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
        return merges

    def components(self) -> list:
        """Connected components of the 1-skeleton, each a sorted vertex tuple."""
        parent = list(range(self.num_vertices))
        self._union_find(self.tails, self.heads, parent)
        # parent[v] <= v, so one ascending pass sends each vertex to its root
        groups: dict = {}
        for v in range(len(parent)):
            parent[v] = root = parent[parent[v]]
            groups.setdefault(root, []).append(v)
        return [tuple(vs) for vs in groups.values()]

    def component_count(self) -> int:
        """Number of connected components of the 1-skeleton."""
        return self.num_vertices - self._union_find(self.tails, self.heads, list(range(self.num_vertices)))

    def level_component_counts(self, level: list) -> list:
        """Given an int level >= 0 for each vertex, the number of components
        of the full subgraph on the vertices of level <= L, for L = 0 up to
        the top level.  Each edge's ends are bucketed at the larger level of
        the two, and one union-find sweep merges the buckets in level order
        and reads the merge count at every level."""
        if len(level) != self.num_vertices:
            raise DomainError(f"{len(level)} levels for {self.num_vertices} vertices")
        if not set(map(type, level)) <= {int}:
            x = next(x for x in level if type(x) is not int)
            raise DomainError(f"vertex level {x!r} is not an int")
        if min(level, default=0) < 0:
            raise DomainError(f"negative vertex level {min(level)}")
        top = max(level, default=-1)
        new_vertices = [0] * (top + 1)
        for x in level:
            new_vertices[x] += 1
        new_tails: list = [[] for _ in range(top + 1)]
        new_heads: list = [[] for _ in range(top + 1)]
        for t, h in zip(self.tails, self.heads):
            x, y = level[t], level[h]
            x = x if x > y else y
            new_tails[x].append(t)
            new_heads[x].append(h)
        counts, parent, count = [], list(range(self.num_vertices)), 0
        for n, tails, heads in zip(new_vertices, new_tails, new_heads):
            count += n - self._union_find(tails, heads, parent)
            counts.append(count)
        return counts

    def prefix_component_counts(self, cuts: list) -> list:
        """Given ascending (vertex count, edge count) int cuts, the number of
        components of each prefix: vertices ``range(nv)`` and edges
        ``range(ne)``.  Each prefix must be closed, its edges ending at its
        vertices.  One union-find pass adds each cut's new run of edges, a
        slice of the tails and of the heads; the root links grow with the
        vertex prefix, so an edge that leaves it fails at its lookup."""
        counts: list = []
        parent: list = []
        merges = done = 0
        tails, heads = self.tails, self.heads
        for cut in cuts:
            try:
                nv, ne = cut
            except (TypeError, ValueError):
                raise DomainError(f"cut {cut!r} is not a pair of ints") from None
            if type(nv) is not int or type(ne) is not int:
                raise DomainError(f"cut ({nv!r}, {ne!r}) is not a pair of ints")
            if not (len(parent) <= nv <= self.num_vertices and done <= ne <= len(tails)):
                raise DomainError(
                    f"cut ({nv}, {ne}) does not ascend from ({len(parent)}, {done})"
                    f" within ({self.num_vertices}, {len(tails)})"
                )
            parent += range(len(parent), nv)
            try:
                merges += self._union_find(tails[done:ne], heads[done:ne], parent)
            except IndexError:
                e = next(e for e in range(done, ne) if max(tails[e], heads[e]) >= nv)
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

    The forest, each edge's cycle row and the presentation belong to the
    complex: the first calculator of a complex builds them and keeps them
    on it, and every later one is a view that reads them.
    """

    def __init__(self, k: CW2Complex):
        self.complex = k
        try:
            state = k._h1_state
        except AttributeError:
            state = k._h1_state = self._build_state(k)
        self._forest, self._row, self.presentation = state

    @staticmethod
    def _build_state(k: CW2Complex) -> tuple:
        """(spanning forest, each edge's cycle row, presentation) of ``k``.
        None of the three refers to ``k``, so keeping them on it makes no
        reference cycle."""
        forest = _spanning_forest(k)
        # each edge's cycle row: its place among the non-tree edges, or None
        row = [None] * len(k.tails)
        for r, e in enumerate(forest[2]):
            row[e] = r
        relations = []
        for word in k.faces:
            col: dict = {}
            for e, s in word:
                r = row[e]
                if r is not None:
                    col[r] = col.get(r, 0) + s
            relations.append(col)
        return forest, row, unit_pivot_presentation(len(forest[2]), relations)

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
        return [edge_vector[e] for e in self._forest[2]]

    def h1_coords(self, edge_vector: list) -> list:
        """Class of a cycle on the nontrivial summands, torsion reduced."""
        coords = self.cycle_coords(edge_vector)
        return self.presentation.coords({r: c for r, c in enumerate(coords) if c})

    def fundamental_class(self, e: int) -> list:
        """Class of non-tree edge ``e``'s fundamental cycle, ``e`` closed up
        by the forest path from its head back to its tail: the class of its
        one coordinate, torsion reduced.  A loop is never a forest edge."""
        if type(e) is not int or not 0 <= e < len(self.complex.tails):
            raise DomainError(f"edge {e} is not in range({len(self.complex.tails)})")
        r = self._row[e]
        if r is None:
            raise DomainError(f"edge {e} is a forest edge")
        return self.presentation.coords({r: 1})

    def induced(self, sel: CellSelection) -> Matrix:
        """Matrix of H1(selection) -> H1(k) on Smith-basis generators.

        Rows index the nontrivial summands of H1(k), columns the generators
        of the selected subcomplex; torsion rows are reduced modulo their
        factor.  Only the subcomplex gets an engine of its own, so one
        engine of ``k`` serves any number of selections: each sub
        generator's cycle is read straight onto its cycle rows.
        """
        sub, _, emap = subcomplex(self.complex, sel)
        chains = H1Calculator(sub)._generator_chains([self._row[e] for e in emap])
        cols = [self.presentation.coords(chain) for chain in chains]
        return [[col[r] for col in cols] for r in range(len(self.presentation.slots))]

    def generator_edge_vectors(self) -> list:
        """Edge chain of each H1 generator, from one expansion of the
        fundamental cycles."""
        n_edges = len(self.complex.tails)
        return [[chain.get(e, 0) for e in range(n_edges)] for chain in self._generator_chains(range(n_edges))]

    def _generator_chains(self, row_of) -> list:
        """Each generator as a sparse column on the rows ``row_of`` gives
        the edges (see ``_cycle_columns``): its fundamental cycles' columns,
        added by its coefficients."""
        cycles = _cycle_columns(self.complex, self._forest, row_of)
        chains = []
        for i in range(len(self.presentation.slots)):
            chain: dict = {}
            for r, c in self.presentation.generator(i).items():
                for row, x in cycles[r].items():
                    chain[row] = chain.get(row, 0) + c * x
            chains.append(chain)
        return chains


def h1(k: CW2Complex) -> H1Summary:
    """H1 of ``k`` from its engine, built on first use (``H1Calculator``)."""
    return H1Calculator(k).summary()


@dataclass(frozen=True)
class CellSelection:
    vertices: tuple
    edges: tuple
    faces: tuple


def subcomplex(k: CW2Complex, sel: CellSelection):
    """Restrict to a selection, once every index is checked to be an int
    naming a cell of ``k``.  The remap is the check that it is closed, each
    selected edge keeping both endpoints and each selected face all its
    edges; an open one is scanned again in its own order for its first offender.

    Returns (complex, vertex_map, edge_map) where the maps send old indices
    to new ones.
    """
    for kind, cells, size in (
        ("vertex", sel.vertices, k.num_vertices),
        ("edge", sel.edges, len(k.tails)),
        ("face", sel.faces, len(k.faces)),
    ):
        if cells and ({*map(type, cells)} != {int} or min(cells) < 0 or max(cells) >= size):
            bad = next(x for x in cells if type(x) is not int or not 0 <= x < size)
            raise DomainError(f"selected {kind} {bad} is not in range({size})")
    vmap = {v: i for i, v in enumerate(sorted({*sel.vertices}))}
    emap = {e: i for i, e in enumerate(sorted({*sel.edges}))}
    try:
        tails = [vmap[k.tails[e]] for e in emap]
        heads = [vmap[k.heads[e]] for e in emap]
        faces = [[(emap[e], s) for e, s in k.faces[f]] for f in sorted({*sel.faces})]
    except KeyError:
        for e in sel.edges:
            if k.tails[e] not in vmap or k.heads[e] not in vmap:
                raise DomainError(f"selection drops an endpoint of edge {e}") from None
        f = next(f for f in sel.faces if any(e not in emap for e, _ in k.faces[f]))
        raise DomainError(f"selection drops an edge of face {f}") from None
    return CW2Complex(len(vmap), tails, heads, faces), vmap, emap


def induced_h1(k: CW2Complex, sel: CellSelection) -> Matrix:
    """Matrix of H1(selection) -> H1(k) (``H1Calculator.induced``).  The
    engine of ``k`` is built on the first call and kept on ``k``, so a whole
    tower of selections into one complex builds it once."""
    return H1Calculator(k).induced(sel)


@dataclass
class BaseComplex:
    """Telescope complex of a truncated tree, its cells numbered by the
    tree's layout.

    Of a tree of n nodes, vertex p is the node at position p; tree edge
    p - 1 climbs from p > 0 to its parent; loop n - 1 + k is the loop of the
    k-th positive node; and the positive non-root node whose loop is edge l
    has face l - n, whose word walks its own loop once, the tree edge up,
    the parent loop -label times, and the tree edge back.  Null tree edges
    stay naked: no loop, no face.
    """

    complex: CW2Complex
    tree: TruncatedTree


def _loop_edges(t: TruncatedTree) -> list:
    """Entry p is the index of the loop at position p when that node is
    positive: n - 1 plus the positive nodes before p.  The last entry,
    one past every loop, is the edge count."""
    return list(accumulate(t.positive, initial=len(t.parent) - 1))


def _telescope_edges(t: TruncatedTree, ceiling: int) -> tuple:
    """(tails, heads) of the telescope of ``t``: the tree edges p -> parent
    in position order, then one loop per positive node.  Refuses a
    telescope whose cells, faces included, exceed ``ceiling``.  Position 0
    is the root, which is positive, so every other loop has a face."""
    parent = t.parent
    n = len(parent)
    loops = list(compress(range(n), t.positive))
    total = 2 * (n + len(loops) - 1)  # vertices, tree edges, loops, faces
    if total > ceiling:
        raise SizeCeilingError("telescope cells", total, ceiling)
    return [*range(1, n), *loops], [*map(t.position, parent[1:]), *loops]


def telescope_graph(t: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> CW2Complex:
    """The 1-skeleton of the telescope ``build_base(t)``, with no faces,
    numbered as ``BaseComplex`` says.  It refuses the trees that
    ``build_base`` refuses, with the same count, faces included."""
    return CW2Complex(len(t.parent), *_telescope_edges(t, ceiling), [])


def build_base(t: TruncatedTree, ceiling: int = DEFAULT_CEILING) -> BaseComplex:
    """The skeleton ``telescope_graph(t, ceiling)`` with its faces."""
    tails, heads = _telescope_edges(t, ceiling)
    n, loop, position = len(t.parent), _loop_edges(t), t.position
    faces = [
        [(loop[p], 1), (p - 1, 1), *[(loop[position(t.parent[p])], -1)] * t.label[p], (p - 1, -1)]
        for p in compress(range(1, n), t.positive[1:])
    ]
    return BaseComplex(CW2Complex(n, tails, heads, faces), t)


def infinity_neighborhood_base(b: BaseComplex, i: int) -> CellSelection:
    """Cells at tiers >= i plus the connecting structure: the closure of the
    complement of the inner tiers, circle cells at tier i included.  Each
    kind of cell is a run of the layout: the vertices and loops from tier i
    on, and the tree edges and faces from tier i + 1 on."""
    t = b.tree
    if type(i) is not int:
        raise DomainError(f"tier {i!r} is not an int")
    if not (0 <= i <= t.depth):
        raise DomainError(f"tier {i} outside 0..{t.depth}")
    n = len(t.parent)
    lo, hi = t.tier_starts[i], t.tier_starts[i + 1]
    loop = _loop_edges(t)
    return CellSelection(
        tuple(range(lo, n)),
        (*range(hi - 1, n - 1), *range(loop[lo], loop[n])),
        tuple(range(loop[hi] - n, loop[n] - n)),
    )


def branch_selection(b: BaseComplex, branch_root: int) -> CellSelection:
    """Cells of the subtree hanging at ``branch_root`` (its own loop included):
    the positions of the subtree, each below its top with its tree edge, and
    each positive one with its loop, and with its face below the top."""
    t = b.tree
    position, ids, positive = t.position, t.ids, t.positive
    if type(branch_root) is not int or branch_root not in ids:
        raise DomainError(f"node {branch_root} is not in the tree")
    top = position(branch_root)
    walked, stack = [], [top]
    while stack:
        p = stack.pop()
        walked.append(p)
        stack += map(position, t.children(ids[p]))
    inside = sorted(walked)  # the top is the least position
    below = inside[1:]
    n, loop = len(ids), _loop_edges(t)
    return CellSelection(
        tuple(inside),
        (*[p - 1 for p in below], *[loop[p] for p in inside if positive[p]]),
        tuple([loop[p] - n for p in below if positive[p]]),
    )


@dataclass
class CoverComplex:
    """Product structure on (clone tree) x [-N, N] plus dangling null copies,
    laid out as ``build_cover_graph`` says."""

    complex: CW2Complex
    coset: CosetTree


def _layout_heights(height: int) -> list:
    """The heights of a cover of height bound ``height``, in layout order:
    0, -1, 1, -2, 2, ...  Past 0, the next inner height of the one at
    position p is at position max(p - 2, 0)."""
    return [0] + [h for s in range(1, height + 1) for h in (-s, s)]


def _cover_width(clones: int, nf: NullForest) -> int:
    """Vertices at each height of a cover over a clone tree of ``clones``
    vertices and the null forest ``nf``: the clones, then the null copies."""
    return clones + len(nf.positions)


def cover_vertex(vi: int, h: int, clones: int, nf: NullForest) -> int:
    """Index of product vertex (vi, h) in a cover over a clone tree of
    ``clones`` vertices and the null forest ``nf``: height h is at position
    2|h| - (h < 0) of the layout.  Past the clones, vertex (clones + k, h) is
    the copy at height h of null node ``nf.positions[k]``."""
    width = _cover_width(clones, nf)
    if not 0 <= vi < width:
        raise DomainError(f"cover vertex {vi} is not in range({width})")
    return (2 * abs(h) - (h < 0)) * width + vi


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
    then the null copies in the null forest's order, so (vi, h) is
    ``cover_vertex(vi, h, clones, nf)`` and null node ``nf.positions[k]``'s
    copy is ``cover_vertex(clones + k, h, clones, nf)``.  Then come its
    edges: horizontal (vi, h) -> (parent, h) over every non-root vi; each
    null node to its parent's copy, where a null root's parent copy is the
    product vertex that the residue odometer picks at height h; and, but at
    height 0, the vertical edges (vi, h) -> (vi, h + 1) between h and the
    next inner height.  No edge reaches out past its own height, so the cover at any
    height up to ``height`` is the prefix of this one that
    ``check_cover_size`` counts."""
    clones = len(c)
    n_vertices, _ = check_cover_size(clones, nf, height, ceiling)
    width = _cover_width(clones, nf)
    # vertex 0 is the root, the only clone without a parent
    parents = c.parent_idx[1:]
    # per null component: the attach point's run start and order, and the
    # head of every other node's edge, counted from its height's first vertex
    ids, up, positions = nf.tree.ids, nf.tree.parent, nf.positions
    at = dict(zip(map(ids.__getitem__, positions), range(clones, width)))
    null_runs = []
    for lo, hi in pairwise(nf.starts):
        # positions[lo] is the null root; the others hang below it
        run = c.runs[c.base.position(up[positions[lo]])]
        null_runs.append((*run, [at[up[p]] for p in positions[lo + 1 : hi]]))
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
    clones = len(c)
    width = _cover_width(clones, nf)
    heights = _layout_heights(height)

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
    return CoverComplex(complex=k, coset=c)


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
    if type(i) is not int:
        raise DomainError(f"radius {i!r} is not an int")
    if i < 0 or i > c.depth:
        raise DomainError(f"radius {i} outside 0..{c.depth}")
    if i == 0:
        return FrontierGraph(CW2Complex(1, [], [], []))
    nb, f0 = c.ball_size(i), c.ball_size(i - 1)
    parents = c.parent_idx[1:nb]
    # sheet +i, sheet -i, then the columns from (vi, -i) up to (vi, i)
    tails = [*range(1, nb), *range(nb + 1, 2 * nb), *range(nb + f0, 2 * nb)]
    heads = [*parents, *map(nb.__add__, parents), *range(f0, nb)]
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
        if a is b:
            columns.append({} if row is None else {row: 1})
            continue
        col = {**a, **{r: a.get(r, 0) - x for r, x in b.items()}}
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
        if type(i) is not int:
            raise DomainError(f"radius {i!r} is not an int")
        if i not in self._levels:
            graph = build_frontier_graph(self.coset, i)
            self._levels[i] = graph, _spanning_forest(graph.complex)
        return self._levels[i]

    def bond(self, i: int) -> CollapseBond:
        """Collapse sheets and columns by ancestor, and push the deep frontier
        graph's cycle basis into the shallow one's coordinates."""
        c = self.coset
        if type(i) is not int:
            raise DomainError(f"radius {i!r} is not an int")
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
