"""The package's graph kernels against their references: the spanning
forest, collapse bonds and induced maps against frontier_reference (the
tuple-adjacency BFS forest, the walk-based fundamental cycles and the
edge-vector induced map), the level sweep against one counted
selection per level, the prefix counts against the BFS forest of each
prefix graph, and the engine state a complex keeps against an engine built
from scratch on an equal but separate complex.

The forest must come out equal, parent links, depths and non-tree edges
alike, on every kind of graph the package builds and on random multigraphs
with loops and repeated edges: the H1 engine's generator signs, and so the
homology digests, follow the forest.  The bonds must have the same columns.
The sweep must give every level's component count, since the battery reads
each neighbourhood of infinity off it, and the prefix counts every lower
cover's, on multigraphs with loops and parallel edges too.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import CORPUS
from frontier_reference import edge_vector_induced, fundamental_cycles, keyed_collapse, spanning_forest
from test_classify import valid_germs
from dense import full_selection
from test_cw import MULTIGRAPHS, random_complexes, twin, unzip
from treeends import cw
from treeends.coset import CosetTree
from treeends.cw import (
    CW2Complex,
    CellSelection,
    FrontierTower,
    H1Calculator,
    _cycle_columns,
    _spanning_forest,
    branch_selection,
    build_base,
    build_cover,
    build_frontier_graph,
    h1,
    induced_h1,
    infinity_neighborhood_base,
    subcomplex,
)
from treeends.errors import DomainError, SizeCeilingError
from treeends.unfold import null_forest, positive_part, truncate

CEILING = 3000


class TestSpanningForest:
    @settings(max_examples=300, deadline=None)
    @given(MULTIGRAPHS)
    def test_matches_the_reference_on_multigraphs(self, graph):
        n, edges = graph
        k = CW2Complex(n, *unzip(edges), [])
        assert _spanning_forest(k) == spanning_forest(k)

    def test_loops_and_repeated_edges(self):
        # a loop at the root, two pairs of opposite edges, and an
        # isolated vertex: every kind of adjacency entry in one graph
        k = CW2Complex(4, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1], [])
        assert _spanning_forest(k) == spanning_forest(k) == (
            [None, (0, 1, 1), (1, 3, 1), None],
            [0, 1, 2, 0],
            [0, 2, 4],
        )

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 3), st.integers(1, 2))
    def test_matches_the_reference_on_built_complexes(self, g, depth, height):
        """Telescopes, covers and every frontier graph of one germ."""
        try:
            t = truncate(g, depth, CEILING)
            c = CosetTree(positive_part(t), ceiling=CEILING)
            complexes = [build_base(t, CEILING).complex]
            complexes.append(build_cover(c, null_forest(t), height, CEILING).complex)
        except SizeCeilingError:
            return
        complexes += [build_frontier_graph(c, i).complex for i in range(c.depth + 1)]
        for k in complexes:
            assert _spanning_forest(k) == spanning_forest(k)


class TestCycleColumns:
    @settings(max_examples=300, deadline=None)
    @given(MULTIGRAPHS, st.data())
    def test_potentials_match_the_walked_cycles(self, graph, data):
        """Columns read off forest potentials against the reference's walked
        cycles, pushed through a random edge -> row map: rows shared by
        several edges, and edges without a row, included."""
        n, edges = graph
        k = CW2Complex(n, *unzip(edges), [])
        rows = st.none() | st.integers(0, 3)
        row_of = data.draw(st.lists(rows, min_size=len(edges), max_size=len(edges)))
        want = []
        for chain in fundamental_cycles(k)[1]:
            col = {}
            for e, x in chain.items():
                if row_of[e] is not None:
                    col[row_of[e]] = col.get(row_of[e], 0) + x
            want.append({r: x for r, x in col.items() if x})
        assert _cycle_columns(k, _spanning_forest(k), row_of) == want

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_columns_match_the_walked_cycles(self, g, depth):
        """Each bond's columns, read off forest potentials, against the
        reference's walked fundamental cycles pushed through the collapse."""
        try:
            c = CosetTree(positive_part(truncate(g, depth)), ceiling=1500)
        except SizeCeilingError:
            return
        tower = FrontierTower(c)
        for i in range(c.depth):
            bond, ref = tower.bond(i), keyed_collapse(c, i)
            assert (bond.columns, bond.rows, bond.cols) == (ref.columns, ref.rows, ref.cols)

    def test_each_radius_is_built_once(self, monkeypatch):
        radii = []

        def counted(c, i):
            radii.append(i)
            return build_frontier_graph(c, i)

        # the tower calls the builder through the module, as a tracer sees it
        monkeypatch.setattr(cw, "build_frontier_graph", counted)
        c = CosetTree(positive_part(truncate(CORPUS["two_loops"], 3)))
        tower = FrontierTower(c)
        bonds = [tower.bond(i) for i in range(3)]
        assert radii == [1, 0, 2, 3]
        assert tower.level(2) is tower.level(2)
        assert [b.rows for b in bonds] + [bonds[-1].cols] == [0, 4, 24, 124]


@st.composite
def closed_selections(draw):
    """A random complex, torsion included, and a closed selection on it,
    drawn by what it drops: some vertices, then some of the edges left
    with both ends kept, then some of the faces left with all their edges
    kept.  A dropped forest edge makes the subcomplex's forest differ from
    the complex's, and its forest then takes a non-tree edge of k wherever
    one joins the same pieces, the one case in which the signs of the
    forest potentials show; so the edges dropped are often forest edges
    of k on purpose."""
    k = draw(random_complexes())
    verts = set(range(k.num_vertices)) - draw(st.sets(st.integers(0, k.num_vertices - 1)))
    edges = {e for e, (t, h) in enumerate(k.edges) if t in verts and h in verts}
    forest = sorted(edges.intersection(up[1] for up in spanning_forest(k)[0] if up is not None))
    if forest and draw(st.booleans()):
        edges -= draw(st.sets(st.sampled_from(forest), min_size=1))
    edges -= draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
    faces = {f for f, word in enumerate(k.faces) if all(e in edges for e, _ in word)}
    faces -= draw(st.sets(st.sampled_from(sorted(faces)))) if faces else set()
    return k, CellSelection(tuple(sorted(verts)), tuple(sorted(edges)), tuple(sorted(faces)))


class TestInducedMaps:
    @settings(max_examples=300, deadline=None)
    @given(closed_selections())
    # two parallel edges and a back edge: the forest edge of k is dropped,
    # so the selection's forest takes a row of k
    @example((CW2Complex(2, [0, 0, 1], [1, 1, 0], []), CellSelection((0, 1), (1, 2), ())))
    def test_matches_the_edge_vector_route(self, case):
        """Each generator's cycle read onto the big complex's rows against
        the same generator written out as an edge vector of the big complex
        and coordinatized there."""
        k, sel = case
        assert H1Calculator(k).induced(sel) == edge_vector_induced(k, sel)

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_telescope_selections_match_the_edge_vector_route(self, g, depth):
        """Every neighbourhood of infinity and every branch of a telescope,
        through one engine, against the edge-vector route."""
        try:
            b = build_base(truncate(g, depth, CEILING), CEILING)
        except SizeCeilingError:
            return
        engine = H1Calculator(b.complex)
        sels = [infinity_neighborhood_base(b, i) for i in range(depth + 1)]
        sels += [branch_selection(b, node) for node in b.tree.ids]
        for sel in sels:
            assert engine.induced(sel) == edge_vector_induced(b.complex, sel)


def engine_answers(engine: H1Calculator, sels: list) -> tuple:
    """Everything an engine answers: its summary, the induced map of each
    selection, each edge's fundamental class (None on a forest edge) and
    each generator's edge vector."""
    classes = []
    for e in range(len(engine.complex.tails)):
        try:
            classes.append(engine.fundamental_class(e))
        except DomainError:
            classes.append(None)
    return engine.summary(), [engine.induced(sel) for sel in sels], classes, engine.generator_edge_vectors()


class TestSharedEngine:
    """An engine that reads the state its complex keeps answers as an
    engine built on an equal but separate complex, from scratch."""

    @settings(max_examples=150, deadline=None)
    @given(random_complexes())
    def test_random_complexes(self, k):
        sels = [full_selection(k), CellSelection((), (), ())]
        h1(k)  # builds and keeps k's state
        assert engine_answers(H1Calculator(k), sels) == engine_answers(H1Calculator(twin(k)), sels)

    @settings(max_examples=150, deadline=None)
    @given(closed_selections())
    def test_closed_selections(self, case):
        k, sel = case
        induced_h1(k, sel)  # builds and keeps k's state
        assert engine_answers(H1Calculator(k), [sel]) == engine_answers(H1Calculator(twin(k)), [sel])


# Edges in the order of their larger end: a loop at 0, three edges between
# 0 and 1 (two parallel, one opposite), a loop at 2 and two opposite edges
# between 1 and 2.
LOOPED_MULTIGRAPH = [(0, 0), (0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (2, 1)]


def counts_per_level(k: CW2Complex, level: list) -> list:
    """Each level's count, from the selection of the vertices of level <= L
    and the edges with both ends among them, counted on its own subcomplex."""
    counts = []
    for top in range(max(level, default=-1) + 1):
        verts = tuple(v for v in range(k.num_vertices) if level[v] <= top)
        kept = tuple(e for e, (t, h) in enumerate(k.edges) if level[t] <= top and level[h] <= top)
        counts.append(subcomplex(k, CellSelection(verts, kept, ()))[0].component_count())
    return counts


class TestLevelSweep:
    @settings(max_examples=300, deadline=None)
    @given(MULTIGRAPHS, st.data())
    def test_matches_one_selection_per_level(self, graph, data):
        """Each level's count against the selection of the vertices of level
        <= L and the edges with both ends among them, counted on its own
        subcomplex."""
        n, edges = graph
        k = CW2Complex(n, *unzip(edges), [])
        level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        assert k.level_component_counts(level) == counts_per_level(k, level)

    @pytest.mark.parametrize("level", [[0, 0, 0], [0, 1, 2], [2, 1, 0], [1, 0, 1], [0, 3, 0]])
    def test_loops_and_parallel_edges(self, level):
        """A loop at each end of a path whose two steps are each taken by
        parallel and opposite edges: each level's count against the
        counted selection."""
        k = CW2Complex(3, *unzip(LOOPED_MULTIGRAPH), [])
        assert k.level_component_counts(level) == counts_per_level(k, level)

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_counts_every_neighbourhood_of_infinity(self, g, depth):
        """On a telescope, level depth - tier counts the neighbourhood of
        infinity at every tier, as the battery reads it."""
        try:
            b = build_base(truncate(g, depth, CEILING), CEILING)
        except SizeCeilingError:
            return
        counts = b.complex.level_component_counts([depth - n.tier for n in b.tree.nodes])
        assert len(counts) == depth + 1
        for i in range(depth + 1):
            sub = subcomplex(b.complex, infinity_neighborhood_base(b, i))[0]
            assert counts[depth - i] == sub.component_count()

    @pytest.mark.parametrize(
        "level, message",
        [([0, 1], "2 levels for 3 vertices"), ([0, -1, 2], "negative vertex level -1")],
    )
    def test_levels_are_checked(self, level, message):
        k = CW2Complex(3, [0, 1], [1, 2], [])
        with pytest.raises(DomainError, match=message):
            k.level_component_counts(level)


class TestPrefixCounts:
    @settings(max_examples=300, deadline=None)
    @given(MULTIGRAPHS, st.data())
    def test_matches_each_prefix_counted_on_its_own(self, graph, data):
        """With the edges in the order of their larger end, every vertex
        prefix is closed with the edges below it.  Cuts at drawn vertex
        counts keep all or some of those edges, loops and parallel edges
        included, and each count is checked against the BFS forest of the
        prefix graph built on its own."""
        n, edges = graph
        edges = sorted(edges, key=max)
        k = CW2Complex(n, *unzip(edges), [])
        cuts, ne = [], 0
        for nv in sorted(data.draw(st.lists(st.integers(0, n), max_size=5))):
            ne = data.draw(st.integers(ne, sum(max(e) < nv for e in edges)))
            cuts.append((nv, ne))
        want = [spanning_forest(CW2Complex(nv, *unzip(edges[:ne]), []))[0].count(None) for nv, ne in cuts]
        assert k.prefix_component_counts(cuts) == want

    def test_loops_and_parallel_edges(self):
        k = CW2Complex(3, *unzip(LOOPED_MULTIGRAPH), [])
        cuts = [(1, 0), (1, 1), (2, 1), (2, 2), (2, 4), (3, 4), (3, 5), (3, 6), (3, 7)]
        assert k.prefix_component_counts(cuts) == [1, 1, 2, 1, 1, 2, 2, 1, 1]
