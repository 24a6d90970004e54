"""Tests for 2-complexes, telescope bases, strip covers, and frontier graphs."""

import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import CORPUS
from cover_reference import keyed_cover
from dense import boundary1, boundary2, full_selection, mat_mul, mat_vec
from frontier_reference import (
    fundamental_cycles,
    keyed_collapse,
    keyed_frontier_graph,
    subdivided_collapse,
    subdivided_frontier_graph,
    subdivision_map,
)
from test_classify import valid_germs
from tree_reference import KeyedCosetTree, keyed_truncate, null_components, tier_nodes
from treeends.classify import classify_ends
from treeends.coset import CosetTree, lambda_plus
from treeends.cw import (
    CW2Complex,
    CellSelection,
    CollapseBond,
    H1Calculator,
    H1Summary,
    _spanning_forest,
    _tree_path_chain,
    branch_selection,
    build_base,
    build_cover,
    build_cover_graph,
    build_frontier_graph,
    check_cover_size,
    collapse_h1_matrix,
    cover_vertex,
    h1,
    induced_h1,
    infinity_neighborhood_base,
    subcomplex,
    telescope_graph,
)
from treeends.errors import DomainError, SizeCeilingError
from treeends.germ import germ_from_edges, parse_germ, validate_germ
from treeends.intmat import smith_normal_form, unit_pivot_presentation
from treeends.reduce import elementary_reduction
from treeends.unfold import DEFAULT_CEILING, null_forest, positive_part, truncate

GERMS = Path(__file__).resolve().parent.parent / "germs"


def unzip(edges) -> tuple:
    """(tails, heads) of a list of (tail, head) pairs."""
    return [t for t, _ in edges], [h for _, h in edges]


def rank_over_rationals(matrix) -> int:
    """Row-reduce with exact fractions; checks ranks without Smith machinery."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def betti_by_rank(k: CW2Complex) -> int:
    """First Betti number from boundary ranks over the rationals."""
    d1, d2 = boundary1(k), boundary2(k)
    cycles = len(k.edges) - rank_over_rationals(d1)
    return cycles - (rank_over_rationals(d2) if k.faces else 0)


def _one_fixed_end_germs() -> dict:
    """Every valid germ in germs/ and the corpus with exactly one fixed end,
    plus one whose bonds are not onto (a positive edge into a null-only
    vertex), so both answers are compared."""
    germs = {f"corpus/{name}": g for name, g in CORPUS.items()}
    germs["dead_end"] = germ_from_edges("A", [("A", "A", 2), ("A", "C", 2), ("C", "C", 0)])
    for path in sorted(GERMS.glob("*.germ")):
        g = parse_germ(path.read_text())
        if validate_germ(g).ok:
            germs[f"germs/{path.stem}"] = g
    return {k: g for k, g in germs.items() if classify_ends(g).fixed_end_count == 1}


ONE_FIXED_END_GERMS = _one_fixed_end_germs()


def base_for(name: str, depth: int):
    return build_base(truncate(CORPUS[name], depth))


def coset_for(name: str, depth: int) -> CosetTree:
    return CosetTree(positive_part(truncate(CORPUS[name], depth)))


def telescope_cells(b) -> tuple:
    """(vertex, tree edge, loop, face) of each node of the telescope ``b``,
    dicts keyed by node id and read off its complex, not off its layout.  A
    node's vertex is its place in the tree's nodes view, checked against
    the complex's tree edges, which run child -> parent; its tree edge is
    the one non-loop edge out of that vertex, its loop the edge with
    tail == head there, and its face the one whose word starts on its loop,
    checked to walk that loop, the tree edge up, the parent loop -label
    times and the tree edge back."""
    k, nodes = b.complex, b.tree.nodes
    vertex = {n.id: v for v, n in enumerate(nodes)}
    out, at = {}, {}  # vertex -> its non-loop edge, and -> its loop
    for e, (t, h) in enumerate(k.edges):
        table = at if t == h else out
        assert t not in table
        table[t] = e
    climbs = [(vertex[n.id], vertex[n.parent]) for n in nodes if n.parent is not None]
    assert sorted(k.edges[e] for e in out.values()) == sorted(climbs)
    tree_edge = {n.id: out[vertex[n.id]] for n in nodes if n.parent is not None}
    loop = {n.id: at[vertex[n.id]] for n in nodes if n.positive}
    assert len(loop) == len(at)
    starts_on = {word[0][0]: f for f, word in enumerate(k.faces)}
    face = {n.id: starts_on[loop[n.id]] for n in nodes if n.positive and n.parent is not None}
    assert len(face) == len(k.faces)
    for n in nodes:
        if n.id in face:
            e, up = tree_edge[n.id], loop[n.parent]
            assert k.faces[face[n.id]] == ((loop[n.id], 1), (e, 1), *[(up, -1)] * n.label, (e, -1))
    return vertex, tree_edge, loop, face


# random multigraphs (n, edges): loops, repeated edges and isolated vertices
MULTIGRAPHS = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        if n
        else st.just([]),
    )
)


class TestCW2Complex:
    def test_boundary_composite_vanishes(self):
        for name in ["bs2", "two_loops", "mixed", "spin"]:
            k = base_for(name, 3).complex
            product = mat_mul(boundary1(k), boundary2(k))
            assert all(x == 0 for row in product for x in row)

    def test_edge_endpoint_range_checked(self):
        with pytest.raises(DomainError, match="endpoint out of range"):
            CW2Complex(2, *unzip([(0, 2)]), [])

    def test_empty_attaching_word_rejected(self):
        with pytest.raises(DomainError, match="empty attaching word"):
            CW2Complex(1, *unzip([(0, 0)]), [[]])

    def test_non_path_word_rejected(self):
        # two loops at different vertices cannot be concatenated
        with pytest.raises(DomainError, match="not a path"):
            CW2Complex(2, *unzip([(0, 0), (1, 1)]), [[(0, 1), (1, 1)]])

    def test_open_word_rejected(self):
        with pytest.raises(DomainError, match="does not close"):
            CW2Complex(2, *unzip([(0, 1)]), [[(0, 1)]])

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError, match="bad step"):
            CW2Complex(1, *unzip([(0, 0)]), [[(0, 2)]])

    @pytest.mark.parametrize(
        "num_vertices, edges, faces, message",
        [
            (2, [(0, 1), (0, 2)], [], "edge endpoint out of range: (0, 2)"),
            (1, [(0, 0)], [[(0, 1)], []], "face 1 has an empty attaching word"),
            (1, [(0, 0)], [[(0, 1)], [(0, 1), (0, 2)]], "face 1 has a bad step (0, 2)"),
            (1, [(0, 0)], [[(1, 1)]], "face 0 has a bad step (1, 1)"),
            (1, [(0, 0)], [[(0, 1.9)]], "face 0 has a bad step (0, 1.9)"),
            (1, [(0, 0)], [[(0, 1.0)]], "face 0 has a bad step (0, 1.0)"),
            (1, [(0, 0)], [[(0.6, -1)]], "face 0 has a bad step (0.6, -1)"),
            (2, [(0, 0), (1, 1)], [[(0, 1), (1, 1)]], "face 0 attaching word is not a path"),
            (2, [(0, 1)], [[(0, 1), (0, 1)]], "face 0 attaching word is not a path"),
            (2, [(0, 1), (1, 1)], [[(0, 1), (1, -1)]], "face 0 attaching word does not close up"),
        ],
        ids=[
            "endpoint", "empty", "step-sign", "step-edge", "step-sign-fraction", "step-sign-float",
            "step-edge-fraction", "path", "path-twice", "open",
        ],
    )
    def test_malformed_complex_messages(self, num_vertices, edges, faces, message):
        with pytest.raises(DomainError) as exc:
            CW2Complex(num_vertices, *unzip(edges), faces)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "tails, heads, message",
        [
            ([0, -1, 2, -2], [1, 0, 3, 0], "edge endpoint out of range: (-1, 0)"),
            ([0, 1, 2, 0], [1, 3, 3, -1], "edge endpoint out of range: (1, 3)"),
        ],
        ids=["negative-tail", "head-past-end"],
    )
    def test_range_check_names_the_first_bad_edge(self, tails, heads, message):
        with pytest.raises(DomainError) as exc:
            CW2Complex(3, tails, heads, [])
        assert str(exc.value) == message

    def test_tails_and_heads_must_pair_up(self):
        with pytest.raises(DomainError, match="2 edge tails but 1 heads"):
            CW2Complex(2, [0, 1], [1], [])

    def test_components_sorted(self):
        k = CW2Complex(5, *unzip([(1, 2), (4, 3)]), [])
        assert k.components() == [(0,), (1, 2), (3, 4)]

    @settings(max_examples=200, deadline=None)
    @given(MULTIGRAPHS)
    def test_components_match_breadth_first_search(self, graph):
        n, edges = graph
        adj: list = [[] for _ in range(n)]
        for t, h in edges:
            adj[t].append(h)
            adj[h].append(t)
        seen: set = set()
        want = []
        for start in range(n):
            if start in seen:
                continue
            seen.add(start)
            queue = deque([start])
            comp = []
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            want.append(tuple(sorted(comp)))
        assert CW2Complex(n, *unzip(edges), []).components() == want

    @settings(max_examples=200, deadline=None)
    @given(MULTIGRAPHS)
    def test_component_count_matches_the_components(self, graph):
        k = CW2Complex(graph[0], *unzip(graph[1]), [])
        assert k.component_count() == len(k.components())


class TestH1:
    def test_circle(self):
        assert h1(CW2Complex(1, *unzip([(0, 0)]), [])) == H1Summary(1, ())

    def test_loop_squared_gives_two_torsion(self):
        k = CW2Complex(1, *unzip([(0, 0)]), [[(0, 1), (0, 1)]])
        assert h1(k) == H1Summary(0, (2,))

    def test_torsion_must_divide_in_order(self):
        with pytest.raises(DomainError):
            H1Summary(0, (4, 2))
        assert H1Summary(0, (2, 4)).torsion == (2, 4)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_every_telescope_base_has_one_circle(self, name, depth):
        # each deeper loop is a labeled multiple of its parent loop, so
        # only the root circle survives, without torsion
        k = base_for(name, depth).complex
        assert h1(k) == H1Summary(1, ())
        assert betti_by_rank(k) == 1

    def test_betti_matches_rational_rank(self):
        complexes = [
            CW2Complex(1, *unzip([(0, 0)]), [[(0, 1), (0, 1)]]),
            CW2Complex(2, *unzip([(0, 0), (1, 1)]), []),
            base_for("two_loops", 2).complex,
        ]
        for k in complexes:
            assert h1(k).betti == betti_by_rank(k)

    def test_generators_round_trip_through_coordinates(self):
        for k in [
            base_for("two_loops", 2).complex,
            CW2Complex(1, *unzip([(0, 0)]), [[(0, 1), (0, 1)]]),
        ]:
            calc = H1Calculator(k)
            n = len(calc.presentation.slots)
            for which in range(n):
                coords = calc.h1_coords(calc.generator_edge_vector(which))
                assert coords == [1 if i == which else 0 for i in range(n)]

    def test_non_cycle_rejected(self):
        k = base_for("bs2", 2).complex
        calc = H1Calculator(k)
        vec = [0] * len(k.edges)
        vec[0] = 1  # a climb edge on its own has boundary
        with pytest.raises(DomainError, match="not a cycle"):
            calc.h1_coords(vec)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_edge_vector_rejected(self, delta):
        k = base_for("bs2", 2).complex
        calc = H1Calculator(k)
        vec = [0] * (len(k.edges) + delta)
        with pytest.raises(DomainError, match="length"):
            calc.cycle_coords(vec)
        with pytest.raises(DomainError, match="length"):
            calc.h1_coords(vec)


@st.composite
def random_complexes(draw):
    """Small complexes: random edges (loops included), often several
    components, and faces that are random closed walks."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=7))
    steps_at: list = [[] for _ in range(n)]
    for e, (t, h) in enumerate(edges):
        steps_at[t].append((e, 1, h))
        steps_at[h].append((e, -1, t))
    faces = []
    starts = [v for v in range(n) if steps_at[v]]
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if starts else 0):
        start = draw(st.sampled_from(starts))
        at = start
        word = []
        for choice in draw(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6)):
            e, s, nxt = steps_at[at][choice % len(steps_at[at])]
            word.append((e, s))
            at = nxt
        # close up along a shortest path back to the start
        back = {at: None}
        queue = deque([at])
        while start not in back:
            v = queue.popleft()
            for e, s, w in steps_at[v]:
                if w not in back:
                    back[w] = (v, e, s)
                    queue.append(w)
        tail = []
        v = start
        while back[v] is not None:
            u, e, s = back[v]
            tail.append((e, s))
            v = u
        faces.append(word + tail[::-1])
    return CW2Complex(n, *unzip(edges), faces)


def dense_h1(k: CW2Complex) -> H1Summary:
    """Reference: betti = E - rank d1 - rank d2, torsion from Smith of d2."""
    s1, s2 = smith_normal_form(boundary1(k)), smith_normal_form(boundary2(k))
    betti = len(k.edges) - s1.rank - s2.rank
    return H1Summary(betti, tuple(x for x in s2.d if x > 1))


class TestSparseEngine:
    @settings(max_examples=150, deadline=None)
    @given(random_complexes())
    # torsion Z/2 + Z/6 beside a free circle, and three circles over two components
    @example(CW2Complex(2, *unzip([(0, 0), (0, 0), (1, 1)]), [[(0, 1), (0, 1)], [(1, 1)] * 6]))
    @example(CW2Complex(3, *unzip([(0, 1), (1, 0), (0, 0), (2, 2)]), []))
    def test_agrees_with_dense_smith(self, k):
        calc = H1Calculator(k)
        assert calc.summary() == dense_h1(k)
        n = len(calc.presentation.slots)
        for which in range(n):
            coords = calc.h1_coords(calc.generator_edge_vector(which))
            assert coords == [1 if i == which else 0 for i in range(n)]
        d2 = boundary2(k)
        for j in range(len(k.faces)):
            assert calc.h1_coords([row[j] for row in d2]) == [0] * n

    @settings(max_examples=150, deadline=None)
    @given(random_complexes())
    def test_fundamental_class_is_the_class_of_the_cycle(self, k):
        """Each non-tree edge's class against its fundamental cycle's edge
        vector pushed through ``h1_coords``; forest edges are refused."""
        calc = H1Calculator(k)
        parent, depth, non_tree = _spanning_forest(k)
        for e in range(len(k.tails)):
            if e not in non_tree:
                with pytest.raises(DomainError, match=f"edge {e} is a forest edge"):
                    calc.fundamental_class(e)
                continue
            vec = [0] * len(k.tails)
            vec[e] += 1
            for idx, x in _tree_path_chain(parent, depth, k.heads[e], k.tails[e]).items():
                vec[idx] += x
            assert calc.fundamental_class(e) == calc.h1_coords(vec)

    @pytest.mark.parametrize("e", [-1, 3])
    def test_fundamental_class_range_checked(self, e):
        calc = H1Calculator(CW2Complex(2, [0, 0, 1], [1, 0, 1], []))
        with pytest.raises(DomainError, match=rf"edge {e} is not in range\(3\)"):
            calc.fundamental_class(e)


class TestSelections:
    def test_full_selection_is_the_identity(self):
        for name in ["bs2", "two_loops"]:
            k = base_for(name, 3).complex
            assert induced_h1(k, full_selection(k)) == [[1]]

    def test_deep_neighborhoods_multiply_by_the_tier_product(self):
        b = base_for("bs2", 3)
        got = [induced_h1(b.complex, infinity_neighborhood_base(b, i)) for i in range(4)]
        assert got == [[[1]], [[2]], [[4]], [[8]]]

    def test_neighborhood_splits_into_labeled_branches(self):
        b = base_for("two_loops", 2)
        assert induced_h1(b.complex, infinity_neighborhood_base(b, 1)) == [[2, 3]]

    def test_branch_selections_carry_one_label_each(self):
        b = base_for("two_loops", 2)
        first, second = b.tree.children(0)
        assert induced_h1(b.complex, branch_selection(b, first)) == [[2]]
        assert induced_h1(b.complex, branch_selection(b, second)) == [[3]]

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_one_engine_serves_every_selection(self, g, depth):
        """One engine, asked for the neighbourhoods and branches in both
        orders, gives the matrices of fresh ``induced_h1`` calls: it keeps
        no state between calls."""
        try:
            b = build_base(truncate(g, depth, 3000), 3000)
        except SizeCeilingError:
            return
        sels = [infinity_neighborhood_base(b, i) for i in range(depth + 1)]
        sels += [branch_selection(b, n.id) for n in b.tree.nodes[1:4]]
        want = [induced_h1(b.complex, sel) for sel in sels]
        engine = H1Calculator(b.complex)
        assert [engine.induced(sel) for sel in sels] == want
        assert [engine.induced(sel) for sel in reversed(sels)] == want[::-1]

    @settings(max_examples=60, deadline=None)
    @given(valid_germs(), st.integers(1, 3))
    def test_branch_loops_span_the_branch_image(self, g, depth):
        """A branch is a subtree plus one loop per positive node, so the gcd
        of its loops' classes in the telescope's H1 is the gcd of the
        entries of its induced map, at every node: the ray-multiplier reads
        the former off the telescope's one engine."""
        try:
            b = build_base(truncate(g, depth, 3000), 3000)
        except SizeCeilingError:
            return
        engine = H1Calculator(b.complex)
        loops = {e for e, (t, h) in enumerate(b.complex.edges) if t == h}
        for node in b.tree.nodes:
            sel = branch_selection(b, node.id)
            mat = engine.induced(sel)
            classes = [x for e in sel.edges if e in loops for x in engine.fundamental_class(e)]
            assert math.gcd(*classes) == math.gcd(*(x for row in mat for x in row))
            assert len(mat) == len(engine.presentation.slots)

    def test_neighborhood_tier_range_checked(self):
        b = base_for("bs2", 2)
        with pytest.raises(DomainError):
            infinity_neighborhood_base(b, 3)

    def test_selection_must_keep_endpoints(self):
        k = base_for("bs2", 1).complex
        with pytest.raises(DomainError, match="endpoint"):
            subcomplex(k, CellSelection((0,), (0,), ()))

    def test_selection_must_keep_face_edges(self):
        k = base_for("bs2", 1).complex
        sel = CellSelection(tuple(range(k.num_vertices)), (0, 2), (0,))
        with pytest.raises(DomainError, match="edge of face"):
            subcomplex(k, sel)

    @pytest.mark.parametrize(
        "sel, message",
        [
            (CellSelection((0, 1, 2), (-1,), ()), "selected edge -1 is not in range(3)"),
            (CellSelection((0, 1, 2), (0, 1, 2), (-1,)), "selected face -1 is not in range(1)"),
            (CellSelection((0, 1, 2, 7), (), ()), "selected vertex 7 is not in range(3)"),
            (CellSelection((0, 1, 2), (5,), ()), "selected edge 5 is not in range(3)"),
            (CellSelection((0, 1, 2), (-3, -2, -1), ()), "selected edge -3 is not in range(3)"),
        ],
        ids=["edge-negative", "face-negative", "vertex-past-end", "edge-past-end", "edges-wrapped"],
    )
    def test_selection_indices_are_range_checked(self, sel, message):
        k = CW2Complex(3, [0, 1, 2], [1, 2, 0], [[(0, 1), (1, 1), (2, 1)]])
        for route in (subcomplex, induced_h1, CW2Complex.component_count):
            with pytest.raises(DomainError) as exc:
                route(k, sel)
            assert str(exc.value) == message, route

    @settings(max_examples=150, deadline=None)
    @given(valid_germs(), st.integers(1, 4), st.data())
    def test_tier_slices_match_a_full_scan(self, g, depth, data):
        # tiers and neighbourhoods of infinity, served as slices, against a
        # scan of every node, on a tree of each constructor
        t = truncate(g, depth)
        lo = data.draw(st.integers(0, depth - 1))
        trees = [t, positive_part(t), elementary_reduction(t, lo, data.draw(st.integers(lo + 1, depth)))]
        for tree in trees:
            b = build_base(tree)
            for tier in range(-1, tree.depth + 2):
                assert tier_nodes(tree, tier) == tuple(n for n in tree.nodes if n.tier == tier)
            vertex_of, tree_edge_of, loop_of, face_of = telescope_cells(b)
            for i in range(tree.depth + 1):
                verts = [vertex_of[n.id] for n in tree.nodes if n.tier >= i]
                edges = [tree_edge_of[n.id] for n in tree.nodes if n.tier > i]
                edges += [loop_of[n.id] for n in tree.nodes if n.tier >= i and n.positive]
                faces = [face_of[n.id] for n in tree.nodes if n.tier > i and n.positive]
                want = CellSelection(tuple(sorted(verts)), tuple(sorted(edges)), tuple(sorted(faces)))
                assert infinity_neighborhood_base(b, i) == want

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4), st.data())
    def test_branches_match_a_full_scan(self, g, depth, data):
        # each branch against the cells, read off the complex, of the nodes
        # that a walk down the nodes view reaches, on a tree of each
        # constructor
        t = truncate(g, depth)
        lo = data.draw(st.integers(0, depth - 1))
        for tree in (t, positive_part(t), elementary_reduction(t, lo, data.draw(st.integers(lo + 1, depth)))):
            b = build_base(tree)
            vertex_of, tree_edge_of, loop_of, face_of = telescope_cells(b)
            kids = {n.id: [] for n in tree.nodes}
            for n in tree.nodes[1:]:
                kids[n.parent].append(n)
            for top in tree.nodes:
                inside, stack = [], [top]
                while stack:
                    inside.append(stack.pop())
                    stack += kids[inside[-1].id]
                below = inside[1:]
                verts = [vertex_of[n.id] for n in inside]
                edges = [tree_edge_of[n.id] for n in below] + [loop_of[n.id] for n in inside if n.positive]
                faces = [face_of[n.id] for n in below if n.positive]
                want = CellSelection(tuple(sorted(verts)), tuple(sorted(edges)), tuple(sorted(faces)))
                assert branch_selection(b, top.id) == want

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(0, 4), st.data())
    def test_selection_count_matches_the_subcomplex(self, g, depth, data):
        b = build_base(truncate(g, depth))
        k = b.complex
        sels = [infinity_neighborhood_base(b, i) for i in range(depth + 1)]
        sels += [branch_selection(b, node) for node in (1, 2, 3) if node < len(b.tree.nodes)]
        for sel in sels:
            assert k.component_count(sel) == subcomplex(k, sel)[0].component_count()
            # open the selection up: drop an endpoint of a selected edge, or
            # an edge of a selected face
            broken = []
            if sel.edges:
                e = data.draw(st.sampled_from(sel.edges))
                v = data.draw(st.sampled_from((k.tails[e], k.heads[e])))
                kept = tuple(x for x in sel.vertices if x != v)
                broken.append(CellSelection(kept, sel.edges, sel.faces))
            if sel.faces:
                f = data.draw(st.sampled_from(sel.faces))
                e = data.draw(st.sampled_from([e for e, _ in k.faces[f]]))
                kept = tuple(x for x in sel.edges if x != e)
                broken.append(CellSelection(sel.vertices, kept, sel.faces))
            for bad in broken:
                with pytest.raises(DomainError) as by_count:
                    k.component_count(bad)
                with pytest.raises(DomainError) as by_subcomplex:
                    subcomplex(k, bad)
                assert str(by_count.value) == str(by_subcomplex.value)

    def test_base_ceiling(self):
        with pytest.raises(SizeCeilingError):
            build_base(truncate(CORPUS["bs2"], 3), ceiling=10)


class TestCover:
    def test_trivial_germ_gives_a_segment(self):
        t = truncate(CORPUS["trivial"], 3)
        c, nf = CosetTree(t), null_forest(t)
        cov = build_cover(c, nf, 3)
        k = cov.complex
        assert (k.num_vertices, len(k.edges), len(k.faces)) == (7, 6, 0)
        assert len(k.components()) == 1
        # cutting the middle vertex separates the two ends
        mid = cover_vertex(0, 0, len(c), nf)
        assert mid == keyed_cover(KeyedCosetTree(keyed_truncate(CORPUS["trivial"], 3)), nf, 3).middle_vertex
        keep = [v for v in range(k.num_vertices) if v != mid]
        relabel = {v: i for i, v in enumerate(keep)}
        rest = CW2Complex(
            len(keep),
            *unzip([
                (relabel[a], relabel[b])
                for a, b in k.edges
                if a != mid and b != mid
            ]),
            [],
        )
        assert len(rest.components()) == 2

    def test_doubling_strip_counts(self):
        t = truncate(CORPUS["bs2"], 2)
        cov = build_cover(CosetTree(t), null_forest(t), 2)
        k = cov.complex
        assert (k.num_vertices, len(k.edges), len(k.faces)) == (35, 58, 24)
        assert len(k.components()) == 1

    def test_null_copies_stay_attached(self):
        t = truncate(CORPUS["mixed"], 2)
        cov = build_cover(CosetTree(positive_part(t)), null_forest(t), 1)
        k = cov.complex
        assert (k.num_vertices, len(k.edges), len(k.faces)) == (18, 21, 4)
        assert len(k.components()) == 1

    def test_null_bridges_follow_the_residue_odometer(self):
        t = truncate(CORPUS["mixed2"], 2)
        c = CosetTree(positive_part(t))
        nf = null_forest(t)
        cov = build_cover(c, nf, 2)
        ref_c = KeyedCosetTree(keyed_truncate(CORPUS["mixed2"], 2).positive_part())
        ref = keyed_cover(ref_c, nf, 2)
        ci, comp = next(
            (i, comp)
            for i, comp in enumerate(null_components(nf))
            if c.order_of[comp.nodes[0].parent] == 2
        )
        k = nf.starts[ci]  # the component's root comes first in its positions
        attach = comp.nodes[0].parent
        targets = []
        for h in range(-2, 3):
            src = cover_vertex(len(c) + k, h, len(c), nf)
            assert src == ref.null_vertex[(ci, h, comp.root_id)]
            (dst,) = [d for s, d in cov.complex.edges if s == src]
            targets.append(dst)
            expected = ref.product_vertex[(ref_c.index[(attach, h % 2)], h)]
            assert dst == expected
        # consecutive heights land on different residue copies
        assert all(a != b for a, b in zip(targets, targets[1:]))

    def test_square_faces_commute(self):
        t = truncate(CORPUS["two_loops"], 2)
        cov = build_cover(CosetTree(t), null_forest(t), 1)
        d1, d2 = boundary1(cov.complex), boundary2(cov.complex)
        product = mat_mul(d1, d2)
        assert all(x == 0 for row in product for x in row)

    def test_height_must_be_positive(self):
        t = truncate(CORPUS["bs2"], 1)
        for build in (build_cover, build_cover_graph):
            with pytest.raises(DomainError, match="height bound"):
                build(CosetTree(t), null_forest(t), 0)

    def test_cover_ceiling(self):
        t = truncate(CORPUS["bs2"], 2)
        with pytest.raises(SizeCeilingError):
            build_cover(CosetTree(t), null_forest(t), 2, ceiling=50)

    @settings(max_examples=200, deadline=None)
    @given(
        valid_germs(),
        st.integers(1, 3),
        st.integers(1, 4),
        st.one_of(st.just(DEFAULT_CEILING), st.integers(1, 3000)),
    )
    def test_index_arithmetic_matches_the_keyed_reference(self, g, depth, height, ceiling):
        t = truncate(g, depth)
        c, nf = lambda_plus(positive_part(t)), null_forest(t)
        try:
            ref = keyed_cover(KeyedCosetTree(keyed_truncate(g, depth).positive_part()), nf, height, ceiling)
        except SizeCeilingError as exc:
            # the skeleton refuses where the faced cover does, faces counted
            for build in (build_cover_graph, build_cover):
                with pytest.raises(SizeCeilingError) as got:
                    build(c, nf, height, ceiling)
                assert str(got.value) == str(exc)
            return
        graph = build_cover_graph(c, nf, height, ceiling)
        assert graph.num_vertices == ref.complex.num_vertices
        assert graph.edges == ref.complex.edges
        assert graph.faces == ()
        clones = len(c)
        assert {key: cover_vertex(*key, clones, nf) for key in ref.product_vertex} == ref.product_vertex
        assert cover_vertex(0, 0, clones, nf) == ref.middle_vertex
        cov = build_cover(c, nf, height, ceiling)
        assert cov.complex.num_vertices == ref.complex.num_vertices
        assert cov.complex.edges == ref.complex.edges
        assert cov.complex.faces == ref.complex.faces
        # null node positions[k]'s copy at h, past the clones
        null_at = {nf.tree.ids[p]: k for k, p in enumerate(nf.positions)}
        keys = list(ref.null_vertex)
        assert [cover_vertex(clones + null_at[node_id], h, len(cov.coset), nf) for _, h, node_id in keys] == [
            ref.null_vertex[key] for key in keys
        ]


class TestCoverNesting:
    """A cover is laid out shell by shell, so every lower cover is a prefix
    of a taller one, cut where ``check_cover_size`` counts it."""

    @settings(max_examples=150, deadline=None)
    @given(valid_germs(), st.integers(1, 3), st.integers(1, 4))
    def test_each_lower_cover_is_a_prefix(self, g, depth, top):
        t = truncate(g, depth)
        c, nf = lambda_plus(positive_part(t)), null_forest(t)
        try:
            tall = build_cover(c, nf, top, 3000)
        except SizeCeilingError:
            return
        k = tall.complex
        cuts = []
        for h in range(1, top + 1):
            nv, ne = check_cover_size(len(c.verts), nf, h, 3000)
            cuts.append((nv, ne))
            graph = build_cover_graph(c, nf, h, 3000)
            assert (graph.num_vertices, graph.tails, graph.heads) == (nv, k.tails[:ne], k.heads[:ne])
            cov = build_cover(c, nf, h, 3000).complex
            assert (cov.num_vertices, cov.edges) == (nv, k.edges[:ne])
            assert cov.faces == k.faces[: len(cov.faces)]
            assert len(cov.faces) == (len(c.verts) - 1) * 2 * h
        assert k.prefix_component_counts(cuts) == [
            build_cover_graph(c, nf, h, 3000).component_count() for h in range(1, top + 1)
        ]

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 3), st.integers(2, 4), st.data())
    def test_bad_cuts_are_refused(self, g, depth, top, data):
        t = truncate(g, depth)
        c, nf = lambda_plus(positive_part(t)), null_forest(t)
        try:
            k = build_cover_graph(c, nf, top, 3000)
        except SizeCeilingError:
            return
        cuts = [check_cover_size(len(c.verts), nf, h, 3000) for h in range(1, top + 1)]
        i = data.draw(st.integers(0, len(cuts) - 2))
        (nv, ne), (nv_next, ne_next) = cuts[i], cuts[i + 1]
        # a cut that descends in vertices or in edges
        for bad in ((nv_next, ne), (nv, ne_next)):
            with pytest.raises(DomainError, match="does not ascend"):
                k.prefix_component_counts([cuts[i + 1], bad])
        # a cut past the complex
        with pytest.raises(DomainError, match="does not ascend"):
            k.prefix_component_counts([(k.num_vertices + 1, len(k.tails))])
        # a cut that keeps an edge of the next shell, which reaches past its
        # vertices, and one that keeps too few vertices for its edges
        for bad in ((nv, ne + 1), (nv - 1, ne)):
            with pytest.raises(DomainError, match="drops an endpoint of edge"):
                k.prefix_component_counts(cuts[:i] + [bad])

    def test_counts_of_hand_made_prefixes(self):
        # a path 0 - 1 - 2 - 3 whose edges come in vertex order, and a
        # repeated cut
        k = CW2Complex(4, [0, 1, 2], [1, 2, 3], [])
        assert k.prefix_component_counts([(1, 0), (2, 0), (2, 1), (2, 1), (4, 2), (4, 3)]) == [1, 2, 1, 1, 2, 1]
        assert k.prefix_component_counts([]) == []
        with pytest.raises(DomainError) as exc:
            k.prefix_component_counts([(2, 2)])
        assert str(exc.value) == "prefix of 2 vertices drops an endpoint of edge 1"
        with pytest.raises(DomainError) as exc:
            k.prefix_component_counts([(3, 2), (2, 2)])
        assert str(exc.value) == "cut (2, 2) does not ascend from (3, 2) within (4, 3)"


class TestTelescopeGraph:
    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(0, 4), st.integers(1, 3000))
    def test_the_skeleton_of_the_faced_telescope(self, g, depth, ceiling):
        t = truncate(g, depth)
        try:
            b = build_base(t, ceiling)
        except SizeCeilingError as exc:
            # both refuse with the same count, faces included
            with pytest.raises(SizeCeilingError) as got:
                telescope_graph(t, ceiling)
            assert str(got.value) == str(exc)
            return
        k = telescope_graph(t, ceiling)
        assert (k.num_vertices, k.edges, k.faces) == (b.complex.num_vertices, b.complex.edges, ())


class TestFrontier:
    def test_radius_zero_is_a_point(self):
        fg = build_frontier_graph(coset_for("bs2", 4), 0)
        assert fg.complex.num_vertices == 1
        assert len(fg.complex.edges) == 0
        assert fg.betti == 0

    def test_doubling_pins(self):
        c = coset_for("bs2", 4)
        one = build_frontier_graph(c, 1)
        assert (one.complex.num_vertices, len(one.complex.edges), one.betti) == (6, 6, 1)
        three = build_frontier_graph(c, 3)
        assert (three.complex.num_vertices, len(three.complex.edges), three.betti) == (30, 36, 7)

    def test_two_loops_pins(self):
        c = coset_for("two_loops", 3)
        assert build_frontier_graph(c, 1).betti == 4
        assert build_frontier_graph(c, 2).betti == 24

    def test_plain_ray_has_no_cycles(self):
        assert build_frontier_graph(coset_for("ray1", 3), 2).betti == 0

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_size_check_counts_every_cell(self, name):
        # the battery's only size check on the tower is its covers': it counts
        # every cell of a cover from clone counts, and the cover at height 2
        # outsizes every frontier graph over the same clone tree
        t = truncate(CORPUS[name], 3)
        c, nf = CosetTree(positive_part(t)), null_forest(t)
        k = build_cover(c, nf, 2).complex
        cells = k.num_vertices + len(k.tails) + len(k.faces)
        assert check_cover_size(len(c.verts), nf, 2, cells) == (k.num_vertices, len(k.tails))
        with pytest.raises(SizeCeilingError, match=rf"^cover cells .*\({cells} > {cells - 1}\)$"):
            check_cover_size(len(c.verts), nf, 2, cells - 1)
        for i in range(c.depth + 1):
            graph = build_frontier_graph(c, i).complex
            assert graph.num_vertices + len(graph.tails) < cells

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_a_cover_outsizes_every_graph_over_its_tree(self, g, depth):
        """The battery counts no frontier graph: over c clones each has at
        most 5c - 2 cells, and a cover of height 2 or more at least 18c - 9,
        so the covers' size check bounds the whole tower."""
        t = truncate(g, depth)
        try:
            c = CosetTree(positive_part(t), ceiling=1500)
            k = build_cover(c, null_forest(t), 2, 20000).complex
        except SizeCeilingError:
            return
        clones = len(c.verts)
        cover = k.num_vertices + len(k.tails) + len(k.faces)
        assert cover >= 18 * clones - 9
        for i in range(c.depth + 1):
            graph = build_frontier_graph(c, i).complex
            assert graph.num_vertices + len(graph.tails) <= 5 * clones - 2

    @staticmethod
    def assert_rows_come_from_sheet_minus_i(c):
        # BFS from the root, on sheet +i, climbs each column before it walks
        # sheet -i, so only sheet -i edges close cycles (see FrontierTower.bond)
        for i in range(1, c.depth + 1):
            nb = c.ball_size(i)
            _, _, non_tree = _spanning_forest(build_frontier_graph(c, i).complex)
            assert all(nb - 1 <= e < 2 * (nb - 1) for e in non_tree), i

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_only_sheet_minus_i_edges_leave_the_forest(self, name):
        self.assert_rows_come_from_sheet_minus_i(coset_for(name, 3))

    @settings(max_examples=150, deadline=None)
    @given(valid_germs(), st.integers(1, 3))
    def test_only_sheet_minus_i_edges_leave_the_forest_of_any_germ(self, g, depth):
        try:
            c = CosetTree(positive_part(truncate(g, depth)), ceiling=1500)
        except SizeCeilingError:
            return
        self.assert_rows_come_from_sheet_minus_i(c)

    @pytest.mark.parametrize("name,radius", [("bs2", 2), ("two_loops", 2), ("spin", 2)])
    def test_betti_agrees_with_cover_route(self, name, radius):
        c = coset_for(name, 3)
        fg = build_frontier_graph(c, radius)
        k = fg.complex
        assert fg.betti == len(k.edges) - k.num_vertices + len(k.components())

    def test_fundamental_cycles_close_up(self):
        fg = build_frontier_graph(coset_for("bs2", 4), 2)
        k = fg.complex
        non_tree, chains = fundamental_cycles(k)
        assert len(non_tree) == fg.betti
        d1 = boundary1(k)
        for e_idx, chain in zip(non_tree, chains):
            assert chain[e_idx] == 1
            vec = [0] * len(k.edges)
            for e, coef in chain.items():
                vec[e] = coef
            assert all(x == 0 for x in mat_vec(d1, vec))

    @settings(max_examples=150, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_layout_matches_the_keyed_reference(self, g, depth):
        """Every frontier graph and collapse bond against the keyed builders
        of frontier_reference: same edges in the same order, same bonds."""
        try:
            c = CosetTree(positive_part(truncate(g, depth)), ceiling=1500)
        except SizeCeilingError:
            return
        for i in range(c.depth + 1):
            got, (ref, _) = build_frontier_graph(c, i).complex, keyed_frontier_graph(c, i)
            assert got.num_vertices == ref.num_vertices
            assert got.edges == ref.edges
        for i in range(c.depth):
            bond, ref_bond = collapse_h1_matrix(c, i), keyed_collapse(c, i)
            assert (bond.columns, bond.rows, bond.cols) == (
                ref_bond.columns,
                ref_bond.rows,
                ref_bond.cols,
            )

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 4))
    def test_bonds_match_the_subdivided_layout(self, g, depth):
        """Each bond against the former layout, whose columns pass through
        every inner height.  The subdivision map carries the former bond
        onto this one, and both have the same shape and the same cokernel,
        so the same onto-ness."""
        try:
            c = CosetTree(positive_part(truncate(g, depth)), ceiling=1500)
        except SizeCeilingError:
            return
        maps = [subdivision_map(c, i) for i in range(c.depth + 1)]

        def apply(columns, vector):
            out = {}
            for j, x in vector.items():
                for r, y in columns[j].items():
                    out[r] = out.get(r, 0) + x * y
            return {r: x for r, x in out.items() if x}

        for i in range(c.depth):
            bond, old = collapse_h1_matrix(c, i), subdivided_collapse(c, i)
            assert (bond.rows, bond.cols) == (old.rows, old.cols)
            # the square commutes: the former bond then the map equals the map then the bond
            for j, column in enumerate(old.columns):
                assert apply(maps[i], column) == apply(bond.columns, maps[i + 1][j])
            assert sorted(unit_pivot_presentation(bond.rows, bond.columns).factors) == sorted(
                unit_pivot_presentation(old.rows, old.columns).factors
            )


class TestCollapse:
    def test_doubling_collapse_shapes_and_surjectivity(self):
        c = coset_for("bs2", 4)
        got = []
        for i in range(4):
            bond = collapse_h1_matrix(c, i)
            got.append((bond.rows, bond.cols, bond.surjective()))
            # each shallow cycle is the image of one deep cycle; the rest collapse
            assert bond.columns == tuple({r: 1} for r in range(bond.rows)) + ({},) * (
                bond.cols - bond.rows
            )
        assert got == [
            (0, 1, True),
            (1, 3, True),
            (3, 7, True),
            (7, 15, True),
        ]

    def test_branching_collapse_is_onto(self):
        c = coset_for("two_loops", 3)
        for i in range(2):
            bond = collapse_h1_matrix(c, i)
            assert bond.rows == build_frontier_graph(c, i).betti
            assert bond.cols == build_frontier_graph(c, i + 1).betti
            assert bond.surjective()

    def test_onto_past_a_core_without_unit_pivots(self):
        # no entry is +-1, so the answer comes from Smith on the core
        assert not CollapseBond(({0: 2},), 1, 1).surjective()
        assert CollapseBond(({0: 2}, {0: 3}), 1, 2).surjective()
        assert not CollapseBond(({0: 2, 1: 2}, {0: 4, 1: 6}), 2, 2).surjective()

    def test_depth_requirement(self):
        c = coset_for("bs2", 2)
        with pytest.raises(DomainError, match="depth"):
            collapse_h1_matrix(c, 2)

    @pytest.mark.parametrize("name", ONE_FIXED_END_GERMS)
    def test_onto_agrees_with_dense_smith(self, name):
        g = ONE_FIXED_END_GERMS[name]
        c = CosetTree(positive_part(truncate(g, 3)))
        for i in range(3):
            bond = collapse_h1_matrix(c, i)
            assert len(bond.columns) == bond.cols
            assert all(0 <= r < bond.rows and x for col in bond.columns for r, x in col.items())
            dense = [[col.get(r, 0) for col in bond.columns] for r in range(bond.rows)]
            s = smith_normal_form(dense)
            want = bond.rows == 0 or (s.rank == bond.rows and all(x == 1 for x in s.d))
            assert bond.surjective() == want, (name, i)

