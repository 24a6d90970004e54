from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from test_classify import valid_germs
from tree_reference import (
    KeyedCosetTree,
    canonical_key,
    colored_nodes,
    keyed_elementary_reduction,
    keyed_lambda_of_coset,
    keyed_null_forest,
    keyed_truncate,
    keyed_wedge_expansion,
    node,
    null_components,
    recursive_canonical_key,
    tier_nodes,
)
from treeends.coset import (
    BLACK,
    DASHED,
    GRAY,
    CosetTree,
    OdometerMap,
    clone_tree_models,
    colored_trees_isomorphic,
    frontier_count,
    lambda_of_coset,
    lambda_plus,
    wedge_expansion,
)
from treeends.errors import DomainError, SizeCeilingError
from treeends.germ import germ_from_edges, parse_germ
from treeends.reduce import elementary_reduction
from treeends.unfold import DEFAULT_CEILING, null_forest, positive_part, truncate
from corpus import CORPUS


# Oracle: the clone count over tier i is the sum, over positive length-i
# root paths, of the product of the labels along the path.
def weighted_path_count(g, tier):
    total = 0
    stack = [(g.root, 0, 1)]
    while stack:
        at, dist, weight = stack.pop()
        if dist == tier:
            total += weight
            continue
        for _, edge in g.out_edges(at):
            if edge.label > 0:
                stack.append((edge.dst, dist + 1, weight * edge.label))
    return total


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("tier", [0, 1, 2, 3, 4])
def test_frontier_count_matches_weighted_paths(name, tier):
    g = CORPUS[name]
    assert frontier_count(g, tier) == weighted_path_count(g, tier)


def test_frontier_count_frozen_values():
    assert [frontier_count(CORPUS["bs2"], i) for i in range(5)] == [1, 2, 4, 8, 16]
    assert [frontier_count(CORPUS["two_loops"], i) for i in range(4)] == [1, 5, 25, 125]
    assert [frontier_count(CORPUS["null_ray"], i) for i in range(3)] == [1, 0, 0]


def test_vertex_order_products():
    # a vertex's order is the product of the labels on its root path
    t = truncate(CORPUS["bs2"], 3)
    tier3 = tier_nodes(t, 3)
    assert [CosetTree(t).order_of[n.id] for n in tier3] == [8]
    t = truncate(CORPUS["spin"], 2)
    # path A -> B (2) -> A (3)
    b = tier_nodes(t, 1)[0]
    assert b.germ_vertex == "B"
    deep = [node(t, c) for c in t.children(b.id)]
    assert [CosetTree(t).order_of[n.id] for n in deep] == [6]


def test_vertex_order_rejects_null_nodes():
    # a null node has no order: the coset tree refuses a base containing one
    t = truncate(CORPUS["null_ray"], 2)
    null_node = tier_nodes(t, 1)[0]
    with pytest.raises(DomainError, match=f"node {null_node.id} is not"):
        CosetTree(t)


def test_coset_tree_vertex_counts():
    c = lambda_plus(positive_part(truncate(CORPUS["bs2"], 2)))
    assert len(c.verts) == 7
    assert [sum(c.tier(v) == i for v in range(len(c.verts))) for i in range(3)] == [1, 2, 4]
    c3 = lambda_plus(positive_part(truncate(CORPUS["two_loops"], 2)))
    assert [sum(c3.tier(v) == i for v in range(len(c3.verts))) for i in range(3)] == [1, 5, 25]


def test_coset_rejects_null_base():
    t = truncate(CORPUS["null_ray"], 2)
    with pytest.raises(DomainError):
        CosetTree(t)


def test_coset_ceiling():
    # the depth-5 clone tree has 1 + 5 + ... + 5**5 = 3906 vertices
    with pytest.raises(SizeCeilingError):
        lambda_plus(positive_part(truncate(CORPUS["two_loops"], 5)), ceiling=1000)


@pytest.mark.parametrize("name", ["bs2", "bs3", "two_loops", "spin", "mixed2"])
def test_odometer_commutes_with_parent(name):
    c = lambda_plus(positive_part(truncate(CORPUS[name], 3)))
    od = OdometerMap(c)
    for vi in range(len(c.verts)):
        p = c.parent_idx[vi]
        if p is None:
            continue
        assert c.parent_idx[od.image_index(vi)] == od.image_index(p)


@pytest.mark.parametrize("name", ["bs2", "bs3", "two_loops", "spin"])
def test_odometer_orbits_have_full_length(name):
    c = lambda_plus(positive_part(truncate(CORPUS[name], 3)))
    od = OdometerMap(c)
    perm = [od.image_index(i) for i in range(len(c.verts))]
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        at = perm[start]
        while at != start:
            orbit.append(at)
            seen.add(at)
            at = perm[at]
        bid, _ = c.verts[start]
        assert len(orbit) == c.order_of[bid]
        assert {c.verts[v][0] for v in orbit} == {bid}


def test_odometer_power_wraps():
    c = lambda_plus(positive_part(truncate(CORPUS["bs2"], 2)))
    od = OdometerMap(c)
    for vi in range(len(c.verts)):
        bid, _ = c.verts[vi]
        assert od.image_index(vi, c.order_of[bid]) == vi


def test_wedge_frozen_counts():
    w = wedge_expansion(truncate(CORPUS["bs2"], 2))
    assert len(w) == 7
    colors = [n.color for n in colored_nodes(w)]
    assert (colors.count(BLACK), colors.count(GRAY), colors.count(None)) == (2, 4, 1)
    m = wedge_expansion(truncate(CORPUS["mixed"], 2))
    assert [n.color for n in colored_nodes(m)].count(DASHED) == 3


def test_lambda_of_coset_marks_residue_zero_original():
    t = truncate(CORPUS["bs2"], 3)
    c = lambda_plus(positive_part(t))
    ct = lambda_of_coset(c, null_forest(t))
    for n, (bid, residue) in zip(colored_nodes(ct), c.verts):
        assert n.original == (residue == 0)
        if n.parent is not None:
            assert n.color == (BLACK if residue == 0 else GRAY)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_models_agree_as_colored_trees(name, depth):
    via_coset, via_wedge = clone_tree_models(CORPUS[name], depth)
    assert colored_trees_isomorphic(via_coset, via_wedge)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_canonical_keys_match_the_recursive_keys(name):
    for tree in clone_tree_models(CORPUS[name], 3):
        for node_id in (0, len(tree) // 2, len(tree) - 1):
            assert canonical_key(tree, node_id) == recursive_canonical_key(colored_nodes(tree), node_id)


def test_models_agree_past_the_recursion_limit():
    # a single label-1 loop unfolds to a path of 1,201 nodes per model
    via_coset, via_wedge = clone_tree_models(parse_germ("root A\nedge A A 1\n"), 1200)
    assert len(via_coset) == 1201
    assert colored_trees_isomorphic(via_coset, via_wedge)


def test_models_detect_label_differences():
    a, _ = clone_tree_models(CORPUS["bs2"], 2)
    b, _ = clone_tree_models(CORPUS["bs3"], 2)
    assert not colored_trees_isomorphic(a, b)


def test_wedge_null_gets_single_dashed_copy():
    # a label-2 node with a null child: the two clones of the parent exist,
    # but only the original copy hangs the dashed null subtree
    g = germ_from_edges("A", [("A", "A", 2), ("A", "B", 0), ("B", "B", 0)])
    w = wedge_expansion(truncate(g, 2))
    # tier-1 originals: 1 black; clones: 1 gray; null: dashed off originals only
    nodes = colored_nodes(w)
    dashed = [n for n in nodes if n.color == DASHED]
    for n in dashed:
        parent = nodes[n.parent]
        assert parent.original


def _built_or_refused(build, *args):
    try:
        return build(*args), None
    except SizeCeilingError as exc:
        return None, str(exc)


CEILINGS = st.one_of(st.integers(1, 3000), st.just(DEFAULT_CEILING))


def _assert_columns(t, nodes):
    """The columns of ``t`` hold the fields of ``nodes``, TreeNode records
    in tier order, and its view is unbuilt until read."""
    assert list(t.ids) == [n.id for n in nodes]
    assert t.parent == [n.parent for n in nodes]
    assert t.vertex == [n.germ_vertex for n in nodes]
    assert t.label == [n.label for n in nodes]
    assert t.positive == [n.positive for n in nodes]
    tiers = [n.tier for n in nodes]
    assert t.tier_starts == tuple(bisect_left(tiers, k) for k in range(t.depth + 2))
    assert "_nodes" not in vars(t)
    assert t.nodes == nodes
    assert "_nodes" in vars(t)


@settings(max_examples=200, deadline=None)
@given(valid_germs(), st.integers(0, 5), CEILINGS, CEILINGS)
def test_tree_builders_match_the_keyed_builders(g, depth, ceiling, coset_ceiling):
    """Truncation, its positive part, null forest and every elementary
    reduction, the coset layout and its coloring against the keyed builders
    of tree_reference: the same nodes in the same order, column by column
    and in the view, and the same refusal, tier and count included,
    wherever either side refuses.  The coset tree gets its own ceiling,
    since one that admits the truncation seldom refuses it."""
    t, refused = _built_or_refused(truncate, g, depth, ceiling)
    ref, ref_refused = _built_or_refused(keyed_truncate, g, depth, ceiling)
    assert refused == ref_refused
    if refused:
        assert refused.startswith("truncation at tier ")
        return
    assert isinstance(t.ids, range)
    _assert_columns(t, ref.nodes)
    assert "position" not in vars(t) and "_children" not in vars(t)
    assert [node(t, n.id) for n in ref.nodes] == list(ref.nodes)
    assert "position" in vars(t) and "_children" not in vars(t)
    assert [t.children(n.id) for n in ref.nodes] == [ref.children(n.id) for n in ref.nodes]
    pos, ref_pos = positive_part(t), ref.positive_part()
    _assert_columns(pos, ref_pos.nodes)
    assert [node(pos, n.id) for n in ref_pos.nodes] == list(ref_pos.nodes)
    assert [pos.children(n.id) for n in ref_pos.nodes] == [ref_pos.children(n.id) for n in ref_pos.nodes]
    assert null_components(null_forest(t)) == keyed_null_forest(ref)
    for i in range(depth):
        for j in range(i + 1, depth + 1):
            for tree, ref_tree in ((t, ref), (pos, ref_pos)):
                reduced, ref_reduced = elementary_reduction(tree, i, j), keyed_elementary_reduction(ref_tree, i, j)
                assert reduced.depth == ref_reduced.depth
                _assert_columns(reduced, ref_reduced.nodes)

    c, refused = _built_or_refused(CosetTree, pos, coset_ceiling)
    ref_c, ref_refused = _built_or_refused(KeyedCosetTree, ref.positive_part(), coset_ceiling)
    assert refused == ref_refused
    if refused:
        return
    assert c.verts == ref_c.verts
    # vertex (b, r) is its run's start plus r
    assert len(c) == len(ref_c.index)
    assert [c.runs[pos.position(b)][0] + r for b, r in ref_c.index] == list(ref_c.index.values())
    assert c.parent_idx == ref_c.parent_idx
    assert tuple(map(c.tier, range(len(c)))) == ref_c.tiers
    assert c.order_of == ref_c.order_of
    assert colored_nodes(lambda_of_coset(c, null_forest(t))) == keyed_lambda_of_coset(ref_c, keyed_null_forest(ref))


def _assert_layout_matches_the_keyed_coset_tree(g, depth):
    """``ball_size`` at every radius from -2 to depth + 1, ``tier`` and
    ``OdometerMap.image_index`` at powers 0 to 3, read off the runs, against
    the keyed coset tree's tiers and index, and the odometer's refusal of
    the indices just outside the tree."""
    pos = positive_part(truncate(g, depth))
    c, ref_c = CosetTree(pos), KeyedCosetTree(keyed_truncate(g, depth).positive_part())
    for radius in range(-2, depth + 2):
        assert c.ball_size(radius) == sum(tier <= radius for tier in ref_c.tiers)
    assert [c.tier(vi) for vi in range(len(c))] == list(ref_c.tiers)
    od = OdometerMap(c)
    for power in range(4):
        want = [ref_c.index[(b, (r + power) % ref_c.order_of[b])] for b, r in ref_c.verts]
        assert [od.image_index(vi, power) for vi in range(len(c))] == want
    for bad in (len(c), -1):
        with pytest.raises(DomainError, match=rf"vertex {bad} is not in range\({len(c)}\)"):
            od.image_index(bad)
    return pos


# germs whose positive part stops short of the depth, so that tier_starts
# repeats: one positive child, and positive children over two tiers
FINITE_POSITIVE_PARTS = [
    [("A", "B", 2), ("B", "B", 0)],
    [("A", "B", 3), ("A", "C", 1), ("B", "D", 2), ("C", "C", 0), ("D", "D", 0)],
]


@pytest.mark.parametrize("edges", FINITE_POSITIVE_PARTS)
def test_layout_arithmetic_over_a_finite_positive_part(edges):
    for depth in range(6):
        pos = _assert_layout_matches_the_keyed_coset_tree(germ_from_edges("A", edges), depth)
    assert len(set(pos.tier_starts)) < len(pos.tier_starts)


@settings(max_examples=200, deadline=None)
@given(valid_germs(), st.integers(0, 4))
def test_layout_arithmetic_matches_the_keyed_coset_tree(g, depth):
    try:
        _assert_layout_matches_the_keyed_coset_tree(g, depth)
    except SizeCeilingError:
        pass


@settings(max_examples=200, deadline=None)
@given(valid_germs(), st.integers(0, 5), st.sampled_from([0, 1, 10, 50, 1000, DEFAULT_CEILING]))
def test_wedge_matches_the_keyed_wedge(g, depth, ceiling):
    """The wedge clone tree against the keyed builder of tree_reference:
    the same nodes in the same order, or the same refusal.  Ceilings 0 and 1
    admit no copy, so they refuse every tree but the childless root of
    depth 0, which both builders return."""
    got, refused = _built_or_refused(wedge_expansion, truncate(g, depth), ceiling)
    want, want_refused = _built_or_refused(keyed_wedge_expansion, keyed_truncate(g, depth), ceiling)
    assert refused == want_refused
    if not refused:
        assert colored_nodes(got) == want


def test_wedge_refuses_at_the_keyed_count():
    # two_loops at depth 2 has 31 wedge vertices; each ceiling below that is
    # passed inside a child's copies, and reported as the ceiling plus one
    t = truncate(CORPUS["two_loops"], 2)
    assert len(wedge_expansion(t, 31)) == 31
    builds = ((wedge_expansion, t), (keyed_wedge_expansion, keyed_truncate(CORPUS["two_loops"], 2)))
    for build, tree in builds:
        # below 1 the root alone is over, and the first child is the count
        with pytest.raises(SizeCeilingError, match=r"\(2 > 0\)"):
            build(tree, 0)
    for ceiling in range(1, 31):
        message = f"wedge tree vertices exceeds the size ceiling ({ceiling + 1} > {ceiling})"
        for build, tree in builds:
            with pytest.raises(SizeCeilingError) as exc:
                build(tree, ceiling)
            assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(valid_germs(), st.integers(0, 5))
def test_tiers_are_non_decreasing(g, depth):
    """The frontier graphs find each radius-i ball by bisection over the
    tiers, so the ball must be a prefix of the vertices."""
    c, refused = _built_or_refused(CosetTree, positive_part(truncate(g, depth)), 3000)
    if refused:
        return
    tiers = [c.tier(vi) for vi in range(len(c.verts))]
    assert tiers == sorted(tiers)
    for radius in range(-1, depth + 2):
        assert c.ball_size(radius) == sum(tier <= radius for tier in tiers)
