import pytest
from hypothesis import given, settings, strategies as st

from treeends import cw, unfold
from treeends.cli import run
from treeends.coset import CosetTree, OdometerMap, clone_tree_models, colored_trees_isomorphic, lambda_plus
from treeends.errors import DomainError, SizeCeilingError
from treeends.germ import germ_from_edges, render_germ
from treeends.unfold import (
    Cardinality,
    GrowthClass,
    TruncatedTree,
    gamma_plus_is_finite,
    growth_class,
    null_end_class,
    null_forest,
    null_path_counts,
    positive_part,
    truncate,
)
from corpus import CORPUS
import test_classify
from tree_reference import keyed_null_forest, keyed_truncate, node, null_components, root, tier_nodes


# Oracle: enumerate root paths directly as edge-index tuples, tier by tier.
# This is the definition of the unfolding, written without any tree code.
def enumerate_paths(g, depth):
    tiers = [[()]]
    for _ in range(depth):
        nxt = []
        for path in tiers[-1]:
            at = g.root
            for idx in path:
                at = g.edges[idx].dst
            for idx, _edge in g.out_edges(at):
                nxt.append(path + (idx,))
        tiers.append(nxt)
    return tiers


def path_is_positive(g, path):
    return all(g.edges[idx].label > 0 for idx in path)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_tier_counts_match_path_enumeration(name, depth):
    g = CORPUS[name]
    tiers = enumerate_paths(g, depth)
    t = truncate(g, depth)
    for tier, paths in enumerate(tiers):
        assert len(tier_nodes(t, tier)) == len(paths)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_tier_labels_match_path_enumeration(name):
    g = CORPUS[name]
    tiers = enumerate_paths(g, 3)
    t = truncate(g, 3)
    for tier in range(1, 4):
        got = sorted(n.label for n in tier_nodes(t, tier))
        want = sorted(g.edges[path[-1]].label for path in tiers[tier])
        assert got == want


def test_mixed_depth2_has_six_nodes():
    t = truncate(CORPUS["mixed"], 2)
    assert len(t.nodes) == 6
    assert [len(tier_nodes(t, i)) for i in range(3)] == [1, 2, 3]


def test_ids_are_breadth_first():
    t = truncate(CORPUS["two_loops"], 3)
    tiers = [n.tier for n in t.nodes]
    assert tiers == sorted(tiers)
    assert [n.id for n in t.nodes] == list(range(len(t.nodes)))
    for node in t.nodes:
        if node.parent is not None:
            assert node.parent < node.id


def test_children_keep_declaration_order():
    g = CORPUS["spin"]
    t = truncate(g, 2)
    root_kids = [node(t, c) for c in t.children(root(t).id)]
    # edges out of A in declaration order: A->B label 2, then A->A label 1
    assert [(k.germ_vertex, k.label) for k in root_kids] == [("B", 2), ("A", 1)]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_truncation_prefix_coherence(name):
    g = CORPUS[name]
    deep = truncate(g, 4)
    shallow = truncate(g, 3)
    kept = [n for n in deep.nodes if n.tier <= 3]
    assert [(n.id, n.parent, n.germ_vertex, n.label) for n in kept] == [
        (n.id, n.parent, n.germ_vertex, n.label) for n in shallow.nodes
    ]


def test_truncate_ceiling_names_offending_tier():
    with pytest.raises(SizeCeilingError):
        truncate(CORPUS["two_loops"], 9, ceiling=1000)


def test_truncate_rejects_negative_depth():
    with pytest.raises(DomainError):
        truncate(CORPUS["bs2"], -1)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_positive_part_keeps_ids_and_positivity(name):
    g = CORPUS[name]
    t = truncate(g, 3)
    pos = positive_part(t)
    pos_ids = {n.id for n in pos.nodes}
    assert pos_ids == {n.id for n in t.nodes if n.positive}
    for n in pos.nodes:
        assert node(t, n.id) == n
        if n.parent is not None:
            assert n.parent in pos_ids


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_positive_part_matches_positive_path_count(name):
    g = CORPUS[name]
    tiers = enumerate_paths(g, 3)
    pos = positive_part(truncate(g, 3))
    for tier in range(4):
        want = sum(1 for path in tiers[tier] if path_is_positive(g, path))
        assert len(tier_nodes(pos, tier)) == want


@settings(max_examples=200, deadline=None)
@given(test_classify.valid_germs(), st.integers(0, 5))
def test_null_forest_matches_the_keyed_walk(g, depth):
    t = truncate(g, depth)
    nf = null_forest(t)
    # one pass over the columns: the view and the position and child maps stay unbuilt
    assert "_nodes" not in vars(t) and "position" not in vars(t) and "_children" not in vars(t)
    assert null_components(nf) == keyed_null_forest(keyed_truncate(g, depth))


def test_no_src_path_reads_the_nodes_view(monkeypatch, capsys, tmp_path):
    """The package reads a truncation's columns and never builds its
    ``nodes`` view or any other per-node record, and reads a coset tree's
    runs and never its ``verts`` view: with the two views and the
    ``TreeNode`` name patched to raise, the commands that truncate, the
    battery on the sample germs and the corpus, the telescope, its
    neighbourhoods of infinity and its branches, ``lambda`` on a tree with
    thousands of null nodes, both clone-tree models and their comparison,
    the residue odometer and the covers over a null forest all run."""

    def view(self):
        raise AssertionError("the nodes view of a truncation was read")

    def record(*args, **kwargs):
        raise AssertionError("a TreeNode was built")

    def verts(self):
        raise AssertionError("the verts view of a coset tree was read")

    monkeypatch.setattr(TruncatedTree, "nodes", property(view))
    monkeypatch.setattr(CosetTree, "verts", property(verts))
    monkeypatch.setattr(unfold, "TreeNode", record)
    files = sorted(str(p) for p in test_classify.GERMS.glob("*.germ") if not p.name.startswith("bad_"))
    for name, g in sorted(CORPUS.items()):
        (tmp_path / f"{name}.germ").write_text(render_germ(g))
        files.append(str(tmp_path / f"{name}.germ"))
    for path in files:
        for fmt in ("text", "json", "dot"):
            for command in (["unfold"], ["lambda"], ["reduce", "--interval", "1", "3"], ["reduce", "--power", "2"]):
                run([*command, "--format", fmt, path])
        for command in ("classify", "oracle"):
            for fmt in ("text", "json"):
                run([command, "--format", fmt, path])
    capsys.readouterr()
    for g in CORPUS.values():
        t = truncate(g, 3)
        base = cw.build_base(t)
        for i in range(t.depth + 1):
            cw.infinity_neighborhood_base(base, i)
        for node_id in t.ids:
            cw.branch_selection(base, node_id)
        assert colored_trees_isomorphic(*clone_tree_models(g, 3))
        nf = null_forest(t)
        coset = lambda_plus(positive_part(t))
        assert sorted(map(OdometerMap(coset).image_index, range(len(coset)))) == list(range(len(coset)))
        assert cw.build_cover(coset, nf, 2).complex.heads == cw.build_cover_graph(coset, nf, 2).heads
    # mixed at depth 130 has 8,515 null nodes in 130 components
    (tmp_path / "mixed.germ").write_text(render_germ(CORPUS["mixed"]))
    for fmt in ("text", "json", "dot"):
        assert run(["lambda", "--depth", "130", "--format", fmt, str(tmp_path / "mixed.germ")]) == 0
    assert len(null_forest(truncate(CORPUS["mixed"], 130)).positions) == 8515
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_null_forest_partitions_null_nodes(name):
    g = CORPUS[name]
    t = truncate(g, 4)
    nf = null_forest(t)
    null_ids = {n.id for n in t.nodes if not n.positive}
    covered: set = set()
    for comp in null_components(nf):
        ids = {n.id for n in comp.nodes}
        assert not (ids & covered)
        covered |= ids
        top = node(t, comp.root_id)
        assert not top.positive
        assert top.parent is not None and node(t, top.parent).positive
        for nid in ids:
            member = node(t, nid)
            assert not member.positive
            if nid != comp.root_id:
                assert member.parent in ids
    assert covered == null_ids


def test_gamma_plus_finiteness():
    assert gamma_plus_is_finite(CORPUS["trivial"]) == (True, 0)
    assert gamma_plus_is_finite(CORPUS["bs2"]) == (False, None)
    assert gamma_plus_is_finite(CORPUS["null_ray"]) == (True, 0)
    assert gamma_plus_is_finite(CORPUS["null_binary"]) == (True, 0)
    assert gamma_plus_is_finite(CORPUS["mixed"]) == (False, None)
    finite, bound = gamma_plus_is_finite(
        germ_from_edges("A", [("A", "B", 2), ("B", "B", 0)])
    )
    assert (finite, bound) == (True, 1)


def test_null_end_cardinalities():
    expected = {
        "trivial": Cardinality.EMPTY,
        "bs2": Cardinality.EMPTY,
        "bs3": Cardinality.EMPTY,
        "ray1": Cardinality.EMPTY,
        "two_loops": Cardinality.EMPTY,
        "spin": Cardinality.EMPTY,
        "null_ray": Cardinality.COUNTABLY_INFINITE,
        "null_binary": Cardinality.UNCOUNTABLE,
        "mixed": Cardinality.COUNTABLY_INFINITE,
        "mixed2": Cardinality.COUNTABLY_INFINITE,
        "deep_null_entry": Cardinality.COUNTABLY_INFINITE,
        "uncountable_cycles": Cardinality.UNCOUNTABLE,
    }
    for name, want in expected.items():
        assert null_end_class(CORPUS[name]) is want, name


def test_null_path_counts_oracle_values():
    assert null_path_counts(CORPUS["null_ray"], 6) == [1, 1, 1, 1, 1, 1]
    assert null_path_counts(CORPUS["null_binary"], 6) == [2, 4, 8, 16, 32, 64]
    assert null_path_counts(CORPUS["bs2"], 4) == [0, 0, 0, 0]


def test_growth_classes():
    assert growth_class([1] * 12) is GrowthClass.POLYNOMIAL
    assert growth_class([n * n for n in range(1, 13)]) is GrowthClass.POLYNOMIAL
    assert growth_class([2**n for n in range(1, 13)]) is GrowthClass.EXPONENTIAL
    assert growth_class([0] * 12) is GrowthClass.POLYNOMIAL


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_growth_agrees_with_cardinality(name):
    g = CORPUS[name]
    kind = null_end_class(g)
    counts = null_path_counts(g, 12)
    if kind is Cardinality.EMPTY:
        assert all(c == 0 for c in counts)
    elif kind is Cardinality.UNCOUNTABLE:
        assert growth_class(counts) is GrowthClass.EXPONENTIAL
    else:
        assert growth_class(counts) is GrowthClass.POLYNOMIAL


NAMES = ["A", "B", "C"]


@st.composite
def valid_germs(draw):
    """Random valid germs: give every vertex out-edges, keep the reachable
    part, and push 0-labels forward so null-closure holds."""
    out_degree = {v: draw(st.integers(min_value=1, max_value=2)) for v in NAMES}
    edges = []
    for v in NAMES:
        for _ in range(out_degree[v]):
            dst = draw(st.sampled_from(NAMES))
            label = draw(st.integers(min_value=0, max_value=3))
            edges.append((v, dst, label))
    # close 0-labels: any vertex hit by a 0-edge emits only 0-edges
    for _ in range(len(NAMES)):
        null_targets = {d for s, d, l in edges if l == 0}
        edges = [
            (s, d, 0 if s in null_targets else l) for s, d, l in edges
        ]
    # keep the part reachable from A
    reach = {"A"}
    for _ in range(len(NAMES)):
        reach |= {d for s, d, _ in edges if s in reach}
    edges = [e for e in edges if e[0] in reach]
    return germ_from_edges("A", edges)


@settings(max_examples=60, deadline=None)
@given(valid_germs(), st.integers(min_value=0, max_value=3))
def test_truncate_matches_oracle_on_random_germs(g, depth):
    tiers = enumerate_paths(g, depth)
    t = truncate(g, depth)
    for tier, paths in enumerate(tiers):
        assert len(tier_nodes(t, tier)) == len(paths)
    pos = positive_part(t)
    for tier, paths in enumerate(tiers):
        want = sum(1 for p in paths if path_is_positive(g, p))
        assert len(tier_nodes(pos, tier)) == want
