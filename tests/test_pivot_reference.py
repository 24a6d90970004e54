"""``intmat.unit_pivot_presentation`` against pivot_reference, the
elimination that visits every relation on every pass.

Both must return equal presentations, log, rows, free rows, factors, slots
and Smith transforms alike, on random sparse relations weighted toward +-1
and on the relations the package itself eliminates: the face relations of
telescopes and covers, and the frontier towers' bonds.  The H1 engine's
generator signs, and so the homology digests, follow the presentation.
"""

from hypothesis import given, settings, strategies as st

from pivot_reference import unit_pivot_presentation as reference
from test_classify import valid_germs
from treeends import cw
from treeends.coset import CosetTree
from treeends.errors import SizeCeilingError
from treeends.intmat import unit_pivot_presentation
from treeends.unfold import null_forest, positive_part, truncate

CEILING = 3000
UNIT_HEAVY = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, -4, 6])


@st.composite
def relation_sets(draw):
    """(n, relations): up to 12 rows and 14 relations, each touching up to 5
    rows, explicit zeros included."""
    n = draw(st.integers(0, 12))
    rows = st.integers(0, n - 1) if n else st.nothing()
    entries = st.dictionaries(rows, UNIT_HEAVY | st.just(0), max_size=min(n, 5))
    return n, draw(st.lists(entries, max_size=14))


def assert_same(n, relations):
    got, want = unit_pivot_presentation(n, relations), reference(n, relations)
    fields = ("log", "rows", "free", "factors", "slots", "u", "u_inv")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


class TestUnitPivotPresentation:
    @settings(max_examples=500, deadline=None)
    @given(relation_sets())
    def test_matches_the_reference_on_random_relations(self, case):
        assert_same(*case)

    def test_chained_pivots_and_a_core(self):
        # the last relation has two -1 entries, rows 0 and 1 live in two
        # relations each, and the tie goes to row 1, whose relation is its
        # own substitution; that turns the first relation's 2 at row 0 into
        # a lone 1, visited later in the same pass; row 2 is left free and
        # rows 3 and 4 to a 2x1 core
        relations = [{0: 2, 1: 1}, {3: 2, 4: 4}, {1: -1, 0: -1, 2: 3}]
        assert_same(5, relations)
        pres = unit_pivot_presentation(5, relations)
        assert pres.log == [(1, {0: -1, 2: 3}), (0, {2: -3})]
        assert (pres.rows, pres.free, pres.factors) == ([3, 4], [2], [1, 1, 2, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 3), st.integers(1, 2))
    def test_matches_the_reference_on_built_complexes(self, g, depth, height):
        """The relations the package passes in: the faces of a telescope and
        a cover, and every bond of one frontier tower."""
        try:
            t = truncate(g, depth, CEILING)
            c = CosetTree(positive_part(t), ceiling=CEILING)
            complexes = [cw.build_base(t, CEILING).complex]
            complexes.append(cw.build_cover(c, null_forest(t), height, CEILING).complex)
        except SizeCeilingError:
            return
        cases = []
        for k in complexes:
            parent, depth_of, non_tree = cw._spanning_forest(k)
            row = {e: r for r, e in enumerate(non_tree)}
            relations = []
            for word in k.faces:
                col = {}
                for e, s in word:
                    if e in row:
                        col[row[e]] = col.get(row[e], 0) + s
                relations.append(col)
            cases.append((len(non_tree), relations))
            assert cw.H1Calculator(k).presentation == reference(len(non_tree), relations)
        tower = cw.FrontierTower(c)
        cases += [(bond.rows, list(bond.columns)) for bond in map(tower.bond, range(c.depth))]
        for case in cases:
            assert_same(*case)
