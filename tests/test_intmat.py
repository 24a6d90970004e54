import math
from itertools import combinations

from hypothesis import given, settings, strategies as st

from dense import det, hermite_column_basis, mat_mul
from treeends.intmat import dims, identity, smith_normal_form, unit_pivot_presentation


# Oracle: the product of the first k diagonal entries equals the gcd of all
# k x k minors.  Computed straight from the definition with determinants.
def minor_gcd(a, k):
    m, n = dims(a)
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[a[r][c] for c in cols] for r in rows]
            g = math.gcd(g, det(sub))
    return g


SMALL = st.integers(min_value=-6, max_value=6)


def matrices(max_side=4):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda n: st.lists(
                st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def test_det_examples():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det(identity(4)) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_smith_decomposition_properties(a):
    s = smith_normal_form(a)
    m = len(a)
    # U @ A = D @ V^-1 for some unimodular V: rows past the rank vanish, and
    # row i is d_i times a row of V^-1.  Rows of a unimodular matrix have
    # coprime maximal minors, and such rows always extend to one.
    ua = mat_mul(s.u, a)
    r = s.rank
    assert all(x == 0 for row in ua[r:] for x in row)
    assert all(x % s.d[i] == 0 for i in range(r) for x in ua[i])
    assert minor_gcd([[x // s.d[i] for x in ua[i]] for i in range(r)], r) == 1
    assert abs(det(s.u)) == 1
    assert mat_mul(s.u, s.u_inv) == identity(m)
    for x in s.d:
        assert x >= 0
    for x, y in zip(s.d, s.d[1:]):
        if y != 0:
            assert x != 0 and y % x == 0
        # trailing zeros allowed after the rank


@settings(max_examples=40, deadline=None)
@given(matrices(max_side=3))
def test_smith_diagonal_matches_minor_gcds(a):
    s = smith_normal_form(a)
    prod = 1
    for k, x in enumerate(s.d, start=1):
        prod *= x
        assert abs(prod) == minor_gcd(a, k)


def test_smith_pinned_examples():
    assert smith_normal_form([[2, 4], [6, 8]]).d == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]).d == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]).d == [0, 0]
    assert smith_normal_form([[6, 10], [10, 6]]).d == [2, 32]
    assert smith_normal_form([[2, 0], [0, 3]]).d == [1, 6]


def test_hermite_examples():
    assert hermite_column_basis([[2, 4], [0, 0]]) == [[2], [0]]
    assert hermite_column_basis([[4, 6]]) == [[2]]
    assert hermite_column_basis(identity(3)) == identity(3)
    assert hermite_column_basis([[0], [0]]) == [[], []]


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=3))
def test_hermite_invariant_under_column_operations(a):
    base = hermite_column_basis(a)
    m, n = dims(a)
    # column ops generate the same lattice: swap, negate, add
    b = [row[:] for row in a]
    if n >= 2:
        for row in b:
            row[0], row[1] = row[1], row[0]
            row[0] += 3 * row[1]
    for row in b:
        row[-1] = -row[-1]
    assert hermite_column_basis(b) == base


def presentation(a):
    """``unit_pivot_presentation`` of a dense matrix, passed as sparse columns."""
    m, n = dims(a)
    return unit_pivot_presentation(m, [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)])


def onto(a):
    """Whether the cokernel is trivial: every factor of the presentation is 1."""
    return all(f == 1 for f in presentation(a).factors)


def test_cokernel_triviality():
    assert onto(identity(3))
    assert onto([[1, 0]])
    assert onto([])  # zero rows: nothing to hit
    assert not onto([[2]])
    assert not onto([[1], [0]])
    assert not onto([[], []])  # two rows, no columns
    assert onto([[1, 0], [3, 1]])


def bare_matrices(entries):
    """m x n matrices with m, n in 0..5; an m x 0 matrix is m empty rows."""
    return st.integers(min_value=0, max_value=5).flatmap(
        lambda m: st.integers(min_value=0, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        bare_matrices(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6])),
        bare_matrices(st.sampled_from([0, 0, 2, -2, 3, 6])),  # no unit entries
    )
)
def test_cokernel_triviality_matches_dense_smith(a):
    m = len(a)
    s = smith_normal_form(a)
    want = m == 0 or (s.rank == m and all(x == 1 for x in s.d[:m]))
    assert onto(a) == want
    # One factor per row: past the units, the invariant factors of dense
    # Smith and a 0 for each row past its diagonal.
    factors = presentation(a).factors
    assert len(factors) == m
    want_factors = [x for x in s.d if x != 1] + [0] * (m - len(s.d))
    assert sorted(f for f in factors if f != 1) == sorted(want_factors)


def non_unit_factors(a):
    return sorted(f for f in presentation(a).factors if f != 1)


UNITISH = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])


@st.composite
def nested_lattices(draw):
    """A (n x r) and B (r x s): the column lattice of A @ B lies in A's."""
    n, r, s = (draw(st.integers(min_value=lo, max_value=5)) for lo in (1, 0, 0))
    a = [draw(st.lists(UNITISH, min_size=r, max_size=r)) for _ in range(n)]
    b = [draw(st.lists(UNITISH, min_size=s, max_size=s)) for _ in range(r)]
    return a, b


@settings(max_examples=300, deadline=None)
@given(nested_lattices())
def test_nested_lattices_are_equal_iff_their_factors_are(pair):
    # L' = L @ B lies in L, so Z^n/L' maps onto Z^n/L.  Finitely generated
    # abelian groups are Hopfian: the map is an isomorphism, and L' = L,
    # exactly when the two quotients have the same invariant factors.
    a, b = pair
    ab = mat_mul(a, b)
    same = hermite_column_basis(a) == hermite_column_basis(ab)
    assert same == (non_unit_factors(a) == non_unit_factors(ab))
