"""Dense references for the differential tests.

The package computes homology on sparse columns and never builds a full
boundary matrix; these helpers build the dense objects from the
definitions, so the tests can compare the two routes.
"""

from treeends.cw import CellSelection, CW2Complex
from treeends.intmat import Matrix, copy_matrix, dims, zeros


def boundary1(k: CW2Complex) -> Matrix:
    """Vertices x edges; column of edge e is head - tail."""
    d1 = zeros(k.num_vertices, len(k.edges))
    for j, (t, h) in enumerate(k.edges):
        d1[h][j] += 1
        d1[t][j] -= 1
    return d1


def boundary2(k: CW2Complex) -> Matrix:
    """Edges x faces; entries are signed occurrence counts."""
    d2 = zeros(len(k.edges), len(k.faces))
    for j, word in enumerate(k.faces):
        for e, s in word:
            d2[e][j] += s
    return d2


def full_selection(k: CW2Complex) -> CellSelection:
    return CellSelection(
        vertices=tuple(range(k.num_vertices)),
        edges=tuple(range(len(k.edges))),
        faces=tuple(range(len(k.faces))),
    )


def mat_vec(a: Matrix, v: list) -> list:
    m, n = dims(a)
    if len(v) != n:
        raise ValueError("shape mismatch")
    return [sum(a[i][j] * v[j] for j in range(n)) for i in range(m)]


def det(a: Matrix) -> int:
    """Bareiss fraction-free determinant (square matrices)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    w = copy_matrix(a)
    sign = 1
    prev = 1
    for t in range(n - 1):
        if w[t][t] == 0:
            pivot_row = next((r for r in range(t + 1, n) if w[r][t] != 0), None)
            if pivot_row is None:
                return 0
            w[t], w[pivot_row] = w[pivot_row], w[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                w[i][j] = (w[i][j] * w[t][t] - w[i][t] * w[t][j]) // prev
            w[i][t] = 0
        prev = w[t][t]
    return sign * w[n - 1][n - 1]
