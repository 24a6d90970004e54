"""Dense references for the differential tests.

The package computes homology on sparse columns and never builds a full
boundary matrix or a lattice basis; these helpers build the dense objects
from the definitions, so the tests can compare the two routes.
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k = dims(a)
    k2, n = dims(b)
    if k != k2:
        raise ValueError(f"shape mismatch: {m}x{k} times {k2}x{n}")
    out = zeros(m, n)
    for i in range(m):
        row = a[i]
        acc = out[i]
        for t in range(k):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(n):
                    acc[j] += x * brow[j]
    return out


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


def hermite_column_basis(a: Matrix) -> Matrix:
    """Canonical basis of the column lattice of ``a`` (m x r, column echelon).

    Two matrices span the same column lattice iff their canonical bases are
    identical: pivots positive, zeros right of pivots, entries left of a pivot
    reduced into [0, pivot).
    """
    m, n = dims(a)
    w = copy_matrix(a)

    def col_add(dst: int, src: int, c: int) -> None:
        for r in range(m):
            w[r][dst] += c * w[r][src]

    def col_swap(i: int, k: int) -> None:
        for r in range(m):
            w[r][i], w[r][k] = w[r][k], w[r][i]

    slot = 0
    for r in range(m):
        if slot >= n:
            break
        while True:
            nz = [c for c in range(slot, n) if w[r][c] != 0]
            if len(nz) <= 1:
                break
            lead = min(nz, key=lambda c: (abs(w[r][c]), c))
            for c in nz:
                if c != lead:
                    col_add(c, lead, -(w[r][c] // w[r][lead]))
        nz = [c for c in range(slot, n) if w[r][c] != 0]
        if not nz:
            continue
        if nz[0] != slot:
            col_swap(slot, nz[0])
        if w[r][slot] < 0:
            for rr in range(m):
                w[rr][slot] = -w[rr][slot]
        pivot = w[r][slot]
        for c in range(slot):
            q = w[r][c] // pivot
            if q:
                col_add(c, slot, -q)
        slot += 1
    return [row[:slot] for row in w]
