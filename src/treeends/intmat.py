"""Exact integer matrix helpers.

Everything here runs on Python ints, so label products never overflow.
Matrices are lists of row lists; an m x 0 matrix is m empty rows.
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = list  # list[list[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dims(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


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


@dataclass
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular; ``d`` is the diagonal of D,
    nonnegative, each entry dividing the next."""

    d: list
    u: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """Diagonalize over the integers.

    Pivot choice is the smallest nonzero entry of the working submatrix
    (ties broken by position) to keep intermediate entries small.
    """
    m, n = dims(a)
    w = copy_matrix(a)
    u, u_inv = identity(m), identity(m)
    v, v_inv = identity(n), identity(n)

    def row_add(i: int, k: int, c: int) -> None:  # R_i += c * R_k
        for j in range(n):
            w[i][j] += c * w[k][j]
        for j in range(m):
            u[i][j] += c * u[k][j]
        for r in range(m):
            u_inv[r][k] -= c * u_inv[r][i]

    def row_swap(i: int, k: int) -> None:
        w[i], w[k] = w[k], w[i]
        u[i], u[k] = u[k], u[i]
        for r in range(m):
            u_inv[r][i], u_inv[r][k] = u_inv[r][k], u_inv[r][i]

    def row_negate(i: int) -> None:
        for j in range(n):
            w[i][j] = -w[i][j]
        for j in range(m):
            u[i][j] = -u[i][j]
        for r in range(m):
            u_inv[r][i] = -u_inv[r][i]

    def col_add(i: int, k: int, c: int) -> None:  # C_i += c * C_k
        for r in range(m):
            w[r][i] += c * w[r][k]
        for r in range(n):
            v[r][i] += c * v[r][k]
        for j in range(n):
            v_inv[k][j] -= c * v_inv[i][j]

    def col_swap(i: int, k: int) -> None:
        for r in range(m):
            w[r][i], w[r][k] = w[r][k], w[r][i]
        for r in range(n):
            v[r][i], v[r][k] = v[r][k], v[r][i]
        v_inv[i], v_inv[k] = v_inv[k], v_inv[i]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        best_val = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(w[i][j])
                if x and (best_val is None or x < best_val):
                    best, best_val = (i, j), x
                    if x == 1:
                        return best
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        if find_pivot(t) is None:
            break
        while True:
            r, c = find_pivot(t)
            if r != t:
                row_swap(t, r)
            if c != t:
                col_swap(t, c)
            clean = True
            for i in range(t + 1, m):
                if w[i][t]:
                    row_add(i, t, -(w[i][t] // w[t][t]))
                    if w[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if w[t][j]:
                    col_add(j, t, -(w[t][j] // w[t][t]))
                    if w[t][j]:
                        clean = False
            if not clean:
                continue
            d = w[t][t]
            offender = None
            for i in range(t + 1, m):
                if any(w[i][j] % d for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if w[t][t] < 0:
            row_negate(t)
        t += 1

    diag = [w[i][i] for i in range(limit)]
    return SmithDecomposition(d=diag, u=u, v=v, u_inv=u_inv, v_inv=v_inv, rows=m, cols=n)


def hermite_column_basis(a: Matrix) -> Matrix:
    """Canonical basis of the column lattice of ``a`` (m x r, column echelon).

    Two matrices span the same column lattice iff their canonical bases are
    identical: pivots positive, zeros right of pivots, entries left of a pivot
    reduced into [0, pivot).
    """
    m, n = dims(a)
    w = [[a[i][j] for j in range(n)] for i in range(m)]

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
    return [[w[i][j] for j in range(slot)] for i in range(m)]


@dataclass
class Presentation:
    """Z^n / <relations> with every +-1 pivot eliminated.

    ``log`` lists the eliminations in order as (row, {row: coeff}): in the
    quotient, e_row equals the sum, which only names rows still live at
    that point.  What survives is Z^(rows + free) / column span of ``core``:
    ``core`` is dense, len(rows) x (relations left), and ``free`` are the
    surviving rows no relation touches.  Both row lists are ascending.
    """

    log: list
    rows: list
    free: list
    core: Matrix

    def reduce(self, vec: dict) -> None:
        """Replay the log on a sparse vector {row: coeff}, in place, so that
        only surviving rows remain."""
        for p, sub in self.log:
            a = vec.pop(p, 0)
            if a:
                for q, x in sub.items():
                    y = vec.get(q, 0) + a * x
                    if y:
                        vec[q] = y
                    else:
                        del vec[q]


def unit_pivot_presentation(n: int, relations: list) -> Presentation:
    """Eliminate +-1 pivots from Z^n / <relations>, relations given as
    sparse columns {row: coeff}.

    Relations are visited from the last one backwards, repeating until none
    has a +-1 entry.  The row eliminated is the +-1 entry that occurs in the
    fewest live relations, ties going to the largest row index; the choice
    is deterministic, so generator signs downstream are too.
    """
    cols = [{r: x for r, x in rel.items() if x} for rel in relations]
    occ: list = [set() for _ in range(n)]
    for j, col in enumerate(cols):
        for r in col:
            occ[r].add(j)
    log = []
    changed = True
    while changed:
        changed = False
        for j in range(len(cols) - 1, -1, -1):
            col = cols[j]
            units = [r for r, x in col.items() if x == 1 or x == -1]
            if not units:
                continue
            p = min(units, key=lambda r: (len(occ[r]), -r))
            s = col.pop(p)
            sub = {q: -s * x for q, x in col.items()}
            log.append((p, sub))
            cols[j] = {}  # an empty relation is a dead one
            for q in col:
                occ[q].discard(j)
            occ[p].discard(j)
            for k in occ[p]:
                other = cols[k]
                a = other.pop(p)
                for q, x in sub.items():
                    y = other.get(q, 0) + a * x
                    if y:
                        if q not in other:
                            occ[q].add(k)
                        other[q] = y
                    else:
                        del other[q]
                        occ[q].discard(k)
            occ[p] = set()
            changed = True
    eliminated = {p for p, _ in log}
    rows = [r for r in range(n) if occ[r]]
    free = [r for r in range(n) if not occ[r] and r not in eliminated]
    pos = {r: i for i, r in enumerate(rows)}
    left = [col for col in cols if col]
    core = zeros(len(rows), len(left))
    for j, col in enumerate(left):
        for r, x in col.items():
            core[pos[r]][j] = x
    return Presentation(log=log, rows=rows, free=free, core=core)


def has_trivial_cokernel(m: int, columns: list) -> bool:
    """Whether Z^m / (span of the sparse columns {row: coeff}) is zero."""
    p = unit_pivot_presentation(m, columns)
    if p.free:
        return False
    if not p.rows:
        return True
    s = smith_normal_form(p.core)
    return s.rank == len(p.rows) and all(x == 1 for x in s.d)
