"""Exact integer matrix helpers.

Everything here runs on Python ints, so label products never overflow.
Matrices are lists of row lists; an m x 0 matrix is m empty rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

Matrix = list  # list[list[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dims(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


@dataclass
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular; ``d`` is the diagonal of D,
    nonnegative, each entry dividing the next.  Only the row transform U
    and its inverse are kept: no caller reads V."""

    d: list
    u: Matrix
    u_inv: Matrix

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

    def col_swap(i: int, k: int) -> None:
        for r in range(m):
            w[r][i], w[r][k] = w[r][k], w[r][i]

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
    return SmithDecomposition(d=diag, u=u, u_inv=u_inv)


@dataclass
class Presentation:
    """Z^n / <relations> with every +-1 pivot eliminated, then Smith-reduced.

    ``log`` lists the eliminations in order as (row, {row: coeff}): in the
    quotient, e_row equals the sum, which only names rows still live at
    that point.  What survives is Z^(rows + free) / column span of a dense
    core, len(rows) x (relations left); ``free`` are the surviving rows no
    relation touches.  Both row lists are ascending.

    ``factors`` has one slot per row of Z^n: a 1 for each elimination, then
    the core's invariant factors (U @ core @ V diagonal, zero-padded to
    len(rows)), then a 0 for each free row.  ``slots`` are the indices of
    the factors other than 1, one per generator of the quotient.
    """

    log: list
    rows: list
    free: list
    factors: list
    slots: list
    u: Matrix  # the core's Smith row transform, and its inverse
    u_inv: Matrix

    @cached_property
    def _step(self) -> dict:
        """Each eliminated row's position in the log."""
        return {p: i for i, (p, _) in enumerate(self.log)}

    def coords(self, vec: dict) -> list:
        """Class of a sparse vector {row: coeff} on the generators, each
        torsion coordinate reduced modulo its factor.  The eliminations run
        in log order but only on rows the vector reaches: a substitution
        names only rows eliminated after it or never, so a heap of log
        positions visits them in order."""
        y = {r: x for r, x in vec.items() if x}
        step = self._step
        heap = [step[r] for r in y if r in step]
        heapify(heap)
        while heap:
            p, sub = self.log[heappop(heap)]
            a = y.pop(p, 0)  # 0 if the row cancelled out, or was pushed twice
            if a:
                for q, x in sub.items():
                    z = y.get(q, 0) + a * x
                    if z:
                        if q not in y and q in step:
                            heappush(heap, step[q])
                        y[q] = z
                    else:
                        del y[q]
        core_start = len(self.log)
        free_start = core_start + len(self.rows)
        out = []
        for slot in self.slots:
            f = self.factors[slot]
            if slot >= free_start:
                out.append(y.get(self.free[slot - free_start], 0))
                continue
            u_row = self.u[slot - core_start]
            x = sum(u_row[j] * y.get(r, 0) for j, r in enumerate(self.rows))
            out.append(x % f if f > 1 else x)
        return out

    def generator(self, i: int) -> dict:
        """The ``i``-th generator as a sparse vector {row: coeff} of Z^n."""
        slot = self.slots[i]
        core_start = len(self.log)
        free_start = core_start + len(self.rows)
        if slot >= free_start:
            return {self.free[slot - free_start]: 1}
        col = slot - core_start
        return {r: self.u_inv[j][col] for j, r in enumerate(self.rows) if self.u_inv[j][col]}


def unit_pivot_presentation(n: int, relations: list) -> Presentation:
    """Present Z^n / <relations>, relations given as sparse columns
    {row: coeff}: eliminate every +-1 pivot sparsely, then run Smith on the
    residual core only.

    Relations are visited from the last one backwards, in passes until none
    has a +-1 entry.  A pass skips each relation that no elimination has
    changed since its last visit: it still has no +-1 entry, or is dead.
    An empty one, in no row's occurrences, is never visited.
    The row eliminated is the +-1 entry that occurs in the fewest live
    relations, ties going to the largest row index; the choice is
    deterministic, so generator signs downstream are too.
    """
    cols = [{r: x for r, x in rel.items() if x} for rel in relations]
    occ: list = [set() for _ in range(n)]
    for j, col in enumerate(cols):
        for r in col:
            occ[r].add(j)
    log = []
    dirty = bytearray(map(bool, cols))  # changed since its last visit
    j = len(cols)
    while True:
        # the next relation to visit in this pass, else the first of the next
        j = dirty.rfind(1, 0, j)
        if j < 0:
            j = dirty.rfind(1)
            if j < 0:
                break
        dirty[j] = 0
        col = cols[j]
        units = [r for r, x in col.items() if x == 1 or x == -1]
        if not units:
            continue
        p = units[0] if len(units) == 1 else min(units, key=lambda r: (len(occ[r]), -r))
        s = col.pop(p)
        # e_p = -s * (the rest), so at s == -1 the rest is the substitution
        sub = col if s == -1 else {q: -x for q, x in col.items()}
        log.append((p, sub))
        cols[j] = {}  # an empty relation is a dead one
        for q in col:
            occ[q].discard(j)
        occ[p].discard(j)
        for k in occ[p]:
            dirty[k] = 1
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
    eliminated = {p for p, _ in log}
    rows = [r for r in range(n) if occ[r]]
    free = [r for r in range(n) if not occ[r] and r not in eliminated]
    u = u_inv = diag = []
    if rows:
        pos = {r: i for i, r in enumerate(rows)}
        left = [col for col in cols if col]
        core = zeros(len(rows), len(left))
        for j, col in enumerate(left):
            for r, x in col.items():
                core[pos[r]][j] = x
        s = smith_normal_form(core)
        u, u_inv = s.u, s.u_inv
        diag = s.d + [0] * (len(rows) - len(s.d))
    factors = [1] * len(log) + diag + [0] * len(free)
    return Presentation(
        log=log,
        rows=rows,
        free=free,
        factors=factors,
        slots=[i for i, f in enumerate(factors) if f != 1],
        u=u,
        u_inv=u_inv,
    )
