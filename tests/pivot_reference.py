"""Reference for ``intmat.unit_pivot_presentation``: the elimination as it
was before it skipped unchanged relations.

It visits every relation on every pass, last relation first, and picks
each pivot with ``min`` even when the relation has a lone +-1 entry.  The
package visits only the relations an elimination changed since their last
visit, in the same order, and picks the same pivots; the tests check on
random relation sets and on the face relations and bonds of random germs'
complexes that both return equal presentations, log, rows, free rows,
factors and Smith transforms alike, since the H1 engine's generator signs,
and so the homology digests, follow them.
"""

from treeends.intmat import Presentation, smith_normal_form, zeros


def unit_pivot_presentation(n: int, relations: list) -> Presentation:
    """Present Z^n / <relations>, relations given as sparse columns
    {row: coeff}: eliminate every +-1 pivot sparsely, then run Smith on the
    residual core only.

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
