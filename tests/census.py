"""Every small valid germ, listed in a fixed order.

The census is every valid germ with root ``A`` whose edges form a multiset
over its named vertices, each named vertex used by some edge:

- 1 or 2 vertices (``A``, ``A B``) with 1 to 4 edges labelled 0 to 3;
- 3 vertices (``A B C``) with 1 to 4 edges labelled 0 to 2.

A multiset is listed once, its edges sorted by (source, target, label) in
name order; germs that differ only by renaming ``B`` and ``C`` are both
kept.  That gives 2,262 germs.  The order is part of the census: the
tests that digest it, or take a stride of it, depend on it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from treeends.germ import GermEdge, GermGraph

NAMES = "ABC"

# (vertex count, largest label), each with 1 to MAX_EDGES edges
SHAPES = ((1, 3), (2, 3), (3, 2))
MAX_EDGES = 4


def census() -> list:
    """The census germs, in order."""
    out = []
    for n, top in SHAPES:
        names = tuple(NAMES[:n])
        universe = [GermEdge(s, d, k) for s, d in product(names, repeat=2) for k in range(top + 1)]
        for size in range(1, MAX_EDGES + 1):
            for edges in combinations_with_replacement(universe, size):
                if {v for e in edges for v in e[:2]} != set(names):
                    continue
                g = GermGraph(vertices=names, root="A", edges=edges)
                if g.report.ok:
                    out.append(g)
    return out
