"""Reference for ``classify.default_ray``: the simple-path search.

It enumerates the simple positive root paths breadth-first, out-edges in
declaration order, and stops at the first one whose next edge closes a
cycle.  That is the shortest, then lexicographically first, lasso by
definition, at a cost exponential in the germ size, so the tests compare
the package's breadth-first lasso search against it on small germs.
"""

from collections import deque

from treeends.classify import RaySpec
from treeends.germ import require_valid


def simple_path_ray(g):
    require_valid(g)
    if g.is_trivial:
        return None
    queue = deque([((), g.root, (g.root,))])
    while queue:
        trail, at, seen = queue.popleft()
        for idx, edge in g.out_edges(at):
            if edge.label <= 0:
                continue
            if edge.dst in seen:
                k = seen.index(edge.dst)
                return RaySpec(trail[:k], trail[k:] + (idx,))
            queue.append((trail + (idx,), edge.dst, seen + (edge.dst,)))
    # no positive cycle: the greedy walk along first-declared edges
    trail, at, seen = [], g.root, [g.root]
    while True:
        idx, edge = g.out_edges(at)[0]
        if edge.dst in seen:
            k = seen.index(edge.dst)
            return RaySpec(tuple(trail[:k]), tuple(trail[k:]) + (idx,))
        trail.append(idx)
        seen.append(edge.dst)
        at = edge.dst
