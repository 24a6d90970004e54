"""Reference for ``unfold.gamma_plus_is_finite`` and ``unfold.null_end_class``:
the strongly-connected-component route.

Both questions are read off Tarjan's components: a positive cycle is a piece
of two or more vertices or a self-loop, and the null ends are uncountable
when some piece of the null zone has more internal edges than vertices.
The package answers them directly (in-degree peeling, and a search back to
each branching null vertex); the tests compare the two on random germs.
"""

from treeends.germ import reachable, require_valid
from treeends.unfold import Cardinality


def scc_gamma_plus_is_finite(g):
    require_valid(g)
    reach = reachable(g, (g.root,), lambda e: e.label > 0)
    edges = [(e.src, e.dst) for e in g.edges if e.label > 0 and e.src in reach]
    sccs = _strongly_connected(reach, edges)
    # A positive cycle is a strongly connected piece of two or more vertices,
    # or a self-loop.
    if any(len(comp) > 1 for comp in sccs) or any(s == d for s, d in edges):
        return (False, None)
    # Acyclic: Tarjan emits the one-vertex pieces in reverse topological
    # order, so the longest-path DP from the root runs over them reversed.
    longest = {g.root: 0}
    for (v,) in reversed(sccs):
        for _, e in g.out_edges(v):
            if e.label > 0:
                longest[e.dst] = max(longest.get(e.dst, 0), longest[v] + 1)
    return (True, max(longest.values()))


def scc_null_end_class(g):
    require_valid(g)
    zone = {e.dst for e in g.edges if e.label == 0}
    null_edges = [(e.src, e.dst) for e in g.edges if e.src in zone]
    if not zone:
        return Cardinality.EMPTY
    for comp in _strongly_connected(zone, null_edges):
        comp_set = set(comp)
        internal = sum(1 for s, d in null_edges if s in comp_set and d in comp_set)
        if internal > len(comp):
            return Cardinality.UNCOUNTABLE
    return Cardinality.COUNTABLY_INFINITE


def _strongly_connected(vertices, edges):
    """Tarjan, iterative.  Components come out in reverse topological order;
    parallel edges collapse for the DFS itself."""
    adj = {v: [] for v in vertices}
    for s, d in edges:
        adj[s].append(d)
    index = {}
    low = {}
    stack = []
    on_stack = set()
    work = []  # (vertex, iterator over its successors)
    sccs = []

    def push(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(adj[v])))

    for start in sorted(vertices):
        if start in index:
            continue
        push(start)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    push(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    k = stack.index(v)
                    sccs.append(stack[k:][::-1])
                    on_stack.difference_update(stack[k:])
                    del stack[k:]
    return sccs
