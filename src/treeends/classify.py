"""End-structure classification with a cross-checking oracle battery.

The closed-form answers (end counts, rays, rank towers, sequence flags) are
computed once per report.  The battery receives the claims under test and
checks them against the cell-complex machinery or brute-force counting, so
every claim in a report is backed by at least one independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import cw
from .coset import clone_orders, lambda_plus
from .errors import DomainError, SizeCeilingError, ValidationFailed
from .germ import GermGraph, check_label, require_valid, walk_counts
from .proseq import (
    InverseLimitClass,
    MultSequence,
    SequenceClass,
    classify_mult,
    format_sequence,
    inverse_limit_mult,
    ladder_search,
)
from .reduce import germ_power, germ_power_detailed
from .unfold import (
    DEFAULT_CEILING,
    Cardinality,
    GrowthClass,
    TruncatedTree,
    gamma_plus_is_finite,
    growth_class,
    null_forest,
    null_end_class,
    null_path_counts,
    positive_part,
    truncate,
)


class EndClass(Enum):
    TWO_ENDED = "TwoEnded"
    ONE_ENDED = "OneEnded"
    INFINITE_COUNTABLE = "InfiniteCountable"
    INFINITE_UNCOUNTABLE = "InfiniteUncountable"


@dataclass(frozen=True)
class EndReport:
    end_class: EndClass
    fixed_end_count: int
    gamma_plus_finite: bool
    null_ends: Cardinality
    rationale: tuple  # (claim, rule name) pairs


def classify_ends(g: GermGraph) -> EndReport:
    require_valid(g)
    if g.is_trivial:
        return EndReport(
            end_class=EndClass.TWO_ENDED,
            fixed_end_count=2,
            gamma_plus_finite=True,
            null_ends=Cardinality.EMPTY,
            rationale=(
                (
                    "a single vertex with no edges unfolds to a point, "
                    "so the space is a line with two ends",
                    "trivial-germ",
                ),
            ),
        )
    nulls = null_end_class(g)
    finite_plus, _ = gamma_plus_is_finite(g)
    if nulls is Cardinality.EMPTY:
        assert not finite_plus, "leafless and null-free forces a positive cycle"
        return EndReport(
            end_class=EndClass.ONE_ENDED,
            fixed_end_count=1,
            gamma_plus_finite=False,
            null_ends=nulls,
            rationale=(
                (
                    "no zero-labeled edge is reachable, so no null rays exist",
                    "no-null-rays",
                ),
                (
                    "the positive part is infinite and the telescope pins one end",
                    "infinite-telescope",
                ),
            ),
        )
    rationale = [
        (
            "reachable zero-labeled edges hang a null ray off every clone",
            "null-rays-exist",
        )
    ]
    if nulls is Cardinality.UNCOUNTABLE:
        end_class = EndClass.INFINITE_UNCOUNTABLE
        rationale.append(
            (
                "some null cluster carries two distinct cycles, "
                "so the null rays branch without bound",
                "null-cycle-pair",
            )
        )
    else:
        end_class = EndClass.INFINITE_COUNTABLE
        rationale.append(
            (
                "null rays never branch, so the null ends stay countable",
                "null-linear-growth",
            )
        )
    if finite_plus:
        fixed = 2
        rationale.append(
            (
                "the positive part is finite: a compact core crossed with "
                "a line keeps two fixed ends",
                "compact-core",
            )
        )
    else:
        fixed = 1
        rationale.append(
            (
                "the positive part is infinite and the telescope pins one end",
                "infinite-telescope",
            )
        )
    return EndReport(
        end_class=end_class,
        fixed_end_count=fixed,
        gamma_plus_finite=finite_plus,
        null_ends=nulls,
        rationale=tuple(rationale),
    )


@dataclass(frozen=True)
class RaySpec:
    """Eventually periodic root path, as germ edge indices."""

    prefix: tuple
    cycle: tuple


def check_ray(g: GermGraph, ray: RaySpec) -> None:
    if not ray.cycle:
        raise DomainError("a ray needs a nonempty cycle part")
    at = g.root
    for e in ray.prefix + ray.cycle:
        if not (0 <= e < len(g.edges)):
            raise DomainError(f"ray references edge {e}, germ has {len(g.edges)}")
    for e in ray.prefix:
        edge = g.edges[e]
        if edge.src != at:
            raise DomainError(f"ray prefix breaks at edge {e}: not at {edge.src}")
        at = edge.dst
    start = at
    for e in ray.cycle:
        edge = g.edges[e]
        if edge.src != at:
            raise DomainError(f"ray cycle breaks at edge {e}: not at {edge.src}")
        at = edge.dst
    if at != start:
        raise DomainError("ray cycle part does not close up")


def _positive_tree(out: list, src: int, limit) -> tuple:
    """Breadth-first tree of the positive out-edges ``out`` from ``src`` to
    distance ``limit``, in declaration order: per vertex, its distance and
    the edge that first reached it (None if unreached), so tree paths are
    shortest, then lexicographically first; and the reached vertices."""
    dist, edge = [None] * len(out), [None] * len(out)
    dist[src] = 0
    queue = [src]
    for at in queue:
        d = dist[at] + 1
        if d > limit:  # every vertex still queued is at least as far
            break
        for idx, w in out[at]:
            if dist[w] is None:
                dist[w], edge[w] = d, idx
                queue.append(w)
    return dist, edge, queue


def _tree_path(edge: list, src_of: list, v: int) -> tuple:
    """Edge indices of the tree path to ``v``."""
    path = []
    while edge[v] is not None:
        path.append(edge[v])
        v = src_of[edge[v]]
    return tuple(reversed(path))


def default_ray(g: GermGraph) -> RaySpec | None:
    """Shortest, then lexicographically first, root path through positive
    edges that revisits one of its own vertices; closed at that revisit.
    When no positive cycle is reachable, fall back to the greedy walk along
    first-declared edges, null ones included.

    The shortest such lasso is a shortest root path to its loop vertex v,
    then an edge v -> w and a shortest path from w back to v: any other
    shape contains a shorter lasso.  So breadth-first trees from the root
    and from each reached vertex, one held at a time, find it in O(V*E)
    time and O(V+E) memory, with no path enumeration.  The tree from w
    stops at the best lasso length so far less w's root distance."""
    require_valid(g)
    if g.is_trivial:
        return None
    index = {v: i for i, v in enumerate(g.vertices)}
    src_of = [index[e.src] for e in g.edges]
    # positive (edge, head) pairs out of each vertex and (edge, tail) pairs into it
    out, into = [[] for _ in index], [[] for _ in index]
    for idx, (t, e) in enumerate(zip(src_of, g.edges)):
        if e.label > 0:
            out[t].append((idx, index[e.dst]))
            into[index[e.dst]].append((idx, t))
    root_dist, root_edge, reached = _positive_tree(out, index[g.root], math.inf)
    best = (math.inf, None, 0)  # (length, trail, prefix length)
    for w in reached:
        if root_dist[w] > best[0]:  # so is every later source
            break
        dist, edge, _ = _positive_tree(out, w, best[0] - root_dist[w])
        for idx, v in into[w]:  # a lasso closed by v -> w, if no longer than the best
            if dist[v] is not None and root_dist[v] + 1 + dist[v] <= best[0]:
                trail = _tree_path(root_edge, src_of, v) + (idx,) + _tree_path(edge, src_of, v)
                best = min(best, (len(trail), trail, root_dist[v]))
    _, trail, k = best
    if trail is not None:
        return RaySpec(trail[:k], trail[k:])
    trail, seen = [], [g.root]
    while True:
        idx, edge = g.out_edges(seen[-1])[0]
        if edge.dst in seen:
            k = seen.index(edge.dst)
            return RaySpec(tuple(trail[:k]), tuple(trail[k:]) + (idx,))
        trail.append(idx)
        seen.append(edge.dst)


def pro_pi1_ray(g: GermGraph, ray: RaySpec) -> MultSequence:
    """Multiplication tower read off along the ray's edge labels."""
    check_ray(g, ray)
    return MultSequence(
        tuple(g.edges[e].label for e in ray.prefix),
        tuple(g.edges[e].label for e in ray.cycle),
    )


@dataclass(frozen=True)
class RankSequence:
    ranks: tuple

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.ranks)


def pro_h1_fixed_end(g: GermGraph, depth: int, ends: EndReport) -> RankSequence:
    """Rank tower of the neighborhoods of the fixed end: one less than the
    clone count over each tier.  Only defined with exactly one fixed end,
    as ``ends``, the end report of ``g``, says."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if ends.fixed_end_count != 1:
        raise DomainError("rank tower needs exactly one fixed end")
    counts = walk_counts(g, (g.root,), lambda e: e.label, depth)  # frontier_count, every tier
    return RankSequence(tuple(check_label(n - 1, "rank") for n in counts))


def power_ray(g: GermGraph, ray: RaySpec, m: int) -> RaySpec:
    """Image of a ray under edge-path blocking: the ray of ``germ_power(g, m)``
    whose length-m blocks retrace the original edges."""
    check_ray(g, ray)
    if m < 1:
        raise DomainError("power must be at least 1")
    powered, paths = germ_power_detailed(g, m)
    lookup = {
        (edge.src, paths[j]): j for j, edge in enumerate(powered.edges)
    }
    p_len, c_len = len(ray.prefix), len(ray.cycle)
    pre_blocks = -(-p_len // m)
    cyc_blocks = c_len // math.gcd(c_len, m)

    def step(t: int) -> int:
        return ray.prefix[t] if t < p_len else ray.cycle[(t - p_len) % c_len]

    at = g.root
    blocks = []
    for b in range(pre_blocks + cyc_blocks):
        src = at
        trail = []
        for t in range(b * m, (b + 1) * m):
            e = step(t)
            trail.append(e)
            at = g.edges[e].dst
        blocks.append(lookup[(src, tuple(trail))])
    out = RaySpec(tuple(blocks[:pre_blocks]), tuple(blocks[pre_blocks:]))
    check_ray(powered, out)
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass, fail, or skip
    detail: str

    def __str__(self) -> str:
        return f"check {self.name}: {self.status} ({self.detail})"

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _tree_child_along(g: GermGraph, t: TruncatedTree, node_id: int, edge_idx: int) -> int:
    """Child of a tree node reached by one germ edge, matched by position."""
    node = t.node(node_id)
    kids = t.children(node_id)
    for pos, (gi, _) in enumerate(g.out_edges(node.germ_vertex)):
        if gi == edge_idx:
            return kids[pos]
    raise DomainError(f"edge {edge_idx} does not leave vertex {node.germ_vertex}")


def cross_checks(
    g: GermGraph,
    ends: EndReport,
    ray: RaySpec | None,
    depth: int = 4,
    height: int = 4,
    ceiling: int = DEFAULT_CEILING,
) -> list:
    """Dual-route battery on a valid germ.  The claims under test, checked
    against cell complexes or brute-force counting and never derived again,
    are ``ends``, the end report of ``g``, and ``ray``, its default ray.
    The rank tower is walked afresh to ``min(3, depth)``, the battery's
    window.  Checks that do not apply to the germ's class are reported as
    skips, never silently dropped."""
    if depth < 1 or height < 1:
        raise DomainError("depth and height must be at least 1")
    results: list = []

    def add(name: str, ok: bool, detail: str) -> None:
        results.append(CheckResult(name, "pass" if ok else "fail", detail))

    def skip(name: str, detail: str) -> None:
        results.append(CheckResult(name, "skip", detail))

    # One window for every cell-complex check.  Each object below is built
    # once, and every ceiling is checked before the clone trees are built,
    # so a SizeCeilingError names the first stage that overflows
    # (truncation, clone trees, telescopes, then covers) and comes before
    # any work the covers' size bounds.  The covers read the depth-d3 clone
    # tree and the frontier tower radii up to the bond count, so at d3 = 3
    # the two share one tree, whose frontier graphs have fewer cells than
    # the taller cover; below that the tower gets a tree one tier deeper.
    d3 = min(3, depth)
    t_deep = truncate(g, d3 + 1, ceiling)
    # truncate numbers breadth first, so depth d3 is a tier prefix
    t = TruncatedTree(d3, t_deep.nodes[: t_deep.tier_starts[d3 + 1]])
    n_bonds = min(2, d3) + 1  # bond i reads radii i and i + 1
    trees = [positive_part(t)] if n_bonds == d3 else [positive_part(t), positive_part(t_deep)]
    # each clone tree is counted, and refused, before any is built
    clones = [sum(clone_orders(pos, ceiling).values()) for pos in trees]
    # branch-components reads only 1-skeletons; ray-multiplier builds t's with faces
    telescopes = [(tree, cw.telescope_graph(tree, ceiling)) for tree in (t, t_deep)]
    nf = null_forest(t)
    hc = min(height, 3)
    # the cover at hc is a prefix of the one at hc + 1, cut at these counts
    cuts = [cw.check_cover_size(clones[0], nf, h, ceiling) for h in (hc, hc + 1)]
    cosets = [lambda_plus(pos, ceiling) for pos in trees]
    cov_coset, coset = cosets[0], cosets[-1]

    if ends.fixed_end_count == 1:
        ranks = pro_h1_fixed_end(g, d3, ends)
        bonds = list(map(cw.FrontierTower(coset).bond, range(n_bonds)))
        # a bond's rows and cols are the Betti numbers of its two graphs
        betti = ([b.rows for b in bonds] + [bonds[-1].cols])[: d3 + 1]
        add(
            "frontier-rank",
            list(ranks.ranks) == betti,
            f"closed form {list(ranks.ranks)} vs frontier graphs {betti}",
        )
    else:
        skip("frontier-rank", "rank tower needs exactly one fixed end")

    ok = True
    details = []
    for tree, skeleton in telescopes:
        # the neighbourhood of infinity at tier i is the full subgraph on
        # the vertices at tier >= i, that is, of level depth - tier <= depth - i
        counts = skeleton.level_component_counts([tree.depth - n.tier for n in tree.nodes])
        for i in range(1, min(3, tree.depth) + 1):
            got = counts[tree.depth - i]
            want = len(tree.tier_nodes(i))
            if got != want:
                ok = False
            details.append(f"d={tree.depth} i={i}: {got} vs {want}")
    add("branch-components", ok, "; ".join(details))

    if ends.fixed_end_count == 1 and ray is not None:
        ok = True
        details = []
        node_id = t.root.id
        prod = 1
        steps = ray.prefix + ray.cycle * 2  # at least the ray's first two edges
        base = cw.build_base(t, ceiling)
        engine = cw.H1Calculator(base.complex)
        for i in range(1, min(2, d3) + 1):
            e_idx = steps[i - 1]
            prod *= g.edges[e_idx].label
            node_id = _tree_child_along(g, t, node_id, e_idx)
            mat = engine.induced(cw.branch_selection(base, node_id))
            entries = [abs(x) for row in mat for x in row if x != 0]
            mult = math.gcd(*entries) if entries else 0
            if len(mat) != 1 or mult != prod:
                ok = False
            details.append(f"i={i}: multiplier {mult} vs label product {prod}")
        add("ray-multiplier", ok, "; ".join(details))
    else:
        skip("ray-multiplier", "needs one fixed end and a ray")

    # Both cover checks read only the 1-skeleton of the taller cover, and
    # the one at hc as its prefix.
    cover = cw.build_cover_graph(cov_coset, nf, hc + 1, ceiling)
    parts = dict(zip((hc, hc + 1), cover.prefix_component_counts(cuts)))
    details = [f"height {h}: {n} component(s)" for h, n in parts.items()]
    add("cover-connected", set(parts.values()) == {1}, "; ".join(details))

    if g.is_trivial:
        ok = True
        details = []
        mid = cw.cover_vertex(cov_coset.root_index, 0, clones[0], nf)
        for h, (nv, ne) in zip((hc, hc + 1), cuts):
            # the cover at h with the middle vertex and its edges dropped
            verts = tuple(v for v in range(nv) if v != mid)
            edges = tuple(e for e in range(ne) if mid not in (cover.tails[e], cover.heads[e]))
            n = cover.component_count(cw.CellSelection(verts, edges, ()))
            if n != 2:
                ok = False
            details.append(f"height {h}: middle vertex splits into {n}")
        add("two-ended-split", ok, "; ".join(details))
    else:
        skip("two-ended-split", "only meaningful for the one-vertex germ")

    counts = null_path_counts(g, 12)
    gc = growth_class(counts)
    if ends.null_ends is Cardinality.EMPTY:
        ok = all(c == 0 for c in counts)
        want = "all-zero counts"
    elif ends.null_ends is Cardinality.UNCOUNTABLE:
        ok = gc is GrowthClass.EXPONENTIAL
        want = "exponential"
    else:
        ok = gc is GrowthClass.POLYNOMIAL
        want = "polynomial"
    add("null-growth", ok, f"counts {counts[:6]}, class {gc.value}, expected {want}")

    # clone counts over each tier (frontier_count), one walk per germ, read
    # in step: tier t of the germ against tier t/m of its m-th power
    powers, walks = {}, {}
    for m in (2, 3):
        try:
            powers[m] = p = germ_power(g, m, ceiling)
            walks[m] = walk_counts(p, (p.root,), lambda e: e.label, depth // m)
        except (ValidationFailed, SizeCeilingError) as exc:
            powers[m] = exc
    tele = dict.fromkeys(walks, True)
    for t, count in enumerate(walk_counts(g, (g.root,), lambda e: e.label, depth)):
        for m, walk in walks.items():
            if t % m == 0 and next(walk) != count:
                tele[m] = False
    for m, powered in powers.items():
        name = f"power-invariance-{m}"
        if m not in walks:
            skip(name, f"power germ unavailable: {powered}")
            continue
        same = classify_ends(powered) == ends
        add(name, same and tele[m], f"class match {same}, frontier telescoping {tele[m]}")

    if ends.fixed_end_count == 1:
        onto = [bond.surjective() for bond in bonds]
        details = [f"i={i}: {'onto' if x else 'not onto'}" for i, x in enumerate(onto)]
        add("collapse-surjective", all(onto), "; ".join(details))
    else:
        skip("collapse-surjective", "needs exactly one fixed end")

    if ray is not None:
        seq = pro_pi1_ray(g, ray)
        if all(k == 1 for k in seq.cycle):
            cert = ladder_search(seq, MultSequence((), (1,)), depth=4, bound=8)
            add(
                "ray-stable-label1",
                cert is not None,
                "ladder to the constant tower "
                + ("found" if cert is not None else "missing"),
            )
        else:
            skip("ray-stable-label1", "ray cycle labels are not all 1")
    else:
        skip("ray-stable-label1", "no ray")

    return results


@dataclass
class Report:
    ends: EndReport
    ranks: RankSequence | None
    ray_sequence: MultSequence | None
    flags: SequenceClass | None
    limit: InverseLimitClass | None
    checks: tuple


def full_report(
    g: GermGraph,
    depth: int = 4,
    height: int = 4,
    ceiling: int = DEFAULT_CEILING,
) -> Report:
    ends = classify_ends(g)
    ranks = pro_h1_fixed_end(g, depth, ends) if ends.fixed_end_count == 1 else None
    ray = default_ray(g)
    seq = pro_pi1_ray(g, ray) if ray is not None else None
    return Report(
        ends=ends,
        ranks=ranks,
        ray_sequence=seq,
        flags=classify_mult(seq) if seq is not None else None,
        limit=inverse_limit_mult(seq) if seq is not None else None,
        checks=tuple(cross_checks(g, ends, ray, depth, height, ceiling)),
    )


def to_json_dict(report: Report) -> dict:
    flags = None
    if report.flags is not None:
        flags = report.flags.as_dict()
        flags["inverse_limit"] = report.limit.value
    return {
        "schema": 1,
        "end_class": report.ends.end_class.value,
        "fixed_ends": report.ends.fixed_end_count,
        "gamma_plus_finite": report.ends.gamma_plus_finite,
        "null_ends": str(report.ends.null_ends),
        "ranks": list(report.ranks.ranks) if report.ranks is not None else None,
        "ray_sequence": (
            format_sequence(report.ray_sequence)
            if report.ray_sequence is not None
            else None
        ),
        "flags": flags,
        "oracle_checks": [c.as_dict() for c in report.checks],
    }


def render_text(report: Report) -> str:
    lines = [
        f"end_class: {report.ends.end_class.value}",
        f"fixed_ends: {report.ends.fixed_end_count}",
        f"gamma_plus_finite: {str(report.ends.gamma_plus_finite).lower()}",
        f"null_ends: {report.ends.null_ends}",
    ]
    for claim, rule in report.ends.rationale:
        lines.append(f"because [{rule}] {claim}")
    if report.ranks is not None:
        lines.append(f"ranks: {report.ranks}")
    if report.ray_sequence is not None:
        lines.append(f"ray_sequence: {format_sequence(report.ray_sequence)}")
        f = report.flags
        lines.append(
            "flags: "
            + " ".join(
                [
                    f"pro_trivial={str(f.pro_trivial).lower()}",
                    f"semistable={str(f.semistable).lower()}",
                    f"pro_mono={str(f.pro_mono).lower()}",
                    f"stable={str(f.stable).lower()}",
                    f"inverse_limit={report.limit.value}",
                ]
            )
        )
    lines.extend(str(c) for c in report.checks)
    return "\n".join(lines) + "\n"
