"""End-structure classification with a cross-checking oracle battery.

The closed-form answers (end counts, rays, rank towers, sequence flags) are
computed once per report.  The battery receives the claims under test and
checks them against the cell-complex machinery or brute-force counting.  Its
rows (``CHECKS``) and the ``Report`` fields they check:

- ``frontier-rank``: ``ranks``, against frontier graph Betti numbers;
- ``ray-multiplier``: ``ray_sequence``, up to its first two labels, against
  the multipliers of the telescope's branch maps, read off the classes of
  each branch's loops in the telescope's H1;
- ``ray-stable-label1``: ``flags``, for a ray whose cycle labels are all 1,
  by a ladder to the constant tower, built from the exact pro-isomorphism
  criterion and passed only when ``verify_ladder`` accepts it;
- ``null-growth``: ``ends.null_ends``, against null path counts;
- ``two-ended-split``: ``ends.end_class``, on the one-vertex germ only;
- ``power-invariance-2`` and ``-3``: all of ``ends``, but only against the
  same closed form on the power germ;
- ``branch-components``, ``cover-connected`` and ``collapse-surjective``:
  no field; they check the telescope's tiers, the cover's connectedness and
  the frontier tower's bonds.

Two fields have no route of their own: ``ends.fixed_end_count`` and
``ends.gamma_plus_finite``, on which the rank rows are only gated.  The
``limit`` field is not checked either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

from . import cw
from .coset import CosetTree, clone_orders, lambda_plus
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
    verify_ladder,
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
    powered, paths = germ_power_detailed(g, m)  # refuses m unless an int >= 1
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
    vertex = t.vertex[t.position(node_id)]
    for kid, (gi, _) in zip(t.children(node_id), g.out_edges(vertex)):
        if gi == edge_idx:
            return kid
    raise DomainError(f"edge {edge_idx} does not leave vertex {vertex}")


class BatteryContext:
    """What the oracle battery's checks read.  The constructor is the size plan:
    it fixes one window (depth ``min(3, depth)``, heights ``min(3, height)`` and
    one more) and refuses in stage order, truncation, the clone tree,
    telescopes, then covers, before the clone tree is built; the rest is built
    on first read.  The covers and the frontier tower share that one tree."""

    def __init__(
        self, g: GermGraph, ends: EndReport, ray: RaySpec | None, depth: int, height: int, ceiling: int
    ):
        if depth < 1 or height < 1:
            raise DomainError("depth and height must be at least 1")
        self.g, self.ends, self.ray, self.depth, self.ceiling = g, ends, ray, depth, ceiling
        d3 = self.d3 = min(3, depth)
        t_deep = truncate(g, d3 + 1, ceiling)
        t = self.t = t_deep.prefix(d3)
        self.tree = positive_part(t)
        # the clone tree is counted, and refused, before it is built
        self.clones = sum(clone_orders(self.tree, ceiling).values())
        # branch-components reads only 1-skeletons; ray-multiplier fills t's with faces
        self.telescopes = [(tree, cw.telescope_graph(tree, ceiling)) for tree in (t, t_deep)]
        self.nf = null_forest(t)
        self.heights = (min(height, 3), min(height, 3) + 1)
        # the cover at the lower height is a prefix of the taller one, cut at
        # these counts.  The frontier tower needs no entry of its own: its
        # radius-i graph lies over a ball of nb <= c clones and has
        # 4 nb - 2 + (nb - f0) <= 5c - 2 cells, fewer than the 18c - 9 or
        # more of the taller cover (height >= 2)
        self.cuts = [cw.check_cover_size(self.clones, self.nf, h, ceiling) for h in self.heights]

    @cached_property
    def cover_coset(self) -> CosetTree:
        return lambda_plus(self.tree, self.ceiling)

    @cached_property
    def bonds(self) -> list:
        # bond i reads radii i and i + 1, so the bonds span radii 0 to d3
        return list(map(cw.FrontierTower(self.cover_coset).bond, range(self.d3)))

    @cached_property
    def faced_telescope(self) -> tuple:
        base = cw.build_base(self.t, self.ceiling)
        return base, cw.H1Calculator(base.complex)

    @cached_property
    def cover(self) -> cw.CW2Complex:
        return cw.build_cover_graph(self.cover_coset, self.nf, self.heights[1], self.ceiling)

    @cached_property
    def powers(self) -> dict:
        """m -> (the m-th power germ, whether its clone counts match the germ's
        at every m-th tier, one walk of each), or the message of the error
        that refused it.  The message, not the error: its traceback holds
        this context, which would then wait for the cyclic collector.  A
        clone count of more digits than a rank may have refuses the battery."""
        powers, walks = {}, {}
        for m in (2, 3):
            try:
                powers[m] = p = germ_power(self.g, m, self.ceiling)
                walks[m] = walk_counts(p, (p.root,), lambda e: e.label, self.depth // m)
            except (ValidationFailed, SizeCeilingError) as exc:
                powers[m] = str(exc)
        tele = dict.fromkeys(walks, True)
        for t, count in enumerate(walk_counts(self.g, (self.g.root,), lambda e: e.label, self.depth)):
            check_label(count, "clone count")  # the digit limit that ranks obey
            for m, walk in walks.items():
                if t % m == 0 and next(walk) != count:
                    tele[m] = False
        return {m: (p, tele[m]) if m in walks else p for m, p in powers.items()}

    def frontier_rank(self) -> tuple:
        if self.ends.fixed_end_count != 1:
            return None, "rank tower needs exactly one fixed end"
        ranks = list(pro_h1_fixed_end(self.g, self.d3, self.ends).ranks)
        # a bond's rows and cols are the Betti numbers of its two graphs
        betti = [b.rows for b in self.bonds] + [self.bonds[-1].cols]
        return ranks == betti, f"closed form {ranks} vs frontier graphs {betti}"

    def branch_components(self) -> tuple:
        rows = []
        for tree, skeleton in self.telescopes:
            # tier i's neighbourhood of infinity is the full subgraph at level depth - tier <= depth - i
            counts = skeleton.level_component_counts([tree.depth - tier for tier in tree.tiers()])
            starts = tree.tier_starts
            for i in range(1, min(3, tree.depth) + 1):
                rows.append((tree.depth, i, counts[tree.depth - i], starts[i + 1] - starts[i]))
        details = [f"d={d} i={i}: {got} vs {want}" for d, i, got, want in rows]
        return all(got == want for *_, got, want in rows), "; ".join(details)

    def ray_multiplier(self) -> tuple:
        if self.ends.fixed_end_count != 1 or self.ray is None:
            return None, "needs one fixed end and a ray"
        base, engine = self.faced_telescope
        k, rank = base.complex, len(engine.presentation.slots)
        ok, details, node_id, prod = True, [], self.t.ids[0], 1
        # the ray's first edges, two at most, whether or not it has a prefix
        for i, e in enumerate((self.ray.prefix + self.ray.cycle * 2)[: min(2, self.d3)], 1):
            prod *= self.g.edges[e].label
            node_id = _tree_child_along(self.g, self.t, node_id, e)
            # a branch is a subtree plus one loop per positive node, so its
            # loops' classes span the image of its H1 in the telescope's
            loops = [f for f in cw.branch_selection(base, node_id).edges if k.tails[f] == k.heads[f]]
            mult = math.gcd(*(x for loop in loops for x in engine.fundamental_class(loop)))
            ok = ok and rank == 1 and mult == prod
            details.append(f"i={i}: multiplier {mult} vs label product {prod}")
        return ok, "; ".join(details)

    def cover_connected(self) -> tuple:
        parts = dict(zip(self.heights, self.cover.prefix_component_counts(self.cuts)))
        details = [f"height {h}: {n} component(s)" for h, n in parts.items()]
        return set(parts.values()) == {1}, "; ".join(details)

    def two_ended_split(self) -> tuple:
        if not self.g.is_trivial:
            return None, "only meaningful for the one-vertex germ"
        # level 0 is the lower cover, level 1 the taller one, and the middle
        # vertex, the root at height 0, is past both, so each count drops it
        (low, _), (top, _) = self.cuts
        level = [0] * low + [1] * (top - low)
        level[cw.cover_vertex(0, 0, self.clones, self.nf)] = 2
        splits = self.cover.level_component_counts(level)[:2]
        details = [f"height {h}: middle vertex splits into {n}" for h, n in zip(self.heights, splits)]
        return splits == [2, 2], "; ".join(details)

    def null_growth(self) -> tuple:
        counts = null_path_counts(self.g, 12)
        gc = growth_class(counts)
        if self.ends.null_ends is Cardinality.EMPTY:
            ok, want = all(c == 0 for c in counts), "all-zero counts"
        elif self.ends.null_ends is Cardinality.UNCOUNTABLE:
            ok, want = gc is GrowthClass.EXPONENTIAL, "exponential"
        else:
            ok, want = gc is GrowthClass.POLYNOMIAL, "polynomial"
        return ok, f"counts {counts[:6]}, class {gc.value}, expected {want}"

    def power_invariance(self, m: int) -> tuple:
        if isinstance(self.powers[m], str):
            return None, f"power germ unavailable: {self.powers[m]}"
        powered, tele = self.powers[m]
        same = classify_ends(powered) == self.ends
        return same and tele, f"class match {same}, frontier telescoping {tele}"

    def collapse_surjective(self) -> tuple:
        if self.ends.fixed_end_count != 1:
            return None, "needs exactly one fixed end"
        onto = [bond.surjective() for bond in self.bonds]
        return all(onto), "; ".join(f"i={i}: {'onto' if x else 'not onto'}" for i, x in enumerate(onto))

    def ray_stable_label1(self) -> tuple:
        if self.ray is None:
            return None, "no ray"
        seq = pro_pi1_ray(self.g, self.ray)
        if any(k != 1 for k in seq.cycle):
            return None, "ray cycle labels are not all 1"
        constant = MultSequence((), (1,))
        cert = ladder_search(seq, constant, depth=4)
        found = cert is not None and verify_ladder(seq, constant, cert)
        return found, "ladder to the constant tower " + ("found" if found else "missing")


# The battery in report order: each check's name and its function of the
# context, which returns (True or False, detail), or (None, why it skips).
CHECKS = (
    ("frontier-rank", BatteryContext.frontier_rank),
    ("branch-components", BatteryContext.branch_components),
    ("ray-multiplier", BatteryContext.ray_multiplier),
    ("cover-connected", BatteryContext.cover_connected),
    ("two-ended-split", BatteryContext.two_ended_split),
    ("null-growth", BatteryContext.null_growth),
    ("power-invariance-2", lambda battery: battery.power_invariance(2)),
    ("power-invariance-3", lambda battery: battery.power_invariance(3)),
    ("collapse-surjective", BatteryContext.collapse_surjective),
    ("ray-stable-label1", BatteryContext.ray_stable_label1),
)


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
    Checks that do not apply to the germ's class are reported as skips,
    never silently dropped."""
    battery = BatteryContext(g, ends, ray, depth, height, ceiling)
    verdicts = [(name, *check(battery)) for name, check in CHECKS]
    return [CheckResult(n, "skip" if ok is None else "pass" if ok else "fail", d) for n, ok, d in verdicts]


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
