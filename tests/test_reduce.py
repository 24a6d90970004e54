"""Tests for tier-interval reductions and germ powers."""

import itertools
import signal
from contextlib import contextmanager

import pytest

from corpus import CORPUS
from treeends.classify import default_ray, power_ray
from treeends.coset import frontier_count
from treeends.errors import DomainError, SizeCeilingError, ValidationFailed
from treeends.germ import GermGraph, germ_from_edges
from treeends.reduce import elementary_reduction, germ_power, germ_power_detailed
from treeends.unfold import truncate


@contextmanager
def within(seconds: float):
    """Fail the block, rather than hang, if it runs past ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def walks_by_brute_force(g: GermGraph, m: int):
    """All length-m edge-index walks, grouped by start vertex in declaration
    order and lexicographic within it, with their label products.  Checks the
    power construction from the flat edge list instead of the adjacency."""
    out = []
    for src in g.vertices:
        for combo in itertools.product(range(len(g.edges)), repeat=m):
            at = src
            label = 1
            ok = True
            for idx in combo:
                edge = g.edges[idx]
                if edge.src != at:
                    ok = False
                    break
                at = edge.dst
                label *= edge.label
            if ok:
                out.append((src, at, label, combo))
    return out


class TestElementaryReduction:
    def test_single_loop_interval_collapse(self):
        t = truncate(CORPUS["bs2"], 4)
        r = elementary_reduction(t, 0, 2)
        assert r.depth == 3
        assert [(n.tier, n.label) for n in r.nodes] == [
            (0, None),
            (1, 4),
            (2, 2),
            (3, 2),
        ]

    def test_branching_interval_collapse(self):
        t = truncate(CORPUS["two_loops"], 2)
        r = elementary_reduction(t, 0, 2)
        assert r.depth == 1
        leaves = [n for n in r.nodes if n.tier == 1]
        assert [n.label for n in leaves] == [4, 6, 6, 9]
        assert all(n.parent == 0 for n in leaves)

    @pytest.mark.parametrize("name", ["bs2", "two_loops", "mixed", "spin"])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_adjacent_tiers_reduce_to_the_same_tree(self, name, i):
        t = truncate(CORPUS[name], 3)
        assert elementary_reduction(t, i, i + 1) == t

    def test_deeper_tiers_shift_up_unchanged(self):
        t = truncate(CORPUS["spin"], 3)
        r = elementary_reduction(t, 1, 3)
        assert r.depth == 2
        # tier 0 and 1 survive as they were
        for tier in (0, 1):
            assert [
                (n.germ_vertex, n.label) for n in r.nodes if n.tier == tier
            ] == [(n.germ_vertex, n.label) for n in t.nodes if n.tier == tier]

    def test_null_status_recomputed_through_products(self):
        t = truncate(CORPUS["mixed"], 2)
        r = elementary_reduction(t, 0, 2)
        assert sorted(n.label for n in r.nodes if n.tier == 1) == [0, 0, 1]
        assert all((n.label > 0) == n.positive for n in r.nodes if n.tier == 1)

    @pytest.mark.parametrize("i,j", [(-1, 1), (2, 2), (3, 2), (0, 5)])
    def test_interval_bounds_checked(self, i, j):
        t = truncate(CORPUS["bs2"], 4)
        with pytest.raises(DomainError):
            elementary_reduction(t, i, j)

    @pytest.mark.parametrize("tier", [2.0, True, "3", None])
    def test_tiers_must_be_ints(self, tier):
        t = truncate(CORPUS["bs2"], 4)
        for i, j in ((tier, 4), (0, tier)):
            with pytest.raises(DomainError) as exc:
                elementary_reduction(t, i, j)
            assert str(exc.value) == f"tier {tier!r} is not an int"


class TestGermPower:
    def test_two_loops_squared(self):
        p, paths = germ_power_detailed(CORPUS["two_loops"], 2)
        assert [(e.src, e.dst, e.label) for e in p.edges] == [
            ("A", "A", 4),
            ("A", "A", 6),
            ("A", "A", 6),
            ("A", "A", 9),
        ]
        assert paths == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_spin_squared_edge_order(self):
        p, paths = germ_power_detailed(CORPUS["spin"], 2)
        assert [(e.src, e.dst, e.label) for e in p.edges] == [
            ("A", "A", 6),
            ("A", "B", 2),
            ("A", "A", 1),
            ("B", "B", 6),
            ("B", "A", 3),
        ]
        assert paths == ((0, 1), (2, 0), (2, 2), (1, 0), (1, 2))

    @pytest.mark.parametrize("name", ["bs2", "two_loops", "mixed", "spin", "null_binary"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force_walks(self, name, m):
        g = CORPUS[name]
        p, paths = germ_power_detailed(g, m)
        got = [
            (e.src, e.dst, e.label, trail) for e, trail in zip(p.edges, paths)
        ]
        assert got == walks_by_brute_force(g, m)

    def test_power_one_keeps_every_edge(self):
        # length-1 paths are the edges themselves, regrouped by source vertex
        g = CORPUS["spin"]
        p = germ_power(g, 1)
        assert list(p.edges) == [e for v in g.vertices for _, e in g.out_edges(v)]
        single = CORPUS["two_loops"]
        assert germ_power(single, 1) == single

    def test_power_must_be_positive(self):
        with pytest.raises(DomainError):
            germ_power(CORPUS["bs2"], 0)

    @pytest.mark.parametrize("power", [2.5, 1.5, 2.0, True, None, "2"])
    @pytest.mark.parametrize("name", ["bs2", "spin"])
    def test_power_must_be_an_int(self, name, power):
        # a walk never reaches a length that is not an int, and the ceiling
        # counts only the edges it emits, so such a power must be refused
        # before the walk; a bool is not taken as 0 or 1
        for build in (germ_power, germ_power_detailed):
            with within(5), pytest.raises(DomainError, match=f"power {power!r} is not an int"):
                build(CORPUS[name], power, ceiling=1000)

    def test_power_ray_refuses_a_non_int_power(self):
        g = CORPUS["bs2"]
        with within(5), pytest.raises(DomainError, match="power 1.5 is not an int"):
            power_ray(g, default_ray(g), 1.5)

    def test_root_and_vertices_preserved(self):
        p = germ_power(CORPUS["mixed"], 3)
        assert p.root == "A"
        assert p.vertices == CORPUS["mixed"].vertices

    def test_unreachable_power_is_reported(self):
        # a pure two-cycle has only odd-length paths into its far vertex
        cycle = germ_from_edges("A", [("A", "B", 2), ("B", "A", 3)])
        with pytest.raises(ValidationFailed) as exc:
            germ_power(cycle, 2)
        assert [v.rule for v in exc.value.report.violations] == ["unreachable"]

    def test_ceiling_applies_to_path_count(self):
        with pytest.raises(SizeCeilingError):
            germ_power(CORPUS["two_loops"], 11, ceiling=1000)


class TestPowerCoherence:
    @pytest.mark.parametrize("name", ["bs2", "two_loops", "mixed", "spin"])
    @pytest.mark.parametrize("m,d", [(2, 1), (2, 2), (3, 1)])
    def test_iterated_reduction_equals_truncated_power(self, name, m, d):
        g = CORPUS[name]
        stepwise = truncate(g, m * d)
        for k in range(d):
            stepwise = elementary_reduction(stepwise, k, k + m)
        assert stepwise == truncate(germ_power(g, m), d)

    @pytest.mark.parametrize("name", ["bs2", "bs3", "two_loops", "spin", "mixed2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_frontier_counts_telescope(self, name, m):
        g = CORPUS[name]
        p = germ_power(g, m)
        for i in range(3):
            assert frontier_count(p, i) == frontier_count(g, m * i)
