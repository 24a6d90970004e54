import dataclasses
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from treeends import germ
from treeends.classify import full_report
from treeends.errors import ParseError, SizeCeilingError, ValidationFailed
from treeends.germ import (
    GermEdge,
    GermGraph,
    check_label,
    germ_from_edges,
    parse_germ,
    render_germ,
    require_valid,
    validate_germ,
    walk_counts,
)
from treeends.proseq import MultSequence, ladder_search
from treeends.reduce import germ_power
from treeends.unfold import truncate
from corpus import CORPUS
from test_classify import valid_germs

# What ``treeends reduce --power 2`` prints for the germ ``edge A A 2**40``.
POWER_2_40 = "root A\nedge A A 1208925819614629174706176\n"
LONG_LABEL = "root A\nedge A A " + "7" * 5000 + "\n"


def test_round_trip_corpus():
    for g in CORPUS.values():
        assert parse_germ(render_germ(g)) == g


def test_parse_basic():
    g = parse_germ("root A\nvertex B\nedge A B 0\nedge B B 0\n")
    assert g.root == "A"
    assert g.vertices == ("A", "B")
    assert g.edges == (GermEdge("A", "B", 0), GermEdge("B", "B", 0))


def test_parse_comments_and_blank_lines():
    text = "# a germ\n\nroot A  # the only vertex\n\nedge A A 2\n"
    g = parse_germ(text)
    assert g == germ_from_edges("A", [("A", "A", 2)])


def test_parse_root_anywhere():
    g = parse_germ("vertex B\nedge A B 1\nedge B A 1\nroot A\n")
    assert g.root == "A"
    assert g.edges[0] == GermEdge("A", "B", 1)


@pytest.mark.parametrize(
    "text,line",
    [
        ("vertex A\nedge A A 1\n", 3),  # missing root reported past the end
        ("root A\nroot B\n", 2),
        ("root A\nvertex A\n", 2),
        ("root A\nedge A B 1\n", 2),  # B never declared
        ("root A\nedge B A 1\nvertex B\n", 2),  # declared too late
        ("root A\nedge A A -1\n", 2),
        ("root A\nedge A A x\n", 2),
        ("root A\nedge A A +2\n", 2),
        ("root A\nedge A A 1_0\n", 2),
        ("root A\nedge A A \u0663\n", 2),  # ARABIC-INDIC DIGIT THREE
        ("root A\nedge A A\n", 2),
        ("root A\nloop A\n", 2),
        ("root 9bad\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_germ(text)
    assert exc.value.line == line


def test_single_vertex_no_edges_is_valid():
    report = validate_germ(CORPUS["trivial"])
    assert report.ok


def test_leafless_violation():
    g = parse_germ("root A\nvertex B\nedge A B 1\n")
    report = validate_germ(g)
    assert not report.ok
    assert [v.rule for v in report.violations] == ["leafless"]
    assert report.violations[0].subject == "B"


def test_null_closure_violation():
    g = parse_germ(
        "root A\nvertex B\nvertex C\n"
        "edge A B 0\nedge B B 0\nedge B C 1\nedge C C 1\n"
    )
    report = validate_germ(g)
    assert not report.ok
    assert ("null-closure", "B") in [
        (v.rule, v.subject) for v in report.violations
    ]


def test_unreachable_violation():
    g = parse_germ("root A\nvertex B\nedge A A 1\nedge B B 1\n")
    report = validate_germ(g)
    assert not report.ok
    assert [v.rule for v in report.violations] == ["unreachable"]


@pytest.mark.parametrize("label", ["2", 2.0, True])
def test_labels_that_are_not_exact_ints_are_violations(label):
    # germ files give ints; a germ built in code may hold anything, and the
    # tree writers print each label as the digits of an exact int
    for g in (
        germ_from_edges("A", [("A", "A", label)]),
        GermGraph(("A",), "A", (GermEdge("A", "A", 1), GermEdge("A", "A", label))),
    ):
        report = validate_germ(g)
        assert not report.ok
        assert [(v.rule, v.subject, v.message) for v in report.violations] == [
            ("structure", "A->A", "label must be an integer")
        ]
        with pytest.raises(ValidationFailed):
            truncate(g, 1)
        with pytest.raises(ValidationFailed):
            full_report(g)


def test_negative_label_violation():
    report = validate_germ(germ_from_edges("A", [("A", "A", -1)]))
    assert [(v.rule, v.message) for v in report.violations] == [("structure", "negative label")]


def test_require_valid_raises_with_report():
    g = parse_germ("root A\nvertex B\nedge A B 1\n")
    with pytest.raises(ValidationFailed):
        require_valid(g)


def test_germ_from_edges_orders_vertices_by_first_use():
    g = germ_from_edges("R", [("R", "S", 2), ("S", "T", 1), ("T", "T", 2)])
    assert g.vertices == ("R", "S", "T")


NAMES = st.sampled_from(["A", "B", "C", "D"])


@st.composite
def germs(draw):
    root = draw(NAMES)
    extra = draw(st.lists(NAMES, max_size=3))
    pool = [root] + [n for n in extra if n != root]
    n_edges = draw(st.integers(min_value=0, max_value=6))
    edges = [
        (
            draw(st.sampled_from(pool)),
            draw(st.sampled_from(pool)),
            draw(st.integers(min_value=0, max_value=9)),
        )
        for _ in range(n_edges)
    ]
    # germ_from_edges only declares names that occur, so route through it.
    return germ_from_edges(root, edges)


@given(germs())
def test_round_trip_random(g):
    assert parse_germ(render_germ(g)) == g


def test_out_edges_keeps_declaration_order():
    g = CORPUS["spin"]
    assert [(i, e.label) for i, e in g.out_edges("A")] == [(0, 2), (2, 1)]
    assert [(i, e.label) for i, e in g.out_edges("B")] == [(1, 3)]


def test_report_and_index_are_computed_once_and_stay_out_of_equality():
    g = dataclasses.replace(CORPUS["spin"])
    assert g.report is g.report
    assert g.out_edges("A") is g.out_edges("A")
    assert g.out_edges("missing") == ()
    fresh = dataclasses.replace(g)
    assert g == fresh and hash(g) == hash(fresh)


def test_power_output_reads_back_at_any_label_size(int_digit_limit):
    powered = germ_power(germ_from_edges("A", [("A", "A", 2**40)]), 2)
    assert render_germ(powered) == POWER_2_40
    assert parse_germ(POWER_2_40) == powered
    assert validate_germ(parse_germ(POWER_2_40)).ok


def test_label_past_the_int_digit_limit_is_a_parse_error(int_digit_limit):
    with pytest.raises(ParseError) as exc:
        parse_germ(LONG_LABEL)
    assert exc.value.line == 2
    assert "5000 digits" in exc.value.reason
    assert parse_germ("root A\nedge A A " + "7" * 4300 + "\n").edges[0].label > 0


@pytest.mark.parametrize(
    "token", ["\u0663", "+2", "1_0", "7" + "x" * 200], ids=["arabic-indic", "signed", "underscore", "long"]
)
def test_labels_are_ascii_digits_and_long_ones_are_not_echoed(token):
    with pytest.raises(ParseError) as exc:
        parse_germ(f"root A\nedge A A {token}\n")
    assert exc.value.reason.endswith("is not a nonnegative integer")
    assert len(str(exc.value)) < 80


def test_label_check_matches_the_int_digit_limit(int_digit_limit):
    assert check_label(10**4300 - 1) == 10**4300 - 1
    for label, digits in ((10**4300, 4301), (2**15000, 4516)):
        with pytest.raises(SizeCeilingError) as exc:
            check_label(label)
        assert (exc.value.count, exc.value.ceiling) == (digits, 4300)


def test_label_check_at_the_least_digit_limit(int_digit_limit):
    # 640 digits is the least limit Python accepts; every label of at most
    # 3 * 640 bits returns before the limit is read
    sys.set_int_max_str_digits(640)
    assert sys.int_info.str_digits_check_threshold == 640
    assert check_label(2**1920 - 1) == 2**1920 - 1
    assert check_label(10**640 - 1) == 10**640 - 1
    with pytest.raises(SizeCeilingError) as exc:
        check_label(10**640)
    assert (exc.value.count, exc.value.ceiling) == (641, 640)
    sys.set_int_max_str_digits(0)  # no limit
    for label in (2**1920 - 1, 10**640 - 1, 10**640, 2**15000):
        assert check_label(label) == label


def test_a_ladder_refusal_builds_the_limit_power_once(int_digit_limit):
    # the rung search checks each growing bond against the digit limit,
    # thousands of calls past 3 * 4300 bits, but 10**4300 is built once
    germ._limit_power.cache_clear()
    with pytest.raises(SizeCeilingError) as exc:
        ladder_search(MultSequence((), (6,)), MultSequence((), (3 * 2**100,)))
    assert str(exc.value) == "ladder bond digits exceeds the size ceiling (4301 > 4300)"
    assert germ._limit_power.cache_info().misses == 1


TOKENS = st.one_of(
    st.sampled_from(["root", "vertex", "edge", "A", "B", "#", "0", "2", "-1"]),
    st.integers(min_value=0).map(str),
    st.text(max_size=4),
)
GERM_LIKE = st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join)


@settings(deadline=None)
@given(st.one_of(st.text(), GERM_LIKE))
@example(LONG_LABEL)
@example(POWER_2_40)
def test_parse_gives_a_germ_or_a_parse_error(text):
    try:
        g = parse_germ(text)
    except ParseError:
        return
    assert isinstance(g, GermGraph)


def enumerated_walk_totals(g, starts, weight, steps) -> list:
    """Reference for ``walk_counts``: every walk from the distinct starts is
    listed on its own, with the product of its edges' weights, and each
    length's total is the sum over its walks.  Out-edges are found by a scan
    of ``g.edges``, not by the germ's index."""
    walks = [(v, 1) for v in dict.fromkeys(starts)]
    totals = []
    for n in range(steps + 1):
        totals.append(sum(w for _, w in walks))
        if n < steps:
            walks = [(e.dst, w * weight(e)) for v, w in walks for e in g.edges if e.src == v]
    return totals


class TestWalkCounts:
    @settings(max_examples=200, deadline=None)
    @given(valid_germs(), st.integers(0, 5), st.data())
    def test_matches_the_enumerated_walks(self, g, steps, data):
        """Label weights from the root, the null indicator from the null
        zone, and arbitrary per-edge weights, 0 included, from any starts."""
        n = len(g.edges)
        per_edge = {}
        for e, w in zip(g.edges, data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))):
            per_edge.setdefault(e, w)  # equal edges weigh the same
        starts = data.draw(st.lists(st.sampled_from(g.vertices), max_size=4))
        cases = [
            ((g.root,), lambda e: e.label),
            ({e.dst for e in g.edges if e.label == 0}, lambda e: int(e.label == 0)),
            (starts, per_edge.__getitem__),
        ]
        for starts, weight in cases:
            assert list(walk_counts(g, starts, weight, steps)) == enumerated_walk_totals(g, starts, weight, steps)

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(), st.integers(1, 6))
    def test_weight_is_read_once_per_edge(self, g, steps):
        """No weight is read before the first step, and then each edge's
        weight once, however many steps the walk takes."""
        calls = []
        walk = walk_counts(g, (g.root,), lambda e: calls.append(e) or e.label, steps)
        next(walk)
        assert calls == []
        list(walk)
        assert calls == list(g.edges)
