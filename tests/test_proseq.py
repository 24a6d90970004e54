"""Tests for multiplication towers and ladders."""

import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeends.errors import DomainError, ParseError, SizeCeilingError
from treeends.proseq import (
    TRIVIAL,
    InverseLimitClass,
    LadderCertificate,
    MultSequence,
    SequenceClass,
    TrivialSequence,
    block_compress,
    bond_compose,
    classify_mult,
    epi_normal_form,
    format_sequence,
    inverse_limit_mult,
    ladder_search,
    parse_sequence,
    pro_isomorphic,
    stage_bond,
    verify_ladder,
)


def limit_by_thread_probe(s: MultSequence, window: int = 40) -> InverseLimitClass:
    """Oracle for the inverse limit that never looks at the cycle structure.

    A nonzero compatible thread exists exactly when, from some anchor stage
    onward, the cumulative bond products stay nonzero and eventually freeze
    (the stream has stopped multiplying).  The limit ignores any finite head
    of the tower, so every anchor in the first half of the window gets a try;
    products that hit zero or keep growing past every anchor leave only the
    zero thread.
    """
    for anchor in range(window // 2 + 1):
        products = [stage_bond(s, anchor, q) for q in range(anchor, window + 1)]
        if 0 in products:
            continue
        if products[-1] == products[-11]:
            return InverseLimitClass.Z
    return InverseLimitClass.ZERO


def per_position_product(s: MultSequence, i: int, j: int) -> int:
    """Reference for ``bond_compose``: one ``term`` per position."""
    value = 1
    for t in range(i, j + 1):
        value *= s.term(t)
    return value


sequences = st.builds(
    MultSequence,
    st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).map(tuple),
)


class TestMultSequence:
    def test_terms_follow_prefix_then_cycle(self):
        s = MultSequence((3, 0), (2, 1))
        assert [s.term(i) for i in range(1, 9)] == [3, 0, 2, 1, 2, 1, 2, 1]

    def test_positions_are_one_based(self):
        with pytest.raises(DomainError):
            MultSequence((), (2,)).term(0)

    def test_empty_cycle_rejected(self):
        with pytest.raises(DomainError):
            MultSequence((1,), ())

    def test_negative_label_rejected(self):
        with pytest.raises(DomainError):
            MultSequence((), (-2,))

    @pytest.mark.parametrize(
        "prefix, cycle, bad",
        [((False,), (True,), False), ((), (2, True), True), ((1.0,), (2,), 1.0)],
        ids=["bool-prefix", "bool-cycle", "float"],
    )
    def test_non_int_label_rejected(self, prefix, cycle, bad):
        # a bool would print as a word that parse_sequence refuses
        with pytest.raises(DomainError) as exc:
            MultSequence(prefix, cycle)
        assert str(exc.value) == f"labels must be nonnegative integers, got {bad!r}"

    def test_trivial_singleton(self):
        assert TrivialSequence() is TRIVIAL

    def test_bond_compose_powers_of_two(self):
        assert bond_compose(MultSequence((), (2,)), 1, 4) == 16

    def test_bond_compose_prefix_then_ones(self):
        assert bond_compose(MultSequence((3,), (1,)), 1, 10) == 3

    def test_bond_compose_rejects_reversed_range(self):
        with pytest.raises(DomainError, match="bond_compose needs i <= j, got 4 > 1"):
            bond_compose(MultSequence((), (2,)), 4, 1)

    def test_bond_compose_rejects_position_zero(self):
        with pytest.raises(DomainError, match="label positions are 1-based"):
            bond_compose(MultSequence((), (2,)), 0, 3)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.integers(0, 5), max_size=5),
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
        st.integers(1, 20),
        st.integers(0, 40),
    )
    def test_bond_compose_matches_the_per_position_product(self, prefix, cycle, i, span):
        s = MultSequence(tuple(prefix), tuple(cycle))
        assert bond_compose(s, i, i + span) == per_position_product(s, i, i + span)

    def test_stage_bond_identity_and_chaining(self):
        s = MultSequence((5,), (2, 3))
        assert stage_bond(s, 4, 4) == 1
        for p, q, r in [(0, 2, 5), (1, 3, 6), (0, 1, 7)]:
            assert stage_bond(s, p, q) * stage_bond(s, q, r) == stage_bond(s, p, r)


class TestClassifyMult:
    @pytest.mark.parametrize(
        "prefix,cycle,flags",
        [
            # zeros recur forever: everything collapses
            ((), (0,), (True, True, True, True)),
            ((), (2, 0), (True, True, True, True)),
            ((7,), (0, 1), (True, True, True, True)),
            # eventually all identity maps
            ((), (1,), (False, True, True, True)),
            ((3, 0), (1, 1), (False, True, True, True)),
            # genuine shrinking: semistability fails
            ((), (2,), (False, False, True, False)),
            ((0,), (3, 1), (False, False, True, False)),
            ((), (1, 2), (False, False, True, False)),
        ],
    )
    def test_flag_table(self, prefix, cycle, flags):
        got = classify_mult(MultSequence(prefix, cycle))
        assert (got.pro_trivial, got.semistable, got.pro_mono, got.stable) == flags

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(DomainError):
            SequenceClass(pro_trivial=False, semistable=True, pro_mono=True, stable=False)
        with pytest.raises(DomainError):
            SequenceClass(pro_trivial=True, semistable=True, pro_mono=False, stable=False)

    def test_as_dict_keys(self):
        d = classify_mult(MultSequence((), (2,))).as_dict()
        assert sorted(d) == ["pro_mono", "pro_trivial", "semistable", "stable"]

    @given(sequences)
    def test_multiplication_towers_are_always_pro_mono(self, s):
        # a zero label repeats forever or stops for good; either way the
        # tower is pro-injective (trivially so in the collapsing case)
        assert classify_mult(s).pro_mono

    @given(sequences)
    def test_limit_matches_thread_probe(self, s):
        assert inverse_limit_mult(s) == limit_by_thread_probe(s)

    def test_limit_of_trivial_tower(self):
        assert inverse_limit_mult(TRIVIAL) == InverseLimitClass.ZERO

    @pytest.mark.parametrize(
        "s,limit",
        [
            (MultSequence((), (1,)), InverseLimitClass.Z),
            (MultSequence((4, 0), (1, 1)), InverseLimitClass.Z),
            (MultSequence((), (2,)), InverseLimitClass.ZERO),
            (MultSequence((), (0,)), InverseLimitClass.ZERO),
        ],
    )
    def test_limit_pins(self, s, limit):
        assert inverse_limit_mult(s) == limit


def factor(n: int) -> dict:
    """Prime exponents of a positive ``n`` by trial division."""
    exponents, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def pro_isomorphic_by_factoring(a, b) -> bool:
    """The criterion with the prime divisors of each cycle product listed."""
    zero_a = a is TRIVIAL or 0 in a.cycle
    zero_b = b is TRIVIAL or 0 in b.cycle
    if zero_a or zero_b:
        return zero_a and zero_b
    return set(factor(prod(a.cycle))) == set(factor(prod(b.cycle)))


def exponents_in_proportion(a, b) -> bool:
    """Whether one ratio takes each prime's exponent in a's cycle product to
    its exponent in b's.  Otherwise the block counts of every ladder grow
    geometrically with its rungs: for each prime, a block count on one
    side times that prime's exponent there bounds the next block count on
    the other side times its exponent there."""
    p, q = factor(prod(a.cycle)), factor(prod(b.cycle))
    return len({Fraction(p[prime], q[prime]) for prime in p}) <= 1


towers = st.one_of(
    st.just(TRIVIAL),
    st.builds(
        MultSequence,
        st.lists(st.integers(0, 12), max_size=3).map(tuple),
        st.lists(st.integers(0, 12), min_size=1, max_size=3).map(tuple),
    ),
)


class TestLadders:
    def test_collapsing_tower_matches_trivial(self):
        cert = ladder_search(MultSequence((), (0,)), TRIVIAL, depth=3)
        assert cert == LadderCertificate(
            top_indices=(0, 1, 2, 3),
            bottom_indices=(0, 1, 2),
            up_maps=(0, 0, 0),
            down_maps=(0, 0, 0),
        )
        assert verify_ladder(MultSequence((), (0,)), TRIVIAL, cert)

    def test_zero_every_other_stage_matches_trivial(self):
        a = MultSequence((), (2, 0))
        cert = ladder_search(a, TRIVIAL, depth=3)
        # top stages step by two so each top bond passes through a zero
        assert cert == LadderCertificate(
            top_indices=(0, 2, 4, 6),
            bottom_indices=(0, 1, 2),
            up_maps=(0, 0, 0),
            down_maps=(0, 0, 0),
        )
        assert verify_ladder(a, TRIVIAL, cert)

    def test_identity_tower_absorbs_a_prefix(self):
        a = MultSequence((), (1,))
        b = MultSequence((3,), (1,))
        cert = ladder_search(a, b, depth=3)
        # the bottom rungs start after b's prefix
        assert cert == LadderCertificate(
            top_indices=(0, 1, 2, 3),
            bottom_indices=(1, 2, 3),
            up_maps=(1, 1, 1),
            down_maps=(1, 1, 1),
        )
        assert verify_ladder(a, b, cert)

    def test_prefix_of_twos_before_identity_tail(self):
        a = MultSequence((2, 2), (1,))
        b = MultSequence((), (1,))
        cert = ladder_search(a, b, depth=4)
        assert cert == LadderCertificate(
            top_indices=(2, 3, 4, 5, 6),
            bottom_indices=(0, 1, 2, 3),
            up_maps=(1, 1, 1, 1),
            down_maps=(1, 1, 1, 1),
        )
        assert verify_ladder(a, b, cert)

    def test_doubling_tower_is_not_the_identity_tower(self):
        assert ladder_search(MultSequence((), (2,)), MultSequence((), (1,)), 4) is None

    def test_doubling_tower_is_not_trivial(self):
        assert ladder_search(MultSequence((), (2,)), TRIVIAL, 3) is None

    def test_identity_tower_is_not_trivial(self):
        assert ladder_search(MultSequence((), (1,)), TRIVIAL, 3) is None

    def test_search_rejects_shallow_depth(self):
        with pytest.raises(DomainError):
            ladder_search(MultSequence((), (1,)), TRIVIAL, depth=1)

    @pytest.mark.parametrize(
        "prefix,cycle",
        [((), (0,)), ((), (2, 0)), ((5,), (0,)), ((), (1,)), ((), (2,)), ((2,), (3,))],
    )
    def test_trivial_certificate_iff_pro_trivial(self, prefix, cycle):
        s = MultSequence(prefix, cycle)
        cert = ladder_search(s, TRIVIAL, depth=3)
        assert (cert is not None) == classify_mult(s).pro_trivial

    def test_a_shared_prime_is_not_enough(self):
        # 2 divides the first cycle product, 10, and not the second, 45
        a = parse_sequence("prefix:0;cycle:10,1")
        b = parse_sequence("prefix:2,5;cycle:5,9")
        assert not pro_isomorphic(a, b)
        assert ladder_search(a, b, 4) is None
        assert ladder_search(a, b, 6) is None

    def test_a_shifted_cycle_is_pro_isomorphic(self):
        # one cycle product, 60, read from two starting points
        a, b = parse_sequence("cycle:12,5"), parse_sequence("cycle:5,12")
        for depth in (4, 6):
            cert = ladder_search(a, b, depth)
            assert cert is not None and cert.rungs == depth
            assert verify_ladder(a, b, cert)

    def test_long_exponent_chains_are_refused_in_time(self):
        # the rung exponents grow 1, 1, 99, 99, 9900, ...: the fourth rung's
        # bond 6**9900 passes the digit limit, so the ladder is refused
        a, b = MultSequence((), (6,)), MultSequence((), (2**100 * 3,))
        assert pro_isomorphic(a, b)
        started = time.perf_counter()
        with pytest.raises(SizeCeilingError, match="ladder bond digits"):
            ladder_search(a, b, 4)
        assert time.perf_counter() - started < 1.0

    def test_ladder_on_a_long_identity_cycle(self):
        a = MultSequence((4, 0), (1,) * 1600)
        started = time.perf_counter()
        cert = ladder_search(a, MultSequence((), (1,)), 4)
        assert verify_ladder(a, MultSequence((), (1,)), cert)
        assert time.perf_counter() - started < 0.1
        assert cert.top_indices == (2, 1602, 3202, 4802, 6402)

    @settings(max_examples=400, deadline=None)
    @given(towers, towers, st.integers(2, 5))
    @example(MultSequence((), (2, 9)), MultSequence((), (4, 12)), 5)
    def test_certificate_iff_pro_isomorphic(self, a, b, depth):
        assert pro_isomorphic(a, b) == pro_isomorphic_by_factoring(a, b)
        try:
            cert = ladder_search(a, b, depth)
        except SizeCeilingError:
            # cycle products 18 and 48 need blocks 18**1, 48**2, 18**8, 48**16,
            # ..., so their fifth rung's bond 18**4096 passes the digit limit
            assert pro_isomorphic(a, b)
            assert not exponents_in_proportion(a, b)
            assert depth > 2
            return
        assert (cert is not None) == pro_isomorphic(a, b)
        if cert is not None:
            assert cert.rungs == depth
            assert verify_ladder(a, b, cert)

    @given(towers, st.integers(1, 4))
    def test_criterion_survives_block_compression(self, s, m):
        if s is not TRIVIAL:
            assert pro_isomorphic(s, block_compress(s, m))

    @given(towers, st.lists(st.integers(0, 12), max_size=3).map(tuple))
    def test_criterion_ignores_a_finite_prefix(self, s, prefix):
        if s is not TRIVIAL:
            assert pro_isomorphic(s, MultSequence(prefix, s.cycle))
            assert pro_isomorphic(s, MultSequence(prefix + s.prefix, s.cycle))


class TestVerifyLadder:
    def good(self):
        a = MultSequence((), (1,))
        b = MultSequence((3,), (1,))
        cert = ladder_search(a, b, depth=3)
        return a, b, cert

    def test_too_few_rungs(self):
        a, b, _ = self.good()
        cert = LadderCertificate((0, 1), (0,), (1,), (1,))
        with pytest.raises(DomainError):
            verify_ladder(a, b, cert)

    def test_bottom_count_mismatch(self):
        a, b, good = self.good()
        bad = LadderCertificate(good.top_indices, good.bottom_indices[:-1], good.up_maps, good.down_maps)
        with pytest.raises(DomainError):
            verify_ladder(a, b, bad)

    def test_map_count_mismatch(self):
        a, b, good = self.good()
        bad = LadderCertificate(good.top_indices, good.bottom_indices, good.up_maps[:-1], good.down_maps)
        with pytest.raises(DomainError):
            verify_ladder(a, b, bad)

    def test_indices_must_increase(self):
        a, b, good = self.good()
        bad = LadderCertificate((0, 2, 2, 3), good.bottom_indices, good.up_maps, good.down_maps)
        with pytest.raises(DomainError):
            verify_ladder(a, b, bad)

    def test_broken_triangle_is_false_not_an_error(self):
        a, b, good = self.good()
        bad = LadderCertificate(good.top_indices, good.bottom_indices, (-2,) + good.up_maps[1:], good.down_maps)
        assert verify_ladder(a, b, bad) is False

    def test_nonzero_map_against_trivial_side_is_false(self):
        s = MultSequence((), (0,))
        cert = LadderCertificate((0, 1, 2, 3), (0, 1, 2), (1, 0, 0), (0, 0, 0))
        assert verify_ladder(s, TRIVIAL, cert) is False


class TestEpiNormalForm:
    @pytest.mark.parametrize(
        "prefix,cycle,expected",
        [
            ((), (2, 0), TRIVIAL),
            ((9,), (0,), TRIVIAL),
            ((), (1,), MultSequence((), (1,))),
            ((4, 6), (1, 1), MultSequence((), (1,))),
            ((), (2,), None),
            ((0,), (3,), None),
        ],
    )
    def test_pins(self, prefix, cycle, expected):
        assert epi_normal_form(MultSequence(prefix, cycle)) == expected

    @pytest.mark.parametrize(
        "prefix,cycle",
        [((), (0,)), ((), (2, 0)), ((), (1,)), ((3,), (1,)), ((2, 2), (1,))],
    )
    def test_normal_form_is_pro_isomorphic(self, prefix, cycle):
        s = MultSequence(prefix, cycle)
        nf = epi_normal_form(s)
        assert nf is not None
        cert = ladder_search(s, nf, depth=4)
        assert cert is not None
        assert verify_ladder(s, nf, cert)
        nf_limit = (
            InverseLimitClass.ZERO if nf is TRIVIAL else inverse_limit_mult(nf)
        )
        assert inverse_limit_mult(s) == nf_limit


class TestBlockCompress:
    def test_pinned_example(self):
        got = block_compress(MultSequence((3,), (2, 1)), 2)
        assert got == MultSequence((6,), (2,))

    def test_block_size_one_is_identity(self):
        s = MultSequence((3,), (2, 1))
        assert block_compress(s, 1) is s

    def test_invalid_block_size(self):
        with pytest.raises(DomainError):
            block_compress(MultSequence((), (2,)), 0)

    @given(sequences, st.integers(min_value=1, max_value=3))
    def test_stage_products_survive_compression(self, s, m):
        c = block_compress(s, m)
        for q in range(9):
            assert stage_bond(c, 0, q) == stage_bond(s, 0, q * m)

    @given(sequences, st.integers(min_value=1, max_value=3))
    def test_classification_survives_compression(self, s, m):
        c = block_compress(s, m)
        assert classify_mult(c) == classify_mult(s)
        assert inverse_limit_mult(c) == inverse_limit_mult(s)


class TestSequenceText:
    @pytest.mark.parametrize(
        "text",
        ["cycle:2", "prefix:3,0;cycle:2,1", "prefix:5;cycle:1", "cycle:0,1,2"],
    )
    def test_round_trip(self, text):
        assert format_sequence(parse_sequence(text)) == text

    @given(sequences)
    def test_round_trip_generated(self, s):
        assert parse_sequence(format_sequence(s)) == s

    def test_whitespace_and_empty_parts_tolerated(self):
        assert parse_sequence(" prefix:3 ; cycle:2 ; ") == MultSequence((3,), (2,))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("cycle:", "nonempty cycle"),
            ("prefix:3", "nonempty cycle"),
            ("bogus:1;cycle:2", "unknown section"),
            ("cycle", "expected"),
            ("cycle:1,a", "not a nonnegative integer"),
            ("prefix:1;prefix:2;cycle:3", "duplicate section 'prefix'"),
            ("cycle:2;cycle:3", "duplicate section 'cycle'"),
            ("cycle:" + "7" * 5000, "label of 5000 digits exceeds the 4300-digit limit"),
            ("prefix:-" + "7" * 5000 + ";cycle:1", "not a nonnegative integer"),
            # labels are ASCII digits, as in germ files
            ("cycle:1_0", "label '1_0' is not"),
            ("prefix:+2;cycle:3", r"label '\+2' is not"),
            ("cycle: \u0663", "label '\u0663' is not"),
            ("cycle:" + "x" * 200, "label 'xxxxxxxxxxxx...' is not"),
        ],
        ids=lambda v: v if len(v) < 40 else f"{v[:12]}...",
    )
    def test_parse_errors(self, text, fragment, int_digit_limit):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_sequence(text)
        assert len(str(exc.value)) < 80  # a long label is not echoed back
