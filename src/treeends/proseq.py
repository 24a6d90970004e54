"""Inverse sequences of multiplication maps and their pro-classification.

A MultSequence is the eventually periodic tower Z <- Z <- Z <- ... where the
map from stage t to stage t-1 is multiplication by the t-th label (labels are
1-based).  Stage indices are 0-based; the bond from stage q back to stage
p < q multiplies by the labels at positions p+1..q.

Equivalence of two towers is witnessed by a finite commuting ladder: index
selections i_0 < ... < i_T on one side and j_0 < ... < j_{T-1} on the other,
up maps u_t: b[j_t] -> a[i_t] and down maps d_t: a[i_t] -> b[j_{t-1}], with
every triangle matching the tower bonds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm, prod

from .errors import DomainError, ParseError
from .germ import parse_label


@dataclass(frozen=True)
class MultSequence:
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not isinstance(self.prefix, tuple):
            object.__setattr__(self, "prefix", tuple(self.prefix))
        if not isinstance(self.cycle, tuple):
            object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise DomainError("cycle part must be nonempty")
        for x in self.prefix + self.cycle:
            if type(x) is not int or x < 0:
                raise DomainError(f"labels must be nonnegative integers, got {x!r}")

    def term(self, i: int) -> int:
        """Label at 1-based position ``i`` of the infinite stream."""
        if i < 1:
            raise DomainError("label positions are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[(i - len(self.prefix) - 1) % len(self.cycle)]

    def __str__(self) -> str:
        return format_sequence(self)


class TrivialSequence:
    """The tower of zero groups.  Every map into or out of it is zero, and
    so is each of its bonds."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TRIVIAL"


TRIVIAL = TrivialSequence()


def bond_compose(s: MultSequence, i: int, j: int) -> int:
    """Product of the labels at positions i..j inclusive (1-based): the
    prefix labels in range, times the cycle product to the number of whole
    turns of the cycle in range, times the labels of the partial turn."""
    if i > j:
        raise DomainError(f"bond_compose needs i <= j, got {i} > {j}")
    if i < 1:
        raise DomainError("label positions are 1-based")
    n, period = len(s.prefix), len(s.cycle)
    value = prod(s.prefix[i - 1 : j])
    if j <= n or value == 0:
        return value
    start = max(i - n - 1, 0)  # offset of the first cycle label in range
    turns, rest = divmod(j - n - start, period)
    first = start % period
    value *= prod((s.cycle + s.cycle)[first : first + rest])
    if value == 0:
        return 0
    return value * prod(s.cycle) ** turns


def stage_bond(s: MultSequence, p: int, q: int) -> int:
    """Bond from stage q back to stage p (0-based stages, p <= q)."""
    if p > q:
        raise DomainError("stage bond needs p <= q")
    if isinstance(s, TrivialSequence):
        return 0
    if p == q:
        return 1
    return bond_compose(s, p + 1, q)


@dataclass(frozen=True)
class SequenceClass:
    pro_trivial: bool
    semistable: bool
    pro_mono: bool
    stable: bool

    def __post_init__(self):
        if self.stable != (self.semistable and self.pro_mono):
            raise DomainError("stable must equal semistable and pro_mono")
        if self.pro_trivial and not self.stable:
            raise DomainError("a pro-trivial sequence is stable")

    def as_dict(self) -> dict:
        return {
            "pro_trivial": self.pro_trivial,
            "semistable": self.semistable,
            "pro_mono": self.pro_mono,
            "stable": self.stable,
        }


def classify_mult(s: MultSequence) -> SequenceClass:
    """Closed-form flags for an eventually periodic multiplication tower.

    The stream has infinitely many zeros exactly when the cycle contains 0;
    images stabilize exactly when that holds or the stream is eventually all
    1s; bonds are eventually injective exactly when zeros stop occurring.
    """
    zeros_forever = 0 in s.cycle
    eventually_ones = all(k == 1 for k in s.cycle)
    pro_trivial = zeros_forever
    semistable = zeros_forever or eventually_ones
    pro_mono = pro_trivial or not zeros_forever
    return SequenceClass(
        pro_trivial=pro_trivial,
        semistable=semistable,
        pro_mono=pro_mono,
        stable=semistable and pro_mono,
    )


class InverseLimitClass(Enum):
    ZERO = "Zero"
    Z = "Z"


def inverse_limit_mult(s) -> InverseLimitClass:
    """Inverse limit of the tower: Z when the maps are eventually all
    identities, the zero group otherwise (a compatible thread through
    infinitely many multiplications by k >= 2 or by 0 must vanish)."""
    if isinstance(s, TrivialSequence):
        return InverseLimitClass.ZERO
    if all(k == 1 for k in s.cycle):
        return InverseLimitClass.Z
    return InverseLimitClass.ZERO


@dataclass(frozen=True)
class LadderCertificate:
    """Finite commuting ladder between towers ``a`` (top) and ``b`` (bottom).

    With T rungs: top_indices = (i_0..i_T), bottom_indices = (j_0..j_{T-1}),
    up_maps[t] = u_t: b[j_t] -> a[i_t] for t = 0..T-1, and down_maps[t-1] =
    d_t: a[i_t] -> b[j_{t-1}] for t = 1..T.  Upper triangles require
    u_t * d_{t+1} = bond of a over (i_t, i_{t+1}]; lower triangles require
    d_t * u_t = bond of b over (j_{t-1}, j_t].
    """

    top_indices: tuple
    bottom_indices: tuple
    up_maps: tuple
    down_maps: tuple

    @property
    def rungs(self) -> int:
        return len(self.top_indices) - 1


def verify_ladder(a, b, cert: LadderCertificate) -> bool:
    """Recheck every triangle of ``cert`` by direct integer arithmetic."""
    t_count = cert.rungs
    if t_count < 2:
        raise DomainError("a ladder needs at least two rungs")
    if len(cert.bottom_indices) != t_count:
        raise DomainError("bottom index count must be one less than top")
    if len(cert.up_maps) != t_count or len(cert.down_maps) != t_count:
        raise DomainError("map counts must match the rung count")
    if any(x >= y for x, y in zip(cert.top_indices, cert.top_indices[1:])):
        raise DomainError("top indices must increase strictly")
    if any(x >= y for x, y in zip(cert.bottom_indices, cert.bottom_indices[1:])):
        raise DomainError("bottom indices must increase strictly")
    trivial = isinstance(a, TrivialSequence) or isinstance(b, TrivialSequence)
    if trivial and any(m != 0 for m in cert.up_maps + cert.down_maps):
        return False
    tops, bots = cert.top_indices, cert.bottom_indices
    for t in range(t_count):
        # upper triangle at t: through b[j_t], compare with the a-bond
        lhs = cert.up_maps[t] * cert.down_maps[t]  # u_t * d_{t+1}
        if lhs != stage_bond(a, tops[t], tops[t + 1]):
            return False
    for t in range(1, t_count):
        # lower triangle at t: through a[i_t], compare with the b-bond
        lhs = cert.down_maps[t - 1] * cert.up_maps[t]  # d_t * u_t
        if lhs != stage_bond(b, bots[t - 1], bots[t]):
            return False
    return True


def _side_params(s, depth: int) -> tuple:
    """(start cap, gap cap, window) for one side of the ladder search."""
    if isinstance(s, TrivialSequence):
        # Stages of the trivial tower are interchangeable; pin them.
        return 0, 1, depth + 1
    period = max(1, len(s.cycle))
    reach = len(s.prefix) + 2 * period
    window = len(s.prefix) + (depth + 2) * period + depth
    return reach, max(1, reach), window


def ladder_search(a, b, depth: int = 4, bound: int = 8):
    """First commuting ladder with ``depth`` rungs, coefficients in
    [-bound, bound], or None.

    The search is a depth-first sweep in ascending lexicographic order over
    (i_0, j_0, u_0, i_1, d_1, j_1, u_1, ..., i_T, d_T); all but the first up
    map and the index choices are forced by divisibility, so pruning is
    immediate.  Gaps between chosen indices are capped at one prefix plus two
    cycle lengths; an eventually periodic tower that admits a ladder at all
    admits one within that reach.
    """
    if depth < 2:
        raise DomainError("ladder depth must be at least 2")
    t_count = depth
    start_a, gap_a, win_a = _side_params(a, depth)
    start_b, gap_b, win_b = _side_params(b, depth)
    if isinstance(a, TrivialSequence) or isinstance(b, TrivialSequence):
        coeffs = (0,)  # every map into or out of a zero group is zero
    else:
        coeffs = tuple(range(-bound, bound + 1))

    def down_candidates(u_prev: int, a_bond: int) -> tuple:
        # d_t as a map a[i_t] -> b[j_{t-1}], constrained by the upper triangle.
        if u_prev != 0:
            if a_bond % u_prev == 0 and abs(a_bond // u_prev) <= bound:
                return (a_bond // u_prev,)
            return ()
        return coeffs if a_bond == 0 else ()

    def up_candidates(d_cur: int, b_bond: int) -> tuple:
        # u_t as a map b[j_t] -> a[i_t], constrained by the lower triangle.
        if d_cur != 0:
            if b_bond % d_cur == 0 and abs(b_bond // d_cur) <= bound:
                return (b_bond // d_cur,)
            return ()
        return coeffs if b_bond == 0 else ()

    def search_top(t, tops, bots, ups, downs):
        # choose i_t, then d_t; t runs 1..t_count
        hi = min(tops[-1] + gap_a, win_a - (t_count - t))
        for i_t in range(tops[-1] + 1, hi + 1):
            for d in down_candidates(ups[-1], stage_bond(a, tops[-1], i_t)):
                if t == t_count:
                    return LadderCertificate(
                        tuple(tops) + (i_t,), tuple(bots), tuple(ups), tuple(downs) + (d,)
                    )
                found = search_bottom(t, tops + [i_t], bots, ups, downs + [d])
                if found is not None:
                    return found
        return None

    def search_bottom(t, tops, bots, ups, downs):
        # choose j_t, then u_t; t runs 1..t_count-1
        hi = min(bots[-1] + gap_b, win_b - (t_count - 1 - t))
        for j_t in range(bots[-1] + 1, hi + 1):
            for u in up_candidates(downs[-1], stage_bond(b, bots[-1], j_t)):
                found = search_top(t + 1, tops, bots + [j_t], ups + [u], downs)
                if found is not None:
                    return found
        return None

    try:
        for i_0 in range(0, min(start_a, win_a - t_count) + 1):
            for j_0 in range(0, min(start_b, win_b - (t_count - 1)) + 1):
                for u_0 in coeffs:
                    found = search_top(1, [i_0], [j_0], [u_0], [])
                    if found is not None:
                        return found
        return None
    finally:
        # the two searches close over each other; emptying their cells frees
        # them without the cyclic collector
        del search_top, search_bottom


def epi_normal_form(s: MultSequence):
    """Stabilized-image form of the tower: the trivial tower when images
    shrink to zero, the identity tower when they freeze at full rank, and
    None when they strictly shrink forever (no epimorphic representative)."""
    if 0 in s.cycle:
        return TRIVIAL
    if all(k == 1 for k in s.cycle):
        return MultSequence((), (1,))
    return None


def block_compress(s: MultSequence, m: int) -> MultSequence:
    """Compose the tower in blocks of ``m``: term t of the result is the
    product of terms (t-1)m+1 .. tm of ``s``."""
    if m < 1:
        raise DomainError("block size must be at least 1")
    if m == 1:
        return s
    prefix_blocks = -(-len(s.prefix) // m)
    cycle_blocks = lcm(m, len(s.cycle)) // m
    new_prefix = tuple(
        bond_compose(s, (t - 1) * m + 1, t * m) for t in range(1, prefix_blocks + 1)
    )
    new_cycle = tuple(
        bond_compose(s, (t - 1) * m + 1, t * m)
        for t in range(prefix_blocks + 1, prefix_blocks + cycle_blocks + 1)
    )
    return MultSequence(new_prefix, new_cycle)


def parse_sequence(text: str) -> MultSequence:
    """Parse a sequence literal like "prefix:3,0;cycle:2,1" (prefix optional,
    each section at most once)."""
    sections: dict = {}
    for part in text.strip().split(";"):
        part = part.strip()
        if not part:
            continue
        name, sep, rest = part.partition(":")
        name = name.strip()
        if not sep:
            raise ParseError(1, f"expected 'name:labels', got {part!r}")
        labels = tuple(parse_label(x.strip(), 1) for x in rest.split(",") if x.strip())
        if name not in ("prefix", "cycle"):
            raise ParseError(1, f"unknown section {name!r}")
        if name in sections:
            raise ParseError(1, f"duplicate section {name!r}")
        sections[name] = labels
    if not sections.get("cycle"):
        raise ParseError(1, "a nonempty cycle section is required")
    return MultSequence(sections.get("prefix", ()), sections["cycle"])


def format_sequence(s: MultSequence) -> str:
    cycle = "cycle:" + ",".join(str(x) for x in s.cycle)
    if not s.prefix:
        return cycle
    return "prefix:" + ",".join(str(x) for x in s.prefix) + ";" + cycle
