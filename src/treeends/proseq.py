"""Inverse sequences of multiplication maps and their pro-classification.

A MultSequence is the eventually periodic tower Z <- Z <- Z <- ... where the
map from stage t to stage t-1 is multiplication by the t-th label (labels are
1-based).  Stage indices are 0-based; the bond from stage q back to stage
p < q multiplies by the labels at positions p+1..q.

Equivalence of two towers is witnessed by a finite commuting ladder: index
selections i_0 < ... < i_T on one side and j_0 < ... < j_{T-1} on the other,
up maps u_t: b[j_t] -> a[i_t] and down maps d_t: a[i_t] -> b[j_{t-1}], with
every triangle matching the tower bonds exactly.

``pro_isomorphic`` decides when such a ladder exists (Baer, Duke Math. J.
3, 1937, through duality; Mardesic and Segal, Shape Theory, 1982),
``ladder_search`` builds it and ``verify_ladder`` rechecks it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import lcm, prod

from .errors import DomainError, ParseError
from .germ import check_label, parse_label


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


def _pro_zero(s) -> bool:
    return isinstance(s, TrivialSequence) or 0 in s.cycle


def pro_isomorphic(a, b) -> bool:
    """Both towers pro-zero (trivial, or a 0 in the cycle), or neither, with
    cycle products P and Q of the same prime divisors.  Every prime of P
    divides Q exactly when P | Q**k for k = P.bit_length(), which is at
    least each exponent in P; the modular power never forms Q**k."""
    if _pro_zero(a) or _pro_zero(b):
        return _pro_zero(a) and _pro_zero(b)
    p, q = prod(a.cycle), prod(b.cycle)
    return pow(q, p.bit_length(), p) == 0 and pow(p, q.bit_length(), q) == 0


def _zero_stages(s, count: int) -> tuple:
    """Stage 0 and the next ``count - 1`` stages whose label is 0, so every
    bond between two of them is 0."""
    if isinstance(s, TrivialSequence):
        return tuple(range(count))
    zeros = (i for i in itertools.count(1) if s.term(i) == 0)
    return (0,) + tuple(itertools.islice(zeros, count - 1))


def _next_rung(base: int, divisor: int) -> tuple:
    """(k, base**k // divisor) for the least k >= 1 with ``divisor`` |
    base**k, refused before base**k passes the digit limit of labels.
    Every prime of ``divisor`` must divide ``base``."""
    k, power = 1, check_label(base, "ladder bond")
    while power % divisor:
        k += 1
        power = check_label(power * base, "ladder bond")
    return k, power // divisor


def ladder_search(a, b, depth: int = 4):
    """A commuting ladder with ``depth`` rungs, built exactly when ``a`` and
    ``b`` are pro-isomorphic, else None.

    Pro-zero towers get rungs at zero-label stages and all maps 0.  Others
    get rungs on cycle-block boundaries after each prefix, x_t blocks into
    ``a`` and y_t into ``b``, with cycle products P and Q: x_0 = y_0 = 0,
    and each later count is the least past its predecessor with
    Q^y_{t-1} | P^x_t | Q^y_t.  The maps are the quotients
    u_t = Q^y_t / P^x_t and d_t = P^x_t / Q^y_{t-1}.  Raises
    SizeCeilingError before a bond between rungs passes the digit limit.
    """
    if depth < 2:
        raise DomainError("ladder depth must be at least 2")
    if not pro_isomorphic(a, b):
        return None
    if _pro_zero(a):
        zeros = (0,) * depth
        return LadderCertificate(_zero_stages(a, depth + 1), _zero_stages(b, depth), zeros, zeros)
    p, q = prod(a.cycle), prod(b.cycle)
    tops, bots, ups, downs = [len(a.prefix)], [len(b.prefix)], [1], []
    for t in range(depth):
        k, d = _next_rung(p, ups[-1])
        tops.append(tops[-1] + k * len(a.cycle))
        downs.append(d)
        if t < depth - 1:
            k, u = _next_rung(q, d)
            bots.append(bots[-1] + k * len(b.cycle))
            ups.append(u)
    return LadderCertificate(tuple(tops), tuple(bots), tuple(ups), tuple(downs))


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
