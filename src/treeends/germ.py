"""Finite germ descriptions of labeled rooted trees.

A germ is a rooted, edge-labeled directed multigraph.  Unfolding all paths
from the root yields a locally finite rooted tree whose edges inherit the
labels; every tree handled by this package arises this way.  Edge declaration
order is significant because it fixes child order in the unfolding.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ParseError, SizeCeilingError, ValidationFailed

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class GermEdge(NamedTuple):
    src: str
    dst: str
    label: int


@dataclass(frozen=True)
class GermGraph:
    """Immutable germ value.

    ``vertices`` preserves declaration order; ``edges`` preserves declaration
    order and carries nonnegative integer labels.  The validation report and
    the out-edge index are computed once per value, on first use; they are
    not fields, so equality and hashing see only the three fields.
    """

    vertices: tuple[str, ...]
    root: str
    edges: tuple[GermEdge, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    @cached_property
    def report(self) -> ValidationReport:
        return validate_germ(self)

    @cached_property
    def _out_index(self) -> dict[str, tuple[tuple[int, GermEdge], ...]]:
        index: dict[str, list[tuple[int, GermEdge]]] = {}
        for i, e in enumerate(self.edges):
            index.setdefault(e.src, []).append((i, e))
        return {v: tuple(pairs) for v, pairs in index.items()}

    def out_edges(self, v: str) -> tuple[tuple[int, GermEdge], ...]:
        """Outgoing edges of ``v`` with their declaration indices, in order."""
        return self._out_index.get(v, ())


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def parse_germ(text: str) -> GermGraph:
    """Parse germ file text.

    Grammar, one directive per line ('#' starts a comment):
      root <name>
      vertex <name>
      edge <src> <dst> <label>

    Exactly one root line (position free).  A name used in an edge line must
    be declared first, either by the root line (anywhere in the file) or by a
    vertex line textually before the edge.
    """
    root_name: str | None = None
    root_line = 0
    declared_at: dict[str, int] = {}
    order: list[tuple[int, str]] = []  # (line, name) in declaration order
    edge_rows: list[tuple[int, str, str, int]] = []

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "root":
            if len(tokens) != 2:
                raise ParseError(lineno, "root takes exactly one name")
            name = tokens[1]
            _check_name(lineno, name)
            if root_name is not None:
                raise ParseError(lineno, "duplicate root line")
            if name in declared_at:
                raise ParseError(lineno, f"name {name!r} already declared")
            root_name = name
            root_line = lineno
            declared_at[name] = lineno
            order.append((lineno, name))
        elif kind == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, "vertex takes exactly one name")
            name = tokens[1]
            _check_name(lineno, name)
            if name in declared_at:
                raise ParseError(lineno, f"name {name!r} already declared")
            declared_at[name] = lineno
            order.append((lineno, name))
        elif kind == "edge":
            if len(tokens) != 4:
                raise ParseError(lineno, "edge takes source, target and label")
            _check_name(lineno, tokens[1])
            _check_name(lineno, tokens[2])
            edge_rows.append((lineno, tokens[1], tokens[2], parse_label(tokens[3], lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    if root_name is None:
        raise ParseError(len(lines) + 1, "missing root line")

    edges = []
    for lineno, src, dst, label in edge_rows:
        for name in (src, dst):
            if name == root_name:
                continue  # the root line declares its name position-free
            at = declared_at.get(name)
            if at is None or at > lineno:
                raise ParseError(lineno, f"name {name!r} used before declaration")
        edges.append(GermEdge(src, dst, label))

    vertices = tuple(name for _, name in order)
    return GermGraph(vertices=vertices, root=root_name, edges=tuple(edges))


def _check_name(lineno: int, name: str) -> None:
    if not NAME_RE.fullmatch(name):
        raise ParseError(lineno, f"bad name {name!r}")


def parse_label(token: str, line: int) -> int:
    """Read a label written in ASCII digits, for germ files and sequence
    literals alike.  A label longer than Python converts is a ParseError
    naming the digit limit; a long bad token is not echoed in full."""
    if not (token.isascii() and token.isdigit()):
        shown = token if len(token) <= 20 else token[:12] + "..."
        raise ParseError(line, f"label {shown!r} is not a nonnegative integer")
    limit = _digit_limit()
    if limit and len(token) > limit:
        raise ParseError(line, f"label of {len(token)} digits exceeds the {limit}-digit limit")
    return int(token)


def render_germ(g: GermGraph) -> str:
    """Canonical text for ``g``; parse_germ(render_germ(g)) == g."""
    out = []
    for name in g.vertices:
        out.append(f"root {name}" if name == g.root else f"vertex {name}")
    for e in g.edges:
        out.append(f"edge {e.src} {e.dst} {e.label}")
    return "\n".join(out) + "\n"


def validate_germ(g: GermGraph) -> ValidationReport:
    """Check the structural rules a germ must satisfy.

    Rules: every referenced name declared and unique; every label an exact
    nonnegative int (not a bool, float or string); every vertex reachable
    from the root; every reachable vertex has an outgoing edge (leafless),
    except the single-vertex zero-edge germ; every vertex that is the target
    of a reachable 0-labeled edge has only 0-labeled outgoing edges.
    """
    violations: list[Violation] = []
    seen: set[str] = set()
    for name in g.vertices:
        if name in seen:
            violations.append(Violation("structure", name, f"vertex {name!r} declared twice"))
        seen.add(name)
    if g.root not in seen:
        violations.append(Violation("structure", g.root, f"root {g.root!r} is not declared"))
    for e in g.edges:
        for name in (e.src, e.dst):
            if name not in seen:
                violations.append(Violation("structure", name, f"edge endpoint {name!r} is not declared"))
        if type(e.label) is not int:
            violations.append(Violation("structure", f"{e.src}->{e.dst}", "label must be an integer"))
        elif e.label < 0:
            violations.append(Violation("structure", f"{e.src}->{e.dst}", "negative label"))
    if violations:
        return ValidationReport(ok=False, violations=tuple(violations))

    reached = reachable(g, (g.root,))

    trivial = g.is_trivial and len(g.vertices) == 1
    for v in g.vertices:
        if v in reached and not g.out_edges(v) and not trivial:
            violations.append(Violation("leafless", v, f"vertex {v!r} has no outgoing edge"))

    null_targets = {e.dst for e in g.edges if e.label == 0 and e.src in reached}
    for v in g.vertices:
        if v in null_targets:
            bad = [e for _, e in g.out_edges(v) if e.label > 0]
            if bad:
                e = bad[0]
                violations.append(
                    Violation(
                        "null-closure",
                        v,
                        f"vertex {v!r} follows a 0-labeled edge but has edge {e.src}->{e.dst} labeled {e.label}",
                    )
                )

    for v in g.vertices:
        if v not in reached:
            violations.append(Violation("unreachable", v, f"vertex {v!r} is not reachable from the root"))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(g: GermGraph) -> None:
    if not g.report.ok:
        raise ValidationFailed(g.report)


def reachable(
    g: GermGraph, starts: Iterable[str], keep: Callable[[GermEdge], bool] = lambda e: True
) -> set[str]:
    """Vertices reached from ``starts`` along the edges that ``keep`` accepts."""
    reached = set(starts)
    stack = list(reached)
    while stack:
        for _, e in g.out_edges(stack.pop()):
            if keep(e) and e.dst not in reached:
                reached.add(e.dst)
                stack.append(e.dst)
    return reached


def walk_counts(
    g: GermGraph, starts: Iterable[str], weight: Callable[[GermEdge], int], steps: int
) -> Iterator[int]:
    """Yield, for n = 0..steps, the total weight of the length-n walks from
    ``starts``; a walk weighs the product of ``weight`` over its edges, and
    edges of weight 0 are never taken.  ``weight`` is read once per edge,
    before the first step, so it must be a pure function of the edge.
    Lazily: one step's weights are held at a time, and a caller that stops
    early computes no further."""
    weights = dict.fromkeys(starts, 1)
    yield sum(weights.values())
    edge_weight = list(map(weight, g.edges))
    for _ in range(steps):
        nxt: dict[str, int] = {}
        for v, w in weights.items():
            for i, e in g.out_edges(v):
                k = edge_weight[i]
                if k:
                    nxt[e.dst] = nxt.get(e.dst, 0) + w * k
        weights = nxt
        yield sum(weights.values())


def _digit_limit() -> int:
    """Python's int/str conversion limit in digits, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent before 3.10.7


# Python refuses a digit limit below this threshold, and a label of at most
# 3 bits per digit of it is below 8**threshold < 10**threshold, so no limit
# can reach it.  0 before 3.10.7, which has no limit at all.
_ALWAYS_PRINTABLE_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 0)


@cache
def _limit_power(limit: int) -> int:
    """10**limit, the least integer of more than ``limit`` digits, built
    once per limit, since a caller may check a growing number step by step."""
    return 10**limit


def check_label(label: int, what: str = "label") -> int:
    """Return ``label``, or raise SizeCeilingError when it has more decimal
    digits than Python converts (``sys.get_int_max_str_digits()``, 0 for no
    limit).  ``parse_label`` reads labels under the same limit, so a label
    that passes can be written out and read back; ``what`` names other
    printed integers, such as ranks, in the error."""
    if label.bit_length() <= _ALWAYS_PRINTABLE_BITS:
        return label
    limit = _digit_limit()
    if limit and label.bit_length() > 3 * limit and label >= _limit_power(limit):
        digits = int(label.bit_length() * math.log10(2))  # the count, or one less
        raise SizeCeilingError(f"{what} digits", digits + (label >= 10**digits), limit)
    return label


def germ_from_edges(root: str, edges: Iterable[tuple[str, str, int]]) -> GermGraph:
    """Convenience constructor; vertex order = first appearance."""
    edge_tuple = tuple(GermEdge(s, d, k) for s, d, k in edges)
    names: list[str] = [root]
    for e in edge_tuple:
        for name in (e.src, e.dst):
            if name not in names:
                names.append(name)
    return GermGraph(vertices=tuple(names), root=root, edges=edge_tuple)
