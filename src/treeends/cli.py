"""Command-line interface.

Every subcommand reads a germ file (``-`` means stdin) except ``proseq``,
which takes a sequence literal like ``prefix:3,0;cycle:2,1``.  Results go
to stdout, diagnostics to stderr, and output for a fixed input is byte
identical from run to run.  Exit codes: 0 success, 1 domain failure
(parse error, invalid germ, failed oracle), 2 usage, 3 size ceiling.

DOT conventions: nodes are emitted in id order as ``n<id>``, labeled with
their germ vertex; positive nodes are colored black, everything else gray.
Edges run parent to child carrying the multiplication label as the edge
label, drawn solid into positive nodes and dashed into null ones.  In
clone trees the same rules apply, with clone copies gray and null copies
reached by dashed edges.

The tree writers read a truncation's or a clone tree's columns row by row
and build no per-node record.

The module imports only what every command needs: ``germ``, ``unfold``,
``coset`` and ``errors``, which the parser's ``--ceiling`` default and the
tree writers read, and which are all ``validate``, ``unfold`` and ``lambda``
use.  The other handlers import their layers when they run: ``proseq`` the
sequence layer, ``reduce`` the reductions, and ``classify`` and ``oracle``
the battery (``classify``, with ``cw``, ``intmat``, ``proseq`` and
``reduce`` behind it).  So a command that never runs the battery never
compiles it, which is most of its cold start when no bytecode cache is
written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coset import BLACK, DASHED, GRAY, ColoredTree, lambda_of_coset, lambda_plus
from .errors import ParseError, SizeCeilingError, TreeEndsError
from .germ import GermGraph, parse_germ, render_germ, require_valid, validate_germ
from .unfold import DEFAULT_CEILING, TruncatedTree, null_forest, positive_part, truncate


def _at_least(minimum: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return convert


def _load_germ(path: str, validate: bool = True) -> GermGraph:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except ValueError as exc:  # a NUL byte or lone surrogate in the path
            raise OSError(f"cannot open {path!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count lines as parse_germ does
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None
    g = parse_germ(text)
    if validate:
        require_valid(g)
    return g


def _reject_format(fmt: str, command: str) -> int:
    print(f"error: format {fmt} is not available for {command}", file=sys.stderr)
    return 2


def render_tree_text(t: TruncatedTree) -> str:
    lines = [f"depth {t.depth}"]
    for i, tier, parent, vertex, label, positive in t.rows():
        if parent is None:
            lines.append(f"node {i} tier 0 root {vertex}")
        else:
            kind = "positive" if positive else "null"
            lines.append(f"node {i} tier {tier} parent {parent} vertex {vertex} label {label} {kind}")
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


class _Quoted(dict):
    """``json.dumps`` of each value looked up, made once per value."""

    def __missing__(self, value) -> str:
        text = self[value] = json.dumps(value)
        return text


_QUOTE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_chunks(value, indent: str, out: list) -> None:
    """Append the pieces of ``json.dumps(value, indent=2)`` to ``out``, the
    value starting ``indent`` deep.  Only str-keyed dicts, lists, tuples,
    str, int, bool and None are written; any other type is a TypeError."""
    kind = type(value)
    if kind is str:
        out.append(_QUOTE(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, _QUOTE(key), ": ")
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)`` for the types the CLI writes, made
    without the pure-Python encoder that ``indent`` selects, and leaving no
    cyclic garbage."""
    out: list = []
    _json_chunks(value, "", out)
    return "".join(out)


def _json_nodes(head: dict, records: list) -> str:
    """``json.dumps({**head, "nodes": [...]}, indent=2)`` given each node's
    JSON object as ``records``: one f-string per node, with its ints as their
    digits and its strings (and None color) quoted by ``json.dumps``."""
    text = _json_text(head)[:-2]  # drop the closing "\n}"
    if not records:
        return text + ',\n  "nodes": []\n}'
    # the head and the tail ride on the first and last records, so the
    # output is made by one join and never copied whole
    records[0] = text + ',\n  "nodes": [\n' + records[0]
    records[-1] += "\n  ]\n}"
    return ",\n".join(records)


def tree_json_dict(t: TruncatedTree) -> str:
    """JSON text of a tree, the same as ``json.dumps(payload, indent=2)``.
    Named for the dict it once returned; the name stays until a benchmark
    change retargets the span that times it."""
    quoted = _Quoted()
    return _json_nodes(
        {"schema": 1, "depth": t.depth},
        [
            f'    {{\n      "id": {i},\n      "tier": {tier},\n'
            f'      "parent": {"null" if parent is None else parent},\n'
            f'      "vertex": {quoted[vertex]},\n'
            f'      "label": {"null" if label is None else label},\n'
            f'      "positive": {"true" if positive else "false"}\n    }}'
            for i, tier, parent, vertex, label, positive in t.rows()
        ],
    )


def _emit_dot(name: str, ids, parents, vertices, labels, looks) -> str:
    """DOT text of a tree given its node columns in id order, ``looks``
    holding each node's color and the style of the edge into it."""
    lines = [f"digraph {name} {{"]
    edges = []
    for i, parent, vertex, label, (color, style) in zip(ids, parents, vertices, labels, looks):
        lines.append(f'  n{i} [label="{vertex}", color={color}];')
        if parent is not None:
            edges.append(f'  n{parent} -> n{i} [label="{label}", style={style}];')
    lines += edges
    lines.append("}\n")
    return "\n".join(lines)


_SOLID = ("black", "solid")
_TREE_LOOKS = {True: _SOLID, False: ("gray", "dashed")}
_CLONE_LOOKS = {None: _SOLID, BLACK: _SOLID, GRAY: ("gray", "solid"), DASHED: ("gray", "dashed")}


def emit_dot(t: TruncatedTree, name: str = "unfold") -> str:
    return _emit_dot(name, t.ids, t.parent, t.vertex, t.label, map(_TREE_LOOKS.__getitem__, t.positive))


def emit_dot_colored(ct: ColoredTree) -> str:
    looks = map(_CLONE_LOOKS.__getitem__, ct.color)
    return _emit_dot("clone_tree", range(len(ct)), ct.parent, ct.vertex, ct.label, looks)


def colored_tree_text(ct: ColoredTree) -> str:
    lines = [f"nodes {len(ct)}"]
    for i, parent, color, original, vertex, label, residue in ct.rows():
        parent = "-" if parent is None else parent
        color = "root" if color is None else color
        residue = "-" if residue is None else residue
        kind = "original" if original else "clone"
        lines.append(
            f"node {i} parent {parent} color {color} vertex {vertex} "
            f"label {label} residue {residue} {kind}"
        )
    lines.append("")
    return "\n".join(lines)


def colored_tree_json_dict(ct: ColoredTree) -> str:
    """JSON text of a clone tree, the same as ``json.dumps(payload,
    indent=2)``.  Named for the dict it once returned; the name stays until a
    benchmark change retargets the span that times it."""
    quoted = _Quoted()
    return _json_nodes(
        {"schema": 1},
        [
            f'    {{\n      "id": {i},\n'
            f'      "parent": {"null" if parent is None else parent},\n'
            f'      "color": {quoted[color]},\n'
            f'      "original": {"true" if original else "false"},\n'
            f'      "vertex": {quoted[vertex]},\n      "label": {label},\n'
            f'      "residue": {"null" if residue is None else residue}\n    }}'
            for i, parent, color, original, vertex, label, residue in ct.rows()
        ],
    )


def germ_json_dict(g: GermGraph) -> dict:
    return {
        "schema": 1,
        "root": g.root,
        "vertices": list(g.vertices),
        "edges": [
            {"src": e.src, "dst": e.dst, "label": e.label} for e in g.edges
        ],
    }


def _print_json(payload: dict) -> None:
    print(_json_text(payload))


def _cmd_validate(args) -> int:
    g = _load_germ(args.germ, validate=False)
    report = validate_germ(g)
    if args.format == "dot":
        return _reject_format("dot", "validate")
    if args.format == "json":
        _print_json(
            {
                "schema": 1,
                "ok": report.ok,
                "violations": [
                    {"rule": v.rule, "subject": v.subject, "message": v.message}
                    for v in report.violations
                ],
            }
        )
    else:
        if report.ok:
            print("ok")
        for v in report.violations:
            print(f"violation {v.rule} {v.subject}: {v.message}")
    return 0 if report.ok else 1


def _cmd_classify(args) -> int:
    from .classify import full_report, render_text, to_json_dict

    g = _load_germ(args.germ)
    if args.format == "dot":
        return _reject_format("dot", "classify")
    report = full_report(g, depth=args.depth, height=args.height, ceiling=args.ceiling)
    if args.format == "json":
        _print_json(to_json_dict(report))
    else:
        sys.stdout.write(render_text(report))
    return 0


def _cmd_unfold(args) -> int:
    g = _load_germ(args.germ)
    t = truncate(g, args.depth, ceiling=args.ceiling)
    if args.format == "dot":
        sys.stdout.write(emit_dot(t))
    elif args.format == "json":
        print(tree_json_dict(t))
    else:
        sys.stdout.write(render_tree_text(t))
    return 0


def _cmd_lambda(args) -> int:
    g = _load_germ(args.germ)
    t = truncate(g, args.depth, ceiling=args.ceiling)
    coset = lambda_plus(positive_part(t), ceiling=args.ceiling)
    ct = lambda_of_coset(coset, null_forest(t))
    if args.format == "dot":
        sys.stdout.write(emit_dot_colored(ct))
    elif args.format == "json":
        print(colored_tree_json_dict(ct))
    else:
        sys.stdout.write(colored_tree_text(ct))
    return 0


def _cmd_reduce(args) -> int:
    from .reduce import elementary_reduction, germ_power

    g = _load_germ(args.germ)
    if args.power is not None:
        powered = germ_power(g, args.power, ceiling=args.ceiling)
        if args.format == "dot":
            sys.stdout.write(emit_dot(truncate(powered, args.depth, ceiling=args.ceiling)))
        elif args.format == "json":
            _print_json(germ_json_dict(powered))
        else:
            sys.stdout.write(render_germ(powered))
        return 0
    i, j = args.interval
    t = truncate(g, args.depth, ceiling=args.ceiling)
    reduced = elementary_reduction(t, i, j)
    if args.format == "dot":
        sys.stdout.write(emit_dot(reduced, name="reduced"))
    elif args.format == "json":
        print(tree_json_dict(reduced))
    else:
        sys.stdout.write(render_tree_text(reduced))
    return 0


def _cmd_proseq(args) -> int:
    from .proseq import classify_mult, format_sequence, inverse_limit_mult, parse_sequence

    if args.format == "dot":
        return _reject_format("dot", "proseq")
    seq = parse_sequence(args.sequence)
    flags = classify_mult(seq)
    limit = inverse_limit_mult(seq)
    if args.format == "json":
        payload = {"schema": 1, "sequence": format_sequence(seq)}
        payload.update(flags.as_dict())
        payload["inverse_limit"] = limit.value
        _print_json(payload)
    else:
        print(f"sequence: {format_sequence(seq)}")
        for key, value in flags.as_dict().items():
            print(f"{key}: {str(value).lower()}")
        print(f"inverse_limit: {limit.value}")
    return 0


def _cmd_oracle(args) -> int:
    from .classify import classify_ends, cross_checks, default_ray

    g = _load_germ(args.germ)
    if args.format == "dot":
        return _reject_format("dot", "oracle")
    checks = cross_checks(
        g, classify_ends(g), default_ray(g), depth=args.depth, height=args.height, ceiling=args.ceiling
    )
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for c in checks:
        counts[c.status] += 1
    if args.format == "json":
        _print_json(
            {
                "schema": 1,
                "checks": [c.as_dict() for c in checks],
                "summary": counts,
            }
        )
    else:
        for c in checks:
            print(c)
        print(
            f"oracle: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['skip']} skip"
        )
    return 0 if counts["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeends",
        description="Classify end structure of edge-labeled germ graphs.",
    )
    options = {
        "depth": dict(type=_at_least(1), default=4, help="truncation depth (default 4)"),
        "height": dict(type=_at_least(1), default=4, help="cover height bound (default 4)"),
        "ceiling": dict(
            type=_at_least(1000),
            default=DEFAULT_CEILING,
            help="hard cap on constructed cells or vertices",
        ),
        "format": dict(choices=("text", "json", "dot"), default="text"),
    }
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, *reads, target=("germ", "germ file path, or - for stdin")):
        """A subcommand with ``--format`` and the options its handler reads."""
        p = sub.add_parser(name, help=help_text)
        for option in (*reads, "format"):
            p.add_argument(f"--{option}", **options[option])
        p.add_argument(target[0], help=target[1])
        p.set_defaults(func=func)
        return p

    command("validate", "check a germ file", _cmd_validate)
    command("classify", "full end-structure report", _cmd_classify, "depth", "height", "ceiling")
    command("unfold", "truncated unfolding tree", _cmd_unfold, "depth", "ceiling")
    command("lambda", "truncated clone tree", _cmd_lambda, "depth", "ceiling")
    p = command("reduce", "power or interval reduction", _cmd_reduce, "depth", "ceiling")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--power", type=_at_least(1), metavar="M")
    group.add_argument("--interval", nargs=2, type=int, metavar=("I", "J"))
    command(
        "proseq",
        "classify a sequence literal",
        _cmd_proseq,
        target=("sequence", 'for example "prefix:3,0;cycle:2,1"'),
    )
    command("oracle", "run the cross-check battery", _cmd_oracle, "depth", "height", "ceiling")
    return parser


# Built once per process; parse_args keeps no state between calls.
PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SizeCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TreeEndsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
