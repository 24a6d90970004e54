"""Op lists of the three workloads, with the correctness check of every op.

An op is one timed call into treeends: either ``treeends.cli.run(argv)``
in-process with stdout captured, or one public library call.  The program
sees only the germ files written here and the arguments.  Library calls go
through module attributes (``cw.h1``, not a name imported once) so that the
tracer's wrappers are the ones called.

Outcome of an op:
- ``ok``: the expected exit code and every output check passed;
- ``failed``: the program reported a failure where success was expected
  (exit code 1 or 3 instead of 0, or an exception from a library call);
- ``wrong``: the program answered, but the answer contradicts a closed form,
  a frozen digest, or another route (counted as failed, and the run's
  ``correct`` flag turns false).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

from treeends import cli, coset, cw, unfold

NAMES = ("A", "B", "C")
# The random germs are chosen by their depth-4 clone-tree size, which
# predicts the cost of classify/oracle (log-correlation 0.92).  A plain draw
# of 100 germs moves a pass by ~30% from seed to seed, because the few
# largest germs dominate.  Instead the seed draws a pool of POOL germs, sorts
# it by size and keeps the largest of every slice of POOL // RANDOM_GERMS:
# the sizes follow the same quantiles on every seed, and the seed picks only
# which germs have them.  Cost still varies among germs of one size; with
# 100 germs op_p90_ms moved ~10% from seed to seed, with 200 about 2%.  The
# largest germ sets the run's peak memory.  It is nearly always one of the
# largest possible (1555 clone-tree vertices to depth 4: each reachable
# vertex has two 3-labeled out-edges), which 0.2% of germs are; the middle
# of the top slice was that on half the seeds, and peak_rss_mb moved 8%
# with it.
RANDOM_GERMS = 200
POOL = 2000
CHECK_LINE = re.compile(r"^check (\S+): (pass|fail|skip) \((.*)\)$")
DOT_NODE = re.compile(r"^  n\d+ \[label=")


@dataclass
class Problem:
    check: str
    detail: str
    wrong: bool  # True: contradicting output; False: a reported failure


@dataclass
class Op:
    key: str  # stable id; also the key of the frozen table
    kind: str  # group of the per-kind pass walls
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], list] = field(default=lambda result: [])
    frozen: bool = True  # compare the digest with the table frozen at the seed
    # the part of the answer that is frozen
    answer: Callable[[Any], Any] = field(default=lambda result: result)


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def digest(op: Op, result: Any) -> str:
    """Digest of an op's answer.  Stderr is diagnostics and is not frozen."""
    value = result[:2] if isinstance(result, CliResult) else op.answer(result)
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def germ_text(root: str, edges) -> str:
    names = [root]
    for s, d, _ in edges:
        for v in (s, d):
            if v not in names:
                names.append(v)
    lines = [f"root {root}"] + [f"vertex {v}" for v in names[1:]]
    lines += [f"edge {s} {d} {k}" for s, d, k in edges]
    return "\n".join(lines) + "\n"


def random_germ_edges(rng: random.Random) -> list:
    """A random valid 3-vertex germ, built like the ``valid_germs`` strategy
    of the unfold tests: every vertex gets 1-2 out-edges with labels 0-3,
    0-labels are pushed forward until null-closure holds, and only the part
    reachable from A is kept."""
    edges = []
    for v in NAMES:
        for _ in range(rng.randint(1, 2)):
            edges.append((v, rng.choice(NAMES), rng.randint(0, 3)))
    for _ in NAMES:
        null_targets = {d for _, d, k in edges if k == 0}
        edges = [(s, d, 0 if s in null_targets else k) for s, d, k in edges]
    reach = {"A"}
    for _ in NAMES:
        reach |= {d for s, d, _ in edges if s in reach}
    return [e for e in edges if e[0] in reach]


def quantile_germs(rng: random.Random) -> list:
    pool = [random_germ_edges(rng) for _ in range(POOL)]
    pool.sort(key=lambda edges: clone_count("A", edges, 4))  # stable: ties keep draw order
    step = POOL // RANDOM_GERMS
    return pool[step - 1::step]


def germ_edges(g) -> list:
    return [(e.src, e.dst, e.label) for e in g.edges]


def root_paths(root: str, edges, depth: int) -> list:
    """Tiers of root paths as label tuples, breadth first in declaration
    order: the definition of the unfolding, without any tree code."""
    tiers = [[((), root)]]
    for _ in range(depth):
        tiers.append(
            [
                (labels + (k,), d)
                for labels, at in tiers[-1]
                for s, d, k in edges
                if s == at
            ]
        )
    return [[labels for labels, _ in tier] for tier in tiers]


def positive_products(root: str, edges, tier: int) -> list:
    return [math.prod(p) for p in root_paths(root, edges, tier)[tier] if all(p)]


def clone_count(root: str, edges, depth: int) -> int:
    """Clone-tree size: every positive path contributes its label product,
    every null path one dashed vertex."""
    total = 0
    for tier in root_paths(root, edges, depth):
        for p in tier:
            total += math.prod(p) if all(p) else 1
    return total


# ---------------------------------------------------------------- checks


def cli_check(want_rc: int, then: Callable[[str], list] | None = None):
    def check(result) -> list:
        rc, out, err = result
        if rc != want_rc:
            detail = f"exit {rc}, expected {want_rc}: {err.strip()[:160]}"
            return [Problem("exit-code", detail, wrong=want_rc != 0)]
        if rc == 3 and "size ceiling" not in err:
            return [Problem("refusal-message", f"stderr {err[:80]!r}", wrong=True)]
        return then(out) if then else []

    return check


def oracle_failures(out: str) -> list:
    try:
        return [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    except (ValueError, KeyError, TypeError):
        return []


def germ_group(key: str, path: str, want_rc: int) -> list:
    """validate, classify (text) and oracle --format json on one germ file.
    The classify report's battery must match the oracle's JSON line by line."""
    seen: dict = {}

    def keep_checks(out: str) -> list:
        seen["classify"] = [m.groups() for m in map(CHECK_LINE.match, out.splitlines()) if m]
        return []

    def oracle_check(result) -> list:
        rc, out, err = result
        if want_rc == 0 and rc == 1:
            names = ", ".join(oracle_failures(out)) or f"none listed; {err.strip()[:160]}"
            detail = f"exit 1 on a valid germ; failing oracle checks: {names}"
            return [Problem("oracle-exit", detail, wrong=False)]
        problems = cli_check(want_rc)(result)
        if problems or want_rc != 0:
            return problems
        got = [(c["name"], c["status"], c["detail"]) for c in json.loads(out)["checks"]]
        if "classify" in seen and seen["classify"] != got:
            detail = "classify text battery differs from oracle json"
            return [Problem("classify-oracle-agree", detail, wrong=True)]
        return []

    def validate_then(out: str) -> list:
        return [] if out == "ok\n" else [Problem("validate-ok", f"stdout {out[:80]!r}", wrong=True)]

    return [
        Op(
            f"validate {key}",
            "validate",
            partial(run_cli, ["validate", path]),
            cli_check(want_rc, validate_then if want_rc == 0 else None),
        ),
        Op(f"classify {key}", "classify", partial(run_cli, ["classify", path]), cli_check(want_rc, keep_checks)),
        Op(f"oracle {key}", "oracle", partial(run_cli, ["oracle", "--format", "json", path]), oracle_check),
    ]


# ------------------------------------------------------------- workloads


def cli_corpus(root: Path, work: Path, corpus, seed: int) -> list:
    """Every germ of germs/ and of tests/corpus.py, RANDOM_GERMS seeded
    random germs, and the 156 proseq literals of acceptance criterion 8, all
    through the CLI at its default flags."""
    rng = random.Random(seed)
    groups = []
    for path in sorted((root / "germs").glob("*.germ")):
        want = 1 if path.name.startswith("bad_") else 0
        groups.append(germ_group(f"germs/{path.name}", str(path), want))
    for name, g in sorted(corpus.CORPUS.items()):
        path = work / f"corpus_{name}.germ"
        path.write_text(germ_text(g.root, germ_edges(g)))
        groups.append(germ_group(f"corpus/{name}", str(path), 0))
    for n, edges in enumerate(quantile_germs(rng)):
        path = work / f"random_{n:03d}.germ"
        path.write_text(germ_text("A", edges))
        label = ",".join(f"{s}{d}{k}" for s, d, k in edges)
        ops = germ_group(f"random/{n:03d} {label}", str(path), 0)
        for op in ops:
            op.frozen = False
        groups.append(ops)
    for plen in range(3):
        for prefix in itertools.product((0, 1, 2), repeat=plen):
            for clen in (1, 2):
                for cycle in itertools.product((0, 1, 2), repeat=clen):
                    lit = "cycle:" + ",".join(map(str, cycle))
                    if prefix:
                        lit = "prefix:" + ",".join(map(str, prefix)) + ";" + lit
                    run = partial(run_cli, ["proseq", lit])
                    groups.append([Op(f"proseq {lit}", "proseq", run, cli_check(0))])
    rng.shuffle(groups)
    return [op for ops in groups for op in ops]


def homology(root: Path, work: Path, corpus, seed: int) -> list:
    """Library calls on the H1 engine, sized by cell count: summaries of
    telescope and cover complexes, induced maps (coordinates), and collapse
    bonds."""
    G = corpus.CORPUS
    ops = []

    def summary_check(want):
        def check(s) -> list:
            got = (s.betti, s.torsion)
            if got == want:
                return []
            return [Problem("closed-form", f"H1 {got}, expected {want}", wrong=True)]
        return check

    def h1_base(g, d):
        return cw.h1(cw.build_base(unfold.truncate(g, d)).complex)

    def h1_cover(g, d, h):
        t = unfold.truncate(g, d)
        cover = cw.build_cover(coset.lambda_plus(unfold.positive_part(t)), unfold.null_forest(t), h)
        return cw.h1(cover.complex), len(cover.complex.components())

    def nbhd(base, i):
        return cw.induced_h1(base.complex, cw.infinity_neighborhood_base(base, i))

    def branch(base, node):
        return cw.induced_h1(base.complex, cw.branch_selection(base, node))

    def cover_check(result) -> list:
        s, comps = result
        problems = summary_check((0, ()))(s)
        if comps != 1:
            problems.append(Problem("cover-connected", f"{comps} components", wrong=True))
        return problems

    base_ladder = (
        ("two_loops", (3, 4, 5)),
        ("spin", (4, 5, 6)),
        ("deep_null_entry", (4, 5)),
        ("mixed2", (5, 6)),
        ("bs2", (7,)),
        ("bs3", (7,)),
        ("uncountable_cycles", (5, 6)),
    )
    for name, depths in base_ladder:
        for d in depths:
            run = partial(h1_base, G[name], d)
            ops.append(Op(f"h1 base {name} d={d}", "h1", run, summary_check((1, ()))))
    cover_ladder = (
        ("mixed2", ((2, 2), (2, 3), (3, 2), (3, 3))),
        ("deep_null_entry", ((2, 2), (2, 3), (3, 3))),
        ("bs2", ((2, 2), (2, 3), (3, 2))),
        ("mixed", ((3, 3),)),
        ("spin", ((2, 2),)),
    )
    for name, grid in cover_ladder:
        for d, h in grid:
            run = partial(h1_cover, G[name], d, h)
            ops.append(Op(f"h1 cover {name} d={d} h={h}", "h1", run, cover_check))

    def shape(mat) -> tuple:
        entries = [abs(x) for row in mat for x in row]
        return len(mat), len(mat[0]) if mat else 0, math.gcd(*entries)

    def nbhd_check(g, i, exact):
        products = positive_products(g.root, germ_edges(g), i)
        want = (1, len(products), math.gcd(*products))

        def check(mat) -> list:
            if exact and mat != [[2**i]]:
                return [Problem("closed-form", f"{mat} != [[{2**i}]]", wrong=True)]
            got = shape(mat)
            if got == want:
                return []
            return [Problem("closed-form", f"(rows, cols, gcd) {got}, expected {want}", wrong=True)]

        return check

    def branch_check(want):
        def check(mat) -> list:
            if [[abs(x) for x in row] for row in mat] == want:
                return []
            return [Problem("closed-form", f"{mat}, expected +-{want}", wrong=True)]

        return check

    coords_bases = (("bs2", 6), ("bs3", 5), ("mixed2", 5), ("two_loops", 4), ("spin", 5), ("deep_null_entry", 4))
    for name, d in coords_bases:
        base = cw.build_base(unfold.truncate(G[name], d))
        for i in range(d + 1):
            run = partial(nbhd, base, i)
            check = nbhd_check(G[name], i, exact=name == "bs2")
            ops.append(Op(f"coords nbhd {name} d={d} i={i}", "coords", run, check, answer=shape))
        # Node ids are breadth first in declaration order, like root_paths.
        paths = [p for tier in root_paths(G[name].root, germ_edges(G[name]), d) for p in tier]
        for node in (1, 2, 3):
            product = math.prod(paths[node])  # 0 for a null node: no loop, no generator
            want = [[product]] if product else [[]]
            run = partial(branch, base, node)
            key = f"coords branch {name} d={d} node={node}"
            ops.append(Op(key, "coords", run, branch_check(want), answer=shape))

    def bond(c, i):
        b = cw.collapse_h1_matrix(c, i)
        return b.rows, b.cols, b.surjective()

    def onto_check(result) -> list:
        return [] if result[2] else [Problem("collapse-onto", f"bond {result[:2]} not onto", wrong=True)]

    for name in corpus.ONE_FIXED_END:
        c = coset.lambda_plus(unfold.positive_part(unfold.truncate(G[name], 5)))
        # two_loops i=4 alone takes ~50 s on dense Smith; i<=3 keeps it in the ladder.
        for i in range(4 if name == "two_loops" else 5):
            ops.append(Op(f"bond {name} d=5 i={i}", "bond", partial(bond, c, i), onto_check))
    random.Random(seed).shuffle(ops)
    return ops


def unfold_export(root: Path, work: Path, corpus, seed: int) -> list:
    """Large truncations and clone trees written as text, json and dot,
    reductions, the two clone-tree models compared, and ceiling refusals."""
    G = corpus.CORPUS
    files = {}
    for name, g in G.items():
        files[name] = work / f"{name}.germ"
        files[name].write_text(germ_text(g.root, germ_edges(g)))
    ops = []

    def count_check(want: int, fmt: str):
        def count(out: str) -> list:
            if fmt == "json":
                got = len(json.loads(out)["nodes"])
            elif fmt == "dot":
                got = sum(1 for line in out.splitlines() if DOT_NODE.match(line))
            else:
                got = sum(1 for line in out.splitlines() if line.startswith("node "))
            if got == want:
                return []
            return [Problem("node-count", f"{got} nodes, expected {want}", wrong=True)]
        return count

    unfold_ladder = (
        ("two_loops", range(8, 13)),
        ("null_binary", range(9, 13)),
        ("spin", range(11, 15)),
        ("mixed", (40, 60, 90, 130)),
        ("deep_null_entry", range(8, 12)),
        ("uncountable_cycles", range(10, 13)),
    )
    lambda_ladder = (
        ("bs2", range(9, 12)),
        ("two_loops", (4, 5)),
        ("mixed2", (8, 9)),
        ("bs3", (6, 7)),
        ("spin", (6, 7)),
        ("deep_null_entry", (5, 6)),
        ("uncountable_cycles", (8, 9)),
    )
    ladder = [("unfold", name, d) for name, depths in unfold_ladder for d in depths]
    ladder += [("lambda", name, d) for name, depths in lambda_ladder for d in depths]
    for cmd, name, d in ladder:
        g = G[name]
        if cmd == "unfold":
            want = sum(len(t) for t in root_paths(g.root, germ_edges(g), d))
        else:
            want = clone_count(g.root, germ_edges(g), d)
        for fmt in ("text", "json", "dot"):
            argv = [cmd, "--depth", str(d), "--format", fmt, str(files[name])]
            run = partial(run_cli, argv)
            ops.append(Op(f"{cmd} {name} d={d} {fmt}", cmd, run, cli_check(0, count_check(want, fmt))))
    for argv in (
        ["reduce", "--power", "2", "--depth", "5", "--format", "dot", "two_loops"],
        ["reduce", "--power", "3", "--format", "json", "spin"],
        ["reduce", "--power", "3", "--format", "text", "deep_null_entry"],
        ["reduce", "--power", "3", "--depth", "4", "--format", "dot", "spin"],
        ["reduce", "--interval", "2", "6", "--depth", "10", "--format", "dot", "two_loops"],
        ["reduce", "--interval", "1", "4", "--depth", "11", "--format", "json", "null_binary"],
        ["reduce", "--interval", "3", "7", "--depth", "60", "--format", "text", "mixed"],
        ["reduce", "--interval", "0", "5", "--depth", "7", "--format", "text", "bs3"],
    ):
        full = argv[:-1] + [str(files[argv[-1]])]
        ops.append(Op(" ".join(argv), "reduce", partial(run_cli, full), cli_check(0)))
    for argv in (
        ["unfold", "--depth", "12", "--ceiling", "1000", "two_loops"],
        ["lambda", "--depth", "12", "--ceiling", "1000", "bs2"],
        ["lambda", "--depth", "6", "--ceiling", "1000", "two_loops"],
        ["reduce", "--power", "12", "--ceiling", "1000", "two_loops"],
    ):
        full = argv[:-1] + [str(files[argv[-1]])]
        ops.append(Op(" ".join(argv), "refuse", partial(run_cli, full), cli_check(3)))

    def models(g, d):
        a, b = coset.clone_tree_models(g, d)
        return len(a), len(b), coset.colored_trees_isomorphic(a, b)

    def models_check(want: int):
        def check(result) -> list:
            if result == (want, want, True):
                return []
            detail = f"(coset, wedge, isomorphic) {result}, expected ({want}, {want}, True)"
            return [Problem("models-agree", detail, wrong=True)]

        return check

    for name, d in (("two_loops", 5), ("bs2", 11), ("mixed2", 9), ("spin", 7)):
        want = clone_count(G[name].root, germ_edges(G[name]), d)
        run = partial(models, G[name], d)
        ops.append(Op(f"clone models {name} d={d}", "models", run, models_check(want)))
    random.Random(seed).shuffle(ops)
    return ops


BUILDERS = {"cli_corpus": cli_corpus, "homology": homology, "unfold_export": unfold_export}
