"""Spans around the calls into each treeends layer, from outside the package.

``Tracer.install`` replaces each traced function in every ``treeends``
module namespace that binds it (``classify`` imports ``truncate`` by name,
for example), and traced methods on their classes; ``uninstall`` puts the
originals back, so untraced passes run the unmodified program.  Spans are
kept in memory as (name, start, end, parent) and written out at the end.
A span's self time is its duration minus the durations of the traced spans
directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from treeends import cli, classify, coset, cw, germ, intmat, proseq, reduce, unfold


def _dims(args, kwargs, result):
    a = args[0]
    m = len(a)
    return {"dims": (m, len(a[0]) if m else 0)}


def _cells(args, kwargs, result):
    k = result.complex
    return {"cells": k.num_vertices + len(k.edges) + len(k.faces)}


def _truncation(args, kwargs, result):
    g, depth = args[0], args[1] if len(args) > 1 else kwargs["depth"]
    return {"nodes": len(result.nodes), "key": (g.root, g.vertices, g.edges, depth)}


def _verts(args, kwargs, result):
    return {"verts": len(args[0].verts)}


def _wedge_nodes(args, kwargs, result):
    return {"nodes": len(result)}


# (span name, functions to wrap, size hook).  Functions are module-level
# names looked up in their defining module; methods are "Class.method".
TARGETS = (
    ("cli.run", [(cli, "run")], None),
    ("cli.parse", [(cli, "build_parser")], None),
    ("cli.render", [(cli, n) for n in ("render_tree_text", "tree_json_dict", "emit_dot", "emit_dot_colored",
                                       "colored_tree_text", "colored_tree_json_dict", "germ_json_dict",
                                       "_print_json")]
     + [(classify, "render_text"), (classify, "to_json_dict"), (germ, "render_germ")], None),
    ("germ.parse", [(germ, "parse_germ")], None),
    ("germ.validate", [(germ, "validate_germ")], None),
    ("unfold.truncate", [(unfold, "truncate")], _truncation),
    ("unfold.null", [(unfold, n) for n in ("null_end_class", "null_forest", "null_path_counts", "growth_class")],
     None),
    ("coset.frontier_count", [(coset, "frontier_count")], None),
    ("coset.tree", [(coset, "CosetTree.__init__")], _verts),
    ("coset.color", [(coset, "lambda_of_coset")], None),
    ("coset.wedge", [(coset, "wedge_expansion")], _wedge_nodes),
    ("coset.iso", [(coset, "colored_trees_isomorphic")], None),
    ("cw.complex", [(cw, "CW2Complex.__init__")], None),
    ("cw.build", [(cw, n) for n in ("build_base", "build_cover", "build_frontier_graph")], _cells),
    ("cw.components", [(cw, "CW2Complex.components")], None),
    ("cw.h1", [(cw, "h1")], None),
    ("cw.induced", [(cw, "induced_h1")], None),
    ("cw.collapse", [(cw, "collapse_h1_matrix"), (cw, "CollapseBond.surjective")], None),
    ("intmat.smith", [(intmat, "smith_normal_form")], _dims),
    ("proseq.ladder", [(proseq, "ladder_search")], None),
    ("proseq.classify", [(proseq, "classify_mult"), (proseq, "inverse_limit_mult")], None),
    ("classify.ends", [(classify, "classify_ends")], None),
    ("classify.ray", [(classify, "default_ray")], None),
    ("classify.checks", [(classify, "cross_checks")], None),
    ("reduce.power", [(reduce, "germ_power_detailed")], None),
    ("reduce.interval", [(reduce, "elementary_reduction")], None),
)

# Smith calls are split by the span they are called from.
SMITH_PARENTS = {"cw.h1": "intmat.smith_h1", "cw.induced": "intmat.smith_h1", "cw.collapse": "intmat.smith_bond"}


class Tracer:
    def __init__(self) -> None:
        self._patches: list = []  # (namespace, attribute, original)
        self.spans: list = []  # [name, start, end, parent index]
        self.sizes: list = []  # size hook output of each span
        self._stack: list = []  # indices of the open spans

    def reset(self) -> None:
        """Forget the recorded spans; the wrappers keep these same lists."""
        self.spans.clear()
        self.sizes.clear()
        self._stack.clear()

    def _wrap(self, name, fn, size):
        spans, sizes, stack = self.spans, self.sizes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            sizes.append(None)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if size is not None:
                sizes[index] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "treeends" or n.startswith("treeends.")]
        for name, funcs, size in TARGETS:
            for module, attr in funcs:
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    self._patch(owner, method, self._wrap(name, owner.__dict__[method], size))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(name, original, size)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, traced)
        # The parser is rebuilt on every cli.run call; time its parse_args too.
        build = cli.build_parser
        wrap = self._wrap

        def build_parser():
            parser = build()
            parser.parse_args = wrap("cli.parse", parser.parse_args, None)
            return parser

        self._patch(cli, "build_parser", build_parser)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int, out_bytes: int) -> dict:
        """Per-layer numbers of the spans recorded since the last reset."""
        self_ms: dict = defaultdict(float)
        calls: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start - covered[i]) * 1000
            self_ms[name] += own
            calls[name] += 1
            if name == "intmat.smith" and parent is not None:
                split = SMITH_PARENTS.get(self.spans[parent][0])
                if split:
                    self_ms[split] += own
        sums: dict = defaultdict(int)
        work = max_dim = 0
        truncations = set()
        for (name, *_), size in zip(self.spans, self.sizes):
            if size is None:
                continue
            if name == "intmat.smith":
                m, n = size["dims"]
                work += m * n * min(m, n)
                max_dim = max(max_dim, m, n)
                continue
            if name == "unfold.truncate":
                truncations.add(size["key"])
            for key, value in size.items():
                if key != "key":
                    sums[f"{name}.{key}"] += value
        out = {f"{name}.self_ms": (self_ms[name], "ms") for name, _, _ in TARGETS}
        out.update({f"{s}.self_ms": (self_ms[s], "ms") for s in sorted(set(SMITH_PARENTS.values()))})
        for name in ("cli.run", "germ.validate", "unfold.truncate", "coset.frontier_count", "cw.components",
                     "intmat.smith", "proseq.ladder"):
            out[f"{name}.calls"] = (calls[name], "count")
        out["germ.validate.per_op"] = (calls["germ.validate"] / ops, "count/op")
        out["unfold.truncate.distinct_ratio"] = (
            len(truncations) / calls["unfold.truncate"] if calls["unfold.truncate"] else 1.0, "ratio")
        for key in ("unfold.truncate.nodes", "coset.tree.verts", "coset.wedge.nodes", "cw.build.cells"):
            out[key] = (sums[key], "count")
        out["intmat.smith.work"] = (work, "count")
        out["intmat.smith.max_dim"] = (max_dim, "count")
        out["cli.out_bytes"] = (out_bytes, "bytes")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                span = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(span) + "\n")

