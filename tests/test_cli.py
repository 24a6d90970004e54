"""End-to-end tests for the command line interface."""

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from json_reference import colored_tree_payload, tree_payload
from test_classify import valid_germs
from tree_reference import ColoredNode, colored_nodes, colored_tree, tree_from_nodes
from treeends import cli as cli_module, coset, cw
from treeends.cli import run
from treeends.coset import BLACK, DASHED, GRAY, lambda_of_coset, lambda_plus
from treeends.germ import parse_germ, render_germ
from treeends.reduce import elementary_reduction
from treeends.unfold import TreeNode, null_forest, positive_part, truncate

ROOT = Path(__file__).resolve().parent.parent
GERMS = ROOT / "germs"


@pytest.fixture
def cli(capsys):
    def invoke(*argv, stdin=None, monkey=None):
        if stdin is not None:
            data = stdin if isinstance(stdin, bytes) else stdin.encode()
            monkey.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = run([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestValidate:
    def test_valid_germ(self, cli):
        code, out, err = cli("validate", GERMS / "bs2.germ")
        assert (code, out, err) == (0, "ok\n", "")

    def test_violations_reported(self, cli):
        code, out, _ = cli("validate", GERMS / "bad_nullclosure.germ")
        assert code == 1
        assert out == (
            "violation null-closure B: vertex 'B' follows a 0-labeled edge "
            "but has edge B->C labeled 1\n"
        )

    def test_json_report(self, cli):
        code, out, _ = cli("validate", GERMS / "bad_nullclosure.germ", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["ok"] is False
        assert data["violations"] == [
            {
                "rule": "null-closure",
                "subject": "B",
                "message": "vertex 'B' follows a 0-labeled edge but has edge B->C labeled 1",
            }
        ]

    def test_stdin_dash(self, cli, monkeypatch):
        text = "root A\nedge A A 2\n"
        code, out, _ = cli("validate", "-", stdin=text, monkey=monkeypatch)
        assert (code, out) == (0, "ok\n")

    def test_non_utf8_file_is_a_parse_error(self, cli, tmp_path):
        path = tmp_path / "latin1.germ"
        path.write_bytes(b"root A\n# caf\xe9\nedge A A 2\n")
        code, out, err = cli("validate", path)
        assert (code, out) == (1, "")
        assert err == "error: line 2: byte 0xe9 is not valid UTF-8\n"

    def test_non_utf8_stdin_is_a_parse_error(self, cli, monkeypatch):
        code, out, err = cli("classify", "-", stdin=b"root A\r\nedge A A 2\r\n\xff\n", monkey=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "error: line 3: byte 0xff is not valid UTF-8\n"

    def test_dot_not_available(self, cli):
        code, _, err = cli("validate", GERMS / "bs2.germ", "--format", "dot")
        assert code == 2
        assert "format dot is not available for validate" in err

    def test_path_with_a_nul_byte_is_an_error(self, cli):
        code, out, err = cli("validate", "a\x00b")
        assert (code, out) == (1, "")
        assert err == "error: cannot open 'a\\x00b': embedded null byte\n"


class TestClassify:
    def test_text_output(self, cli):
        code, out, _ = cli("classify", GERMS / "bs2.germ")
        assert code == 0
        assert "end_class: OneEnded" in out
        assert "ranks: 0,1,3,7,15" in out
        assert "ray_sequence: cycle:2" in out
        assert "check collapse-surjective: pass" in out

    def test_json_output(self, cli):
        code, out, _ = cli("classify", GERMS / "null_binary.germ", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["end_class"] == "InfiniteUncountable"
        assert data["fixed_ends"] == 2
        assert data["ranks"] is None
        assert {c["status"] for c in data["oracle_checks"]} <= {"pass", "skip"}

    def test_dot_rejected(self, cli):
        code, _, err = cli("classify", GERMS / "bs2.germ", "--format", "dot")
        assert code == 2
        assert "not available for classify" in err

    def test_runs_are_byte_identical(self, cli):
        first = cli("classify", GERMS / "two_loops.germ")
        second = cli("classify", GERMS / "two_loops.germ")
        assert first == second

    def test_layered_germ_needs_no_path_enumeration(self, cli, tmp_path):
        # A root, 14 layers of 3 vertices joined by label-1 edges, and
        # label-2 loops on the last layer: 43 vertices and 3**14 simple root
        # paths, while the ray comes from breadth-first paths.
        layers = [[f"L{i}_{j}" for j in range(3)] for i in range(1, 15)]
        lines = ["root R"] + [f"vertex {v}" for layer in layers for v in layer]
        for upper, lower in zip([["R"]] + layers, layers):
            lines += [f"edge {a} {b} 1" for a in upper for b in lower]
        lines += [f"edge {v} {v} 2" for v in layers[-1]]
        path = tmp_path / "layered.germ"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out, err = cli("classify", path)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        assert "ray_sequence: prefix:" + ",".join(["1"] * 14) + ";cycle:2\n" in out
        assert elapsed < 1.0


class TestCoverCeiling:
    """The battery's covers are built as 1-skeletons, but the ceiling still
    counts the square faces of the cover they model: on two_loops at height
    4 that is 5,287 cells, of which 1,240 are faces."""

    @pytest.mark.parametrize("command", ["classify", "oracle"])
    @pytest.mark.parametrize("ceiling", [5250, 5286])
    def test_refused_at_the_cover_stage(self, cli, command, ceiling):
        code, out, err = cli(command, "--ceiling", ceiling, GERMS / "two_loops.germ")
        assert (code, out) == (3, "")
        assert err == f"error: cover cells exceeds the size ceiling (5287 > {ceiling})\n"

    @pytest.mark.parametrize("command", ["classify", "oracle"])
    @pytest.mark.parametrize("ceiling", [5287, 5500])
    def test_runs_once_the_faces_fit(self, cli, command, ceiling):
        code, out, err = cli(command, "--ceiling", ceiling, GERMS / "two_loops.germ")
        assert (code, err) == (0, "")
        assert "check cover-connected: pass" in out


@pytest.mark.parametrize("command", ["oracle", "classify"])
class TestBatteryCloneTree:
    """The battery builds one clone tree, to depth ``min(3, --depth)``, the
    depth its covers and frontier tower read, so the ceiling counts no tier
    it never reads.  ``classify`` runs the same battery."""

    def test_runs_when_only_an_unread_tier_is_past_the_ceiling(self, cli, tmp_path, command):
        # tiers 0-3 are one clone each; D's two loops would add 1,200 at tier 4
        path = tmp_path / "chain.germ"
        path.write_text(
            "root A\nvertex B\nvertex C\nvertex D\n"
            "edge A B 1\nedge B C 1\nedge C D 1\nedge D D 600\nedge D D 600\n"
        )
        code, out, err = cli(command, "--ceiling", 1000, path)
        assert (code, err) == (0, "")
        assert "check frontier-rank: pass" in out
        assert "check cover-connected: pass" in out
        if command == "oracle":
            assert out.endswith("oracle: 6 pass, 0 fail, 4 skip\n")

    def test_a_big_tree_is_refused_at_the_covers(self, cli, tmp_path, command):
        # 33,825 clones to depth 3 fit; the covers over them at heights 3
        # and 4 do not
        path = tmp_path / "loop32.germ"
        path.write_text("root A\nedge A A 32\n")
        code, out, err = cli(command, path)
        assert (code, out) == (3, "")
        assert err == "error: cover cells exceeds the size ceiling (1150033 > 1000000)\n"

    def test_covers_are_refused_before_the_frontier_tower(
        self, cli, tmp_path, monkeypatch, command
    ):
        # 980,200 clones to depth 3 fit the ceiling, but their radius-3
        # frontier graph alone would have about 4.9 million cells
        def unbounded(c, i):
            raise AssertionError(f"frontier graph of radius {i} built before the refusal")

        monkeypatch.setattr(cw, "build_frontier_graph", unbounded)
        path = tmp_path / "loop99.germ"
        path.write_text("root A\nedge A A 99\n")
        code, out, err = cli(command, path)
        assert (code, out) == (3, "")
        assert err == "error: cover cells exceeds the size ceiling (25485187 > 1000000)\n"

    def test_the_covers_bound_the_frontier_tower_at_depth_2(self, cli, tmp_path, command):
        # the tower stops at radius 2, inside the covers' three clones; the
        # 300 clones at tier 3 are never built
        path = tmp_path / "chain300.germ"
        path.write_text("root A\nvertex B\nvertex C\nedge A B 1\nedge B C 1\nedge C C 300\n")
        code, out, err = cli(command, "--depth", 2, "--ceiling", 1000, path)
        assert (code, err) == (0, "")
        assert "check frontier-rank: pass" in out
        assert "check collapse-surjective: pass (i=0: onto; i=1: onto)" in out

    def test_depth_2_builds_one_clone_tree(self, cli, tmp_path, monkeypatch, command):
        # the 9,901 clones to depth 2 serve the covers and the frontier tower
        sizes = []
        init = coset.CosetTree.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sizes.append(len(self.verts))

        monkeypatch.setattr(coset.CosetTree, "__init__", counted)
        path = tmp_path / "loop99.germ"
        path.write_text("root A\nedge A A 99\n")
        code, out, err = cli(command, "--depth", 2, path)
        assert (code, err) == (0, "")
        assert sizes == [9901]
        if command == "oracle":
            assert out.endswith("oracle: 8 pass, 0 fail, 2 skip\n")

    def test_covers_are_refused_before_the_clone_tree(self, cli, tmp_path, monkeypatch, command):
        # the covers' size follows from the 980,200 clones that the depth-3
        # tree would have, so none of them is built
        def unbuilt(self, *args, **kwargs):
            raise AssertionError("clone tree built before the refusal")

        monkeypatch.setattr(coset.CosetTree, "__init__", unbuilt)
        path = tmp_path / "loop99.germ"
        path.write_text("root A\nedge A A 99\n")
        code, out, err = cli(command, path)
        assert (code, out) == (3, "")
        assert err == "error: cover cells exceeds the size ceiling (25485187 > 1000000)\n"


@pytest.mark.parametrize("command", ["oracle", "classify"])
class TestPowerGermCeiling:
    """The battery builds its power germs under the same ceiling.  A refused
    power germ skips its own check, and the run goes on."""

    def test_a_refused_power_germ_skips_its_check(self, cli, tmp_path, command):
        # a chain into twelve label-1 loops: the cube germ's edges pass 1,000
        path = tmp_path / "power.germ"
        path.write_text(
            "root A\nvertex B\nvertex C\nvertex D\nvertex E\n"
            "edge A B 1\nedge B C 1\nedge C D 1\nedge D E 1\n" + "edge E E 1\n" * 12
        )
        code, out, err = cli(command, "--ceiling", 1000, path)
        assert (code, err) == (0, "")
        assert (
            "check power-invariance-3: skip (power germ unavailable: powered germ edges"
            " exceeds the size ceiling (1001 > 1000))\n"
        ) in out
        # with room for it, the cube germ is built, and its validation skips the check
        code, out, err = cli(command, "--ceiling", 2000, path)
        assert (code, err) == (0, "")
        assert "check power-invariance-3: skip (power germ unavailable: invalid germ: " in out


class TestUnfold:
    def test_text_tree(self, cli):
        code, out, _ = cli("unfold", GERMS / "bs2.germ", "--depth", 2)
        assert code == 0
        assert out == (
            "depth 2\n"
            "node 0 tier 0 root A\n"
            "node 1 tier 1 parent 0 vertex A label 2 positive\n"
            "node 2 tier 2 parent 1 vertex A label 2 positive\n"
        )

    def test_dot_tree(self, cli):
        code, out, _ = cli("unfold", GERMS / "mixed.germ", "--depth", 2, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph unfold {\n")
        assert '  n0 [label="A", color=black];\n' in out
        assert '  n2 [label="B", color=gray];\n' in out
        assert '  n0 -> n1 [label="1", style=solid];\n' in out
        assert '  n0 -> n2 [label="0", style=dashed];\n' in out
        assert out.endswith("}\n")

    def test_json_tree(self, cli):
        code, out, _ = cli("unfold", GERMS / "bs2.germ", "--depth", 1, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["depth"] == 1
        assert len(data["nodes"]) == 2

    def test_depth_must_be_positive(self, cli):
        code, _, _ = cli("unfold", GERMS / "bs2.germ", "--depth", 0)
        assert code == 2

    def test_ceiling_exit_code(self, cli):
        code, _, err = cli(
            "unfold", GERMS / "two_loops.germ", "--depth", 9, "--ceiling", 1000
        )
        assert code == 3
        assert "exceeds the size ceiling (1023 > 1000)" in err

    def test_ceiling_floor_is_enforced(self, cli):
        code, _, _ = cli("unfold", GERMS / "bs2.germ", "--ceiling", 500)
        assert code == 2

    def test_oversized_tier_is_refused_before_it_is_built(self, cli, tmp_path):
        # one vertex with 1,500 label-1 loops: tier 2 alone has 2.25 M nodes,
        # and the ceiling is checked on the counted tier, not a built one
        germ = tmp_path / "loops.germ"
        germ.write_text("root v\n" + "edge v v 1\n" * 1500)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = cli("unfold", "--depth", 2, germ)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (
            "error: truncation at tier 2 exceeds the size ceiling (2251501 > 1000000)\n"
        )
        assert elapsed < 1.0
        assert peak < 16 * 2**20

    def test_missing_file(self, cli):
        code, _, err = cli("unfold", "no_such_file.germ")
        assert code == 1
        assert "no_such_file.germ" in err


class TestLambda:
    def test_text_clone_tree(self, cli):
        code, out, _ = cli("lambda", GERMS / "mixed.germ", "--depth", 2)
        assert code == 0
        assert out == (
            "nodes 6\n"
            "node 0 parent - color root vertex A label 0 residue 0 original\n"
            "node 1 parent 0 color black vertex A label 1 residue 0 original\n"
            "node 2 parent 1 color black vertex A label 1 residue 0 original\n"
            "node 3 parent 0 color dashed vertex B label 0 residue - original\n"
            "node 4 parent 3 color dashed vertex B label 0 residue - original\n"
            "node 5 parent 1 color dashed vertex B label 0 residue - original\n"
        )

    def test_clone_copies_are_gray(self, cli):
        code, out, _ = cli("lambda", GERMS / "bs2.germ", "--depth", 2)
        assert code == 0
        assert "color gray" in out
        # 1 + 2 + 4 clone vertices for doubling at depth 2
        assert out.splitlines()[0] == "nodes 7"

    def test_dot_output(self, cli):
        code, out, _ = cli("lambda", GERMS / "mixed.germ", "--depth", 2, "--format", "dot")
        assert code == 0
        assert "digraph" in out
        assert "style=dashed" in out

    def test_dot_of_trees_with_one_node_and_none(self):
        t = truncate(parse_germ("root A\nedge A A 2\n"), 0)
        assert cli_module.emit_dot(t) == 'digraph unfold {\n  n0 [label="A", color=black];\n}\n'
        assert cli_module.emit_dot_colored(colored_tree(())) == "digraph clone_tree {\n}\n"


class TestCosetCeiling:
    """two_loops at depth 5 has 3,906 coset vertices.  The coset tree counts
    them base node by base node and refuses at the first running total past
    the ceiling."""

    @pytest.mark.parametrize("ceiling,total", [(3000, 3069), (3905, 3906)])
    def test_refused_at_the_running_total(self, cli, ceiling, total):
        code, out, err = cli("lambda", "--depth", 5, "--ceiling", ceiling, GERMS / "two_loops.germ")
        assert (code, out) == (3, "")
        assert err == f"error: coset tree vertices exceeds the size ceiling ({total} > {ceiling})\n"

    def test_runs_once_the_vertices_fit(self, cli):
        code, out, err = cli("lambda", "--depth", 5, "--ceiling", 3906, GERMS / "two_loops.germ")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "nodes 3906"


class TestReduce:
    def test_power_emits_a_germ(self, cli):
        code, out, _ = cli("reduce", GERMS / "bs2.germ", "--power", 2)
        assert (code, out) == (0, "root A\nedge A A 4\n")

    def test_interval_emits_a_tree(self, cli):
        code, out, _ = cli(
            "reduce", GERMS / "bs2.germ", "--interval", 0, 2, "--depth", 4
        )
        assert code == 0
        assert out == (
            "depth 3\n"
            "node 0 tier 0 root A\n"
            "node 1 tier 1 parent 0 vertex A label 4 positive\n"
            "node 2 tier 2 parent 1 vertex A label 2 positive\n"
            "node 3 tier 3 parent 2 vertex A label 2 positive\n"
        )

    def test_exactly_one_mode_required(self, cli):
        code, _, _ = cli("reduce", GERMS / "bs2.germ")
        assert code == 2
        code, _, _ = cli(
            "reduce", GERMS / "bs2.germ", "--power", 2, "--interval", 0, 1
        )
        assert code == 2

    def test_power_json(self, cli):
        code, out, _ = cli("reduce", GERMS / "two_loops.germ", "--power", 2, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["root"] == "A"
        assert [e["label"] for e in data["edges"]] == [4, 6, 6, 9]


class TestLabels:
    """Labels are Python ints, bounded only by the int/str digit limit."""

    def test_power_output_validates(self, cli, tmp_path, int_digit_limit):
        germ = tmp_path / "big.germ"
        germ.write_text(f"root A\nedge A A {2**40}\n")
        code, out, err = cli("reduce", germ, "--power", 2)
        assert (code, out, err) == (0, f"root A\nedge A A {2**80}\n", "")
        germ.write_text(out)
        assert cli("validate", germ) == (0, "ok\n", "")

    def test_label_past_the_digit_limit_is_a_parse_error(self, cli, tmp_path, int_digit_limit):
        germ = tmp_path / "long.germ"
        germ.write_text("root A\nedge A A " + "7" * 5000 + "\n")
        code, out, err = cli("validate", germ)
        assert (code, out) == (1, "")
        assert err == "error: line 2: label of 5000 digits exceeds the 4300-digit limit\n"

    @pytest.mark.parametrize(
        "argv",
        [
            [*mode, "--format", fmt]
            for fmt in ("text", "json", "dot")
            for mode in (["--power", 15000], ["--interval", 0, 15000, "--depth", 15000])
        ],
        ids=["power", "interval", "power-json", "interval-json", "power-dot", "interval-dot"],
    )
    def test_unprintable_label_hits_the_ceiling(self, cli, argv, int_digit_limit):
        code, out, err = cli("reduce", GERMS / "bs2.germ", *argv)
        assert (code, out) == (3, "")
        assert err == "error: label digits exceeds the size ceiling (4516 > 4300)\n"

    def test_rank_past_the_digit_limit_hits_the_ceiling(self, cli, int_digit_limit):
        # bs2 ranks are 2**i - 1; tier 2127 is the first with 641 digits
        sys.set_int_max_str_digits(640)
        code, out, err = cli("classify", "--depth", 2200, "--format", "json", GERMS / "bs2.germ")
        assert (code, out) == (3, "")
        assert err == "error: rank digits exceeds the size ceiling (641 > 640)\n"

    def test_rank_tower_stops_at_the_first_unprintable_rank(self, cli, int_digit_limit):
        # tier 14286 has the first 4301-digit rank; the deeper tiers of the
        # walk are never computed, so the ranks before it are all it holds
        tracemalloc.start()
        try:
            code, out, err = cli("classify", "--depth", 40000, GERMS / "bs2.germ")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == "error: rank digits exceeds the size ceiling (4301 > 4300)\n"
        assert peak < 32 * 2**20

    def test_power_telescoping_holds_one_tier_at_a_time(self, cli, int_digit_limit):
        # bs2 clone counts are 2**i, all printable up to tier 14284
        tracemalloc.start()
        try:
            code, out, err = cli("oracle", "--depth", 14000, GERMS / "bs2.germ")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        for m in (2, 3):
            assert f"check power-invariance-{m}: pass (class match True, frontier telescoping True)\n" in out
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("depth", [14284, 14285, 20000])
    def test_oracle_refuses_clone_counts_where_classify_refuses_ranks(self, cli, int_digit_limit, depth):
        # tier 14285 has the first 4301-digit clone count 2**i and rank
        # 2**i - 1, so the battery stops at the tier the rank tower stops at
        got = {command: cli(command, "--depth", depth, GERMS / "bs2.germ") for command in ("classify", "oracle")}
        if depth < 14285:
            assert [code for code, _, _ in got.values()] == [0, 0]
            return
        for command, what in (("classify", "rank"), ("oracle", "clone count")):
            assert got[command] == (3, "", f"error: {what} digits exceeds the size ceiling (4301 > 4300)\n")


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([str(a) for a in argv]) == 0
    return out.getvalue()


def _clone_tree(t):
    return lambda_of_coset(lambda_plus(positive_part(t)), null_forest(t))


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


class TestJsonWriters:
    """``unfold``, ``lambda`` and ``reduce --interval`` write their JSON record
    by record; the text must be ``json.dumps(payload, indent=2)``."""

    def check(self, germ_file, depth, interval):
        g = parse_germ(germ_file.read_text())
        t = truncate(g, depth)
        assert _stdout(["unfold", germ_file, "--depth", depth, "--format", "json"]) == _dumps(
            tree_payload(t)
        )
        i, j = interval
        argv = ["reduce", germ_file, "--interval", i, j, "--depth", depth, "--format", "json"]
        assert _stdout(argv) == _dumps(tree_payload(elementary_reduction(t, i, j)))
        return t

    @settings(max_examples=150, deadline=None)
    @given(valid_germs(), st.integers(1, 3), st.data())
    def test_match_json_dumps_on_random_germs(self, tmp_path_factory, g, depth, data):
        germ_file = tmp_path_factory.mktemp("writers") / "g.germ"
        germ_file.write_text(render_germ(g))
        i = data.draw(st.integers(0, depth - 1))
        t = self.check(germ_file, depth, (i, data.draw(st.integers(i + 1, depth))))
        argv = ["lambda", germ_file, "--depth", depth, "--format", "json"]
        assert _stdout(argv) == _dumps(colored_tree_payload(_clone_tree(t)))

    def test_labels_at_the_digit_limit(self, tmp_path, int_digit_limit):
        label = "9" * sys.get_int_max_str_digits()
        germ_file = tmp_path / "long.germ"
        germ_file.write_text(f"root A\nvertex B\nedge A A {label}\nedge A B 0\nedge B B 0\n")
        t = self.check(germ_file, 2, (0, 1))
        assert max(n.label or 0 for n in t.nodes) == int(label)

    def test_names_with_underscores_and_digits(self, tmp_path):
        germ_file = tmp_path / "names.germ"
        germ_file.write_text(
            "root _v0\nvertex a_1\nvertex B_22_\n"
            "edge _v0 a_1 2\nedge a_1 _v0 3\nedge a_1 B_22_ 0\nedge B_22_ B_22_ 0\n"
        )
        t = self.check(germ_file, 3, (1, 3))
        assert _stdout(["lambda", germ_file, "--depth", 3, "--format", "json"]) == _dumps(
            colored_tree_payload(_clone_tree(t))
        )

    def test_every_color(self, tmp_path):
        germ_file = tmp_path / "colors.germ"
        germ_file.write_text("root A\nvertex B\nedge A A 1\nedge A A 2\nedge A B 0\nedge B B 0\n")
        ct = _clone_tree(truncate(parse_germ(germ_file.read_text()), 2))
        assert {n.color for n in colored_nodes(ct)} == {None, BLACK, GRAY, DASHED}
        argv = ["lambda", germ_file, "--depth", 2, "--format", "json"]
        assert _stdout(argv) == _dumps(colored_tree_payload(ct))

    def test_one_node_tree_and_no_nodes(self):
        t = truncate(parse_germ("root A\nedge A A 2\n"), 0)
        assert len(t.nodes) == 1
        assert cli_module.tree_json_dict(t) == json.dumps(tree_payload(t), indent=2)
        ct = _clone_tree(t)
        assert cli_module.colored_tree_json_dict(ct) == json.dumps(colored_tree_payload(ct), indent=2)
        empty = colored_tree(())
        assert cli_module.colored_tree_json_dict(empty) == json.dumps(
            colored_tree_payload(empty), indent=2
        )

    def test_names_that_need_escapes(self):
        # germ files admit only identifiers; a tree built in code may hold any name
        t = tree_from_nodes(0, (TreeNode(0, 0, None, 'q"\\\n%s é', None, True),))
        assert cli_module.tree_json_dict(t) == json.dumps(tree_payload(t), indent=2)

    def test_clone_tree_names_that_need_escapes(self):
        ct = colored_tree(
            [
                ColoredNode(0, None, None, True, 'q"\\\n%s é', 0, 0),
                ColoredNode(1, 0, BLACK, True, "\t%d{}", 2, 0),
                ColoredNode(2, 0, GRAY, False, "\t%d{}", 2, 1),
                ColoredNode(3, 1, DASHED, True, 'q"\\\n%s é', 0, None),
            ]
        )
        assert cli_module.colored_tree_json_dict(ct) == json.dumps(colored_tree_payload(ct), indent=2)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "germ_file",
        [p for p in sorted(GERMS.glob("*.germ")) if parse_germ(p.read_text()).report.ok],
        ids=lambda p: p.stem,
    )
    def test_every_valid_germ_file(self, germ_file, depth):
        t = truncate(parse_germ(germ_file.read_text()), depth)
        written = [
            (["unfold"], tree_payload(t)),
            (["lambda"], colored_tree_payload(_clone_tree(t))),
        ]
        for i in range(depth):
            reduced = elementary_reduction(t, i, depth)
            written.append((["reduce", "--interval", i, depth], tree_payload(reduced)))
        for argv, payload in written:
            text = _stdout(argv + [germ_file, "--depth", depth, "--format", "json"])
            assert json.loads(text) == payload
            assert text == _dumps(payload)


# Every type the CLI writes: str, int (4000-digit ones too), bool and None,
# in lists, tuples and str-keyed dicts, empty ones included.  Text draws
# non-ASCII, control and surrogate characters, which json escapes.
_TEXT = st.text(st.characters(blacklist_categories=()))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.tuples(st.sampled_from((1, -1)), st.integers(0, 10**6)).map(lambda p: p[0] * (10**3999 + p[1]))
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """The CLI's JSON writer against ``json.dumps(value, indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({})
    @example([])
    @example(())
    @example({"a": [], "b": {}, "c": [[], [{}]], "d": ()})
    @example({"\u00e9\x00\x1f\ud800": ["\t\n\"\\", "\U0001f600"], "": [None, True, False, 0, -1]})
    @example([10**3999, -(10**3999)])
    def test_matches_json_dumps(self, value):
        assert cli_module._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, float("nan"), b"x", {1, 2}, {1: "a"}, {None: 0}, [object()], {"k": [1, (2, 0.0)]}],
        ids=["float", "nan", "bytes", "set", "int-key", "none-key", "object", "nested-float"],
    )
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            cli_module._json_text(value)

    @pytest.mark.parametrize("command", ["oracle", "classify"])
    @pytest.mark.parametrize("germ", ["two_loops", "null_ray", "trivial"])
    def test_json_output_leaves_no_cyclic_garbage(self, command, germ):
        """``--format json`` output is freed by reference counting: the
        writer builds no closures that refer to each other, as json's
        pure-Python encoder does."""
        argv = [command, str(GERMS / f"{germ}.germ"), "--format", "json"]

        def quietly():
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0

        quietly()  # warm up what is built once per process
        gc.collect()
        gc.disable()
        try:
            quietly()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestParser:
    """One parser serves every ``run`` call in a process."""

    def test_reused_across_calls(self, cli):
        germ = GERMS / "two_loops.germ"
        code, out, err = cli("classify", "--depth", 0, germ)
        assert (code, out) == (2, "") and "must be at least 1" in err
        code, out, _ = cli("--help")
        assert code == 0 and out.startswith("usage: treeends")
        code, out, err = cli("reduce", germ, "--power", 2, "--interval", 1, 2)
        assert (code, out) == (2, "") and "not allowed with argument" in err
        first = cli("classify", "--format", "json", germ)
        assert first[0] == 0
        assert cli("classify", "--format", "json", germ) == first

    def test_run_does_not_rebuild_it(self, cli, monkeypatch):
        def fail():
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli_module, "build_parser", fail)
        assert cli("validate", GERMS / "bs2.germ") == (0, "ok\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--depth", 3],
            ["validate", "--ceiling", 5000],
            ["unfold", "--height", 2],
            ["lambda", "--height", 2],
            ["reduce", "--power", 2, "--height", 2],
            ["proseq", "--depth", 3, "cycle:2"],
        ],
    )
    def test_an_option_the_command_does_not_read_is_a_usage_error(self, cli, argv):
        code, out, err = cli(*argv, GERMS / "bs2.germ")
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


class TestProseq:
    def test_text_output(self, cli):
        code, out, _ = cli("proseq", "prefix:3;cycle:2,1")
        assert code == 0
        assert out == (
            "sequence: prefix:3;cycle:2,1\n"
            "pro_trivial: false\n"
            "semistable: false\n"
            "pro_mono: true\n"
            "stable: false\n"
            "inverse_limit: Zero\n"
        )

    def test_json_output(self, cli):
        code, out, _ = cli("proseq", "cycle:1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "schema": 1,
            "sequence": "cycle:1",
            "pro_trivial": False,
            "semistable": True,
            "pro_mono": True,
            "stable": True,
            "inverse_limit": "Z",
        }

    def test_bad_literal(self, cli):
        code, _, err = cli("proseq", "cycle:")
        assert code == 1
        assert "cycle" in err

    def test_dot_rejected(self, cli):
        code, _, _ = cli("proseq", "cycle:1", "--format", "dot")
        assert code == 2


class TestOracle:
    def test_clean_battery_exits_zero(self, cli):
        code, out, _ = cli("oracle", GERMS / "trivial.germ")
        assert code == 0
        assert out.splitlines()[-1] == "oracle: 6 pass, 0 fail, 4 skip"
        assert "check two-ended-split: pass" in out

    def test_json_summary(self, cli):
        code, out, _ = cli("oracle", GERMS / "spin.germ", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["summary"]["fail"] == 0
        assert len(data["checks"]) == 10

    def test_dot_rejected(self, cli):
        code, _, _ = cli("oracle", GERMS / "bs2.germ", "--format", "dot")
        assert code == 2

    @settings(max_examples=100, deadline=None)
    @given(valid_germs(max_vertices=4), st.integers(1, 4), st.integers(1, 4))
    def test_classify_and_oracle_run_the_same_battery(self, tmp_path_factory, g, depth, height):
        germ_file = tmp_path_factory.mktemp("agree") / "g.germ"
        germ_file.write_text(render_germ(g))
        options = ["--depth", depth, "--height", height, "--format", "json"]
        report = json.loads(_stdout(["classify", germ_file, *options]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([str(a) for a in ["oracle", germ_file, *options]])
        checks = json.loads(out.getvalue())["checks"]
        assert checks == report["oracle_checks"]
        assert code == (1 if any(c["status"] == "fail" for c in checks) else 0)


COMMANDS = ["validate", "classify", "unfold", "lambda", "reduce", "proseq", "oracle"]
SMALL = st.integers(-1, 6).map(str)  # keeps every tree the fuzz builds small


def _small_or_not_an_int(text: str) -> bool:
    try:
        return int(text) <= 6
    except ValueError:
        return True


FUZZ_TARGET = st.one_of(
    st.sampled_from(
        [str(GERMS / name) for name in ("bs2.germ", "spin.germ", "null_binary.germ", "bad_nullclosure.germ")]
        + ["-", "a\x00b", "\ud800", "cycle:2", "prefix:1_0;cycle:+2", "cycle: \u0663"]
    ),
    st.text(max_size=8).filter(_small_or_not_an_int),
)
FUZZ_ITEMS = st.one_of(
    st.tuples(st.sampled_from(["--depth", "--height", "--power"]), SMALL),
    st.tuples(st.just("--interval"), SMALL, SMALL),
    st.tuples(st.just("--ceiling"), st.sampled_from(["999", "1000", "100000"])),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "dot", "xml"])),
    st.sampled_from(
        ["--depth", "--height", "--ceiling", "--format", "--power", "--interval", "--help"]
    ).map(lambda flag: (flag,)),
    FUZZ_TARGET.map(lambda token: (token,)),
)
# a command (or not), its germ path or literal (or not), then flags and tokens
FUZZ_ARGV = st.tuples(
    st.sampled_from(COMMANDS + ["", "--help", "bogus"]),
    FUZZ_TARGET,
    st.lists(FUZZ_ITEMS, max_size=4),
).map(lambda parts: [parts[0], parts[1]] + [token for item in parts[2] for token in item])
FUZZ_STDIN = st.one_of(
    st.binary(max_size=40),
    st.sampled_from(["root A\nedge A A 2\n", "root A\nvertex B\nedge A B 0\nedge B B 0\n"]).map(
        str.encode
    ),
)


@settings(max_examples=150, deadline=None)
@given(FUZZ_ARGV, FUZZ_STDIN)
def test_any_argv_and_stdin_end_in_an_exit_code(argv, stdin):
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)


def _child_env():
    """Environment for a child interpreter that imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _declared_entry_point():
    """The ``module:attr`` target of ``[project.scripts].treeends``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "treeends" in scripts, "pyproject.toml declares no [project.scripts].treeends"
    return scripts["treeends"]


def _run_console_script(*args, stdin=None):
    """Run the declared console script the way pip's generated launcher does."""
    module, _, attr = _declared_entry_point().partition(":")
    launcher = (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "sys.argv[0] = 'treeends'\n"
        f"sys.exit({attr}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", launcher, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=_child_env(),
    )


class TestInstalledEntryPoints:
    def test_console_script(self):
        args = ("classify", str(GERMS / "bs2.germ"))
        runs = [("declared entry point", _run_console_script(*args))]
        installed = shutil.which("treeends")
        if installed:
            runs.append(
                (
                    installed,
                    subprocess.run(
                        [installed, *args],
                        capture_output=True,
                        text=True,
                        env=_child_env(),
                    ),
                )
            )
        for name, proc in runs:
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            assert "end_class: OneEnded" in proc.stdout, name
            assert "ranks: 0,1,3,7,15" in proc.stdout, name

    def test_library_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, treeends; print('treeends.cli' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treeends.cli", "validate", str(GERMS / "bs2.germ")],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "ok\n"

    def test_stdin_pipe(self):
        proc = _run_console_script("validate", "-", stdin="root A\nedge A A 3\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


# What ``import treeends.cli`` loads: the parser's defaults and the tree
# writers read these at import; the battery and the sequence layer wait for
# the handlers that run them.
CLI_LAYERS = {"cli", "coset", "errors", "germ", "unfold"}
ALL_LAYERS = CLI_LAYERS | {"classify", "cw", "intmat", "proseq", "reduce"}


def _loaded_layers(*argv):
    """The ``treeends`` submodules a fresh interpreter has loaded after
    importing the CLI and, given ``argv``, running it in process once."""
    script = (
        "import contextlib, io, sys\n"
        "from treeends import cli\n"
        f"argv = {list(argv)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(argv) if argv else 0\n"
        "print(code, *sorted(n[9:] for n in sys.modules if n.startswith('treeends.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    code, *layers = proc.stdout.split()
    assert code == "0", proc.stderr
    return set(layers)


class TestImports:
    def test_import_loads_only_the_parser_layers(self):
        assert _loaded_layers() == CLI_LAYERS

    @pytest.mark.parametrize(
        "argv, extra",
        [
            pytest.param(["validate"], set(), id="validate"),
            pytest.param(["unfold", "--depth", "3"], set(), id="unfold"),
            pytest.param(["lambda", "--depth", "3"], set(), id="lambda"),
            pytest.param(["reduce", "--power", "2"], {"reduce"}, id="reduce"),
            pytest.param(["classify"], ALL_LAYERS - CLI_LAYERS, id="classify"),
            pytest.param(["oracle"], ALL_LAYERS - CLI_LAYERS, id="oracle"),
        ],
    )
    def test_each_germ_command_loads_only_what_it_runs(self, argv, extra):
        assert _loaded_layers(*argv, str(GERMS / "two_loops.germ")) == CLI_LAYERS | extra

    def test_proseq_loads_only_the_sequence_layer(self):
        assert _loaded_layers("proseq", "prefix:3,0;cycle:2,1") == CLI_LAYERS | {"proseq"}
