"""The benchmark in ``perfbench/`` drives treeends by name; these tests fail
when a name it resolves or calls is renamed or deleted.

The tracer wraps every function and method listed in its ``TARGETS``, the
three op lists are built as a benchmark run builds them, and every library
op (a call into the package rather than into ``cli.run``) runs once and
passes its own check.  CLI ops are covered by the golden and CLI tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import corpus
from treeends import cli, germ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GERM = str(PERFBENCH.parent / "germs" / "two_loops.germ")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


def test_tracer_resolves_every_target_and_restores_it(tmp_path):
    validate = germ.validate_germ
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert germ.validate_germ is not validate
        path = tmp_path / "two_loops.germ"
        path.write_text("root A\nedge A A 2\nedge A A 3\n")
        assert cli.run(["classify", "--format", "json", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert germ.validate_germ is validate
    # The input germ and its two power germs, each validated once.
    assert [span[0] for span in tracer.spans].count("germ.validate") == 3


def test_op_lists_build_and_library_ops_pass(tmp_path):
    root = PERFBENCH.parent
    library_ops = []
    for name, build in workloads.BUILDERS.items():
        work = tmp_path / name
        work.mkdir()
        ops = build(root, work, corpus, 1)
        assert ops, name
        library_ops += [op for op in ops if op.kind in ("h1", "coords", "bond", "models")]
    assert {op.kind for op in library_ops} == {"h1", "coords", "bond", "models"}
    for op in library_ops:
        assert op.check(op.run()) == [], op.key


@pytest.mark.parametrize(
    "argv, spans",
    [
        (["classify", GERM], {"classify.ends", "cli.render"}),
        (["classify", "--format", "json", GERM], {"classify.ends", "cli.render"}),
        (["oracle", GERM], {"classify.ends", "classify.ray", "classify.checks"}),
        (["proseq", "prefix:3,0;cycle:2,1"], {"proseq.classify"}),
        (["reduce", "--power", "2", GERM], {"reduce.power", "cli.render"}),
    ],
    ids=["classify", "classify-json", "oracle", "proseq", "reduce"],
)
def test_tracer_times_the_calls_a_handler_imports(argv, spans, capsys):
    """The handlers import the battery, the sequence layer and the
    reductions when they run; their calls still open spans directly under
    the ``cli.run`` span."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run(argv) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    (run,) = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.run"]
    assert spans <= {span[0] for span in tracer.spans if span[3] == run}
