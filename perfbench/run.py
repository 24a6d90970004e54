"""Benchmark of the treeends package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload cli_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the package is imported from
``src/`` and the corpus from ``tests/corpus.py``.  One process, one client,
no threads: each op starts only after the previous one finished.  A run
repeats the workload's op list (a pass) until ``--seconds`` have passed,
checks every op's answer, and prints a readable report followed by one JSON
line:

- ``--trace 0``: the end-to-end metrics (see ``END_TO_END``);
- ``--trace 1``: untraced and traced passes alternate; the per-layer
  metrics come from the traced ones (times as medians over traced passes,
  counts from the first traced pass) and the spans of the first traced pass
  are written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli_corpus", "homology", "unfold_export")
SETUP_REPEATS = 5
MIN_PASSES = 3
# Speed scaling.  The shared machine this was tuned on drifts by 15-70% in
# speed for seconds to minutes at a time, for every process alike, so raw
# times of two runs minutes apart disagree by more than any useful bound.
# A fixed reference loop, which runs no treeends code, is timed right after
# every op.  Each op time is scaled by loop_s over the median reference
# time of the REF_WINDOW ops on each side of it in the same pass: a time is
# reported as it would read at the speed where the loop takes loop_s (the
# loop's typical time, between that workload's ops, when that machine was
# calm).
#
# The loop is arithmetic, plus scattered reads over ~10 MB of int objects
# for unfold_export only.  Its ops stream megabytes of output and slow down
# with the machine's memory; the ops of the other two workloads stay in
# cache and slow down like arithmetic.  In recordings of 6-8 minutes cut into
# 40-s runs, scattered reads taking half the loop's time brought the spread
# (IQR/median) of unfold_export's wall from 0.15 (arithmetic only) to 0.02,
# but raised homology's from 0.02 to 0.23 and cli_corpus's from 0.01 to 0.15.
REF_STEPS = 3000
REF_OBJECTS = 1 << 18
REFERENCE = {  # workload: (scattered reads per loop, loop_s)
    "cli_corpus": (0, 0.25e-3),
    "homology": (0, 0.25e-3),
    "unfold_export": (700, 0.5e-3),
}
REF_WINDOW = 8

END_TO_END = {
    "setup_s": "s",  # interpreter start, import treeends, input generation
    "wall_s": "s",  # one pass over the op list: sum of the op times
    # percentiles over the op list
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def load_program():
    """Import treeends from the checkout's src/ and the test corpus."""
    src = ROOT / "src"
    corpus_path = ROOT / "tests" / "corpus.py"
    if not (src / "treeends" / "__init__.py").is_file() or not corpus_path.is_file():
        sys.exit(f"error: {ROOT} is not a treeends checkout (need src/treeends and tests/corpus.py)")
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location("bench_corpus", corpus_path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def build_ops(workload: str, seed: int, corpus, work: Path) -> list:
    import workloads

    return workloads.BUILDERS[workload](ROOT, work, corpus, seed)


class Reference(NamedTuple):
    objects: list
    index: list  # where the loop reads objects
    loop_s: float  # the loop's time at the reference speed


def make_reference(workload: str) -> Reference:
    """The data of the workload's reference loop.  Made before gc.freeze(),
    so that no collection inside an op walks it."""
    reads, loop_s = REFERENCE[workload]
    objects = [i * 3 for i in range(REF_OBJECTS if reads else 0)]
    return Reference(objects, random.Random(0).sample(range(len(objects)), reads), loop_s)


def reference_loop(reference: Reference) -> int:
    """Fixed pure-Python work that measures the machine's current speed:
    arithmetic, then scattered reads and small allocations."""
    s = 0
    for i in range(REF_STEPS):
        s = (s * 31 + i) % 1000003
    for j in reference.index:
        s += reference.objects[j]
    d = {}
    for i in range(len(reference.index) // 10):
        d[(i, i % 7)] = [i, i + 1]
    return s + len(d)


def time_reference(reference: Reference) -> float:
    start = time.perf_counter()
    reference_loop(reference)
    return time.perf_counter() - start


def scaled(times: list, refs: list, loop_s: float) -> list:
    """Each time scaled to the reference speed by the reference loops timed
    next to it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        out.append(t * loop_s / statistics.median(near))
    return out


def low_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0]


def run_pass(ops, order: list, frozen: dict, problems: dict, reference: Reference) -> dict:
    """One pass over the op list, in the given order of op indices.  Op
    times exclude the reference loops and the checks."""
    from workloads import CliResult, Problem, digest

    times, refs = [0.0] * len(ops), []
    failed, wrong = set(), set()
    out_bytes = 0
    clock = time.perf_counter
    for i in order:
        op = ops[i]
        # Each op starts from an empty young heap, so when the collector runs
        # inside an op does not depend on the ops before it (the seed's order).
        gc.collect()
        start = clock()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a library op that raised: record it, keep going
            error = exc
        times[i] = clock() - start
        refs.append(time_reference(reference))
        if error is not None:
            found = [Problem("exception", f"{type(error).__name__}: {error}", wrong=False)]
        else:
            found = op.check(result)
            if isinstance(result, CliResult):
                out_bytes += len(result.out.encode())
            if op.frozen and frozen.get(op.key) != digest(op, result):
                detail = "answer differs from the table frozen at the seed commit"
                found.append(Problem("frozen-digest", detail, wrong=True))
        if found:
            failed.add(i)
            if any(p.wrong for p in found):
                wrong.add(i)
            for p in found:
                problems.setdefault((op.key, p.check), p)
        result = error = None
    scaled_times = [0.0] * len(ops)
    for i, t in zip(order, scaled([times[i] for i in order], refs, reference.loop_s)):
        scaled_times[i] = t
    return {"wall": sum(times), "times": times, "scaled": scaled_times,
            "failed": failed, "wrong": wrong, "out_bytes": out_bytes}


def time_setup(workload: str, seed: int, reference: Reference) -> tuple:
    """Wall time of a fresh process that imports treeends, builds the
    workload's inputs and exits: raw, and scaled to the reference speed by
    reference loops timed just before and after it."""
    refs = [time_reference(reference) for _ in range(REF_WINDOW)]
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - start
    refs += [time_reference(reference) for _ in range(REF_WINDOW)]
    return elapsed, elapsed * reference.loop_s / statistics.median(refs)


def run_workload(args) -> int:
    corpus = load_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = build_ops(args.workload, args.seed, corpus, work)
        if args.setup_only:
            return 0
        reference = make_reference(args.workload)
        gc.collect()
        gc.freeze()  # the inputs stay alive all run; keep them out of every collection
        frozen = json.loads((HERE / "expected.json").read_text())["digests"]
        return measure(args, ops, frozen, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ops, frozen, reference) -> int:
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    # Every pass runs the ops in a new order drawn from the seed.  An op's time
    # depends a little on the ops before it (the heap and caches they leave),
    # so one fixed order would make that a property of the seed; with a new
    # order each pass it averages out over the passes.
    rng = random.Random(args.seed)
    problems: dict = {}
    plain, traced, layers, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        order = rng.sample(range(len(ops)), len(ops))
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(ops, order, frozen, problems, reference)
            finally:
                tracer.uninstall()
            traced.append(result)
            layers.append(tracer.metrics(len(ops), result["out_bytes"]))
            if len(traced) == 1:
                spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tracer.write(spans_path)
        else:
            plain.append(run_pass(ops, order, frozen, problems, reference))
            if tracer is None:
                # Spread the set-up samples over the run, like the passes.
                setups.append(time_setup(args.workload, args.seed, reference))
        passes = len(plain) + len(traced)
        if (passes >= MIN_PASSES and time.perf_counter() - start >= args.seconds
                and (tracer is not None or len(setups) >= SETUP_REPEATS)):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every op is checked on every pass, but the counts are over the op list:
    # an op counts as failed if any of its passes failed.  The number of
    # passes depends on the machine's speed; these counts depend on the seed.
    runs = plain + traced
    attempted = len(ops)
    failed = len(set().union(*(r["failed"] for r in runs)))
    wrong = len(set().union(*(r["wrong"] for r in runs)))
    # Each op's time is the first quartile of its scaled times over the
    # untraced passes.  Other tenants only ever slow an op down, so a low
    # quantile is the least disturbed reading; the scaling removes the slower
    # drift of the whole machine that no quantile of one run can.  The fastest
    # pass would favour the passes whose reference loops ran slow, which
    # spreads the scaled times more than the first quartile does.
    op_ms = [low_quartile([r["scaled"][i] for r in plain]) * 1000 for i in range(len(ops))]
    raw_ms = [low_quartile([r["times"][i] for r in plain]) * 1000 for i in range(len(ops))]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
            "wall_s": sum(op_ms) / 1000,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        kinds: dict = {}
        for op, ms in zip(ops, op_ms):
            kinds[op.kind] = kinds.get(op.kind, 0.0) + ms / 1000
        for kind, wall in sorted(kinds.items()):
            print(f"  {kind + '_wall_s':<34} {wall:12.4f} s")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:12.4f} {m['unit']}")
        beyond = sum(1 for ms in op_ms if ms > metrics["op_p90_ms"]["value"])
        print(f"  op latencies: {len(op_ms)} ops, each the first quartile of {len(plain)} passes; "
              f"{beyond} lie beyond op_p90_ms")
        print(f"  unscaled: setup_s {statistics.median(raw for raw, _ in setups):.4f} s, "
              f"wall_s {sum(raw_ms) / 1000:.4f} s, op_p50_ms {statistics.median(raw_ms):.4f} ms, "
              f"op_p90_ms {statistics.quantiles(raw_ms, n=10)[8]:.4f} ms; machine speed "
              f"{statistics.median(sum(r['scaled']) / sum(r['times']) for r in plain):.3f}x "
              f"the reference")
    else:
        metrics = {}
        for name, (value, unit) in layers[0].items():
            if unit == "ms":
                value = statistics.median(layer[name][0] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        # Both walls scaled to the reference speed, like wall_s.
        overhead = (statistics.median(sum(r["scaled"]) for r in traced)
                    - statistics.median(sum(r["scaled"]) for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:14.4f} {m['unit']}")
        print(f"  spans of the first traced pass: {spans_path.relative_to(ROOT)}")

    print(f"correctness: {attempted - failed}/{attempted} ops ok, {failed} failed "
          f"({wrong} with a wrong answer), fail_ratio {failed / attempted:.6f}")
    for (key, check), p in sorted(problems.items()):
        kind = "wrong answer" if p.wrong else "failed"
        print(f"  {kind}: op [{key}] check {check}: {p.detail}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            sys.exit("error: --setup-only needs one workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
