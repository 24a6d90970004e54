"""Acceptance suite: nine criteria, one verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see the verdict lines; each
test prints its line before asserting so a red criterion still reports.
Budgets are wall-clock seconds, pinned per criterion.
"""

import itertools
import time
from pathlib import Path

from corpus import CORPUS, ONE_FIXED_END
from treeends.classify import classify_ends, full_report, pro_h1_fixed_end
from treeends.coset import (
    CosetTree,
    OdometerMap,
    clone_tree_models,
    colored_trees_isomorphic,
    frontier_count,
)
from treeends.cw import (
    build_base,
    build_cover,
    collapse_h1_matrix,
    h1,
    induced_h1,
    infinity_neighborhood_base,
)
from treeends.germ import parse_germ, validate_germ
from treeends.proseq import (
    TRIVIAL,
    MultSequence,
    classify_mult,
    epi_normal_form,
    inverse_limit_mult,
    ladder_search,
    verify_ladder,
)
from treeends.reduce import elementary_reduction, germ_power
from treeends.unfold import (
    growth_class,
    null_end_class,
    null_forest,
    null_path_counts,
    positive_part,
    truncate,
)

GERMS = Path(__file__).resolve().parent.parent / "germs"


def verdict(num: int, problems: list, elapsed: float, budget: float, note: str):
    ok = not problems and elapsed <= budget
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({note}; {elapsed:.2f}s, budget {budget:.0f}s)"
    print(line)
    assert not problems, f"criterion {num}: {problems[:3]}"
    assert elapsed <= budget, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_1_full_pipeline():
    started = time.time()
    problems = []
    g = parse_germ((GERMS / "bs2.germ").read_text())
    if not validate_germ(g).ok:
        problems.append("sample germ failed validation")
    report = full_report(g)
    if report.ends.end_class.value != "OneEnded":
        problems.append(f"end class {report.ends.end_class}")
    if tuple(report.ranks.ranks) != (0, 1, 3, 7, 15):
        problems.append(f"ranks {report.ranks.ranks}")
    if str(report.ray_sequence) != "cycle:2":
        problems.append(f"ray sequence {report.ray_sequence}")
    fails = [c.name for c in report.checks if c.status == "fail"]
    if fails:
        problems.append(f"battery fails {fails}")
    base = build_base(truncate(g, 3))
    if h1(base.complex).betti != 1 or h1(base.complex).torsion:
        problems.append("base telescope is not a single circle")
    for i in range(4):
        sel = infinity_neighborhood_base(base, i)
        if induced_h1(base.complex, sel) != [[2 ** i]]:
            problems.append(f"neighborhood {i} multiplier")
    t = truncate(g, 2)
    cover = build_cover(CosetTree(t), null_forest(t), 2)
    if len(cover.complex.components()) != 1:
        problems.append("cover is disconnected")
    if cover.complex.num_vertices != 35:
        problems.append(f"cover size {cover.complex.num_vertices}")
    verdict(
        1,
        problems,
        time.time() - started,
        10.0,
        "validate, classify, telescope, neighborhoods, cover on the doubling germ",
    )


def test_criterion_2_end_trichotomy():
    started = time.time()
    problems = []
    expected = {
        "trivial": ("TwoEnded", 2),
        "bs2": ("OneEnded", 1),
        "null_ray": ("InfiniteCountable", 2),
    }
    for name, (end_class, fixed) in expected.items():
        report = classify_ends(CORPUS[name])
        got = (report.end_class.value, report.fixed_end_count)
        if got != (end_class, fixed):
            problems.append(f"{name}: {got}")
    verdict(2, problems, time.time() - started, 1.0, "three germs, three end classes")


def test_criterion_3_null_cardinality_flip():
    started = time.time()
    problems = []
    ray = null_end_class(CORPUS["null_ray"])
    binary = null_end_class(CORPUS["null_binary"])
    if str(ray) != "CountablyInfinite":
        problems.append(f"single null ray: {ray}")
    if str(binary) != "Uncountable":
        problems.append(f"branching null rays: {binary}")
    # growth of null path counts is the independent route to the same split
    for name, expected in [("null_ray", "polynomial"), ("null_binary", "exponential")]:
        counts = null_path_counts(CORPUS[name], 12)
        got = growth_class(counts)
        if got.value != expected:
            problems.append(f"{name} growth {got.value}")
    verdict(3, problems, time.time() - started, 1.0, "one extra zero edge flips the null ends to uncountable")


def test_criterion_4_clone_tree_routes_agree():
    started = time.time()
    problems = []
    pairs = 0
    for name in sorted(CORPUS):
        for depth in range(1, 5):
            via_coset, via_wedge = clone_tree_models(CORPUS[name], depth)
            pairs += 1
            if not colored_trees_isomorphic(via_coset, via_wedge):
                problems.append(f"{name} depth {depth}")
    verdict(4, problems, time.time() - started, 30.0, f"{pairs} coset/wedge clone tree pairs")


def test_criterion_5_odometer_orbits():
    started = time.time()
    problems = []
    checked = 0
    for name in sorted(CORPUS):
        for depth in range(1, 5):
            c = CosetTree(positive_part(truncate(CORPUS[name], depth)))
            od = OdometerMap(c)
            for vi in range(len(c.verts)):
                bid, _ = c.verts[vi]
                order = c.order_of[bid]
                at = vi
                length = 0
                while True:
                    at = od.image_index(at, 1)
                    length += 1
                    if at == vi:
                        break
                    if length > order:
                        break
                if length != order:
                    problems.append(f"{name} d={depth} vert {vi}: orbit {length} != {order}")
                parent = c.parent_idx[vi]
                if parent is not None:
                    if od.image_index(parent, 1) != c.parent_idx[od.image_index(vi, 1)]:
                        problems.append(f"{name} d={depth} vert {vi}: parent mismatch")
                checked += 1
    verdict(5, problems, time.time() - started, 10.0, f"{checked} clone vertices cycle with their stage order")


def test_criterion_6_collapse_maps_are_onto():
    started = time.time()
    problems = []
    bonds = 0
    for name in ONE_FIXED_END:
        c = CosetTree(positive_part(truncate(CORPUS[name], 4)))
        for i in range(4):
            bond = collapse_h1_matrix(c, i)
            bonds += 1
            if not bond.surjective():
                problems.append(f"{name} radius {i}")
    verdict(6, problems, time.time() - started, 30.0, f"{bonds} frontier collapse maps with trivial cokernel")


def test_criterion_7_reduction_invariance():
    started = time.time()
    problems = []
    for name in sorted(CORPUS):
        g = CORPUS[name]
        base = classify_ends(g)
        for m in (2, 3):
            powered = germ_power(g, m)
            got = classify_ends(powered)
            fields = (
                got.end_class,
                got.fixed_end_count,
                got.gamma_plus_finite,
                str(got.null_ends),
            )
            want = (
                base.end_class,
                base.fixed_end_count,
                base.gamma_plus_finite,
                str(base.null_ends),
            )
            if fields != want:
                problems.append(f"{name} power {m}: {fields}")
            for i in range(0, 5):
                if m * i > 4:
                    break
                if frontier_count(powered, i) != frontier_count(g, m * i):
                    problems.append(f"{name} power {m} tier {i}: frontier mismatch")
        t = truncate(g, 3)
        for i in range(3):
            if elementary_reduction(t, i, i + 1) != t:
                problems.append(f"{name}: empty interval at {i} is not the identity")
    verdict(7, problems, time.time() - started, 10.0, "classification and frontiers survive germ powers")


def test_criterion_8_sequence_family_certificates():
    started = time.time()
    problems = []
    labels = (0, 1, 2)
    total = 0
    certified = 0
    for plen in range(3):
        for prefix in itertools.product(labels, repeat=plen):
            for clen in (1, 2):
                for cycle in itertools.product(labels, repeat=clen):
                    s = MultSequence(prefix, cycle)
                    total += 1
                    cert = ladder_search(s, TRIVIAL, depth=3)
                    if (cert is not None) != classify_mult(s).pro_trivial:
                        problems.append(f"{s}: trivial certificate mismatch")
                        continue
                    if cert is not None:
                        certified += 1
                        if not verify_ladder(s, TRIVIAL, cert):
                            problems.append(f"{s}: certificate fails recheck")
                        if inverse_limit_mult(s).value != "Zero":
                            problems.append(f"{s}: certified trivial but limit nonzero")
                    nf = epi_normal_form(s)
                    if nf is not None and nf is not TRIVIAL:
                        cert2 = ladder_search(s, nf, depth=4)
                        if cert2 is None or not verify_ladder(s, nf, cert2):
                            problems.append(f"{s}: no ladder to its normal form")
                        elif inverse_limit_mult(s) != inverse_limit_mult(nf):
                            problems.append(f"{s}: limit differs from normal form")
                        else:
                            certified += 1
    if total != 156:
        problems.append(f"family size {total}")
    verdict(
        8,
        problems,
        time.time() - started,
        60.0,
        f"{total} towers swept, {certified} certificates verified",
    )


def test_criterion_9_horizon_stability():
    started = time.time()
    problems = []
    g = CORPUS["bs2"]
    ends = classify_ends(g)
    deeper = pro_h1_fixed_end(g, 5, ends)
    if tuple(deeper.ranks[:5]) != tuple(pro_h1_fixed_end(g, 4, ends).ranks):
        problems.append("rank tower changes under a deeper horizon")
    report = full_report(g, depth=5, height=5)
    if report.ends.end_class.value != "OneEnded" or str(report.ray_sequence) != "cycle:2":
        problems.append("deeper classification drifted")
    if any(c.status == "fail" for c in report.checks):
        problems.append("battery fails at the deeper horizon")
    base = build_base(truncate(g, 4))
    for i in range(4):
        if induced_h1(base.complex, infinity_neighborhood_base(base, i)) != [[2 ** i]]:
            problems.append(f"deeper telescope neighborhood {i}")
    t = truncate(g, 2)
    cover = build_cover(CosetTree(t), null_forest(t), 3)
    if len(cover.complex.components()) != 1:
        problems.append("taller cover is disconnected")
    for name in ONE_FIXED_END:
        c = CosetTree(positive_part(truncate(CORPUS[name], 5)))
        for i in range(4):
            if not collapse_h1_matrix(c, i).surjective():
                problems.append(f"{name} radius {i} at depth 5")
    verdict(9, problems, time.time() - started, 60.0, "criteria 1 and 6 answers survive one deeper horizon")
