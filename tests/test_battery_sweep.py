"""Refusal-stage guard for the oracle battery.

``cross_checks`` runs on every germ of ``tests/corpus.py`` and every valid
germ in ``germs/``, at each depth, height and ceiling of the grid below.
Each run ends either in its check lines or in a ``SizeCeilingError``, whose
message names the stage that refused.  The tables freeze the sha256 of each
germ's outcomes, in grid order, and the number of runs that end at each
stage.  A change that keeps the battery's size plan and its checks keeps
both tables.  The library is called directly, since the command line
floors ``--ceiling`` at 1000, above the early stages.

Regenerate the tables, only for an intended change of outcome, with
``PYTHONPATH=src python tests/test_battery_sweep.py``.
"""

import functools
import hashlib
import itertools
from collections import Counter
from pathlib import Path

import pytest

from corpus import CORPUS
from treeends.classify import classify_ends, cross_checks, default_ray
from treeends.errors import SizeCeilingError
from treeends.germ import parse_germ, validate_germ

GERMS = Path(__file__).resolve().parent.parent / "germs"

DEPTHS = (1, 2, 3, 4)
HEIGHTS = (1, 4)
CEILINGS = (5, 10, 20, 40, 80, 150, 300, 600, 1200, 2500, 5000, 20000, 200000)
GRID = tuple(itertools.product(DEPTHS, HEIGHTS, CEILINGS))


def sweep_germs() -> dict:
    """Key -> germ: the corpus, then the valid germ files."""
    germs = {f"corpus/{name}": g for name, g in sorted(CORPUS.items())}
    for path in sorted(GERMS.glob("*.germ")):
        g = parse_germ(path.read_text(encoding="utf-8"))
        if validate_germ(g).ok:
            germs[f"germs/{path.name}"] = g
    return germs


SWEEP_GERMS = sweep_germs()


@functools.cache
def outcomes(key: str) -> tuple:
    """(stage, text) per grid point: "battery" and the check lines, or the
    refusing stage and its message."""
    g = SWEEP_GERMS[key]
    ends, ray = classify_ends(g), default_ray(g)
    out = []
    for depth, height, ceiling in GRID:
        try:
            checks = cross_checks(g, ends, ray, depth, height, ceiling)
        except SizeCeilingError as exc:
            out.append((exc.what, f"refused: {exc}"))
        else:
            out.append(("battery", "\n".join(map(str, checks))))
    return tuple(out)


def germ_digest(key: str) -> str:
    text = "\n\n".join(f"{stage}\n{lines}" for stage, lines in outcomes(key))
    return hashlib.sha256(text.encode()).hexdigest()


def stage_counts() -> dict:
    return dict(Counter(stage for key in SWEEP_GERMS for stage, _ in outcomes(key)))


DIGESTS = {
    "corpus/bs2": "5a15fdd9e262e98933ee13ff53caca7af75bd1f55cac969b693e971a44ac7e85",
    "corpus/bs3": "a48a1a605247c0148ed62f62d05d90ec9d37204ff40d0268e61f9e8e118f31f0",
    "corpus/deep_null_entry": "ca442c103244c1447ba0f460f36ea870540354387404fe7152f9b586190222c3",
    "corpus/mixed": "ab6f531de4482c3113668be130e1bf954a876e515a0d7df224d0c165cf492c1a",
    "corpus/mixed2": "bedb4a2bea2f9cf02ef185fe290ad3ad88c9f98d3e76c2d908f491b12e337219",
    "corpus/null_binary": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "corpus/null_ray": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "corpus/ray1": "900ec0d7158d9765dbc06506c9c49f191fe54e876f79e6cb717c97c824a362c9",
    "corpus/spin": "ab824175c7bcf7c29d7eefac0b4cd3331b350282fcb68f569aca55e87e3665cc",
    "corpus/trivial": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "corpus/two_loops": "0221c89ffd3b8ae885b22dbb0298e43e38e50b987bded8c0fc67c347b488c34d",
    "corpus/uncountable_cycles": "6b4bc49f80c6b47e9ecd2e67af54ff870a848bd659314aefdebe0c89b0b6fbdc",
    "germs/bs2.germ": "5a15fdd9e262e98933ee13ff53caca7af75bd1f55cac969b693e971a44ac7e85",
    "germs/mixed.germ": "ab6f531de4482c3113668be130e1bf954a876e515a0d7df224d0c165cf492c1a",
    "germs/null_binary.germ": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "germs/null_ray.germ": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "germs/spin.germ": "ab824175c7bcf7c29d7eefac0b4cd3331b350282fcb68f569aca55e87e3665cc",
    "germs/trivial.germ": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "germs/two_loops.germ": "0221c89ffd3b8ae885b22dbb0298e43e38e50b987bded8c0fc67c347b488c34d",
}

# runs per outcome, refusing stages in the plan's order
STAGES = {
    "battery": 1192,
    "truncation at tier 2": 72,
    "truncation at tier 3": 48,
    "truncation at tier 4": 32,
    "coset tree vertices": 116,
    "telescope cells": 114,
    "cover cells": 400,
    "frontier graph cells": 2,
}

# The runs that only the frontier tower's size refuses.  Its last graph reads
# one tier past the covers' clone tree, which happens at depths 1 and 2 only.
FRONTIER_REFUSALS = [
    ("corpus/two_loops", 2, 1, 600),
    ("germs/two_loops.germ", 2, 1, 600),
]


def test_table_covers_every_germ():
    assert len(SWEEP_GERMS) == len(CORPUS) + 7
    assert sorted(DIGESTS) == sorted(SWEEP_GERMS)


@pytest.mark.parametrize("key", sorted(SWEEP_GERMS))
def test_outcomes_are_frozen(key):
    assert germ_digest(key) == DIGESTS.get(key)


def test_every_stage_refuses_somewhere():
    assert stage_counts() == STAGES


def test_frontier_refusals_are_the_shallow_windows():
    refused = [
        (key, *point)
        for key in SWEEP_GERMS
        for point, (stage, _) in zip(GRID, outcomes(key))
        if stage == "frontier graph cells"
    ]
    assert refused == FRONTIER_REFUSALS


def test_runs_that_fit_print_what_the_roomiest_ceiling_prints():
    """A run that no stage refuses prints the same check lines as its germ
    at the same depth and height under the roomiest ceiling of the grid.
    (The power germs' own ceiling, which turns a check into a skip, is not
    reached on these germs; ``tests/test_cli.py::TestPowerGermCeiling``
    pins it.)"""
    for key in SWEEP_GERMS:
        out = dict(zip(GRID, outcomes(key)))
        for (depth, height, _), (stage, lines) in out.items():
            if stage == "battery":
                assert lines == out[(depth, height, CEILINGS[-1])][1], (key, depth, height)


if __name__ == "__main__":
    for key in SWEEP_GERMS:
        print(f'    "{key}": "{germ_digest(key)}",')
    for stage, n in stage_counts().items():
        print(f'    "{stage}": {n},')
