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
    "corpus/bs3": "20c7658c91f6356a6fc9ec1d42b0b7bf6a841b0fa16240c004b85a9b957d34d4",
    "corpus/deep_null_entry": "ca442c103244c1447ba0f460f36ea870540354387404fe7152f9b586190222c3",
    "corpus/mixed": "ab6f531de4482c3113668be130e1bf954a876e515a0d7df224d0c165cf492c1a",
    "corpus/mixed2": "bedb4a2bea2f9cf02ef185fe290ad3ad88c9f98d3e76c2d908f491b12e337219",
    "corpus/null_binary": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "corpus/null_ray": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "corpus/ray1": "900ec0d7158d9765dbc06506c9c49f191fe54e876f79e6cb717c97c824a362c9",
    "corpus/spin": "d54390dd1d3fc2f260fb8f213f7ddff04af9c9a3c29e3004c7cf3e58fe0d02e3",
    "corpus/trivial": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "corpus/two_loops": "23651f361bb5ff0bb2afb75290885d047daad0329e1771540a7b3d102de7c0d2",
    "corpus/uncountable_cycles": "6b4bc49f80c6b47e9ecd2e67af54ff870a848bd659314aefdebe0c89b0b6fbdc",
    "germs/bs2.germ": "5a15fdd9e262e98933ee13ff53caca7af75bd1f55cac969b693e971a44ac7e85",
    "germs/mixed.germ": "ab6f531de4482c3113668be130e1bf954a876e515a0d7df224d0c165cf492c1a",
    "germs/null_binary.germ": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "germs/null_ray.germ": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "germs/spin.germ": "d54390dd1d3fc2f260fb8f213f7ddff04af9c9a3c29e3004c7cf3e58fe0d02e3",
    "germs/trivial.germ": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "germs/two_loops.germ": "23651f361bb5ff0bb2afb75290885d047daad0329e1771540a7b3d102de7c0d2",
}

# runs per outcome, refusing stages in the plan's order
STAGES = {
    "battery": 1180,
    "truncation at tier 2": 72,
    "truncation at tier 3": 48,
    "truncation at tier 4": 32,
    "coset tree vertices": 116,
    "telescope cells": 114,
    "cover cells": 400,
    "frontier graph cells": 14,
}

# The runs that only the frontier tower's size refuses.  Its last graph reads
# one tier past the covers' clone tree, which happens at depths 1 and 2 only.
FRONTIER_REFUSALS = [
    ("corpus/bs3", 1, 1, 80),
    ("corpus/bs3", 2, 1, 300),
    ("corpus/spin", 1, 1, 80),
    ("corpus/spin", 2, 1, 300),
    ("corpus/two_loops", 1, 1, 150),
    ("corpus/two_loops", 2, 1, 600),
    ("corpus/two_loops", 2, 1, 1200),
    ("corpus/two_loops", 2, 4, 1200),
    ("germs/spin.germ", 1, 1, 80),
    ("germs/spin.germ", 2, 1, 300),
    ("germs/two_loops.germ", 1, 1, 150),
    ("germs/two_loops.germ", 2, 1, 600),
    ("germs/two_loops.germ", 2, 1, 1200),
    ("germs/two_loops.germ", 2, 4, 1200),
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


if __name__ == "__main__":
    for key in SWEEP_GERMS:
        print(f'    "{key}": "{germ_digest(key)}",')
    for stage, n in stage_counts().items():
        print(f'    "{stage}": {n},')
