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
    "corpus/bs2": "d59333494a9863b1a6e9c52a5541bc2ebe41c2cd0f9f8b8087c7537044ed81c0",
    "corpus/bs3": "5dbd2be469f6eb02bcb1f6c564a785e6880712a2d9b922567ff93977d9be417a",
    "corpus/deep_null_entry": "52917be88d8d4f98c507bd4388fb7e074db79f784c67b45378fd3f49c144f088",
    "corpus/mixed": "dc40bc1a99444440416cedadbfafc3fcefb3c0ad06a4fb8a35510e92cea5079c",
    "corpus/mixed2": "cc7ad33698a758d2954060ec0bbfe5e41ce9131cdaac5200982eb124e26cb255",
    "corpus/null_binary": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "corpus/null_ray": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "corpus/ray1": "0716ebaa4880a12ee1627e6a67677cd3d174d2f68d8ba7ca75c39cd237aab2df",
    "corpus/spin": "5ad92ead035d91e6c5b394317f13cd18e33d1fd37d997579c4c08fc58bca45c5",
    "corpus/trivial": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "corpus/two_loops": "e2c0e7aabcc9108dd5330101d090f30bb962c855a4e704ac1484a004f6a4893f",
    "corpus/uncountable_cycles": "717dad45aa33f13f41b882e912695b8bffa149e0ff503a28be77f1384530a240",
    "germs/bs2.germ": "d59333494a9863b1a6e9c52a5541bc2ebe41c2cd0f9f8b8087c7537044ed81c0",
    "germs/mixed.germ": "dc40bc1a99444440416cedadbfafc3fcefb3c0ad06a4fb8a35510e92cea5079c",
    "germs/null_binary.germ": "a056306d72c6340da26d89d05a4d17d5e6a4b7a85a1e88ff45ef5b9268f0c348",
    "germs/null_ray.germ": "74406f8f8001cf0742c1fb8bb4e43a39e967c4abe94b5c9d7328c1f09173006b",
    "germs/spin.germ": "5ad92ead035d91e6c5b394317f13cd18e33d1fd37d997579c4c08fc58bca45c5",
    "germs/trivial.germ": "9d52bbf29e5d114f4cf9f8d1b23f657c053ad395ce3eef2070771acbd624a124",
    "germs/two_loops.germ": "e2c0e7aabcc9108dd5330101d090f30bb962c855a4e704ac1484a004f6a4893f",
}

# runs per outcome, refusing stages in the plan's order
STAGES = {
    "battery": 1194,
    "truncation at tier 2": 72,
    "truncation at tier 3": 48,
    "truncation at tier 4": 32,
    "coset tree vertices": 72,
    "telescope cells": 146,
    "cover cells": 412,
}


def test_table_covers_every_germ():
    assert len(SWEEP_GERMS) == len(CORPUS) + 7
    assert sorted(DIGESTS) == sorted(SWEEP_GERMS)


@pytest.mark.parametrize("key", sorted(SWEEP_GERMS))
def test_outcomes_are_frozen(key):
    assert germ_digest(key) == DIGESTS.get(key)


def test_every_stage_refuses_somewhere():
    assert stage_counts() == STAGES


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
