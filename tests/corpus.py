"""Shared germ corpus for the test suite.

Each germ is closed under edge powering (labels stay within the declared
vertex set), so the reduction invariance tests can run on all of them.
"""

from treeends.germ import germ_from_edges

CORPUS = {
    "trivial": germ_from_edges("A", []),
    "bs2": germ_from_edges("A", [("A", "A", 2)]),
    "bs3": germ_from_edges("A", [("A", "A", 3)]),
    "ray1": germ_from_edges("A", [("A", "A", 1)]),
    "two_loops": germ_from_edges("A", [("A", "A", 2), ("A", "A", 3)]),
    "null_ray": germ_from_edges("A", [("A", "B", 0), ("B", "B", 0)]),
    "null_binary": germ_from_edges(
        "A", [("A", "B", 0), ("B", "B", 0), ("B", "B", 0)]
    ),
    "mixed": germ_from_edges("A", [("A", "A", 1), ("A", "B", 0), ("B", "B", 0)]),
    "mixed2": germ_from_edges("A", [("A", "A", 2), ("A", "B", 0), ("B", "B", 0)]),
    "spin": germ_from_edges("A", [("A", "B", 2), ("B", "A", 3), ("A", "A", 1)]),
    "deep_null_entry": germ_from_edges(
        "R",
        [
            ("R", "R", 1),
            ("R", "S", 2),
            ("S", "T", 1),
            ("T", "T", 2),
            ("S", "U", 0),
            ("U", "U", 0),
        ],
    ),
    "uncountable_cycles": germ_from_edges(
        "A",
        [
            ("A", "A", 1),
            ("A", "B", 0),
            ("B", "C", 0),
            ("C", "B", 0),
            ("C", "C", 0),
        ],
    ),
}

ONE_FIXED_END = [
    "bs2",
    "bs3",
    "ray1",
    "two_loops",
    "mixed",
    "mixed2",
    "spin",
    "deep_null_entry",
    "uncountable_cycles",
]
