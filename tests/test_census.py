"""Pins over every small valid germ (see ``census.py``).

The closed forms are digested over the whole census, so any change to an
end report, a default ray or a rank tower on a small germ shows.  The
oracle battery is slower, so it runs on a fixed stride of the census, and
its known false fails are pinned by count.
"""

import hashlib
from collections import Counter

from census import census
from corpus import CORPUS
from treeends.classify import RULES, classify_ends, cross_checks, default_ray, pro_h1_fixed_end

CENSUS = census()

# sha256 over one repr((end report, default ray, rank tower to depth 4 or
# None)) line per census germ, in census order
CLOSED_FORM_DIGEST = "532c9bf8a2c19953685919b1b84f2416f7da3d16a2bbd3e3e9dad04eb6ba0501"

BATTERY_STRIDE = 5


def test_census_size_and_end_histogram():
    histogram = Counter()
    for g in CENSUS:
        ends = classify_ends(g)
        histogram[ends.end_class.value, ends.fixed_end_count] += 1
    assert len(CENSUS) == 2262
    assert histogram == {
        ("OneEnded", 1): 1756,
        ("InfiniteCountable", 1): 202,
        ("InfiniteCountable", 2): 196,
        ("InfiniteUncountable", 1): 12,
        ("InfiniteUncountable", 2): 96,
    }


def test_closed_forms_are_frozen():
    digest = hashlib.sha256()
    for g in CENSUS:
        ends = classify_ends(g)
        ranks = pro_h1_fixed_end(g, 4, ends) if ends.fixed_end_count == 1 else None
        digest.update(repr((ends, default_ray(g), ranks)).encode() + b"\n")
    assert digest.hexdigest() == CLOSED_FORM_DIGEST


def test_every_rule_is_cited():
    # the census germs cite every rule but the trivial germ's own
    cited = {rule for g in CENSUS for rule in classify_ends(g).rationale}
    assert cited == set(RULES) - {"trivial-germ"}
    assert classify_ends(CORPUS["trivial"]).rationale == ("trivial-germ",)


def test_battery_fails_only_where_known():
    # Both are known false fails of the oracle, not wrong closed forms; a
    # fix of either lowers its count here.  On the full census the counts
    # are 159 and 6.
    fails = Counter()
    for g in CENSUS[::BATTERY_STRIDE]:
        for check in cross_checks(g, classify_ends(g), default_ray(g)):
            if check.status == "fail":
                fails[check.name] += 1
    assert fails == {"collapse-surjective": 31, "null-growth": 1}
