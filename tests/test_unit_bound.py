"""The unit bound turns the bounded search into a decision: if delta is a
sum of two squares, some witness has every coordinate within
oracles.unit_bound(delta).  So at that bound a miss is a proof, and the
search is a two-sided oracle for the criterion."""

import random
from math import isqrt

import pytest

from oracles import full_box_scan, unit_bound
from twosquares.criterion import DecisionStatus, decide_generic
from twosquares.ring import QuadInt
from twosquares.search import MAX_SEARCH_BOUND, _unit_route, find_representation

R = DecisionStatus.REPRESENTABLE
G = DecisionStatus.GLOBAL_OBSTRUCTION
U = DecisionStatus.UNKNOWN


def _box(d: int, size: int) -> list[QuadInt]:
    r = range(-size, size + 1)
    return [QuadInt(a, b, d) for a in r for b in r if a or b]


def _near_3e7(rng: random.Random, count: int) -> list[QuadInt]:
    # a in 5400..5499 and even |b| <= 100: N(delta) ~ 3.04e7, so the unit
    # bound is about 288, just under MAX_SEARCH_BOUND
    grid = [QuadInt(a, b) for a in range(5400, 5500) for b in range(-100, 101, 2)]
    return rng.sample(grid, count)


def _search_agrees(delta: QuadInt) -> bool:
    found = find_representation(delta, unit_bound(delta)).witness is not None
    return (decide_generic(delta, None).status is R) == found


def test_unit_bound_fixed():
    # B = isqrt(c * (isqrt(N) + 1)) + 1, with c = 15 at d = -14, 649 at -13
    # and 197 at -22: isqrt(30) + 1, isqrt(1298) + 1, isqrt(394) + 1, and
    # N = 9375 for 25 + 25 sqrt(-14) gives isqrt(15 * 97) + 1
    cases = {(1, 0, -14): 6, (1, 0, -13): 37, (1, 0, -22): 20, (25, 25, -14): 39}
    for (a, b, d), bound in cases.items():
        assert unit_bound(QuadInt(a, b, d)) == bound, (a, b, d)
    for d in (-1, 2, 3):  # no Pell unit: d = -1 puts i in K, d > 0 needs none
        with pytest.raises(ValueError):
            unit_bound(QuadInt(1, 1, d))


def test_bound_100_proves_the_box_25_hits(acceptance_sweep):
    # every witness class of a box-25 delta meets the hunt's bound, so each
    # hit's miss at bound 100 is a proof, not only the criterion's verdict
    result, _ = acceptance_sweep
    box, bound = result.summary["box"], result.summary["bound"]
    assert (box, bound) == (25, 100)
    assert max(unit_bound(delta) for delta in _box(-14, box)) == 39 <= bound


def test_criterion_equals_search_at_the_unit_bound():
    deltas = _box(-14, 40)
    assert len(deltas) == 6560
    assert [delta for delta in deltas if not _search_agrees(delta)] == []


def test_criterion_equals_search_at_the_unit_bound_near_3e7():
    deltas = _near_3e7(random.Random(2027), 600)
    assert max(unit_bound(delta) for delta in deltas) <= MAX_SEARCH_BOUND
    statuses = {decide_generic(delta, None).status for delta in deltas}
    assert statuses == set(DecisionStatus) - {U}  # every verdict is tried
    assert [delta for delta in deltas if not _search_agrees(delta)] == []


def test_unmasked_scan_agrees_at_the_unit_bound():
    # full_box_scan tries every x of the box, with no residue masks; it
    # checks two deltas of each verdict from box 40 and one near 3e7
    rng = random.Random(2028)
    handful = []
    for deltas, per_status in ((rng.sample(_box(-14, 40), 60), 2), (_near_3e7(rng, 60), 1)):
        by_status = {}
        for delta in deltas:
            by_status.setdefault(decide_generic(delta, None).status, []).append(delta)
        handful += [delta for group in by_status.values() for delta in group[:per_status]]
    assert len(handful) == 9
    for delta in handful:
        found = full_box_scan(delta, unit_bound(delta))[0] is not None
        assert (decide_generic(delta, None).status is R) == found, delta


def test_unknowns_of_other_rings_are_settled_at_the_unit_bound():
    # decide_generic's bound-50 search leaves these deltas of |a|, |b| <= 15
    # unknown, where the orbit route does not fit; at the unit bound each is
    # a proven global obstruction (a miss) or representable (a witness)
    expected = {-6: (0, 0), -10: (0, 0), -13: (0, 19), -21: (20, 0), -22: (53, 4), -30: (0, 0)}
    settled, hits = {}, []
    for d in expected:
        misses = found = 0
        for delta in _box(d, 15):
            if decide_generic(delta, 50).status is not U:
                continue
            bound = unit_bound(delta)
            assert bound <= MAX_SEARCH_BOUND, delta
            if find_representation(delta, bound).witness is None:
                misses += 1
            else:
                found += 1
                if d == -22:
                    hits.append((delta.a, delta.b))
        settled[d] = (misses, found)
    assert settled == expected
    assert sorted(hits) == [(-4, -10), (-4, 10), (6, -8), (6, 8)]


def test_proven_misses_of_other_rings_have_no_witness():
    # Off d = -14, decide_generic answers global_obstruction only where its
    # search's miss covers every witness: on the orbit route for d < -1, and
    # for d > 0 at a bound of at least isqrt(a), as every witness has
    # u^2 + d v^2 + s^2 + d t^2 = a.  full_box_scan, with no masks and no
    # orbits, finds no witness at those exhaustive bounds.
    proven = {}
    for d in (-6, -10, -21, -22, -30):
        for delta in _box(d, 15):
            if decide_generic(delta, 50).status is G:
                proven[d] = proven.get(d, 0) + 1
                assert full_box_scan(delta, unit_bound(delta))[0] is None, delta
    for d in (2, 3, 6, 7, 10, 11):
        for delta in (QuadInt(a, b, d) for a in range(1, 26) for b in range(-24, 25, 2)):
            if decide_generic(delta, 50).status is G:
                proven[d] = proven.get(d, 0) + 1
                assert full_box_scan(delta, isqrt(delta.a))[0] is None, delta
    assert proven == {-6: 38, -10: 42, -21: 37, -22: 14, -30: 115, 6: 19, 10: 10, 11: 31}
    # d = -1 has no unit, and at d = -13 (c = 649) the route needs N <= 14
    # at bound 50: both misses stay unknown, and both deltas have witnesses
    far = QuadInt(-10, 0, -13)
    for delta, bound in ((QuadInt(103, 0, -1), 52), (far, unit_bound(far))):
        assert _unit_route(delta, 50) is None
        assert decide_generic(delta, 50).status is U, delta
        assert full_box_scan(delta, bound)[0] is not None, delta
