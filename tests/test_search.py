"""Bounded exhaustive representation search and the residue sieve."""

import ast
import inspect
import itertools
import random
from math import isqrt

import pytest

from oracles import (
    brute_factorize,
    brute_two_squares,
    full_box_scan,
    is_representation,
    mask_rows,
    pell_unit,
    sums_of_two_squares_mod,
)
from twosquares import localsolve, numth, search
from twosquares.errors import ParameterError, ResourceLimitError
from twosquares.ring import QuadInt
from twosquares.search import (
    _sums_of_two_squares_mod,
    find_representation,
    residue_obstruction,
    two_square_search,
)


def test_fixed_reports():
    r = find_representation(QuadInt(2, 0), 1)
    assert r.witness == (QuadInt(-1, 0), QuadInt(-1, 0))
    assert r.states_examined == 2
    r = find_representation(QuadInt(2, 0), 50)
    assert r.witness == (QuadInt(-15, -4), QuadInt(-15, 4))
    assert r.states_examined == 3582
    r = find_representation(QuadInt(-7, 0), 50)
    assert r.witness == (QuadInt(-7, 0), QuadInt(0, -2))
    assert r.states_examined == 4394
    r = find_representation(QuadInt(-1, 0), 100)
    assert r.witness is None
    assert r.states_examined == 40401


def test_zero_delta_short_circuit():
    r = find_representation(QuadInt(0, 0), 5)
    assert r.witness == (QuadInt(0, 0), QuadInt(0, 0))
    assert r.states_examined == 0


def test_odd_b_prunes_immediately():
    # 2(uv + st) is always even, so odd b can never be hit
    r = find_representation(QuadInt(3, 1), 10)
    assert r.witness is None and r.states_examined == 0


def test_witnesses_verify():
    rng = random.Random(401)
    found = 0
    for _ in range(200):
        delta = QuadInt(rng.randrange(-20, 21), 2 * rng.randrange(-10, 11))
        r = find_representation(delta, 12)
        if r.witness is not None:
            found += 1
            assert is_representation(delta, *r.witness)
    assert found > 20


def test_search_is_deterministic_and_persistent():
    rng = random.Random(402)
    for _ in range(60):
        delta = QuadInt(rng.randrange(-15, 16), 2 * rng.randrange(-7, 8))
        first = find_representation(delta, 10)
        again = find_representation(delta, 10)
        assert first == again
        if first.witness is not None:
            wider = find_representation(delta, 14)
            assert wider.witness is not None
            assert is_representation(delta, *wider.witness)


def test_generated_deltas_are_found():
    rng = random.Random(403)
    for _ in range(100):
        x = QuadInt(rng.randrange(-8, 9), rng.randrange(-8, 9))
        y = QuadInt(rng.randrange(-8, 9), rng.randrange(-8, 9))
        delta = x * x + y * y
        r = find_representation(delta, 8)
        assert r.witness is not None
        assert is_representation(delta, *r.witness)


def test_search_matches_full_box_scan():
    # the residue-masked half scan finds the full scan's first witness at
    # the same position
    for d in (-14, -5, -13, 2, 3, 7):
        for a in range(-10, 11):
            for b in range(-10, 11):
                delta = QuadInt(a, b, d)
                if delta.is_zero():
                    continue
                r = find_representation(delta, 20)
                witness, tried = full_box_scan(delta, 20)
                assert r.witness == witness, delta
                if b % 2 == 0:  # odd b is refuted before any state
                    assert r.states_examined == tried, delta


def test_search_matches_full_box_scan_at_every_small_bound():
    # bounds 1..16 put u = -bound at every offset of the repeated mask rows
    for d in (-14, -5, 3):
        pairs = [(2, 0), (-7, 0), (5, 2), (-1, 0), (13, -4), (30, 8), (-20, 6)]
        deltas = [QuadInt(a, b, d) for a, b in pairs]
        for u, v, s, t in ((3, -2, -5, 1), (7, 4, 0, 6)):
            x, y = QuadInt(u, v, d), QuadInt(s, t, d)
            deltas.append(x * x + y * y)
        for delta in deltas:
            for bound in range(1, 17):
                r = find_representation(delta, bound)
                assert (r.witness, r.states_examined) == full_box_scan(delta, bound), (delta, bound)


def test_mask_rows_match_plain_loops():
    # bounds 1..16 give every offset -bound % m; each row at a bound is the
    # oracle's bound-300 row cut to [-bound, bound]
    for d in (-14, -5, -1, 2, 3):
        for m in search.MASK_MODULI:
            for a, b in itertools.product(range(m), repeat=2):
                widest = mask_rows(d, m, a, b, 300)
                for bound in (*range(1, 17), 100, 300):
                    cut = tuple(row >> (300 - bound) & ((1 << 2 * bound + 1) - 1) for row in widest)
                    assert search._mask_rows(d, m, a, b, bound) == cut, (d, m, a, b, bound)


def test_norm_bound_misses_without_a_scan(monkeypatch):
    d, bound = -14, 3
    limit = (2 * (1 - d) * bound * bound) ** 2
    box = range(-bound, bound + 1)
    for u, v, s, t in itertools.product(box, repeat=4):
        x, y = QuadInt(u, v, d), QuadInt(s, t, d)
        assert (x * x + y * y).norm() <= limit
    built = []
    rows = search._mask_rows
    monkeypatch.setattr(search, "_mask_rows", lambda *key: built.append(key) or rows(*key))
    at_limit, above = QuadInt(270, 0, d), QuadInt(271, 0, d)
    assert at_limit.norm() == limit < above.norm()
    r = find_representation(at_limit, bound)
    assert (r.witness, r.states_examined) == (None, 49)
    assert built == [(d, m, 270 % m, 0, bound) for m in search.MASK_MODULI]
    built.clear()
    r = find_representation(above, bound)
    assert (r.witness, r.states_examined, built) == (None, 49, [])


def test_bound_validation():
    # the bound is checked before the zero, odd-b and norm shortcuts, so its
    # error does not depend on delta
    for delta in (QuadInt(1, 0), QuadInt(0, 0), QuadInt(1, 1), QuadInt(2, 0), QuadInt(10**9, 0)):
        with pytest.raises(ParameterError):
            find_representation(delta, 0)
        with pytest.raises(ResourceLimitError):
            find_representation(delta, search.MAX_SEARCH_BOUND + 1)


def test_sieve_never_refutes_a_sum_of_two_squares():
    rng = random.Random(404)
    big = 10**6
    for d in (-14, -5):
        for _ in range(500):
            x, y = (QuadInt(rng.randint(-big, big), rng.randint(-big, big), d) for _ in "xy")
            assert residue_obstruction(x * x + y * y) is None, (x, y)


def test_sieve_tables_match_plain_loops():
    for d in (-14, -5):
        for m in range(1, 10):
            assert _sums_of_two_squares_mod(d, m) == sums_of_two_squares_mod(d, m), (d, m)


def test_sieve_is_independent_of_the_local_solver():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(search))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert not imported & {"localsolve", "numth"}, imported


def test_search_shares_no_code_with_the_solver(monkeypatch):
    # test_unit_bound checks decide_generic against this search, so the
    # search must not run the kernels it checks: with every numth and
    # localsolve function raising, the sieve and the search answer as
    # before.  QuadInt factors |d| once per d (ring._validate_ring_parameter),
    # so the deltas are built first.
    box = range(-12, 13)
    deltas = [QuadInt(a, b, d) for d in (-14, -5, 2) for a in box for b in box]

    def run():
        return [(residue_obstruction(delta), find_representation(delta, 100)) for delta in deltas]

    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"search called {name}")

        return refuse

    expected = run()
    for cached in vars(search).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    patched = 0
    for module in (numth, localsolve):
        for name, obj in list(vars(module).items()):
            if callable(obj) and not isinstance(obj, type) and obj.__module__ == module.__name__:
                monkeypatch.setattr(module, name, refusing(f"{module.__name__}.{name}"))
                patched += 1
    assert patched > 20
    assert run() == expected
    assert sum(report.witness is not None for _, report in expected) == 291


def test_sieved_deltas_have_no_witness():
    sieved = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            delta = QuadInt(a, b)
            if delta.is_zero() or residue_obstruction(delta) is None:
                continue
            sieved += 1
            assert find_representation(delta, 30).witness is None, delta
    assert sieved > 100


def test_two_square_search_vs_brute():
    for n in range(0, 600):
        got = two_square_search(n)
        expected = brute_two_squares(n)
        assert (got is None) == (expected is None)
        if got is not None:
            x, y = got
            assert x * x + y * y == n
            assert got == expected  # both scan from the smallest x


def test_box_scan_stops_at_its_first_witness(monkeypatch):
    # The masked walk is lazy: the box scan ANDs the rows of u up to its
    # first witness's and tests no x past it.  A walk built as a list would
    # AND every row and try every x whose norm test passes.
    d, bound = -1, 50
    x, y = QuadInt(-48, 5, d), QuadInt(3, -7, d)
    delta = x * x + y * y
    ands, roots = [], []
    root = search._square_root
    monkeypatch.setattr(search, "and_", lambda p, q: ands.append(1) or p & q)
    monkeypatch.setattr(search, "_square_root", lambda *args: roots.append(args[:2]) or root(*args))
    u, v, s, t = search._box_witness(delta, bound)
    assert u <= -48
    rest = delta - QuadInt(u, v, d) * QuadInt(u, v, d)
    assert roots[-1] == (rest.a, rest.b)
    assert len(ands) == (u + bound + 1) * (len(search.MASK_MODULI) - 1)
    tried = len(roots)
    roots.clear()
    walk = list(search._witnesses(delta, bound, search.MASK_MODULI, [bound] * (bound + 1)))
    assert walk[0] == (u, v, s, t) and len(walk) > 1 and len(roots) > tried


ORBIT_RINGS = (-2, -5, -6, -10, -13, -14, -21, -22, -30)


def _box_report(delta, bound):
    # the half-box scan's report, kept in search as the fallback of the
    # orbit route and its reference here
    width = 2 * bound + 1
    found = search._box_witness(delta, bound)
    if found is None:
        return None, width * width
    u, v, s, t = found
    return (QuadInt(u, v, delta.d), QuadInt(s, t, delta.d)), (u + bound) * width + v + bound + 1


@pytest.fixture
def box_scans(monkeypatch):
    # the deltas that find_representation hands to the box scan
    scanned = []
    box = search._box_witness
    monkeypatch.setattr(search, "_box_witness", lambda delta, bound: scanned.append(delta) or box(delta, bound))
    return scanned


def _lim(delta):
    c, _ = search._pell_unit(delta.d)
    return isqrt(c * c * delta.norm()) + 1


def test_orbit_route_equals_the_box_scan(box_scans):
    # Wherever the route runs it must find the box scan's witness at the
    # box scan's position; elsewhere find_representation is the box scan.
    # A delta the residue sieve refutes has no witness, so there the route
    # must miss, and the box scan is run only on the rest.
    routed, scanned = {}, 0
    for d in ORBIT_RINGS:
        for bound in (7, 20, 50, 100):
            miss = (None, (2 * bound + 1) ** 2)
            for a in range(-40, 41):
                for b in range(-40, 41, 2):
                    if a or b:
                        delta = QuadInt(a, b, d)
                        box_scans.clear()
                        r = tuple(find_representation(delta, bound))
                        if box_scans:
                            continue
                        routed[d] = routed.get(d, 0) + 1
                        if residue_obstruction(delta) is not None:
                            assert r == miss, (delta, bound)
                        else:
                            scanned += 1
                            assert r == _box_report(delta, bound), (delta, bound)
    assert routed == {
        -2: 10254, -5: 7994, -6: 9230, -10: 6856, -13: 112, -14: 6948, -21: 3828, -22: 844, -30: 7038
    }
    assert scanned == 28672


def test_orbit_route_at_the_switch(box_scans):
    # seeded deltas with lim = bound**2 - 1 and bound**2 take the route,
    # those with lim = bound**2 + 1 the box scan, and both answer alike
    rng = random.Random(405)
    sides = {-1: 0, 0: 0, 1: 0}
    for d in (-5, -14, -21):
        c, _ = search._pell_unit(d)
        for bound in (30, 60, 100):
            # lim - 1 = isqrt(c^2 N) in [bound^2 - 2, bound^2] needs N in [low, high]
            low, high = (bound * bound - 2) ** 2 // (c * c), (bound * bound + 1) ** 2 // (c * c)
            near = set()
            for b in range(-isqrt(high // -d), isqrt(high // -d) + 1, 2):
                for a in range(isqrt(max(low + d * b * b, 0)), isqrt(high + d * b * b) + 1):
                    near |= {QuadInt(a, b, d), QuadInt(-a, b, d)}
            near = sorted(delta for delta in near if abs(_lim(delta) - bound * bound) <= 1)
            for delta in rng.sample(near, min(len(near), 12)):
                side = _lim(delta) - bound * bound
                sides[side] += 1
                box_scans.clear()
                r = find_representation(delta, bound)
                assert box_scans == ([delta] if side == 1 else []), (delta, bound)
                assert tuple(r) == _box_report(delta, bound), (delta, bound)
    assert min(sides.values()) >= 10, sides


def test_orbit_route_matches_the_unmasked_scan(box_scans):
    # full_box_scan shares no code with search, so neither the masks nor
    # the orbit walk are trusted here; half the deltas are built as sums
    rng = random.Random(406)
    routed = 0
    for k in range(40):
        d, bound = rng.choice(ORBIT_RINGS), rng.choice((20, 30, 50))
        if k % 2:
            x, y = (QuadInt(rng.randrange(-9, 10), rng.randrange(-3, 4), d) for _ in "xy")
            delta = x * x + y * y
        else:
            delta = QuadInt(rng.randrange(-40, 41), 2 * rng.randrange(-10, 11), d)
        if delta.is_zero():
            continue
        box_scans.clear()
        r = find_representation(delta, bound)
        routed += not box_scans
        assert tuple(r) == full_box_scan(delta, bound), (delta, bound)
    assert routed >= 20


def test_unit_search_is_capped(monkeypatch):
    # Past MAX_SEARCH_BOUND**2 a unit never fits, so the Pell loop stops
    # there: at d = -661 the least unit has c ~ 1.6e37, and at d = -94
    # c = 2,143,295.  Both deltas go to the box scan, with the answers the
    # box scan has always given.
    steps = []
    monkeypatch.setattr(search, "isqrt", lambda n: steps.append(n) or isqrt(n))
    cap = search.MAX_SEARCH_BOUND**2
    for d, unit in ((-661, None), (-94, None), (-13, (649, 180)), (-22, (197, 42))):
        search._pell_unit.cache_clear()
        steps.clear()
        assert search._pell_unit(d) == unit
        assert len(steps) <= cap // isqrt(-d) + 1, d
    monkeypatch.undo()
    # every unit the loop finds is the continued-fraction oracle's, and it
    # gives up exactly where that unit is past the cap
    ds = [d for d in range(-3000, -1) if d % 4 in (2, 3) and all(e == 1 for _, e in brute_factorize(-d))]
    capped = 0
    for d in ds:
        unit = pell_unit(d)
        capped += unit[0] > cap
        assert search._pell_unit(d) == (None if unit[0] > cap else unit), d
    assert (len(ds), capped) == (1214, 870)
    r = find_representation(QuadInt(1, 0, -661), 50)
    assert r.witness == (QuadInt(-1, 0, -661), QuadInt(0, 0, -661)) and r.states_examined == 5000
    r = find_representation(QuadInt(5, 0, -94), 50)
    assert r.witness == (QuadInt(-2, 0, -94), QuadInt(-1, 0, -94)) and r.states_examined == 4899


def test_large_units_take_the_route_where_it_fits(monkeypatch):
    # the route reads the masks mod 16, 9 and 5, the box scan all five
    built = []
    rows = search._mask_rows
    monkeypatch.setattr(search, "_mask_rows", lambda *key: built.append(key[1]) or rows(*key))
    route, box = list(search.MASK_MODULI[:3]), list(search.MASK_MODULI)
    # d = -13 (c = 649): 1 has lim = 650; d = -22 (c = 197): 3 has lim = 592
    for delta, fits, misses in ((QuadInt(1, 0, -13), 26, 25), (QuadInt(3, 0, -22), 25, 24)):
        for bound, moduli in ((fits, route), (misses, box)):
            built.clear()
            r = find_representation(delta, bound)
            assert built == moduli, (delta, bound)
            assert tuple(r) == full_box_scan(delta, bound), (delta, bound)
