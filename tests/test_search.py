"""Bounded exhaustive representation search and the residue sieve."""

import ast
import inspect
import itertools
import random

import pytest

from oracles import (
    brute_two_squares,
    full_box_scan,
    is_representation,
    mask_rows,
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
