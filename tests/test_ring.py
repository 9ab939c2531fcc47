"""Quadratic ring arithmetic, splitting behavior, and the D-set partition
that the criterion reads off the norm's primes."""

import random

import pytest

from oracles import brute_legendre, quartic_residues
from twosquares import criterion, numth, ring
from twosquares.errors import ParameterError
from twosquares.ring import (
    DEFAULT_D,
    Place,
    QuadInt,
    Splitting,
    parse_quadint,
)

SQUAREFREE_DS = [-14, -13, -10, -6, -5, -2, -1, 2, 3, 6, 7]


def test_arithmetic_matches_formulas():
    rng = random.Random(201)
    for _ in range(2000):
        d = rng.choice(SQUAREFREE_DS)
        x = QuadInt(rng.randrange(-50, 51), rng.randrange(-50, 51), d)
        y = QuadInt(rng.randrange(-50, 51), rng.randrange(-50, 51), d)
        assert (x + y).a == x.a + y.a and (x + y).b == x.b + y.b
        assert (x - y).a == x.a - y.a and (x - y).b == x.b - y.b
        prod = x * y
        assert prod.a == x.a * y.a + d * x.b * y.b
        assert prod.b == x.a * y.b + x.b * y.a
        assert (-x) + x == QuadInt(0, 0, d)


def test_norm_properties():
    rng = random.Random(202)
    for _ in range(10**4):
        d = rng.choice(SQUAREFREE_DS)
        x = QuadInt(rng.randrange(-80, 81), rng.randrange(-80, 81), d)
        y = QuadInt(rng.randrange(-80, 81), rng.randrange(-80, 81), d)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() == x.a * x.a - d * x.b * x.b
        prod = x * x.conj()
        assert prod == QuadInt(x.norm(), 0, d)
        assert x.conj().conj() == x


def test_mixed_rings_rejected():
    with pytest.raises(ParameterError):
        QuadInt(1, 2, -14) + QuadInt(1, 2, -2)
    with pytest.raises(ParameterError):
        QuadInt(1, 2, -14) * QuadInt(1, 2, -2)
    # neither a tuple nor an int is a ring element, on either side
    x = QuadInt(1, 2)
    for other in ((1, 2), (1, 2, -14), 2):
        for op in (lambda u, v: u + v, lambda u, v: u * v):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


def test_ring_parameter_validation():
    for d in SQUAREFREE_DS:
        QuadInt(0, 0, d)
    for d in (0, 1, 4, 9, 12, 18, -4, -8, -3, -7):
        with pytest.raises(ParameterError):
            QuadInt(0, 0, d)
    with pytest.raises(ParameterError):
        QuadInt(0, 0)._replace(d=4)


def test_repr_names_every_coordinate():
    assert repr(QuadInt(-1, -1)) == "QuadInt(a=-1, b=-1, d=-14)"


def test_str_and_parse_round_trip():
    rng = random.Random(203)
    for _ in range(300):
        d = rng.choice(SQUAREFREE_DS)
        x = QuadInt(rng.randrange(-99, 100), rng.randrange(-99, 100), d)
        assert parse_quadint(str(x), d) == x
        assert parse_quadint(f"{x.a},{x.b}", d) == x
    assert str(QuadInt(2, -3)) == "2-3*sqrt(-14)"
    assert parse_quadint("-13,2") == QuadInt(-13, 2)
    assert parse_quadint("1+1*sqrt(-14)") == QuadInt(1, 1)


def test_parse_rejects_garbage():
    huge = "9" * 5000  # past the default int-string digit limit
    for text in ("", "1", "1,2,3", "a,b", "1+sqrt(-14)", "1+2*sqrt(-13)", f"{huge},1", f"1+{huge}*sqrt(-14)"):
        with pytest.raises(ParameterError):
            parse_quadint(text)


def test_split_type_fixed_table():
    assert ring._place(2, DEFAULT_D).splitting is Splitting.RAMIFIED
    assert ring._place(7, DEFAULT_D).splitting is Splitting.RAMIFIED
    for p in (3, 5, 13, 19, 23):
        assert ring._place(p, DEFAULT_D).splitting is Splitting.SPLIT
    for p in (11, 17):
        assert ring._place(p, DEFAULT_D).splitting is Splitting.INERT
    assert ring._place(3, -2).splitting is Splitting.SPLIT


def test_split_type_vs_legendre():
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for d in SQUAREFREE_DS:
        for p in primes:
            st = ring._place(p, d).splitting
            if (2 * d) % p == 0:
                assert st is Splitting.RAMIFIED
            else:
                expected = Splitting.SPLIT if brute_legendre(d, p) == 1 else Splitting.INERT
                assert st is expected


def test_place_labels():
    assert Place(None).label() == "oo"
    assert Place(None).prime is None
    assert ring._place(7, DEFAULT_D).label() == "7"
    assert ring._place(7, DEFAULT_D) == Place(7, Splitting.RAMIFIED)


def test_partition_matches_symbol_definitions():
    rng = random.Random(205)
    for _ in range(200):
        a = rng.choice([n for n in range(-60, 61) if n])
        b = rng.randrange(-60, 61)
        nf = criterion.decide_qsqrt_m14(QuadInt(a, b), None).factorization
        for p, _ in nf.factors:
            in_d1 = brute_legendre(-1, p) == 1 == brute_legendre(14, p) and brute_legendre(7, p) == -1
            in_d2 = (
                brute_legendre(-1, p) == 1
                and brute_legendre(14, p) == -1
                and brute_legendre(7, p) == -1
            )
            in_d3 = (
                brute_legendre(-1, p) == 1 == brute_legendre(14, p)
                and 7 % p not in quartic_residues(p)
            )
            assert (p in nf.d1) == in_d1
            assert (p in nf.d2) == in_d2
            assert (p in nf.d3) == in_d3


def test_partition_does_not_reprove_primes(monkeypatch):
    # the primes come from factorize; classifying them tests none again,
    # with the per-prime cache emptied so that every prime is classified
    calls = []
    is_prime = numth.is_prime
    monkeypatch.setattr(numth, "is_prime", lambda n: calls.append(n) or is_prime(n))
    criterion._d_classes.cache_clear()
    primes = ((2, 3), (3, 1), (5, 2), (7, 1), (13, 1), (17, 1), (1009, 1), (1000000007, 1))
    assert criterion._partition(primes) == ((5, 13), (17,), (5, 13))
    assert calls == []


def test_default_ring_parameter():
    assert DEFAULT_D == -14
    assert QuadInt(1, 2).d == -14
