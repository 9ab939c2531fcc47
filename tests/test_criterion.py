"""Decision procedures: the one decision body for every ring (the
Z[sqrt(-14)] criterion and its norm-factorization data inside
decide_generic) and the rational baseline."""

import random

import pytest

from oracles import brute_legendre, brute_two_squares, is_representation
from twosquares import criterion, numth, ring
from twosquares.criterion import (
    DecisionStatus,
    NormFactorization,
    decide_generic,
    decide_qsqrt_m14,
    decide_rational,
    verify_classical,
)
from twosquares.errors import ParameterError, ResourceLimitError
from twosquares.localsolve import locally_solvable_everywhere
from twosquares.ring import QuadInt
from twosquares.search import find_representation

R = DecisionStatus.REPRESENTABLE
L = DecisionStatus.LOCAL_OBSTRUCTION
G = DecisionStatus.GLOBAL_OBSTRUCTION
U = DecisionStatus.UNKNOWN


def test_parity_exponent_fixed():
    cases = {
        (1, 1): 1,
        (2, 0): 2,
        (-1, 0): 0,
        (-7, 0): 3,
        (7, 0): 3,
        (-14, 0): 5,
        (3, 1): 0,
        (25, 24): 1,
        (5, 0): 2,
        (17, 17): 2,
    }
    for (a, b), expected in cases.items():
        nf = decide_qsqrt_m14(QuadInt(a, b), None).factorization
        assert nf.parity_exponent == expected, (a, b)


def test_decide_fixed_statuses():
    cases = {
        (2, 0): (R, "parity"),
        (-1, 0): (G, "parity"),
        (1, 1): (L, "d1_nonempty"),
        (-7, 0): (R, "parity"),
        (7, 0): (G, "parity"),
        (-14, 0): (R, "parity"),
        (14, 0): (G, "parity"),
        (5, 0): (R, "d1_nonempty"),
        (-13, 2): (R, "d1_nonempty"),
        (3, 1): (L, "parity"),
        (1, 2): (L, "parity"),
        (5, 1): (L, "d1_nonempty"),
    }
    for (a, b), (status, branch) in cases.items():
        dec = decide_qsqrt_m14(QuadInt(a, b))
        assert (dec.status, dec.branch) == (status, branch), (a, b)
        if status is R:
            assert dec.witness is not None and dec.witness_verified
            assert is_representation(QuadInt(a, b), *dec.witness)
        else:
            assert dec.witness is None and not dec.witness_verified
        if status is L:
            assert dec.failing_places
        else:
            assert not dec.failing_places


def test_decide_fixed_witnesses():
    dec = decide_qsqrt_m14(QuadInt(-7, 0))
    assert dec.witness == (QuadInt(-7, 0), QuadInt(0, -2))
    dec = decide_qsqrt_m14(QuadInt(-13, 2))
    assert dec.witness == (QuadInt(-1, -1), QuadInt(0, 0))
    dec = decide_qsqrt_m14(QuadInt(1, 1))
    assert [p.label() for p in dec.failing_places] == ["2", "3"]


def test_seven_part_of_a_respected():
    # -7 and -14 are sums of two squares while 7 and 14 are not, so the
    # parity exponent must count the 7-adic valuation of the a-coordinate
    for a, status in ((-7, R), (7, G), (-14, R), (14, G)):
        dec = decide_qsqrt_m14(QuadInt(a, 0), witness_bound=60)
        assert dec.status is status, a
        if status is R:
            assert dec.witness_verified


def test_witness_bound_none_skips_search():
    dec = decide_qsqrt_m14(QuadInt(2, 0), witness_bound=None)
    assert dec.status is R and dec.witness is None and not dec.witness_verified


def test_generated_representables_accepted():
    rng = random.Random(501)
    for _ in range(400):
        x = QuadInt(rng.randrange(-40, 41), rng.randrange(-40, 41))
        y = QuadInt(rng.randrange(-40, 41), rng.randrange(-40, 41))
        delta = x * x + y * y
        if delta.is_zero() or delta.a == 0:
            continue
        dec = decide_qsqrt_m14(delta, witness_bound=None)
        assert dec.status is R, delta


def test_negative_decisions_have_no_small_witness():
    rng = random.Random(502)
    for _ in range(150):
        delta = QuadInt(rng.choice([n for n in range(-12, 13) if n]), rng.randrange(-12, 13))
        dec = decide_qsqrt_m14(delta, witness_bound=None)
        if dec.status in (L, G):
            assert find_representation(delta, 40).witness is None, delta


def test_evidence_integrity():
    rng = random.Random(503)
    for _ in range(200):
        delta = QuadInt(rng.choice([n for n in range(-30, 31) if n]), rng.randrange(-30, 31))
        dec = decide_qsqrt_m14(delta, witness_bound=None)
        nf = dec.factorization
        assert nf == criterion._norm_factorization(delta, tuple(numth.factorize(abs(delta.norm()))))
        exps = dict(nf.factors)
        s1, s2 = exps.get(2, 0), exps.get(7, 0)
        eps = s1 + s2 + nf.s3 + sum(exps[p] // 2 for p in nf.d2) + sum(exps[p] for p in nf.d3)
        assert nf.parity_exponent == eps
        assert nf.a1_symbol == brute_legendre(nf.a1, 7)
        assert dec.branch == ("d1_nonempty" if nf.d1 else "parity")
        if dec.status is not L:
            symbol_holds = bool(nf.d1) or nf.a1_symbol == (-1) ** eps
            assert (dec.status is R) == symbol_holds, delta
        assert all(v.solvable for v in dec.local_report) == (dec.status is not L)


def test_negation_pairs_representables_with_global_obstructions():
    # -1 is a sum of two squares at every completion, so delta and -delta
    # are refuted locally alike; negation keeps N, s3 and the D-sets and
    # flips (a1|7), so with D1 empty exactly one of the two is representable
    pairs = 0
    for a in range(1, 26):
        for b in range(-25, 26):
            dec = decide_qsqrt_m14(QuadInt(a, b), witness_bound=None)
            neg = decide_qsqrt_m14(QuadInt(-a, -b), witness_bound=None)
            nf = dec.factorization
            assert neg.factorization == nf._replace(a1=-nf.a1), (a, b)
            assert neg.factorization.a1_symbol == -nf.a1_symbol, (a, b)
            assert (dec.status is L) == (neg.status is L), (a, b)
            if dec.status is L:
                continue
            if nf.d1:
                assert dec.status is neg.status is R, (a, b)
            else:
                assert {dec.status, neg.status} == {R, G}, (a, b)
                pairs += 1
    assert pairs == 118


def test_decide_factors_norm_once(monkeypatch):
    # every ring, a = 0 and a negative norm included; the deltas are built
    # first, since a new d is checked by factoring |d|
    d14 = [QuadInt(-13, 2), QuadInt(0, 5)]
    others = [QuadInt(2, 0, -5), QuadInt(1, 1, 2), QuadInt(7, 2, 3)]
    calls = []
    factorize = numth.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(numth, "factorize", counting)
    for decide, deltas in ((decide_qsqrt_m14, d14), (decide_generic, others)):
        for delta in deltas:
            calls.clear()
            decide(delta)
            assert calls == [abs(delta.norm())], delta


def test_fourteen_is_read_once_per_prime(monkeypatch):
    # the D-classes read (14/p) off the split bit of the place table, which
    # the local walk fills, so a decide asks for (+-14/p) once per prime
    # p = 1 (mod 4) of the norm.  Both caches are emptied first, and each
    # of these primes has a nonresidue below 14, so the sqrt(-1) kernel's
    # search for one asks no such symbol.
    calls = []
    jacobi = numth.jacobi
    monkeypatch.setattr(numth, "jacobi", lambda a, n: calls.append((a, n)) or jacobi(a, n))
    for delta, primes in ((QuadInt(17, 17), [5, 17]), (QuadInt(13, 1), [61]), (QuadInt(3, 2), [5, 13])):
        ring._place.cache_clear()
        criterion._d_classes.cache_clear()
        calls.clear()
        decide_qsqrt_m14(delta)
        assert sorted(n for a, n in calls if a in (14, -14) and n % 4 == 1) == primes, delta


def test_norm_factorization_fixed():
    cases = {
        (1, 1): (((3, 1), (5, 1)), 0, 1, (5,), (), (5,)),
        (2, 0): (((2, 2),), 0, 2, (), (), ()),
        (-1, 0): ((), 0, -1, (), (), ()),
        (-7, 0): (((7, 2),), 1, -1, (), (), ()),
        (-14, 0): (((2, 2), (7, 2)), 1, -2, (), (), ()),
        (3, 1): (((23, 1),), 0, 3, (), (), ()),
        (25, 24): (((8689, 1),), 0, 25, (), (), (8689,)),
        (3, 3): (((3, 3), (5, 1)), 0, 3, (5,), (), (5,)),
        (5, 0): (((5, 2),), 0, 5, (5,), (), (5,)),
        (9, 2): (((137, 1),), 0, 9, (), (), (137,)),
        (1, 2): (((3, 1), (19, 1)), 0, 1, (), (), ()),
    }
    for (a, b), expected in cases.items():
        nf = decide_qsqrt_m14(QuadInt(a, b), None).factorization
        assert nf == NormFactorization(*expected), (a, b)


def test_norm_factorization_d2_example():
    # 17 has (-1|17) = 1, (14|17) = (7|17) = -1, so it lands in D2; it can
    # only divide a norm when it divides both coordinates.
    nf = decide_qsqrt_m14(QuadInt(17, 17), None).factorization
    assert nf.d2 == (17,)
    assert dict(nf.factors)[17] == 2


def test_norm_factorization_reconstructs():
    rng = random.Random(204)
    for _ in range(300):
        a = rng.choice([n for n in range(-60, 61) if n])
        b = rng.randrange(-60, 61)
        delta = QuadInt(a, b)
        nf = decide_qsqrt_m14(delta, None).factorization
        n = 1
        for p, e in nf.factors:
            assert numth.is_prime(p) and e > 0
            n *= p**e
        assert [p for p, _ in nf.factors] == sorted({p for p, _ in nf.factors})
        assert n == abs(delta.norm())
        assert 7 ** nf.s3 * nf.a1 == a and nf.a1 % 7 != 0


def test_norm_factorization_checks_even_d2_exponents():
    # -14 is a nonresidue mod a D2 prime, so no norm has an odd exponent
    # there; a factorization claiming one is refused
    with pytest.raises(RuntimeError, match="D2 prime 17"):
        criterion._norm_factorization(QuadInt(1, 1), ((17, 1),))


def test_decide_places_match_relevant_primes():
    # the place list built from the criterion's factorization must equal
    # the default one, norms divisible by 7 included
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0:
                continue
            delta = QuadInt(a, b)
            dec = decide_qsqrt_m14(delta, witness_bound=None)
            assert list(dec.local_report) == locally_solvable_everywhere(delta)[1], delta
            labels = [v.place.label() for v in dec.local_report]
            assert ("7" in labels) == (delta.norm() % 7 == 0), delta


def test_decide_large_odd_places():
    # 1511 is inert and past the descent's enumeration cap; 3^70 needs a
    # cutoff depth past the descent's depth limit
    dec = decide_qsqrt_m14(QuadInt(1511, 0))
    assert dec.status is G
    verdict = dec.local_report[-1]
    assert verdict.place.prime == 1511 and verdict.solvable and verdict.exhausted_at == 1
    dec = decide_qsqrt_m14(QuadInt(3**70, 0), witness_bound=None)
    assert dec.status is R
    verdict = dec.local_report[-1]
    assert verdict.place.prime == 3 and verdict.solvable and verdict.exhausted_at == 71


def test_criterion_domain():
    with pytest.raises(ParameterError):
        decide_qsqrt_m14(QuadInt(1, 1, -2))
    with pytest.raises(ParameterError):
        decide_qsqrt_m14(QuadInt(0, 0))
    dec = decide_qsqrt_m14(QuadInt(0, 4))
    assert dec.status is L
    assert 7 in [p.prime for p in dec.failing_places]
    assert dec.factorization is None and dec.branch is None


def test_criterion_refutes_a_zero_at_seven():
    # N(b*sqrt(-14)) = 14 b^2 has odd valuation at the ramified place over 7
    for b in [b for b in range(-500, 501) if b]:
        delta = QuadInt(0, b)
        dec = decide_qsqrt_m14(delta)
        assert dec.status is L, b
        assert 7 in [p.prime for p in dec.failing_places], b
        assert list(dec.local_report) == locally_solvable_everywhere(delta)[1], b
        assert dec.witness is None


def test_decide_generic_without_a_bound_skips_the_search(monkeypatch):
    def no_search(delta, bound):
        raise AssertionError("searched")

    monkeypatch.setattr(criterion, "find_representation", no_search)
    assert decide_generic(QuadInt(2, 0, -5), None).status is U  # 1^2 + 1^2, unsearched
    # at d = -14 the criterion decides with no search
    dec = decide_generic(QuadInt(2, 0), None)
    assert dec.status is R and dec.witness is None and dec.branch == "parity"
    assert decide_generic(QuadInt(3, 0, -2), None).status is L
    assert decide_qsqrt_m14(QuadInt(0, 3), witness_bound=None).status is L
    # an int bound is still checked before anything else
    with pytest.raises(ParameterError):
        decide_generic(QuadInt(3, 1, -5), 0)
    with pytest.raises(ResourceLimitError):
        decide_generic(QuadInt(3, 1, -5), 10**6)


def test_decide_rational_fixed():
    cases = {
        1: (R, (1, 0)),
        2: (R, (1, 1)),
        3: (L, None),
        4: (R, (2, 0)),
        5: (R, (2, 1)),
        9: (R, (3, 0)),
        10: (R, (3, 1)),
        45: (R, (6, 3)),
        325: (R, (18, 1)),
        10007: (L, None),
    }
    for n, (status, witness) in cases.items():
        dec = decide_rational(n)
        assert dec.status is status, n
        if witness is None:
            assert dec.witness is None
        else:
            x, y = dec.witness
            assert (x.a, y.a) == witness and x.b == y.b == 0
            assert dec.witness_verified


def test_decide_rational_large_composite():
    dec = decide_rational(999966000979)  # 11 * 226631 * 401119, all 3 mod 4
    assert dec.status is L
    assert [p.prime for p in dec.failing_places] == [11, 226631, 401119]


def test_decide_rational_vs_brute():
    for n in range(1, 2000):
        dec = decide_rational(n)
        expected = brute_two_squares(n)
        assert (dec.status is R) == (expected is not None), n
        if dec.status is R:
            x, y = dec.witness
            assert x.a * x.a + y.a * y.a == n and x.a >= y.a >= 0
        else:
            odd = [p for p, e in numth.factorize(n) if p % 4 == 3 and e % 2]
            assert [p.prime for p in dec.failing_places] == odd


def test_decide_rational_rejects():
    for n in (0, -5):
        with pytest.raises(ParameterError):
            decide_rational(n)


def test_verify_classical_small(monkeypatch):
    assert verify_classical(1)
    assert verify_classical(500)
    # (4 + sqrt(-14))^2 + (4 - sqrt(-14))^2 = 4 is a verified witness, but
    # not one over Z
    witness = (QuadInt(4, 1), QuadInt(4, -1))
    planted = criterion.Decision(QuadInt(4, 0), R, witness=witness)
    assert planted.witness_verified
    rational = criterion.decide_rational
    monkeypatch.setattr(criterion, "decide_rational", lambda n: planted if n == 4 else rational(n))
    assert verify_classical(3)
    assert not verify_classical(4)


def test_decide_generic_fixed():
    dec = decide_generic(QuadInt(3, 0, -2))
    assert dec.status is L and [p.label() for p in dec.failing_places] == ["3"]
    dec = decide_generic(QuadInt(2, 0, -2))
    assert dec.status is R and dec.witness_verified
    dec = decide_generic(QuadInt(-1, 0, 2))
    assert dec.status is L and [p.label() for p in dec.failing_places] == ["oo"]
    dec = decide_generic(QuadInt(-1, 0, -1))
    assert dec.status is R and dec.witness == (QuadInt(0, -1, -1), QuadInt(0, 0, -1))
    dec = decide_generic(QuadInt(-1, 0))  # locally fine, but (-1|7) = -1 != (-1)^0
    assert dec.status is G and dec.witness is None and not dec.failing_places


def test_decide_qsqrt_m14_is_decide_generic_at_d_minus_14():
    r = range(-6, 7)
    deltas = [QuadInt(a, b) for a in r for b in r if a or b]
    for bound in (None, 6, 50):
        for delta in deltas:
            assert decide_qsqrt_m14(delta, bound) == decide_generic(delta, bound), (delta, bound)
    # a bad bound, and delta = 0, fail alike through both
    for delta, bound in ((QuadInt(1, 1), 0), (QuadInt(0, 3), 10**6), (QuadInt(0, 0), 6), (QuadInt(0, 0), None)):
        errors = []
        for decide in (decide_qsqrt_m14, decide_generic):
            with pytest.raises((ParameterError, ResourceLimitError)) as exc:
                decide(delta, bound)
            errors.append((exc.type, str(exc.value)))
        assert errors[0] == errors[1], (delta, bound)
    for d in (-5, -1, 2):
        with pytest.raises(ParameterError, match="criterion applies to d=-14"):
            decide_qsqrt_m14(QuadInt(1, 1, d))


def test_decide_generic_witnesses_verify():
    rng = random.Random(504)
    for _ in range(80):
        d = rng.choice([-1, -2, -5, -6])
        delta = QuadInt(rng.randrange(-10, 11), rng.randrange(-10, 11), d)
        if delta.is_zero():
            continue
        dec = decide_generic(delta, search_bound=12)
        if dec.status is R:
            assert is_representation(delta, *dec.witness)
        elif dec.status is U:
            assert find_representation(delta, 12).witness is None


def test_generic_never_contradicts_search():
    rng = random.Random(505)
    for _ in range(80):
        d = rng.choice([-1, -2, -5, -6, -10])
        x = QuadInt(rng.randrange(-6, 7), rng.randrange(-6, 7), d)
        y = QuadInt(rng.randrange(-6, 7), rng.randrange(-6, 7), d)
        delta = x * x + y * y
        if delta.is_zero():
            continue
        dec = decide_generic(delta, search_bound=15)
        assert dec.status is R, (d, delta)
