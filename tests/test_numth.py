"""Rational integer kernels: primality, factorization, residue symbols."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from oracles import (
    brute_factorize,
    brute_jacobi,
    brute_legendre,
    conic_solvable_qp,
    quartic_residues,
    square_residues,
)
from twosquares import numth
from twosquares.errors import ParameterError

ODD_PRIMES_200 = [p for p in range(3, 200) if all(p % q for q in range(2, p))]


def test_is_prime_small():
    sieve = {p for p in range(2, 2000) if all(p % q for q in range(2, p))}
    for n in range(-3, 2000):
        assert numth.is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert numth.is_prime(2**61 - 1)
    assert numth.is_prime(10**9 + 7)
    assert not numth.is_prime(561)  # Carmichael
    assert not numth.is_prime((2**31 - 1) * (2**61 - 1))


def test_factorize_fixed():
    assert numth.factorize(1) == []
    assert numth.factorize(2) == [(2, 1)]
    assert numth.factorize(720) == [(2, 4), (3, 2), (5, 1)]
    assert numth.factorize(999966000979) == [(11, 1), (226631, 1), (401119, 1)]


def test_factorize_vs_trial_division():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        assert numth.factorize(n) == brute_factorize(n)


def test_factorize_reconstructs_and_certifies():
    rng = random.Random(102)
    for _ in range(60):
        n = rng.randrange(2, 10**12)
        fac = numth.factorize(n)
        prod = 1
        for p, e in fac:
            assert numth.is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert fac == sorted(fac)


def test_factorize_trial_division_edges():
    # primes on both sides of 10^4, the largest prime square below 10^6,
    # and a factor on each side of 10^6 (past the trial bound 2^16, so rho)
    for n in (9973 * 10007, 10007**3, 999983**2, 999983 * 1000003, 2**5 * 3):
        assert numth.factorize(n) == brute_factorize(n), n
    assert numth.factorize(2**64) == [(2, 64)]
    # a 10^6-smooth part (999979 past the trial bound) times a prime above 10^12
    big = 10**12 + 39
    assert numth.is_prime(big)
    expected = [(2, 3), (3, 1), (997, 2), (999979, 1), (big, 1)]
    assert numth.factorize(2**3 * 3 * 997**2 * 999979 * big) == expected
    # primes on each side of the 2048-wide block edges, the last and the
    # first odd number of a block, the last block, and several primes of one
    # block, alone and times big
    assert brute_factorize(big) == [(big, 1)]
    edges = (2039, 2053, 4093, 4099, 8191, 12289, 999983, 1000003)
    shared = (3 * 5 * 7 * 11 * 13, 2053 * 2063, 2053**2 * 2063, 2053**3, 8191**2, 12289**2)
    for n in edges + shared:
        assert numth.factorize(n) == brute_factorize(n), n
        # n and big are coprime, so the oracle's answer for n extends to n * big
        assert numth.factorize(n * big) == brute_factorize(n) + [(big, 1)], n


def test_factorize_across_the_trial_bound_and_10_6():
    # primes on each side of the trial bound 2^16 and of 10^6, in products
    # that trial division, rho, or both must split
    assert len(numth._BLOCK_PRODUCTS) == 33 and numth._TRIAL_BOUND == 1 << 16
    primes = (65521, 65537, 999983, 1000003)
    big = 10**12 + 39
    assert all(numth.is_prime(p) for p in (*primes, big))

    def expect(n, factors):
        assert numth.factorize(n) == factors, n
        if n <= 10**10:
            assert factors == brute_factorize(n), n

    for p in primes:
        expect(p, [(p, 1)])
        expect(p * p, [(p, 2)])
        expect(p**3 * big, [(p, 3), (big, 1)])
        for q in primes:
            if p < q:
                expect(p * q, [(p, 1), (q, 1)])
                expect(p**2 * q**3 * big, [(p, 2), (q, 3), (big, 1)])
    for smooth in (2**3 * 3 * 65521, 5 * 7**2 * 65537, 11 * 999983, 3**4 * 65521 * 65537):
        expect(smooth, brute_factorize(smooth))
        expect(smooth * big, brute_factorize(smooth) + [(big, 1)])
        expect(smooth * 1000003 * big, brute_factorize(smooth * 1000003) + [(big, 1)])


def test_rho_divides_out_each_prime_it_finds(monkeypatch):
    # p^3 * P with p past the trial bound takes one rho split: the prime p it
    # finds leaves p^2 * P at once, instead of being split off copy by copy
    splits = []
    split = numth._split_composite
    monkeypatch.setattr(numth, "_split_composite", lambda m: splits.append(m) or split(m))
    big = 10**12 + 39
    for p in (131071, 999983, 1000003):
        splits.clear()
        assert numth.factorize(p**3 * big) == [(p, 3), (big, 1)]
        assert len(splits) == 1, p


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and the
# first 13 prime bases (Sorenson & Webster)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_strong_pseudoprimes():
    assert not numth.is_prime(PSI_12)
    assert numth.factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]
    assert not numth.is_prime(PSI_13)  # passes Miller-Rabin to bases 2..41
    assert numth.is_prime(2**89 - 1) and numth.is_prime(2**127 - 1)
    assert not numth.is_prime((2**89 - 1) * (2**61 - 1))


def test_strong_lucas_pseudoprimes_below_2e5():
    limit = 200_000
    composite = bytearray(limit)
    for p in range(2, isqrt(limit) + 1):
        for m in range(p * p, limit, p):
            composite[m] = 1
    flagged = [
        n
        for n in range(3, limit, 2)
        if isqrt(n) ** 2 != n and numth._strong_lucas_probable_prime(n) and composite[n]
    ]
    # OEIS A217255, the strong Lucas pseudoprimes (Selfridge parameters)
    assert flagged == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
        75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
        162133, 176399, 176471, 189419, 192509, 197801,
    ]
    assert all(numth._strong_lucas_probable_prime(n) for n in range(3, limit, 2) if not composite[n])


def test_block_products_are_the_odd_primes_of_each_block():
    # block k covers [2048k, 2048(k+1)); its entry is the product of the odd
    # primes there, read off the oracle's factorization of each odd number
    blocks = numth._BLOCK_PRODUCTS
    assert isinstance(blocks, tuple) and len(blocks) == 33
    expected = [1] * len(blocks)
    for n in range(3, len(blocks) * 2048, 2):
        if brute_factorize(n) == [(n, 1)]:
            expected[n // 2048] *= n
    assert list(blocks) == expected


def test_factorize_stops_at_prime_cofactor(monkeypatch):
    taken = []

    def counting(a, b):
        taken.append(b)
        return gcd(a, b)

    monkeypatch.setattr(numth, "gcd", counting)
    big = 10**12 + 39
    assert numth.factorize(3 * 5 * big) == [(3, 1), (5, 1), (big, 1)]
    assert len(taken) == 1
    taken.clear()
    assert numth.factorize(2**7 * big) == [(2, 7), (big, 1)]
    assert taken == []


def test_factorize_vs_oracle_seeded():
    rng = random.Random(108)
    cases = [rng.randrange(2, 10**10) for _ in range(200)]
    for _ in range(60):
        smooth = 1
        for _ in range(rng.randrange(1, 5)):
            smooth *= rng.choice((2, 3, 5, 7, 11, 997, 9973))
        cases.append(smooth * rng.choice((10007, 999983, 1000003, 99999989)))
    for n in cases:
        assert numth.factorize(n) == brute_factorize(n), n


def test_factorize_rejects_nonpositive():
    for n in (0, -1, -6):
        with pytest.raises(ParameterError):
            numth.factorize(n)


def test_valuation():
    assert numth.valuation(720, 2) == 4
    assert numth.valuation(720, 7) == 0
    assert numth.valuation(-54, 3) == 3
    # a base below 2 used to loop forever (1, -1) or divide by zero (0)
    for p in (1, 0, -1):
        with pytest.raises(ParameterError):
            numth.valuation(8, p)


def test_legendre_euler_vs_brute_all_residues():
    for p in ODD_PRIMES_200:
        for a in range(p):
            assert numth.legendre(a, p) == brute_legendre(a, p)


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, -7, 1):
        with pytest.raises(ParameterError):
            numth.legendre(3, p)


def test_jacobi_vs_brute():
    rng = random.Random(103)
    for _ in range(500):
        n = rng.randrange(1, 10**4) * 2 + 1
        a = rng.randrange(-(10**6), 10**6)
        assert numth.jacobi(a, n) == brute_jacobi(a, n)


def test_jacobi_multiplicative():
    rng = random.Random(104)
    for _ in range(400):
        n = rng.randrange(1, 10**6) * 2 + 1
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        assert numth.jacobi(a * b, n) == numth.jacobi(a, n) * numth.jacobi(b, n)


def test_jacobi_edges():
    assert numth.jacobi(3, 1) == 1
    assert numth.jacobi(-1, 9907) == -1
    for n in (-3, 0, 4):
        with pytest.raises(ParameterError):
            numth.jacobi(5, n)


def test_quartic_residue_vs_brute():
    for p in ODD_PRIMES_200:
        if p >= 100:
            break
        table = quartic_residues(p)
        for a in range(1, p):
            assert numth.is_quartic_residue(a, p) == (a in table)


def test_quartic_residue_rejects():
    with pytest.raises(ParameterError):
        numth.is_quartic_residue(3, 2)
    with pytest.raises(ParameterError):
        numth.is_quartic_residue(3, 15)


def test_sqrt_mod_prime_all_squares():
    for p in ODD_PRIMES_200:
        for a in square_residues(p):
            r = numth.sqrt_mod_prime(a, p)
            assert r * r % p == a
            assert r <= p - r  # canonical smaller root
    assert numth.sqrt_mod_prime(2, 7) == 3
    assert numth.sqrt_mod_prime(-1, 13) == 5


def test_sqrt_mod_prime_rejects_nonsquares():
    with pytest.raises(ParameterError):
        numth.sqrt_mod_prime(3, 7)
    with pytest.raises(ParameterError):
        numth.sqrt_mod_prime(0, 7)


def test_hilbert_fixed_values():
    h = numth.hilbert_symbol
    assert h(-1, -1, None) == -1
    assert h(-1, -1, 2) == -1
    assert h(-1, -1, 7) == 1
    assert h(2, 7, 7) == 1
    assert h(14, -7, 2) == 1
    assert h(3, 3, 3) == -1
    assert h(7, 14, 7) == -1
    assert h(Fraction(1, 2), 7, 2) == 1


def test_hilbert_rejects():
    with pytest.raises(ParameterError):
        numth.hilbert_symbol(0, 3, 7)
    with pytest.raises(ParameterError):
        numth.hilbert_symbol(3, 5, 4)


def test_hilbert_laws():
    rng = random.Random(105)
    places = [None, 2, 3, 5, 7, 11, 13]
    pool = [n for n in range(-40, 41) if n]
    h = numth.hilbert_symbol
    for _ in range(800):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        v = rng.choice(places)
        assert h(a, b, v) == h(b, a, v)
        assert h(a * c * c, b, v) == h(a, b, v)
        assert h(a * b, c, v) == h(a, c, v) * h(b, c, v)
        assert h(a, -a, v) == 1
        if a != 1:
            assert h(a, 1 - a, v) == 1


def test_hilbert_product_formula():
    rng = random.Random(106)
    for _ in range(200):
        a = rng.choice([n for n in range(-500, 501) if n])
        b = rng.choice([n for n in range(-500, 501) if n])
        places = {None} | {p for p, _ in numth.factorize(abs(2 * a * b))}
        prod = 1
        for v in places:
            prod *= numth.hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_matches_conic_oracle():
    rng = random.Random(107)
    cases = []
    for p in (2, 3, 5):
        for _ in range(6):
            va, vb = rng.randrange(3), rng.randrange(2)
            a = rng.choice([u for u in range(1, 30) if u % p]) * p**va
            b = rng.choice([u for u in range(1, 30) if u % p]) * p**vb
            cases.append((rng.choice((a, -a)), rng.choice((b, -b)), p))
    for p in (7, 11, 13):
        for _ in range(4):
            va, vb = rng.randrange(2), rng.randrange(2)
            if va + vb > 1:
                vb = 0
            a = rng.choice([u for u in range(1, 30) if u % p]) * p**va
            b = rng.choice([u for u in range(1, 30) if u % p]) * p**vb
            cases.append((rng.choice((a, -a)), rng.choice((b, -b)), p))
    seen_negative = False
    for a, b, p in cases:
        sym = numth.hilbert_symbol(a, b, p)
        seen_negative = seen_negative or sym == -1
        assert (sym == 1) == conic_solvable_qp(a, b, p), (a, b, p)
    assert seen_negative  # the sample must exercise the obstructed case
