"""Rational integer kernels: primality, factorization, residue symbols."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

import oracles
from oracles import (
    brute_factorize,
    brute_jacobi,
    brute_legendre,
    conic_solvable_qp,
    quartic_residues,
    square_residues,
)
from twosquares import criterion, numth, ring
from twosquares.errors import FactorizationError, ParameterError

ODD_PRIMES_200 = [p for p in range(3, 200) if all(p % q for q in range(2, p))]


def test_is_prime_small():
    # a sieve below 2e5, across the small-n rule's end at 313^2
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert not any(map(numth.is_prime, range(-3, 0)))
    assert bytearray(map(numth.is_prime, range(limit))) == sieve


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
    assert len(numth._BLOCK_PRODUCTS) == 32 and numth._TRIAL_BOUND == 1 << 16
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


def test_trial_division_ends_at_the_trial_bound(monkeypatch):
    # the blocks find every prime below 2^16 and none above it: a product of
    # two primes just past 2^16 reaches rho, one just below it does not
    rho = []
    brent_rho = numth._brent_rho
    monkeypatch.setattr(numth, "_brent_rho", lambda n, c, budget: rho.append(n) or brent_rho(n, c, budget))
    assert numth.factorize(65519 * 65521) == [(65519, 1), (65521, 1)]
    assert rho == []
    assert numth.factorize(65563 * 66413) == [(65563, 1), (66413, 1)]
    assert rho != []


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


@pytest.mark.parametrize("first_part", ["composite smaller", "larger"])
def test_rho_recurses_only_on_the_smaller_part(monkeypatch, first_part):
    # n = p q^2 r s, all four primes past the trial bound, with rho's splits
    # chosen: the composite smaller part p q of n and then the least prime
    # of each cofactor m, or for every m the larger part m // (least prime).
    # The nested call takes the smaller part, so no split runs more than one
    # level down (only that of p q does); a call on the part rho returned, or
    # on the other one, would nest once per prime.
    p, q, r, s = 65537, 65539, 65543, 65551
    n = p * q**2 * r * s
    depth, split_depths = [-1], []
    factorize = numth.factorize

    def split(m):
        split_depths.append(depth[0])
        least = min(x for x in (p, q, r, s) if m % x == 0)
        if first_part == "larger":
            return m // least
        return p * q if m == n else least

    def nested(m):
        depth[0] += 1
        try:
            return factorize(m)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numth, "_split_composite", split)
    monkeypatch.setattr(numth, "factorize", nested)
    assert numth.factorize(n) == [(p, 1), (q, 2), (r, 1), (s, 1)]
    assert max(split_depths) <= 1


def test_rho_gives_up_past_its_budget(monkeypatch):
    # both primes are past the trial bound, and 2^6 steps cannot find either
    monkeypatch.setattr(numth, "_RHO_BUDGET", 1 << 6)
    with pytest.raises(FactorizationError, match="within effort budget"):
        numth.factorize(1000003 * 1000033)


def test_rho_backtracks_when_the_batched_gcd_reaches_n():
    # for these n one batch of |x - y| products picks up both prime factors,
    # so its gcd is n and Brent's backtrack walks the batch again step by step
    assert numth._brent_rho(55, 1, 1 << 21) == 5
    assert numth._brent_rho(35, 1, 1 << 21) is None  # the backtrack ends at n too


def test_rho_retries_with_the_next_constant():
    # both primes lie past the last trial-division block, which ends at
    # 2^16 - 1, and c = 1 finds neither, so the split comes from c = 2
    n = 67709 * 67759
    assert numth._brent_rho(n, 1, 1 << 21) is None
    assert numth.factorize(n) == [(67709, 1), (67759, 1)]


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


# The first 14 primes, for a Miller-Rabin written here that shares no code
# with numth: its bases and its psi table are what these tests check.
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# OEIS A014233: psi_k, the least strong pseudoprime to the first k prime bases
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_prime(n):
    # all 13 bases, whatever the size of n: a proof below psi_13
    if n < 2:
        return False
    for p in BASES[:13]:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in BASES[:13])


def next_prime(n):
    while not reference_is_prime(n):
        n += 1
    return n


def previous_prime(n):
    while not reference_is_prime(n):
        n -= 1
    return n


@pytest.fixture
def powers(monkeypatch):
    # every pow that numth makes, in order; the count is the cost guard
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(numth, "pow", counting, raising=False)
    return calls


def test_each_psi_is_a_strong_pseudoprime_to_exactly_its_bases():
    psi = numth._MR_PSI
    assert numth._MR_WITNESSES == BASES[:13] and psi == A014233
    for n in set(psi):
        k = max(i for i, v in enumerate(psi, 1) if v == n)  # the most bases n fools
        assert all(strong_probable_prime(n, a) for a in BASES[:k]), n
        assert not strong_probable_prime(n, BASES[k]), n  # so n is composite
        assert not numth.is_prime(n), n


def test_small_n_rule_ends_at_313_squared(powers):
    # 2..311 are screened; 313^2 and 313 * 317 pass the screen, and only
    # Miller-Rabin can reject them
    largest = previous_prime(313**2)
    assert largest < 313**2 < 313 * 317
    assert numth.is_prime(largest) and powers == []
    for n in (313**2, 313 * 317):
        assert not numth.is_prime(n), n
        assert powers != [], n
        powers.clear()


def test_is_prime_agrees_with_the_13_base_reference_in_every_band():
    rng = random.Random(109)
    # past psi_13 (a 13-base strong pseudoprime, so left out) the reference
    # is a probable-prime test, as is_prime is there
    edges = sorted({313**2, *(v for v in numth._MR_PSI if v > 313**2)})
    for lo, hi in [*zip(edges, edges[1:]), (edges[-1] + 1, 10**30)]:
        cases = [rng.randrange(lo, hi) | 1 for _ in range(150)]
        cases += [next_prime(rng.randrange(lo, hi)) for _ in range(15)]
        cases += [lo, hi - 1, next_prime(lo), previous_prime(hi - 1)]
        for n in cases:
            assert numth.is_prime(n) == reference_is_prime(n), n


def test_is_prime_pays_one_power_per_base_its_band_needs(powers):
    # a prime in [psi_(k-1), psi_k) takes exactly k Miller-Rabin powers,
    # one below 313^2 none, and one above psi_13 all 13 and the Lucas test
    for p in (2, 3, 311, 313, 65537, previous_prime(313**2)):
        assert numth.is_prime(p) and powers == [], p
    lo = 313**2
    for k, hi in enumerate(numth._MR_PSI, 1):
        if lo < hi:
            for p in (next_prime(lo), previous_prime(hi - 1)):
                powers.clear()
                assert numth.is_prime(p) and len(powers) == k, (k, p)
            lo = hi
    for p in (next_prime(lo + 1), 2**89 - 1, 2**127 - 1):
        powers.clear()
        assert numth.is_prime(p) and len(powers) == 13, p


def big_primes_1_mod_4():
    # the first primes = 1 and 5 (mod 8) above 10^24 (below psi_13, so the
    # reference proves them prime)
    return [next(p for p in range(10**24 + r, 10**25, 8) if reference_is_prime(p)) for r in (1, 5)]


def test_sqrt_of_minus_one_takes_one_power(powers):
    # p = 1 and p = 5 (mod 8), small, with p - 1 divisible by 2^16 or 2^20,
    # and above 10^24; the kernel is cached, so each call goes past the cache
    for p in (5, 13, 17, 29, 41, 97, 65537, 7340033, *big_primes_1_mod_4()):
        powers.clear()
        r = numth._sqrt_mod_prime_power.__wrapped__(-1, p, 1)
        assert len(powers) == 1, p
        assert r * r % p == p - 1 and r < p - r, p


def test_quadratic_characters_take_no_power(powers):
    # _split_type, _partition and a1_symbol read each character by
    # reciprocity; they agree with Euler's criterion, computed here
    def euler(a, p):
        return 1 if pow(a, (p - 1) // 2, p) == 1 else -1

    rng = random.Random(110)
    primes = [next_prime(rng.randrange(10**e, 10 ** (e + 1))) for e in range(6, 31) for _ in range(4)]
    for p in primes:
        for d in (-14, -5, 2, 3):
            expected = ring.Splitting.SPLIT if euler(d, p) == 1 else ring.Splitting.INERT
            assert ring._split_type(p, d) is expected, (p, d)
    assert powers == []
    # 7 is a fourth power only where it is a square: _partition's one power
    # is that quartic test, where 14 and 7 are both squares; its per-prime
    # cache is emptied first, so every prime is classified here
    ones = [p for p in primes if p % 4 == 1]
    d1 = [p for p in ones if euler(14, p) == 1 and euler(7, p) == -1]
    d2 = [p for p in ones if euler(14, p) == -1 and euler(7, p) == -1]
    d3 = [p for p in ones if euler(14, p) == 1 and pow(7, (p - 1) // 4, p) != 1]
    both = [p for p in ones if euler(14, p) == euler(7, p) == 1]
    assert d1 and d2 and d3 and both
    factors = tuple((p, 1) for p in sorted({2, 7, *primes}))
    criterion._d_classes.cache_clear()
    assert criterion._partition(factors) == (tuple(sorted(d1)), tuple(sorted(d2)), tuple(sorted(d3)))
    assert [args[2] for args in powers] == sorted(both)
    powers.clear()
    for _ in range(200):
        a1 = rng.choice((-1, 1)) * rng.randrange(1, 10**30)
        if a1 % 7:
            nf = criterion.NormFactorization((), 0, a1, (), (), ())
            assert nf.a1_symbol == euler(a1, 7), a1
    assert powers == []


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
    # the A217255 filter above leaves out the squares, which the test rejects
    # outright
    assert not numth._strong_lucas_probable_prime(9)
    assert not numth._strong_lucas_probable_prime(65537**2)


def test_block_products_are_the_odd_primes_of_each_block():
    # block k covers [2048k, 2048(k+1)); its entry is the product of the odd
    # primes there, read off the oracle's factorization of each odd number
    blocks = numth._BLOCK_PRODUCTS
    assert isinstance(blocks, tuple) and len(blocks) == 32
    expected = [1] * len(blocks)
    for n in range(3, len(blocks) * 2048, 2):
        if brute_factorize(n) == [(n, 1)]:
            expected[n // 2048] *= n
    assert list(blocks) == expected


def test_factorize_stops_at_prime_cofactor(monkeypatch):
    # only the trial-division blocks count: is_prime's screen takes a gcd too
    taken = []

    def counting(a, b):
        if b in numth._BLOCK_PRODUCTS:
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
    # a base below 2 used to loop forever (1, -1) or divide by zero (0),
    # and zero has no valuation
    for n, p in ((8, 1), (8, 0), (8, -1), (0, 3)):
        with pytest.raises(ParameterError):
            numth.valuation(n, p)


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
    # every unit square mod p = 3 (mod 4); mod p = 1 only -1 has a root
    for p in ODD_PRIMES_200:
        if p % 4 == 3:
            for a in square_residues(p):
                r = numth._sqrt_mod_prime_power(a, p, 1)
                assert r * r % p == a
                assert r <= p - r  # canonical smaller root
    assert numth._sqrt_mod_prime_power(2, 7, 1) == 3
    assert numth._sqrt_mod_prime_power(-1, 13, 1) == 5


def test_sqrt_kernel_agrees_with_the_scan_on_its_whole_domain():
    # the root mod p^k that is the smaller root mod p, for every unit square
    # mod p = 3 (mod 4) and for -1 mod p = 1 (mod 4), against a scan that
    # lifts one digit at a time; past the scan's reach, against the contract
    kernel = numth._sqrt_mod_prime_power
    for p in ODD_PRIMES_200:
        cases = square_residues(p) if p % 4 == 3 else [-1]
        for a in cases:
            for k in range(1, 5):
                assert kernel(a, p, k) == oracles._lift_sqrt(a, p, k), (a, p, k)
    for p in big_primes_1_mod_4():
        for k in range(1, 5):
            r = kernel(-1, p, k)
            assert (r * r + 1) % p**k == 0 and 0 <= r < p**k, (p, k)
            assert r % p < p - r % p, (p, k)
    # any other a or p: a p = 1 (mod 4) with a != -1, a nonsquare or a
    # multiple of p at p = 3 (mod 4), and p = 2
    for a, p, k in ((2, 13, 1), (1, 13, 2), (-1, 7, 1), (3, 7, 1), (3, 7, 3), (0, 7, 2), (14, 7, 1), (1, 2, 1)):
        with pytest.raises(RuntimeError):
            kernel(a, p, k)


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


def test_hilbert_proves_its_place_once(monkeypatch):
    p = 2**89 - 1  # a Mersenne prime, 3 (mod 4)
    # (3p, 5p)_p = (-1)^((p-1)/2) * (3/p) * (5/p)
    expected = -numth.legendre(3, p) * numth.legendre(5, p)
    calls = []
    is_prime = numth.is_prime
    monkeypatch.setattr(numth, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert numth.hilbert_symbol(3 * p, 5 * p, p) == expected
    assert calls == [p]


def test_hilbert_rejects():
    with pytest.raises(ParameterError):
        numth.hilbert_symbol(0, 3, 7)
    with pytest.raises(ParameterError):
        numth.hilbert_symbol(3, 5, 4)
    with pytest.raises(ParameterError):
        numth.hilbert_symbol(1.5, 1, 2)


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
