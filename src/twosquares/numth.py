"""Rational-integer kernels: primality, factorization, residue symbols,
modular square roots, and Hilbert symbols over the completions of Q."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING

from .errors import FactorizationError, ParameterError

if TYPE_CHECKING:
    from fractions import Fraction

# Miller-Rabin to the first k prime bases is deterministic below psi_k, the
# least strong pseudoprime to all of them (OEIS A014233; Jaeschke 1993;
# Sorenson & Webster 2017 for psi_12 and psi_13).  Each psi_k is composite.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

_TRIAL_BOUND = 1 << 16
_RHO_BUDGET = 1 << 21


def _odd_prime_flags(limit: int) -> bytearray:
    # Sieve of the odd numbers up to limit: entry i is 1 iff 2*i + 1 is prime.
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    if size:
        flags[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    return flags


# Trial division runs over blocks [k*_BLOCK, (k+1)*_BLOCK) of the integers,
# as gcds with the product of each block's odd primes; the 32 blocks cover
# [0, _TRIAL_BOUND).  The products are made once, at import (~13 KB).  Past
# the last block Brent rho takes over: it finds a prime p in about sqrt(p)
# steps, no dearer than a block walk to 10^6, and needs no table.
_BLOCK = 2048
_flags = _odd_prime_flags(_TRIAL_BOUND)
_BLOCK_PRODUCTS = tuple(
    prod(compress(range(lo + 1, lo + _BLOCK, 2), _flags[lo // 2 : (lo + _BLOCK) // 2]))
    for lo in range(0, _TRIAL_BOUND, _BLOCK)
)
# factorize walks these (k, product) pairs: iter() of this tuple costs less
# per call than a fresh enumerate(), which shows on the small norms a hunt factors
_BLOCKS = tuple(enumerate(_BLOCK_PRODUCTS))
_SMALL_PRIMES = (2, *compress(range(1, 312, 2), _flags))  # the first 64 primes
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
del _flags


def _strong_lucas_probable_prime(n: int) -> bool:
    # Strong Lucas test with Selfridge's parameters, for odd n > 1 (the
    # Lucas half of Baillie-PSW; Baillie & Wagstaff, Math. Comp. 35, 1980)
    r = isqrt(n)
    if r * r == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_m, V_m, Q^m mod n, from m = 0 up the bits of k (P = 1)
    U, V, Qm = 0, 2, 1
    for bit in bin(k)[2:]:
        U, V, Qm = U * V % n, (V * V - 2 * Qm) % n, Qm * Qm % n
        if bit == "1":
            U, V = U + V, D * U + V
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qm = Qm * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qm = (V * V - 2 * Qm) % n, Qm * Qm % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of n.  One gcd screens the first 64 primes, 2 to 311; a
    number below 313^2 that passes it is prime.  Past that, Miller-Rabin to
    the first k prime bases, for the least k with n < psi_k, proves n prime
    below psi_13 ~ 3.3e24.  Above it Baillie-PSW, i.e. all 13 rounds plus a
    strong Lucas test, with no known counterexample."""
    if n < 2:
        return False
    if gcd(n, _SMALL_PRODUCT) > 1:
        return n in _SMALL_PRIMES
    if n < 313 * 313:
        return True  # no prime factor up to its square root
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in zip(_MR_WITNESSES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True  # the bases so far prove n prime
    return _strong_lucas_probable_prime(n)


def _brent_rho(n: int, c: int, budget: int) -> int | None:
    # Brent's cycle variant of Pollard rho with batched gcds on odd composite
    # n; returns a proper factor 1 < f < n, or None when the budget runs out
    # or the cycle closes on n itself.
    y, r, q = 2, 1, 1
    g, x, ys = 1, y, y
    spent = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(128, r - k)
            for _ in range(step):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += step
            spent += step
            if spent > budget:
                return None
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g if g != n else None


def _split_composite(n: int) -> int:
    for c in range(1, 20):
        f = _brent_rho(n, c, _RHO_BUDGET)
        if f is not None:
            return f
    raise FactorizationError(f"could not factor {n} within effort budget")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (p, e) pairs.

    After the 2s, one loop runs while the cofactor is neither 1 nor passes
    `is_prime`.  Each pass takes a list of primes that divide it: those of
    the next trial block whose gcd with it exceeds 1, split by trial
    division, or, past the last block, those of the smaller part of a Brent
    rho split, by a nested call.  Every copy of each is divided out before
    the next pass.  The nested call gets at most the square root of its
    caller's cofactor, so the nesting is at most log2(log2 n) deep.
    """
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"factorize expects a positive integer, got {n}")
    exps: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        exps[2] = twos
        n >>= twos
    blocks = iter(_BLOCKS)
    while n > 1 and not is_prime(n):
        for k, block in blocks:
            g = gcd(n, block)
            if g > 1:
                # g is the product of the primes of this block that divide n
                primes = []
                p = max(k * _BLOCK + 1, 3)
                while g > 1:
                    if p * p > g:
                        p = g
                    if g % p == 0:
                        g //= p
                        primes.append(p)
                    p += 2
                break
        else:
            f = _split_composite(n)
            primes = [p for p, _ in factorize(min(f, n // f))]
        for p in primes:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps[p] = e
    if n > 1:
        exps[n] = 1  # a prime larger than every p divided out
    return sorted(exps.items())


def valuation(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero and p at least 2."""
    if n == 0:
        raise ParameterError("valuation of zero is undefined")
    if p < 2:
        raise ParameterError(f"valuation needs a base of at least 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _euler_criterion(a: int, p: int) -> bool:
    # Whether a is a fourth power mod the odd prime p, for p not dividing a:
    # a^((p-1)/gcd(4, p-1)) = 1 (mod p).  p is not checked, so callers pass
    # primes they already hold.  Quadratic characters come from jacobi.
    return pow(a % p, (p - 1) // gcd(4, p - 1), p) == 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: one of -1, 0, 1."""
    if p == 2 or not is_prime(p):
        raise ParameterError(f"legendre requires an odd prime modulus, got {p}")
    return jacobi(a, p)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by the binary algorithm."""
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"jacobi requires a positive odd modulus, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_quartic_residue(a: int, p: int) -> bool:
    """Whether x^4 = a (mod p) is solvable, for an odd prime p not dividing a.

    The subgroup of fourth powers in (Z/p)* has index gcd(4, p-1), so the
    test is a^((p-1)/gcd(4,p-1)) = 1 (mod p).
    """
    if p == 2 or not is_prime(p):
        raise ParameterError(f"quartic residue test requires an odd prime, got {p}")
    if a % p == 0:
        raise ParameterError(f"quartic residue test requires p coprime to a, got a={a}, p={p}")
    return _euler_criterion(a, p)


@lru_cache(maxsize=1024)
def _sqrt_mod_prime_power(a: int, p: int, k: int) -> int:
    # The root of a mod p^k that is the smaller root mod the odd prime p, for
    # the two kinds the places take, each in closed form (Cohen, GTM 138,
    # 1.5): a unit square a mod p = 3 (mod 4) has the root a^((p+1)/4), and
    # a = -1 mod p = 1 (mod 4) has z^((p-1)/4), z a nonresidue found by
    # reciprocity.  Hensel lifts it a digit at a time.  p is not checked, so
    # callers pass primes they hold; any other (a, p) raises.
    if p % 4 == 3 and a % p:
        r = pow(a, (p + 1) // 4, p)
    elif p % 4 == 1 and a % p == p - 1:
        z = 2
        while jacobi(z, p) != -1:
            z += 1
        r = pow(z, (p - 1) // 4, p)
    else:
        raise RuntimeError(f"no closed-form square root of {a} mod {p}; invariant violated")
    if r * r % p != a % p:
        raise RuntimeError(f"{a} is not a square mod {p}; invariant violated")
    r = min(r, p - r)
    if k > 1:
        inv = pow(2 * r, -1, p)  # r mod p is the same at every level
        m = 1
        for _ in range(k - 1):
            m *= p  # r < m, and the next digit keeps r < m * p
            r += (a - r * r) // m * inv % p * m
    return r


def _square_class(x: int | Fraction) -> int:
    from fractions import Fraction  # only the Hilbert symbol needs it

    if isinstance(x, Fraction):
        x = x.numerator * x.denominator
    if not isinstance(x, int):
        raise ParameterError(f"hilbert symbol arguments must be int or Fraction, got {x!r}")
    if x == 0:
        raise ParameterError("hilbert symbol requires nonzero arguments")
    return x


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: int | None) -> int:
    """(a, b)_v: +1 if z^2 = a*x^2 + b*y^2 has a nontrivial solution over the
    completion of Q at `place`, else -1.

    `place` is a rational prime, or None for the real place.  Arguments are
    nonzero integers or Fractions (only their square classes matter).
    """
    a = _square_class(a)
    b = _square_class(b)
    if place is None:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not is_prime(p):
        raise ParameterError(f"hilbert symbol place must be prime or None, got {p}")
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = a // p**alpha, b // p**beta
    if p == 2:
        exponent = ((u - 1) // 2) * ((w - 1) // 2)
        exponent += alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if exponent % 2 else 1
    # (-1)^(alpha*beta*(p-1)/2) * (u/p)^beta * (w/p)^alpha; u and w are
    # prime to p, proved prime above, so jacobi gives each symbol
    exponent = alpha * beta * ((p - 1) // 2)
    exponent += (beta % 2 and jacobi(u, p) < 0) + (alpha % 2 and jacobi(w, p) < 0)
    return -1 if exponent % 2 else 1
