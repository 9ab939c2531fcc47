"""Rational-integer kernels: primality, factorization, residue symbols,
modular square roots, and Hilbert symbols over the completions of Q."""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING

from .errors import FactorizationError, ParameterError

if TYPE_CHECKING:
    from fractions import Fraction

# The first 13 primes as strong-pseudoprime witnesses make Miller-Rabin
# deterministic for n < _MR_BOUND (psi_13, Sorenson-Webster); without 41
# the bound is psi_12 = 318665857834031151167461, itself composite.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

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
# as gcds with the product of each block's odd primes; the 33 blocks cover
# [0, _TRIAL_BOUND].  The products are made once, at import (~13 KB).  Past
# the last block Brent rho takes over: it finds a prime p in about sqrt(p)
# steps, no dearer than a block walk to 10^6, and needs no table.
_BLOCK = 2048
_flags = _odd_prime_flags(_TRIAL_BOUND + _BLOCK - 1)
_BLOCK_PRODUCTS = tuple(
    prod(compress(range(lo + 1, lo + _BLOCK, 2), _flags[lo // 2 : (lo + _BLOCK) // 2]))
    for lo in range(0, _TRIAL_BOUND + 1, _BLOCK)
)
_SMALL_PRIMES = (2, *compress(range(1, 312, 2), _flags))  # the first 64 primes
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
    """Primality of n: Miller-Rabin over the first 13 prime bases, which is
    deterministic below ~3.3e24 (psi_13); above it Baillie-PSW, i.e. those
    rounds plus a strong Lucas test, with no known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _brent_rho(n: int, c: int, budget: int) -> int | None:
    # Brent's cycle variant of Pollard rho with batched gcds; returns a
    # nontrivial factor of odd composite n, or None within the budget.
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
        if f is not None and 1 < f < n:
            return f
    raise FactorizationError(f"could not factor {n} within effort budget")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (p, e) pairs.

    After the 2s, trial division up to 2^16 by gcds of n with the products
    of the odd primes of the 33 2048-wide blocks, made at import, in
    ascending order; a block whose gcd exceeds 1 is split by trial division.
    It stops at the first cofactor that is 1 or passes `is_prime`.  Brent
    rho splits a composite cofactor left after the last block, and each
    prime it finds is divided out of every cofactor still to be split.
    """
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"factorize expects a positive integer, got {n}")
    exps: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        exps[2] = twos
        n >>= twos
    composite = n > 1 and not is_prime(n)
    if composite:
        for k, block in enumerate(_BLOCK_PRODUCTS):
            lo = k * _BLOCK
            if lo * lo > n:
                composite = False  # every prime below lo is divided out
                break
            g = gcd(n, block)
            if g == 1:
                continue
            # g is the product of the primes of this block that divide n
            p = max(lo + 1, 3)
            while g > 1:
                if p * p > g:
                    p = g
                if g % p == 0:
                    g //= p
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    exps[p] = e
                p += 2
            composite = n > 1 and not is_prime(n)
            if not composite:
                break
    if not composite:
        if n > 1:
            exps[n] = 1  # a prime larger than every p divided out
        return sorted(exps.items())
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if not is_prime(m):
            f = _split_composite(m)
            stack += sorted((f, m // f), reverse=True)  # the smaller part first
            continue
        # every copy of m goes now, so no later split meets it again
        e = 1
        for i, r in enumerate(stack):
            while r % m == 0:
                r //= m
                e += 1
            stack[i] = r
        exps[m] = e
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


def _euler_criterion(a: int, p: int, k: int = 2) -> bool:
    # Whether a is a k-th power residue mod the odd prime p, for p not
    # dividing a: a^((p-1)/gcd(k, p-1)) = 1 (mod p).  p is not checked, so
    # callers pass primes they already hold.
    return pow(a % p, (p - 1) // gcd(k, p - 1), p) == 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: one of -1, 0, 1."""
    if p == 2 or not is_prime(p):
        raise ParameterError(f"legendre requires an odd prime modulus, got {p}")
    if a % p == 0:
        return 0
    return 1 if _euler_criterion(a, p) else -1


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
    return _euler_criterion(a, p, 4)


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p, by Tonelli-Shanks.

    Deterministic: uses the smallest quadratic nonresidue, and returns the
    smaller of the two roots.
    """
    if legendre(a, p) != 1:
        raise ParameterError(f"{a} is not a nonzero square mod {p}")
    return _sqrt_mod_prime(a, p)


def _sqrt_mod_prime(a: int, p: int) -> int:
    # sqrt_mod_prime without its checks, for an odd prime p and a nonzero
    # square a mod p that the caller already holds as such.
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # p is prime, so Euler's criterion finds the nonresidue
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


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
    result = 1
    if alpha * beta % 2 and p % 4 == 3:
        result = -result
    if beta % 2:
        result *= legendre(u, p)
    if alpha % 2:
        result *= legendre(w, p)
    return result
