"""Brute-force oracles used to cross-check the library.

Everything here recomputes answers from definitions with plain loops, so
these checks share no nontrivial code path with the implementation.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from twosquares.ring import QuadInt


def brute_factorize(n: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def square_residues(p: int) -> frozenset[int]:
    return frozenset(x * x % p for x in range(1, p))


def brute_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in square_residues(p) else -1


@lru_cache(maxsize=None)
def quartic_residues(p: int) -> frozenset[int]:
    return frozenset(pow(x, 4, p) for x in range(1, p))


def brute_jacobi(a: int, n: int) -> int:
    out = 1
    for p, e in brute_factorize(n):
        out *= brute_legendre(a, p) ** e
    return out


def conic_solvable_qp(a: int, b: int, p: int) -> bool:
    """Whether a*x^2 + b*y^2 = z^2 has a nontrivial solution over Q_p.

    Exhausts primitive solution classes mod p^m with m = 2*v_p(4ab) + 3,
    which is decisive.  A primitive class can be scaled so that one unit
    coordinate equals 1, so three linear scans against precomputed value
    tables cover everything.
    """
    v = 0
    n = 4 * a * b
    while n % p == 0:
        n //= p
        v += 1
    m = p ** (2 * v + 3)
    squares = bytearray(m)
    for z in range(m // 2 + 1):
        squares[z * z % m] = 1
    b_squares = bytearray(m)
    for y in range(m // 2 + 1):
        b_squares[b * y * y % m] = 1
    for x in range(m):
        axx = a * x * x % m
        if squares[(axx + b) % m]:  # y = 1
            return True
        if b_squares[(1 - axx) % m]:  # z = 1
            return True
    for y in range(m):
        if squares[(a + b * y * y) % m]:  # x = 1
            return True
    return False


def brute_ring_classes(
    delta: QuadInt, p: int, k: int
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All ((u,v),(s,t)) mod p^k with (u+v*w)^2 + (s+t*w)^2 = delta."""
    m = p**k
    a, b, d = delta.a, delta.b, delta.d
    out = set()
    for u in range(m):
        for v in range(m):
            c1 = (u * u + d * v * v - a) % m
            c2 = (2 * u * v - b) % m
            for s in range(m):
                ss = s * s
                for t in range(m):
                    if (c1 + ss + d * t * t) % m == 0 and (c2 + 2 * s * t) % m == 0:
                        out.add(((u, v), (s, t)))
    return out


def sums_of_two_squares_mod(d: int, m: int) -> set[tuple[int, int]]:
    """Every (u + v*w)^2 + (s + t*w)^2 in Z[sqrt(d)]/m, w^2 = d, as
    coordinate pairs mod m."""
    out = set()
    for u in range(m):
        for v in range(m):
            for s in range(m):
                for t in range(m):
                    a = u * u + d * v * v + s * s + d * t * t
                    out.add((a % m, (2 * u * v + 2 * s * t) % m))
    return out


def brute_two_squares(n: int) -> tuple[int, int] | None:
    for x in range(isqrt(n) + 1):
        y2 = n - x * x
        y = isqrt(y2)
        if y * y == y2:
            return (x, y)
    return None


def is_representation(delta: QuadInt, x: QuadInt, y: QuadInt) -> bool:
    ra = x.a * x.a + x.d * x.b * x.b + y.a * y.a + y.d * y.b * y.b
    rb = 2 * (x.a * x.b + y.a * y.b)
    return ra == delta.a and rb == delta.b and x.d == y.d == delta.d


def full_box_scan(delta: QuadInt, bound: int) -> tuple[tuple[QuadInt, QuadInt] | None, int]:
    """The first (x, y) with x^2 + y^2 = delta and every coordinate in
    [-bound, bound], in (x.a, x.b, y.a, y.b) order, and how many x were
    tried up to it (every x of the box on a miss)."""
    a, b, d = delta.a, delta.b, delta.d
    box = range(-bound, bound + 1)
    tried = 0
    for u in box:
        for v in box:
            tried += 1
            ra, rb = a - u * u - d * v * v, b - 2 * u * v
            for s in box:
                for t in box:
                    if s * s + d * t * t == ra and 2 * s * t == rb:
                        return (QuadInt(u, v, d), QuadInt(s, t, d)), tried
    return None, tried
