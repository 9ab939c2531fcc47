"""Brute-force ground truth: bounded exhaustive representation search over
Z[sqrt(d)] behind a residue mask, a residue sieve that refutes deltas before
the search, and the classical two-square search over Z.

This module imports neither the local solver nor the number-theory kernels,
so a refutation by the sieve stays an independent witness against them."""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from math import isqrt
from operator import and_
from typing import NamedTuple

from .errors import ParameterError, ResourceLimitError
from .ring import QuadInt

# Each u of a scan ANDs one (2*bound + 1)-bit row per modulus, and the
# _mask_rows cache holds up to 1024 tuples of m such rows: this cap bounds
# both that memory and the time of one scan.  The _square_roots_mod cache
# under them holds one m*m-bit root set per square mod m for each (d, m),
# whatever the bound.
MAX_SEARCH_BOUND = 300

# If y^2 = delta - x^2 then delta - x^2 is a square mod every m, so the scan
# skips every x that fails this mod one of these moduli.
MASK_MODULI = (16, 9, 5, 7, 13)

# Tried in order; together they refute every delta in the |a|, |b| <= 25
# box that the nine moduli 64, 27, 25, 49, 11, 13, 17, 19, 23 refute.
SIEVE_MODULI = (32, 9, 7)


class SearchReport(NamedTuple):
    delta: QuadInt
    bound: int
    witness: tuple[QuadInt, QuadInt] | None
    states_examined: int


def _square_root(a: int, b: int, r: int, d: int, bound: int) -> tuple[int, int] | None:
    # The first z = s + t*sqrt(d) in (s, t) order with z^2 = w = a + b*sqrt(d)
    # and |s|, |t| <= bound, or None, for w of norm r^2 (r >= 0): a square
    # has N(w) = (s^2 - d*t^2)^2, so s^2 = (a +- r)/2 and t^2 = (a -+ r)/(2d),
    # and the sign of s^2 - d*t^2 is + for d < 0.  Z[sqrt(d)] is a domain, so
    # the roots are z and -z, and the first has s < 0, or s = 0 and t <= 0.
    for r in (r, -r) if d > 0 and r else (r,):
        ss, odd = divmod(a + r, 2)
        tt, rest = divmod(a - r, 2 * d)
        if odd or rest or ss < 0 or tt < 0:
            continue
        s, t = isqrt(ss), isqrt(tt)
        if s * s != ss or t * t != tt:
            continue
        if s > bound or t > bound:
            return None
        if s == 0:
            return 0, -t
        return -s, -t if b > 0 else t
    return None


@lru_cache(maxsize=32)
def _square_roots_mod(d: int, m: int) -> dict[tuple[int, int], int]:
    # Each y^2 in Z[sqrt(d)]/m, as a coordinate pair reduced mod m, maps to
    # the m*m-bit set of its square roots r + c*sqrt(d), bit r*m + c; the
    # keys are every square mod m.
    roots: dict[tuple[int, int], int] = {}
    for r in range(m):
        for c in range(m):
            z = ((r * r + d * c * c) % m, 2 * r * c % m)
            roots[z] = roots.get(z, 0) | 1 << (r * m + c)
    return roots


@lru_cache(maxsize=32)
def _sums_of_two_squares_mod(d: int, m: int) -> frozenset[tuple[int, int]]:
    # every x^2 + y^2 in Z[sqrt(d)]/m, as coordinate pairs reduced mod m
    squares = _square_roots_mod(d, m)
    return frozenset(((a1 + a2) % m, (b1 + b2) % m) for a1, b1 in squares for a2, b2 in squares)


@lru_cache(maxsize=1024)
def _mask_rows(d: int, m: int, a: int, b: int, bound: int) -> tuple[int, ...]:
    # Row r has bit v + bound set, for v in [-bound, bound], iff
    # (a + b*sqrt(d)) - (r + v*sqrt(d))^2 is a square mod m, that is iff
    # r + v*sqrt(d) is a square root of (a + b*sqrt(d)) - s for a square s;
    # a and b come reduced mod m, and rows are indexed by u mod m.
    roots = _square_roots_mod(d, m)
    passing = 0
    for s0, s1 in roots:
        passing |= roots.get(((a - s0) % m, (b - s1) % m), 0)
    # Row r of passing holds bit c for v = c mod m; the repunit repeats it
    # past width + m bits, and the shift puts v = -bound at bit 0.
    width = 2 * bound + 1
    repunit = sum(1 << k * m for k in range(width // m + 2))
    low, full, shift = (1 << m) - 1, (1 << width) - 1, -bound % m
    return tuple(((passing >> r * m & low) * repunit >> shift) & full for r in range(m))


def residue_obstruction(delta: QuadInt) -> int | None:
    """The first modulus m in SIEVE_MODULI at which x^2 + y^2 = delta has no
    solution in Z[sqrt(d)]/m, or None if every one of them admits one.

    A modulus returned here proves delta is not a sum of two squares."""
    for m in SIEVE_MODULI:
        if (delta.a % m, delta.b % m) not in _sums_of_two_squares_mod(delta.d, m):
            return m
    return None


def verify_witness(delta: QuadInt, witness: tuple[QuadInt, QuadInt] | None) -> bool:
    """Whether witness is a pair (x, y) with x^2 + y^2 = delta."""
    if witness is None:
        return False
    x, y = witness
    return x * x + y * y == delta


def witness_jsonable(witness: tuple[QuadInt, QuadInt] | None) -> dict | None:
    if witness is None:
        return None
    x, y = witness
    return {"x": {"a": x.a, "b": x.b}, "y": {"a": y.a, "b": y.b}}


def _check_bound(bound: int) -> None:
    # made before any shortcut, so a bad bound fails the same for every delta
    if bound < 1:
        raise ParameterError(f"bound must be >= 1, got {bound}")
    if bound > MAX_SEARCH_BOUND:
        raise ResourceLimitError(f"search bound {bound} exceeds {MAX_SEARCH_BOUND}")


def find_representation(delta: QuadInt, bound: int) -> SearchReport:
    """Exhaustive search for x, y with x^2 + y^2 = delta and all coordinates
    within [-bound, bound].

    Returns the lexicographically smallest witness by (x.a, x.b, y.a, y.b).
    With (u, v, s, t) a witness so is (-u, -v, s, t), so that witness has
    x.a <= 0 and only u <= 0 is scanned, in (u, v) order; an x = u + v*sqrt(d)
    with delta - x^2 not a square mod some m in MASK_MODULI is skipped, as it
    holds no witness.  For each x left, y is the first square root of
    delta - x^2 in (s, t) order, found exactly from its norm.
    `states_examined` is the position of the witness's x in the scan of
    every (u, v) of the box, skipped ones included, and a miss reports the
    whole box, (2*bound + 1)^2.  An odd b coordinate is rejected
    outright (0 states): the sqrt(d) coordinate of x^2 + y^2 is 2(uv + st),
    always even.  For d < 0 a norm above (2(1 - d)*bound^2)^2 is a miss
    without a scan: every coordinate-bounded x has |x|^2 = u^2 - d*v^2 <=
    (1 - d)*bound^2.  A bound below 1 raises ParameterError and one above
    MAX_SEARCH_BOUND ResourceLimitError, whatever delta is.
    """
    _check_bound(bound)
    d = delta.d
    if delta.is_zero():
        zero = QuadInt(0, 0, d)
        return SearchReport(delta, bound, (zero, zero), 0)
    if delta.b % 2:
        return SearchReport(delta, bound, None, 0)
    width = 2 * bound + 1
    if d < 0 and delta.norm() > (2 * (1 - d) * bound * bound) ** 2:
        return SearchReport(delta, bound, None, width * width)
    a, b = delta.a, delta.b
    # Each modulus's rows repeated and sliced to rows[u % m] for u = -bound..0;
    # the lazy maps AND them one u at a time, so a hit stops the ANDs too.
    columns = []
    for m in MASK_MODULI:
        rows, start = _mask_rows(d, m, a % m, b % m, bound), -bound % m
        columns.append((rows * (bound // m + 2))[start : start + bound + 1])
    lives = reduce(partial(map, and_), columns)
    for u, live in zip(range(-bound, 1), lives):
        uu = u * u
        while live:
            low = live & -live
            v = low.bit_length() - 1 - bound
            w, z = a - uu - d * v * v, b - 2 * u * v
            # a square's norm is a square; this test alone turns away most x
            n = w * w - d * z * z
            r = isqrt(n) if n >= 0 else -1
            if r * r == n and (root := _square_root(w, z, r, d, bound)) is not None:
                s, t = root
                witness = (QuadInt(u, v, d), QuadInt(s, t, d))
                return SearchReport(delta, bound, witness, (u + bound) * width + v + bound + 1)
            live ^= low
    return SearchReport(delta, bound, None, width * width)


def two_square_search(n: int) -> tuple[int, int] | None:
    """Smallest-x representation n = x^2 + y^2 over nonnegative integers,
    or None."""
    if n < 0:
        return None
    for x in range(isqrt(n) + 1):
        w = n - x * x
        y = isqrt(w)
        if y * y == w:
            return (x, y)
    return None
