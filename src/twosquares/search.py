"""Brute-force ground truth: bounded exhaustive representation search over
Z[sqrt(d)], whose one masked walk over x either scans the u <= 0 half-box
or, for d < -1, finds the witnesses under c*sqrt(N(delta)) and walks their
orbits under the Pell unit (a miss there, or for d > 0 in a box that holds
every witness, proves there is none); a residue sieve that refutes deltas
before the search; and the classical two-square search over Z.

This module imports neither the local solver nor the number-theory kernels,
so a refutation by the sieve stays an independent witness against them.
Its only path into numth is QuadInt's squarefree check on d, which
ring._validate_ring_parameter caches per d; tests/test_search.py runs the
sieve and the search with every numth and localsolve function raising."""

from __future__ import annotations

from collections.abc import Iterator
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


@lru_cache(maxsize=64)
def _pell_unit(d: int) -> tuple[int, int] | None:
    # The least c > 1 with c^2 - |d| e^2 = 1, as (c, e), for d < -1, or None
    # once c would pass MAX_SEARCH_BOUND**2: the orbit route needs
    # lim >= c to fit under bound**2, so a larger unit never serves it, and
    # the cap ends the loop where the unit is huge (c ~ 1.6e37 at d = -661).
    cap = MAX_SEARCH_BOUND**2
    e = 1
    while (cc := 1 - d * e * e) <= cap * cap:
        c = isqrt(cc)
        if c * c == cc:
            return c, e
        e += 1
    return None


def _unit_route(delta: QuadInt, bound: int) -> tuple[int, int, int] | None:
    # (lim, c, e) where find_representation takes the orbit route: d < -1,
    # a unit eps = c + e*sqrt|d| under the cap, and lim = isqrt(c^2 N) + 1
    # <= bound**2; else None
    unit = _pell_unit(delta.d) if delta.d < -1 else None
    if unit is None:
        return None
    lim = isqrt(unit[0] ** 2 * delta.norm()) + 1
    return (lim, *unit) if lim <= bound * bound else None


def _miss_is_proof(delta: QuadInt, bound: int) -> bool:
    # Whether a miss of find_representation at the bound proves that delta
    # is no sum of two squares: on the orbit route, or for d > 0, where
    # every witness has u^2 + d v^2 + s^2 + d t^2 = a, so the box holds
    # them all once a < (bound + 1)^2
    if delta.d > 0:
        return delta.a < (bound + 1) ** 2
    return _unit_route(delta, bound) is not None


def _witnesses(
    delta: QuadInt, bound: int, moduli: tuple[int, ...], spans: list[int]
) -> Iterator[tuple[int, int, int, int]]:
    # Every witness (u, v, s, t) with u = -top..0 (top = len(spans) - 1) and
    # |v| <= spans[u + top], in (u, v) order, y the first square root of
    # delta - x^2 within the bound.  Each modulus's rows at the bound are
    # repeated and sliced to rows[u % m], and the lazy maps AND them one u
    # at a time, so a caller that stops at a hit stops the ANDs too.
    a, b, d = delta.a, delta.b, delta.d
    top = len(spans) - 1
    columns = []
    for m in moduli:
        rows, start = _mask_rows(d, m, a % m, b % m, bound), -top % m
        columns.append((rows * (top // m + 2))[start : start + top + 1])
    for u, span, live in zip(range(-top, 1), spans, reduce(partial(map, and_), columns)):
        live = live >> bound - span & (1 << 2 * span + 1) - 1  # bit v + span
        while live:
            low = live & -live
            v = low.bit_length() - 1 - span
            w, z = a - u * u - d * v * v, b - 2 * u * v
            # a square's norm is a square; this test alone turns away most x
            n = w * w - d * z * z
            r = isqrt(n) if n >= 0 else -1
            if r * r == n and (root := _square_root(w, z, r, d, bound)) is not None:
                yield (u, v, *root)
            live ^= low


def _box_witness(delta: QuadInt, bound: int) -> tuple[int, int, int, int] | None:
    # the first witness (u, v, s, t) of the u <= 0 half-box in (u, v) order
    return next(_witnesses(delta, bound, MASK_MODULI, [bound] * (bound + 1)), None)


def _orbit_witness(delta: QuadInt, bound: int, lim: int, c: int, e: int) -> tuple[int, int, int, int] | None:
    # The least witness (u, v, s, t) of the box, for d < -1 and
    # lim <= bound**2, from the representatives Q <= lim (see
    # find_representation) and their orbits under eps = c + e*sqrt|d|.
    d = delta.d
    # The window is about 1/50 of the half-box, so the rows mod 7 and 13,
    # built cold for each new delta, would cost more than the few x they
    # turn away; (16, 9, 5) keeps the cheap ones.
    spans = [isqrt((lim - u * u) // -d) for u in range(-isqrt(lim), 1)]
    # Q is convex along an orbit and every representative has
    # Q <= lim <= bound**2, so past the first step above the largest Q of
    # the box, a direction leaves the box for good.
    largest = 2 * (1 - d) * bound * bound
    found = []
    for rep in _witnesses(delta, bound, MASK_MODULI[:3], spans):
        u, v, s, t = rep
        if u * u - d * v * v + s * s - d * t * t > lim:
            continue
        for f in (e, -e):  # each direction starts at the representative
            u, v, s, t = rep
            while u * u - d * v * v + s * s - d * t * t <= largest:
                if max(abs(u), abs(v), abs(s), abs(t)) <= bound:
                    # the least of the 8 images (+-x, +-y) and (+-y, +-x)
                    x, y = min((u, v), (-u, -v)), min((s, t), (-s, -t))
                    found.append(min(x + y, y + x))
                u, v, s, t = c * u + f * d * t, c * v + f * s, c * s - f * d * v, c * t - f * u
    return min(found, default=None)


def find_representation(delta: QuadInt, bound: int) -> SearchReport:
    """Exhaustive search for x, y with x^2 + y^2 = delta and all coordinates
    within [-bound, bound].

    Returns the lexicographically smallest witness by (x.a, x.b, y.a, y.b).
    `states_examined` is the position of the witness's x in the scan of
    every (u, v) of the box in (u, v) order, and a miss reports the whole
    box, (2*bound + 1)^2.  An odd b coordinate is rejected outright
    (0 states): the sqrt(d) coordinate of x^2 + y^2 is 2(uv + st), always
    even.  For d < 0 a norm above (2(1 - d)*bound^2)^2 is a miss without a
    scan: every coordinate-bounded x has |x|^2 = u^2 - d*v^2 <=
    (1 - d)*bound^2.  A bound below 1 raises ParameterError and one above
    MAX_SEARCH_BOUND ResourceLimitError, whatever delta is.

    For d < -1, with Q = u^2 + |d| v^2 + s^2 + |d| t^2 for x = u + v*sqrt(d)
    and y = s + t*sqrt(d), every witness is eps^k times one with
    Q <= c*sqrt(N(delta)), where eps = c + e*sqrt|d| is the least Pell unit
    (sqrt|d| = -i*sqrt(d), so eps lies in Z[sqrt(d)][i] and keeps
    x^2 + y^2): eps scales |x + iy|^2 by eps^2 and |x - iy|^2 by eps^-2 in
    a complex embedding, their product is N(delta) and Q is half their
    sum.  So when lim = isqrt(c^2 N(delta)) + 1 <= bound^2 the search
    scans only those representatives, behind the masks mod 16, 9 and 5,
    and walks each one's eps-orbit through the box; a miss then proves
    that delta is no sum of two squares at all.  Otherwise (d = -1, d > 0,
    a large norm or a unit past MAX_SEARCH_BOUND**2) it scans the u <= 0
    half-box in (u, v) order, as (-u, -v, s, t) is a witness with
    (u, v, s, t), and skips every x with delta - x^2 not a square mod
    some m in MASK_MODULI; for d > 0 every witness has
    u^2 + d v^2 + s^2 + d t^2 = a, so once a < (bound + 1)^2 a miss there
    is a proof too.  Both paths draw x from one masked walk of u <= 0 in
    (u, v) order, and y is the first square root of delta - x^2 in (s, t)
    order, found exactly from its norm.
    """
    _check_bound(bound)
    d = delta.d
    if delta.is_zero():
        zero = QuadInt(0, 0, d)
        return SearchReport((zero, zero), 0)
    if delta.b % 2:
        return SearchReport(None, 0)
    width = 2 * bound + 1
    if d < 0 and delta.norm() > (2 * (1 - d) * bound * bound) ** 2:
        return SearchReport(None, width * width)
    route = _unit_route(delta, bound)
    found = _box_witness(delta, bound) if route is None else _orbit_witness(delta, bound, *route)
    if found is None:
        return SearchReport(None, width * width)
    u, v, s, t = found
    return SearchReport((QuadInt(u, v, d), QuadInt(s, t, d)), (u + bound) * width + v + bound + 1)


def two_square_search(n: int) -> tuple[int, int] | None:
    """Smallest-x representation n = x^2 + y^2 over nonnegative integers,
    for n >= 0, or None."""
    for x in range(isqrt(n) + 1):
        w = n - x * x
        y = isqrt(w)
        if y * y == w:
            return (x, y)
    return None
