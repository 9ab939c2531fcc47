"""Brute-force ground truth: bounded exhaustive representation search over
Z[sqrt(d)], a residue sieve that refutes deltas before the search, and the
classical two-square search over Z.

This module imports neither the local solver nor the number-theory kernels,
so a refutation by the sieve stays an independent witness against them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import ParameterError
from .ring import QuadInt

SQUARE_TABLE_CACHE_SIZE = 4

# Tried in order; together they refute every delta in the |a|, |b| <= 25
# box that the nine moduli 64, 27, 25, 49, 11, 13, 17, 19, 23 refute.
SIEVE_MODULI = (32, 9, 7)


@dataclass(frozen=True)
class SearchReport:
    delta: QuadInt
    bound: int
    witness: tuple[QuadInt, QuadInt] | None
    states_examined: int


@lru_cache(maxsize=SQUARE_TABLE_CACHE_SIZE)
def _squares_by_value(d: int, bound: int) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    # coordinates of z^2 for every z = s + t*sqrt(d) with |s|, |t| <= bound,
    # keyed by value; root lists are in ascending (s, t) order
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in range(-bound, bound + 1):
        ss = s * s
        for t in range(-bound, bound + 1):
            table.setdefault((ss + d * t * t, 2 * s * t), []).append((s, t))
    return {key: tuple(roots) for key, roots in table.items()}


@lru_cache(maxsize=32)
def _sums_of_two_squares_mod(d: int, m: int) -> frozenset[tuple[int, int]]:
    # every x^2 + y^2 in Z[sqrt(d)]/m, as coordinate pairs reduced mod m
    squares = {((s * s + d * t * t) % m, 2 * s * t % m) for s in range(m) for t in range(m)}
    return frozenset(((a1 + a2) % m, (b1 + b2) % m) for a1, b1 in squares for a2, b2 in squares)


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


def find_representation(delta: QuadInt, bound: int) -> SearchReport:
    """Exhaustive search for x, y with x^2 + y^2 = delta and all coordinates
    within [-bound, bound].

    Returns the lexicographically smallest witness by (x.a, x.b, y.a, y.b).
    With (u, v, s, t) a witness so is (-u, -v, s, t), so that witness has
    x.a <= 0 and only u <= 0 is scanned; `states_examined` counts the
    (x.a, x.b) pairs tried up to the hit, and a miss reports the whole
    box, (2*bound + 1)^2.  An odd b coordinate is rejected outright (0
    states): the sqrt(d) coordinate of x^2 + y^2 is 2(uv + st), always
    even.  For d < 0 a norm above (2(1 - d)*bound^2)^2 is a miss without a
    scan: every coordinate-bounded x has |x|^2 = u^2 - d*v^2 <= (1 - d)*bound^2.
    """
    if bound < 1:
        raise ParameterError(f"bound must be >= 1, got {bound}")
    d = delta.d
    if delta.is_zero():
        zero = QuadInt(0, 0, d)
        return SearchReport(delta, bound, (zero, zero), 0)
    if delta.b % 2:
        return SearchReport(delta, bound, None, 0)
    box = (2 * bound + 1) ** 2
    if d < 0 and delta.norm() > (2 * (1 - d) * bound * bound) ** 2:
        return SearchReport(delta, bound, None, box)
    table = _squares_by_value(d, bound)
    a, b = delta.a, delta.b
    states = 0
    for u in range(-bound, 1):
        uu = u * u
        for v in range(-bound, bound + 1):
            states += 1
            roots = table.get((a - uu - d * v * v, b - 2 * u * v))
            if roots:
                s, t = roots[0]
                witness = (QuadInt(u, v, d), QuadInt(s, t, d))
                return SearchReport(delta, bound, witness, states)
    return SearchReport(delta, bound, None, box)


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
