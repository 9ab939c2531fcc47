"""Per-place solvability of x^2 + y^2 = delta over the completions of
Z[sqrt(d)], in closed form at every place: the residue-field rule at odd
places, and at p = 2 a primitive sum of two squares mod 8 after dividing
out the largest possible even power of the uniformizer.  One walk visits
every place that can obstruct.  Each place runs its failure test first and
then, on request, builds a Hensel-smooth certificate for a positive
verdict; the hunt walks without certificates and keeps the failures."""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import product
from math import gcd
from typing import NamedTuple

from . import numth, ring
from .errors import ParameterError
from .ring import Place, QuadInt, Splitting


class ModularSolution(NamedTuple):
    """A solution class of x^2 + y^2 = delta in Z[sqrt(d)]/p^level.

    x and y are coordinate pairs (u, v) standing for u + v*sqrt(d), reduced
    mod p^level.  smooth means the Hensel margin 2*v_w(2x or 2y) < v_w(p^level)
    holds at every place w over p, so the class lifts to an exact solution in
    every completion above p (and hence to solutions at every finite level).
    """

    x: tuple[int, int]
    y: tuple[int, int]
    level: int
    smooth: bool


class LocalVerdict(NamedTuple):
    """Outcome of the solvability check at one place.

    For finite places, exhausted_at is the certificate level when solvable,
    or the first level with no solution classes when not.  The certificate
    level is m + 3 when p = 2, for the least m with delta / pi^(2m) a
    primitive sum of two squares (pi a uniformizer); 2*ceil(v/2) + 1 at an
    odd split place, v the larger valuation of delta at its two places; 1 at
    an inert place; and at a ramified place 1 when p = 1 mod 4, k + 1 when
    p = 3 mod 4 and v_w(delta) = 2k.  Archimedean verdicts carry neither.
    """

    place: Place
    solvable: bool
    certificate: ModularSolution | None = None
    exhausted_at: int | None = None


def _unit_two_squares(c: int, p: int, k: int) -> tuple[int, int]:
    # X^2 + Y^2 = c mod p^k for odd p and a unit c, with Y a unit so the pair
    # is Hensel-smooth.  Mod p there are p - (-1/p) >= 2 solutions, at most
    # two of them with Y = 0.
    for x in range(p):
        if numth.jacobi(c - x * x, p) == 1:  # a nonzero square, so Y is a unit
            return x, numth._sqrt_mod_prime_power((c - x * x) % p**k, p, k)
    raise RuntimeError(f"no unit solution of x^2 + y^2 = {c} mod {p}; invariant violated")


def _split_valuations(delta: QuadInt, p: int, vn: int) -> tuple[int, int]:
    # At a split p, Z_p[sqrt(d)] = Z_p x Z_p, and delta / p^g with
    # g = v_p(gcd(a, b)) lies in at most one of the two places (in both, p
    # would divide it), so the two valuations are g and vn - g.
    g = numth.valuation(gcd(delta.a, delta.b), p)
    return g, vn - g


def _odd_failure(delta: QuadInt, place: Place, vn: int) -> LocalVerdict | None:
    # Closed form at odd p (O'Meara, Introduction to Quadratic Forms, 63;
    # Serre, A Course in Arithmetic, III): x^2 + y^2 = delta fails only at a
    # place with residue field F_p, p = 3 mod 4 and odd valuation.  Anywhere
    # else -1 is a residue-field square and the form is XY.  vn = v_p(N(delta))
    # gives the w-normalized valuations of delta at the places over p.  The
    # failing verdict, or None where delta is solvable.
    p, splitting = place.prime, place.splitting
    if p % 4 == 1 or splitting is Splitting.INERT:
        return None
    if splitting is Splitting.RAMIFIED:
        return LocalVerdict(place, False, None, (vn + 1) // 2) if vn % 2 else None
    odd = [v for v in _split_valuations(delta, p, vn) if v % 2]
    return LocalVerdict(place, False, None, min(odd) + 1) if odd else None


def _odd_certificate(delta: QuadInt, place: Place, vn: int) -> LocalVerdict:
    # the solvable verdict at an odd place where _odd_failure passed
    a, b, d = delta.a, delta.b, delta.d
    p, splitting = place.prime, place.splitting
    if splitting is Splitting.SPLIT:  # a split place's certificate level
        depth = 2 * ((max(_split_valuations(delta, p, vn)) + 1) // 2) + 1
    if p % 4 == 1 or splitting is Splitting.INERT:
        # x = (delta + 1)/2, y = (1 - delta)*i/2 with i^2 = -1
        level = depth if splitting is Splitting.SPLIT else 1
        m = p**level
        if p % 4 == 1:
            i0, i1 = numth._sqrt_mod_prime_power(-1, p, level), 0
        else:  # inert, p = 3 mod 4: -d is a square s^2 and i = sqrt(d)/s
            i0, i1 = 0, pow(numth._sqrt_mod_prime_power(-d, p, 1), -1, p)
        h = pow(2, -1, m)
        x = ((a + 1) * h % m, b * h % m)
        y = (((1 - a) * i0 - d * b * i1) * h % m, ((1 - a) * i1 - b * i0) * h % m)
    elif splitting is Splitting.SPLIT:
        # solve each component p^v * unit (v even), then combine by CRT
        level = depth
        m = p**level
        r = numth._sqrt_mod_prime_power(d, p, level)
        parts = []
        for c in ((a + b * r) % m, (a - b * r) % m):
            v = numth.valuation(c, p)  # below level, so read mod p^level
            s = p ** (v // 2)
            cx, cy = _unit_two_squares(c // p**v, p, level - v)
            parts.append((s * cx % m, s * cy % m))
        (x1, y1), (x2, y2) = parts
        h, hr = pow(2, -1, m), pow(2 * r, -1, m)
        x = ((x1 + x2) * h % m, (x1 - x2) * hr % m)
        y = ((y1 + y2) * h % m, (y1 - y2) * hr % m)
    else:
        # ramified, v = 2k: delta = s^2 * t with s = p^(k//2), times sqrt(d)
        # when k is odd, and t a unit; solve t mod p, then scale by s
        k = vn // 2
        level = k + 1
        m = p**level
        g = pow(d // p, -1, p) if k % 2 else 1
        tx, ty = _unit_two_squares(a // p**k * g, p, 1)
        ty1 = b // p**k * g * pow(2 * ty, -1, p)
        s = p ** (k // 2)
        x, y = (s * tx, 0), (s * ty, s * ty1)
        if k % 2:
            x, y = (d * x[1], x[0]), (d * y[1], y[0])
        x, y = (x[0] % m, x[1] % m), (y[0] % m, y[1] % m)
    return LocalVerdict(place, True, ModularSolution(x, y, level, True), level)


def _mul_mod(x: tuple[int, int], y: tuple[int, int], d: int, m: int) -> tuple[int, int]:
    return ((x[0] * y[0] + d * x[1] * y[1]) % m, (x[0] * y[1] + x[1] * y[0]) % m)


@lru_cache(maxsize=64)
def _primitive_sums_mod(d: int, j: int) -> dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]]:
    # P_j: every x0^2 + y0^2 in Z[sqrt(d)]/2^j with x0 a unit (odd norm),
    # keyed by value, each with the first (x0, y0) that reaches it.  For
    # j >= 2 a square mod 2^j depends only on its root mod 2^(j-1), and
    # subtracting 4 from a coordinate gives an earlier tuple, so every
    # first pair has coordinates < 4 and the roots mod 4 reach them all.
    m = 2**j
    sums: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for u, v, s, t in product(range(min(m, 4)), repeat=4):
        if (u * u - d * v * v) % 2:
            key = ((u * u + d * v * v + s * s + d * t * t) % m, 2 * (u * v + s * t) % m)
            sums.setdefault(key, ((u, v), (s, t)))
    return sums


def _two_adic_descent(delta: QuadInt, v: int) -> tuple[int, tuple[int, int] | None]:
    # 2 ramifies with uniformizer pi and pi^2 = 2w, w a unit: pi = sqrt(d),
    # w = d/2 when d = 2 mod 4; pi = 1 + sqrt(d), w = (1 + d)/2 + sqrt(d)
    # when d = 3 mod 4.  v = v_pi(delta) = v_2(N(delta)).  A solution with
    # min(v_pi(x), v_pi(y)) = m makes eps_m = delta / pi^(2m) a primitive
    # sum x0^2 + y0^2, and such a sum mod 8 with x0 a unit lifts (Hensel:
    # 2 * v_pi(2 x0) = 4 < 6 = v_pi(8)).  So delta is a sum of two squares
    # over Z_2[sqrt(d)] iff some m <= v/2 has eps_m mod 8 in P_3.  Returns
    # the least such m with eps_m mod 8, or the first level with no classes
    # and None.
    a, b, d = delta.a, delta.b, delta.d
    w = (d // 2, 0) if d % 4 == 2 else ((1 + d) // 2, 1)
    inv = pow(w[0] * w[0] - d * w[1] * w[1], -1, 8)
    w_inv = (w[0] * inv % 8, -w[1] * inv % 8)
    half = v // 2
    p3 = _primitive_sums_mod(d, 3)
    w_m, e = (1, 0), None
    for m in range(half + 1):
        # pi^(2m) = 2^m w^m divides delta, so 2^m divides both coordinates
        prev, e = e, _mul_mod((a >> m, b >> m), w_m, d, 8)
        if e in p3:
            return m, e
        w_m = _mul_mod(w_m, w_inv, d, 8)
    # Classes mod 2^k exist while 2k <= v (x = y = 0).  Past that, a class
    # with min valuation m <= half reduces eps_m to a primitive sum mod
    # 2^(k-m), and no eps_m is one mod 8, so only m = k - 2, k - 1 can leave
    # one.  eps_half never does: every unit mod 8 with an even sqrt(d)
    # coordinate is in P_3, so eps_half is a unit with an odd one, or pi
    # times a unit, which has an odd one too, while every primitive sum
    # mod 2 or 4 has an even one.  That leaves eps_(half-1) mod 4 (prev).
    return half + 1 + (prev is not None and (prev[0] % 4, prev[1] % 4) in _primitive_sums_mod(d, 2)), None


def _two_adic_certificate(delta: QuadInt, place: Place, m: int, e: tuple[int, int]) -> LocalVerdict:
    # the solvable verdict at 2 on the descent's least m and eps_m mod 8:
    # the certificate is x0, y0 of eps_m's first pair, times pi^m
    d, level = delta.d, m + 3
    pi = (0, 1) if d % 4 == 2 else (1, 1)
    x, y = _primitive_sums_mod(d, 3)[e]
    for _ in range(m):
        x, y = _mul_mod(x, pi, d, 2**level), _mul_mod(y, pi, d, 2**level)
    return LocalVerdict(place, True, ModularSolution(x, y, level, True), level)


def _place_verdict(delta: QuadInt, p: int, vn: int, certify: bool = True) -> LocalVerdict | None:
    # the verdict at the place over a prime p, given vn = v_p(N(delta)):
    # the failure test first, then, where it passes and certify is set,
    # the certificate; None where it passes and certify is not set
    place = ring._place(p, delta.d)
    if p == 2:  # 2 ramifies, so v_pi(delta) = v_2(N(delta))
        m, e = _two_adic_descent(delta, vn)
        if e is None:
            return LocalVerdict(place, False, None, m)
        return _two_adic_certificate(delta, place, m, e) if certify else None
    failure = _odd_failure(delta, place, vn)
    return _odd_certificate(delta, place, vn) if failure is None and certify else failure


def locally_solvable(delta: QuadInt, p: int) -> LocalVerdict:
    """Decide solvability of x^2 + y^2 = delta over both completions of
    Z[sqrt(d)] above the prime p, in closed form."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    if not numth.is_prime(p):
        raise ParameterError(f"locally_solvable requires a prime, got {p}")
    return _place_verdict(delta, p, numth.valuation(abs(delta.norm()), p))


def _archimedean_verdict(delta: QuadInt) -> LocalVerdict:
    # for d > 0 both real embeddings a +- b*sqrt(d) are >= 0 exactly when
    # their sum 2a and their product N(delta) are
    ok = delta.d < 0 or (delta.a >= 0 and delta.norm() >= 0)
    return LocalVerdict(Place(None), ok)


def _local_report(
    delta: QuadInt, factors: Iterable[tuple[int, int]], certify: bool = True
) -> tuple[LocalVerdict, ...]:
    # The verdicts at oo, 2 and every p of factorize's sorted (p, e) pairs
    # of |N(delta)|, in that order: only these places can obstruct, and
    # each e is v_p(N(delta)).  2 can obstruct even when it does not divide
    # N(delta), so the walk always visits it.  Without certify the walk
    # builds no certificate and keeps only the verdicts that fail; the
    # place over oo of d < 0 is complex, so it never fails.
    verdicts = [_archimedean_verdict(delta)] if certify or delta.d > 0 else []
    for p, e in ({2: 0} | dict(factors)).items():
        verdicts.append(_place_verdict(delta, p, e, certify))
    return tuple(verdicts) if certify else tuple(v for v in verdicts if v is not None and not v.solvable)


def locally_solvable_everywhere(delta: QuadInt) -> tuple[bool, list[LocalVerdict]]:
    """Check every place that can obstruct: archimedean, 2, and the primes
    dividing N(delta)."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    verdicts = _local_report(delta, numth.factorize(abs(delta.norm())))
    return all(v.solvable for v in verdicts), list(verdicts)
