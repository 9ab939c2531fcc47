"""Exact arithmetic in Z[sqrt(d)] for squarefree d = 2, 3 (mod 4), with
d = -14 as the distinguished instance, plus the norm-factorization data
feeding the two-squares criterion."""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import NamedTuple

from . import numth
from .errors import ParameterError, UnsupportedInputError

DEFAULT_D = -14


@lru_cache(maxsize=64)
def _validate_ring_parameter(d: int) -> None:
    if d % 4 not in (2, 3):
        raise ParameterError(f"d must be 2 or 3 mod 4, got {d}")
    for _, e in numth.factorize(abs(d)):
        if e > 1:
            raise ParameterError(f"d must be squarefree, got {d}")


# typing forbids __new__ in a NamedTuple body, so QuadInt subclasses this
# to check d whenever one is built
class _Coordinates(NamedTuple):
    a: int
    b: int
    d: int = DEFAULT_D


class QuadInt(_Coordinates):
    """a + b*sqrt(d) with integer coordinates."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, d: int = DEFAULT_D) -> "QuadInt":
        _validate_ring_parameter(d)
        return tuple.__new__(cls, (a, b, d))

    @classmethod
    def _make(cls, iterable) -> "QuadInt":
        # _replace builds through _make, so it validates d as well
        return cls(*iterable)

    def _check_ring(self, other: "QuadInt") -> None:
        if not isinstance(other, QuadInt):
            raise TypeError(f"expected QuadInt, got {type(other).__name__}")
        if other.d != self.d:
            raise ParameterError(f"mixed rings: d={self.d} and d={other.d}")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    # a tuple or an int on the left would otherwise concatenate or repeat
    __radd__ = __add__
    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.d)

    def norm(self) -> int:
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*sqrt({self.d})"


_PAIR_RE = re.compile(r"^\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*$")
_FULL_RE = re.compile(r"^\s*([+-]?\d+)\s*([+-]\s*\d+)\s*\*\s*sqrt\(\s*(-?\d+)\s*\)\s*$")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ParameterError(f"cannot read an integer: {exc}") from None


def parse_quadint(text: str, d: int = DEFAULT_D) -> QuadInt:
    """Parse the compact pair "a,b" or the full form "a+b*sqrt(d)"."""
    m = _PAIR_RE.match(text)
    if m:
        return QuadInt(_parse_int(m.group(1)), _parse_int(m.group(2)), d)
    m = _FULL_RE.match(text)
    if m:
        d_in = _parse_int(m.group(3))
        if d_in != d:
            raise ParameterError(f"ring mismatch: text has d={d_in}, expected {d}")
        return QuadInt(_parse_int(m.group(1)), _parse_int(m.group(2).replace(" ", "")), d)
    raise ParameterError(f"cannot parse quadratic integer from {text!r}")


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def split_type(p: int, d: int = DEFAULT_D) -> Splitting:
    """Behaviour of the rational prime p in Z[sqrt(d)]."""
    _validate_ring_parameter(d)
    if not numth.is_prime(p):
        raise ParameterError(f"split_type requires a prime, got {p}")
    return _split_type(p, d)


def _split_type(p: int, d: int) -> Splitting:
    # split_type without its checks, for a prime p the caller already holds
    # as such and a valid d
    if (2 * d) % p == 0:
        return Splitting.RAMIFIED
    return Splitting.SPLIT if numth._euler_criterion(d, p) else Splitting.INERT


class Place(NamedTuple):
    """A place of Q(sqrt(d)): finite over a rational prime, or archimedean
    (prime is None).  For rational-integer decisions splitting is None."""

    prime: int | None
    splitting: Splitting | None = None

    def label(self) -> str:
        return "oo" if self.prime is None else str(self.prime)


class NormFactorization(NamedTuple):
    """Shape data of N(delta) = 2^s1 * 7^s2 * p1^e1 * ... * pg^eg together
    with the 7-part of the rational coordinate a = 7^s3 * a1 (7 not
    dividing a1) and the sign classes D1, D2, D3 of the odd primes."""

    s1: int
    s2: int
    primes: tuple[tuple[int, int], ...]
    s3: int
    a1: int
    d1: tuple[int, ...]
    d2: tuple[int, ...]
    d3: tuple[int, ...]


def _partition(primes: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    # the primes come from factorize and are prime to 14, so each symbol is
    # +1 or -1 and Euler's criterion needs no primality check; every class
    # needs (-1/p) = +1, that is p = 1 (mod 4)
    d1, d2, d3 = [], [], []
    for p, _ in primes:
        if p % 4 == 3:
            continue
        r14, r7 = numth._euler_criterion(14, p), numth._euler_criterion(7, p)
        if r14 and not r7:
            d1.append(p)
        if not r14 and not r7:
            d2.append(p)
        if r14 and not numth._euler_criterion(7, p, 4):
            d3.append(p)
    return tuple(d1), tuple(d2), tuple(d3)


def norm_factorization(delta: QuadInt) -> NormFactorization:
    """Extract (s1, s2, primes; s3, a1; D1, D2, D3) from delta over Z[sqrt(-14)].

    Requires delta nonzero with nonzero rational coordinate a (the 7-part
    of a is undefined otherwise).
    """
    if delta.d != DEFAULT_D:
        raise ParameterError(f"norm factorization is specific to d={DEFAULT_D}, got d={delta.d}")
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    if delta.a == 0:
        raise UnsupportedInputError("delta with a = 0 is outside the criterion's domain")
    fac = numth.factorize(abs(delta.norm()))
    s1 = s2 = 0
    primes: list[tuple[int, int]] = []
    for p, e in fac:
        if p == 2:
            s1 = e
        elif p == 7:
            s2 = e
        else:
            primes.append((p, e))
    s3 = numth.valuation(delta.a, 7)
    a1 = delta.a // 7**s3
    d1, d2, d3 = _partition(tuple(primes))
    return NormFactorization(s1, s2, tuple(primes), s3, a1, d1, d2, d3)
