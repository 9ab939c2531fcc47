"""Exact arithmetic in Z[sqrt(d)] for squarefree d = 2, 3 (mod 4), with
d = -14 as the distinguished instance, plus the norm-factorization data
feeding the two-squares criterion."""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import NamedTuple

from . import numth
from .errors import ParameterError

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


def _split_type(p: int, d: int) -> Splitting:
    # how the prime p behaves in Z[sqrt(d)], for a p the caller holds as
    # prime and the d of a QuadInt, so already valid
    if (2 * d) % p == 0:
        return Splitting.RAMIFIED
    return Splitting.SPLIT if numth.jacobi(d, p) == 1 else Splitting.INERT


class Place(NamedTuple):
    """A place of Q(sqrt(d)): finite over a rational prime, or archimedean
    (prime is None).  For rational-integer decisions splitting is None."""

    prime: int | None
    splitting: Splitting | None = None

    def label(self) -> str:
        return "oo" if self.prime is None else str(self.prime)


class NormFactorization(NamedTuple):
    """|N(delta)| = 2^s1 * 7^s2 * p1^e1 * ... * pg^eg as factorize's sorted
    (p, e) pairs, with no pair for 2 or 7 when s1 or s2 is 0; the 7-part
    of the rational coordinate a = 7^s3 * a1 (7 not dividing a1); and the
    sign classes D1, D2, D3 of the odd primes other than 7."""

    factors: tuple[tuple[int, int], ...]
    s3: int
    a1: int
    d1: tuple[int, ...]
    d2: tuple[int, ...]
    d3: tuple[int, ...]

    @property
    def parity_exponent(self) -> int:
        """eps = s1 + s2 + s3 + sum of e_i/2 over D2 + sum of e_i over D3.
        Without s3 the symbol condition misclassifies every representable
        delta whose a has an odd power of 7, e.g. -7 = (-7)^2 + (-2*sqrt(-14))^2."""
        exps = dict(self.factors)
        d2_halves = sum(exps[p] // 2 for p in self.d2)
        return exps.get(2, 0) + exps.get(7, 0) + self.s3 + d2_halves + sum(exps[p] for p in self.d3)

    @property
    def a1_symbol(self) -> int:
        """The Legendre symbol (a1|7); a1 is prime to 7, so it is +1 or -1."""
        return numth.jacobi(self.a1, 7)


def _partition(factors: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    # every class needs (-1/p) = +1, that is p = 1 (mod 4), which leaves out
    # 2 and 7; the rest come from factorize and are prime to 14, so each
    # symbol is +1 or -1.  7 is a fourth power only if it is a square, so
    # the one power here is the quartic test where (7/p) = +1.
    d1, d2, d3 = [], [], []
    for p, _ in factors:
        if p % 4 != 1:
            continue
        r14, r7 = numth.jacobi(14, p) == 1, numth.jacobi(7, p) == 1
        if r14 and not r7:
            d1.append(p)
        if not r14 and not r7:
            d2.append(p)
        if r14 and not (r7 and numth._euler_criterion(7, p)):
            d3.append(p)
    return tuple(d1), tuple(d2), tuple(d3)


def norm_factorization(delta: QuadInt) -> NormFactorization:
    """Extract (factors; s3, a1; D1, D2, D3) from delta over Z[sqrt(-14)].

    Requires delta nonzero with nonzero rational coordinate a (the 7-part
    of a is undefined otherwise).
    """
    if delta.d != DEFAULT_D:
        raise ParameterError(f"norm factorization is specific to d={DEFAULT_D}, got d={delta.d}")
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    if delta.a == 0:
        raise ParameterError("delta with a = 0 is outside the criterion's domain")
    factors = tuple(numth.factorize(abs(delta.norm())))
    s3 = numth.valuation(delta.a, 7)
    a1 = delta.a // 7**s3
    d1, d2, d3 = _partition(factors)
    for p, e in factors:
        # norms have even valuation at D2 primes: -14 is a nonresidue there
        if e % 2 and p in d2:
            raise RuntimeError(f"odd exponent {e} at D2 prime {p}; invariant violated")
    return NormFactorization(factors, s3, a1, d1, d2, d3)
