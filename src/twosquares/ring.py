"""Exact arithmetic in Z[sqrt(d)] for squarefree d = 2, 3 (mod 4), with
d = -14 as the distinguished instance: the ring elements, their parsing,
and the places of Q(sqrt(d))."""

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


class Place(NamedTuple):
    """A place of Q(sqrt(d)): finite over a rational prime, or archimedean
    (prime is None).  For rational-integer decisions splitting is None."""

    prime: int | None
    splitting: Splitting | None = None

    def label(self) -> str:
        return "oo" if self.prime is None else str(self.prime)


@lru_cache(maxsize=256)
def _place(p: int, d: int) -> Place:
    # the place over p and how p behaves in Z[sqrt(d)], for a p the caller
    # holds as prime and the d of a QuadInt, so already valid; cached, as a
    # hunt revisits a few dozen primes hundreds of times each
    if (2 * d) % p == 0:
        return Place(p, Splitting.RAMIFIED)
    return Place(p, Splitting.SPLIT if numth.jacobi(d, p) == 1 else Splitting.INERT)
