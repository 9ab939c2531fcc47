"""Global decision procedures: one decision body for every quadratic ring
(the local walk, then for d = -14 the exact symbol condition, else a
bounded witness search) and the classical test over Z."""

from __future__ import annotations

import enum
from math import isqrt
from typing import NamedTuple

from . import numth
from .errors import ParameterError
from .localsolve import LocalVerdict, _local_report, locally_solvable_everywhere
from .ring import DEFAULT_D, NormFactorization, Place, QuadInt, norm_factorization
from .search import _check_bound, find_representation, two_square_search, verify_witness

DEFAULT_WITNESS_BOUND = 50


class DecisionStatus(enum.Enum):
    REPRESENTABLE = "representable"
    LOCAL_OBSTRUCTION = "local_obstruction"
    GLOBAL_OBSTRUCTION = "global_obstruction"
    UNKNOWN = "unknown"


class Decision(NamedTuple):
    """The one record of an answer for delta: the fields are what the
    verdict was computed from; what derives from them is a property."""

    delta: QuadInt
    status: DecisionStatus
    local_report: tuple[LocalVerdict, ...] = ()
    factorization: NormFactorization | None = None
    witness: tuple[QuadInt, QuadInt] | None = None

    @property
    def branch(self) -> str | None:
        if self.factorization is None:
            return None
        return "d1_nonempty" if self.factorization.d1 else "parity"

    @property
    def witness_verified(self) -> bool:
        return verify_witness(self.delta, self.witness)

    @property
    def failing_places(self) -> tuple[Place, ...]:
        return tuple(v.place for v in self.local_report if not v.solvable)


def decide_qsqrt_m14(delta: QuadInt, witness_bound: int | None = DEFAULT_WITNESS_BOUND) -> Decision:
    """Exact decision for nonzero delta = a + b*sqrt(-14): representable as
    x^2 + y^2 over Z[sqrt(-14)] iff it is so at every place and the symbol
    condition holds.

    witness_bound caps the attached search for an explicit witness on
    positive decisions (None skips the search; the decision itself never
    depends on it).
    """
    if delta.d != DEFAULT_D:
        raise ParameterError(f"criterion applies to d={DEFAULT_D}, got d={delta.d}")
    return decide_generic(delta, witness_bound)


def _prime_two_squares(p: int) -> tuple[int, int]:
    # p = 1 (mod 4): descend the Euclidean remainders of (p, sqrt(-1) mod p)
    # below sqrt(p); the first one is a leg of the representation
    r = numth._sqrt_mod_prime_power(-1, p, 1)
    prev, cur = p, r
    while cur * cur > p:
        prev, cur = cur, prev % cur
    x = cur
    y = isqrt(p - x * x)
    if x * x + y * y != p:
        raise RuntimeError(f"{x}^2 + {y}^2 != {p}; invariant violated")
    return x, y


def decide_rational(n: int) -> Decision:
    """Classical two-squares decision for a positive rational integer: n is a
    sum of two squares iff every prime p = 3 (mod 4) divides n to an even
    power.  Witnesses are exact, built by composition from prime
    representations."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"decide_rational expects a positive integer, got {n}")
    fac = numth.factorize(n)
    bad = tuple(LocalVerdict(Place(p), False) for p, e in fac if p % 4 == 3 and e % 2)
    if bad:
        return Decision(QuadInt(n, 0), DecisionStatus.LOCAL_OBSTRUCTION, bad)
    x, y = 1, 0
    for p, e in fac:
        if p % 4 == 3:
            scale = p ** (e // 2)
            x, y = x * scale, y * scale
            continue
        u, v = (1, 1) if p == 2 else _prime_two_squares(p)
        for _ in range(e):  # (x + yi)(u + vi)
            x, y = x * u - y * v, x * v + y * u
    x, y = sorted((abs(x), abs(y)), reverse=True)
    witness = (QuadInt(x, 0, DEFAULT_D), QuadInt(y, 0, DEFAULT_D))
    decision = Decision(QuadInt(n, 0), DecisionStatus.REPRESENTABLE, witness=witness)
    if not decision.witness_verified:
        raise RuntimeError(f"{x}^2 + {y}^2 != {n}; invariant violated")
    return decision


def decide_generic(delta: QuadInt, search_bound: int | None = DEFAULT_WITNESS_BOUND) -> Decision:
    """The decision for nonzero delta in any supported ring.  The local walk
    refutes; for d = -14 and a != 0 the symbol condition decides the rest
    exactly, and elsewhere a found witness confirms, else UNKNOWN.

    search_bound caps the search for a witness (None skips it); where the
    criterion applies, the verdict never depends on it."""
    if search_bound is not None:
        _check_bound(search_bound)
    # a = 0 needs no criterion: N(b*sqrt(-14)) = 14 b^2 has odd valuation at
    # the ramified place over 7, and 7 = 3 (mod 4), so the walk refutes it
    nf = norm_factorization(delta) if delta.d == DEFAULT_D and delta.a else None
    if nf is None:
        report = tuple(locally_solvable_everywhere(delta)[1])
    else:  # condition 1 walks the places of the factorization already in hand
        report = _local_report(delta, nf.factors)
    if not all(v.solvable for v in report):
        return Decision(delta, DecisionStatus.LOCAL_OBSTRUCTION, report, nf)
    # condition 2, the symbol condition: D1 nonempty, or (a1|7) = (-1)^eps
    if nf is not None and not nf.d1 and nf.a1_symbol != (-1) ** nf.parity_exponent:
        return Decision(delta, DecisionStatus.GLOBAL_OBSTRUCTION, report, nf)
    witness = None if search_bound is None else find_representation(delta, search_bound).witness
    status = DecisionStatus.REPRESENTABLE if nf is not None or witness is not None else DecisionStatus.UNKNOWN
    return Decision(delta, status, report, nf, witness)


def verify_classical(n_max: int) -> bool:
    """Cross-check decide_rational against exhaustive search for 1 <= n <=
    n_max; also validates every attached witness."""
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        decision = decide_rational(n)
        found = two_square_search(n)
        if (decision.status is DecisionStatus.REPRESENTABLE) != (found is not None):
            return False
        if decision.status is DecisionStatus.REPRESENTABLE:
            x, y = decision.witness
            if x.b or y.b or not decision.witness_verified:
                return False
    return True
