"""Global decision procedures: the exact two-squares criterion over
Z[sqrt(-14)], the classical test over Z, and a bounded semi-decision for
other quadratic rings."""

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


class Evidence(NamedTuple):
    """Everything the verdict was computed from."""

    factorization: NormFactorization | None = None
    parity_exponent: int | None = None
    a1_symbol: int | None = None
    branch: str | None = None
    local_report: tuple[LocalVerdict, ...] = ()


class Decision(NamedTuple):
    """The one record of an answer for delta; what is derived from its
    fields is a property, not a field."""

    delta: QuadInt
    status: DecisionStatus
    evidence: Evidence
    witness: tuple[QuadInt, QuadInt] | None = None

    @property
    def witness_verified(self) -> bool:
        return verify_witness(self.delta, self.witness)

    @property
    def failing_places(self) -> tuple[Place, ...]:
        return tuple(v.place for v in self.evidence.local_report if not v.solvable)


def parity_exponent(nf: NormFactorization) -> int:
    """s1 + s2 + s3 + sum of e_i/2 over D2 + sum of e_i over D3.

    The s3 term (7-adic valuation of the rational coordinate) is required:
    without it the symbol condition misclassifies every representable delta
    whose a-coordinate carries an odd power of 7, e.g. -7 = (-7)^2 +
    (-2*sqrt(-14))^2.  Validated against generated representables.
    """
    exps = dict(nf.primes)
    for p in nf.d2:
        # norms have even valuation at D2 primes: -14 is a nonresidue there
        if exps[p] % 2:
            raise RuntimeError(f"odd exponent {exps[p]} at D2 prime {p}; invariant violated")
    return (
        nf.s1
        + nf.s2
        + nf.s3
        + sum(exps[p] // 2 for p in nf.d2)
        + sum(exps[p] for p in nf.d3)
    )


def decide_qsqrt_m14(delta: QuadInt, witness_bound: int | None = DEFAULT_WITNESS_BOUND) -> Decision:
    """Exact decision for delta = a + b*sqrt(-14) with a != 0: representable
    as x^2 + y^2 over Z[sqrt(-14)] iff it is so at every place and the symbol
    condition holds.

    witness_bound caps the attached search for an explicit witness on
    positive decisions (None skips the search; the decision itself never
    depends on it).
    """
    if delta.d != DEFAULT_D:
        raise ParameterError(f"criterion applies to d={DEFAULT_D}, got d={delta.d}")
    if witness_bound is not None:
        _check_bound(witness_bound)
    nf = norm_factorization(delta)
    eps = parity_exponent(nf)
    a1_symbol = numth.legendre(nf.a1, 7)
    # condition 1 walks the places of the factorization already in hand
    condition_local, report = _local_report(delta, ((2, nf.s1), (7, nf.s2), *nf.primes))
    evidence = Evidence(
        factorization=nf,
        parity_exponent=eps,
        a1_symbol=a1_symbol,
        branch="d1_nonempty" if nf.d1 else "parity",
        local_report=tuple(report),
    )
    if not condition_local:
        return Decision(delta, DecisionStatus.LOCAL_OBSTRUCTION, evidence)
    # condition 2, the symbol condition: D1 nonempty, or (a1|7) = (-1)^eps
    if not nf.d1 and a1_symbol != (-1) ** eps:
        return Decision(delta, DecisionStatus.GLOBAL_OBSTRUCTION, evidence)
    witness = None
    if witness_bound is not None:
        witness = find_representation(delta, witness_bound).witness
    return Decision(delta, DecisionStatus.REPRESENTABLE, evidence, witness)


def _compose_two_squares(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2


def _prime_two_squares(p: int) -> tuple[int, int]:
    # p = 1 (mod 4): descend the Euclidean remainders of (p, sqrt(-1) mod p)
    # below sqrt(p); the first one is a leg of the representation
    r = numth._sqrt_mod_prime(p - 1, p)
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
        return Decision(QuadInt(n, 0), DecisionStatus.LOCAL_OBSTRUCTION, Evidence(local_report=bad))
    x, y = 1, 0
    for p, e in fac:
        if p % 4 == 3:
            scale = p ** (e // 2)
            x, y = x * scale, y * scale
            continue
        base = (1, 1) if p == 2 else _prime_two_squares(p)
        for _ in range(e):
            x, y = _compose_two_squares(x, y, *base)
    x, y = sorted((abs(x), abs(y)), reverse=True)
    if x * x + y * y != n:
        raise RuntimeError(f"{x}^2 + {y}^2 != {n}; invariant violated")
    witness = (QuadInt(x, 0, DEFAULT_D), QuadInt(y, 0, DEFAULT_D))
    return Decision(QuadInt(n, 0), DecisionStatus.REPRESENTABLE, Evidence(), witness)


def decide_generic(delta: QuadInt, search_bound: int = DEFAULT_WITNESS_BOUND) -> Decision:
    """Semi-decision for arbitrary valid d: local checks can refute, a found
    witness confirms, anything else is UNKNOWN."""
    _check_bound(search_bound)
    condition_local, report = locally_solvable_everywhere(delta)
    evidence = Evidence(local_report=tuple(report))
    if not condition_local:
        return Decision(delta, DecisionStatus.LOCAL_OBSTRUCTION, evidence)
    witness = find_representation(delta, search_bound).witness
    status = DecisionStatus.UNKNOWN if witness is None else DecisionStatus.REPRESENTABLE
    return Decision(delta, status, evidence, witness)


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
            if x.b or y.b or x.a * x.a + y.a * y.a != n:
                return False
    return True
