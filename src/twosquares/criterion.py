"""Global decision procedures: the exact two-squares criterion over
Z[sqrt(-14)], the classical test over Z, and a bounded semi-decision for
other quadratic rings."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isqrt

from . import numth
from .errors import ParameterError
from .localsolve import LocalVerdict, locally_solvable_everywhere
from .ring import DEFAULT_D, NormFactorization, Place, QuadInt, norm_factorization
from .search import find_representation, two_square_search, verify_witness

DEFAULT_WITNESS_BOUND = 50


class DecisionStatus(enum.Enum):
    REPRESENTABLE = "representable"
    LOCAL_OBSTRUCTION = "local_obstruction"
    GLOBAL_OBSTRUCTION = "global_obstruction"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Evidence:
    """Everything the verdict was computed from.  The two conditions of the
    criterion are reported independently: condition_local (solvable at every
    place) and condition_symbol (D1 nonempty, or the a1 symbol matches the
    exponent parity)."""

    factorization: NormFactorization | None = None
    parity_exponent: int | None = None
    a1_symbol: int | None = None
    branch: str | None = None
    condition_local: bool | None = None
    condition_symbol: bool | None = None
    local_report: tuple[LocalVerdict, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Decision:
    status: DecisionStatus
    witness: tuple[QuadInt, QuadInt] | None
    witness_verified: bool
    failing_places: tuple[Place, ...]
    evidence: Evidence


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
    nf = norm_factorization(delta)
    eps = parity_exponent(nf)
    a1_symbol = numth.legendre(nf.a1, 7)
    if nf.d1:
        branch = "d1_nonempty"
        condition_symbol = True
    else:
        branch = "parity"
        condition_symbol = a1_symbol == (-1) ** eps
    # the places of condition 1, from the factorization already in hand
    places = sorted({2} | ({7} if nf.s2 else set()) | {p for p, _ in nf.primes})
    condition_local, report = locally_solvable_everywhere(delta, places)
    evidence = Evidence(
        factorization=nf,
        parity_exponent=eps,
        a1_symbol=a1_symbol,
        branch=branch,
        condition_local=condition_local,
        condition_symbol=condition_symbol,
        local_report=tuple(report),
    )
    if not condition_local:
        failing = tuple(v.place for v in report if not v.solvable)
        return Decision(DecisionStatus.LOCAL_OBSTRUCTION, None, False, failing, evidence)
    if not condition_symbol:
        return Decision(DecisionStatus.GLOBAL_OBSTRUCTION, None, False, (), evidence)
    witness = None
    if witness_bound is not None:
        witness = find_representation(delta, witness_bound).witness
    verified = verify_witness(delta, witness)
    return Decision(DecisionStatus.REPRESENTABLE, witness, verified, (), evidence)


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
    bad = tuple(p for p, e in fac if p % 4 == 3 and e % 2)
    if bad:
        failing = tuple(Place(p, None) for p in bad)
        return Decision(DecisionStatus.LOCAL_OBSTRUCTION, None, False, failing, Evidence())
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
    return Decision(DecisionStatus.REPRESENTABLE, witness, True, (), Evidence())


def decide_generic(delta: QuadInt, search_bound: int = DEFAULT_WITNESS_BOUND) -> Decision:
    """Semi-decision for arbitrary valid d: local checks can refute, a found
    witness confirms, anything else is UNKNOWN."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    condition_local, report = locally_solvable_everywhere(delta)
    evidence = Evidence(condition_local=condition_local, local_report=tuple(report))
    if not condition_local:
        failing = tuple(v.place for v in report if not v.solvable)
        return Decision(DecisionStatus.LOCAL_OBSTRUCTION, None, False, failing, evidence)
    witness = find_representation(delta, search_bound).witness
    if witness is not None:
        return Decision(
            DecisionStatus.REPRESENTABLE, witness, verify_witness(delta, witness), (), evidence
        )
    return Decision(DecisionStatus.UNKNOWN, None, False, (), evidence)


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
