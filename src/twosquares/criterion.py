"""Global decision procedures: one decision body for every quadratic ring
(one factorization of N(delta), the local walk on it, then for d = -14 the
exact symbol condition read off that same factorization, else a bounded
witness search) and the classical test over Z.  Conditions 1 and 2 (every
place, then the symbol condition) live in one private core, which the
hunt calls too, on a walk that builds no certificate."""

from __future__ import annotations

import enum
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from . import numth, ring
from .errors import ParameterError
from .localsolve import LocalVerdict, _local_report
from .ring import DEFAULT_D, Place, QuadInt, Splitting
from .search import _check_bound, _miss_is_proof, find_representation, two_square_search, verify_witness

DEFAULT_WITNESS_BOUND = 50


class DecisionStatus(enum.Enum):
    REPRESENTABLE = "representable"
    LOCAL_OBSTRUCTION = "local_obstruction"
    GLOBAL_OBSTRUCTION = "global_obstruction"
    UNKNOWN = "unknown"


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


@lru_cache(maxsize=256)
def _d_classes(p: int) -> tuple[bool, bool, bool]:
    # whether an odd prime p = 1 (mod 4) other than 7 lies in D1, D2, D3;
    # it comes from factorize, so each symbol is +1 or -1.  (-1/p) = +1
    # makes (14/p) = (-14/p), the split bit of p's place, which the local
    # walk has already put in the table.  7 is a fourth power only if it is
    # a square, so the one power here is the quartic test where (7/p) = +1.
    r14, r7 = ring._place(p, DEFAULT_D).splitting is Splitting.SPLIT, numth.jacobi(7, p) == 1
    return r14 and not r7, not r14 and not r7, r14 and not (r7 and numth._euler_criterion(7, p))


def _partition(factors: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    # every class needs (-1/p) = +1, that is p = 1 (mod 4), which leaves out
    # 2 and 7; a hunt meets the same few dozen primes again and again
    d1, d2, d3 = [], [], []
    for p, _ in factors:
        if p % 4 == 1:
            in1, in2, in3 = _d_classes(p)
            if in1:
                d1.append(p)
            if in2:
                d2.append(p)
            if in3:
                d3.append(p)
    return tuple(d1), tuple(d2), tuple(d3)


def _norm_factorization(delta: QuadInt, factors: tuple[tuple[int, int], ...]) -> NormFactorization:
    # the symbol data of a delta over Z[sqrt(-14)] with a != 0 (the 7-part
    # of a is undefined otherwise), from factorize's pairs of |N(delta)|
    s3 = numth.valuation(delta.a, 7)
    a1 = delta.a // 7**s3
    d1, d2, d3 = _partition(factors)
    for p, e in factors:
        # norms have even valuation at D2 primes: -14 is a nonresidue there
        if e % 2 and p in d2:
            raise RuntimeError(f"odd exponent {e} at D2 prime {p}; invariant violated")
    return NormFactorization(factors, s3, a1, d1, d2, d3)


def _symbol_condition(nf: NormFactorization) -> bool:
    # condition 2 of the criterion: D1 nonempty, or (a1|7) = (-1)^eps
    return bool(nf.d1) or nf.a1_symbol == (-1) ** nf.parity_exponent


def _branch(nf: NormFactorization | None) -> str | None:
    # which half of the symbol condition decides; none without symbol data
    if nf is None:
        return None
    return "d1_nonempty" if nf.d1 else "parity"


def _conditions(
    delta: QuadInt, factors: tuple[tuple[int, int], ...], certify: bool = True
) -> tuple[tuple[LocalVerdict, ...], NormFactorization | None, DecisionStatus | None]:
    # conditions 1 and 2 on factorize's pairs of |N(delta)|, in order: a
    # place that fails refutes locally; where there is symbol data, a
    # failed symbol condition refutes globally; a None status leaves the
    # verdict to what follows.  The report is the local walk's, with no
    # certificate and only the failing places unless certify is set.
    # Symbol data needs d = -14 and a != 0, for the 7-part of a.  a = 0
    # needs none: N(b*sqrt(-14)) = 14 b^2 has odd valuation at the ramified
    # place over 7, and 7 = 3 (mod 4), so the walk refutes it.
    report = _local_report(delta, factors, certify)
    nf = _norm_factorization(delta, factors) if delta.d == DEFAULT_D and delta.a else None
    if not all(v.solvable for v in report):
        return report, nf, DecisionStatus.LOCAL_OBSTRUCTION
    if nf is not None and not _symbol_condition(nf):
        return report, nf, DecisionStatus.GLOBAL_OBSTRUCTION
    return report, nf, None


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
        return _branch(self.factorization)

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
        if p % 4 == 3:  # prime in Z[i], to an even power: x + yi takes p^(e/2)
            u, v, e = p, 0, e // 2
        else:
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
    """The decision for nonzero delta in any supported ring, on one
    factorization of N(delta).  The local walk refutes; for d = -14 and
    a != 0 the symbol condition decides the rest exactly.  Elsewhere a
    found witness confirms, a miss that covers every witness (the orbit
    route for d < -1, the whole box for d > 0) refutes, and any other miss
    is UNKNOWN.

    search_bound caps the search for a witness (None skips it); where the
    criterion applies, the verdict never depends on it."""
    if search_bound is not None:
        _check_bound(search_bound)
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    return _decide(delta, tuple(numth.factorize(abs(delta.norm()))), search_bound)


def _decide(delta: QuadInt, factors: tuple[tuple[int, int], ...], search_bound: int | None) -> Decision:
    # decide_generic's body on factorize's pairs of |N(delta)|, for a caller
    # that has factored the norm already
    report, nf, status = _conditions(delta, factors)
    if status is not None:
        return Decision(delta, status, report, nf)
    witness = None if search_bound is None else find_representation(delta, search_bound).witness
    if nf is not None or witness is not None:
        status = DecisionStatus.REPRESENTABLE
    elif search_bound is not None and _miss_is_proof(delta, search_bound):
        status = DecisionStatus.GLOBAL_OBSTRUCTION
    else:
        status = DecisionStatus.UNKNOWN
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
