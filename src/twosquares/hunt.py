"""Counterexample hunter: sweep a coordinate box, run the criterion, the
local solver, the residue sieve and the bounded oracle against each other,
and emit JSON-ready records.  Each record is read off one factorization of
N(delta) by the criterion's core for conditions 1 and 2, on a local walk
that builds no certificate: the places that fail and the symbol data.
Conjugation keeps a and the norm and maps each local problem onto its
conjugate's, so delta and its conjugate share that verdict, computed once
per row.  Conjugation keeps the search box too, so the conjugate's box
witnesses are the conjugates of delta's, and one orbit walk serves the
pair; a b = 0 delta has no partner and keeps its own find_representation
call.  Only a hit gets a full Decision, built by the criterion's own body
on the factors the verdict holds.  Output is deterministic for any worker
count."""

from __future__ import annotations

import os
from typing import NamedTuple

from . import numth
from .criterion import Decision, DecisionStatus, _branch, _conditions, _decide
from .errors import ParameterError
from .ring import QuadInt
from .search import (
    SearchReport,
    _check_bound,
    _search_reports,
    find_representation,
    residue_obstruction,
    verify_witness,
    witness_jsonable,
)


class HuntResult(NamedTuple):
    """The hits are the decisions for the deltas passing every local test
    whose verdict is a global obstruction, with no witness below the bound."""

    records: tuple[dict, ...]
    hits: tuple[Decision, ...]
    summary: dict

    @property
    def discrepancies(self) -> tuple[dict, ...]:
        return tuple(r for r in self.records if r["discrepancy"])


class _Verdict(NamedTuple):
    # the criterion's verdict on delta and on its conjugate: one
    # factorization of the norm they share, and the record fields read off
    # it, the places that fail and the symbol data
    factors: tuple[tuple[int, int], ...]
    status: DecisionStatus
    branch: str | None
    failing_places: tuple[str, ...]


def _verdict(delta: QuadInt) -> _Verdict:
    # the criterion's conditions on a certificate-free walk, which returns
    # only the places that fail; every d = -14 delta they leave standing is
    # representable
    factors = tuple(numth.factorize(abs(delta.norm())))
    failures, nf, status = _conditions(delta, factors, False)
    status = status or DecisionStatus.REPRESENTABLE
    return _Verdict(factors, status, _branch(nf), tuple(v.place.label() for v in failures))


def _examine(
    delta: QuadInt, verdict: _Verdict, sieved_mod: int | None, report: SearchReport | None
) -> tuple[dict, Decision | None]:
    # the sieve and the local solver are independent local tests, so a
    # sieved delta that the local solver accepts is a discrepancy; a sieved
    # delta is not searched
    a, b = delta.a, delta.b
    witness, states = (None, 0) if sieved_mod is not None else report
    status = verdict.status
    local_ok = not verdict.failing_places
    negative = status is not DecisionStatus.REPRESENTABLE
    hit = status is DecisionStatus.GLOBAL_OBSTRUCTION and witness is None
    record = {
        "a": a,
        "b": b,
        "witness": witness_jsonable(witness),
        "witness_verified": verify_witness(delta, witness),
        "search_states": states,
        "sieved_mod": sieved_mod,
        # a = 0 records keep their own kind and a null status
        "kind": "a_zero" if a == 0 else "criterion",
        "status": None if a == 0 else status.value,
        "branch": verdict.branch,
        "failing_places": list(verdict.failing_places),
        "hit": hit,
        "local_ok": local_ok,
        "discrepancy": (witness is not None and negative) or (sieved_mod is not None and local_ok),
    }
    if not hit:
        return record, None
    # only a hit carries the full Decision, with every place's evidence,
    # built on the factors the verdict holds
    decision = _decide(delta, verdict.factors, None)
    if decision.status is not DecisionStatus.GLOBAL_OBSTRUCTION:
        raise RuntimeError(f"hunt and criterion disagree on {delta}; invariant violated")
    return record, decision


def _hunt_row(args: tuple[int, int, int]) -> list[tuple[dict, Decision | None]]:
    # Conjugation is a ring automorphism that keeps a, the norm and the
    # search box, and maps the local problem of delta onto that of its
    # conjugate, so a + b*sqrt(-14) and a - b*sqrt(-14) fail at the same
    # places with the same symbol data: the verdict of (a, -|b|) serves
    # (a, |b|) too.  Their box witnesses are conjugate, so one search
    # serves the pair, run for the first member the sieve passes.  A b = 0
    # delta has no partner and keeps the public call.  The verdicts, the
    # sieve and the searches each run as one pass over the row (mixing them
    # delta by delta made the sweep slower), and records and hit Decisions
    # come out in ascending b.
    a, box, bound = args
    deltas = [QuadInt(a, b) for b in range(-box, box + 1) if (a, b) != (0, 0)]
    verdicts = {delta.b: _verdict(delta) for delta in deltas if delta.b <= 0}
    sieved = [residue_obstruction(delta) for delta in deltas]
    reports = {}
    for delta, m in zip(deltas, sieved):
        if m is None and delta.b not in reports:
            if delta.b:
                reports[delta.b], reports[-delta.b] = _search_reports(delta, bound, True)
            else:
                reports[0] = find_representation(delta, bound)
    return [
        _examine(delta, verdicts[-abs(delta.b)], m, reports.get(delta.b)) for delta, m in zip(deltas, sieved)
    ]


def hunt_counterexamples(box: int, bound: int, workers: int = 1) -> HuntResult:
    """Examine every delta = a + b*sqrt(-14) with |a|, |b| <= box (excluding
    zero) at oracle bound `bound`.  Records come out in ascending (a, b)
    order regardless of worker count."""
    if box < 0:
        raise ParameterError(f"box must be >= 0, got {box}")
    _check_bound(bound)
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    rows = [(a, box, bound) for a in range(-box, box + 1)]
    # the pool starts all its processes at once, so start no more than
    # there are rows or cores
    workers = min(workers, len(rows), os.cpu_count() or 1)
    if workers == 1:
        row_results = [_hunt_row(r) for r in rows]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~9 ms, for parallel hunts only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            row_results = list(pool.map(_hunt_row, rows))
    pairs = [pair for row in row_results for pair in row]
    records = [record for record, _ in pairs]
    hits = [decision for _, decision in pairs if decision is not None]
    summary = {
        "kind": "summary",
        "box": box,
        "bound": bound,
        "records": len(records),
        "hits": len(hits),
        "discrepancies": sum(1 for r in records if r["discrepancy"]),
        "a_zero": sum(1 for r in records if r["kind"] == "a_zero"),
    }
    return HuntResult(tuple(records), tuple(hits), summary)


def result_lines(result: HuntResult) -> list[dict]:
    """The JSON-lines payload: every record, then the summary."""
    return [*result.records, result.summary]
