"""Counterexample hunter: sweep a coordinate box, run the criterion, the
local solver, the residue sieve and the bounded oracle against each other,
and emit JSON-ready records.  Output is deterministic for any worker count."""

from __future__ import annotations

from typing import NamedTuple

from .criterion import Decision, DecisionStatus, decide_qsqrt_m14
from .errors import ParameterError
from .localsolve import locally_solvable_everywhere
from .ring import QuadInt
from .search import _check_bound, find_representation, residue_obstruction, verify_witness, witness_jsonable


class HuntResult(NamedTuple):
    """The hits are the decisions for the deltas passing every local test
    whose verdict is a global obstruction, with no witness below `bound`."""

    box: int
    bound: int
    records: tuple[dict, ...]
    hits: tuple[Decision, ...]
    summary: dict

    @property
    def discrepancies(self) -> tuple[dict, ...]:
        return tuple(r for r in self.records if r["discrepancy"])


def _examine(a: int, b: int, bound: int) -> tuple[dict, Decision | None]:
    delta = QuadInt(a, b)
    # the sieve and the local solver are independent local tests, so a
    # sieved delta that the local solver accepts is a discrepancy
    sieved_mod = residue_obstruction(delta)
    witness, states = None, 0
    if sieved_mod is None:
        report = find_representation(delta, bound)
        witness, states = report.witness, report.states_examined
    record = {
        "a": a,
        "b": b,
        "witness": witness_jsonable(witness),
        "witness_verified": verify_witness(delta, witness),
        "search_states": states,
        "sieved_mod": sieved_mod,
        "hit": False,
    }
    hit_decision = None
    if a == 0:
        # outside the criterion's domain: cross-check the oracles against
        # the local solver only
        local_ok, verdicts = locally_solvable_everywhere(delta)
        negative = not local_ok
        record.update(
            {
                "kind": "a_zero",
                "status": None,
                "branch": None,
                "failing_places": [v.place.label() for v in verdicts if not v.solvable],
            }
        )
    else:
        decision = decide_qsqrt_m14(delta, witness_bound=None)
        status = decision.status
        local_ok = status is not DecisionStatus.LOCAL_OBSTRUCTION
        negative = status in (DecisionStatus.LOCAL_OBSTRUCTION, DecisionStatus.GLOBAL_OBSTRUCTION)
        hit = status is DecisionStatus.GLOBAL_OBSTRUCTION and witness is None
        record.update(
            {
                "kind": "criterion",
                "status": status.value,
                "branch": decision.evidence.branch,
                "failing_places": [p.label() for p in decision.failing_places],
                "hit": hit,
            }
        )
        if hit:
            hit_decision = decision
    record["local_ok"] = local_ok
    record["discrepancy"] = (witness is not None and negative) or (
        sieved_mod is not None and local_ok
    )
    return record, hit_decision


def _hunt_row(args: tuple[int, int, int]) -> list[tuple[dict, Decision | None]]:
    a, box, bound = args
    return [_examine(a, b, bound) for b in range(-box, box + 1) if (a, b) != (0, 0)]


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
    # the pool starts all its processes at once, so start no more than rows
    workers = min(workers, len(rows))
    if workers == 1:
        row_results = [_hunt_row(r) for r in rows]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~9 ms, for parallel hunts only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            row_results = list(pool.map(_hunt_row, rows))
    records: list[dict] = []
    hits: list[Decision] = []
    for row in row_results:
        for record, hit_decision in row:
            records.append(record)
            if hit_decision is not None:
                hits.append(hit_decision)
    summary = {
        "kind": "summary",
        "box": box,
        "bound": bound,
        "records": len(records),
        "hits": sum(1 for r in records if r["hit"]),
        "discrepancies": sum(1 for r in records if r["discrepancy"]),
        "a_zero": sum(1 for r in records if r["kind"] == "a_zero"),
    }
    return HuntResult(box, bound, tuple(records), tuple(hits), summary)


def result_lines(result: HuntResult) -> list[dict]:
    """The JSON-lines payload: every record, then the summary."""
    return [*result.records, result.summary]
