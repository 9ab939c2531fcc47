"""Hasse-principle counterexample hunter."""

import hashlib
import pickle
from collections import Counter

import pytest

from twosquares import criterion, hunt, localsolve, numth
from twosquares.cli import canonical_json
from twosquares.criterion import DecisionStatus, decide_qsqrt_m14
from twosquares.errors import ParameterError
from twosquares.hunt import hunt_counterexamples, result_lines
from twosquares.ring import QuadInt
from twosquares.search import find_representation

BOX5_HITS = [
    (-4, 0), (-3, -4), (-3, 4), (-2, 0), (-1, 0),
    (4, -2), (4, 2), (5, -2), (5, 2),
]

# SHA-256 of the JSON lines of hunt_counterexamples(12, 100), as `hunt`
# writes them, frozen while the p = 2 verdict was still a descent and the
# search scanned every (u, v)
BOX12_DIGEST = "ee107e6acbbbc17eaebb9e9b2f4679c76001a23ffbcc2c622c4805c6a8c5f595"


# the same for hunt_counterexamples(60, 100), taken from `python -m
# twosquares hunt --box 60 --bound 100` at workers 1 and 2
BOX60_DIGEST = "bb6bf772be8db9dac723afb9185254e5849e5942946ed08121d3f473e37dcb2d"


def test_box12_output_is_frozen():
    result = hunt_counterexamples(12, 100, workers=1)
    text = "".join(canonical_json(line) + "\n" for line in result_lines(result))
    assert result.summary["hits"] == 39
    assert hashlib.sha256(text.encode()).hexdigest() == BOX12_DIGEST


def test_box60_output_is_frozen():
    # norms up to 54000, past every hit of box 12
    result = hunt_counterexamples(60, 100)
    text = "".join(canonical_json(line) + "\n" for line in result_lines(result))
    assert len(result.records) == 14640 and len(result.hits) == 579
    assert hashlib.sha256(text.encode()).hexdigest() == BOX60_DIGEST


def test_box5_fixed():
    res = hunt_counterexamples(5, 100, workers=1)
    assert sorted((h.delta.a, h.delta.b) for h in res.hits) == BOX5_HITS
    assert res.summary == {
        "kind": "summary",
        "box": 5,
        "bound": 100,
        "records": 120,
        "hits": 9,
        "discrepancies": 0,
        "a_zero": 10,
    }
    assert res.discrepancies == ()
    assert len(res.records) == 120


def test_hit_structure():
    res = hunt_counterexamples(5, 60, workers=1)
    assert res.hits
    assert res.summary["bound"] == 60
    for hit in res.hits:
        assert hit.status is DecisionStatus.GLOBAL_OBSTRUCTION
        assert all(v.solvable for v in hit.local_report)
        assert hit.witness is None


def test_negated_hits_have_verified_witnesses(acceptance_sweep):
    # negation flips (a1|7) and keeps the rest of the criterion's data, so
    # the negation of each hit is representable; the search proves it
    result, _ = acceptance_sweep
    records = {(r["a"], r["b"]): r for r in result.records}
    assert len(result.hits) == 118
    for hit in result.hits:
        negation = records[(-hit.delta.a, -hit.delta.b)]
        assert negation["witness_verified"], hit.delta


def test_hits_conjugation_closed():
    res = hunt_counterexamples(5, 100, workers=1)
    hits = {(h.delta.a, h.delta.b) for h in res.hits}
    assert {(a, -b) for a, b in hits} == hits


def test_records_cover_box_and_flag_kinds():
    res = hunt_counterexamples(3, 40, workers=1)
    seen = {(r["a"], r["b"]) for r in res.records}
    expected = {(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)}
    assert seen == expected
    for r in res.records:
        if r["a"] == 0:
            assert r["kind"] == "a_zero" and r["status"] is None
        else:
            assert r["kind"] == "criterion" and r["status"] is not None


def test_result_lines_layout():
    res = hunt_counterexamples(2, 30, workers=1)
    lines = result_lines(res)
    assert len(lines) == len(res.records) + 1
    assert lines[-1]["kind"] == "summary"
    assert lines[-1] == res.summary


def test_empty_box():
    res = hunt_counterexamples(0, 10)
    assert res.records == () and res.hits == ()
    assert res.summary["records"] == 0
    with pytest.raises(ParameterError, match="box"):
        hunt_counterexamples(-1, 10)
    with pytest.raises(ParameterError, match="workers"):
        hunt_counterexamples(1, 10, workers=0)


def test_worker_counts_agree():
    serial = hunt_counterexamples(3, 40, workers=1)
    parallel = hunt_counterexamples(3, 40, workers=3)
    assert [canonical_json(r) for r in result_lines(serial)] == [
        canonical_json(r) for r in result_lines(parallel)
    ]


def test_worker_counts_agree_on_hit_decisions():
    # the hits come back pickled from the workers, local reports and all
    serial = hunt_counterexamples(3, 40, workers=1)
    assert serial.hits
    assert hunt_counterexamples(3, 40, workers=2).hits == serial.hits


def test_records_are_immutable_and_pickle():
    decision = decide_qsqrt_m14(QuadInt(-13, 2))
    verdict = decision.local_report[1]  # the place 2, with a certificate
    records = [
        (decision.delta, "a"),
        (verdict.place, "prime"),
        (decision.factorization, "s1"),
        (verdict.certificate, "level"),
        (verdict, "solvable"),
        (decision, "status"),
        (find_representation(decision.delta, 5), "witness"),
    ]
    assert len({type(r) for r, _ in records}) == 7
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    # a HuntResult holds dicts, so it has no hash
    result = hunt_counterexamples(1, 10)
    with pytest.raises(AttributeError):
        result.records = ()
    assert pickle.loads(pickle.dumps(result)) == result


def test_hunt_starts_no_more_workers_than_rows(monkeypatch):
    import concurrent.futures
    import os

    sizes = []

    class SerialPool:
        # stands in for ProcessPoolExecutor: records max_workers, starts nothing
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = result_lines(hunt_counterexamples(1, 10))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert result_lines(hunt_counterexamples(1, 10, workers=5000)) == serial
    assert result_lines(hunt_counterexamples(1, 10, workers=2)) == serial
    assert hunt_counterexamples(0, 10, workers=5000).records == ()
    assert sizes == [3, 2]  # box 1 has 3 rows; box 0 has one, run serially
    # no more than there are cores, and serial when their number is unknown
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert result_lines(hunt_counterexamples(1, 10, workers=5000)) == serial
    assert sizes == [3, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert result_lines(hunt_counterexamples(1, 10, workers=5000)) == serial
    assert sizes == [3, 2, 2]


def test_sieve_against_local_solver_sets_discrepancy(monkeypatch):
    # force the sieve to refute everything, and the local solver to accept
    # every a = 0 delta: each record the local side accepts must be flagged
    monkeypatch.setattr(hunt, "residue_obstruction", lambda delta: 7)
    failures = hunt._local_failures
    monkeypatch.setattr(hunt, "_local_failures", lambda delta, factors: failures(delta, factors) if delta.a else ())
    res = hunt_counterexamples(2, 10)
    assert all(r["sieved_mod"] == 7 and r["search_states"] == 0 for r in res.records)
    flagged = [r for r in res.records if r["local_ok"]]
    assert {r["kind"] for r in flagged} == {"a_zero", "criterion"}
    assert list(res.discrepancies) == flagged
    assert res.summary["discrepancies"] == len(flagged)


def test_records_match_the_full_decisions(acceptance_sweep):
    # a record is built from the factor list, the failing places and the
    # symbol data; the full Decision of its delta must read the same
    result, _ = acceptance_sweep
    assert len(result.records) == 2600
    for r in result.records:
        decision = decide_qsqrt_m14(QuadInt(r["a"], r["b"]), None)
        status = decision.status
        assert r["status"] == (None if r["a"] == 0 else status.value), r
        assert r["branch"] == decision.branch, r
        assert r["failing_places"] == [p.label() for p in decision.failing_places], r
        assert r["local_ok"] == (status is not DecisionStatus.LOCAL_OBSTRUCTION), r


def test_only_hits_get_a_full_local_report(monkeypatch):
    # the hunt walks the failing places of every delta, and builds the full
    # per-place report, certificates and all, for its hits alone.  A row
    # shares one verdict between a + b*sqrt(-14) and its conjugate, and a
    # hit's Decision is built on the factors that verdict holds, so box 12
    # factors and walks the 324 deltas with b <= 0 once each
    reports, certificates, calls = [], [], Counter()
    report, solution = localsolve._local_report, localsolve.ModularSolution
    factorize, failures = numth.factorize, hunt._local_failures

    def counted_report(delta, factors):
        reports.append(delta)
        return report(delta, factors)

    QuadInt(1, 1)  # the cached check of d factors |d| once
    monkeypatch.setattr(criterion, "_local_report", counted_report)
    monkeypatch.setattr(localsolve, "_local_report", counted_report)
    monkeypatch.setattr(localsolve, "ModularSolution", lambda *args: certificates.append(args) or solution(*args))
    monkeypatch.setattr(numth, "factorize", lambda n: calls.update(["factorize"]) or factorize(n))
    monkeypatch.setattr(hunt, "_local_failures", lambda *args: calls.update(["failures"]) or failures(*args))
    result = hunt_counterexamples(12, 100)
    assert calls == {"factorize": 324, "failures": 324}
    assert len(reports) == result.summary["hits"] == 39
    assert reports == [hit.delta for hit in result.hits]
    held = [v.certificate for hit in result.hits for v in hit.local_report if v.certificate is not None]
    assert len(certificates) == len(held)


def test_a_hit_the_criterion_does_not_confirm_raises(monkeypatch):
    # a hit's full Decision must agree with the record; the check is a
    # raise, so it holds under python -O as well
    monkeypatch.setattr(hunt, "_decide", lambda delta, factors, search_bound: decide_qsqrt_m14(-delta, None))
    with pytest.raises(RuntimeError, match="invariant violated"):
        hunt_counterexamples(1, 10)
