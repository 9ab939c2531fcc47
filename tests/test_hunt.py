"""Hasse-principle counterexample hunter."""

import hashlib
import pickle

import pytest

from twosquares import hunt
from twosquares.cli import canonical_json
from twosquares.criterion import DecisionStatus, decide_qsqrt_m14
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


def test_box12_output_is_frozen():
    result = hunt_counterexamples(12, 100, workers=1)
    text = "".join(canonical_json(line) + "\n" for line in result_lines(result))
    assert result.summary["hits"] == 39
    assert hashlib.sha256(text.encode()).hexdigest() == BOX12_DIGEST


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
    assert res.bound == 60
    for hit in res.hits:
        assert hit.status is DecisionStatus.GLOBAL_OBSTRUCTION
        assert all(v.solvable for v in hit.evidence.local_report)
        assert hit.witness is None


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


def test_worker_counts_agree():
    serial = hunt_counterexamples(3, 40, workers=1)
    parallel = hunt_counterexamples(3, 40, workers=3)
    assert [canonical_json(r) for r in result_lines(serial)] == [
        canonical_json(r) for r in result_lines(parallel)
    ]


def test_worker_counts_agree_on_hit_decisions():
    # the hits come back pickled from the workers, evidence and all
    serial = hunt_counterexamples(3, 40, workers=1)
    assert serial.hits
    assert hunt_counterexamples(3, 40, workers=2).hits == serial.hits


def test_records_are_immutable_and_pickle():
    decision = decide_qsqrt_m14(QuadInt(-13, 2))
    verdict = decision.evidence.local_report[1]  # the place 2, with a certificate
    records = [
        (decision.delta, "a"),
        (verdict.place, "prime"),
        (decision.evidence.factorization, "s1"),
        (verdict.certificate, "level"),
        (verdict, "solvable"),
        (decision.evidence, "branch"),
        (decision, "status"),
        (find_representation(decision.delta, 5), "witness"),
    ]
    assert len({type(r) for r, _ in records}) == 8
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    # a HuntResult holds dicts, so it has no hash
    result = hunt_counterexamples(1, 10)
    with pytest.raises(AttributeError):
        result.box = 2
    assert pickle.loads(pickle.dumps(result)) == result


def test_hunt_starts_no_more_workers_than_rows(monkeypatch):
    import concurrent.futures

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
    assert result_lines(hunt_counterexamples(1, 10, workers=5000)) == serial
    assert result_lines(hunt_counterexamples(1, 10, workers=2)) == serial
    assert hunt_counterexamples(0, 10, workers=5000).records == ()
    assert sizes == [3, 2]  # box 1 has 3 rows; box 0 has one, run serially


def test_sieve_against_local_solver_sets_discrepancy(monkeypatch):
    # force the sieve to refute everything, and the local solver to accept
    # every a = 0 delta: each record the local side accepts must be flagged
    monkeypatch.setattr(hunt, "residue_obstruction", lambda delta: 7)
    monkeypatch.setattr(hunt, "locally_solvable_everywhere", lambda delta: (True, []))
    res = hunt_counterexamples(2, 10)
    assert all(r["sieved_mod"] == 7 and r["search_states"] == 0 for r in res.records)
    flagged = [r for r in res.records if r["local_ok"]]
    assert {r["kind"] for r in flagged} == {"a_zero", "criterion"}
    assert list(res.discrepancies) == flagged
    assert res.summary["discrepancies"] == len(flagged)
