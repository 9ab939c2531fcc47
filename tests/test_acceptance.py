"""Acceptance gate: eight criteria, one test and one pass/fail line each.

The sweep criteria (5-8) share one session-scoped run of the |a|,|b| <= 25
box at search bound 100; its wall time is charged to criterion 5.
"""

import hashlib
import random
import time
from collections import Counter

from oracles import _descend, brute_legendre, conic_solvable_qp, cutoff_depth
from twosquares import numth
from twosquares.cli import canonical_json
from twosquares.criterion import DecisionStatus, decide_qsqrt_m14, verify_classical
from twosquares.hunt import hunt_counterexamples, result_lines
from twosquares.localsolve import locally_solvable
from twosquares.ring import QuadInt

# Found by the hunter itself over |a|,|b| <= 25 at bound 100, then frozen.
# Every entry is locally solvable at all places yet criterion-rejected; the
# two entries with 7 | a (7 and 14) were double-checked at bound 600.
FROZEN_HITS = [
    (-24, -20), (-24, 20), (-23, -16), (-23, 16), (-22, -16), (-22, 0), (-22, 16),
    (-20, -6), (-20, 6), (-18, -20), (-18, 0), (-18, 20), (-17, -14), (-17, 0),
    (-17, 14), (-16, 0), (-15, -22), (-15, -4), (-15, 4), (-15, 22), (-13, -20),
    (-13, -6), (-13, 6), (-13, 20), (-12, -16), (-12, -14), (-12, -10), (-12, 10),
    (-12, 14), (-12, 16), (-11, -18), (-11, -8), (-11, 0), (-11, 8), (-11, 18),
    (-9, -22), (-9, -10), (-9, 0), (-9, 10), (-9, 22), (-8, 0), (-6, -8), (-6, 8),
    (-5, -24), (-5, -18), (-5, -16), (-5, 16), (-5, 18), (-5, 24), (-4, -18),
    (-4, 0), (-4, 18), (-3, -4), (-3, 4), (-2, 0), (-1, 0), (1, -12), (1, 12),
    (2, -24), (2, 24), (3, -16), (3, -14), (3, -10), (3, 10), (3, 14), (3, 16),
    (4, -2), (4, 2), (5, -6), (5, -2), (5, 2), (5, 6), (6, -20), (6, 20), (7, 0),
    (8, -4), (8, 4), (9, -8), (9, -2), (9, 2), (9, 8), (10, -12), (10, -4),
    (10, 4), (10, 12), (11, -12), (11, 12), (13, -24), (13, 24), (14, 0),
    (15, -14), (15, -2), (15, 2), (15, 14), (16, -8), (16, 8), (17, -24),
    (17, 24), (18, -16), (18, -4), (18, 4), (18, 16), (19, -12), (19, 12),
    (20, -24), (20, -18), (20, -8), (20, 8), (20, 18), (20, 24), (22, -24),
    (22, 24), (23, -6), (23, 6), (25, -24), (25, -6), (25, 6), (25, 24),
]

# SHA-256 of the JSON lines of hunt_counterexamples(25, 100), as `hunt`
# writes them: 2600 records, 118 hits, then the summary
BOX25_DIGEST = "83615041c3e7a86ab038a911b65d2413309fa7bf102e314ca5c48375e9b638a8"


def _report(n: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"criterion {n}: PASS - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_1_classical_baseline():
    t0 = time.perf_counter()
    ok = verify_classical(10**4)
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < 5.0
    _report(1, "verify_classical(10^4) agrees with exhaustive search", elapsed, 5)


def test_criterion_2_symbol_laws():
    t0 = time.perf_counter()
    primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
    for p in primes:
        for a in range(p):
            assert numth.legendre(a, p) == brute_legendre(a, p)
    rng = random.Random(2)
    for _ in range(10**3):
        n = rng.randrange(1, 10**6) * 2 + 1
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        assert numth.jacobi(a * b, n) == numth.jacobi(a, n) * numth.jacobi(b, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report(2, "Euler agreement p < 200 and 10^3 Jacobi triples", elapsed, 2)


def test_criterion_3_hilbert_product_and_conic_oracle():
    t0 = time.perf_counter()
    rng = random.Random(3)
    pool = [n for n in range(-500, 501) if n]
    for _ in range(500):
        a, b = rng.choice(pool), rng.choice(pool)
        prod = numth.hilbert_symbol(a, b, None)
        for p, _ in numth.factorize(abs(2 * a * b)):
            prod *= numth.hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
    primes50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    max_tv = {2: 3, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1}
    negatives = 0
    for _ in range(100):
        p = rng.choice(primes50)
        tv = max_tv.get(p, 0)
        va = rng.randrange(tv + 1)
        vb = rng.randrange(tv - va + 1)
        ua = rng.choice([u for u in range(1, 500 // p**va + 1) if u % p])
        ub = rng.choice([u for u in range(1, 500 // p**vb + 1) if u % p])
        a = rng.choice((1, -1)) * ua * p**va
        b = rng.choice((1, -1)) * ub * p**vb
        sym = numth.hilbert_symbol(a, b, p)
        negatives += sym == -1
        assert (sym == 1) == conic_solvable_qp(a, b, p), (a, b, p)
    assert negatives > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"500-pair product formula and 100-pair conic oracle ({negatives} obstructed)", elapsed, 30)


def _exists_mod(delta: QuadInt, p: int, k: int) -> bool:
    # Solutions exist mod p^k iff the depth-k walk never empties: open
    # classes live at level k itself, and a smooth class lifts to every level.
    smooth, open_, empty_level = _descend(delta, p, k, stop_on_smooth=True)
    assert smooth or open_ or empty_level is not None
    return empty_level is None


def test_criterion_4_local_solver_exactness():
    t0 = time.perf_counter()
    checked = 0
    for a in range(-9, 11):
        for b in range(-9, 11):
            delta = QuadInt(a, b)
            if delta.is_zero():
                continue
            for p in (2, 3, 5, 7, 13):
                k_star = cutoff_depth(delta, p)
                flags = [_exists_mod(delta, p, k) for k in range(1, k_star + 5)]
                for earlier, later in zip(flags, flags[1:]):
                    assert earlier or not later, (a, b, p)
                assert len(set(flags[k_star - 1 :])) == 1, (a, b, p)
                assert flags[k_star - 1] == locally_solvable(delta, p).solvable
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, f"{checked} verdicts stable over K..K+4 and monotonic", elapsed, 120)


def test_criterion_5_sweep_agreement(acceptance_sweep):
    result, elapsed = acceptance_sweep
    records = [r for r in result.records if r["kind"] == "criterion"]
    assert len(records) == 2550
    for r in records:
        if r["witness"] is not None:
            assert r["status"] == "representable", r
            assert r["witness_verified"], r
        if r["status"] in ("local_obstruction", "global_obstruction"):
            assert r["witness"] is None, r
    assert result.discrepancies == ()
    # the residue sieve refutes these deltas before the search scans them
    sieved = [r for r in result.records if r["sieved_mod"] is not None]
    assert Counter(r["sieved_mod"] for r in sieved) == {32: 1632, 9: 376, 7: 70}
    for r in sieved:
        assert r["search_states"] == 0 and r["local_ok"] is False, r
        assert r["witness"] is None, r
    assert elapsed < 600.0
    _report(5, f"2550-point sweep, zero discrepancies, {len(sieved)} deltas sieved", elapsed, 600)


def test_criterion_6_obstruction_exhibit(acceptance_sweep):
    result, _ = acceptance_sweep
    hits = sorted((h.delta.a, h.delta.b) for h in result.hits)
    assert len(hits) >= 1
    assert hits == FROZEN_HITS
    for hit in result.hits:
        assert hit.status is DecisionStatus.GLOBAL_OBSTRUCTION
        assert all(v.solvable for v in hit.local_report)
        assert hit.witness is None
    _report(6, f"{len(hits)} local-global failures match the frozen list", 0.0, 600)


def test_criterion_7_structural_invariants(acceptance_sweep):
    result, _ = acceptance_sweep
    t0 = time.perf_counter()
    # the hunt shares one verdict between conjugates, so invariance is read
    # off the criterion's own Decisions, one per delta
    decisions = {
        (r["a"], r["b"]): decide_qsqrt_m14(QuadInt(r["a"], r["b"]), None)
        for r in result.records
        if r["kind"] == "criterion"
    }
    d2_seen = 0
    for (a, b), decision in decisions.items():
        conjugate = decisions[(a, -b)]
        assert conjugate.status is decision.status, (a, b)
        assert conjugate.branch == decision.branch, (a, b)
        assert conjugate.failing_places == decision.failing_places, (a, b)
        nf = decision.factorization
        exps = dict(nf.factors)
        for p in nf.d2:
            d2_seen += 1
            assert exps[p] % 2 == 0, (a, b, p)
    elapsed = time.perf_counter() - t0
    _report(7, f"conjugation invariance and {d2_seen} even D2 exponents", elapsed, 600)


def test_criterion_8_determinism(acceptance_sweep):
    serial, _ = acceptance_sweep
    t0 = time.perf_counter()
    parallel = hunt_counterexamples(25, 100, workers=2)
    blob_serial = "\n".join(canonical_json(r) for r in result_lines(serial))
    blob_parallel = "\n".join(canonical_json(r) for r in result_lines(parallel))
    assert blob_serial.encode() == blob_parallel.encode()
    elapsed = time.perf_counter() - t0
    _report(8, "worker counts 1 and 2 give byte-identical JSON", elapsed, 600)


def test_box25_output_is_frozen(acceptance_sweep):
    result, _ = acceptance_sweep
    text = "".join(canonical_json(line) + "\n" for line in result_lines(result))
    assert hashlib.sha256(text.encode()).hexdigest() == BOX25_DIGEST
