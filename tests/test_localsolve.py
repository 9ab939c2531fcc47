"""Local solvability: closed forms, Hensel certificates, and agreement with
the descent oracle."""

import random
from math import gcd

import pytest

import oracles
from oracles import (
    _descend,
    _is_smooth,
    brute_ring_classes,
    cutoff_depth,
    primitive_sums_mod,
    real_place_solvable,
    solvable_mod,
)
from twosquares import criterion, localsolve, numth
from twosquares.errors import ParameterError, ResourceLimitError
from twosquares.localsolve import (
    ModularSolution,
    _archimedean_verdict,
    _local_failures,
    _local_report,
    _primitive_sums_mod,
    locally_solvable,
    locally_solvable_everywhere,
)
from twosquares.ring import Place, QuadInt, Splitting, _place

TEST_PRIMES = (2, 3, 5, 7, 13)


def _check_congruences(delta: QuadInt, sol: ModularSolution, p: int) -> None:
    m = p**sol.level
    u, v = sol.x
    s, t = sol.y
    d = delta.d
    assert (u * u + d * v * v + s * s + d * t * t - delta.a) % m == 0
    assert (2 * (u * v + s * t) - delta.b) % m == 0


def _labels(delta: QuadInt) -> list[str]:
    return [v.place.label() for v in locally_solvable_everywhere(delta)[1]]


def test_relevant_primes():
    # oo, 2 and the primes dividing the norm, in ascending order
    assert _labels(QuadInt(1, 1)) == ["oo", "2", "3", "5"]
    assert _labels(QuadInt(-14, 0)) == ["oo", "2", "7"]
    assert _labels(QuadInt(1, 0)) == ["oo", "2"]
    with pytest.raises(ParameterError):
        locally_solvable_everywhere(QuadInt(0, 0))


def test_walk_adds_2_to_an_odd_norm():
    # 2 can obstruct whether or not it divides the norm, so the walk visits
    # it also when factorize's pairs leave it out
    delta = QuadInt(1, 1)  # N = 15
    verdicts = _local_report(delta, [(3, 1), (5, 1)])
    assert [v.place.label() for v in verdicts] == ["oo", "2", "3", "5"]
    assert verdicts[1] == locally_solvable(delta, 2)
    assert (all(v.solvable for v in verdicts), list(verdicts)) == locally_solvable_everywhere(delta)
    one = QuadInt(1, 0)  # N = 1, no pairs at all
    assert _local_report(one, []) == (_archimedean_verdict(one), locally_solvable(one, 2))


def test_failing_walk_is_the_failing_part_of_the_report():
    # the hunt's walk builds no certificate, yet returns exactly the failing
    # verdicts of the full report, in its order, in rings with both signs
    # of d and every residue of d mod 4 and mod 8
    checked = 0
    for d in (-14, -13, -6, -5, -1, 2, 3, 6, 7):
        for a in range(-25, 26):
            for b in range(-25, 26):
                if a or b:
                    delta = QuadInt(a, b, d)
                    factors = numth.factorize(abs(delta.norm()))
                    want = tuple(v for v in _local_report(delta, factors) if not v.solvable)
                    assert _local_failures(delta, factors) == want, delta
                    checked += 1
    assert checked == 23400


def test_conjugates_have_the_same_local_verdicts():
    # conjugation is a ring automorphism that keeps a and the norm, so delta
    # and its conjugate fail and hold at the same places, at the same
    # levels; the hunt shares one verdict between them on this theorem
    def key(verdicts):
        return [(v.place, v.solvable, v.exhausted_at) for v in verdicts]

    checked = 0
    for d in (-14, -13, -6, -5, -2, -1, 2, 3, 6, 7, 11):
        for a in range(-30, 31):
            for b in range(-30, 31):
                if a or b:
                    delta = QuadInt(a, b, d)
                    conj = delta.conj()
                    assert conj.norm() == delta.norm(), delta
                    factors = numth.factorize(abs(delta.norm()))
                    assert key(_local_report(conj, factors)) == key(_local_report(delta, factors)), delta
                    assert key(_local_failures(conj, factors)) == key(_local_failures(delta, factors)), delta
                    checked += 1
    assert checked == 40920


def test_locally_solvable_rejects_a_non_prime():
    for p in (0, 1, -3, 4, 6, 9, 15):
        with pytest.raises(ParameterError, match=f"got {p}$"):
            locally_solvable(QuadInt(1, 1), p)


def test_cutoff_depth_fixed():
    cases = {
        ((1, 1), 2): 3,
        ((1, 1), 3): 3,
        ((1, 1), 5): 3,
        ((2, 0), 2): 5,
        ((2, 0), 7): 1,
        ((-14, 0), 2): 5,
        ((-14, 0), 7): 3,
        ((25, 24), 8689): 3,
        ((8, 0), 2): 9,
    }
    for ((a, b), p), expected in cases.items():
        assert cutoff_depth(QuadInt(a, b), p) == expected


def test_verdict_fixed_values():
    cases = {
        ((1, 1), 2): (False, 1),
        ((1, 1), 3): (False, 2),
        ((1, 1), 5): (True, 3),
        ((2, 0), 2): (True, 3),
        ((2, 0), 7): (True, 1),
        ((-1, 0), 2): (True, 3),
        ((-1, 0), 7): (True, 1),
        ((1, 2), 3): (False, 2),
        ((1, 2), 19): (False, 2),
        ((-14, 0), 7): (True, 2),
        ((5, 0), 5): (True, 3),
        ((3, 1), 23): (False, 2),
        ((-195, -57), 3): (False, 2),
    }
    for ((a, b), p), (solvable, exhausted) in cases.items():
        v = locally_solvable(QuadInt(a, b), p)
        assert (v.solvable, v.exhausted_at) == (solvable, exhausted), (a, b, p)
        assert v.place.prime == p


def test_certificates_verify_and_are_smooth():
    rng = random.Random(301)
    for _ in range(120):
        delta = QuadInt(rng.randrange(-6, 7), rng.randrange(-6, 7))
        if delta.is_zero():
            continue
        for p in TEST_PRIMES:
            verdict = locally_solvable(delta, p)
            assert verdict.exhausted_at <= cutoff_depth(delta, p) + 1
            if verdict.solvable:
                cert = verdict.certificate
                assert cert is not None and cert.smooth
                _check_congruences(delta, cert, p)
            else:
                assert verdict.certificate is None


def test_solvable_mod_vs_brute():
    grid = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
    for a in range(-2, 3):
        for b in range(-2, 3):
            delta = QuadInt(a, b)
            if delta.is_zero():
                continue
            for p, k in grid:
                reported = solvable_mod(delta, p, k)
                brute = brute_ring_classes(delta, p, k)
                assert bool(reported) == bool(brute), (a, b, p, k)
                for sol in reported:
                    _check_congruences(delta, sol, p)
                    if not sol.smooth:
                        assert sol.level == k
                        assert (sol.x, sol.y) in brute


def test_odd_place_closed_form_agrees_with_descent():
    # odd-place verdicts come from a closed form; the uniform 4-coordinate
    # descent must reach the same verdict at the same first empty level, at
    # split, inert and ramified places alike
    for d in (-14, -5, -13, -21, 7):
        for a in range(-5, 6):
            for b in range(-5, 6):
                if a == 0 and b == 0:
                    continue
                delta = QuadInt(a, b, d)
                for p in (3, 5, 7, 11, 13):
                    verdict = locally_solvable(delta, p)
                    k = cutoff_depth(delta, p)
                    smooth, open_, empty_level = _descend(delta, p, k, stop_on_smooth=True)
                    descent_solvable = bool(smooth) or (empty_level is None and bool(open_))
                    assert verdict.solvable == descent_solvable, (a, b, d, p)
                    if not verdict.solvable:
                        assert verdict.exhausted_at == empty_level, (a, b, d, p)
                        assert not solvable_mod(delta, p, empty_level)
                        continue
                    cert = verdict.certificate
                    _check_congruences(delta, cert, p)
                    sol = (*cert.x, *cert.y)
                    assert _is_smooth(sol, cert.level, p, d, _place(p, d).splitting), (a, b, d, p)


def test_split_valuations_come_from_the_coordinate_gcd():
    # delta = p^g * (a + b*sqrt(d)) with a + b*r = 0 mod p^k, r^2 = d: one
    # place over p gets valuation at least g + k, the other exactly g.  Only
    # the oracles' brute-force lift reads the valuations.
    seen = set()
    for d in (-14, -5, 7, 2):
        for p in (3, 5, 7, 11, 13, 17):
            if oracles._splitting(p, d) is not Splitting.SPLIT:
                continue
            for g in range(4):
                for k in range(5):
                    r = oracles._lift_sqrt(d, p, k)
                    for b0, sign, t in ((1, 1, 0), (2, -1, 1), (p + 1, 1, 1)):
                        a0 = (-sign * b0 * r) % p**k + t * p**k
                        delta = QuadInt(p**g * a0, p**g * b0, d)
                        vals = oracles._place_valuations(delta, p)
                        assert min(vals) == oracles._valuation(gcd(delta.a, delta.b), p) == g, (delta, p)
                        assert max(vals) >= g + k, (delta, p)
                        verdict = locally_solvable(delta, p)
                        assert verdict.solvable == (p % 4 == 1 or all(v % 2 == 0 for v in vals)), (delta, p)
                        seen.add((p % 4, verdict.solvable))
                        if not verdict.solvable:
                            assert verdict.exhausted_at == min(v for v in vals if v % 2) + 1, (delta, p)
                            assert verdict.certificate is None
                            continue
                        cert = verdict.certificate
                        assert verdict.exhausted_at == cert.level == 2 * ((max(vals) + 1) // 2) + 1, (delta, p)
                        _check_congruences(delta, cert, p)
                        assert _is_smooth((*cert.x, *cert.y), cert.level, p, d, Splitting.SPLIT), (delta, p)
    # both closed forms (p = 1 mod 4, and CRT at p = 3 mod 4) and the failure
    assert seen == {(1, True), (3, True), (3, False)}


def test_two_adic_closed_form_agrees_with_descent():
    # the p = 2 verdict comes from a closed form; the descent must reach the
    # same verdict at the same level, and certify the same level on success
    certified = 0
    for d in (-14, -13, -10, -6, -5, -1, 2, 3, 6, 7, 14, 15):
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == 0 and b == 0:
                    continue
                delta = QuadInt(a, b, d)
                verdict = locally_solvable(delta, 2)
                smooth, _, empty_level = _descend(delta, 2, cutoff_depth(delta, 2), stop_on_smooth=True)
                assert verdict.solvable == bool(smooth), delta
                if not verdict.solvable:
                    assert verdict.exhausted_at == empty_level, delta
                    continue
                cert = verdict.certificate
                assert verdict.exhausted_at == cert.level == smooth[0].level, delta
                _check_congruences(delta, cert, 2)
                assert _is_smooth((*cert.x, *cert.y), cert.level, 2, d, Splitting.RAMIFIED), delta
                certified += 1
    assert certified == 3108


def test_high_powers_of_two():
    # squares whose cutoff depth the descent could not reach
    for e in (10, 12, 31, 200):
        delta = QuadInt(2**e, 0)
        verdict = locally_solvable(delta, 2)
        assert verdict.solvable, e
        cert = verdict.certificate
        _check_congruences(delta, cert, 2)
        assert _is_smooth((*cert.x, *cert.y), cert.level, 2, -14, Splitting.RAMIFIED), e


def test_large_odd_ramified_place():
    # 1511^2 is past the level-1 enumeration cap; the closed form needs none
    verdict = locally_solvable(QuadInt(1511, 1, -3022), 1511)
    assert (verdict.solvable, verdict.exhausted_at) == (False, 1)
    delta = QuadInt(1511, 0, -3022)
    verdict = locally_solvable(delta, 1511)
    assert verdict.solvable and verdict.exhausted_at == verdict.certificate.level == 2
    _check_congruences(delta, verdict.certificate, 1511)
    sol = (*verdict.certificate.x, *verdict.certificate.y)
    assert _is_smooth(sol, 2, 1511, -3022, Splitting.RAMIFIED)


def test_square_roots_do_not_reprove_primes(monkeypatch):
    # the primes come from factorize; their square roots test none again,
    # with the kernel's cache emptied so that every root is computed; delta
    # is made first, since a fresh QuadInt checks d = -14 by factoring it
    split, inert = 1000033, 1000003  # 1 and 3 mod 4; -14 is a nonsquare mod 1000003
    delta = QuadInt(inert, 0)
    calls = []
    is_prime = numth.is_prime
    monkeypatch.setattr(numth, "is_prime", lambda n: calls.append(n) or is_prime(n))
    numth._sqrt_mod_prime_power.cache_clear()
    r = numth._sqrt_mod_prime_power(-1, split, 3)
    assert (r * r + 1) % split**3 == 0
    verdict = localsolve._odd_verdict(delta, Place(inert, Splitting.INERT), 2)
    assert verdict.solvable
    _check_congruences(delta, verdict.certificate, inert)
    x, y = criterion._prime_two_squares(split)
    assert x * x + y * y == split
    assert calls == []


def test_everywhere_does_not_reprove_primes(monkeypatch):
    # the primes and their exponents come from a factorization: splittings
    # and valuations are read off without testing the primes again, and each
    # verdict is the public one's
    deltas = [QuadInt(a, b) for a in range(-12, 13) for b in range(-12, 13) if a or b]
    deltas += [
        QuadInt(10**12 + 39, 5),
        QuadInt(999983 * 1000003, 2),
        QuadInt(3**70, 0),
        QuadInt(5**9 * 11, 7**4),
        QuadInt(2**40 * 1000033, 0),
        QuadInt(1511, 1, -3022),
        QuadInt(-13, 2, -5),
        QuadInt(7, 3, 2),
    ]
    cases = [(delta, numth.factorize(abs(delta.norm()))) for delta in deltas]
    expected = [
        [locally_solvable(delta, p) for p in sorted({2} | {q for q, _ in factors})]
        for delta, factors in cases
    ]
    calls = []
    is_prime = numth.is_prime
    monkeypatch.setattr(numth, "is_prime", lambda n: calls.append(n) or is_prime(n))
    _place.cache_clear()  # so every place is classified again
    for (delta, factors), want in zip(cases, expected):
        verdicts = _local_report(delta, factors)
        assert list(verdicts[1:]) == want, delta
    assert calls == []


def test_verdict_stability_and_monotonicity_small_box():
    for a in range(-4, 5):
        for b in range(-4, 5):
            delta = QuadInt(a, b)
            if delta.is_zero():
                continue
            for p in TEST_PRIMES:
                k_star = cutoff_depth(delta, p)
                flags = [bool(solvable_mod(delta, p, k)) for k in range(1, k_star + 3)]
                for earlier, later in zip(flags, flags[1:]):
                    assert earlier or not later  # nonincreasing
                assert flags[k_star - 1] == flags[-1]  # stable past the cutoff
                assert flags[k_star - 1] == locally_solvable(delta, p).solvable


def test_archimedean_obstruction_real_ring():
    ok, verdicts = locally_solvable_everywhere(QuadInt(-1, 0, 2))
    assert not ok
    assert not verdicts[0].solvable and verdicts[0].place.prime is None
    ok, verdicts = locally_solvable_everywhere(QuadInt(3, 2, 2))
    assert verdicts[0].solvable
    ok, verdicts = locally_solvable_everywhere(QuadInt(1, -1, 2))
    assert not verdicts[0].solvable


def test_real_place_matches_sign_analysis():
    # both embeddings >= 0 iff their sum and product are
    for d in (2, 3, 6, 7, 10, 11, 14, 15):
        for a in range(-40, 41):
            for b in range(-40, 41):
                if a or b:
                    delta = QuadInt(a, b, d)
                    assert _archimedean_verdict(delta).solvable == real_place_solvable(delta), delta


def test_primitive_sums_match_plain_walk():
    # every class of d mod 8, and the roots mod 4 give the same keys and
    # the same first pairs as the walk over all of (Z/2^j)^4
    for d in (-14, -13, -10, -6, -5, -1, 2, 3, 6, 7, 14, 15):
        for j in (1, 2, 3):
            walk = primitive_sums_mod(d, j)
            assert list(_primitive_sums_mod(d, j).items()) == list(walk.items()), (d, j)
        # the empty 2-adic level rests on this: every unit mod 8 with an
        # even sqrt(d) coordinate is a primitive sum
        for u in range(1, 8, 2):
            for v in range(0, 8, 2):
                assert (u, v) in walk, (d, u, v)


def test_locally_solvable_everywhere_imaginary():
    ok, verdicts = locally_solvable_everywhere(QuadInt(2, 0))
    assert ok and verdicts[0].solvable
    assert [v.place.label() for v in verdicts] == ["oo", "2"]
    ok, verdicts = locally_solvable_everywhere(QuadInt(1, 1))
    assert not ok
    assert [v.place.label() for v in verdicts if not v.solvable] == ["2", "3"]


def test_parameter_errors():
    with pytest.raises(ParameterError):
        locally_solvable(QuadInt(0, 0), 2)
    with pytest.raises(ParameterError):
        solvable_mod(QuadInt(1, 1), 2, 0)
    with pytest.raises(ParameterError):
        locally_solvable(QuadInt(1, 1), 6)


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        solvable_mod(QuadInt(1, 1), 2, 100)
    # the closed form has no depth to limit
    assert locally_solvable(QuadInt(2**200, 0), 2).solvable
    with pytest.raises(ResourceLimitError):
        solvable_mod(QuadInt(1, 1), 1423, 1)
