"""Property tests of the modular square-root kernel and of `factorize`,
checked with plain integer arithmetic and primes found by trial division."""

from collections import Counter
from math import isqrt, prod

import pytest

from twosquares import numth

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)


def next_prime(n):
    # trial division; 999,999,937 is the largest prime below 10^9
    while n < 2 or any(n % q == 0 for q in range(2, isqrt(n) + 1)):
        n += 1
    return n


@SETTINGS
@hypothesis.given(st.integers(3, 999_999_937), st.integers(1, 4), st.integers(1, 10**40))
def test_sqrt_kernel_lifts_the_smaller_root(n, k, x):
    # a random unit square mod p = 3 (mod 4), or -1 mod p = 1 (mod 4)
    p = next_prime(n)
    m = p**k
    if p % 4 == 3:
        hypothesis.assume(x % p)
        a = x * x % m
    else:
        a = -1
    r = numth._sqrt_mod_prime_power(a, p, k)
    assert 0 <= r < m
    assert (r * r - a) % m == 0
    assert r % p <= (p - 1) // 2


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(
    st.lists(
        st.tuples(st.one_of(st.integers(3, 1 << 16), st.integers(1 << 16, 999_999_937)), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 8),
)
def test_factorize_returns_the_primes_a_product_was_built_from(picks, twos):
    # primes on both sides of the trial bound 2^16, so that both the trial
    # blocks and rho take primes out of the product
    exps = Counter({2: twos})
    for n, e in picks:
        exps[next_prime(n)] += e
    assert numth.factorize(prod(p**e for p, e in exps.items())) == sorted((+exps).items())
