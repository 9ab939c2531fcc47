"""Property tests: `twosquares symbols` prints what the numth kernels return."""

import contextlib
import io

import pytest

from twosquares import numth
from twosquares.cli import run
from twosquares.errors import ParameterError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KERNELS = {"legendre": numth.legendre, "jacobi": numth.jacobi, "quartic": numth.is_quartic_residue}
INTEGERS = st.integers(-(10**12), 10**12)
# mostly odd primes, so that most draws reach the symbol rather than the modulus check
MODULI = st.one_of(st.sampled_from([3, 5, 7, 13, 9907, 1000003]), st.integers(-50, 10**4))
FRACTIONS = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6)
PLACES = st.one_of(
    st.sampled_from(["oo", "inf", "real", "2", "3", "5", "7", "9907"]), st.integers(-10, 100).map(str)
)
SETTINGS = hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["symbols", *argv])
    return code, out.getvalue(), err.getvalue()


def _check(argv, kernel, values):
    try:
        expected = kernel(*values)
    except ParameterError:
        code, out, err = _cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    else:
        assert _cli(argv) == (0, f"{str(expected).lower()}\n", ""), argv


@SETTINGS
@hypothesis.given(st.sampled_from(sorted(KERNELS)), INTEGERS, MODULI)
def test_residue_symbols_match_numth(kind, a, m):
    _check([kind, str(a), str(m)], KERNELS[kind], [a, m])


@SETTINGS
@hypothesis.given(FRACTIONS, FRACTIONS, PLACES)
def test_hilbert_symbol_matches_numth(a, b, place):
    value = None if place in ("oo", "inf", "real") else int(place)
    _check(["hilbert", str(a), str(b), place], numth.hilbert_symbol, [a, b, value])
