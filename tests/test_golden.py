"""Golden output: one digest over the CLI's answers on a fixed grid.

A refactor that keeps decide, local and search byte-identical keeps this
digest.  A change that means to alter an output must say so and re-pin it.
"""

import contextlib
import hashlib
import io

from twosquares.cli import run

# |a|, |b| <= 6 in four rings, and deltas with norms near 1e12, 1e18 and
# 1e26-1e30 (through factorize's trial blocks and its rho tail); the last
# four are x^2 + y^2, so representable
SMALL = [(a, b, d) for d in (-14, -5, 2, 3) for a in range(-6, 7) for b in range(-6, 7)]
LARGE = [
    (1000003, 17, -14),
    (-999983, 4242, -14),
    (1000000007, 123457, -14),
    (-987654321, 10007, -14),
    (1000000000000037, 99991, -14),
    (-777777777777777, 31415926, -14),
    (641841, -86618, -14),
    (19624122790, -3753079032, -14),
    (-13000034538348, -57396057082, -14),
    (-7469247975093, 26666576, -14),
]
GOLDEN_SHA256 = "eb5d0f95f33b244ca68868854c11a3f4fdabfe8646530e87f421d91dc1b75946"


def _argvs():
    for a, b, d in SMALL:
        delta = [f"--delta={a},{b}", f"--d={d}"]
        for argv in (["decide", "--bound", "6"], ["local"], ["search", "--bound", "6"]):
            yield argv + delta
            yield argv + delta + ["--json"]
    for a, b, d in LARGE:
        delta = [f"--delta={a},{b}", f"--d={d}"]
        for argv in (["decide"], ["local"]):
            yield argv + delta
            yield argv + delta + ["--json"]


def test_cli_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for argv in _argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
    assert count == 4096
    assert digest.hexdigest() == GOLDEN_SHA256
