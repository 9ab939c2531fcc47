"""Command-line interface: exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from twosquares import criterion, hunt, numth, search
from twosquares.cli import _build_parser, canonical_json, decision_jsonable, run
from twosquares.criterion import decide_qsqrt_m14
from twosquares.ring import QuadInt

DECISION_KEYS = {
    "delta",
    "status",
    "branch",
    "parity_exponent",
    "a1_symbol",
    "d_sets",
    "local_report",
    "witness",
    "witness_verified",
}


def test_decide_exit_codes(capsys):
    assert run(["decide", "--delta=2,0"]) == 0
    assert run(["decide", "--delta=-1,0"]) == 1
    assert run(["decide", "--delta=1,1"]) == 1
    assert run(["decide", "--delta=-13,2"]) == 0
    assert run(["decide", "--d", "-2", "--delta", "3,0"]) == 1
    # the bound-50 search took the orbit route, so its miss is a proof
    assert run(["decide", "--d", "-6", "--delta=-1,0"]) == 1
    # odd places past the descent's enumeration cap still get verdicts
    assert run(["decide", "--delta=1511,0"]) == 1
    assert run(["decide", "--d=-3022", "--delta=1511,1"]) == 1
    capsys.readouterr()
    # a miss that proves nothing is unknown, and exits 0: d = -13's route
    # needs lim = isqrt(649^2 * 100) + 1 <= bound^2, and d = -1 has no unit
    assert run(["decide", "--d", "-13", "--delta=-10,0", "--json"]) == 0
    out = capsys.readouterr().out
    assert '"status":"unknown"' in out and '"witness":null' in out
    assert run(["decide", "--d", "-1", "--delta=3,0", "--bound", "1"]) == 0
    capsys.readouterr()


def test_decide_a_zero_is_a_local_obstruction(capsys):
    # the place over 7 refutes every a = 0 delta; the criterion's data are null
    assert run(["decide", "--delta=0,3", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "local_obstruction"
    assert {k for k in DECISION_KEYS if doc[k] is None} == {"branch", "parity_exponent", "a1_symbol", "d_sets", "witness"}
    assert "7" in [v["place"] for v in doc["local_report"] if not v["solvable"]]
    assert run(["decide", "--delta=0,0"]) == 2
    capsys.readouterr()


def test_decide_pseudoprime_norm_exits_cleanly(capsys):
    # N(delta) = 3 * 318665857834031151167461, a strong pseudoprime to the
    # prime bases 2..37 and the product of two primes that both split
    assert run(["decide", "--delta=-273946145183,-250848714089", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "local_obstruction"
    assert doc["d_sets"]["d3"] == [399165290221, 798330580441]


def test_usage_errors_exit_2(capsys):
    assert run(["decide", "--delta=0,0"]) == 2
    assert run(["decide", "--delta=nonsense"]) == 2
    assert run(["local", "--delta=1,1", "--prime", "9"]) == 2
    assert run(["decide", "--d", "12", "--delta=1,0"]) == 2
    # leading-dash values need the --delta=a,b form
    assert run(["decide", "--delta", "-13,2"]) == 2
    assert run(["hunt", "--box", "-1", "--bound", "5"]) == 2
    assert run(["hunt", "--box", "1", "--bound", "5", "--workers", "0"]) == 2
    capsys.readouterr()


def test_unfactored_norm_exits_3(monkeypatch, capsys):
    # N = 965113 * 1036631: both primes are past the trial bound, so only
    # rho splits the norm
    argv = ["decide", "--delta=1000233,1", "--json"]
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "local_obstruction"
    monkeypatch.setattr(numth, "_RHO_BUDGET", 1 << 6)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: could not factor 1000466054303 within effort budget\n"


def test_decide_json_schema(capsys):
    assert run(["decide", "--delta=-13,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == DECISION_KEYS
    assert doc["status"] == "representable"
    assert doc["branch"] == "d1_nonempty"
    assert doc["d_sets"] == {"d1": [5], "d2": [], "d3": [5]}
    assert doc["witness"] == {"x": {"a": -1, "b": -1}, "y": {"a": 0, "b": 0}}
    assert doc["witness_verified"] is True
    assert [v["place"] for v in doc["local_report"]] == ["oo", "2", "3", "5"]


def test_decide_json_negative(capsys):
    assert run(["decide", "--delta=-1,0", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "global_obstruction"
    assert doc["parity_exponent"] == 0
    assert doc["a1_symbol"] == -1
    assert doc["witness"] is None


def test_decide_bound_defaults_to_the_criterion_default(capsys):
    # 1764 = 42^2 has no witness with every coordinate <= 40
    delta = QuadInt(1764, 0)
    assert run(["decide", "--delta=1764,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == decision_jsonable(decide_qsqrt_m14(delta))
    assert doc["witness_verified"] is True


def test_decide_text_output(capsys):
    run(["decide", "--delta=2,0"])
    out = capsys.readouterr().out
    assert "status: representable" in out
    assert "witness:" in out and "(verified)" in out


def test_local_json(capsys):
    assert run(["local", "--delta=1,1", "--prime", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    verdict = doc["verdicts"][0]
    assert verdict["place"] == "2"
    assert verdict["solvable"] is False
    assert verdict["exhausted_at"] == 1
    assert run(["local", "--delta=1,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [v["place"] for v in doc["verdicts"]] == ["oo", "2", "3", "5"]
    assert run(["local", "--d=-3022", "--delta=1511,0", "--prime", "1511", "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
    assert verdict["solvable"] is True and verdict["certificate"]["level"] == 2
    assert run(["local", "--delta=1,1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "place oo: solvable",
        "place 2: unsolvable (depth 1)",
        "place 3: unsolvable (depth 2)",
        "place 5: solvable (depth 3)",
    ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decide", "--delta=-1,0", "--bound", "0"], 2),
        (["decide", "--delta=-13,2", "--bound", "0"], 2),
        (["decide", "--delta=-1,0", "--bound", "301"], 3),
        (["decide", "--delta=-13,2", "--bound", "301"], 3),
        (["decide", "--delta=1000000000,0", "--bound", "1000"], 3),
        (["decide", "--d=-6", "--delta=-1,0", "--bound", "0"], 2),
        (["decide", "--d=-6", "--delta=1,1", "--bound", "301"], 3),
        (["search", "--delta=1,1", "--bound", "5000"], 3),
        (["search", "--delta=2,0", "--bound", "5000"], 3),
        (["search", "--delta=0,0", "--bound", "0"], 2),
        (["hunt", "--box", "1", "--bound", "0"], 2),
    ],
)
def test_bad_bound_exit_code_does_not_depend_on_delta(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_search_json_and_text(capsys):
    assert run(["search", "--delta=2,0", "--bound", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == {"x": {"a": -1, "b": 0}, "y": {"a": -1, "b": 0}}
    assert doc["states_examined"] == 2
    assert doc["witness_verified"] is True
    assert run(["search", "--delta=2,0", "--bound", "1"]) == 0
    assert capsys.readouterr().out == "witness: x=-1+0*sqrt(-14) y=-1+0*sqrt(-14) (2 states)\n"
    assert run(["search", "--delta=3,1", "--bound", "5"]) == 0
    assert "no witness" in capsys.readouterr().out


def test_search_bound_over_the_cap_exits_3(monkeypatch, capsys):
    assert run(["search", "--delta=-1,0", "--bound", "100"]) == 0  # the hunt's bound
    capsys.readouterr()
    built = []
    monkeypatch.setattr(search, "_mask_rows", lambda *key: built.append(key))
    assert run(["search", "--delta=-1,0", "--bound", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == "" and built == []


def _outcome(capsys, parse, argv):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_high_powers_of_two(capsys):
    # squares with a high power of 2 in the norm; p = 2 is decided in closed form
    for a in (1024, 4096, 2147483648):
        t0 = time.perf_counter()
        assert run(["decide", f"--delta={a},0", "--json"]) == 0
        assert time.perf_counter() - t0 < 1.0, a
        assert json.loads(capsys.readouterr().out)["status"] == "representable"


def test_classical_exit_codes(monkeypatch, capsys):
    assert run(["classical", "--max", "100"]) == 0
    assert run(["classical", "--max", "0"]) == 2
    capsys.readouterr()
    assert run(["classical", "--max", "100", "--json"]) == 0
    assert capsys.readouterr().out == '{"max":100,"verified":true}\n'
    # a search that misses n = 5 disagrees with the classical decision
    search = criterion.two_square_search
    monkeypatch.setattr(criterion, "two_square_search", lambda n: None if n == 5 else search(n))
    assert criterion.verify_classical(4) and not criterion.verify_classical(10)
    assert run(["classical", "--max", "10"]) == 1
    capsys.readouterr()


def test_hunt_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    assert run(["hunt", "--box", "2", "--bound", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert len(docs) == 25
    assert docs[-1]["kind"] == "summary"
    assert docs[-1]["records"] == 24
    capsys.readouterr()


def test_hunt_stdout_jsonl(capsys):
    assert run(["hunt", "--box", "1", "--bound", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["kind"] == "summary"


def test_symbols(capsys):
    cases = [
        (["symbols", "legendre", "3", "7"], "-1"),
        (["symbols", "jacobi", "1001", "9907"], "-1"),
        (["symbols", "quartic", "3", "13"], "true"),
        (["symbols", "quartic", "7", "13"], "false"),
        (["symbols", "hilbert", "-1", "-1", "2"], "-1"),
        (["symbols", "hilbert", "-1", "-1", "oo"], "-1"),
        (["symbols", "hilbert", "-1", "-1", "7"], "1"),
        (["symbols", "hilbert", "1/2", "7", "2"], "1"),
        # leading-dash values need no "=": they are values, not options
        (["symbols", "hilbert", "-1/2", "-3", "oo"], "-1"),
        (["symbols", "hilbert", "-1/2", "3", "2"], "1"),
        (["symbols", "legendre", "-3", "7"], "1"),
        (["symbols", "jacobi", "-1", "9907"], "-1"),
        (["symbols", "hilbert", "-1", "-1", "inf"], "-1"),
        (["symbols", "hilbert", "-1", "-1", "real"], "-1"),
    ]
    for argv, expected in cases:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out.strip() == expected, argv
    assert run(["--help"]) == 0
    assert "symbols" in capsys.readouterr().out


def test_symbols_errors(capsys):
    assert run(["symbols", "legendre", "3", "8"]) == 2
    assert run(["symbols", "nope", "1", "2"]) == 2
    assert run(["symbols", "legendre", "3"]) == 2
    assert run(["symbols", "hilbert", "0", "1", "2"]) == 2
    capsys.readouterr()


def test_cached_parsers_keep_no_state(capsys):
    # run keeps its parser for the life of the process: a sequence of calls
    # in one process must read as each call does in a fresh one
    commands = ("decide", "local", "search", "hunt", "classical", "symbols")
    sequence = [
        ["decide", "--delta=1,0", "--bogus"],
        ["decide", "--delta=-13,2", "--json"],
        ["decide", "--d=-5", "--delta=3,1", "--json"],
        ["decide", "--delta=89,0", "--bound=7", "--json"],
        ["decide", "--delta=89,0", "--json"],  # the witness of bound 50 is larger
        *([cmd] for cmd in commands),  # each one's missing-argument usage error
    ]
    in_process = [_outcome(capsys, run, argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [2, 0, 1, 0, 0, 2, 2, 2, 2, 2, 2]
    assert in_process[3] != in_process[4]
    for argv, outcome in zip(sequence, in_process):
        proc = _fresh_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == outcome, argv

    def fresh(argv):
        _build_parser.__wrapped__().parse_args(argv)
        return 0

    # and every help text is what a parser built afresh prints
    for argv in [["--help"]] + [[cmd, "--help"] for cmd in commands]:
        expected = _outcome(capsys, fresh, argv)
        assert _outcome(capsys, run, argv) == expected, argv
        assert _outcome(capsys, run, argv) == expected, argv


def _assert_clean_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


def test_hunt_unwritable_out_exits_2_before_the_sweep(tmp_path, monkeypatch, capsys):
    swept = []
    monkeypatch.setattr(hunt, "hunt_counterexamples", lambda *args, **kw: swept.append(args))
    _assert_clean_error(capsys, ["hunt", "--box", "1", "--bound", "5", "--out", str(tmp_path / "no" / "x.jsonl")])
    assert swept == []


def test_hunt_out_is_replaced_only_after_the_sweep(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    out.write_text("old\n" * 1000)
    assert run(["hunt", "--box", "1", "--bound", "1000", "--out", str(out)]) == 3  # over the cap
    assert out.read_text() == "old\n" * 1000
    capsys.readouterr()
    assert run(["hunt", "--box", "1", "--bound", "10"]) == 0
    expected = capsys.readouterr().out
    assert run(["hunt", "--box", "1", "--bound", "10", "--out", str(out)]) == 0
    assert out.read_text() == expected
    capsys.readouterr()


def test_hunt_failed_sweep_leaves_no_new_out_file(tmp_path, capsys):
    out = tmp_path / "new.jsonl"
    assert run(["hunt", "--box", "1", "--bound", "1000", "--out", str(out)]) == 3  # over the cap
    assert not out.exists()
    capsys.readouterr()


def test_symbols_zero_denominator_exits_2(capsys):
    # each error names the argument it could not read
    cases = [
        (["hilbert", "1/0", "1", "2"], ["argument a", "zero denominator"]),
        (["hilbert", "1", "1", "x"], ["argument place"]),
        (["legendre", "x", "7"], ["argument a"]),
        (["legendre", "3", "9" * 5000], ["argument p"]),  # past the int-string digit limit
    ]
    for argv, words in cases:
        err = _assert_clean_error(capsys, ["symbols", *argv])
        assert all(word in err for word in words), (argv, err)


def test_decide_coordinate_past_the_digit_limit_exits_2(capsys):
    _assert_clean_error(capsys, ["decide", f"--delta={'9' * 5000},1"])


def test_bad_subcommand_exits_2(capsys):
    assert run(["nope"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_json_output_is_deterministic(capsys):
    assert run(["decide", "--delta=5,0", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["decide", "--delta=5,0", "--json"]) == 0
    assert capsys.readouterr().out == first


def _fresh_process(argv: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    # `python -m twosquares argv` in a new interpreter, on this checkout's src
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "twosquares", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
    )


def test_closed_stdout_exits_141_without_a_traceback():
    # as in `twosquares hunt | head`: the reader is gone before the first write
    for argv in (["decide", "--delta=-13,2", "--json"], ["hunt", "--box", "3", "--bound", "20"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _fresh_process(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, ""), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_exits_2_without_a_traceback(capsys):
    # every write to /dev/full fails with ENOSPC, on stdout as with --out
    for argv in (["decide", "--delta=-13,2", "--json"], ["hunt", "--box", "1", "--bound", "5", "--out", "/dev/full"]):
        with open("/dev/full", "w") as full:
            proc = _fresh_process(argv, stdout=full)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, argv
    # run maps the failure itself, so a caller in-process gets 2, not OSError
    assert run(["hunt", "--box", "1", "--bound", "5", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_python_dash_m_entry_point():
    proc = _fresh_process(["decide", "--delta=-13,2", "--json"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == decision_jsonable(decide_qsqrt_m14(QuadInt(-13, 2)))


def test_cold_decide_imports_neither_dataclasses_nor_fractions():
    # -S keeps a site .pth file from importing these modules first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from twosquares.cli import run\n"
        "run(['decide', '--delta=-13,2', '--json'])\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))\n"
        "run(['symbols', 'hilbert', '-1/2', '-3', 'oo'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    decide, loaded, symbol = proc.stdout.splitlines()
    assert json.loads(decide)["status"] == "representable"
    assert loaded == "[]"
    assert symbol == "-1"


def test_decision_jsonable_round_trip():
    delta = QuadInt(-13, 2)
    doc = decision_jsonable(decide_qsqrt_m14(delta))
    text = canonical_json(doc)
    assert json.loads(text) == doc
    assert text.count(" ") == 0  # compact separators
