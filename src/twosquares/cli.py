"""Command-line interface.

Exit codes: 0 success, 1 negative decision (decide; failed verification for
classical), 2 usage or parameter error, or output that cannot be written,
3 factorization or resource limit, 141 stdout closed by its reader.
Negative coordinates need the = form, e.g. --delta=-1,0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from . import hunt as hunt_mod
from . import numth
from .criterion import (
    DEFAULT_WITNESS_BOUND,
    Decision,
    DecisionStatus,
    decide_generic,
    verify_classical,
)
from .errors import ParameterError, ResourceLimitError
from .localsolve import LocalVerdict, locally_solvable, locally_solvable_everywhere
from .ring import DEFAULT_D, parse_quadint
from .search import find_representation, verify_witness, witness_jsonable

if TYPE_CHECKING:
    from fractions import Fraction

def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _certificate_jsonable(cert) -> dict | None:
    if cert is None:
        return None
    return {"x": list(cert.x), "y": list(cert.y), "level": cert.level, "smooth": cert.smooth}


def _verdict_jsonable(verdict: LocalVerdict) -> dict:
    return {
        "place": verdict.place.label(),
        "splitting": verdict.place.splitting.value if verdict.place.splitting else None,
        "solvable": verdict.solvable,
        "certificate": _certificate_jsonable(verdict.certificate),
        "exhausted_at": verdict.exhausted_at,
    }


def decision_jsonable(decision: Decision) -> dict:
    nf = decision.factorization
    return {
        "delta": decision.delta._asdict(),
        "status": decision.status.value,
        "branch": decision.branch,
        "parity_exponent": None if nf is None else nf.parity_exponent,
        "a1_symbol": None if nf is None else nf.a1_symbol,
        "d_sets": None if nf is None else {"d1": list(nf.d1), "d2": list(nf.d2), "d3": list(nf.d3)},
        "local_report": [_verdict_jsonable(v) for v in decision.local_report],
        "witness": witness_jsonable(decision.witness),
        "witness_verified": decision.witness_verified,
    }


def _print_verdict_text(v: LocalVerdict) -> None:
    state = "solvable" if v.solvable else "unsolvable"
    depth = "" if v.exhausted_at is None else f" (depth {v.exhausted_at})"
    print(f"place {v.place.label()}: {state}{depth}")


def _print_decision_text(decision: Decision) -> None:
    print(f"delta: {decision.delta}")
    print(f"status: {decision.status.value}")
    nf = decision.factorization
    if nf is not None:
        print(f"branch: {decision.branch}")
        print(f"parity_exponent: {nf.parity_exponent}")
        print(f"a1_symbol: {nf.a1_symbol}")
        print(f"d_sets: D1={list(nf.d1)} D2={list(nf.d2)} D3={list(nf.d3)}")
    for v in decision.local_report:
        _print_verdict_text(v)
    if decision.failing_places:
        print("failing_places: " + " ".join(p.label() for p in decision.failing_places))
    if decision.witness is not None:
        x, y = decision.witness
        flag = "verified" if decision.witness_verified else "unverified"
        print(f"witness: x={x} y={y} ({flag})")


def _cmd_decide(args) -> int:
    delta = parse_quadint(args.delta, d=args.d)
    decision = decide_generic(delta, args.bound)
    if args.json:
        print(canonical_json(decision_jsonable(decision)))
    else:
        _print_decision_text(decision)
    negative = decision.status in (DecisionStatus.LOCAL_OBSTRUCTION, DecisionStatus.GLOBAL_OBSTRUCTION)
    return 1 if negative else 0


def _cmd_local(args) -> int:
    delta = parse_quadint(args.delta, d=args.d)
    if args.prime is not None:
        verdicts = [locally_solvable(delta, args.prime)]
    else:
        _, verdicts = locally_solvable_everywhere(delta)
    if args.json:
        payload = {
            "delta": delta._asdict(),
            "verdicts": [_verdict_jsonable(v) for v in verdicts],
        }
        print(canonical_json(payload))
    else:
        for v in verdicts:
            _print_verdict_text(v)
    return 0


def _cmd_search(args) -> int:
    delta = parse_quadint(args.delta, d=args.d)
    report = find_representation(delta, args.bound)
    if args.json:
        payload = {
            "delta": delta._asdict(),
            "bound": args.bound,
            "witness": witness_jsonable(report.witness),
            "witness_verified": verify_witness(delta, report.witness),
            "states_examined": report.states_examined,
        }
        print(canonical_json(payload))
    elif report.witness is None:
        print(f"no witness within bound {args.bound} ({report.states_examined} states)")
    else:
        x, y = report.witness
        print(f"witness: x={x} y={y} ({report.states_examined} states)")
    return 0


def _cmd_hunt(args) -> int:
    made = False
    if args.out is not None:
        # a bad path fails before the sweep; "a" leaves a file that is there
        # as it was until the sweep has succeeded
        made = not os.path.exists(args.out)
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ParameterError(f"cannot write --out {args.out}: {exc.strerror}") from None
    try:
        result = hunt_mod.hunt_counterexamples(args.box, args.bound, workers=args.workers)
    except BaseException:
        if made:  # a failed or interrupted sweep leaves no file behind
            os.remove(args.out)
        raise
    lines = (canonical_json(line) + "\n" for line in hunt_mod.result_lines(result))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        print(
            f"hunt: {result.summary['records']} records, {result.summary['hits']} hits, "
            f"{result.summary['discrepancies']} discrepancies -> {args.out}"
        )
    else:
        sys.stdout.writelines(lines)
    return 0


def _cmd_classical(args) -> int:
    ok = verify_classical(args.max)
    if args.json:
        print(canonical_json({"max": args.max, "verified": ok}))
    else:
        print(f"classical decision agrees with exhaustive search up to {args.max}: {ok}")
    return 0 if ok else 1


# each kind's numth function and the names of its arguments
_SYMBOLS = {
    "legendre": (numth.legendre, ("a", "p")),
    "jacobi": (numth.jacobi, ("a", "n")),
    "quartic": (numth.is_quartic_residue, ("a", "p")),
    "hilbert": (numth.hilbert_symbol, ("a", "b", "place")),
}


def _symbol_argument(kind: str, name: str, text: str) -> int | Fraction | None:
    from fractions import Fraction  # only the Hilbert symbol needs it

    if name == "place" and text in ("inf", "oo", "real"):
        return None
    try:
        return Fraction(text) if kind == "hilbert" and name != "place" else int(text)
    except ZeroDivisionError:  # Fraction("1/0")
        raise ParameterError(f"argument {name}: zero denominator in {text!r}") from None
    except ValueError as exc:  # not a number, or past the int-string digit limit
        raise ParameterError(f"argument {name}: {exc}") from None


def _cmd_symbols(args) -> int:
    func, names = _SYMBOLS[args.kind]
    if len(args.values) != len(names):
        raise ParameterError(f"{args.kind} takes {len(names)} arguments: {' '.join(names)}")
    result = func(*(_symbol_argument(args.kind, n, t) for n, t in zip(names, args.values)))
    print(canonical_json(result))  # -1 or 1; true or false for quartic
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it found it."""
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="Decide sums of two squares over Z[sqrt(-14)] and related rings.",
        epilog='Write negative coordinates with "=", e.g. --delta=-13,2.',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--delta", required=True, help='coordinates "a,b" or "a+b*sqrt(d)"')
    shared.add_argument("--d", type=int, default=DEFAULT_D, help=f"ring parameter (default {DEFAULT_D})")
    shared.add_argument("--json", action="store_true")

    p = sub.add_parser("decide", parents=[shared], help="run the exact criterion (or the generic semi-decision)")
    p.add_argument("--bound", type=int, default=DEFAULT_WITNESS_BOUND, help="witness search bound")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("local", parents=[shared], help="local solvability verdicts")
    p.add_argument("--prime", type=int, default=None, help="single place (default: all relevant)")
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("search", parents=[shared], help="bounded exhaustive representation search")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("hunt", help="sweep a box for local-global counterexamples")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("classical", help="verify the rational baseline against search")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("symbols", help="Legendre, Jacobi, quartic residue and Hilbert symbols")
    p.add_argument("kind", choices=_SYMBOLS)
    # REMAINDER, not "+": a value such as -1/2 would otherwise read as an option
    p.add_argument(
        "values",
        nargs=argparse.REMAINDER,
        help="a p (legendre, quartic), a n (jacobi) or a b place (hilbert); "
        "hilbert takes fractions like -1/2 and a prime place or oo",
    )
    p.set_defaults(func=_cmd_symbols)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed a usage error or the help
        return int(exc.code or 0)
    except BrokenPipeError:  # main sets the exit code 141 and silences stdout
        raise
    except (ParameterError, OSError) as exc:  # OSError: a write that failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # devnull takes the rest, so the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader has gone, as in `twosquares hunt | head`
            code = 141  # 128 + SIGPIPE, as a shell reports for cat
        else:  # a write that failed, e.g. to a full device
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.exit(code)
