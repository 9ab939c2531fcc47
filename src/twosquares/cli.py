"""Command-line interface.

Exit codes: 0 success, 1 negative decision (decide; failed verification for
classical), 2 usage or parameter error, 3 factorization or resource limit.
Negative coordinates need the = form, e.g. --delta=-1,0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import hunt as hunt_mod
from . import numth
from .criterion import (
    Decision,
    DecisionStatus,
    decide_generic,
    decide_qsqrt_m14,
    verify_classical,
)
from .errors import FactorizationError, ParameterError, ResourceLimitError, UnsupportedInputError
from .localsolve import LocalVerdict, locally_solvable, locally_solvable_everywhere
from .ring import DEFAULT_D, QuadInt, parse_quadint
from .search import find_representation, verify_witness, witness_jsonable

WORKERS_ENV = "TWOSQUARES_WORKERS"
# the argparse subcommands, in the order of the usage line
COMMANDS = ("decide", "local", "search", "hunt", "classical")


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _delta_jsonable(delta: QuadInt) -> dict:
    return {"a": delta.a, "b": delta.b, "d": delta.d}


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


def decision_jsonable(delta: QuadInt, decision: Decision) -> dict:
    nf = decision.evidence.factorization
    return {
        "delta": _delta_jsonable(delta),
        "status": decision.status.value,
        "branch": decision.evidence.branch,
        "parity_exponent": decision.evidence.parity_exponent,
        "a1_symbol": decision.evidence.a1_symbol,
        "d_sets": None
        if nf is None
        else {"d1": list(nf.d1), "d2": list(nf.d2), "d3": list(nf.d3)},
        "local_report": [_verdict_jsonable(v) for v in decision.evidence.local_report],
        "witness": witness_jsonable(decision.witness),
        "witness_verified": decision.witness_verified,
    }


def _print_verdict_text(v: LocalVerdict) -> None:
    state = "solvable" if v.solvable else "unsolvable"
    depth = "" if v.exhausted_at is None else f" (depth {v.exhausted_at})"
    print(f"place {v.place.label()}: {state}{depth}")


def _print_decision_text(delta: QuadInt, decision: Decision) -> None:
    print(f"delta: {delta}")
    print(f"status: {decision.status.value}")
    ev = decision.evidence
    if ev.branch is not None:
        print(f"branch: {ev.branch}")
        print(f"parity_exponent: {ev.parity_exponent}")
        print(f"a1_symbol: {ev.a1_symbol}")
    if ev.factorization is not None:
        nf = ev.factorization
        print(f"d_sets: D1={list(nf.d1)} D2={list(nf.d2)} D3={list(nf.d3)}")
    for v in ev.local_report:
        _print_verdict_text(v)
    if decision.failing_places:
        print("failing_places: " + " ".join(p.label() for p in decision.failing_places))
    if decision.witness is not None:
        x, y = decision.witness
        flag = "verified" if decision.witness_verified else "unverified"
        print(f"witness: x={x} y={y} ({flag})")


def _cmd_decide(args) -> int:
    delta = parse_quadint(args.delta, d=args.d)
    if args.d == DEFAULT_D:
        decision = decide_qsqrt_m14(delta, witness_bound=args.bound)
    else:
        decision = decide_generic(delta, search_bound=args.bound)
    if args.json:
        print(canonical_json(decision_jsonable(delta, decision)))
    else:
        _print_decision_text(delta, decision)
    negative = decision.status in (
        DecisionStatus.LOCAL_OBSTRUCTION,
        DecisionStatus.GLOBAL_OBSTRUCTION,
    )
    return 1 if negative else 0


def _cmd_local(args) -> int:
    delta = parse_quadint(args.delta, d=args.d)
    if args.prime is not None:
        verdicts = [locally_solvable(delta, args.prime)]
    else:
        _, verdicts = locally_solvable_everywhere(delta)
    if args.json:
        payload = {
            "delta": _delta_jsonable(delta),
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
            "delta": _delta_jsonable(delta),
            "bound": report.bound,
            "witness": witness_jsonable(report.witness),
            "witness_verified": verify_witness(delta, report.witness),
            "states_examined": report.states_examined,
        }
        print(canonical_json(payload))
    elif report.witness is None:
        print(f"no witness within bound {report.bound} ({report.states_examined} states)")
    else:
        x, y = report.witness
        print(f"witness: x={x} y={y} ({report.states_examined} states)")
    return 0


def _cmd_hunt(args) -> int:
    workers = args.workers
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ParameterError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    result = hunt_mod.hunt_counterexamples(args.box, args.bound, workers=workers)
    text = "".join(canonical_json(line) + "\n" for line in hunt_mod.result_lines(result))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"hunt: {result.summary['records']} records, {result.summary['hits']} hits, "
            f"{result.summary['discrepancies']} discrepancies -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classical(args) -> int:
    ok = verify_classical(args.max)
    if args.json:
        print(canonical_json({"max": args.max, "verified": ok}))
    else:
        print(f"classical decision agrees with exhaustive search up to {args.max}: {ok}")
    return 0 if ok else 1


def _parse_hilbert_place(text: str) -> int | None:
    if text in ("inf", "oo", "real"):
        return None
    return int(text)


def _run_symbols(argv: list[str]) -> int:
    # parsed by hand so that negative arguments work without tricks
    usage = "usage: twosquares symbols {legendre,jacobi,quartic,hilbert} <args>"
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    kind, rest = argv[0], argv[1:]
    arity = {"legendre": 2, "jacobi": 2, "quartic": 2, "hilbert": 3}
    if kind not in arity:
        print(usage, file=sys.stderr)
        return 2
    if len(rest) != arity[kind]:
        print(f"{usage}\n{kind} takes {arity[kind]} arguments", file=sys.stderr)
        return 2
    try:
        if kind == "hilbert":
            a = Fraction(rest[0])
            b = Fraction(rest[1])
            place = _parse_hilbert_place(rest[2])
            print(numth.hilbert_symbol(a, b, place))
            return 0
        x, m = int(rest[0]), int(rest[1])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if kind == "legendre":
        print(numth.legendre(x, m))
    elif kind == "jacobi":
        print(numth.jacobi(x, m))
    else:
        print("true" if numth.is_quartic_residue(x, m) else "false")
    return 0


@lru_cache(maxsize=None)  # one key per name in COMMANDS, plus None
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or, for a name in COMMANDS, with
    that subcommand alone, which is much cheaper to build.  Each is built
    once per process: parsing leaves a parser as it found it."""
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="Decide sums of two squares over Z[sqrt(-14)] and related rings.",
        epilog='Write negative coordinates with "=", e.g. --delta=-13,2.',
    )
    # the usage line names every subcommand even when one is built
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "decide"):
        p = sub.add_parser("decide", help="run the exact criterion (or the generic semi-decision)")
        p.add_argument("--delta", required=True, help='coordinates "a,b" or "a+b*sqrt(d)"')
        p.add_argument("--d", type=int, default=DEFAULT_D, help="ring parameter (default -14)")
        p.add_argument("--bound", type=int, default=50, help="witness search bound")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_decide)

    if command in (None, "local"):
        p = sub.add_parser("local", help="local solvability verdicts")
        p.add_argument("--delta", required=True)
        p.add_argument("--d", type=int, default=DEFAULT_D)
        p.add_argument("--prime", type=int, default=None, help="single place (default: all relevant)")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_local)

    if command in (None, "search"):
        p = sub.add_parser("search", help="bounded exhaustive representation search")
        p.add_argument("--delta", required=True)
        p.add_argument("--d", type=int, default=DEFAULT_D)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_search)

    if command in (None, "hunt"):
        p = sub.add_parser("hunt", help="sweep a box for local-global counterexamples")
        p.add_argument("--box", type=int, required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--workers", type=int, default=None, help=f"default ${WORKERS_ENV} or 1")
        p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
        p.set_defaults(func=_cmd_hunt)

    if command in (None, "classical"):
        p = sub.add_parser("classical", help="verify the rational baseline against search")
        p.add_argument("--max", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_classical)

    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "symbols":
        try:
            return _run_symbols(argv[1:])
        except (ParameterError, UnsupportedInputError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParameterError, UnsupportedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
