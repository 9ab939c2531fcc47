"""Benchmark of the twosquares package, driven through its public API.

    python3 perfbench/run.py --workload {hunt,decide} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the root of a checkout: the package is imported from ./src and
nowhere else.  Human-readable tables go to stdout; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
with tracing off; with --trace 1 they are the per-layer ones, from a
separate traced run.  --self-check makes one short run of every workload
and one traced run, and checks that each prints every metric named in
BENCHMARK.json with its unit and passes its correctness gates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from math import ceil, gcd, isqrt
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

D = -14
BOUND = 100  # search bound of the hunt, as in the acceptance sweep
# The hunt box sets the length of one sweep: 624 deltas, about 4 s on one
# core, so a run holds several sweeps.
HUNT_BOX = 12
WARM_BOX = 2
WORKLOADS = ("hunt", "decide")

# Decide inputs: equal shares of three norm bands, half random (a, b) and
# half built as x^2 + y^2.
BANDS = (("n1e12", 10**12), ("n1e18", 10**18), ("n1e30", 10**30))
TRIAL_BOUND = 10**6  # trial-division bound of the seed's factorize
# Fixed warm-up decides (one positive, which builds the witness search
# table, and one negative), so that set-up does not depend on the seed.
WARM_DECIDES = ((-13, 2, None, True), (-1, 0, None, False))
# One pass: 18 decides per band.  The inputs are alike enough in cost that
# more passes (each op's best over more samples) steady a run more than
# more inputs would.
DECIDE_OPS = 54

MIN_PASSES = 2
TRACE_ROUNDS = 2
COLD_PER_PASS = 3
IMPORT_RUNS = 9
COLD_DELTA = (-13, 2)
SELF_CHECK_SECONDS = 2

KERNELS = {"numth.is_prime", "numth.legendre", "numth.sqrt_mod_prime", "numth.is_quartic_residue"}
PLACE_KINDS = ("p2", "split", "inert", "ramified")

clock = time.perf_counter


# ---------------------------------------------------------------- package


def load_package():
    """Import twosquares afresh from ./src: module state and caches start
    empty, as in a new process."""
    if not (SRC / "twosquares" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'twosquares'}; run from a checkout root")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "twosquares" or m.startswith("twosquares.")]:
        del sys.modules[name]
    pkg = importlib.import_module("twosquares")
    if Path(pkg.__file__).resolve().parent != SRC / "twosquares":
        raise SystemExit(f"error: twosquares imported from {pkg.__file__}, not from {SRC}")
    for layer in tracer.LAYERS:
        importlib.import_module(f"twosquares.{layer}")
    return pkg


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------- inputs
# Arithmetic of Z[sqrt(-14)] written out here, so that the gates share no
# code with the package they check.


def _mul(x, y):
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sum_sq(x, y):
    xx, yy = _mul(x, x), _mul(y, y)
    return (xx[0] + yy[0], xx[1] + yy[1])


def _norm(x):
    return x[0] * x[0] - D * x[1] * x[1]


def _element(rng, n):
    """Uniform element of norm in [n/2, 2n]."""
    ra, rb = isqrt(2 * n), isqrt(2 * n // -D)
    while True:
        x = (rng.randint(-ra, ra), rng.randint(-rb, rb))
        if n // 2 <= _norm(x) <= 2 * n:
            return x


def _square_sum(rng, n):
    """x^2 + y^2 of norm in [n/2, 2n], for random x, y of norm ~sqrt(n)."""
    r = isqrt(n)
    while True:
        delta = _sum_sq(_element(rng, r), _element(rng, r))
        if n // 2 <= _norm(delta) <= 2 * n:
            return delta


@functools.cache
def _small_primorial() -> int:
    """Product of the primes below TRIAL_BOUND."""
    flags = bytearray([1]) * TRIAL_BOUND
    flags[:2] = b"\x00\x00"
    for i in range(2, isqrt(TRIAL_BOUND - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, TRIAL_BOUND, i)))
    level = [i for i in range(TRIAL_BOUND) if flags[i]]
    while len(level) > 1:
        level = [level[i] * level[i + 1] if i + 1 < len(level) else level[i] for i in range(0, len(level), 2)]
    return level[0]


def _rough_part(n: int) -> int:
    """n without its prime factors below TRIAL_BOUND."""
    g = gcd(n, _small_primorial())
    while g > 1:
        n //= g
        g = gcd(n, g)
    return n


def _is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24 with these bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw(rng, n, built):
    # Primitive deltas only (gcd(a, b) = 1, a != 0): a != 0 is the criterion's
    # domain, and no inert prime divides a primitive delta.  From 1e18 up,
    # the norm is a TRIAL_BOUND-smooth part times one prime of at least
    # TRIAL_BOUND^2 (see README).
    make = _square_sum if built else _element
    while True:
        delta = make(rng, n)
        if delta[0] == 0 or gcd(*delta) != 1:
            continue
        if n < TRIAL_BOUND**3:
            return delta
        rough = _rough_part(_norm(delta))
        if rough >= TRIAL_BOUND**2 and _is_prime(rough):
            return delta


def decide_inputs(seed: int, count: int):
    """`count` inputs, cycling band and kind.  Each is (a, b, band, built)."""
    rng = random.Random(seed)
    inputs = []
    for i in range(count):
        band, n = BANDS[i % len(BANDS)]
        built = (i // len(BANDS)) % 2 == 1
        inputs.append((*_draw(rng, n, built), band, built))
    return inputs


def frozen_hits(box: int) -> list[tuple[int, int]]:
    doc = json.loads((BENCH_DIR / "frozen_hits.json").read_text(encoding="utf-8"))
    if box > doc["box"]:
        raise SystemExit(f"error: frozen hits cover |a|, |b| <= {doc['box']}, not {box}")
    return [(a, b) for a, b in doc["hits"] if abs(a) <= box and abs(b) <= box]


# ------------------------------------------------------------------ gates


def _witness_ok(witness, a, b) -> bool:
    x = (witness["x"]["a"], witness["x"]["b"])
    y = (witness["y"]["a"], witness["y"]["b"])
    return _sum_sq(x, y) == (a, b)


def check_sweep(result, box: int, expected_hits) -> list[str]:
    """Gates of one hunt sweep; returns the failures found."""
    errors = []
    records = result.records
    keys = [(r["a"], r["b"]) for r in records]
    box_deltas = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1) if a or b]
    if keys != box_deltas:
        errors.append("records do not cover the box in ascending (a, b) order")
    hits = [k for k, r in zip(keys, records) if r["hit"]]
    if hits != expected_hits:
        errors.append(f"{len(hits)} hits differ from the {len(expected_hits)} frozen ones")
    if [(h.delta.a, h.delta.b) for h in result.hits] != expected_hits:
        errors.append("hit payloads differ from the frozen list")
    if result.discrepancies or any(r["discrepancy"] for r in records):
        errors.append("discrepancies between criterion and search")
    for (a, b), r in zip(keys, records):
        w = r["witness"]
        if (w is not None) != r["witness_verified"] or (w is not None and not _witness_ok(w, a, b)):
            errors.append(f"witness of ({a}, {b}) does not verify")
            break
    summary = result.summary
    if (summary["records"], summary["hits"], summary["discrepancies"]) != (
        len(box_deltas),
        len(expected_hits),
        0,
    ):
        errors.append(f"summary disagrees with the records: {summary}")
    return errors


def sweep_digest(result) -> str:
    """SHA-256 of the sweep's output as canonical JSON lines."""
    h = hashlib.sha256()
    for line in (*result.records, result.summary):
        h.update(json.dumps(line, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_decide(a: int, b: int, built: bool, rc, text: str) -> str | None:
    """Gate of one decide op; returns the failure, or None."""
    if rc not in (0, 1):
        return f"decide {a},{b}: exit {rc}"
    try:
        out = json.loads(text)
    except ValueError:
        out = None
    if not isinstance(out, dict):
        return f"decide {a},{b}: output is not one JSON object"
    if out.get("delta") != {"a": a, "b": b, "d": D}:
        return f"decide {a},{b}: wrong delta echoed"
    status = out.get("status")
    if (rc == 0) != (status == "representable"):
        return f"decide {a},{b}: exit {rc} with status {status}"
    if built and status != "representable":
        return f"decide {a},{b}: built as x^2 + y^2 but {status}"
    w = out.get("witness")
    if (w is not None) != out.get("witness_verified") or (w is not None and not _witness_ok(w, a, b)):
        return f"decide {a},{b}: witness does not verify"
    return None


# ------------------------------------------------------------------ setup


def setup(workload: str, seed: int, workers: int = 1):
    """Fresh import, input generation and warm-up.  Returns the package and,
    for decide, the inputs of one pass."""
    pkg = load_package()
    inputs = None
    if workload == "decide":
        inputs = decide_inputs(seed, DECIDE_OPS)
        decide_ops(pkg, WARM_DECIDES)
    else:
        pkg.hunt.hunt_counterexamples(WARM_BOX, BOUND, workers=workers)
    return pkg, inputs


# -------------------------------------------------------------- workloads


def decide_ops(pkg, inputs, trace=None):
    """One pass of the closed loop with one caller: each op runs `decide
    --json` through cli.run with stdout captured.  Returns (latencies,
    outputs, wall)."""
    run = pkg.cli.run
    latencies, outputs = [], []
    start = clock()
    for i, (a, b, _, _) in enumerate(inputs):
        if trace is not None:
            trace.op = i
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = run(["decide", f"--delta={a},{b}", "--json"])
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outputs.append((rc, buf.getvalue()))
    return latencies, outputs, clock() - start


def decide_failures(inputs, outputs) -> list[str]:
    errors = []
    for (a, b, _, built), (rc, text) in zip(inputs, outputs):
        err = check_decide(a, b, built, rc, text)
        if err is not None:
            errors.append(err)
    return errors


def hunt_sweep(pkg, workers: int):
    t0 = clock()
    result = pkg.hunt.hunt_counterexamples(HUNT_BOX, BOUND, workers=workers)
    return result, clock() - t0


def cli_cold(runs: int) -> tuple[list[float], list[str]]:
    """Wall times (ms) of fresh-process `decide --json` runs on a small
    representable delta, and the gate failures among them."""
    a, b = COLD_DELTA
    cmd = [sys.executable, "-c", "from twosquares.cli import main; main()", "decide", f"--delta={a},{b}", "--json"]
    times, errors = [], []
    for _ in range(runs):
        t0 = clock()
        proc = subprocess.run(cmd, env=subprocess_env(), capture_output=True, text=True, timeout=60)
        times.append((clock() - t0) * 1e3)
        err = check_decide(a, b, True, proc.returncode, proc.stdout)
        if err is not None:
            errors.append(f"cold CLI: {err}")
    return times, errors


def cli_import_ms() -> float:
    """Median time (ms) to import twosquares.cli in a fresh process."""
    code = "import time; t = time.perf_counter(); import twosquares.cli; print((time.perf_counter() - t) * 1e3)"
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(n: int) -> int:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if n - ceil(n * q / 100) >= 10:
            return q
    return 50


def percentile(sorted_values, q: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(len(sorted_values) * q / 100) - 1)]


def measure(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; returns the result object and prints its table.

    The run repeats passes over the same ops until `seconds` have passed,
    at least MIN_PASSES times.  Each pass sets up afresh (import, inputs,
    warm-up), so every pass sees the same cache state, and then times each
    op once; COLD_PER_PASS fresh-process CLI runs follow it.  Each op keeps
    its best time over the passes.  Other tenants of a shared machine slow
    it down for tens of seconds at a time, and the best of passes spread
    over the run filters that out where a median of them does not."""
    expected = frozen_hits(HUNT_BOX)
    setups, cold, times, errors = [], [], [], []
    attempted = failed = 0
    sweep_digests = []
    start = clock()
    while len(times) < MIN_PASSES or clock() - start < seconds:
        t0 = clock()
        pkg, inputs = setup(workload, seed)
        setups.append(clock() - t0)
        if workload == "decide":
            latencies, outputs, _ = decide_ops(pkg, inputs)
            errs = decide_failures(inputs, outputs)
            times.append(latencies)
            attempted += len(outputs)
            failed += len(errs)
        else:
            result, dt = hunt_sweep(pkg, 1)
            errs = check_sweep(result, HUNT_BOX, expected)
            times.append([dt])
            sweep_digests.append(sweep_digest(result))
            attempted += len(result.records)
            failed += len(result.records) if errs else 0
        errors += errs
        cold_times, cold_errors = cli_cold(COLD_PER_PASS)
        cold += cold_times
        errors += cold_errors
        attempted += COLD_PER_PASS
        failed += len(cold_errors)
    best = [min(column) for column in zip(*times)]
    extra = []
    if workload == "decide":
        ops_per_s = len(best) / sum(best)
        ordered = sorted(best)
        q = tail_percentile(len(ordered))
        extra.append((f"latency_p{q}_ms", percentile(ordered, q) * 1e3, "ms",
                      f"n={len(ordered)}, {len(ordered) - ceil(len(ordered) * q / 100)} beyond"))
        for band, _ in BANDS:
            lat = [t for t, inp in zip(best, inputs) if inp[2] == band]
            extra.append((f"latency_p50_ms.{band}", statistics.median(lat) * 1e3, "ms", f"n={len(lat)}"))
        what = f"decides/s over the best times of {len(best)} decides, {len(times)} passes"
    else:
        # Criterion 8: the output must not depend on the worker count, so an
        # untimed workers=2 sweep must match the timed workers=1 ones.
        reference = sweep_digest(hunt_sweep(pkg, 2)[0])
        mismatched = sum(d != reference for d in sweep_digests)
        if mismatched:
            errors.append(f"{mismatched} sweeps differ from the workers=2 output")
            failed = attempted  # every sweep is suspect once outputs disagree
        ops_per_s = len(result.records) / best[0]
        what = f"deltas/s in the best of {len(times)} sweeps of |a|, |b| <= {HUNT_BOX}"
    metrics = {
        "ops_per_s": (ops_per_s, "1/s", what),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms",
                           "median over decides" if workload == "decide" else "one sweep"),
        "cli_cold_ms": (min(cold), "ms", f"best of {len(cold)} fresh-process CLI decides"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "benchmark process"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups: import, inputs, warm-up"),
    }
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace=0  ({clock() - start:.1f} s)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<24} {value:>12.4f} {unit:<4} {note}")
    for name, value, unit, note in extra:
        print(f"  {name:<24} {value:>12.4f} {unit:<4} {note}")
    print(f"  {'failed_ratio':<24} {failed / attempted:>12.4f}      {failed} failed of {attempted} attempted")
    for err in errors[:10]:
        print(f"  GATE FAILED: {err}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


# ------------------------------------------------------------ traced run


def _alternate(workload: str, seed: int, work):
    """Runs `work(pkg, inputs, trace)` untraced and traced in turn,
    TRACE_ROUNDS times each, every time after a fresh set-up.  Returns the
    tracer and wall time of the last traced round, every output, and the
    best untraced and traced wall times: the best of alternating rounds keeps
    the machine's drift out of the tracing overhead."""
    outputs, walls = [], {False: [], True: []}
    for _ in range(TRACE_ROUNDS):
        for traced in (False, True):
            pkg, inputs = setup(workload, seed)
            t = tracer.Tracer()
            if traced:
                t.install(pkg)
            try:
                t0 = clock()
                outputs.append(work(pkg, inputs, t if traced else None))
                walls[traced].append(clock() - t0)
            finally:
                t.uninstall()
    return t, walls[True][-1], outputs, min(walls[False]), min(walls[True])


class Pass:
    """The spans of one traced pass, and the per-layer metrics read from them."""

    def __init__(self, prefix: str, t: tracer.Tracer, wall: float, m: dict) -> None:
        self.prefix, self.spans, self.wall, self.m = prefix, t.spans, wall, m
        self.own = tracer.self_times(t.spans)

    def select(self, names, tag=None, ops=None):
        return tracer.select(self.spans, self.own, names, tag, ops)

    def busy(self, label: str, names) -> None:
        self.m[f"{self.prefix}.{label}"] = (self.select(names)[1], "s")

    def layer(self, label: str, names, tag=None, states=False, fails=False) -> int:
        calls, busy, count, failed = self.select(names, tag)
        self.m[f"{self.prefix}.{label}.calls"] = (calls, "count")
        self.m[f"{self.prefix}.{label}.busy_s"] = (busy, "s")
        if states:
            self.m[f"{self.prefix}.{label}.states"] = (count, "count")
        if fails:
            self.m[f"{self.prefix}.{label}.failed"] = (failed, "count")
        return calls

    def places(self, kinds) -> None:
        for kind in kinds:
            calls, busy, _, _ = self.select({"localsolve.locally_solvable"}, kind)
            self.m[f"{self.prefix}.localsolve.place.calls.{kind}"] = (calls, "count")
            self.m[f"{self.prefix}.localsolve.place.busy_s.{kind}"] = (busy, "s")


def _accounting(name: str, p: Pass, traced_wall: float, untraced_wall: float, errors: list) -> float:
    """Checks that the self times of the last traced round sum to its wall
    time, to within the tracing overhead; returns the overhead ratio."""
    own = p.own
    wall = p.wall
    if any(t < -1e-6 for t in own):
        errors.append(f"{name}: a span's children cover more than the span")
    gap = wall - sum(own)
    overhead = traced_wall - untraced_wall
    print(f"  {name}: best traced {traced_wall:.3f} s, best untraced {untraced_wall:.3f} s, "
          f"overhead {overhead:+.3f} s ({traced_wall / untraced_wall:.3f}x); self times sum to "
          f"{sum(own):.3f} s of the last traced round's {wall:.3f} s, {gap * 1e3:.2f} ms outside any layer")
    if not 0 <= gap <= abs(overhead):
        errors.append(f"{name}: self times leave {gap:.4f} s of the traced wall time unexplained, "
                      f"more than the {abs(overhead):.4f} s difference between traced and untraced")
    return traced_wall / untraced_wall


def _print_layers(title: str, p: Pass) -> None:
    print(f"  -- {title}: self time by function ({len(p.spans)} spans)")
    table = tracer.layer_table(p.spans, p.own)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<38} {row['calls']:>8} calls  self {row['self_s']:9.4f} s "
              f"({row['self_s'] / p.wall:6.1%})  incl {row['incl_s']:9.4f} s")


def trace_sweep(seed: int, m: dict, errors: list) -> tuple[int, int]:
    """Sweep pass: one untraced sweep at workers=2, then workers=1 sweeps
    untraced and traced.  The workers=2 sweep goes first, while the parent's
    caches are cold, so each worker builds its own search table, as in
    `twosquares hunt --workers 2`.  Returns (attempted, failed)."""
    expected = frozen_hits(HUNT_BOX)
    pkg, _ = setup("hunt", seed, workers=2)
    r2, wall2 = hunt_sweep(pkg, 2)
    t, last_wall, sweeps, wall1, traced_wall = _alternate(
        "hunt", seed, lambda pkg, _inputs, _t: pkg.hunt.hunt_counterexamples(HUNT_BOX, BOUND, workers=1))
    t.write(OUT_DIR / f"spans-sweep-{seed}.jsonl")
    sweeps.append(r2)
    same = len({sweep_digest(r) for r in sweeps}) == 1
    if not same:
        errors.append("sweep outputs differ between workers=2, workers=1 and the traced sweeps")
    failed = 0
    for r in sweeps:
        errs = check_sweep(r, HUNT_BOX, expected)
        errors += errs
        failed += len(r.records) if errs or not same else 0

    p = Pass("sweep", t, last_wall, m)
    n = len(r2.records)
    print(f"  untraced sweeps: workers=1 {n / wall1:.1f} deltas/s, workers=2 {n / wall2:.1f} deltas/s")
    m["sweep.trace.overhead_ratio"] = (_accounting("sweep", p, traced_wall, wall1, errors), "ratio")
    _print_layers("sweep", p)
    p.layer("numth.factorize", {"numth.factorize"})
    p.layer("numth.kernels", KERNELS)
    p.busy("ring.norm_factorization.busy_s", {"ring.norm_factorization"})
    p.busy("criterion.decide.busy_s", {"criterion.decide_qsqrt_m14"})
    p.places(PLACE_KINDS)
    hits = p.layer("search.hit", {"search.find_representation"}, "hit", states=True)
    misses = p.layer("search.miss", {"search.find_representation"}, "miss", states=True)
    m["sweep.search.hit_ratio"] = (hits / (hits + misses), "ratio")
    p.busy("hunt.self_s", {"hunt.hunt_counterexamples"})
    m["sweep.hunt.parallel_efficiency"] = ((n / wall2) / (2 * n / wall1), "ratio")
    return sum(len(r.records) for r in sweeps), failed


def trace_decide(seed: int, m: dict, errors: list) -> tuple[int, int]:
    """Decide pass: the seed's DECIDE_OPS inputs, untraced and traced.
    Returns (attempted, failed)."""
    inputs = decide_inputs(seed, DECIDE_OPS)

    def work(pkg, inputs, trace):
        return decide_ops(pkg, inputs, trace)[1]

    t, last_wall, runs, untraced_wall, traced_wall = _alternate("decide", seed, work)
    t.write(OUT_DIR / f"spans-decide-{seed}.jsonl")
    errs = [err for outputs in runs for err in decide_failures(inputs, outputs)]
    errors += errs

    p = Pass("decide", t, last_wall, m)
    print(f"  untraced decides: {len(inputs) / untraced_wall:.2f} decides/s over {len(inputs)} decides")
    m["decide.trace.overhead_ratio"] = (_accounting("decide", p, traced_wall, untraced_wall, errors), "ratio")
    _print_layers("decide", p)
    calls = p.layer("numth.factorize", {"numth.factorize"}, fails=True)
    m["decide.numth.factorize.calls_per_decide"] = (calls / len(inputs), "count")
    for band, _ in BANDS:
        ops = {i for i, inp in enumerate(inputs) if inp[2] == band}
        m[f"decide.numth.factorize.busy_s.{band}"] = (p.select({"numth.factorize"}, ops=ops)[1], "s")
    p.layer("numth.kernels", KERNELS)
    p.busy("ring.norm_factorization.busy_s", {"ring.norm_factorization"})
    p.busy("criterion.decide.busy_s", {"criterion.decide_qsqrt_m14"})
    # Primitive deltas have no inert place, and witnesses within bound 50
    # have norms below 1e10, so this pass has no inert places and no search
    # hits to report.
    p.places(("p2", "split", "ramified"))
    p.layer("search.miss", {"search.find_representation"}, "miss", states=True)
    p.busy("cli.render.busy_s", {"cli.decision_jsonable", "cli.canonical_json"})
    p.busy("cli.run.self_s", {"cli.run"})
    return len(runs) * len(inputs), len(errs)


def trace_run(seed: int) -> dict:
    """The traced run.  Whatever workload is named, it runs both passes at
    workers=1, so one invocation gives the whole layer table.  Each pass
    runs untraced and then traced, each time after a fresh import and
    warm-up, so both see the same cache state."""
    OUT_DIR.mkdir(exist_ok=True)
    errors: list[str] = []
    m: dict[str, tuple[float, str]] = {}
    print(f"== traced run  seed={seed}")
    attempted, failed = trace_sweep(seed, m, errors)
    a, f = trace_decide(seed, m, errors)
    m["cli.import_ms"] = (cli_import_ms(), "ms")
    print("  -- per-layer metrics")
    for name, (value, unit) in m.items():
        print(f"    {name:<44} {value:>14.6f} {unit}")
    for err in errors[:10]:
        print(f"  GATE FAILED: {err}")
    return {
        "correct": not errors,
        "attempted": attempted + a,
        "failed": failed + f,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()},
    }


# ------------------------------------------------------------- self-check


def self_check() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def compare(label, result, wanted):
        got = {name: v["unit"] for name, v in result["metrics"].items()}
        want = {w["name"]: w["unit"] for w in wanted}
        if got != want:
            problems.append(f"{label}: metrics {sorted(set(got.items()) ^ set(want.items()))} do not match BENCHMARK.json")
        if not result["correct"] or result["failed"]:
            problems.append(f"{label}: gates failed ({result['failed']} of {result['attempted']} ops)")

    for w in spec["workloads"]:
        compare(w["name"], measure(w["name"], 1, SELF_CHECK_SECONDS), spec["end_to_end"])
    compare("traced run", trace_run(1), spec["per_layer"])
    for p in problems:
        print(f"self-check FAILED: {p}")
    if not problems:
        print(f"self-check passed: {len(spec['workloads'])} workloads and the traced run print every "
              f"metric of BENCHMARK.json with its unit, and every gate passes")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    load_package()  # exits before any output when ./src holds no package
    _small_primorial()  # a constant of the input generator, built outside set-up timing
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = trace_run(args.seed) if args.trace else measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
