"""Span tracing of the twosquares layers, from outside the package.

Every public function of the layer modules is wrapped, and the wrapper is
installed under every name the package looks it up by: `criterion` and
`hunt` import `find_representation` by name, while `ring` and `localsolve`
reach `numth.factorize` through the module, so both the module attribute and
each imported alias are replaced.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("numth", "ring", "localsolve", "criterion", "search", "hunt", "cli")

# Span fields, kept as lists for cheap recording.
NAME, START, END, PARENT, OP, TAG, COUNT, FAILED = range(8)


def _place_kind(verdict) -> tuple[str, int]:
    if verdict.place.prime == 2:
        return "p2", 0
    return verdict.place.splitting.value, 0


def _search_outcome(report) -> tuple[str, int]:
    return ("hit" if report.witness is not None else "miss"), report.states_examined


# Classifiers read the returned value, so the tag is what the layer decided.
CLASSIFY = {
    "localsolve.locally_solvable": _place_kind,
    "search.find_representation": _search_outcome,
}


class Tracer:
    """Records one span per call of a wrapped function: name, start, end,
    parent span, op id, and a tag and count derived from the result."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        classify = CLASSIFY.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.op, None, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if classify is not None:
                span[TAG], span[COUNT] = classify(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each layer module of `package` and
        patch every module attribute that refers to one of them."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span;
        a span's id is its line number after the header, from 0."""
        fields = ["name", "start", "end", "parent", "op", "tag", "count", "failed"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.
    Calls are synchronous, so children nest inside the parent and do not
    overlap: their coverage is the sum of their durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_table(spans: list[list], own: list[float]) -> dict[str, dict]:
    """Per function name: calls, self seconds, inclusive seconds, failed calls;
    `own` holds the spans' self times."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "failed": 0})
    for s, t in zip(spans, own):
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += t
        row["incl_s"] += s[END] - s[START]
        row["failed"] += s[FAILED]
    return dict(table)


def select(spans: list[list], own: list[float], names, tag=None, ops=None) -> tuple[int, float, int, int]:
    """(calls, self seconds, summed counts, failed calls) over spans whose name
    is in `names`, optionally restricted to one tag and a set of op ids;
    `own` holds the spans' self times."""
    calls = count = failed = 0
    busy = 0.0
    for s, t in zip(spans, own):
        if s[NAME] not in names or (tag is not None and s[TAG] != tag):
            continue
        if ops is not None and s[OP] not in ops:
            continue
        calls += 1
        busy += t
        count += s[COUNT]
        failed += s[FAILED]
    return calls, busy, count, failed
