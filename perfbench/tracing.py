"""Per-layer spans around starstab's public functions, installed from outside.

``install()`` runs in a child process. It wraps every function named in
``SPANS`` and rebinds the wrapper in every ``starstab`` module that holds the
function: ``certify`` and ``cli`` import functions by name, so patching only
the defining module would miss their calls. ``Graph.__init__`` is wrapped too,
for construction and validation. Each call is a span; a span's self time is
its duration minus the time covered by the spans it encloses. Generators are
timed per ``next()``, so a census span holds only the time spent producing
classes, not the time its consumer spends deciding them.

``layer_metrics()`` runs in the benchmark process and turns the summed span
statistics of a pass into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# module -> {public function the workloads reach: span name}
SPANS = {
    "graph": {
        **dict.fromkeys(["complement", "permute", "pad", "with_edge", "induced_delete",
                         "empty", "complete", "from_edges", "star", "conjunction",
                         "near_complete_regular"], "graph.ops"),
        "encode_graph6": "graph.graph6",
        "decode_graph6": "graph.graph6",
    },
    "canon": {"canonical_form": "canon"},
    "certify": {"certify": "certify.certify"},
    "stability": {"is_star_stable": "stability.star", "is_stable_general": "stability.general",
                  "sparse_complement_guarantees_stable": "stability.shortcut"},
    "theorem": dict.fromkeys(["stab_case", "stab_value", "stab_result", "extremal_family",
                              "k0", "k1"], "theorem"),
    "construct": {"bch_construct": "construct.bch", "star_stable": "construct.bch",
                  "star_instance": "construct.bch", "recovery_embedding": "construct.recovery"},
    "cli": {"main": "cli"},
}
# Generator functions, timed per next(); graphs_of_order_and_size is named
# census_below or census_at inside certify by the size it is asked for.
GENERATORS = {"certify": ["graphs_of_order_and_size", "enumerate_graphs_by_edges"]}

CALLS, INCLUSIVE, SELF, ITEMS = range(4)


class Tracer:
    """Span statistics of one process: name -> [calls, inclusive ns, self ns,
    items yielded], plus counts read from return values."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.counts = {"stability.star.fault_sets": 0, "stability.star.stable": 0,
                       "stability.general.fault_sets": 0, "stability.shortcut.hits": 0}
        # Time covered by the children of each open span; the root never closes.
        self._stack = [0]
        self._census_value: int | None = None

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def span(self, fn, name: str, observe=None):
        stat, stack = self._stat(name), self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                own = d - stack.pop()
                stack[-1] += d
                stat[CALLS] += 1
                stat[INCLUSIVE] += d
                stat[SELF] += own
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def generator(self, fn, name_of):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self._stat(name_of(*args, **kwargs))
            stat[CALLS] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    d = perf_counter_ns() - t0
                    stat[INCLUSIVE] += d
                    stat[SELF] += d - stack.pop()
                    stack[-1] += d
                stat[ITEMS] += 1
                yield item

        return wrapper

    def _census_name(self, n: int, m: int) -> str:
        value = self._census_value
        if value is not None and m == value - 1:
            return "certify.census_below"
        if value is not None and m == value:
            return "certify.census_at"
        return "certify.census"

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        import starstab.cli  # noqa: F401  (the package does not import cli)
        from starstab import graph, theorem

        modules = {name: sys.modules[f"starstab.{name}"] for name in SPANS}
        observers = {
            "is_star_stable": lambda v: (self._count("stability.star.fault_sets", v.checked_fault_sets),
                                         self._count("stability.star.stable", int(v.stable))),
            "is_stable_general": lambda v: self._count("stability.general.fault_sets",
                                                       v.checked_fault_sets),
            "sparse_complement_guarantees_stable": lambda hit: self._count(
                "stability.shortcut.hits", int(hit)),
        }
        wrappers = {}
        for modname, names in SPANS.items():
            for attr, span_name in names.items():
                fn = getattr(modules[modname], attr)
                wrappers[id(fn)] = (fn, self.span(fn, span_name, observers.get(attr)))
        for modname, names in GENERATORS.items():
            for attr in names:
                fn = getattr(modules[modname], attr)
                name_of = ((lambda *a, **kw: self._census_name(*a, **kw))
                           if attr == "graphs_of_order_and_size"
                           else (lambda *a, **kw: "certify.enumerate"))
                wrappers[id(fn)] = (fn, self.generator(fn, name_of))

        certify_fn, certify_span = wrappers[id(modules["certify"].certify)]
        stab_value = theorem.stab_value

        @functools.wraps(certify_fn)
        def certify_wrapper(r, k, *args, **kwargs):
            self._census_value = stab_value(r, k)
            try:
                return certify_span(r, k, *args, **kwargs)
            finally:
                self._census_value = None

        wrappers[id(certify_fn)] = (certify_fn, certify_wrapper)

        for modname, module in list(sys.modules.items()):
            if modname != "starstab" and not modname.startswith("starstab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        graph.Graph.__init__ = self.span(graph.Graph.__init__, "graph.new")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "counts": self.counts}, fh)


def merge(traces: list[dict]) -> dict:
    """Sum the span statistics and counts of several processes."""
    stats: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for trace in traces:
        for name, values in trace["stats"].items():
            total = stats.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(values):
                total[i] += v
        for key, v in trace["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return {"stats": stats, "counts": counts}


def _traced_field(trace: dict, name: str, field: int) -> int:
    return trace["stats"].get(name, (0, 0, 0, 0))[field]


def _traced_count(trace: dict, key: str) -> int:
    return trace["counts"].get(key, 0)


def op_counts(trace: dict) -> dict[str, int]:
    """The counts of one operation that its return value must reproduce."""
    return {
        "certify.classes_below": _traced_field(trace, "certify.census_below", ITEMS),
        "stability.star.fault_sets": _traced_count(trace, "stability.star.fault_sets"),
        "stability.general.fault_sets": _traced_count(trace, "stability.general.fault_sets"),
    }


def census_problem(trace: dict) -> str | None:
    """Every class of a certify census is decided once: through the shortcut,
    and through is_star_stable when the shortcut misses."""
    classes = (_traced_field(trace, "certify.census_below", ITEMS)
               + _traced_field(trace, "certify.census_at", ITEMS))
    shortcut_calls = _traced_field(trace, "stability.shortcut", CALLS)
    star_calls = _traced_field(trace, "stability.star", CALLS)
    hits = _traced_count(trace, "stability.shortcut.hits")
    if shortcut_calls != classes or star_calls != shortcut_calls - hits:
        return (f"trace self-check: {classes} classes, {shortcut_calls} shortcut calls "
                f"with {hits} hits, {star_calls} is_star_stable calls")
    return None


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one pass, without trace.overhead_frac."""

    def stat(name: str, field: int) -> int:
        return _traced_field(trace, name, field)

    def self_s(*names: str) -> float:
        return sum(stat(n, SELF) for n in names) / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    canon_calls = stat("canon", CALLS)
    classes_below = stat("certify.census_below", ITEMS)
    classes_at = stat("certify.census_at", ITEMS)
    star_calls = stat("stability.star", CALLS)
    star_sets = _traced_count(trace, "stability.star.fault_sets")
    return {
        "canon.calls": canon_calls,
        "canon.self_s": self_s("canon"),
        "canon.us_per_call": ratio(stat("canon", INCLUSIVE) / 1e3, canon_calls),
        "canon.calls_per_class": ratio(canon_calls, classes_below + classes_at),
        "certify.census_below_s": stat("certify.census_below", INCLUSIVE) / 1e9,
        "certify.census_at_s": stat("certify.census_at", INCLUSIVE) / 1e9,
        "certify.classes_below": classes_below,
        "certify.classes_at": classes_at,
        "certify.self_s": self_s(*[n for n in trace["stats"] if n.startswith("certify.")]),
        "stability.star.calls": star_calls,
        "stability.star.self_s": self_s("stability.star"),
        "stability.star.fault_sets": star_sets,
        "stability.star.ns_per_fault_set": ratio(stat("stability.star", SELF), star_sets),
        "stability.star.stable_ratio": ratio(_traced_count(trace, "stability.star.stable"), star_calls),
        "stability.shortcut.hits": ratio(_traced_count(trace, "stability.shortcut.hits"),
                                         stat("stability.shortcut", CALLS)),
        "stability.general.calls": stat("stability.general", CALLS),
        "stability.general.self_s": self_s("stability.general"),
        "stability.general.fault_sets": _traced_count(trace, "stability.general.fault_sets"),
        "graph.new.calls": stat("graph.new", CALLS),
        "graph.new.self_s": self_s("graph.new"),
        "graph.ops.self_s": self_s("graph.ops"),
        "graph.graph6.self_s": self_s("graph.graph6"),
        "theorem.self_s": self_s("theorem"),
        "construct.recovery.self_s": self_s("construct.recovery"),
        "construct.bch.self_s": self_s("construct.bch"),
        "cli.self_s": self_s("cli"),
    }
