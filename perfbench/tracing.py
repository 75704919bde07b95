"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each treematch module from the
outside: it replaces every module attribute (and class attribute) through
which callers reach a function, so calls made inside the library are traced
too. Spans (name, start, end, parent) live in compact arrays in memory until
the run ends; self time is a span's busy time minus the busy time of its
children. Very hot calls (MatchingOracle.partner) are counted, not spanned.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter


def _after_window(counts, args, result):
    counts["graph_core.window_vertices"] += len(result.paths)


def _after_derive(counts, args, result):
    counts["derivative.derive_calls"] += 1
    rounds = getattr(result, "rounds", None)
    if rounds is None:  # a conflict reports the stage it stopped at
        rounds = (result.stage + 1) // 2
    counts["derivative.rounds"] += rounds
    counts["derivative.core_vertices"] += len(getattr(result, "core", ()))


def _after_closure(counts, args, result):
    counts["baire.closure_calls"] += 1
    counts["baire.closure_vertices"] += len(result[0])


def _after_sweep(counts, args, result):
    counts["baire.seeds"] += len(set(args[1]))
    counts["baire.kept"] += len(result.kept)


def _after_levels(counts, args, last):
    if last is not None:
        counts["counterexample.pairs"] += len(last.pairs)


def _counter(key):
    def after(counts, args, result):
        counts[key] += 1

    return after


# (module, attribute, span name, post-call hook) for module-level functions.
FUNCTION_SPANS = (
    ("graph_core", "has_bad_ray", "graph_core.has_bad_ray", None),
    ("graph_core", "ends_equivalent", "graph_core.ends_equivalent",
     _counter("graph_core.ends_equivalent_calls")),
    ("matcher", "rooted_matching", "matcher.rooted_matching", None),
    ("matcher", "one_end_matching", "matcher.one_end_matching", None),
    ("matcher", "two_end_matching", "matcher.two_end_matching", None),
    ("matcher", "many_end_matching", "matcher.many_end_matching", None),
    ("matcher", "match_ends", "matcher.match_ends", None),
    ("matcher", "verify_ends_output", "matcher.verify_ends_output", None),
    ("derivative", "derive", "derivative.derive", _after_derive),
    ("derivative", "derive_window", "derivative.derive_window", None),
    ("oracle", "max_matching", "oracle.max_matching", _counter("oracle.max_matching_calls")),
    ("oracle", "greedy_forest_matching", "oracle.greedy_forest_matching", None),
    ("subdivision", "subdivide", "subdivision.subdivide", None),
    ("subdivision", "orientation_to_matching", "subdivision.orientation_to_matching", None),
    ("subdivision", "matching_to_orientation", "subdivision.matching_to_orientation", None),
    ("baire", "closure", "baire.closure", _after_closure),
    ("baire", "sweep_step", "baire.sweep_step", _after_sweep),
    ("counterexample", "levels", "counterexample.levels", _after_levels),
    ("counterexample", "check_condition1", "counterexample.check_condition1", None),
    ("counterexample", "check_condition2", "counterexample.check_condition2", None),
    ("counterexample", "check_acyclic", "counterexample.check_acyclic", None),
    ("counterexample", "section_report", "counterexample.section_report", None),
    ("cli", "run", "cli.run", None),
)

# (module, class, attribute, span name, post-call hook) for methods.
METHOD_SPANS = (
    ("graph_core", "AutomaticTree", "window", "graph_core.window", _after_window),
    ("graph_core", "AutomaticTree", "build", "graph_core.build", None),
    ("matcher", "MatchingOracle", "restricted_pairs", "matcher.restricted_pairs", None),
    ("counterexample", "LevelSystem", "s_pairs", "counterexample.s_pairs", None),
    ("counterexample", "LevelSystem", "s_size", "counterexample.s_size", None),
)

# Per-layer metrics: name -> (unit, (source, span or counter names...)).
# The source "busy" sums span busy time, "self" sums self time, "calls" counts
# spans and "count" reads a counter. Every value is per round of the workload.
LAYER_METRICS = {
    "graph_core.window_s": ("s", ("busy", "graph_core.window")),
    "graph_core.window_calls": ("count", ("calls", "graph_core.window")),
    "graph_core.window_vertices": ("count", ("count", "graph_core.window_vertices")),
    "graph_core.build_s": ("s", ("busy", "graph_core.build")),
    "graph_core.has_bad_ray_s": ("s", ("busy", "graph_core.has_bad_ray")),
    "graph_core.ends_equivalent_calls": ("count", ("count", "graph_core.ends_equivalent_calls")),
    "matcher.construct_s": ("s", ("busy", "matcher.rooted_matching", "matcher.one_end_matching",
                                  "matcher.two_end_matching", "matcher.many_end_matching")),
    "matcher.verify_s": ("s", ("busy", "matcher.verify_ends_output")),
    "matcher.restricted_pairs_s": ("s", ("busy", "matcher.restricted_pairs")),
    "matcher.partner_calls": ("count", ("count", "matcher.partner_calls")),
    "derivative.derive_window_s": ("s", ("busy", "derivative.derive_window")),
    "derivative.derive_s": ("s", ("busy", "derivative.derive")),
    "derivative.derive_calls": ("count", ("count", "derivative.derive_calls")),
    "derivative.rounds": ("count", ("count", "derivative.rounds")),
    "derivative.core_vertices": ("count", ("count", "derivative.core_vertices")),
    "oracle.max_matching_s": ("s", ("busy", "oracle.max_matching")),
    "oracle.max_matching_calls": ("count", ("count", "oracle.max_matching_calls")),
    "oracle.greedy_s": ("s", ("busy", "oracle.greedy_forest_matching")),
    "subdivision.subdivide_s": ("s", ("busy", "subdivision.subdivide")),
    "subdivision.roundtrip_s": ("s", ("busy", "subdivision.orientation_to_matching",
                                      "subdivision.matching_to_orientation")),
    "baire.closure_s": ("s", ("busy", "baire.closure")),
    "baire.closure_calls": ("count", ("count", "baire.closure_calls")),
    "baire.closure_vertices": ("count", ("count", "baire.closure_vertices")),
    "baire.sweep_step_s": ("s", ("self", "baire.sweep_step")),
    "counterexample.levels_s": ("s", ("busy", "counterexample.levels")),
    "counterexample.pairs": ("count", ("count", "counterexample.pairs")),
    "counterexample.condition1_s": ("s", ("busy", "counterexample.check_condition1")),
    "counterexample.condition2_s": ("s", ("busy", "counterexample.check_condition2")),
    "counterexample.acyclic_s": ("s", ("busy", "counterexample.check_acyclic")),
    "counterexample.section_report_s": ("s", ("busy", "counterexample.section_report")),
    "counterexample.s_pairs_s": ("s", ("busy", "counterexample.s_pairs")),
    "cli.run_s": ("s", ("busy", "cli.run")),
    "cli.self_s": ("s", ("self", "cli.run")),
    "cli.output_bytes": ("bytes", ("count", "cli.output_bytes")),
}


class Tracer:
    """Records spans around wrapped library calls while installed."""

    def __init__(self):
        self._names: list = []
        self._name_ids: dict = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._busy = array("d")
        self._stack: list = []
        self.counts: Counter = Counter()
        self._partner_seen: dict = {}
        self._patches: list = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(perf_counter())
        self._end.append(0.0)
        self._busy.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        t = perf_counter()
        self._stack.pop()
        self._end[i] = t
        self._busy[i] = t - self._start[i]

    def begin_op(self) -> int:
        return self._open(self._name_id("op"))

    def end_op(self, i: int, output_bytes: int = 0) -> None:
        self._close(i)
        self.counts["cli.output_bytes"] += output_bytes
        self.counts["matcher.partner_distinct"] += sum(
            len(s) for s in self._partner_seen.values()
        )
        self._partner_seen.clear()

    def _span(self, name: str, fn, after):
        name_id = self._name_id(name)
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name_id, fn, after)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _generator_span(self, name_id: int, fn, after):
        """A generator's span runs from its first resumption to exhaustion;
        its busy time counts only the time spent inside the generator, not
        in the consumer between items."""
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            i = self._open(name_id)
            stack.pop()
            last = None
            try:
                while True:
                    stack.append(i)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        self._busy[i] += perf_counter() - t0
                        stack.pop()
                    last = item
                    yield item
            finally:
                self._end[i] = perf_counter()
            if after is not None:
                after(counts, args, last)

        return traced

    def _partner_counter(self, fn):
        seen = self._partner_seen
        counts = self.counts

        @functools.wraps(fn)
        def partner(oracle, v):
            counts["matcher.partner_calls"] += 1
            key = id(oracle)
            if key not in seen:
                seen[key] = set()
            seen[key].add(v)
            return fn(oracle, v)

        return partner

    # -- installing the wrappers ------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package_name: str = "treematch") -> None:
        """Wrap every traced function at each name through which it is looked
        up: its own module, the package namespace and any module that
        imported it by name."""
        modules = [
            m for name, m in sys.modules.items()
            if name == package_name or name.startswith(package_name + ".")
        ]
        for mod_name, attr, span_name, after in FUNCTION_SPANS:
            original = getattr(sys.modules[f"{package_name}.{mod_name}"], attr)
            wrapped = self._span(span_name, original, after)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)
        for mod_name, cls_name, attr, span_name, after in METHOD_SPANS:
            cls = getattr(sys.modules[f"{package_name}.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(span_name, raw.__func__, after)))
            else:
                self._set(cls, attr, self._span(span_name, raw, after))
        oracle_cls = sys.modules[f"{package_name}.matcher"].MatchingOracle
        self._set(oracle_cls, "partner", self._partner_counter(oracle_cls.__dict__["partner"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self._start)

    def write_spans(self, path) -> None:
        """Gzipped tab-separated spans: index, name, start, end, busy, parent
        (the index of the enclosing span, -1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tbusy\tparent\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i}\t{self._names[self._name[i]]}\t{self._start[i]:.9f}\t"
                    f"{self._end[i]:.9f}\t{self._busy[i]:.9f}\t{self._parent[i]}\n"
                )

    def totals(self) -> tuple:
        """(busy, self time, calls) per span name."""
        n = len(self._start)
        child_busy = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child_busy[p] += self._busy[i]
        busy: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self._names[self._name[i]]
            busy[name] += self._busy[i]
            self_time[name] += self._busy[i] - child_busy[i]
            calls[name] += 1
        return busy, self_time, calls

    def layer_metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload. Layers the
        workload never calls read 0."""
        busy, self_time, calls = self.totals()
        sources = {"busy": busy, "self": self_time, "calls": calls, "count": self.counts}
        out = {}
        for metric, (unit, (kind, *names)) in LAYER_METRICS.items():
            value = sum(sources[kind][name] for name in names) / rounds
            out[metric] = (value, unit)
        partner_calls = self.counts["matcher.partner_calls"]
        out["matcher.partner_hit_ratio"] = (
            1 - self.counts["matcher.partner_distinct"] / partner_calls if partner_calls else 0.0,
            "ratio",
        )
        seeds = self.counts["baire.seeds"]
        out["baire.kept_ratio"] = (self.counts["baire.kept"] / seeds if seeds else 0.0, "ratio")
        return out
