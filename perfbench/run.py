"""treematch benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree-windows --seed 1 --seconds 20 --trace 0

It imports treematch from the checkout's src/ (nothing is built), sets up the
workload several times and reports the median set-up time, then runs whole
rounds of the workload's ops until --seconds have passed. Every op's output
is checked. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the run repeats the rounds with the tracer installed
and reports the per-layer metrics instead. Earlier stdout lines describe the
run for people: seed, host, sample counts and every metric with its unit.
A traced run also writes its spans to perfbench/traces/. Exit code 2 means the checkout has no treematch sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MODULES = ("cli", "graph_core", "matcher", "derivative", "oracle", "subdivision", "baire",
           "counterexample")


def load_treematch(src: Path) -> SimpleNamespace:
    """Import treematch afresh from src, so each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "treematch" or n.startswith("treematch.")]:
        del sys.modules[name]
    package = importlib.import_module("treematch")
    if Path(package.__file__).resolve().parent != (src / "treematch").resolve():
        raise ImportError(f"treematch was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"treematch.{m}") for m in MODULES})


def tail_percentile(ops_per_round: int) -> float:
    """The highest percentile with at least ten ops of one round beyond it.
    It is fixed by the round, so every run of a workload reports the same
    percentile however many rounds it completes."""
    fitting = [p for p in TAIL_LADDER if ops_per_round * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def percentile(values: list, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Measurement:
    """Op times and item rates, kept per round. Every reported statistic is
    the median over rounds of a per-round figure, so a burst of load from
    elsewhere on the host that slows one round does not move it."""

    round_durations: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)  # items per op-second
    items: int = 0
    attempted: int = 0
    failed: int = 0
    ops_per_round: int = 0
    failures: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.round_durations)

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.round_durations))

    @property
    def items_per_s(self) -> float:
        return statistics.median(self.round_rates)

    def op_ms(self, p: float) -> float:
        return statistics.median(percentile(d, p) for d in self.round_durations) * 1e3


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Measurement:
    """Run whole rounds until the ops have run for `seconds` (at least one
    round). Counting op time, not the checks between ops, keeps the number of
    rounds a property of the program's speed."""
    m = Measurement()
    while m.rounds == 0 or m.busy_s < seconds:
        ops = workload.round_ops(m.rounds)
        m.ops_per_round = len(ops)
        durations, items = [], 0
        gc.collect()
        for op in ops:
            span = tracer.begin_op() if tracer else None
            t0 = perf_counter()
            try:
                result = op.run()
                failure = None
            except Exception as exc:  # a failing op is counted, not fatal
                result = None
                failure = f"{type(exc).__name__}: {exc}"
            durations.append(perf_counter() - t0)
            if tracer:
                out = len(result.stdout) if isinstance(result, CliResult) else 0
                tracer.end_op(span, out)
            if failure is None:
                failure = op.check(result)
            if op.cleanup:
                op.cleanup()
            m.attempted += 1
            if failure:
                m.failed += 1
                if len(m.failures) < 5:
                    m.failures.append(f"{op.label}: {failure}")
            else:
                items += op.items
        m.items += items
        m.round_durations.append(durations)
        m.round_rates.append(items / sum(durations))
    return m


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def end_to_end(setups: list, m: Measurement) -> dict:
    tail = tail_percentile(m.ops_per_round)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (m.items_per_s, "1/s"),
        "op_p50_ms": (m.op_ms(50), "ms"),
        "op_tail_ms": (m.op_ms(tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - m.failed / m.attempted, "ratio"),
    }


def describe(label: str, m: Measurement) -> dict:
    return {
        "loop": label,
        "rounds": m.rounds,
        "ops": m.attempted,
        "ops_per_round": m.ops_per_round,
        "tail_percentile": tail_percentile(m.ops_per_round),
        "busy_s": round(m.busy_s, 3),
        "items": m.items,
        "round_items_per_s": [round(r, 1) for r in m.round_rates],
        "failed": m.failed,
        "fail_frac": m.failed / m.attempted,
        "failures": m.failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "treematch" / "__init__.py").is_file():
        print(f"error: no treematch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous set-up's inputs first
            gc.collect()
            t0 = perf_counter()
            tm = load_treematch(src)
            # A fresh directory each time: rewriting a file can cost more
            # than writing a new one, which would skew the later set-ups.
            workload = WORKLOADS[args.workload](tm, args.seed, tempfile.mkdtemp(dir=workdir))
            setups.append(perf_counter() - t0)
        # Keep the benchmark's own inputs out of the collector's scans, so
        # the library's time does not grow with the size of the test data.
        gc.collect()
        gc.freeze()
        untraced = measure(workload, args.seconds)
        loops = [describe("untraced", untraced)]
        attempted, failed = untraced.attempted, untraced.failed
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
            loops.append(describe("traced", traced))
            attempted += traced.attempted
            failed += traced.failed
            metrics = tracer.layer_metrics(traced.rounds)
            metrics["trace.items_per_s"] = (traced.items_per_s, "1/s")
            metrics["trace.overhead_ratio"] = (
                untraced.items_per_s / traced.items_per_s if traced.items_per_s else 0.0,
                "ratio",
            )
            metrics["trace.spans"] = (tracer.span_count() / traced.rounds, "count")
            spans_file = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
            spans_file.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans_file)
        else:
            metrics = end_to_end(setups, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "host": host_facts(), "setup_runs_s": setups,
                      "loops": loops, "spans_file": str(spans_file) if args.trace else None}))
    for loop in loops:
        print(f"{args.workload} {loop['loop']}: fail_frac {loop['fail_frac']:.4f} "
              f"({loop['failed']} of {loop['ops']} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
