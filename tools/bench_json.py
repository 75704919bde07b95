"""Write BENCH_<pr>.json: the benchmark of a parent revision and of this
checkout, run in one sitting on one host.

Usage, from the root of a checkout:

    python3 tools/bench_json.py --parent HEAD~1 --pr 13

For each workload in BENCHMARK.json it runs
`perfbench/run.py --workload <w> --seed 41 --seconds <run_seconds> --trace 0`
in an exported copy of the parent (`git archive`, so the repository's git
metadata is left alone) and in this checkout, as PAIRS back-to-back
parent/change pairs. The side that runs first alternates from pair to pair
and from workload to workload. Eleven pairs are enough to ask whether the
change wins at least nine of ten pairs and whether its median lies
outside the parent's quartiles; three could not separate a 25% change
from the run-to-run spread of `tree-windows`. `run_seconds` is
BENCHMARK.json's. The last stdout line of every run goes into
BENCH_<pr>.json, with each side's median and quartiles per metric and the
host facts. The checkout side is the working tree as it stands, which is
the change once committed. Standard library only, plus the git command
line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 41  # the seed of every BENCH_<pr>.json
PAIRS = 11  # parent/change pairs per workload: at least ten, and odd, so a median is one run


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Unpack the tree of rev into dest."""
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, **safe)


def run_bench(checkout: Path, workload: str, seconds: float) -> dict:
    """The result line of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {checkout} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    """Median and quartiles (inclusive method) of each metric over runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision, e.g. HEAD~1 or a commit")
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--note", default="", help="appended to the file's note")
    args = p.parse_args(argv)

    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        export(parent_commit, parent_dir)
        for k, workload in enumerate(workloads):
            for i in range(PAIRS):
                sides = [("parent", parent_dir), ("change", ROOT)]
                if (k + i) % 2:
                    sides.reverse()
                for side, checkout in sides:
                    print(f"{workload} pair {i + 1}/{PAIRS}: {side}", file=sys.stderr, flush=True)
                    runs[side][workload].append(run_bench(checkout, workload, seconds))
    results = {
        side: {w: {"metrics": summarize(rs), "runs": rs} for w, rs in by_workload.items()}
        for side, by_workload in runs.items()
    }

    note = (
        f"{PAIRS} back-to-back parent/change pairs per workload, seed {SEED}, all on one "
        "host in one sitting; the side that runs first alternates from pair to pair and from "
        "workload to workload. Per side and workload: median and quartiles of each metric, "
        "and the last stdout line of every run. The change's src/ and tests/ are those of "
        "the commit that adds this file."
    )
    out = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed {SEED} "
                   f"--seconds {seconds:g} --trace 0",
        "note": f"{note} {args.note}".strip(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "parent": {"commit": parent_commit, "workloads": results["parent"]},
        "change": {"commit": "the commit that adds this file", "workloads": results["change"]},
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
