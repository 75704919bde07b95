"""Compare the command line of a parent revision and of this checkout, run
for run.

Usage, from the root of a checkout:

    python3 tools/cli_diff.py --parent HEAD~1

It exports the parent with tools/bench_json.py's `export` (`git archive`,
so the repository's git metadata is left alone) and runs one fixed matrix
of commands on both sides:

- every battery tree at depths 0 to 10 with `match-rooted`,
  `derivative --tree`, `match-ends` for each `BATTERY_ENDS` group, and
  `baire-sweep` with three seed sets;
- 40 seeded random machines (at most 3 states, branch at most 3, with 1 to
  3 valid ends each; `random_machine` of tests/conftest.py) at depths 0 to
  7 with the same commands;
- each of those `match-ends` runs once more with every end given by an
  equivalent, non-canonical descriptor: the period partly unrolled into the
  preperiod, and maybe doubled (`equivalent_descriptor` of
  tests/conftest.py, seeded);
- `match-rooted`, `derivative --tree` and `match-ends` for each
  `BATTERY_ENDS` group, with no `baire-sweep`, on windows deeper than the
  ones above (`DEEP_WINDOWS`): the 3-regular tree and the two combs at
  depths 12 and 14, the benchmark's sizes, and the line at depth 1999, the
  deepest that the window caps allow;
- `derivative --tree` on 100 seeded finite layered machines (2 to 5
  states, each branching 1 to 3 ways into higher-numbered states, the last
  one a leaf), at depths 2 to 6: windows that cut the finite tree, with
  forced partners beyond them, and windows that hold it whole, with
  conflicts of both kinds;
- the pair-system dump `counterexample --levels` at every level from 0 to
  10, the CLI's cap.

Each side runs in one worker subprocess that imports treematch from that
side's src/ and calls `treematch.cli.run` once per run, capturing stdout
and stderr; the two workers run at the same time. For each run the tool
compares the exit code, the sha256 of stdout and stderr with its
`runtime=` and `pointwise=` values masked. It prints every run that
differs and exits 1 if any does. Runs whose `pointwise=` count alone
changed are counted by the exceptional-set kind that `match-ends` printed.
It also counts, on this checkout's side, the `derivative --tree` runs by
outcome: each conflict kind, and the runs with a forced partner beyond the
window. Standard library only, plus the git command line.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from random import Random

from bench_json import ROOT, export, git

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import equivalent_descriptor, random_machine, tree_text  # noqa: E402
from treematch.cli import MAX_DUMP_LEVELS  # noqa: E402
from treematch.graph_core import AutomaticTree  # noqa: E402
from treematch.presets import BATTERY, BATTERY_ENDS  # noqa: E402

SWEEP_SEEDS = (("/",), ("/", "0/0/0"), ("1/0", "0/1/1", "1/1/1/1"))
SWEEP_BUDGET = "200"  # closure is cubic in its budget; the default takes minutes on bad-ray trees
RANDOM_MACHINES = 40
FINITE_MACHINES = 100
FINITE_DEPTHS = range(2, 7)
DEEP_WINDOWS = {"three_regular": (12, 14), "odd_comb": (12, 14), "even_comb": (12, 14),
                "line": (1999,)}

# Runs treematch.cli.run on each JSON argv line of stdin, from the src/
# directory given as its argument, and writes one JSON result line each:
# exit code, stdout sha256, stderr, and the "bset" line of the stdout, or
# for `derivative --tree` its outcome: "kind <conflict kind>", "beyond" when
# a forced pair's lower end is one level below the window, or "ok".
WORKER = r"""
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from treematch.cli import run
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(json.loads(line))
        except Exception as exc:  # the command itself would end with a traceback
            code = "traceback"
            print(f"{type(exc).__name__}: {exc}", file=err)
    text = out.getvalue()
    lines = text.splitlines()
    tag = next((s for s in lines if s.startswith(("bset ", "kind "))), "")
    argv = json.loads(line)
    if argv[:2] == ["derivative", "--tree"] and not tag:
        depth = int(argv[argv.index("--depth") + 1])
        lower_depths = (s.split()[2].count("/") + 1 for s in lines if s.startswith("m "))
        tag = "beyond" if depth + 1 in lower_depths else "ok"
    print(json.dumps([code, hashlib.sha256(text.encode()).hexdigest(), err.getvalue(), tag]))
"""

MASK = re.compile(r"\b(runtime|pointwise)=\S+")
RUNTIME = re.compile(r"\bruntime=\S+")


def tree_runs(path: Path, depth: int, end_groups, rewrite: Random) -> list:
    d = ["--tree", str(path), "--depth", str(depth)]
    runs = [["match-rooted", *d], ["derivative", *d]]
    for group in end_groups:
        for ends in (group, [equivalent_descriptor(e, rewrite) for e in group]):
            runs.append(["match-ends", *d, *(arg for e in ends for arg in ("--end", e))])
    for seeds in SWEEP_SEEDS:
        runs.append(["baire-sweep", *d, "--budget", SWEEP_BUDGET,
                     *(arg for s in seeds for arg in ("--seed", s))])
    return runs


def deep_runs(path: Path, depth: int, end_groups) -> list:
    d = ["--tree", str(path), "--depth", str(depth)]
    return [["match-rooted", *d], ["derivative", *d]] + [
        ["match-ends", *d, *(arg for e in group for arg in ("--end", e))] for group in end_groups
    ]


def finite_machine(rng: Random) -> AutomaticTree:
    """A layered machine: each state branches only into higher-numbered
    states and the last one has no children, so the tree is finite."""
    n = rng.randint(2, 5)
    branch = {f"s{i}": rng.randint(1, 3) for i in range(n - 1)}
    branch[f"s{n - 1}"] = 0
    step = {(f"s{i}", j): f"s{rng.randint(i + 1, n - 1)}"
            for i in range(n - 1) for j in range(branch[f"s{i}"])}
    return AutomaticTree.build("s0", branch, step)


def matrix(tree_dir: Path) -> list:
    runs = []
    rewrite = Random(17)
    for name in sorted(BATTERY):
        path = tree_dir / f"{name}.tree"
        path.write_text(tree_text(BATTERY[name]()))
        for depth in range(11):
            runs += tree_runs(path, depth, BATTERY_ENDS.get(name, []), rewrite)
    rng = Random(11)
    for k in range(RANDOM_MACHINES):
        t, ends = random_machine(rng)
        path = tree_dir / f"random{k}.tree"
        path.write_text(tree_text(t))
        for depth in range(8):
            runs += tree_runs(path, depth, [[e.render() for e in ends]], rewrite)
    rng = Random(7)
    for k in range(FINITE_MACHINES):
        path = tree_dir / f"finite{k}.tree"
        path.write_text(tree_text(finite_machine(rng)))
        runs += [["derivative", "--tree", str(path), "--depth", str(d)] for d in FINITE_DEPTHS]
    for name, depths in DEEP_WINDOWS.items():
        for depth in depths:
            runs += deep_runs(tree_dir / f"{name}.tree", depth, BATTERY_ENDS[name])
    runs += [["counterexample", "--levels", str(n)] for n in range(MAX_DUMP_LEVELS + 1)]
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision, e.g. HEAD~1 or a commit")
    args = p.parse_args(argv)

    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp:
        tmp = Path(tmp)
        export(parent_commit, tmp / "parent")
        (tmp / "trees").mkdir()
        runs = matrix(tmp / "trees")
        (tmp / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs))
        procs = {}
        for side, src in (("parent", tmp / "parent" / "src"), ("change", ROOT / "src")):
            with open(tmp / "runs.jsonl") as fin, open(tmp / f"{side}.jsonl", "w") as fout:
                procs[side] = subprocess.Popen([sys.executable, "-c", WORKER, str(src)],
                                               stdin=fin, stdout=fout, cwd=tmp)
        for side, proc in procs.items():
            if proc.wait() != 0:
                raise SystemExit(f"the {side} worker exited {proc.returncode}")
        parent, change = ([json.loads(s) for s in (tmp / f"{side}.jsonl").read_text().splitlines()]
                          for side in ("parent", "change"))

    differ = 0
    pointwise_only: Counter = Counter()
    derivative: Counter = Counter()
    for argv, old, new in zip(runs, parent, change):
        if argv[:2] == ["derivative", "--tree"]:
            derivative[new[3]] += 1
        old_err, new_err = MASK.sub(r"\1=", old[2]), MASK.sub(r"\1=", new[2])
        if old[:2] != new[:2] or old_err != new_err:
            differ += 1
            print(f"DIFF {' '.join(argv)}")
            print(f"  exit {old[0]} -> {new[0]}, stdout {old[1][:12]} -> {new[1][:12]}")
            if old_err != new_err:
                print(f"  stderr {old_err.strip()!r}\n      -> {new_err.strip()!r}")
        elif RUNTIME.sub("", old[2]) != RUNTIME.sub("", new[2]):
            pointwise_only[new[3] or argv[0]] += 1
    print(f"{len(runs)} runs, {differ} differ", end="")
    changed = ", ".join(f"{kind} {n}" for kind, n in sorted(pointwise_only.items()))
    print(f"; pointwise= alone changed on {sum(pointwise_only.values())}"
          + (f" ({changed})" if changed else ""))
    print(f"derivative --tree: {sum(derivative.values())} runs, "
          f"{derivative['kind double_forced']} double_forced and "
          f"{derivative['kind isolated']} isolated conflicts, "
          f"{derivative['beyond']} with a forced partner beyond the window")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
