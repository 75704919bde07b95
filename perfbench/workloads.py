"""The benchmark's workloads: seeded inputs, the ops of one round, and an
independent check of every op's output.

A workload is built once per set-up from (library modules, seed, work
directory). round_ops(r) returns the ops of round r; every round has the same
mix of work, so a run of any whole number of rounds measures the same thing.
Ops look library functions up through their modules at call time, so the
tracer's wrappers see them. Checks use the benchmark's own machine specs,
enumerations and matching checks, never the library's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

# -- shared pieces ----------------------------------------------------------


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    items: int  # work units the op completes; counted only when its check passes
    check: Callable[[object], "str | None"]  # returns a failure message or None
    cleanup: Callable[[], None] | None = None  # untimed, after the check


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(tm, argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tm.cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Machine:
    """A branching machine spec held by the benchmark: the tree file it
    writes, and its own vertex arithmetic for checking outputs."""

    def __init__(self, root: str, branch: dict, step: dict):
        self.root = root
        self.branch = branch
        self.step = step

    def text(self) -> str:
        lines = ["tree"]
        lines += [f"state {q} branch {k}" for q, k in sorted(self.branch.items())]
        lines.append(f"root {self.root}")
        lines += [f"trans {q} {i} {r}" for (q, i), r in sorted(self.step.items())]
        return "\n".join(lines) + "\n"

    def build(self, tm):
        return tm.graph_core.AutomaticTree(self.root, dict(self.branch), dict(self.step))

    def state(self, v: tuple):
        q = self.root
        for i in v:
            if not 0 <= i < self.branch[q]:
                return None
            q = self.step[(q, i)]
        return q

    def window(self, depth: int) -> list:
        """All vertices of path length <= depth, level by level."""
        level = [((), self.root)]
        out = [()]
        for _ in range(depth):
            nxt = []
            for v, q in level:
                for i in range(self.branch[q]):
                    nxt.append((v + (i,), self.step[(q, i)]))
            out.extend(v for v, _ in nxt)
            level = nxt
        return out

    def window_size(self, depth: int) -> int:
        counts = {self.root: 1}
        total = 1
        for _ in range(depth):
            nxt: dict = {}
            for q, c in counts.items():
                for i in range(self.branch[q]):
                    r = self.step[(q, i)]
                    nxt[r] = nxt.get(r, 0) + c
            counts = nxt
            total += sum(counts.values())
        return total

    def is_edge(self, a: tuple, b: tuple) -> bool:
        short, long_ = (a, b) if len(a) < len(b) else (b, a)
        return (
            len(long_) == len(short) + 1
            and long_[:-1] == short
            and self.state(long_) is not None
        )

    def neighbors(self, v: tuple) -> list:
        q = self.state(v)
        out = [v + (i,) for i in range(self.branch[q])]
        if v:
            out.append(v[:-1])
        return out


def _full(branch: dict, step: dict) -> dict:
    """Transitions with omitted ones filled in as self-loops."""
    full = dict(step)
    for q, k in branch.items():
        for i in range(k):
            full.setdefault((q, i), q)
    return full


def _machine(root, branch, step=None) -> Machine:
    return Machine(root, branch, _full(branch, step or {}))


MACHINES = {
    "three_regular": _machine(
        "r", {"r": 3, "b": 2}, {("r", 0): "b", ("r", 1): "b", ("r", 2): "b"}
    ),
    "odd_comb": _machine(
        "root", {"root": 3, "Ll": 2, "Lr": 2, "B": 2},
        {("root", 0): "Ll", ("root", 1): "Lr", ("root", 2): "B",
         ("Ll", 0): "Ll", ("Ll", 1): "B", ("Lr", 0): "Lr", ("Lr", 1): "B"},
    ),
    "even_comb": _machine(
        "C0", {"C0": 3, "Lo": 1, "Le": 2, "Ro": 1, "Re": 2, "B": 2},
        {("C0", 0): "Lo", ("C0", 1): "Ro", ("C0", 2): "B", ("Lo", 0): "Le",
         ("Le", 0): "Lo", ("Le", 1): "B", ("Ro", 0): "Re", ("Re", 0): "Ro",
         ("Re", 1): "B"},
    ),
    "binary": _machine("b", {"b": 2}),
    "mixed_period": _machine(
        "R", {"R": 2, "P": 2, "Q": 3, "B": 2},
        {("R", 0): "P", ("R", 1): "B", ("P", 0): "Q", ("P", 1): "B",
         ("Q", 0): "P", ("Q", 1): "B", ("Q", 2): "B"},
    ),
    "ray_comb": _machine("RC", {"RC": 2, "B": 2}, {("RC", 0): "RC", ("RC", 1): "B"}),
}


def parse_vertex(text: str) -> tuple:
    return () if text == "/" else tuple(int(p) for p in text.split("/"))


def check_pairs(machine: Machine, pairs: list, must_cover, must_avoid=frozenset()) -> str | None:
    """pairs form a matching on tree edges that covers every vertex of
    must_cover and touches none of must_avoid."""
    matched = set()
    for a, b in pairs:
        if not machine.is_edge(a, b):
            return f"pair {a} {b} is not a tree edge"
        if a in matched or b in matched:
            return f"pair {a} {b} reuses a matched vertex"
        matched.add(a)
        matched.add(b)
    for v in must_cover:
        if v not in matched:
            return f"vertex {v} is unmatched"
    for v in must_avoid:
        if v in matched:
            return f"exceptional vertex {v} is matched"
    return None


class ReferenceOutputs:
    """The first output of each op key; later repeats must be identical."""

    def __init__(self):
        self._seen: dict = {}

    def first_time(self, key, value) -> tuple:
        """(is first, failure message if a repeat differs)."""
        if key not in self._seen:
            self._seen[key] = value
            return True, None
        if self._seen[key] != value:
            return False, f"{key}: output differs from the first run"
        return False, None


# -- tree-windows -----------------------------------------------------------

TREE_MACHINES = ("three_regular", "odd_comb", "even_comb")
TREE_DEPTHS = (10, 12, 14)
# Each depth-10 command runs three times a round. The median op is then one
# of those small-window calls, not a boundary between two window sizes, which
# keeps op_p50_ms steady from run to run.
SMALL_DEPTH_REPEATS = {10: 3}
# Groups of pairwise inequivalent ends per machine, as in the library's battery.
TREE_ENDS = {
    "three_regular": (("|0",), ("|0", "|1"), ("|0", "|1", "2|0")),
    "odd_comb": (("|0",), ("|0", "1|0"), ("|0", "1|0", "2|0")),
    "even_comb": (("|0",), ("|0", "1|0")),
}
NO_BAD_RAY = {"three_regular", "odd_comb"}


def equivalent_descriptor(text: str, rng: random.Random) -> str:
    """Another descriptor of the same ray: unroll the period into the
    preperiod some times, and maybe double the period."""
    pre_text, per_text = text.split("|")
    pre = pre_text.split(",") if pre_text else []
    per = per_text.split(",")
    for _ in range(rng.randrange(3)):
        pre.append(per[0])
        per = per[1:] + per[:1]
    if rng.random() < 0.5:
        per = per + per
    return ",".join(pre) + "|" + ",".join(per)


class TreeWindows:
    """CLI match-rooted, match-ends and derivative --tree on windows of the
    3-regular, odd-comb and even-comb machines at depths 10, 12 and 14."""

    name = "tree-windows"

    def __init__(self, tm, seed: int, workdir: str):
        self.tm = tm
        self.seed = seed
        self.refs = ReferenceOutputs()
        self.files = {}
        self.windows = {}
        for name in TREE_MACHINES:
            path = os.path.join(workdir, f"{name}.tree")
            with open(path, "w") as fh:
                fh.write(MACHINES[name].text())
            self.files[name] = path
            for depth in TREE_DEPTHS:
                self.windows[(name, depth)] = MACHINES[name].window_size(depth)
        # Warm-up: every command once on a small window.
        for op in self._ops(random.Random(f"{seed}:warm-up"), depths=(4,)):
            op.run()

    def round_ops(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = self._ops(rng, TREE_DEPTHS)
        rng.shuffle(ops)
        return ops

    def _ops(self, rng: random.Random, depths) -> list:
        ops = []
        for name in TREE_MACHINES:
            path = self.files[name]
            for depth in depths:
                base = ["--tree", path, "--depth", str(depth)]
                for _ in range(SMALL_DEPTH_REPEATS.get(depth, 1)):
                    ops.append(self._op(name, depth, "match-rooted", ["match-rooted"] + base))
                    ops.append(self._op(name, depth, "derivative", ["derivative"] + base))
                    for group in TREE_ENDS[name]:
                        ends = [equivalent_descriptor(e, rng) for e in group]
                        rng.shuffle(ends)
                        argv = ["match-ends"] + base
                        for e in ends:
                            argv += ["--end", e]
                        ops.append(
                            self._op(name, depth, f"match-ends/{len(group)}", argv, len(group))
                        )
        return ops

    def _op(self, name, depth, kind, argv, n_ends=0) -> Op:
        key = (name, depth, kind)
        return Op(
            label=f"{kind} {name} depth {depth}",
            run=lambda: run_cli(self.tm, argv),
            items=self.windows.get((name, depth), 0),
            check=lambda res: self._check(key, n_ends, res),
        )

    def _check(self, key, n_ends, res: CliResult) -> str | None:
        if res.code != 0:
            return f"{key}: exit code {res.code}: {res.stderr.strip()[:200]}"
        first, failure = self.refs.first_time(key, digest(res.stdout))
        if not first:
            return failure
        name, depth, kind = key
        machine = MACHINES[name]
        win = machine.window(depth)
        lines = [line.split() for line in res.stdout.splitlines()]
        pairs = [(parse_vertex(w[1]), parse_vertex(w[2])) for w in lines if w[0] == "m"]
        if kind == "match-rooted":
            if len(pairs) != len(lines):
                return f"{key}: unexpected lines in the output"
            return check_pairs(machine, pairs, win)
        if kind == "derivative":
            if lines[0] != ["outcome", "ok"]:
                return f"{key}: outcome {lines[0]}"
            core = {parse_vertex(w[1]) for w in lines if w[0] == "core"}
            failure = check_pairs(machine, pairs, [v for v in win if v not in core], core)
            if failure is None and not core <= set(win):
                failure = "core vertex outside the window"
            return failure
        if lines[0] != ["ends", str(n_ends)]:
            return f"{key}: expected {n_ends} ends, got {lines[0]}"
        kind_line = lines[1]
        b_set = {parse_vertex(w[1]) for w in lines if w[0] == "b"}
        if name in NO_BAD_RAY and (kind_line != ["bset", "empty"] or b_set):
            return f"{key}: nonempty exceptional set on a tree with no bad ray"
        return check_pairs(machine, pairs, [v for v in win if v not in b_set], b_set)


# -- pair-recursion ---------------------------------------------------------

PAIR_LEVELS = (16, 18, 20)
DUMP_LEVELS = tuple(range(11))  # every level up to the CLI's cap of 10
# Three dumps of each level a round: repeats are checked byte for byte, and
# with 51 ops the median and p75 fall on groups of identical dumps rather than
# between two different calls.
DUMP_REPEATS = 3


def pair_count(n: int) -> int:
    """|R_n|: an odd step doubles and adds the scheduled pair, an even step
    doubles."""
    a = 0
    for k in range(n):
        a = 2 * a + 1 if k % 2 == 0 else 2 * a
    return a


class PairRecursion:
    """levels(n) and the four checkers at levels 16, 18 and 20, plus the CLI
    counterexample dump at every level up to 10."""

    name = "pair-recursion"

    def __init__(self, tm, seed: int, workdir: str):
        self.tm = tm
        self.seed = seed
        self.refs = ReferenceOutputs()
        self.current = None
        # Warm-up: a small level through every call, and a small dump.
        for op in self._level_ops(8, random.Random(0)) + [self._dump_op(3)]:
            op.run()
        self.current = None

    def round_ops(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        # Levels run in rising order and the dumps after them, never while a
        # level system is held, so the seed cannot change the peak memory.
        ops = [op for n in PAIR_LEVELS for op in self._level_ops(n, rng)]
        dumps = [self._dump_op(level) for level in DUMP_LEVELS * DUMP_REPEATS]
        rng.shuffle(dumps)
        return ops + dumps

    def _level_ops(self, n: int, rng: random.Random) -> list:
        ce = lambda: self.tm.counterexample  # noqa: E731
        strings = 1 << n

        def run_levels():
            last = None
            for last in ce().levels(n):
                pass
            self.current = last
            return last

        checkers = [
            Op(f"check_condition1 {n}", lambda: ce().check_condition1(self.current), strings,
               lambda res: None if res[0] else f"condition 1 fails at level {n}"),
            Op(f"check_condition2 {n}", lambda: ce().check_condition2(self.current), strings,
               lambda res: None if res[0] else f"condition 2 fails at level {n}"),
            Op(f"check_acyclic {n}", lambda: ce().check_acyclic(self.current), pair_count(n),
               lambda res: None if res[0] else f"cycle at level {n}: {res[1]}"),
            Op(f"section_report {n}", lambda: ce().section_report(self.current, 1), 2 * strings - 1,
               lambda res: self._check_section(n, res)),
            Op(f"s_size {n}", lambda: self.current.s_size(), strings,
               lambda res: self._check_s_size(n, res)),
        ]
        rng.shuffle(checkers)
        checkers[-1].cleanup = self._release
        return [Op(f"levels {n}", run_levels, 0, lambda ls: self._check_level(n, ls))] + checkers

    def _release(self) -> None:
        self.current = None

    def _check_level(self, n: int, ls) -> str | None:
        if ls is None or ls.n != n:
            return f"levels({n}) stopped early"
        if len(ls.pairs) != pair_count(n):
            return f"level {n}: {len(ls.pairs)} pairs, expected {pair_count(n)}"
        if len(ls.prunes) != n // 2:
            return f"level {n}: {len(ls.prunes)} prune records, expected {n // 2}"
        if any(len(u) != n or len(v) != n for u, v in ls.pairs):
            return f"level {n}: a pair has strings of the wrong length"
        return None

    def _check_section(self, n: int, rep) -> str | None:
        if rep.n != n or rep.k != 1 or rep.codimension != n - rep.max_passing_len:
            return f"level {n}: inconsistent section report"
        return self.refs.first_time(("section", n), rep)[1]

    def _check_s_size(self, n: int, size: int) -> str | None:
        if not pair_count(n) <= size <= 1 << (2 * n):
            return f"level {n}: |S| = {size} out of range"
        return self.refs.first_time(("s_size", n), size)[1]

    def _dump_op(self, levels: int) -> Op:
        argv = ["counterexample", "--levels", str(levels)]
        return Op(f"counterexample --levels {levels}", lambda: run_cli(self.tm, argv), 0,
                  lambda res: self._check_dump(levels, res))

    def _check_dump(self, levels: int, res: CliResult) -> str | None:
        if res.code != 0:
            return f"dump {levels}: exit code {res.code}: {res.stderr.strip()[:200]}"
        first, failure = self.refs.first_time(("dump", levels), digest(res.stdout))
        if not first:
            return failure
        r_counts = []
        for line in res.stdout.splitlines():
            if line.startswith("level "):
                r_counts.append(0)
            elif line.startswith("R "):
                r_counts[-1] += 1
        expected = [pair_count(k) for k in range(levels + 1)]
        if r_counts != expected:
            return f"dump {levels}: R sizes {r_counts}, expected {expected}"
        return None


# -- finite-certify ---------------------------------------------------------

TREE_SIZES = (12, 13, 14)
RANDOM_FORESTS = 4096
GRAPH_BATCHES = 54  # about 1,000 graphs each
UNICYCLIC_GRAPHS = 1024
UNICYCLIC_BATCHES = 4
SWEEP_MACHINES = ("binary", "three_regular", "odd_comb", "mixed_period", "ray_comb")
SWEEP_STEPS = 6
SWEEP_SEEDS = 3
SWEEP_SEED_DEPTH = 5
SWEEP_CHECK_DEPTH = 10


def level_sequences(n: int):
    """Canonical level sequences of all rooted trees on n vertices."""
    s = list(range(1, n + 1))
    while True:
        yield tuple(s)
        p = n - 1
        while p >= 0 and s[p] <= 2:
            p -= 1
        if p < 0:
            return
        q = p - 1
        while s[q] != s[p] - 1:
            q -= 1
        for i in range(p, n):
            s[i] = s[i - (p - q)]


def tree_edges(seq) -> list:
    last_at_level: dict = {}
    edges = []
    for i, lev in enumerate(seq):
        if i:
            edges.append((last_at_level[lev - 1], i))
        last_at_level[lev] = i
    return edges


def random_forest_edges(rng: random.Random, max_vertices: int = 16) -> tuple:
    n = rng.randrange(1, max_vertices + 1)
    return n, [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.85]


def has_perfect_matching(n: int, edges: list) -> bool:
    """Forest leaf-stripping: a leaf must pair with its only neighbour."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    leaves = [v for v in alive if len(adj[v]) <= 1]
    while leaves:
        v = leaves.pop()
        if v not in alive:
            continue
        if not adj[v]:
            return False
        (u,) = adj[v]
        for x in (v, u):
            alive.discard(x)
            for w in adj[x]:
                adj[w].discard(x)
                if w in alive and len(adj[w]) <= 1:
                    leaves.append(w)
            adj[x] = set()
    return not alive


def matching_error(n: int, edge_set: set, pairs, perfect: bool) -> str | None:
    used = set()
    for a, b in pairs:
        if (min(a, b), max(a, b)) not in edge_set:
            return f"pair {a} {b} is not an edge"
        if a in used or b in used:
            return f"pair {a} {b} reuses a vertex"
        used.update((a, b))
    if perfect and len(used) != n:
        return "matching is not perfect"
    return None


def unicyclic_graph(rng: random.Random) -> tuple:
    """A random tree plus one edge closing a cycle of length >= 3, with the
    generating map f: around the cycle, and toward the cycle elsewhere."""
    n = rng.randrange(5, 17)
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    edges = {(parent[i], i) for i in range(1, n)}
    while True:
        a, b = sorted(rng.sample(range(n), 2))
        if parent[b] != a and parent[a] != b:
            break

    def ancestors(v):
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    up_a, up_b = ancestors(a), ancestors(b)
    common = next(v for v in up_a if v in set(up_b))
    cycle = up_a[: up_a.index(common) + 1] + up_b[: up_b.index(common)][::-1]
    f = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
    adj = [[] for _ in range(n)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    queue = list(cycle)
    for v in queue:
        for w in adj[v]:
            if w not in f:
                f[w] = v
                queue.append(w)
    edges.add((a, b))
    return n, sorted(edges), f


class FiniteCertify:
    """derive against max_matching and the forest greedy matcher on all trees
    of 12-14 vertices and seeded random forests, subdivision round trips on
    unicyclic graphs, and chains of sweep_step on trees with no bad ray."""

    name = "finite-certify"

    def __init__(self, tm, seed: int, workdir: str):
        self.tm = tm
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        fg = tm.graph_core.FiniteGraph
        specs = [(n, tree_edges(seq)) for n in TREE_SIZES for seq in level_sequences(n)]
        specs += [random_forest_edges(rng) for _ in range(RANDOM_FORESTS)]
        rng.shuffle(specs)
        graphs = [(fg.from_edges(n, edges), n, edges) for n, edges in specs]
        self.graph_batches = [graphs[i::GRAPH_BATCHES] for i in range(GRAPH_BATCHES)]
        cyclic = []
        for _ in range(UNICYCLIC_GRAPHS):
            n, edges, f = unicyclic_graph(rng)
            cyclic.append((fg.from_edges(n, edges), n, edges, f))
        self.cyclic_batches = [cyclic[i::UNICYCLIC_BATCHES] for i in range(UNICYCLIC_BATCHES)]
        self.trees = {name: MACHINES[name].build(tm) for name in SWEEP_MACHINES}
        self.check_window = {
            name: MACHINES[name].window(SWEEP_CHECK_DEPTH) for name in SWEEP_MACHINES
        }
        self.refs = ReferenceOutputs()
        self.chains: dict = {}  # machine -> removed set after each sweep step
        # Warm-up: one op of each kind.
        for op in (self._graph_op(self.graph_batches[0][:8]),
                   self._cyclic_op(self.cyclic_batches[0][:8]),
                   self._sweep_op(SWEEP_MACHINES[0])):
            op.run()

    def round_ops(self, r: int) -> list:
        self.chains = {}
        ops = [self._graph_op(b) for b in self.graph_batches]
        ops += [self._cyclic_op(b) for b in self.cyclic_batches]
        ops += [self._sweep_op(name) for name in SWEEP_MACHINES for _ in range(SWEEP_STEPS)]
        random.Random(f"{self.name}:{self.seed}:order").shuffle(ops)
        return ops

    def _graph_op(self, batch) -> Op:
        tm = self.tm

        def run():
            return [
                (tm.derivative.derive(g), tm.oracle.max_matching(g),
                 tm.oracle.greedy_forest_matching(g))
                for g, _, _ in batch
            ]

        def check(results):
            for (g, n, edges), (der, mm, greedy) in zip(batch, results):
                edge_set = {(min(a, b), max(a, b)) for a, b in edges}
                perfect = has_perfect_matching(n, edges)
                derive_ok = isinstance(der, tm.derivative.DerivativeResult) and not der.core
                if derive_ok != perfect or (2 * len(mm) == n) != perfect or greedy.ok != perfect:
                    return f"{n}-vertex forest {edges}: matchers disagree on perfect matchability"
                failure = (
                    matching_error(n, edge_set, mm.pairs, perfect)
                    or (perfect and matching_error(n, edge_set, der.forced.pairs, True))
                    or (perfect and matching_error(n, edge_set, greedy.matching.pairs, True))
                )
                if failure:
                    return f"{n}-vertex forest {edges}: {failure}"
            return None

        return Op("derive/max_matching/greedy batch", run, sum(n for _, n, _ in batch), check)

    def _cyclic_op(self, batch) -> Op:
        sub = lambda: self.tm.subdivision  # noqa: E731

        def run():
            out = []
            for g, _, _, f in batch:
                sd = sub().subdivide(g)
                m = sub().orientation_to_matching(g, f)
                out.append((sd, m, sub().matching_to_orientation(g, m)))
            return out

        def check(results):
            for (g, n, edges, f), (sd, m, f_back) in zip(batch, results):
                if f_back != f:
                    return f"round trip changed the orientation of {edges}"
                expected = set()
                for j, (a, b) in enumerate(edges):
                    expected |= {(a, n + j), (b, n + j)}
                if sd.graph.vertex_count != n + len(edges) or set(sd.graph.edges) != expected:
                    return f"subdivision of {edges} has the wrong edges"
                edge_id = {e: n + j for j, e in enumerate(edges)}
                want = {(x, edge_id[(min(x, f[x]), max(x, f[x]))]) for x in range(n)}
                if {(min(p), max(p)) for p in m.pairs} != want:
                    return f"matching of the subdivision of {edges} is not the one f induces"
            return None

        return Op("subdivision round-trip batch", run, sum(n for _, n, _, _ in batch), check)

    def _sweep_op(self, name: str) -> Op:
        machine = MACHINES[name]
        state = {}

        def run():
            chain = self.chains.setdefault(name, [])
            removed = chain[-1] if chain else frozenset()
            step = len(chain)
            rng = random.Random(f"{self.name}:{self.seed}:{name}:{step}")
            candidates = [
                v for v in machine.window(SWEEP_SEED_DEPTH)
                if v not in removed and all(w not in removed for w in machine.neighbors(v))
            ]
            seeds = rng.sample(candidates, SWEEP_SEEDS)
            state.update(removed=removed, seeds=seeds, step=step)
            return self.tm.baire.sweep_step(
                self.trees[name], seeds, removed=removed, check_depth=SWEEP_CHECK_DEPTH
            )

        def check(res):
            removed, seeds, step = state["removed"], state["seeds"], state["step"]
            self.chains[name].append(res.removed)
            if not res.remainder.clean:
                return f"{name} step {step}: remainder check failed"
            if len(res.kept) + len(res.dropped) != len(set(seeds)) or not res.kept:
                return f"{name} step {step}: kept {len(res.kept)} of {len(seeds)} seeds"
            pairs = res.matching.pairs
            matched = {v for p in pairs for v in p}
            if matched != res.removed - removed or not removed <= res.removed:
                return f"{name} step {step}: the matching does not cover the removed set"
            for a, b in pairs:
                if not machine.is_edge(a, b):
                    return f"{name} step {step}: pair {a} {b} is not a tree edge"
            if 2 * len(pairs) != len(matched):
                return f"{name} step {step}: matching pairs overlap"
            for v in self.check_window[name]:
                if v not in res.removed and sum(
                    w not in res.removed for w in machine.neighbors(v)
                ) < 2:
                    return f"{name} step {step}: {v} keeps fewer than two neighbours"
            return self.refs.first_time((name, step), res.removed)[1]

        return Op(f"sweep_step {name}", run, len(self.check_window[name]), check)


WORKLOADS = {w.name: w for w in (TreeWindows, PairRecursion, FiniteCertify)}
