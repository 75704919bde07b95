"""Shared fixtures and checking helpers for the test suite."""

import contextlib
import io

import pytest

from treematch import AutomaticTree, EndDescriptor, FiniteGraph, shortlex, validate_end
from treematch.cli import run as cli_run_raw
from treematch.presets import BATTERY


@pytest.fixture(scope="session")
def battery():
    """Name -> built battery tree, one instance per session."""
    return {name: build() for name, build in BATTERY.items()}


def cli_run(argv):
    """Run the CLI entry point capturing (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run_raw(list(argv))
    return code, out.getvalue(), err.getvalue()


def tree_text(t: AutomaticTree) -> str:
    """The machine in the CLI's tree file format."""
    lines = ["tree"]
    lines += [f"state {q} branch {t.branch_of(q)}" for q in t.states]
    lines.append(f"root {t.root_state}")
    for q in t.states:
        lines += [f"trans {q} {i} {t.step(q, i)}" for i in range(t.branch_of(q))]
    return "\n".join(lines) + "\n"


def random_machine(rng):
    """A machine with at most 3 states and branch at most 3 whose root has
    at least two children, and 1-3 random valid ends of it."""
    while True:
        states = [f"S{i}" for i in range(rng.randint(1, 3))]
        branch = {q: rng.randint(0, 3) for q in states}
        branch["S0"] = rng.randint(2, 3)
        step = {(q, i): rng.choice(states) for q in states for i in range(branch[q])}
        t = AutomaticTree.build("S0", branch, step)
        ends = []
        for _ in range(rng.randint(1, 3)):
            for _ in range(50):
                e = EndDescriptor(tuple(rng.randrange(3) for _ in range(rng.randint(0, 2))),
                                  tuple(rng.randrange(3) for _ in range(rng.randint(1, 2))))
                if validate_end(t, e):
                    ends.append(e)
                    break
        if ends:
            return t, ends


def equivalent_descriptor(text: str, rng) -> str:
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


def induced_tree_graph(t: AutomaticTree, vertices):
    """FiniteGraph on the given tree vertices with the edges they induce.

    Returns (graph, ordered vertex list); ids follow shortlex order.
    """
    order = sorted(set(vertices), key=shortlex)
    index = {v: i for i, v in enumerate(order)}
    edges = set()
    for v in order:
        if v and v[:-1] in index:
            edges.add((index[v[:-1]], index[v]))
    return FiniteGraph.from_edges(len(order), edges), order


def check_window_matching(t: AutomaticTree, oracle, depth, excluded=None):
    """Assert the oracle is a total involution into tree edges on the window,
    skipping vertices for which `excluded` holds; partner raises ValueError
    at a vertex outside the domain. Returns vertices checked."""
    skip = excluded or (lambda v: False)
    checked = 0
    for v in t.window(depth).paths:
        if skip(v):
            continue
        p = oracle.partner(v)
        assert abs(len(p) - len(v)) == 1, f"partner of {v} is {p}, not a neighbor"
        shorter, longer = (p, v) if len(p) < len(v) else (v, p)
        assert longer[: len(shorter)] == shorter, f"{v} paired across the tree with {p}"
        assert t.is_valid_vertex(p)
        assert not skip(p), f"{v} matched into the excluded set at {p}"
        assert oracle.partner(p) == v, f"not an involution at {v}"
        checked += 1
    return checked


def longest_window_bad_path(t: AutomaticTree, depth: int, cap: int) -> int:
    """Exhaustive search: the longest injective path inside window(depth)
    whose even-position vertices have full-tree degree exactly two,
    truncated at cap vertices."""
    win = t.window(depth)
    members = set(win.paths)
    best = 0

    def extend(path, on_path):
        nonlocal best
        best = max(best, len(path))
        if len(path) >= cap:
            return
        for w in t.neighbors(path[-1]):
            if w not in members or w in on_path:
                continue
            if len(path) % 2 == 0 and t.degree(w) != 2:
                continue
            path.append(w)
            on_path.add(w)
            extend(path, on_path)
            path.pop()
            on_path.discard(w)

    for start in win.paths:
        if t.degree(start) != 2:
            continue
        extend([start], {start})
        if best >= cap:
            break
    return best
