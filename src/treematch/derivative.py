"""Degree-derivative pruning.

Alternating stages shrink a vertex set: an odd stage deletes every vertex
whose remaining degree is at most one (degree one forces a pairing with the
unique remaining neighbor, degree zero is a conflict), and the following even
stage deletes the forced partners. The surviving core has minimum degree two;
on acyclic inputs a perfect matching exists iff no conflict arises, and the
forced pairs extend any perfect matching of the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graph_core import FiniteGraph, Matching, Window


@dataclass(frozen=True)
class DerivativeResult:
    core: frozenset  # vertex ids, as in forced: window indices from derive_window
    forced: Matching
    trace: tuple  # stage sizes, the input's first
    stabilized: bool
    rounds: int


@dataclass(frozen=True)
class DerivativeConflict:
    kind: str  # "isolated" or "double_forced"
    vertex: object
    partners: tuple
    stage: int
    trace: tuple  # stage sizes, the input's first


def _run(nbrs, outside, max_rounds: int | None):
    """The derivative over vertex ids 0..n-1, n = len(nbrs). nbrs[v] lists
    v's neighbours in ascending order; outside[v] is the range of ids, each
    at least n, of v's neighbours beyond the input, which always count as
    present. A vertex left with only such a neighbour is forced into it."""

    def result(stabilized):
        core = frozenset(compress(range(n), alive))
        return DerivativeResult(core, Matching.of(pairs), tuple(trace), stabilized, rounds)

    n = len(nbrs)
    alive = [True] * n
    degree = [len(nbrs[v]) + len(outside[v]) for v in range(n)]
    removed = [v for v in range(n) if degree[v] <= 1]
    trace = [n]
    pairs = []
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return result(False)
        if not removed:
            return result(True)
        stage = 2 * rounds + 1
        rounds += 1
        forcer = {}  # partner -> the first removed vertex forced into it
        clash = None  # (lowest vertex forced twice, its first two forcers)
        for v in removed:
            if degree[v] == 0:
                return DerivativeConflict("isolated", v, (), stage, tuple(trace))
            # Degree one: the one neighbour left is alive inside or beyond.
            for w in nbrs[v]:
                if alive[w]:
                    break
            else:
                w = outside[v][0]
            u = forcer.setdefault(w, v)
            if u != v and (clash is None or w < clash[0]):
                clash = (w, u, v)
        # A removed vertex has at most one neighbour left, its partner, so
        # only a vertex kept in the odd stage can be forced twice.
        if clash:
            return DerivativeConflict("double_forced", clash[0], clash[1:], stage, tuple(trace))
        for v in removed:
            alive[v] = False
        trace.append(trace[-1] - len(removed))
        # Each forced partner still present goes in the even stage; a pair of
        # removed vertices forced into each other is recorded once.
        even = [w for w in forcer if w < n and alive[w]]
        pairs += [(v, w) for w, v in forcer.items() if w >= n or alive[w] or v < w]
        trace.append(trace[-1] - len(even))
        for w in even:
            alive[w] = False
        # Only the dead vertices' surviving neighbours lose degree, and every
        # other survivor kept degree two or more, so each one that drops to
        # one or below reaches one exactly once.
        dropped = []
        for v in removed + even:
            for w in nbrs[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        dropped.append(w)
        removed = sorted(dropped)


def derive(g: FiniteGraph, max_rounds: int | None = None):
    """Run the derivative on a finite graph. Returns DerivativeResult or
    DerivativeConflict."""
    return _run(g.adjacency, [()] * g.vertex_count, max_rounds)


def derive_window(win: Window, max_rounds: int | None = None):
    """Run the derivative on a depth-bounded window of an AutomaticTree.

    Degrees are taken from the full tree: children beyond the window always
    count as present, so every pruning decision made here is also valid in the
    infinite tree. Vertices are named by window index; a forced partner one
    level beyond the window, by its index in the window one level deeper.
    """
    if win.depth < 2:
        raise ValueError("window derivative needs depth >= 2")
    # Window indices follow shortlex order: a vertex's parent comes before
    # it and its children, next to each other from child_start, after it.
    first, boundary, n = win.child_start, win.boundary_start, len(win.states)
    nbrs = [[] for _ in range(n)]
    for v in range(boundary):
        for w in range(first[v], first[v + 1]):
            nbrs[v].append(w)
            nbrs[w].append(v)
    outside = [()] * boundary + [range(first[v], first[v + 1]) for v in range(boundary, n)]
    return _run(nbrs, outside, max_rounds)
