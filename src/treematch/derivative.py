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

from .graph_core import FiniteGraph, Matching, Window


@dataclass(frozen=True)
class DerivativeResult:
    core: frozenset
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


def _run(names, nbrs, outside, max_rounds: int | None):
    """The derivative over vertex ids 0..n-1, n = len(names), with names[v]
    naming v in the result. nbrs[v] lists v's neighbours in ascending order;
    outside[v] counts v's children beyond the window, which always count as
    present. A vertex left with only such a child is forced into it: its
    partner is coded -1 - v and named names[v] + (0,)."""

    def name(v):
        return names[v] if v >= 0 else names[-1 - v] + (0,)

    def result(stabilized):
        core = frozenset(names[v] for v, a in enumerate(alive) if a)
        forced = Matching.of((name(a), name(b)) for a, b in pairs)
        return DerivativeResult(core, forced, tuple(trace), stabilized, rounds)

    n = len(names)
    alive = [True] * n
    degree = [len(nbrs[v]) + outside[v] for v in range(n)]
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
        for v in removed:
            if degree[v] == 0:
                return DerivativeConflict("isolated", name(v), (), stage, tuple(trace))
        partner = {v: next((w for w in nbrs[v] if alive[w]), -1 - v) for v in removed}
        # A removed vertex has at most one neighbour left, its partner, so
        # only a vertex kept in the odd stage can be forced twice.
        forced_by = {}
        for v in removed:
            forced_by.setdefault(partner[v], []).append(v)
        clashes = [w for w, forcers in forced_by.items() if len(forcers) >= 2]
        if clashes:
            w = min(clashes)
            bad = tuple(map(name, forced_by[w][:2]))
            return DerivativeConflict("double_forced", name(w), bad, stage, tuple(trace))
        pairs += [(v, w) for v, w in partner.items() if w not in partner or v < w]
        trace.append(trace[-1] - len(removed))
        # Each forced partner still present goes in the even stage; no two
        # forcers share one, so they are distinct.
        even = [w for w in partner.values() if w >= 0 and w not in partner]
        trace.append(trace[-1] - len(even))
        dead = removed + even
        for v in dead:
            alive[v] = False
        # Only the dead vertices' surviving neighbours lose degree, and every
        # other survivor kept degree two or more.
        touched = set()
        for v in dead:
            for w in nbrs[v]:
                if alive[w]:
                    degree[w] -= 1
                    touched.add(w)
        removed = sorted(w for w in touched if degree[w] <= 1)


def derive(g: FiniteGraph, max_rounds: int | None = None):
    """Run the derivative on a finite graph. Returns DerivativeResult or
    DerivativeConflict."""
    return _run(range(g.vertex_count), g.adjacency, [0] * g.vertex_count, max_rounds)


def derive_window(win: Window, max_rounds: int | None = None):
    """Run the derivative on a depth-bounded window of an AutomaticTree.

    Degrees are taken from the full tree: children beyond the window always
    count as present, so every pruning decision made here is also valid in the
    infinite tree. Forced partners may lie one level beyond the window.
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
    outside = [0] * boundary + [first[v + 1] - first[v] for v in range(boundary, n)]
    # One tuple: _run names a vertex by indexing it, and a tuple does that in C.
    return _run(tuple(win.paths), nbrs, outside, max_rounds)
