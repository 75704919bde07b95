"""Degree-derivative pruning.

Alternating stages shrink a vertex set: an odd stage deletes every vertex
whose remaining degree is at most one (degree one forces a pairing with the
unique remaining neighbor, degree zero is a conflict), and the following even
stage deletes the forced partners. The surviving core has minimum degree two;
on acyclic inputs a perfect matching exists iff no conflict arises, and the
forced pairs extend any perfect matching of the core.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _run(degree, neighbours, beyond, max_rounds: int | None):
    """The derivative over vertex ids 0..n-1, n = len(degree). degree lists
    each vertex's full degree, and the run counts it down in place as
    neighbours are deleted. neighbours(v) gives v's neighbours among the n
    ids; it is called only for deleted vertices. The rest of v's degree
    counts neighbours beyond the input, which always count as present: a
    vertex left with only such a neighbour is forced into beyond[v], an id
    of at least n."""

    def result(stabilized):
        core = frozenset(compress(range(n), alive))
        return DerivativeResult(core, Matching.of(pairs), tuple(trace), stabilized, rounds)

    n = len(degree)
    alive = [True] * n
    removed = list(compress(range(n), map((1).__ge__, degree)))
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
            for w in neighbours(v):
                if alive[w]:
                    break
            else:
                w = beyond[v]
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
            for w in neighbours(v):
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        dropped.append(w)
        removed = sorted(dropped)


def derive(g: FiniteGraph, max_rounds: int | None = None):
    """Run the derivative on a finite graph. Returns DerivativeResult or
    DerivativeConflict."""
    adjacency = g.adjacency  # every neighbour is inside: nothing lies beyond
    return _run(list(map(len, adjacency)), adjacency.__getitem__, None, max_rounds)


def derive_window(win: Window, max_rounds: int | None = None):
    """Run the derivative on a depth-bounded window of an AutomaticTree.

    Degrees are taken from the full tree: children beyond the window always
    count as present, so every pruning decision made here is also valid in the
    infinite tree. Vertices are named by window index; a forced partner one
    level beyond the window, by its index in the window one level deeper.
    Each vertex's degree is read off its state; its neighbours are found
    from child_start only when it is removed, so a window that no round
    prunes builds no neighbour lists.
    """
    if win.depth < 2:
        raise ValueError("window derivative needs depth >= 2")
    # Window indices follow shortlex order: a vertex's parent comes before
    # it and its children, next to each other from child_start, after it.
    # A boundary vertex's children lie beyond the window, from child_start
    # on, named by their indices in the window one level deeper.
    tree, first, boundary = win.tree, win.child_start, win.boundary_start
    full = {q: tree.branch_of(q) + 1 for q in tree.states}  # children and the parent
    degree = list(map(full.__getitem__, win.states))
    degree[0] -= 1  # the root has no parent

    def inside(v):
        # The parent is the last vertex whose children start at or before v.
        out = [bisect_right(first, v) - 1] if v else []
        if v < boundary:
            out += range(first[v], first[v + 1])
        return out

    return _run(degree, inside, first, max_rounds)
