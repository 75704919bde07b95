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
from typing import Callable

from .graph_core import (
    ROOT,
    FiniteGraph,
    Matching,
    Window,
    _vertex_key,
)


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


def _run(
    start,
    alive_neighbors: Callable,
    outside_count: Callable,
    outside_partner: Callable,
    max_rounds: int | None,
):
    x_set = set(start)
    trace = [len(x_set)]
    pairs = []
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return DerivativeResult(
                frozenset(x_set), Matching.of(pairs), tuple(trace), False, rounds
            )
        stage = 2 * rounds + 1
        degree_of = {}
        for v in x_set:
            degree_of[v] = len(alive_neighbors(v, x_set)) + outside_count(v)
        removed = {v for v in x_set if degree_of[v] <= 1}
        if not removed:
            return DerivativeResult(
                frozenset(x_set), Matching.of(pairs), tuple(trace), True, rounds
            )
        rounds += 1
        isolated = sorted((v for v in removed if degree_of[v] == 0), key=_vertex_key)
        if isolated:
            return DerivativeConflict("isolated", isolated[0], (), stage, tuple(trace))
        partner = {}
        for v in sorted(removed, key=_vertex_key):
            inside = alive_neighbors(v, x_set)
            partner[v] = inside[0] if inside else outside_partner(v)
        forced_by = {}
        for v in sorted(removed, key=_vertex_key):
            forced_by.setdefault(partner[v], []).append(v)
        for target in sorted(forced_by, key=_vertex_key):
            forcers = forced_by[target]
            if target in removed:
                others = [v for v in forcers if v != partner[target]]
                if others:
                    bad = sorted([others[0], partner[target]], key=_vertex_key)
                    return DerivativeConflict(
                        "double_forced", target, tuple(bad), stage, tuple(trace)
                    )
            elif len(forcers) >= 2:
                return DerivativeConflict(
                    "double_forced", target, tuple(forcers[:2]), stage, tuple(trace)
                )
        for v in sorted(removed, key=_vertex_key):
            if partner[v] not in removed or _vertex_key(v) < _vertex_key(partner[v]):
                pairs.append((v, partner[v]))
        x_odd = x_set - removed
        trace.append(len(x_odd))
        even_removed = {partner[v] for v in removed if partner[v] in x_odd}
        x_set = x_odd - even_removed
        trace.append(len(x_set))


def derive(g: FiniteGraph, max_rounds: int | None = None):
    """Run the derivative on a finite graph. Returns DerivativeResult or
    DerivativeConflict."""

    def alive_neighbors(v, x_set):
        return [w for w in g.neighbors(v) if w in x_set]

    return _run(range(g.vertex_count), alive_neighbors, lambda v: 0, lambda v: None, max_rounds)


def derive_window(win: Window, max_rounds: int | None = None):
    """Run the derivative on a depth-bounded window of an AutomaticTree.

    Degrees are taken from the full tree: children beyond the window always
    count as present, so every pruning decision made here is also valid in the
    infinite tree. Forced partners may lie one level beyond the window.
    """
    if win.depth < 2:
        raise ValueError("window derivative needs depth >= 2")
    t, depth = win.tree, win.depth
    # Each vertex's neighbors in window order, which decides a forced
    # vertex's partner: its parent, then its children, which are the next
    # branch_of(state) window paths not yet taken.
    nbrs = {ROOT: ()}
    outside = {}  # boundary vertex -> its child count; all lie beyond the window
    taken = 1
    for v, q in zip(win.paths, win.states):
        k = t.branch_of(q)
        if len(v) == depth:
            outside[v] = k
            continue
        children = win.paths[taken : taken + k]
        taken += k
        nbrs[v] += children
        for w in children:
            nbrs[w] = (v,)

    def alive_neighbors(v, x_set):
        return [w for w in nbrs[v] if w in x_set]

    def outside_count(v):
        return outside.get(v, 0)

    def outside_partner(v):
        # Only called when v has exactly one neighbor overall and it lies
        # beyond the window: the single child of a boundary vertex.
        return v + (0,)

    return _run(win.paths, alive_neighbors, outside_count, outside_partner, max_rounds)
