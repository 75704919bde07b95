"""Closure, buffer, and sweep machinery for matching finitely presented
trees in finite certified bites.

A closure grows a finite set S around a seed until every outside vertex
keeps degree >= 2 in the complement, pairing forced vertices as it goes. A
buffer pads S to a set T thick enough that no path which alternates through
degree-2 complement vertices can cross from the edge of S out of T. A sweep
runs closures for a batch of seeds, keeps a disjoint subfamily, and verifies
the leftover graph on a window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InvariantViolationError
from .graph_core import AutomaticTree, Matching, TreeVertex, render_path, shortlex


@dataclass(frozen=True)
class ClosurePair:
    seed: TreeVertex
    s_set: frozenset
    t_set: frozenset
    internal_matching: Matching
    frontier: tuple
    radius: int


@dataclass(frozen=True)
class RemainderReport:
    check_depth: int
    degree_violations: tuple
    crossing_witnesses: tuple
    checked_pairs: int
    window_size: int

    @property
    def clean(self) -> bool:
        return not self.degree_violations and not self.crossing_witnesses


@dataclass(frozen=True)
class SweepResult:
    kept: tuple
    dropped: tuple
    matching: Matching
    removed: frozenset
    remainder: RemainderReport


def _complement_degree(t: AutomaticTree, v: TreeVertex, removed, q: str | None = None) -> int:
    """Degree of v outside removed; q, if given, is v's state."""
    if q is None:
        q = t.state_of(v)
    free = sum(1 for i in range(t.branch_of(q)) if v + (i,) not in removed)
    return free + 1 if v and v[:-1] not in removed else free


def closure(
    t: AutomaticTree, x: TreeVertex, budget: int = 10_000, removed: frozenset = frozenset()
) -> tuple:
    """Grow the matched set around x until the complement has minimum degree
    two, pairing each forced degree-one complement vertex with its unique
    complement neighbor. Returns (S, internal matching)."""
    if not t.is_valid_vertex(x):
        raise ValueError(f"invalid vertex {render_path(x)}")
    if x in removed:
        raise ValueError(f"seed {render_path(x)} was already removed")
    first = None
    for w in t.neighbors(x):
        if w not in removed:
            first = w
            break
    if first is None:
        raise InvariantViolationError(f"seed {render_path(x)} has no free neighbor")
    s: set = {x, first}
    pairs = [(x, first)]
    pending: set = set()
    for v in (x, first):
        for w in t.neighbors(v):
            if w not in s and w not in removed:
                pending.add(w)
    while True:
        forced = []
        for z in sorted(pending, key=shortlex):
            free = [w for w in t.neighbors(z) if w not in s and w not in removed]
            if not free:
                raise InvariantViolationError(
                    f"complement vertex {render_path(z)} was isolated by the closure"
                )
            if len(free) == 1:
                forced.append((z, free[0]))
        if not forced:
            break
        if len(s) + 2 > budget:
            frontier = tuple(z for z, _ in forced)
            raise BudgetExceededError(
                f"closure around {render_path(x)} exceeded {budget} vertices",
                frontier=frontier,
            )
        z, w = forced[0]
        pairs.append((z, w))
        s.add(z)
        s.add(w)
        pending.discard(z)
        pending.discard(w)
        for v in (z, w):
            for nb in t.neighbors(v):
                if nb not in s and nb not in removed:
                    pending.add(nb)
    return frozenset(s), Matching.of(pairs)


def _boundary(t: AutomaticTree, s_set, removed) -> list:
    out = set()
    for v in s_set:
        for w in t.neighbors(v):
            if w not in s_set and w not in removed:
                out.add(w)
    return sorted(out, key=shortlex)


def _bad_paths(t: AutomaticTree, start: TreeVertex, parity: int, blocked, max_len: int):
    """Every injective path of non-blocked vertices from start, of at most
    max_len vertices, whose positions congruent to parity mod 2 have
    complement degree exactly two. Depth-first, neighbors in t.neighbors
    order, each path yielded as it grows (one list, extended in place);
    the search is iterative, so long paths do not recurse."""

    def deg_ok(v, i):
        return i % 2 != parity or _complement_degree(t, v, blocked) == 2

    if not deg_ok(start, 0):
        return
    path = [start]
    on_path = {start}

    def neighbors_to_try(v):
        return iter(t.neighbors(v)) if len(path) < max_len else iter(())

    stack = [neighbors_to_try(start)]
    yield path
    while stack:
        for w in stack[-1]:
            if w not in on_path and w not in blocked and deg_ok(w, len(path)):
                path.append(w)
                on_path.add(w)
                stack.append(neighbors_to_try(w))
                yield path
                break
        else:
            stack.pop()
            on_path.discard(path.pop())


def _buffer_info(
    t: AutomaticTree, s_set: frozenset, budget: int = 10_000, removed: frozenset = frozenset()
) -> tuple:
    """(T, radius, boundary): T is the complement ball around S of radius
    equal to the largest certified bad-path cutoff over the boundary."""
    blocked = frozenset(s_set) | frozenset(removed)
    boundary = _boundary(t, s_set, removed)
    max_n = 1
    # Bad paths are prefix-closed, so the longest one from z is the exact
    # cutoff: paths of every shorter length exist too.
    for z in boundary:
        for parity in (0, 1):
            for path in _bad_paths(t, z, parity, blocked, budget):
                if len(path) >= budget:
                    raise BudgetExceededError(
                        f"no bad-path cutoff below {budget} at {render_path(z)}; "
                        "this is evidence of a bad ray",
                        frontier=(z,),
                    )
                max_n = max(max_n, len(path) + 1)
    t_set = set(s_set)
    layer = list(boundary)
    t_set.update(layer)
    for _ in range(max_n - 1):
        nxt = []
        for v in layer:
            for w in t.neighbors(v):
                if w not in t_set and w not in removed:
                    t_set.add(w)
                    nxt.append(w)
        layer = nxt
        if len(t_set) > budget:
            raise BudgetExceededError(
                f"buffer around a {len(s_set)}-vertex set exceeded {budget} vertices",
                frontier=tuple(sorted(layer, key=shortlex)[:8]),
            )
    return frozenset(t_set), max_n, tuple(boundary)


def buffer(
    t: AutomaticTree, s_set: frozenset, budget: int = 10_000, removed: frozenset = frozenset()
) -> frozenset:
    """Pad S so that no degree-alternating complement path can cross from
    the boundary of S out of the returned set."""
    t_set, _, _ = _buffer_info(t, s_set, budget, removed)
    return t_set


def _verify_remainder(
    t: AutomaticTree,
    kept: tuple,
    removed_all: frozenset,
    removed_prior: frozenset,
    check_depth: int,
    max_path: int = 12,
) -> RemainderReport:
    win = t.window(check_depth)
    paths = tuple(win.paths)
    degree_violations = [
        v
        for v, q in zip(paths, win.states)
        if v not in removed_all and _complement_degree(t, v, removed_all, q) < 2
    ]
    # A witness is the first bad path from a frontier vertex of S, searched
    # parity 0 first, whose last vertex lies outside T.
    crossing = []
    for pair in kept:
        for z in pair.frontier:
            if z in removed_all:
                continue
            escapes = (
                tuple(path)
                for parity in (0, 1)
                for path in _bad_paths(t, z, parity, removed_all, max_path)
                if path[-1] not in pair.t_set
            )
            witness = next(escapes, None)
            if witness is not None:
                crossing.append((pair.seed, witness))
    return RemainderReport(
        check_depth=check_depth,
        degree_violations=tuple(degree_violations),
        crossing_witnesses=tuple(crossing),
        checked_pairs=len(kept),
        window_size=len(paths),
    )


def sweep_step(
    t: AutomaticTree,
    seeds,
    budget: int = 10_000,
    removed: frozenset = frozenset(),
    check_depth: int = 8,
    strict: bool = True,
) -> SweepResult:
    """Run closures for the seeds, keep a buffer-disjoint subfamily greedily
    in path order, and window-check the leftover graph.

    With strict=True a failed leftover check raises InvariantViolationError;
    otherwise the violations are returned in the remainder report.
    """
    uniq = sorted(set(seeds), key=shortlex)
    for x in uniq:
        if not t.is_valid_vertex(x):
            raise ValueError(f"invalid seed {render_path(x)}")
        if x in removed:
            raise ValueError(f"seed {render_path(x)} was already removed")
    pairs = []
    for x in uniq:
        s_set, internal = closure(t, x, budget, removed)
        t_set, radius, boundary = _buffer_info(t, s_set, budget, removed)
        pairs.append(
            ClosurePair(
                seed=x,
                s_set=s_set,
                t_set=t_set,
                internal_matching=internal,
                frontier=boundary,
                radius=radius,
            )
        )
    kept = []
    dropped = []
    taken: set = set()
    for pair in pairs:
        if pair.t_set & taken:
            dropped.append(pair.seed)
            continue
        kept.append(pair)
        taken.update(pair.t_set)
    removed_all = set(removed)
    all_pairs = []
    for pair in kept:
        removed_all.update(pair.s_set)
        all_pairs.extend(pair.internal_matching.sorted_pairs())
    removed_all = frozenset(removed_all)
    remainder = _verify_remainder(t, tuple(kept), removed_all, removed, check_depth)
    if strict and not remainder.clean:
        detail = []
        if remainder.degree_violations:
            v = remainder.degree_violations[0]
            detail.append(f"degree below two at {render_path(v)}")
        if remainder.crossing_witnesses:
            seed, path = remainder.crossing_witnesses[0]
            detail.append(
                f"bad path crossing the buffer of {render_path(seed)} "
                f"via {'/'.join(render_path(v) for v in path[:3])}..."
            )
        raise InvariantViolationError("; ".join(detail))
    return SweepResult(
        kept=tuple(kept),
        dropped=tuple(dropped),
        matching=Matching.of(all_pairs),
        removed=removed_all,
        remainder=remainder,
    )
