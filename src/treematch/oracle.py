"""Brute-force matching oracles for finite graphs.

These are the reference implementations the constructive machinery is tested
against: maximum matchings (augmenting paths on bipartite graphs, exhaustive
search otherwise), full enumeration of perfect matchings, and the forced
greedy matcher for forests.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import BudgetExceededError, InvariantViolationError
from .graph_core import FiniteGraph, Matching

EXHAUSTIVE_VERTEX_LIMIT = 20
ENUMERATION_VERTEX_LIMIT = 40
ENUMERATION_NODE_LIMIT = 2_000_000


def two_coloring(g: FiniteGraph) -> dict | None:
    """BFS 2-coloring, or None if some component has an odd cycle."""
    nbrs = g.adjacency
    color = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        for v in queue:
            c = 1 - color[v]
            for w in nbrs[v]:
                if color[w] < 0:
                    color[w] = c
                    queue.append(w)
                elif color[w] != c:
                    return None
    return dict(enumerate(color))


def _bipartite_max_matching(g: FiniteGraph, color: dict) -> Matching:
    """Kuhn's augmenting paths from each colour-0 vertex in id order,
    neighbours ascending: O(n*m) worst case."""
    nbrs = g.adjacency
    match = [-1] * g.vertex_count  # colour-1 vertex -> its colour-0 partner
    seen = [-1] * g.vertex_count  # the root of the search that last visited it

    def augment(v: int, root: int) -> bool:
        for w in nbrs[v]:
            if seen[w] != root:
                seen[w] = root
                if match[w] < 0 or augment(match[w], root):
                    match[w] = v
                    return True
        return False

    for v in range(g.vertex_count):
        if color[v] == 0:
            augment(v, v)
    return Matching.of((owner, w) for w, owner in enumerate(match) if owner >= 0)


def _exhaustive_max_matching(g: FiniteGraph) -> Matching:
    if g.vertex_count > EXHAUSTIVE_VERTEX_LIMIT:
        raise BudgetExceededError(
            f"exhaustive matching limited to {EXHAUSTIVE_VERTEX_LIMIT} vertices"
        )
    nbr_masks = [0] * g.vertex_count
    for a, b in g.edges:
        nbr_masks[a] |= 1 << b
        nbr_masks[b] |= 1 << a
    memo = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        result = best(mask & ~(1 << v))
        free = nbr_masks[v] & mask
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            result = max(result, 1 + best(mask & ~(1 << v) & ~(1 << u)))
        memo[mask] = result
        return result

    pairs = []
    mask = (1 << g.vertex_count) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        took = False
        for u in g.neighbors(v):
            if mask & (1 << u) and 1 + best(mask & ~(1 << v) & ~(1 << u)) == best(mask):
                pairs.append((v, u))
                mask &= ~(1 << v) & ~(1 << u)
                took = True
                break
        if not took:
            mask &= ~(1 << v)
    return Matching.of(pairs)


def max_matching(g: FiniteGraph) -> Matching:
    """A maximum matching; deterministic for a given graph. Augmenting paths
    on a bipartite graph, O(n*m) worst case; else an exhaustive search."""
    color = two_coloring(g)
    if color is not None:
        return _bipartite_max_matching(g, color)
    return _exhaustive_max_matching(g)


def has_perfect_matching(g: FiniteGraph) -> bool:
    if g.vertex_count % 2 == 1:
        return False
    return 2 * len(max_matching(g)) == g.vertex_count


def enumerate_perfect_matchings(g: FiniteGraph) -> list:
    """All perfect matchings, ordered by the choices at the lowest free vertex."""
    if g.vertex_count > ENUMERATION_VERTEX_LIMIT:
        raise BudgetExceededError(
            f"enumeration limited to {ENUMERATION_VERTEX_LIMIT} vertices"
        )
    if g.vertex_count % 2 == 1:
        return []
    out = []
    free = set(range(g.vertex_count))
    stack_pairs = []
    nodes = 0

    def backtrack():
        nonlocal nodes
        nodes += 1
        if nodes > ENUMERATION_NODE_LIMIT:
            raise BudgetExceededError("enumeration search budget exceeded")
        if not free:
            out.append(Matching.of(list(stack_pairs)))
            return
        v = min(free)
        free.discard(v)
        for u in g.neighbors(v):
            if u in free:
                free.discard(u)
                stack_pairs.append((v, u))
                backtrack()
                stack_pairs.pop()
                free.add(u)
        free.add(v)

    backtrack()
    return out


@dataclass(frozen=True)
class GreedyResult:
    ok: bool
    matching: Matching | None
    stuck_vertex: int | None


def greedy_forest_matching(g: FiniteGraph) -> GreedyResult:
    """Repeatedly pair the lowest-id vertex of degree <= 1 with its forced
    neighbor. On forests this succeeds iff a perfect matching exists; failure
    reports the lowest vertex left isolated. O(n log n): the degree-one
    vertices wait in a heap."""
    if not g.is_acyclic():
        raise ValueError("greedy matcher requires a forest")
    nbrs = g.adjacency
    alive = [True] * g.vertex_count
    deg = [len(nbrs[v]) for v in range(g.vertex_count)]
    zeros = [v for v in range(g.vertex_count) if deg[v] == 0]
    leaves = [v for v in range(g.vertex_count) if deg[v] == 1]  # ascending, so a heap
    pairs = []
    while 2 * len(pairs) < g.vertex_count:
        # A vertex of degree zero stays so, and there was none before the
        # last step, so the new ones are all of them.
        if zeros:
            return GreedyResult(False, None, min(zeros))
        while leaves and not alive[leaves[0]]:
            heappop(leaves)
        if not leaves:
            raise InvariantViolationError("cycle encountered in a forest")
        v = heappop(leaves)
        u = next(w for w in nbrs[v] if alive[w])
        pairs.append((v, u))
        alive[v] = alive[u] = False
        for gone in (v, u):
            for w in nbrs[gone]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        heappush(leaves, w)
                    elif deg[w] == 0:
                        zeros.append(w)
    return GreedyResult(True, Matching.of(pairs), None)
