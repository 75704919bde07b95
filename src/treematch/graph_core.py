"""Graph representations and decidable structural predicates.

Two carriers are used everywhere else: FiniteGraph (a simple undirected graph
on numbered vertices) and AutomaticTree (a rooted, locally finite, possibly
infinite tree presented by a finite-state branching machine). Tree vertices
are tuples of child indices; the root is the empty tuple.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import BudgetExceededError, FormatError

TreeVertex = tuple  # tuple[int, ...]
ROOT: TreeVertex = ()

# Largest window any command builds. It also caps a state's branch count and
# a graph file's vertex count at parse time: a vertex with more children
# than this fits in no window, and every command builds a graph's vertices.
MAX_WINDOW_VERTICES = 200_000
# Largest sum of |v| over a window's vertices. A window stores states, not
# paths, but its rendered names and a command's output grow with this sum:
# on a thin tree, with the square of the depth.
MAX_WINDOW_PATH_LENGTH = 4_000_000


def shortlex(path: TreeVertex) -> tuple:
    """Sort key ordering paths by length, then lexicographically."""
    return (len(path), path)


def _vertex_key(v) -> tuple:
    # Works for both int vertex ids and tree paths.
    if isinstance(v, tuple):
        return (1, len(v), v)
    return (0, v, ())


def render_path(v: TreeVertex) -> str:
    """Render a tree vertex as a /-joined index path; the root is "/"."""
    if not v:
        return "/"
    return "/".join(map(str, v))


def parse_path(text: str) -> TreeVertex:
    if text == "/":
        return ROOT
    parts = text.split("/")
    try:
        path = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"bad vertex path {text!r}")
    if any(i < 0 for i in path):
        raise FormatError(f"negative index in path {text!r}")
    return path


@dataclass(frozen=True)
class Matching:
    """A finite partial involution, stored as canonical unordered pairs."""

    pairs: frozenset

    @classmethod
    def of(cls, pairs: Iterable) -> "Matching":
        canon = set()
        seen = {}
        for pair in pairs:
            a, b = pair
            if a == b:
                raise ValueError(f"loop pair {a!r}")
            if _vertex_key(b) < _vertex_key(a):
                a, b = b, a
            for end, other in ((a, b), (b, a)):
                if end in seen and seen[end] != other:
                    raise ValueError(f"vertex {end!r} matched twice")
                seen[end] = other
            canon.add((a, b))
        return cls(frozenset(canon))

    @cached_property
    def partner_map(self) -> dict:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out

    def partner(self, v):
        return self.partner_map.get(v)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs, key=lambda p: (_vertex_key(p[0]), _vertex_key(p[1])))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.sorted_pairs())

    def validate_on(self, g: "FiniteGraph") -> None:
        for a, b in self.pairs:
            if not (0 <= a < g.vertex_count and 0 <= b < g.vertex_count):
                raise ValueError(f"pair ({a}, {b}) out of range")
            if (min(a, b), max(a, b)) not in g.edges:
                raise ValueError(f"pair ({a}, {b}) is not an edge")

    def is_perfect_on(self, g: "FiniteGraph") -> bool:
        self.validate_on(g)
        return len(self.partner_map) == g.vertex_count


@dataclass(frozen=True)
class FiniteGraph:
    """Simple undirected graph: vertices 0..vertex_count-1, canonical edge pairs."""

    vertex_count: int
    edges: frozenset

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable) -> "FiniteGraph":
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop edge at {a}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a}, {b}) out of range")
            canon.add((min(a, b), max(a, b)))
        return cls(vertex_count, frozenset(canon))

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in range(self.vertex_count)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def components(self) -> tuple:
        seen = set()
        out = []
        for start in range(self.vertex_count):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = [start]
            while queue:
                v = queue.pop()
                for w in self.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(sorted(out))

    def is_acyclic(self) -> bool:
        # A simple graph is a forest iff |E| = |V| - #components.
        return len(self.edges) == self.vertex_count - len(self.components())


def _reachable(root_state: str, branch: dict, step: dict) -> set:
    """The states reachable from root_state, walking every transition of a
    reached state; a transition to an undeclared state raises ValueError."""
    reachable = {root_state}
    todo = [root_state]
    while todo:
        q = todo.pop()
        for i in range(branch[q]):
            r = step[(q, i)]
            if r not in branch:
                raise ValueError(f"transition ({q!r}, {i}) leads to unknown state")
            if r not in reachable:
                reachable.add(r)
                todo.append(r)
    return reachable


class AutomaticTree:
    """Rooted tree presented by a finite-state branching machine.

    branch(q) is the number of children of any vertex in state q; the state of
    a child is step(q, i). The root has degree branch(root_state); every other
    vertex adds one for its parent. All states must be reachable and branch /
    step total on their declared domains; use build() for the lenient
    constructor that fills self-transitions and trims unreachable states.
    """

    def __init__(self, root_state: str, branch: dict, step: dict):
        if root_state not in branch:
            raise ValueError(f"root state {root_state!r} has no branch entry")
        for q, k in branch.items():
            if k < 0:
                raise ValueError(f"negative branch at state {q!r}")
            for i in range(k):
                if (q, i) not in step:
                    raise ValueError(f"missing transition ({q!r}, {i})")
                if step[(q, i)] not in branch:
                    raise ValueError(f"transition ({q!r}, {i}) leads to unknown state")
        for (q, i) in step:
            if q not in branch or not (0 <= i < branch[q]):
                raise ValueError(f"transition ({q!r}, {i}) outside declared domain")
        unreachable = set(branch) - _reachable(root_state, branch, step)
        if unreachable:
            raise ValueError(f"unreachable states: {sorted(unreachable)}")
        self.root_state = root_state
        self.states = tuple(sorted(branch))
        # state -> the states of its children, by child index
        self._child_states = {q: tuple(step[(q, i)] for i in range(k)) for q, k in branch.items()}
        # the states a child can have: every state but possibly the root's
        self.non_root_states = frozenset(r for row in self._child_states.values() for r in row)

    @classmethod
    def build(cls, root_state: str, branch: dict, step: dict | None = None) -> "AutomaticTree":
        """Lenient constructor: omitted transitions default to self-loops,
        states unreachable from the root are dropped."""
        step = dict(step or {})
        for q, k in branch.items():
            for i in range(k):
                step.setdefault((q, i), q)
        if root_state not in branch:
            raise ValueError(f"root state {root_state!r} has no branch entry")
        reachable = _reachable(root_state, branch, step)
        branch = {q: k for q, k in branch.items() if q in reachable}
        step = {(q, i): r for (q, i), r in step.items() if q in reachable}
        return cls(root_state, branch, step)

    def branch_of(self, q: str) -> int:
        return len(self._child_states[q])

    def step(self, q: str, i: int) -> str:
        row = self._child_states[q]
        if not (0 <= i < len(row)):
            raise KeyError((q, i))
        return row[i]

    def state_of(self, v: TreeVertex) -> str:
        q = self.root_state
        for i in v:
            row = self._child_states[q]
            if not (0 <= i < len(row)):
                raise ValueError(f"invalid vertex {render_path(v)}")
            q = row[i]
        return q

    def is_valid_vertex(self, v: TreeVertex) -> bool:
        q = self.root_state
        for i in v:
            row = self._child_states[q]
            if not (0 <= i < len(row)):
                return False
            q = row[i]
        return True

    def degree(self, v: TreeVertex) -> int:
        k = self.branch_of(self.state_of(v))
        return k if v == ROOT else k + 1

    def children(self, v: TreeVertex) -> list:
        return [v + (i,) for i in range(self.branch_of(self.state_of(v)))]

    def neighbors(self, v: TreeVertex) -> list:
        """Children in ascending index order, then the parent."""
        out = self.children(v)
        if v != ROOT:
            out.append(v[:-1])
        return out

    def window(self, depth: int) -> "Window":
        """All vertices of path length <= depth, in shortlex order. Its size
        is first counted level by level by state, so a window over either
        cap raises BudgetExceededError before anything is built; then the
        states are filled in level by level, each level from its parents'
        rows."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        level, vertices, total, levels = {self.root_state: 1}, 0, 0, 0
        while level and levels <= depth:
            size = sum(level.values())
            vertices, total = vertices + size, total + levels * size
            if vertices > MAX_WINDOW_VERTICES:
                raise BudgetExceededError(f"window depth {depth} exceeds {MAX_WINDOW_VERTICES} vertices")
            if total > MAX_WINDOW_PATH_LENGTH:
                raise BudgetExceededError(
                    f"window depth {depth} exceeds {MAX_WINDOW_PATH_LENGTH} total path length"
                )
            below: dict = {}
            for q, k in level.items():
                for r in self._child_states[q]:
                    below[r] = below.get(r, 0) + k
            level, levels = below, levels + 1
        rows, states = self._child_states, [self.root_state]
        level_start = 0
        for _ in range(levels - 1):
            parents = states[level_start:]
            level_start = len(states)
            states.extend(itertools.chain.from_iterable(map(rows.__getitem__, parents)))
        # The last level is at path length depth, unless the tree ends above
        # it: then no vertex is.
        boundary_start = level_start if levels > depth else len(states)
        return Window(tree=self, depth=depth, states=tuple(states), boundary_start=boundary_start)


class WindowPaths(Sequence):
    """A window's vertex paths, at their window indices: a read-only tuple,
    built top-down on the first read of a path (a child's path is its
    parent's plus (i,)). Its length is the window's and builds nothing. It
    holds the tree, the states and boundary_start, not the window, so a
    window and its paths are freed by reference counting."""

    __slots__ = ("_tree", "_states", "_boundary_start", "_paths", "__weakref__")

    def __init__(self, tree: AutomaticTree, states: tuple, boundary_start: int):
        self._tree, self._states, self._boundary_start = tree, states, boundary_start
        self._paths = None

    def _built(self) -> tuple:
        if self._paths is None:
            tree, states = self._tree, self._states
            suffixes = {q: [(i,) for i in range(tree.branch_of(q))] for q in tree.states}
            paths = [ROOT]
            extend = paths.extend
            for j in range(self._boundary_start):
                extend(map(paths[j].__add__, suffixes[states[j]]))
            self._paths = tuple(paths)
        return self._paths

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, j):
        return self._built()[j]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        return self._built() == (tuple(other) if isinstance(other, WindowPaths) else other)

    def __repr__(self) -> str:
        return f"WindowPaths({self._built()!r})"


@dataclass(eq=False)
class Window:
    """A finite view of an AutomaticTree: the vertices of path length at most
    depth in shortlex order, each named by its window index. Shortlex order
    lists a level's vertices by parent, in the parents' order, so the
    children of each vertex above the boundary level sit next to each other
    in index order, from child_start. The window stores each vertex's machine
    state and boundary_start, the index of the first vertex at path length
    depth: the vertices from there on have their children beyond the window.
    paths is a WindowPaths view, whose tuples are built only when read."""

    tree: AutomaticTree
    depth: int
    states: tuple
    boundary_start: int
    paths: WindowPaths = field(init=False, repr=False)

    def __post_init__(self):
        self.paths = WindowPaths(self.tree, self.states, self.boundary_start)

    @cached_property
    def child_start(self) -> list:
        """Each vertex's first child's index, at the vertex's position: its
        children above the boundary level are the next branch count paths.
        Built on first use."""
        branch = {q: self.tree.branch_of(q) for q in self.tree.states}
        return list(itertools.accumulate(map(branch.__getitem__, self.states), initial=1))

    @cached_property
    def names(self) -> list:
        """Each vertex's rendered path, at the same position. Built top-down
        on first use: a child's name is its parent's name plus /i."""
        tree, states = self.tree, self.states
        suffixes = {q: ["/" + str(i) for i in range(tree.branch_of(q))] for q in tree.states}
        names = ["/"] + [s[1:] for s in suffixes[states[0]]] if self.depth else ["/"]
        extend = names.extend
        for j in range(1, self.boundary_start):
            extend(map(names[j].__add__, suffixes[states[j]]))
        return names


@dataclass(frozen=True)
class EndDescriptor:
    """An end of an AutomaticTree, named by an eventually periodic child-index
    sequence preperiod . period^omega."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for i in self.preperiod + self.period:
            if not isinstance(i, int) or i < 0:
                raise ValueError("indices must be nonnegative integers")
        # The ray unrolled so far; not a field, so equality, hash and repr
        # still come from the two index tuples alone.
        object.__setattr__(self, "_ray", self.preperiod + self.period)

    def index(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> TreeVertex:
        """The ray vertex at depth n: a slice of the unrolled ray, which at
        least doubles whenever a deeper vertex is asked for."""
        ray = self._ray
        if n > len(ray):
            periods = -(-(max(n, 2 * len(ray)) - len(self.preperiod)) // len(self.period))
            ray = self.preperiod + self.period * periods
            object.__setattr__(self, "_ray", ray)
        return ray[:n]

    @classmethod
    def parse(cls, text: str) -> "EndDescriptor":
        if "|" not in text:
            raise FormatError(f"end descriptor {text!r} lacks '|'")
        pre_text, per_text = text.split("|", 1)

        def parse_side(side: str, what: str) -> tuple:
            side = side.strip()
            if not side:
                return ()
            try:
                return tuple(int(p) for p in side.split(","))
            except ValueError:
                raise FormatError(f"bad {what} in end descriptor {text!r}")

        pre = parse_side(pre_text, "preperiod")
        per = parse_side(per_text, "period")
        if not per:
            raise FormatError(f"end descriptor {text!r} has empty period")
        if any(i < 0 for i in pre + per):
            raise FormatError(f"negative index in end descriptor {text!r}")
        return cls(pre, per)

    def render(self) -> str:
        pre = ",".join(str(i) for i in self.preperiod)
        per = ",".join(str(i) for i in self.period)
        return f"{pre}|{per}"


def validate_end(t: AutomaticTree, e: EndDescriptor) -> bool:
    """True iff every prefix of the end's index sequence is a valid vertex."""
    q = t.root_state
    seen = set()
    i = 0
    pre_len = len(e.preperiod)
    per_len = len(e.period)
    while True:
        if i >= pre_len:
            key = (q, (i - pre_len) % per_len)
            if key in seen:
                return True
            seen.add(key)
        idx = e.index(i)
        if idx >= t.branch_of(q):
            return False
        q = t.step(q, idx)
        i += 1


def divergence_length(a: EndDescriptor, b: EndDescriptor) -> int | None:
    """Depth of the last common vertex of the two rays, or None when both
    descriptors name the same index sequence. Past the longer preperiod both
    sequences are purely periodic, with periods p and q, and by the theorem
    of Fine and Wilf two such sequences that agree on p + q consecutive
    places agree everywhere. So only max(pre_a, pre_b) + p + q indices are
    compared, and the rays are never unrolled to the lcm of the periods."""
    bound = max(len(a.preperiod), len(b.preperiod)) + len(a.period) + len(b.period)
    for i, (x, y) in enumerate(zip(a.prefix(bound), b.prefix(bound))):
        if x != y:
            return i
    return None


def ends_equivalent(t: AutomaticTree, a: EndDescriptor, b: EndDescriptor) -> bool:
    """True iff the two descriptors name the same infinite index sequence."""
    for e in (a, b):
        if not validate_end(t, e):
            raise ValueError(f"invalid end descriptor {e.render()}")
    return divergence_length(a, b) is None


def _descend_ok(t: AutomaticTree) -> set:
    """Product nodes (state, parity) admitting an infinite descending path on
    which every even-parity vertex has total degree exactly two (as a
    non-root vertex: branch one)."""
    alive = set()
    for q in t.states:
        for p in (0, 1):
            if p == 1 or t.branch_of(q) == 1:
                alive.add((q, p))
    changed = True
    while changed:
        changed = False
        for node in sorted(alive):
            q, p = node
            if not any(
                (t.step(q, i), 1 - p) in alive for i in range(t.branch_of(q))
            ):
                alive.discard(node)
                changed = True
    return alive


def has_bad_ray(t: AutomaticTree) -> bool:
    """True iff some injective ray (any start, any direction) has degree
    exactly two at every even index.

    Any such ray eventually descends, so it has the shape: climb k steps from
    the start toward the root, bend, then descend forever. The descent is a
    lasso search on (state, parity); climbs are handled by a DP whose length
    is bounded by pigeonhole on (state, parity) pairs.
    """
    descend = _descend_ok(t)
    root = t.root_state
    non_root = t.non_root_states

    # k = 0, ray starts at the root and descends.
    if t.branch_of(root) == 2 and any(
        (t.step(root, i), 1) in descend for i in range(2)
    ):
        return True
    # k = 0, ray starts at a non-root vertex of degree two and descends.
    for q in sorted(non_root):
        if t.branch_of(q) == 1 and (t.step(q, 0), 1) in descend:
            return True

    def bend_at(q: str, k: int, indices: range) -> bool:
        down_parity = (k + 1) % 2
        chain = [i for i in indices if a_prev[t.step(q, i)]]
        desc = [i for i in indices if (t.step(q, i), down_parity) in descend]
        if not chain or not desc:
            return False
        return not (len(chain) == 1 and chain == desc)

    # Climb DP: a_prev[q] says a valid climb chain of the current length can
    # hang below a vertex in state q (the chain's top is at ray index t).
    a_prev = {q: t.branch_of(q) == 1 for q in t.states}  # chains of length 1 (index 0)
    limit = 2 * len(t.states) + 2
    for k in range(1, limit + 1):
        # Bend at a non-root vertex: needs two distinct children (chain and
        # descent), impossible at even k where degree two allows one child.
        if k % 2 == 1:
            for q in sorted(non_root):
                if bend_at(q, k, range(t.branch_of(q))):
                    return True
        if k % 2 == 1 or t.branch_of(root) == 2:
            if bend_at(root, k, range(t.branch_of(root))):
                return True
        a_next = {}
        for q in t.states:
            ok = True
            if (k % 2) == 0 and t.branch_of(q) != 1:
                # Ray index k is even: the climb vertex needs degree two.
                ok = False
            a_next[q] = ok and any(
                a_prev[t.step(q, i)] for i in range(t.branch_of(q))
            )
        a_prev = a_next
    return False
