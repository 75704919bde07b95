"""Constructive perfect matchings on finitely presented infinite trees.

All constructions answer pointwise partner queries, and totality/involution
are only ever checked on finite windows. An oracle holds a domain predicate,
a partner function and a finite prefix-closed set of anchors per depth: the
root for the rooted matching and the one-end fallback, the prefixes of the
component root for the many-end matching, and the prefixes of the line's
divergence vertex m plus the line's vertices for the one- and two-end
constructions. The line is spanned by two rays, and one class, _Line, holds
its coordinates for both. For two ends the rays are the given ends; for one
end they are the end and the leftmost descent from the lowest root child
off it, so the line runs through the root and m is the root. The
subclasses add only their partner rules at the anchors.

The partner function is asked only at the anchors. Everywhere else the
anchor rule is the definition: a vertex pairs with its parent if the parent
pairs with it, and otherwise with its child 0; an anchor outside the domain
(the exceptional line of a two-end matching) pairs with nobody.
MatchingOracle.partner applies the rule upward from a query to the nearest
known vertex or anchor, and a window pass (MatchingOracle.restricted_pairs)
applies it top-down. The rule is each construction's component matching off
the anchors, because _Component's rule reduces to it wherever three things
hold, and off the anchors they do. The neighbour toward the component root
is the tree parent, since a component root and the vertices between it and
the tree root are anchors. No filter cuts an edge below a non-anchor: the
filters cut only edges at or to line vertices, and a non-anchor has none
below it. And a vertex whose parent is matched elsewhere starts a new chain
of parity 0, so it takes its first kept neighbour, child 0.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

from .errors import BudgetExceededError, InvariantViolationError
from .graph_core import (
    ROOT,
    AutomaticTree,
    EndDescriptor,
    TreeVertex,
    Window,
    divergence_length,
    ends_equivalent,
    has_bad_ray,
    render_path,
    validate_end,
)


PARENT = -1  # a window pass's code for "pairs with its parent"; i >= 0 is child i


class WindowPairs(list):
    """The pairs a window pass saw, as (upper, lower) tree edges in window
    order of their upper ends, with what they are rendered and checked from:
    the window, each upper end's window index, the pairs that reach a
    left-out vertex, the positions of the pairs whose lower end lies beyond
    the window and was asked pointwise, and the number of pointwise partner
    queries made."""

    def __init__(self, window: Window):
        super().__init__()
        self.window = window
        self.uppers: list = []
        self.left_out: list = []
        self.beyond: list = []
        self.pointwise = 0


class MatchingOracle:
    """Pointwise access to a matching: a domain predicate plus a partner
    function, with memoized queries.

    anchors(depth), when given, names a finite prefix-closed set of vertices
    down to depth, the only vertices partner_fn is asked about. It holds
    every vertex outside the domain, and cut to a smaller depth d it is
    anchors(d). The root always counts as an anchor. Every other vertex
    follows the anchor rule (module docstring). Without anchors every vertex
    is one."""

    def __init__(
        self,
        tree: AutomaticTree,
        in_domain: Callable,
        partner_fn: Callable,
        description: str = "",
        anchors: Callable | None = None,
    ):
        self.tree = tree
        self._in_domain = in_domain
        self._partner_fn = partner_fn
        self.description = description
        self._anchors = anchors
        self._anchor_set: set = set()
        self._anchor_depth = -1  # the depth _anchor_set was built for
        self._memo: dict = {}  # vertex -> partner, None for an anchor outside the domain

    def in_domain(self, v: TreeVertex) -> bool:
        return self.tree.is_valid_vertex(v) and bool(self._in_domain(v))

    def _anchors_to(self, depth: int) -> set:
        """The anchors down to depth, built again only for a deeper depth."""
        if depth > self._anchor_depth:
            self._anchor_set = {ROOT, *self._anchors(depth)}
            self._anchor_depth = depth
        return self._anchor_set

    def partner(self, v: TreeVertex) -> TreeVertex:
        memo = self._memo
        p = memo.get(v)
        if p is not None:
            return p
        if not self.tree.is_valid_vertex(v):
            raise ValueError(f"invalid vertex {render_path(v)}")
        if not self._in_domain(v):
            raise ValueError(f"vertex {render_path(v)} is outside the oracle domain")
        if self._anchors is None:
            p = memo[v] = self._partner_fn(v)
            return p
        # Climb to the nearest known vertex or anchor, in a loop so that a
        # query far below works, then apply the anchor rule downward.
        anchors = self._anchors_to(len(v))
        path = [v]
        while path[-1] not in memo and path[-1] not in anchors:
            path.append(path[-1][:-1])
        x = path.pop()
        if x not in memo:
            memo[x] = self._partner_fn(x) if x is v or self._in_domain(x) else None
        for y in reversed(path):
            memo[y] = x if memo[x] == y else y + (0,)
            x = y
        return memo[v]

    def restricted_pairs(self, win: Window, skip: Collection = ()) -> WindowPairs:
        """The matching seen from the window minus the vertices in skip (given
        by window index), in one top-down pass.

        The anchors are asked pointwise, in window order (for an oracle
        without anchors every window vertex is an anchor); a partner so
        asked is asked at once when it is an anchor too, as a pointwise
        sweep would. Every other vertex follows the anchor rule, as partner
        does: it pairs with its parent if the parent pairs with it, and
        otherwise with its child 0. A vertex of skip is not asked. Outside
        the domain it pairs with nobody, so its children off the anchors
        take child 0; inside the domain its children are asked, which finds
        its pair.

        By window index the pass checks that each partner is a tree
        neighbour, that the involution holds inside the window and that a
        vertex of skip is claimed at most once (ValueError "matched twice"
        otherwise). A partner one level beyond the window that was asked
        pointwise is asked back after the pass and must point back.
        """
        paths, states, first = win.paths, win.states, win.child_start
        tree = win.tree
        branch = {q: tree.branch_of(q) for q in tree.states}
        n = len(paths)
        out = WindowPairs(win)
        pairs, uppers, left_out, beyond = out, out.uppers, out.left_out, out.beyond
        anchors = set(paths) if self._anchors is None else self._anchors_to(win.depth)
        for a in anchors:
            if a and a[:-1] not in anchors:
                raise ValueError(f"anchor {render_path(a)} lacks its parent")
        skipped = set(skip)
        inside = {c for c in skipped if self._in_domain(paths[c])}
        anchored = {0}
        asked = set()
        claimed = set()  # vertices of skip claimed as a partner
        # Families whose children are not all ruled: below an anchor, in skip
        # or below a vertex of skip.
        slow = anchored | skipped | {bisect.bisect_right(first, c) - 1 for c in skipped if c}
        choice = [None] * n  # PARENT, a child index, or None for a vertex of skip
        boundary = win.boundary_start

        def ask(c: int) -> int:
            """Vertex c's pointwise partner as PARENT or a child index."""
            asked.add(c)
            out.pointwise += 1
            v, p = paths[c], self.partner(paths[c])
            d = len(v)
            if len(p) == d + 1 and p[:d] == v:
                if not 0 <= p[-1] < branch[states[c]]:
                    raise ValueError(f"invalid vertex {render_path(p)}")
                if c < boundary:
                    below = first[c] + p[-1]
                    if below not in skipped and p in anchors:
                        self.partner(p)
                return p[-1]
            if d and len(p) == d - 1 and p == v[:-1]:
                return PARENT
            if p == v:
                raise ValueError(f"loop pair {v!r}")
            raise ValueError(f"pair {render_path(v)} {render_path(p)} is not a tree edge")

        def claim(c: int) -> None:
            if c in claimed:
                raise ValueError(f"vertex {paths[c]!r} matched twice")
            claimed.add(c)

        if 0 not in skipped:
            choice[0] = ask(0)
        zeros = [0] * max(branch.values(), default=0)
        for j in range(boundary):
            up = choice[j]
            k = branch[states[j]]
            if not k:
                if up == 0:
                    raise InvariantViolationError(
                        f"vertex {render_path(paths[j])} has no child to pair with"
                    )
                continue
            v = paths[j]
            start = first[j]
            if up is not None and up >= 0:
                pairs.append((v, paths[start + up]))
                uppers.append(j)
            end = start + k
            if j not in slow:
                choice[start:end] = zeros[:k]
                if up is not None and up >= 0:
                    choice[start + up] = PARENT
                continue
            for c in range(start, end):
                i = c - start
                if j in anchored and paths[c] in anchors:
                    anchored.add(c)
                    slow.add(c)
                if c in skipped:
                    if up == i:
                        claim(c)
                        left_out.append(pairs[-1])
                    continue
                if c in anchored or j in inside:
                    code = ask(c)
                    if code == PARENT:
                        if up is None:
                            claim(j)
                            pairs.append((v, paths[c]))
                            uppers.append(j)
                            left_out.append(pairs[-1])
                        elif up != i:
                            raise ValueError(f"vertex {v!r} matched twice")
                    elif up == i:
                        raise ValueError(f"vertex {paths[c]!r} matched twice")
                    choice[c] = code
                else:
                    choice[c] = PARENT if up == i else 0
        for j in range(boundary, n):
            up = choice[j]
            if up is not None and up >= 0:
                if not branch[states[j]]:
                    raise InvariantViolationError(
                        f"vertex {render_path(paths[j])} has no child to pair with"
                    )
                v = paths[j]
                pairs.append((v, v + (up,)))
                uppers.append(j)
                if j in asked:
                    beyond.append(len(pairs) - 1)
        for pos in beyond:
            a, b = pairs[pos]
            out.pointwise += 1
            if self.partner(b) != a:
                raise ValueError(f"partner map is not an involution at {render_path(a)}")
        return out


class _Component:
    """Deterministic perfect matching of a subtree component, re-rooted at an
    arbitrary vertex.

    Neighbors of a vertex are ranked children-first (ascending index), then
    the tree parent; child_filter(v, ch) may exclude neighbors to cut the
    component out of the ambient tree. A vertex pairs with its first kept
    neighbor or with its neighbor toward the component root, depending on
    the parity of the chain of first-kept links above it.

    Each vertex's state, chain parity and first kept neighbor are memoized
    and worked out from its toward-root neighbor's, so once a vertex is
    known every neighbor below it costs O(1).
    """

    def __init__(self, tree: AutomaticTree, root: TreeVertex, child_filter: Callable | None = None):
        self.tree = tree
        self.root = root
        self.child_filter = child_filter
        q = tree.root_state
        self._root_path_states = [q]
        for i in root:
            q = tree.step(q, i)
            self._root_path_states.append(q)
        # vertex -> (state, chain parity, first kept neighbor: a child index,
        # -1 for the parent, None for none)
        self._memo: dict = {}

    def toward_root(self, v: TreeVertex) -> TreeVertex | None:
        if v == self.root:
            return None
        if len(v) < len(self.root) and self.root[: len(v)] == v:
            return v + (self.root[len(v)],)
        return v[:-1]

    def _first_kept(self, v: TreeVertex, q: str, skip_child: int | None, parent_ok: bool):
        keep = self.child_filter
        for i in range(self.tree.branch_of(q)):
            if i != skip_child and (keep is None or keep(v, v + (i,))):
                return i
        if parent_ok and v and (keep is None or keep(v, v[:-1])):
            return -1
        return None

    def _climb(self, v: TreeVertex) -> tuple:
        """Memoize v and every vertex between it and the nearest memoized
        vertex toward the root, nearest first. A loop, not recursion, so a
        query far from the root works."""
        memo = self._memo
        root = self.root
        depth = len(root)
        path = []
        x = v
        while x not in memo:
            path.append(x)
            if x == root:
                break
            n = len(x)
            x = x + (root[n],) if n < depth and root[:n] == x else x[:-1]
        for y in reversed(path):
            n = len(y)
            if n <= depth and root[:n] == y:
                q = self._root_path_states[n]
                if n == depth:
                    memo[y] = (q, 0, self._first_kept(y, q, None, True))
                    continue
                _, up_parity, up_first = memo[y + (root[n],)]
                is_first = up_first == -1
                first = self._first_kept(y, q, root[n], True)
            else:
                up_state, up_parity, up_first = memo[y[:-1]]
                q = self.tree.step(up_state, y[-1])
                is_first = up_first == y[-1]
                first = self._first_kept(y, q, None, False)
            memo[y] = (q, 1 - up_parity if is_first else 0, first)
        return memo[v]

    def partner(self, v: TreeVertex) -> TreeVertex:
        _, parity, first = self._memo.get(v) or self._climb(v)
        if parity:
            return self.toward_root(v)
        if first is None:
            raise InvariantViolationError(
                f"component vertex {render_path(v)} has no child to pair with"
            )
        return v[:-1] if first == -1 else v + (first,)


def _prefixes_of(root: TreeVertex) -> Callable:
    """Anchors of a component matching rooted at root: root's prefixes, at
    any window depth."""
    prefixes = [root[:n] for n in range(len(root) + 1)]
    return lambda depth: prefixes


def _require_min_degree_two(t: AutomaticTree) -> None:
    if t.branch_of(t.root_state) < 2:
        raise ValueError("root degree below two")
    for q in sorted(t.non_root_states):
        if t.branch_of(q) < 1:
            raise ValueError(f"state {q!r} gives degree-one vertices")


def rooted_matching(t: AutomaticTree) -> MatchingOracle:
    """Total matching of a tree whose every vertex has at least one child."""
    for q in t.states:
        if t.branch_of(q) < 1:
            raise ValueError(f"state {q!r} has no children")
    comp = _Component(t, ROOT)
    return MatchingOracle(t, lambda v: True, comp.partner, "rooted", _prefixes_of(ROOT))


@dataclass(frozen=True)
class LineReport:
    """The doubly infinite line spanned by two inequivalent ends, with the
    positions of its degree->=3 vertices summarized periodically."""

    m: TreeVertex
    m_len: int
    e1: EndDescriptor
    e2: EndDescriptor
    odd_pair: bool
    a_parities: frozenset
    a_positions_sample: tuple
    side_summaries: tuple  # ((preperiod, period, infinitely_many_a), ...) per side

    def contains(self, v: TreeVertex) -> bool:
        if len(v) < self.m_len:
            return False
        return v == self.e1.prefix(len(v)) or v == self.e2.prefix(len(v))


@dataclass(frozen=True)
class BSet:
    """The exceptional set of an end-based construction: empty, the whole
    component (when the toward-end map is injective), or a line."""

    kind: str  # "empty" | "injective_part" | "line"
    line: LineReport | None = None

    def contains(self, v: TreeVertex) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "injective_part":
            return True
        return self.line.contains(v)


@dataclass
class EndsOutput:
    b_set: BSet
    oracle: MatchingOracle
    n_ends: int
    note: str = ""
    # What match_ends verified: the window size, B's window vertices in
    # shortlex order, and the WindowPairs seen from the rest of the window.
    window_size: int = 0
    b_vertices: tuple = ()
    pairs: Sequence = ()


class _TailFlags:
    """Eventually periodic boolean sequence flag(j), j >= 1, discovered by
    walking a keyed deterministic sequence until a key repeats."""

    def __init__(self, keyed_flags: Iterable):
        flags = [False]  # index 0 unused
        seen = {}
        for j, (key, fl) in enumerate(keyed_flags, start=1):
            if key in seen:
                self.pre = seen[key] - 1
                self.period = j - seen[key]
                break
            seen[key] = j
            flags.append(fl)
        else:
            raise InvariantViolationError("tail walk did not cycle")
        self.flags = flags  # positions 1 .. pre+period
        cyc = flags[self.pre + 1 : self.pre + self.period + 1]
        self.cycle_any = any(cyc)
        self.cycle_all = all(cyc)
        if self.cycle_any:
            self.last = None  # flagged positions are unbounded
        else:
            self.last = max((i for i in range(1, len(flags)) if flags[i]), default=None)

    def flag(self, j: int) -> bool:
        if j <= self.pre + self.period:
            return self.flags[j]
        return self.flags[self.pre + 1 + (j - self.pre - 1) % self.period]


def _ray_flag_walk(t: AutomaticTree, e: EndDescriptor, start_depth: int):
    """(key, flag) per tail position j >= 1 along e below depth start_depth;
    flag marks branch >= 2 (an extra neighbor besides line and parent)."""
    q = t.state_of(e.prefix(start_depth))
    pre_len = len(e.preperiod)
    per_len = len(e.period)
    d = start_depth
    while True:
        q = t.step(q, e.index(d))
        d += 1
        phase = d if d < pre_len else pre_len + (d - pre_len) % per_len
        yield ((q, phase), t.branch_of(q) >= 2)


class _Line:
    """Signed coordinates along the doubly infinite line spanned by two
    inequivalent ends: their divergence vertex m at 0, the first end's tail
    on the negative side, the second end's on the positive side. Positions
    whose vertex has a neighbor off the line are flagged; _scan walks to the
    next flagged one within the budget, or returns None when its side has
    none left."""

    def __init__(self, t: AutomaticTree, e1: EndDescriptor, e2: EndDescriptor, budget: int):
        self.t = t
        self.e1 = e1
        self.e2 = e2
        self.budget = budget
        m_len = divergence_length(e1, e2)
        if m_len is None:
            raise ValueError("ends are equivalent")
        self.m_len = m_len
        self.m = e1.prefix(m_len)
        self._e1_turn = e1.index(m_len)  # the first end's index below m
        self.side1 = _TailFlags(_ray_flag_walk(t, e1, m_len))
        self.side2 = _TailFlags(_ray_flag_walk(t, e2, m_len))
        state_m = t.state_of(self.m)
        if self.m == ROOT:
            self.a0 = t.branch_of(state_m) >= 3
        else:
            self.a0 = t.branch_of(state_m) >= 2

    def vertex_at(self, pos: int) -> TreeVertex:
        if pos >= 0:
            return self.e2.prefix(self.m_len + pos) if pos else self.m
        return self.e1.prefix(self.m_len - pos)

    def position_of(self, v: TreeVertex) -> int | None:
        n = len(v)
        if n <= self.m_len:
            return 0 if v == self.m else None
        # Past m the index at depth m_len tells which ray v can be on.
        if v[self.m_len] == self._e1_turn:
            return self.m_len - n if v == self.e1.prefix(n) else None
        return n - self.m_len if v == self.e2.prefix(n) else None

    def a_at(self, pos: int) -> bool:
        if pos == 0:
            return self.a0
        if pos > 0:
            return self.side2.flag(pos)
        return self.side1.flag(-pos)

    def _scan(self, pos: int, step: int) -> int | None:
        side = self.side2 if step > 0 else self.side1
        q = pos + step
        for _ in range(self.budget):
            j = q * step  # tail coordinate once past the divergence vertex
            if j > 0 and not side.cycle_any and (side.last is None or j > side.last):
                return None
            if self.a_at(q):
                return q
            q += step
        raise BudgetExceededError(
            f"budget exceeded walking the line from {render_path(self.vertex_at(pos))}",
            frontier=(self.vertex_at(pos),),
        )

    def next_a(self, pos: int) -> int | None:
        return self._scan(pos, 1)

    def prev_a(self, pos: int) -> int | None:
        return self._scan(pos, -1)

    def anchors(self, depth: int) -> list:
        """The prefixes of m and the line's vertices down to depth."""
        out = [self.m[:n] for n in range(self.m_len + 1)]
        for n in range(self.m_len + 1, depth + 1):
            out += (self.e1.prefix(n), self.e2.prefix(n))
        return out


class _OneEndSpine(_Line):
    """The one-end construction's line through the root: the leftmost
    descent (c)|0 from the lowest root child c off the chosen end, then the
    end itself, so the root sits at position 0."""

    def __init__(self, t: AutomaticTree, e: EndDescriptor, budget: int):
        c_idx = 1 if e.index(0) == 0 else 0
        super().__init__(t, EndDescriptor((c_idx,), (0,)), e, budget)
        self.cofinal = self.side1.cycle_any and self.side2.cycle_any
        self._runs: dict = {}  # run interval -> its component

    def n_of(self, p: int) -> int:
        return self.next_a(p) - p

    def run_interval(self, p: int) -> tuple:
        """Maximal interval of consecutive flagged positions around p,
        trimmed on the right to its subset of odd-gap members. None marks an
        unbounded side."""
        a = p
        while self.a_at(a - 1):
            a -= 1
            if a - 1 < 0 and self.side1.cycle_all and (a - 1) <= -(self.side1.pre + 1):
                a = None
                break
        b_raw = p
        while b_raw is not None and self.a_at(b_raw + 1):
            b_raw += 1
            if b_raw + 1 > 0 and self.side2.cycle_all and (b_raw + 1) >= self.side2.pre + 1:
                b_raw = None
        if b_raw is None:
            b = None
        else:
            b = b_raw if self.n_of(b_raw) % 2 == 1 else b_raw - 1
        return (a, b)

    def run_component(self, p: int) -> _Component:
        interval = self.run_interval(p)
        comp = self._runs.get(interval)
        if comp is None:
            comp = self._runs[interval] = self._build_run_component(*interval)
        return comp

    def _build_run_component(self, a: int | None, b: int | None) -> _Component:
        if (a is None or a <= 0) and (b is None or b >= 0):
            w_pos = 0
        elif b is not None and b < 0:
            w_pos = b
        else:
            w_pos = a

        def keep(v, ch, lo=a, hi=b):
            q = self.position_of(ch)
            if q is None:
                return True
            return (lo is None or q >= lo) and (hi is None or q <= hi)

        return _Component(self.t, self.vertex_at(w_pos), keep)

    def partner(self, v: TreeVertex) -> TreeVertex:
        """The partner of an anchor. m is the root, so every anchor lies on
        the line."""
        pos = self.position_of(v)
        if self.a_at(pos):
            if self.n_of(pos) % 2 == 1:
                return self.run_component(pos).partner(v)
            return self.vertex_at(pos + 1)
        x_pos = self.prev_a(pos)
        d = pos - x_pos
        start_is_odd = (self.next_a(pos) - x_pos) % 2 == 1
        if start_is_odd:
            return self.vertex_at(pos + 1 if d % 2 == 1 else pos - 1)
        return self.vertex_at(pos + 1 if d % 2 == 0 else pos - 1)


def _is_bare_line(t: AutomaticTree) -> bool:
    if t.branch_of(t.root_state) != 2:
        return False
    return all(t.branch_of(q) == 1 for q in t.non_root_states)


def one_end_matching(t: AutomaticTree, e: EndDescriptor, budget: int = 100_000) -> EndsOutput:
    """Matching toward a single end.

    If the toward-end map is injective (the component is a bare line) the
    whole component is exceptional and the matching is empty. Otherwise the
    spine through the root is cut into gaps between its branching vertices;
    gap interiors pair along the spine and everything else is closed off in
    hanging components. When branching vertices are not cofinal in both spine
    directions the whole tree is matched away from the root instead.
    """
    _require_min_degree_two(t)
    if not validate_end(t, e):
        raise ValueError(f"invalid end descriptor {e.render()}")
    if _is_bare_line(t):
        oracle = MatchingOracle(t, lambda v: False, lambda v: None, "one-end injective")
        return EndsOutput(BSet("injective_part"), oracle, 1)
    spine = _OneEndSpine(t, e, budget)
    if not spine.cofinal:
        comp = _Component(t, ROOT)
        oracle = MatchingOracle(
            t, lambda v: True, comp.partner, "one-end rooted fallback", _prefixes_of(ROOT)
        )
        return EndsOutput(BSet("empty"), oracle, 1, note="branching not cofinal along the spine")
    oracle = MatchingOracle(t, lambda v: True, spine.partner, "one-end", spine.anchors)
    return EndsOutput(BSet("empty"), oracle, 1)


class _TwoEndLine(_Line):
    """The two-end construction's line, with the parities of its flagged
    positions: an odd pair of them lets the line itself be matched."""

    def __init__(self, t: AutomaticTree, e1: EndDescriptor, e2: EndDescriptor, budget: int):
        super().__init__(t, e1, e2, budget)
        parities = set()
        if self.a0:
            parities.add(0)
        for side in (self.side1, self.side2):
            for j in range(1, side.pre + 2 * side.period + 1):
                if side.flag(j):
                    parities.add(j % 2)
        self.a_parities = frozenset(parities)
        self.odd_pair = len(parities) >= 2

    def sel(self, pos: int) -> bool:
        """Selected branching vertices: the first-end-side endpoint of every
        odd-length gap between consecutive branching vertices."""
        if not self.a_at(pos):
            return False
        na = self.next_a(pos)
        return na is not None and (na - pos) % 2 == 1

    def prev_sel(self, pos: int) -> int | None:
        deep = -(self.side1.pre + self.side1.period + 2)
        marker = None
        q = pos
        while True:
            q = self.prev_a(q)
            if q is None:
                return None
            if self.sel(q):
                return q
            if q <= deep:
                if marker is None:
                    marker = q
                elif marker - q >= self.side1.period:
                    return None

    def next_sel(self, pos: int) -> int | None:
        deep = self.side2.pre + self.side2.period + 2
        marker = None
        q = pos
        while True:
            q = self.next_a(q)
            if q is None:
                return None
            if self.sel(q):
                return q
            if q >= deep:
                if marker is None:
                    marker = q
                elif q - marker >= self.side2.period:
                    return None

    def line_child_indices(self, pos: int) -> set:
        depth = self.m_len + abs(pos)
        if pos == 0:
            return {self.e1.index(depth), self.e2.index(depth)}
        if pos > 0:
            return {self.e2.index(depth)}
        return {self.e1.index(depth)}

    def hanging_neighbors(self, pos: int) -> list:
        v = self.vertex_at(pos)
        line_idx = self.line_child_indices(pos)
        out = [v + (i,) for i in range(self.t.branch_of(self.t.state_of(v))) if i not in line_idx]
        if pos == 0 and self.m != ROOT:
            out.append(self.m[:-1])
        return out

    def partner_on_line(self, pos: int) -> TreeVertex:
        if self.sel(pos):
            hang = self.hanging_neighbors(pos)
            if not hang:
                raise InvariantViolationError(
                    f"selected line vertex {render_path(self.vertex_at(pos))} has no hanging neighbor"
                )
            return hang[0]
        s = self.prev_sel(pos)
        if s is not None:
            r = pos - s
            return self.vertex_at(pos + 1 if r % 2 == 1 else pos - 1)
        s2 = self.next_sel(pos)
        if s2 is None:
            raise InvariantViolationError("no selected vertex on an odd-pair line")
        r = s2 - pos
        return self.vertex_at(pos - 1 if r % 2 == 1 else pos + 1)

    @cached_property
    def _above(self) -> _Component:
        """The part above m, as one component rooted at m in which m keeps
        only its partner (none without an odd pair, where m is exceptional)."""
        partner_of_m = self.partner_on_line(0) if self.odd_pair else None
        return _Component(self.t, self.m, lambda v, ch: v != self.m or ch == partner_of_m)

    def partner(self, v: TreeVertex) -> TreeVertex:
        """The partner of an anchor: a line vertex, or a prefix of m above
        the line. Without an odd pair only the latter are asked."""
        pos = self.position_of(v)
        if pos is None:
            return self._above.partner(v)
        return self.partner_on_line(pos)

    def report(self) -> LineReport:
        sample = []
        lo = self.side1.pre + 2 * self.side1.period + 2
        hi = self.side2.pre + 2 * self.side2.period + 2
        for pos in range(-lo, hi + 1):
            if self.a_at(pos):
                sample.append(pos)
        return LineReport(
            m=self.m,
            m_len=self.m_len,
            e1=self.e1,
            e2=self.e2,
            odd_pair=self.odd_pair,
            a_parities=self.a_parities,
            a_positions_sample=tuple(sample),
            side_summaries=(
                (self.side1.pre, self.side1.period, self.side1.cycle_any),
                (self.side2.pre, self.side2.period, self.side2.cycle_any),
            ),
        )


def two_end_matching(
    t: AutomaticTree, e1: EndDescriptor, e2: EndDescriptor, budget: int = 100_000
) -> EndsOutput:
    """Matching for exactly two inequivalent ends.

    If the line spanned by the ends has two degree->=3 vertices at odd
    distance, everything is matched: selected branching vertices pair into
    their first hanging subtree, the rest of the line pairs off inside the
    even segments between selections, and hanging pieces are closed
    componentwise. Otherwise the line itself is the exceptional set and only
    the hanging pieces are matched.
    """
    _require_min_degree_two(t)
    for e in (e1, e2):
        if not validate_end(t, e):
            raise ValueError(f"invalid end descriptor {e.render()}")
    line = _TwoEndLine(t, e1, e2, budget)
    if line.odd_pair:
        oracle = MatchingOracle(t, lambda v: True, line.partner, "two-end full", line.anchors)
        return EndsOutput(BSet("empty"), oracle, 2)
    oracle = MatchingOracle(
        t, lambda v: line.position_of(v) is None, line.partner, "two-end off-line", line.anchors
    )
    return EndsOutput(BSet("line", line.report()), oracle, 2)


def many_end_matching(t: AutomaticTree, ends: Sequence) -> EndsOutput:
    """Matching for three or more pairwise inequivalent ends: re-root at the
    median of the first three pairwise divergence vertices and match every
    vertex within its oriented component."""
    _require_min_degree_two(t)
    if len(ends) < 3:
        raise ValueError("need at least three ends")
    for e in ends:
        if not validate_end(t, e):
            raise ValueError(f"invalid end descriptor {e.render()}")
    for a, b in itertools.combinations(ends, 2):
        if ends_equivalent(t, a, b):
            raise ValueError("ends are not pairwise inequivalent")
    e1, e2, e3 = ends[0], ends[1], ends[2]
    div = [
        e1.prefix(divergence_length(e1, e2)),
        e1.prefix(divergence_length(e1, e3)),
        e2.prefix(divergence_length(e2, e3)),
    ]
    median = None
    for v in div:
        if div.count(v) >= 2:
            median = v
            break
    if median is None:
        median = sorted(div, key=len)[1]
    comp = _Component(t, median)
    oracle = MatchingOracle(t, lambda v: True, comp.partner, "many-end", _prefixes_of(median))
    return EndsOutput(BSet("empty"), oracle, len(ends))


def _canonical_end_order(t: AutomaticTree, ends: list) -> list:
    """Pairwise inequivalent ends sorted by their ray words, compared up to
    the deepest divergence of any two."""
    if len(ends) <= 1:
        return list(ends)
    bound = 1 + max(divergence_length(a, b) for a, b in itertools.combinations(ends, 2))
    return sorted(ends, key=lambda e: e.prefix(bound))


def match_ends(
    t: AutomaticTree,
    ends: Sequence,
    budget: int = 100_000,
    check_depth: int = 6,
) -> EndsOutput:
    """Dispatch on the number of pairwise inequivalent ends, then verify the
    construction on a finite window.

    The end list is deduplicated up to equivalence and put in a canonical
    order (by ray words), so permuted or redundantly described lists yield
    identical oracles.
    """
    if not ends:
        raise ValueError("at least one end descriptor required")
    for e in ends:
        if not validate_end(t, e):
            raise ValueError(f"invalid end descriptor {e.render()}")
    reps: list = []
    for e in ends:
        if not any(ends_equivalent(t, e, r) for r in reps):
            reps.append(e)
    reps = _canonical_end_order(t, reps)
    if len(reps) == 1:
        out = one_end_matching(t, reps[0], budget)
    elif len(reps) == 2:
        out = two_end_matching(t, reps[0], reps[1], budget)
    else:
        out = many_end_matching(t, reps)
    out.window_size, out.b_vertices, out.pairs = verify_ends_output(t, out, check_depth)
    return out


def verify_ends_output(t: AutomaticTree, out: EndsOutput, depth: int) -> tuple:
    """Window check of the structural conclusions: the exceptional set B is
    2-regular, spans at most one component, has no two degree->=3 vertices at
    odd distance, is empty on a tree with no bad ray and lies outside the
    oracle domain, and the matching is perfect off B.

    The matching is read in the one restricted_pairs pass over the window
    minus B, which checks tree edges, the involution and partners beyond
    the window it asked. No pair may then reach B: a left-out vertex inside
    the window, or a partner beyond it that was asked pointwise (the anchor
    rule keeps the others off B). The pass asks partner only at the anchors
    and applies the anchor rule elsewhere, which is how out.oracle.partner
    itself answers off the anchors, so this certifies out.oracle.partner on
    the window. Returns (window size, B's window vertices in shortlex order,
    the verified WindowPairs); raises InvariantViolationError on failure."""
    win = t.window(depth)
    in_b = out.b_set.contains
    if out.b_set.kind == "empty":
        b_index = ()
    else:
        b_index = tuple(itertools.compress(range(len(win.paths)), map(in_b, win.paths)))
    b_vertices = tuple(win.paths[j] for j in b_index)
    flagged = set(b_vertices)
    for v in b_vertices:
        inside = sum(1 for w in t.neighbors(v) if in_b(w))
        if inside != 2:
            raise InvariantViolationError(
                f"exceptional vertex {render_path(v)} has {inside} exceptional neighbors"
            )
    if flagged:
        seen = {b_vertices[0]}
        stack = [b_vertices[0]]
        while stack:
            for w in t.neighbors(stack.pop()):
                if w in flagged and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < len(flagged):
            raise InvariantViolationError("exceptional set spans more than one window component")
    branched = [v for v in b_vertices if t.degree(v) >= 3]
    for a, b in itertools.combinations(branched, 2):
        if t.tree_distance(a, b) % 2 == 1:
            raise InvariantViolationError(
                f"exceptional vertices {render_path(a)}, {render_path(b)} "
                "have degree >= 3 and odd distance"
            )
    for v in b_vertices:
        if out.oracle.in_domain(v):
            raise InvariantViolationError(
                f"exceptional vertex {render_path(v)} is in the oracle domain"
            )
    try:
        pairs = out.oracle.restricted_pairs(win, b_index)
    except ValueError as exc:
        raise InvariantViolationError(str(exc)) from exc
    met = pairs.left_out + [pairs[pos] for pos in pairs.beyond if in_b(pairs[pos][1])]
    if met:
        a, b = met[0]
        raise InvariantViolationError(
            f"pair {render_path(a)} {render_path(b)} meets the exceptional set"
        )
    if not has_bad_ray(t) and out.b_set.kind != "empty":
        raise InvariantViolationError(
            "nonempty exceptional set on a tree with no bad ray"
        )
    return len(win.paths), b_vertices, pairs
