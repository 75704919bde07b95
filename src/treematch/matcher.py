"""Constructive perfect matchings on finitely presented infinite trees.

Every construction is fixed by its tripod: the stem of prefixes of a vertex
m, plus, for the one- and two-end constructions, the two rays from m that
span a line. m is the root for the rooted matching and the one-end matching
(and its fallback), the median of the ends for the many-end matching, and
the rays' divergence vertex for two ends. One class, _Line, holds a line's
coordinates and flags for both line constructions. For two ends the rays
are the given ends; for one end they are the end and the leftmost descent
from the lowest root child off it, so the line runs through the root and m
is the root.

Each construction compiles once into a _Tripod: one code per prefix of m,
m's own last, and for a matched line one eventually periodic word per ray,
a preperiod and a cycle over the positions k >= 1 away from m. A code names
a vertex's partner: the neighbour toward m (TOWARD), the one away from m
(AWAY; at m the parent), or child i; at m, child i may be a ray's first
vertex. A line without words is unmatched: m's code is None, and the
line's vertices are outside the domain, have no codes and form the
exceptional set. That is the two-end line with no odd pair, and the bare
line, whose one-end matching leaves its spine through the root unmatched.
The stem codes come from one walk up from m, and the ray words from one
pass over the line's flags, from the deep end of the first ray through m
to the deep end of the second; that pass also checks the budget. The
words are the shortest that fit, so equivalent end descriptors compile to
the same codes.

The tripod's vertices are the anchors, prefix-closed by construction, and
only there is the word read. Everywhere else the anchor rule is the
definition: a vertex pairs with its parent if the parent pairs with it,
and otherwise with its child 0; an anchor outside the domain (a vertex of
an unmatched line) pairs with nobody. A MatchingOracle reads one tripod:
its domain, its anchors and their codes. MatchingOracle.partner finds the
deepest anchor above a query by bisection and carries the rule down from
it, and a window pass (MatchingOracle.restricted_pairs) applies it
top-down; neither keeps any state between calls. The rule is each
construction's component matching off the tripod. In a component, a vertex
pairs with its neighbour toward the component root if that neighbour pairs
with it, and otherwise with its first kept neighbour, children first. Off
the tripod this reduces to the anchor rule. The neighbour toward the
component root is the tree parent, since a component root and the vertices
between it and the tree root lie on the tripod. No component cuts an edge
below a vertex off the tripod: the cuts are at or next to line vertices.
So a vertex off the tripod keeps its child 0.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, InvariantViolationError
from .graph_core import (
    ROOT,
    AutomaticTree,
    EndDescriptor,
    TreeVertex,
    Window,
    divergence_length,
    end_states,
    has_bad_ray,
    render_path,
    validate_end,
)


PARENT = -1  # a window pass's code for "pairs with its parent"; i >= 0 is child i


class WindowPairs(Sequence):
    """The pairs a window pass saw, in window order of their upper ends, as
    window indices: uppers holds each upper end's window index and children
    the lower end's child index under it. As a sequence it reads each pair
    as an (upper, lower) tree edge, built from the window's paths on demand.
    It also holds the window indices of the left-out vertices (the anchors
    outside the domain), the pairs whose lower end lies beyond the window
    and was asked pointwise, as (upper, lower) paths, and the number of
    pointwise partner queries made."""

    def __init__(self, window: Window):
        self.window = window
        self.uppers: list = []
        self.children: list = []
        self.skipped: list = []
        self.beyond: list = []
        self.pointwise = 0

    def __len__(self) -> int:
        return len(self.uppers)

    def __getitem__(self, pos: int) -> tuple:
        v = self.window.paths[self.uppers[pos]]
        return (v, v + (self.children[pos],))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, WindowPairs)):
            return list(self) == list(other)
        return NotImplemented


class MatchingOracle:
    """Pointwise access to a matching compiled to a tripod (module
    docstring). It keeps no state between queries.

    The tripod answers three questions: in_domain(v), is_anchor(v) and, for
    an anchor in the domain, partner(v). The anchors are the prefixes of m
    and the vertices of the tripod's line, if it has one, so they hold the
    root, the parent of every anchor and every vertex outside the domain.
    Every other vertex follows the anchor rule (module docstring)."""

    def __init__(self, tree: AutomaticTree, tripod: "_Tripod", description: str):
        self.tree = tree
        self.tripod = tripod
        self.description = description

    def partner(self, v: TreeVertex) -> TreeVertex:
        if not self.tree.is_valid_vertex(v):
            raise ValueError(f"invalid vertex {render_path(v)}")
        tripod = self.tripod
        if not tripod.in_domain(v):
            raise ValueError(f"vertex {render_path(v)} is outside the oracle domain")
        if tripod.is_anchor(v):
            return tripod.partner(v)
        # The anchors are prefix-closed and hold the root: bisect for the
        # deepest one above v, then carry the anchor rule down the rest of v,
        # with up telling whether the prefix reached pairs with its parent.
        lo, hi = 0, len(v)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tripod.is_anchor(v[:mid]):
                lo = mid
            else:
                hi = mid
        x = v[:lo]
        up = tripod.in_domain(x) and tripod.partner(x) == v[: lo + 1]
        for i in v[lo + 1 :]:
            up = not up and i == 0
        return v[:-1] if up else v + (0,)

    def restricted_pairs(self, win: Window) -> WindowPairs:
        """The matching seen from the window, in one top-down pass over
        window indices.

        The anchors are asked pointwise, in window order. They are
        prefix-closed, so a vertex is tested only when its parent is an
        anchor, and only there is a path built: the parent's path plus (i,).
        An anchor's path is dropped once its children are visited; those at
        the boundary level are kept for the check below. An anchor outside
        the domain is left out: it pairs with nobody and its window index
        goes to skipped. Every other vertex lies in the domain and follows
        the anchor rule, as partner does: it pairs with its parent if the
        parent pairs with it, and otherwise with its child 0.

        By window index the pass checks that each partner is a tree
        neighbour, that the involution holds inside the window and that no
        pair reaches a left-out vertex (ValueError otherwise). A partner one
        level beyond the window that was asked pointwise is asked back after
        the pass and must point back.
        """
        states, first = win.states, win.child_start
        tree = win.tree
        branch = {q: tree.branch_of(q) for q in tree.states}
        n = len(states)
        out = WindowPairs(win)
        uppers, children, skipped, beyond = out.uppers, out.children, out.skipped, out.beyond
        in_domain, is_anchor = self.tripod.in_domain, self.tripod.is_anchor
        anchors = {0: ROOT}  # window index -> path, of the anchors whose children are unvisited
        choice = [None] * n  # PARENT, a child index, or None for a left-out vertex
        boundary = win.boundary_start

        def ask(c: int, v: TreeVertex) -> int | None:
            """Anchor c's partner as PARENT or a child index, or None when c
            is outside the domain."""
            if not in_domain(v):
                skipped.append(c)
                return None
            out.pointwise += 1
            p = self.partner(v)
            d = len(v)
            if len(p) == d + 1 and p[:d] == v:
                if not 0 <= p[-1] < branch[states[c]]:
                    raise ValueError(f"invalid vertex {render_path(p)}")
                return p[-1]
            if d and len(p) == d - 1 and p == v[:-1]:
                return PARENT
            if p == v:
                raise ValueError(f"loop pair {v!r}")
            raise ValueError(f"pair {render_path(v)} {render_path(p)} is not a tree edge")

        def childless(j: int) -> InvariantViolationError:
            return InvariantViolationError(f"vertex {win.names[j]} has no child to pair with")

        choice[0] = ask(0, ROOT)
        zeros = [0] * max(branch.values(), default=0)
        for j in range(boundary):
            up = choice[j]
            k = branch[states[j]]
            v = anchors.pop(j, None)
            if not k:
                if up == 0:
                    raise childless(j)
                continue
            start = first[j]
            if up is not None and up >= 0:
                uppers.append(j)
                children.append(up)
            end = start + k
            if v is None:
                choice[start:end] = zeros[:k]
                if up == 0:
                    choice[start] = PARENT
                continue
            for c in range(start, end):
                i = c - start
                w = v + (i,)
                if not is_anchor(w):
                    choice[c] = PARENT if up == i else 0
                    continue
                anchors[c] = w
                code = choice[c] = ask(c, w)
                if code == PARENT and up != i or up == i and code != PARENT:
                    if up is None or code is None:
                        raise ValueError(
                            f"pair {render_path(v)} {render_path(w)} "
                            "meets a vertex outside the domain"
                        )
                    raise ValueError(f"vertex {(v if code == PARENT else w)!r} matched twice")
        for j in range(boundary, n):
            up = choice[j]
            if up is not None and up >= 0:
                if not branch[states[j]]:
                    raise childless(j)
                uppers.append(j)
                children.append(up)
                if j in anchors:
                    beyond.append((anchors[j], anchors[j] + (up,)))
        for a, b in beyond:
            out.pointwise += 1
            if self.partner(b) != a:
                raise ValueError(f"partner map is not an involution at {render_path(a)}")
        return out


TOWARD, AWAY = -1, -2  # tripod codes besides child i >= 0 (module docstring)


def _require_min_degree_two(t: AutomaticTree) -> None:
    if t.branch_of(t.root_state) < 2:
        raise ValueError("root degree below two")
    for q in sorted(t.non_root_states):
        if t.branch_of(q) < 1:
            raise ValueError(f"state {q!r} gives degree-one vertices")


@dataclass(frozen=True)
class _Word:
    """An eventually periodic code word over the positions k >= 1 of a ray:
    pre, then cycle repeated."""

    pre: tuple
    cycle: tuple

    def __getitem__(self, k: int):
        if k <= len(self.pre):
            return self.pre[k - 1]
        return self.cycle[(k - len(self.pre) - 1) % len(self.cycle)]

    @classmethod
    def shortest(cls, codes: list, start: int, period: int) -> "_Word":
        """The shortest word that reads codes[k] for 1 <= k < len(codes),
        given that the codes repeat with period from start on and that
        codes[start:] holds at least two periods. The smallest repeat is a
        divisor of period; the preperiod is then cut as far as it goes."""
        end = len(codes)
        for d in range(1, period + 1):
            if period % d == 0 and all(codes[k] == codes[k + d] for k in range(start, end - d)):
                break
        else:
            raise InvariantViolationError("ray codes do not repeat with the flags")
        while start > 1 and codes[start - 1] == codes[start - 1 + d]:
            start -= 1
        return cls(tuple(codes[1:start]), tuple(codes[start : start + d]))


@dataclass(frozen=True)
class _Tripod:
    """A construction compiled to its tripod (module docstring): m, the
    codes of m's prefixes with m's own last, and for a matched line one word
    per ray, the first ray's at index 0. A line without words is unmatched:
    its vertices are anchors outside the domain and have no codes, and it is
    the construction's exceptional set."""

    m: TreeVertex
    stem: tuple
    line: "_Line | None" = None
    words: tuple = ()

    def in_domain(self, v: TreeVertex) -> bool:
        return self.line is None or bool(self.words) or self.line.position_of(v) is None

    def is_anchor(self, v: TreeVertex) -> bool:
        n = len(v)
        if n <= len(self.m):
            return v == self.m[:n]
        return self.line is not None and self.line.position_of(v) is not None

    def partner(self, v: TreeVertex) -> TreeVertex:
        """The partner of an anchor in the domain, read from its code."""
        n = len(v)
        if n <= len(self.m):
            code = self.stem[n]
            if code == TOWARD:
                return self.m[: n + 1]
        else:
            pos = self.line.position_of(v)
            code = self.words[pos > 0][abs(pos)]
            if code == TOWARD:
                return v[:-1]
            if code == AWAY:
                return v + ((self.line.e2 if pos > 0 else self.line.e1).index(n),)
        return v[:-1] if code == AWAY else v + (code,)


def _stem(t: AutomaticTree, m: TreeVertex, m_code) -> tuple:
    """The codes of m's prefixes, m's own (given; child 0 for a component
    matching rooted at m) last, by the component rule in one walk up from m: a prefix pairs toward m if its child toward
    m pairs with it, and otherwise with its first other child. The root has
    one, since every caller's tree has root degree at least two or m at the
    root; any other prefix without one pairs with its parent."""
    states = [t.root_state]
    for i in m[:-1]:
        states.append(t.step(states[-1], i))
    codes = [m_code]
    for n in range(len(m) - 1, -1, -1):
        if codes[-1] == AWAY:
            codes.append(TOWARD)
        else:
            codes.append(next((i for i in range(t.branch_of(states[n])) if i != m[n]), AWAY))
    return tuple(reversed(codes))


def rooted_matching(t: AutomaticTree) -> MatchingOracle:
    """Total matching of a tree whose every vertex has at least one child."""
    for q in t.states:
        if t.branch_of(q) < 1:
            raise ValueError(f"state {q!r} has no children")
    return MatchingOracle(t, _Tripod(ROOT, _stem(t, ROOT, 0)), "rooted")


@dataclass(frozen=True)
class BSet:
    """The exceptional set of an end-based construction: empty, or the
    unmatched line of its tripod. On a bare line (the toward-end map is
    injective) that line is the whole component."""

    kind: str  # "empty" | "injective_part" | "line"
    line: "_Line | None" = None

    def contains(self, v: TreeVertex) -> bool:
        return self.line is not None and self.line.position_of(v) is not None

    def window_indices(self, win: Window) -> tuple:
        """B's vertices down to path length win.depth + 1, ascending, by index
        in the window one level deeper (those from len(win.states) on are
        the boundary's children). Each ray is walked from the root through m
        by child_start: O(depth) steps, and no window path is built."""
        if self.line is None:
            return ()
        first, out = win.child_start, set()
        for e in (self.line.e1, self.line.e2):
            walk = itertools.accumulate(e.prefix(win.depth + 1), lambda j, i: first[j] + i, initial=0)
            out.update(itertools.islice(walk, self.line.m_len, None))
        return tuple(sorted(out))


@dataclass
class EndsOutput:
    b_set: BSet
    oracle: MatchingOracle
    n_ends: int
    # What match_ends verified: the window size, B's window indices in
    # ascending order, and the WindowPairs seen from the rest of the window.
    window_size: int = 0
    b_index: tuple = ()
    pairs: Sequence = ()


class _TailFlags:
    """The states along an end below a start depth, one per tail position
    j >= 1, read from the end's walk from the root (graph_core.end_states):
    positions past pre repeat with period. A position is flagged when its
    vertex has a child off the end (branch >= 2)."""

    def __init__(self, t: AutomaticTree, e: EndDescriptor, start_depth: int):
        self.states, self.loop = end_states(t, e)
        self.start = start_depth
        self.pre = max(0, self.loop - start_depth - 1)
        self.period = len(self.states) - self.loop
        self.flags = [t.branch_of(q) >= 2 for q in self.states]
        self.cycle_any = any(self.flags[self.loop :])

    def _depth(self, j: int) -> int:
        """The walk index of tail position j; j = 0 is the start itself."""
        d = self.start + j
        if d < len(self.states):
            return d
        return self.loop + (d - self.loop) % self.period

    def state(self, j: int) -> str:
        return self.states[self._depth(j)]

    def flag(self, j: int) -> bool:
        return self.flags[self._depth(j)]


class _Line:
    """Signed coordinates along the doubly infinite line spanned by two
    inequivalent ends: their divergence vertex m at 0, the first end's tail
    on the negative side, the second end's on the positive side. Positions
    whose vertex has a neighbor off the line are flagged, and an odd pair
    is two flagged positions at odd distance."""

    def __init__(self, t: AutomaticTree, e1: EndDescriptor, e2: EndDescriptor):
        self.t = t
        self.e1 = e1
        self.e2 = e2
        m_len = divergence_length(e1, e2)
        if m_len is None:
            raise ValueError("ends are equivalent")
        self.m_len = m_len
        self.m = e1.prefix(m_len)
        self._e1_turn = e1.index(m_len)  # the first end's index below m
        self.side1 = _TailFlags(t, e1, m_len)
        self.side2 = _TailFlags(t, e2, m_len)
        self.state_m = self.side1.state(0)
        if self.m == ROOT:
            self.a0 = t.branch_of(self.state_m) >= 3
        else:
            self.a0 = t.branch_of(self.state_m) >= 2
        parities = {0} if self.a0 else set()
        for side in (self.side1, self.side2):
            for j in range(1, side.pre + 2 * side.period + 1):
                if side.flag(j):
                    parities.add(j % 2)
        self.a_parities = frozenset(parities)
        self.odd_pair = len(parities) >= 2

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


def _line_tripod(line: _Line, budget: int, spine: bool) -> _Tripod:
    """Compile a matched line in one pass over its flags: the one-end spine
    (spine true) or an odd-pair two-end line.

    Past each side's preperiod plus one period the codes repeat with twice
    the side's flag period, so the pass covers positions down to the
    preperiod plus five periods on each side, and two periods more that only
    the codes nearer m read. A gap between consecutive flagged positions
    longer than budget raises BudgetExceededError; the walk named is the one
    from the lower end of the gap nearest m.

    Spine: a flagged position with an even gap to the next pairs along the
    line with the next position, and a position off the flags pairs with
    the neighbour an even distance from the next flagged position. The
    other flagged positions form runs of adjacent ones, each a component
    with its hanging subtrees, walked down from its shallowest vertex.
    Two-end: the selected positions are the flagged ones with an odd gap to
    the next. Each pairs with its first hanging neighbour; every other
    position pairs within the even segment behind the selected position
    before it, or, with none before it, ahead of the first one."""
    t, m_len = line.t, line.m_len
    sides = (line.side1, line.side2)
    reach = [s.pre + 5 * s.period + 2 for s in sides]
    lo = -(reach[0] + 2 * sides[0].period + 2)
    hi = reach[1] + 2 * sides[1].period + 2
    flagged = [p for p in range(lo, hi + 1) if line.a_at(p)]
    gaps = list(zip(flagged, flagged[1:]))
    too_long = [g for g in gaps if g[1] - g[0] > budget]
    if too_long:
        x, _ = min(too_long, key=lambda g: min(abs(g[0]), abs(g[1])))
        start = line.vertex_at(x)
        raise BudgetExceededError(
            f"budget exceeded walking the line from {render_path(start)}", frontier=(start,)
        )

    def branch(p):
        if p == 0:
            return t.branch_of(line.state_m)
        return t.branch_of(sides[p > 0].state(abs(p)))

    def line_step(p, i):
        """+1 or -1 when child i of position p is the line's next position
        that way, else 0."""
        d = m_len + abs(p)
        if p >= 0 and i == line.e2.index(d):
            return 1
        if p <= 0 and i == line.e1.index(d):
            return -1
        return 0

    def along(p, step):
        """The code of position p's line neighbour at p + step."""
        if p == 0:
            return (line.e2 if step > 0 else line.e1).index(m_len)
        return AWAY if (p > 0) == (step > 0) else TOWARD

    code: dict = {}
    if spine:
        after = dict(gaps)
        for p in range(lo, flagged[-1]):
            y = flagged[bisect.bisect_right(flagged, p)]
            if not line.a_at(p) or (y - p) % 2 == 0:
                code[p] = along(p, 1 if (y - p) % 2 == 0 else -1)
        runs: list = []
        for p in flagged:
            if runs and runs[-1][1] == p - 1:
                runs[-1][1] = p
            else:
                runs.append([p, p])
        for a, b in runs:
            if (after.get(b, b + 1) - b) % 2 == 0:
                b -= 1  # b pairs along the line with b + 1
            if a > b:
                continue

            def first(p, a=a, b=b):
                """The code of p's first child kept in the run's component."""
                for i in range(branch(p)):
                    step = line_step(p, i)
                    if not step or a <= p + step <= b:
                        return along(p, step) if step else i

            w = 0 if a <= 0 <= b else b if b < 0 else a
            code[w] = first(w)
            for step, end in ((1, b), (-1, a)):
                prev = w
                for u in range(w + step, end + step, step):
                    code[u] = TOWARD if code[prev] == along(prev, step) else first(u)
                    prev = u
    else:
        selected = [x for x, y in gaps if (y - x) % 2]
        chosen = set(selected)
        for p in range(lo, hi + 1):
            if p in chosen:
                hanging = (i for i in range(branch(p)) if not line_step(p, i))
                code[p] = next(hanging, AWAY)  # only m has a hanging parent
                continue
            i = bisect.bisect_left(selected, p)
            if i:
                step = 1 if (p - selected[i - 1]) % 2 else -1
            else:
                step = 1 if (selected[0] - p) % 2 == 0 else -1
            code[p] = along(p, step)
    words = tuple(
        _Word.shortest([None] + [code[sign * k] for k in range(1, r + 1)],
                       s.pre + s.period + 1, 2 * s.period)
        for sign, r, s in zip((-1, 1), reach, sides)
    )
    return _Tripod(line.m, _stem(t, line.m, code[0]), line, words)


def _is_bare_line(t: AutomaticTree) -> bool:
    if t.branch_of(t.root_state) != 2:
        return False
    return all(t.branch_of(q) == 1 for q in t.non_root_states)


def one_end_matching(t: AutomaticTree, e: EndDescriptor, budget: int = 100_000) -> EndsOutput:
    """Matching toward a single end.

    If the toward-end map is injective (the component is a bare line) the
    spine is the whole component: it is left unmatched and is the
    exceptional set. Otherwise the spine through the root is cut into gaps
    between its branching vertices; gap interiors pair along the spine and
    everything else is closed off in hanging components. When branching
    vertices are not cofinal in both spine directions the whole tree is
    matched away from the root instead.
    """
    _require_min_degree_two(t)
    if not validate_end(t, e):
        raise ValueError(f"invalid end descriptor {e.render()}")
    # The spine is the leftmost descent (c)|0 from the lowest root child c
    # off the end, then the end itself, so the root sits at position 0.
    spine = _Line(t, EndDescriptor((1 if e.index(0) == 0 else 0,), (0,)), e)
    if _is_bare_line(t):
        tripod = _Tripod(ROOT, _stem(t, ROOT, None), spine)
        oracle = MatchingOracle(t, tripod, "one-end injective")
        return EndsOutput(BSet("injective_part", spine), oracle, 1)
    if not (spine.side1.cycle_any and spine.side2.cycle_any):
        tripod = _Tripod(ROOT, _stem(t, ROOT, 0))
        return EndsOutput(BSet("empty"), MatchingOracle(t, tripod, "one-end rooted fallback"), 1)
    tripod = _line_tripod(spine, budget, spine=True)
    return EndsOutput(BSet("empty"), MatchingOracle(t, tripod, "one-end"), 1)


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
    line = _Line(t, e1, e2)
    if line.odd_pair:
        tripod = _line_tripod(line, budget, spine=False)
        return EndsOutput(BSet("empty"), MatchingOracle(t, tripod, "two-end full"), 2)
    tripod = _Tripod(line.m, _stem(t, line.m, None), line)
    return EndsOutput(BSet("line", line), MatchingOracle(t, tripod, "two-end off-line"), 2)


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
        if divergence_length(a, b) is None:
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
    tripod = _Tripod(median, _stem(t, median, 0))
    return EndsOutput(BSet("empty"), MatchingOracle(t, tripod, "many-end"), len(ends))


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
        if all(divergence_length(e, r) is not None for r in reps):
            reps.append(e)
    reps = _canonical_end_order(t, reps)
    if len(reps) == 1:
        out = one_end_matching(t, reps[0], budget)
    elif len(reps) == 2:
        out = two_end_matching(t, reps[0], reps[1], budget)
    else:
        out = many_end_matching(t, reps)
    out.window_size, out.b_index, out.pairs = verify_ends_output(t, out, check_depth)
    return out


def verify_ends_output(t: AutomaticTree, out: EndsOutput, depth: int) -> tuple:
    """Window check of the structural conclusions: the exceptional set B is
    2-regular, spans at most one component, has no two degree->=3 vertices at
    odd distance, is empty on a tree with no bad ray and is exactly the
    window's vertices outside the oracle domain, and the matching is perfect
    off B.

    The matching is read in the one restricted_pairs pass over the window,
    which leaves out the vertices outside the domain and checks tree edges,
    the involution, that no pair reaches a left-out vertex and the partners
    beyond the window it asked. Those left out must be B's window vertices,
    and no partner beyond the window that was asked pointwise may lie in B
    (the anchor rule keeps the others off B). The pass asks partner only at
    the anchors and applies the anchor rule elsewhere, which is how
    out.oracle.partner itself answers off the anchors, so this certifies
    out.oracle.partner on the window. Returns (window size, B's window
    indices in ascending order, the verified WindowPairs); raises
    InvariantViolationError on failure. B comes from BSet.window_indices,
    one level deeper than the window so that boundary children count. The
    checks read degrees from child_start, parents by bisection in it and
    depths from level starts: no path is built, no vertex walked."""
    win = t.window(depth)
    n, first = len(win.states), win.child_start
    deeper = out.b_set.window_indices(win)
    in_b = set(deeper)
    b_index = deeper[: bisect.bisect_left(deeper, n)]
    ups = [bisect.bisect_right(first, j) - 1 for j in b_index]  # the root's is -1
    for j, up in zip(b_index, ups):
        inside = bisect.bisect_left(deeper, first[j + 1]) - bisect.bisect_left(deeper, first[j])
        inside += up in in_b
        if inside != 2:
            raise InvariantViolationError(
                f"exceptional vertex {win.names[j]} has {inside} exceptional neighbors"
            )
    # The window's B vertices span a forest, whose edges join a vertex to its
    # parent: one component when there is one vertex more than edges.
    if len(b_index) - sum(up in in_b for up in ups) > 1:
        raise InvariantViolationError("exceptional set spans more than one window component")
    # A tree is bipartite by depth, so two vertices lie at odd distance
    # exactly when their depths differ in parity. Level k + 1 starts at
    # level k's first vertex's first child.
    branched = [j for j in b_index if first[j + 1] - first[j] + (j != 0) >= 3]
    starts = [0]
    while branched and starts[-1] < win.boundary_start:
        starts.append(first[starts[-1]])
    parity = [(bisect.bisect_right(starts, j) - 1) % 2 for j in branched]
    opposite = [j for j, p in zip(branched, parity) if p != parity[0]]
    if opposite:
        raise InvariantViolationError(
            f"exceptional vertices {win.names[branched[0]]}, {win.names[opposite[0]]} "
            "have degree >= 3 and odd distance"
        )
    try:
        pairs = out.oracle.restricted_pairs(win)
    except ValueError as exc:
        raise InvariantViolationError(str(exc)) from exc
    odd = set(pairs.skipped).symmetric_difference(b_index)
    if odd:
        j = min(odd)
        v = win.names[j]
        if j in in_b:
            raise InvariantViolationError(f"exceptional vertex {v} is in the oracle domain")
        raise InvariantViolationError(f"vertex {v} is outside the oracle domain and not exceptional")
    met = [(a, b) for a, b in pairs.beyond if out.b_set.contains(b)]
    if met:
        a, b = met[0]
        raise InvariantViolationError(
            f"pair {render_path(a)} {render_path(b)} meets the exceptional set"
        )
    if not has_bad_ray(t) and out.b_set.kind != "empty":
        raise InvariantViolationError(
            "nonempty exceptional set on a tree with no bad ray"
        )
    return n, b_index, pairs
