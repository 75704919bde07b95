"""Level-by-level recursion building a pair system R_n inside S_n over
length-n binary strings.

R grows by extending every pair with equal child bits, plus one scheduled
new pair per odd step. S starts as everything and shrinks only through
prune records: a record (m, u*, v*) means any pair whose first string starts
with u* must have a second string starting with v*. Storing the records
instead of S itself keeps levels cheap while membership stays exact.

The checkers never walk the 2^n strings of a level. The strings extending a
prefix w form one range of values (a cylinder), so the at most n seed strings
and n/2 prune strings cut the level into O(n) ranges on which every question
asked here has a constant answer; each checker answers once per range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat

from .errors import InvariantViolationError


def _word(x: int, n: int) -> str:
    """The length-n binary string with value x."""
    return format(x, f"0{n}b") if n else ""


def _span(w: str, n: int) -> tuple:
    """The values of the length-n strings extending w, as a half-open range."""
    shift = n - len(w)
    lo = int(w, 2) << shift if w else 0
    return lo, lo + (1 << shift)


def _pieces(n: int, words) -> list:
    """Cut the values of the length-n strings at both ends of each word's
    cylinder. Returns (lo, hi, c) per piece: every string with a value in
    [lo, hi) extends exactly c of the words. Words longer than n extend
    nothing."""
    spans = [_span(w, n) for w in words if len(w) <= n]
    cuts = sorted({0, 1 << n}.union(*spans))
    return [
        (lo, hi, sum(a <= lo < b for a, b in spans))
        for lo, hi in zip(cuts, cuts[1:])
    ]


@dataclass(frozen=True)
class LevelSystem:
    """Level n of the recursion.

    Invariant: R_n is exactly the equal-bit expansion of the seeds, that is
    pairs holds (u_k·0·w, v_k·1·w) for every (u_k, v_k) in u_history and
    every w of length n - 2k - 1. The checkers read the seeds and the prune
    records only; pairs is kept materialised for callers that list R_n.
    """

    n: int
    pairs: tuple  # sorted (u, v) string pairs
    prunes: tuple  # (m, u_star, v_star) constraints defining S
    u_history: tuple  # (scheduled u_2k, chosen v_2k) per completed odd step
    v_history: tuple  # (scheduled v_2k+1, chosen u_2k+1) per completed even step

    def seeds(self) -> tuple:
        """(u_k·0, v_k·1) per odd step: the pairs each step adjoined."""
        return tuple((u + "0", v + "1") for u, v in self.u_history)

    def applicable_prunes(self, u: str) -> list:
        return sorted(
            (m, us, vs) for (m, us, vs) in self.prunes if u[:m] == us
        )

    def forced_prefix(self, u: str) -> str | None:
        """Longest second-string prefix forced for first string u, or None
        if the applicable constraints contradict each other."""
        forced = ""
        for m, _, vs in self.applicable_prunes(u):
            if vs[: len(forced)] != forced:
                return None
            forced = vs
        return forced

    def _forced_pieces(self):
        """(lo, hi, forced prefix) over ranges of first-string values that
        together cover every first string in order."""
        n = self.n
        for lo, hi, _ in _pieces(n, [us for _, us, _ in self.prunes]):
            yield lo, hi, self.forced_prefix(_word(lo, n))

    def s_contains(self, u: str, v: str) -> bool:
        return all(
            v[:m] == vs for (m, us, vs) in self.prunes if u[:m] == us
        )

    def s_size(self) -> int:
        total = 0
        for lo, hi, forced in self._forced_pieces():
            if forced is not None:
                total += (hi - lo) << (self.n - len(forced))
        return total

    def s_pairs(self):
        """All of S in sorted order; exponential in the level, meant for
        small-level dumps."""
        n = self.n
        for lo, hi, forced in self._forced_pieces():
            if forced is None:
                continue
            free = n - len(forced)
            seconds = [forced + _word(j, free) for j in range(1 << free)]
            for x in range(lo, hi):
                yield from zip(repeat(_word(x, n)), seconds)

    def _blocked(self, v: str) -> list:
        """Prefixes of the first strings that are in the pair projection or
        that S forbids next to second string v."""
        return [a for a, _ in self.seeds()] + [
            us for (m, us, vs) in self.prunes if v[:m] != vs
        ]


def init_level() -> LevelSystem:
    return LevelSystem(0, (), (), (), ())


def dense_schedule(m: int) -> tuple:
    """m-th scheduled strings: the m-th binary string in length-lexicographic
    order, zero-padded to the step lengths 2m and 2m+1."""
    length = (m + 1).bit_length() - 1
    offset = m + 1 - (1 << length)
    w = format(offset, f"0{length}b") if length else ""
    return (w + "0" * (2 * m - length), w + "0" * (2 * m + 1 - length))


def _children(pairs) -> list:
    return [(u + b, v + b) for (u, v) in pairs for b in "01"]


def _odd_step(ls: LevelSystem) -> LevelSystem:
    """Level 2k -> 2k+1: schedule u_2k, pick the least v with (u,v) in S,
    and adjoin the unequal-bit child of that pair."""
    k = len(ls.u_history)
    u_sched = dense_schedule(k)[0]
    forced = ls.forced_prefix(u_sched)
    if forced is None:
        raise InvariantViolationError(
            f"no second string is compatible with {u_sched!r}"
        )
    v_pick = forced + "0" * (ls.n - len(forced))
    new_pairs = _children(ls.pairs)
    new_pairs.append((u_sched + "0", v_pick + "1"))
    return LevelSystem(
        ls.n + 1,
        tuple(sorted(new_pairs)),
        ls.prunes,
        ls.u_history + ((u_sched, v_pick),),
        ls.v_history,
    )


def _pick_u(ls: LevelSystem, v_sched: str) -> str:
    """Least first string outside the pair projection that S allows next to
    v_sched."""
    free = [lo for lo, _, c in _pieces(ls.n, ls._blocked(v_sched)) if not c]
    if not free:
        raise InvariantViolationError(
            f"no first string available for {v_sched!r}"
        )
    return _word(free[0], ls.n)


def _even_step(ls: LevelSystem) -> LevelSystem:
    """Level 2k+1 -> 2k+2: schedule v_2k+1, pick the least unused u next to
    it, and prune every future pair at (u·0, *) except toward v·1."""
    k = len(ls.v_history)
    v_sched = dense_schedule(k)[1]
    u_pick = _pick_u(ls, v_sched)
    prune = (ls.n + 1, u_pick + "0", v_sched + "1")
    return LevelSystem(
        ls.n + 1,
        tuple(sorted(_children(ls.pairs))),
        ls.prunes + (prune,),
        ls.u_history,
        ls.v_history + ((v_sched, u_pick),),
    )


def levels(max_n: int):
    """Yield every level 0..max_n in order."""
    ls = init_level()
    yield ls
    while ls.n < max_n:
        ls = _odd_step(ls) if ls.n % 2 == 0 else _even_step(ls)
        yield ls


def check_condition1(ls: LevelSystem) -> tuple:
    """Every first string admits a compatible second string. Returns
    (ok, failing first strings)."""
    failing = tuple(
        _word(x, ls.n)
        for lo, hi, forced in ls._forced_pieces()
        if forced is None
        for x in range(lo, hi)
    )
    return (not failing, failing)


def check_condition2(ls: LevelSystem) -> tuple:
    """Every second string admits a compatible first string outside the pair
    projection. Returns (ok, failing second strings)."""
    n = ls.n
    failing = []
    for lo, hi, _ in _pieces(n, [vs for _, _, vs in ls.prunes]):
        if all(c for _, _, c in _pieces(n, ls._blocked(_word(lo, n)))):
            failing.extend(_word(x, n) for x in range(lo, hi))
    return (not failing, tuple(failing))


def check_acyclic(ls: LevelSystem) -> tuple:
    """The bipartite graph with the pairs as edges is a forest. Returns
    (ok, witness cycle as alternating (side, string) nodes or None).

    Union-find by size over the values of the length-n strings: first
    string u is node int(u), second string v is node 2^n + int(v), where
    the empty string of level 0 has value 0. Raises ValueError for a
    string of another length."""
    n = ls.n
    top = 1 << n
    parent = [-1] * (2 * top)  # a root holds minus the size of its tree
    for i, (u, v) in enumerate(ls.pairs):
        if len(u) != n or len(v) != n:
            raise ValueError(f"pair ({u!r}, {v!r}) is not of length {n}")
        a = int(u or "0", 2)
        while parent[a] >= 0:
            a = parent[a]
        b = top + int(v or "0", 2)
        while parent[b] >= 0:
            b = parent[b]
        if a == b:
            return (False, _forest_path(ls.pairs[:i], ("u", u), ("v", v)))
        if parent[a] > parent[b]:
            a, b = b, a
        parent[a] += parent[b]
        parent[b] = a
    return (True, None)


def _forest_path(pairs, a, b) -> tuple:
    """The path from a to b in the forest whose edges are pairs."""
    adj: dict = {}
    for u, v in pairs:
        adj.setdefault(("u", u), []).append(("v", v))
        adj.setdefault(("v", v), []).append(("u", u))
    prev = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


@dataclass(frozen=True)
class SectionReport:
    n: int
    k: int
    max_passing_len: int  # -1 when even the empty prefix fails
    codimension: int
    failing: tuple  # (prefix, best row section, best column section)


def _starved_blocks(pieces, k: int, size: int):
    """Increasing indices j of the aligned blocks [j*size, (j+1)*size) that
    meet no piece counted k or more."""
    start = 0  # end of the last piece counted k or more
    for lo, hi, c in pieces:
        if c >= k:
            yield from range(-(-start // size), lo // size)
            start = hi
    yield from range(-(-start // size), pieces[-1][1] // size)


def _best(pieces, lo: int, hi: int) -> int:
    return max(c for a, b, c in pieces if a < hi and lo < b)


def section_report(ls: LevelSystem, k: int) -> SectionReport:
    """For each prefix length, does every prefix extend to a first string
    with at least k partners (and symmetrically for second strings)?"""
    n = ls.n
    seeds = ls.seeds()
    rows = _pieces(n, [a for a, _ in seeds])
    cols = _pieces(n, [b for _, b in seeds])
    max_passing = -1
    first_failing = ()
    for ell in range(n + 1):
        size = 1 << (n - ell)
        # the first 8 of the union lie among the first 8 of each side
        failing = sorted(
            set(islice(_starved_blocks(rows, k, size), 8))
            | set(islice(_starved_blocks(cols, k, size), 8))
        )[:8]
        if failing:
            first_failing = tuple(
                (
                    _word(j, ell),
                    _best(rows, j * size, (j + 1) * size),
                    _best(cols, j * size, (j + 1) * size),
                )
                for j in failing
            )
            break
        max_passing = ell
    return SectionReport(
        n=n,
        k=k,
        max_passing_len=max_passing,
        codimension=n - max_passing,
        failing=first_failing,
    )
