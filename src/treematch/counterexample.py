"""Level-by-level recursion building a pair system R_n inside S_n over
length-n binary strings.

R grows by extending every pair with equal child bits, plus one scheduled
new pair per odd step, so R_n is the equal-bit expansion of at most n seed
pairs. S starts as everything and shrinks only through prune records: a
record (m, u*, v*) means any pair whose first string starts with u* must
have a second string starting with v*. A level stores the seeds and the
records, never R or S themselves, so a step costs time polynomial in n;
R_n is listed on demand by a lazy view (SeedPairs).

The checkers never walk the 2^n strings of a level. The strings extending a
prefix w form one range of values (a cylinder), so the at most n seed strings
and n/2 prune strings cut the level into O(n) ranges on which every question
asked here has a constant answer; each checker answers once per range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, repeat

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


def _blocks(lo: int, hi: int, n: int):
    """(prefix, free length) of the maximal aligned cylinders that tile the
    length-n string values [lo, hi), in increasing order."""
    while lo < hi:
        size = lo & -lo or 1 << n
        while lo + size > hi:
            size >>= 1
        free = size.bit_length() - 1
        yield _word(lo >> free, n - free), free
        lo += size


def _suffix_lists(k: int) -> list:
    """All length-j strings in increasing order, for j = 0..k, by doubling."""
    out = [[""]]
    for _ in range(k):
        out.append([w + b for w in out[-1] for b in "01"])
    return out


_SUFFIXES = _suffix_lists(10)


def _cylinder_pairs(p: str, seconds: list, free: int):
    """Iterators that together give (p·w, c·w) for every w of length free in
    increasing order and, for each w, every c of seconds in the order given.
    The last bits of w come from a shared suffix list, so each item is made
    by C-level string joins."""
    low = min(free, len(_SUFFIXES) - 1)
    tails = _SUFFIXES[low]
    for j in range(1 << (free - low)):
        h = _word(j, free - low)
        firsts = list(map((p + h).__add__, tails))
        streams = [zip(firsts, map((c + h).__add__, tails)) for c in seconds]
        yield streams[0] if len(streams) == 1 else chain.from_iterable(zip(*streams))


@dataclass(frozen=True)
class SeedPairs:
    """The equal-bit expansion of seed pairs at level n: every (a·w, b·w)
    with (a, b) a seed and w of length n - |a|, as a sized, iterable view in
    sorted order. Nothing is stored but the seeds, each a pair of strings
    of one length at most n.

    Any two seed first strings are nested or disjoint cylinders, so on each
    piece of first-string values where the same seeds apply, every first
    string has the same prefix a of the deepest of them, and its pairs are
    (a·t, c·t) with c = b_k·a[|a_k|:] per applying seed: the same order of
    second strings for every t. Iteration walks the pieces and interleaves
    one stream per seed."""

    n: int
    seeds: tuple

    def __post_init__(self):
        for a, b in self.seeds:
            if not len(a) == len(b) <= self.n:
                raise ValueError(f"seed ({a!r}, {b!r}) does not fit level {self.n}")

    def __len__(self) -> int:
        return sum(1 << (self.n - len(a)) for a, _ in self.seeds)

    def __iter__(self):
        return chain.from_iterable(self._streams())

    def _streams(self):
        n = self.n
        spans = [_span(a, n) for a, _ in self.seeds]
        for lo, hi, count in _pieces(n, [a for a, _ in self.seeds]):
            if not count:
                continue
            applying = [s for s, (x, y) in zip(self.seeds, spans) if x <= lo < y]
            deep = max((a for a, _ in applying), key=len)
            seconds = sorted(b + deep[len(a):] for a, b in applying)
            for p, free in _blocks(lo, hi, n):
                rest = p[len(deep):]
                yield from _cylinder_pairs(p, [c + rest for c in seconds], free)


@dataclass(frozen=True)
class LevelSystem:
    """Level n of the recursion.

    Invariant: R_n is exactly the equal-bit expansion of the seeds, that is
    (u_k·0·w, v_k·1·w) for every (u_k, v_k) in u_history and every w of
    length n - 2k - 1. The checkers read the seeds and the prune records
    only. For a level made by levels, pairs is the SeedPairs view of the
    seeds; a hand-built system may give an explicit sorted tuple instead.
    """

    n: int
    pairs: SeedPairs | tuple  # R_n in sorted order, as (u, v) string pairs
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

    def s_rows(self):
        """(first string u, its second strings in S) per u with any, in
        sorted order. Rows of one piece share one tuple of second strings.
        Exponential in the level, meant for small-level dumps."""
        n = self.n
        for lo, hi, forced in self._forced_pieces():
            if forced is None:
                continue
            free = n - len(forced)
            seconds = tuple(forced + _word(j, free) for j in range(1 << free))
            for x in range(lo, hi):
                yield _word(x, n), seconds

    def s_pairs(self):
        """All of S in sorted order, as (u, v) pairs."""
        for u, seconds in self.s_rows():
            yield from zip(repeat(u), seconds)

    def _blocked(self, v: str) -> list:
        """Prefixes of the first strings that are in the pair projection or
        that S forbids next to second string v."""
        return [a for a, _ in self.seeds()] + [
            us for (m, us, vs) in self.prunes if v[:m] != vs
        ]


def _level(n: int, prunes: tuple, u_history: tuple, v_history: tuple) -> LevelSystem:
    """A level of the recursion, with pairs the view of its seeds."""
    seeds = tuple((u + "0", v + "1") for u, v in u_history)
    return LevelSystem(n, SeedPairs(n, seeds), prunes, u_history, v_history)


def init_level() -> LevelSystem:
    return _level(0, (), (), ())


def dense_schedule(m: int) -> tuple:
    """m-th scheduled strings: the m-th binary string in length-lexicographic
    order, zero-padded to the step lengths 2m and 2m+1."""
    length = (m + 1).bit_length() - 1
    offset = m + 1 - (1 << length)
    w = format(offset, f"0{length}b") if length else ""
    return (w + "0" * (2 * m - length), w + "0" * (2 * m + 1 - length))


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
    return _level(
        ls.n + 1, ls.prunes, ls.u_history + ((u_sched, v_pick),), ls.v_history
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
    return _level(
        ls.n + 1, ls.prunes + (prune,), ls.u_history, ls.v_history + ((v_sched, u_pick),)
    )


def levels(max_n: int):
    """Yield every level 0..max_n in order.

    Each odd step's seed (u·0, v·1) joins a first string ending in 0 to a
    second string ending in 1, that is copy 0 of the level before to copy 1,
    which no shorter seed connects; so the recursion's own levels cannot
    close a cycle. check_acyclic still checks this."""
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

    Pairs given as a view are the expansion of seeds, a SeedPairs' own or
    else the level's, and are decided from those alone
    (_seeds_close_a_cycle). Only when the seeds close a cycle, and for an
    explicit tuple always, are the pairs listed, so the witness is the one
    the sorted pairs give: union-find by size over the values of the
    length-n strings, first string u as node int(u) and second string v as
    node 2^n + int(v), where the empty string of level 0 has value 0.
    Raises ValueError for an explicit string of another length."""
    n = ls.n
    if not isinstance(ls.pairs, tuple):
        seeds = ls.pairs.seeds if isinstance(ls.pairs, SeedPairs) else ls.seeds()
        if not _seeds_close_a_cycle(seeds):
            return (True, None)
    i = _cycle_at(n, _string_edges(n, ls.pairs))
    if i is None:
        return (True, None)
    u, v = next(islice(ls.pairs, i, None))
    return (False, _forest_path(islice(ls.pairs, i), ("u", u), ("v", v)))


def _root(joined: dict, x):
    while x in joined:
        x = joined[x]
    return x


def _seeds_close_a_cycle(seeds) -> bool:
    """Whether the expansion of the seeds has a cycle at a level at least as
    long as the longest seed; at every such level it is the same answer.

    The pair graph at level l is two copies of the one at level l - 1, one
    per last bit (a shorter seed keeps that bit on both sides), plus one
    edge per seed of length l. So only the nodes that the seeds' prefixes
    reach matter, each labelled with its component: at level 0 by the node
    itself, at level l by the component of its (l-1)-prefix and its last
    bit. The seeds of length l join labels in a union-find, and one that
    joins a label to itself closes a cycle. A level labels at most two
    nodes per seed, and builds no string longer than the seed."""
    comp: dict = {}  # (side, prefix) at the level before -> its component number

    def label(side: int, w: str):
        return (comp[side, w[:-1]], w[-1]) if w else (side, w)

    for ell in range(max((len(a) for a, _ in seeds), default=-1) + 1):
        joined: dict = {}
        for a, b in seeds:
            if len(a) == ell:
                x, y = _root(joined, label(0, a)), _root(joined, label(1, b))
                if x == y:
                    return True
                joined[x] = y
        numbers: dict = {}
        comp = {
            (side, w): numbers.setdefault(_root(joined, label(side, w)), len(numbers))
            for a, b in seeds
            if len(a) > ell
            for side, w in ((0, a[:ell]), (1, b[:ell]))
        }
    return False


def _string_edges(n: int, pairs):
    top = 1 << n
    for u, v in pairs:
        if len(u) != n or len(v) != n:
            raise ValueError(f"pair ({u!r}, {v!r}) is not of length {n}")
        yield int(u or "0", 2), top + int(v or "0", 2)


def _cycle_at(n: int, edges):
    """The index of the first edge that closes a cycle, or None."""
    parent = [-1] * (2 << n)  # a root holds minus the size of its tree
    for i, (a, b) in enumerate(edges):
        while parent[a] >= 0:
            a = parent[a]
        while parent[b] >= 0:
            b = parent[b]
        if a == b:
            return i
        if parent[a] > parent[b]:
            a, b = b, a
        parent[a] += parent[b]
        parent[b] = a
    return None


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
