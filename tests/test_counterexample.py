"""The pair-system recursion on binary strings and its level invariants."""

import dataclasses
import itertools
import random
import time
from bisect import bisect_left
from collections import Counter

import pytest

from treematch.counterexample import (
    LevelSystem,
    SectionReport,
    SeedPairs,
    check_acyclic,
    check_condition1,
    check_condition2,
    dense_schedule,
    init_level,
    levels,
    section_report,
)


def length_lex_words():
    yield ""
    for length in itertools.count(1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def reference_levels(max_n):
    """Explicit-set reimplementation of the recursion, used as the oracle:
    materializes S instead of representing it by constraints."""
    words = list(itertools.islice(length_lex_words(), max_n + 2))
    r_set, s_set = set(), {("", "")}
    yield 0, frozenset(r_set), frozenset(s_set)
    for n in range(max_n):
        k = n // 2
        if n % 2 == 0:
            w = words[k]
            u_s = w + "0" * (2 * k - len(w))
            v_p = min(v for (u, v) in s_set if u == u_s)
            s_set = {(u + a, v + b) for (u, v) in s_set for a in "01" for b in "01"}
            r_set = {(u + a, v + a) for (u, v) in r_set for a in "01"}
            r_set.add((u_s + "0", v_p + "1"))
        else:
            w = words[k]
            v_s = w + "0" * (2 * k + 1 - len(w))
            first = {u for (u, _) in r_set}
            u_p = min(u for (u, v) in s_set if v == v_s and u not in first)
            r_set = {(u + a, v + a) for (u, v) in r_set for a in "01"}
            grown = {(u + a, v + b) for (u, v) in s_set for a in "01" for b in "01"}
            s_set = {
                (u, v) for (u, v) in grown if u != u_p + "0" or v == v_s + "1"
            }
        yield n + 1, frozenset(r_set), frozenset(s_set)


def doubled_pairs(produced):
    """R_n of each produced level, built by child doubling as levels once
    built it: every pair of the previous level is extended by both equal
    bits, an odd step adds the pair it adjoined, and each level is sorted."""
    pairs = ()
    for ls in produced:
        if ls.n:
            children = [(u + b, v + b) for (u, v) in pairs for b in "01"]
            if ls.n % 2:
                u, v = ls.u_history[-1]
                children.append((u + "0", v + "1"))
            pairs = tuple(sorted(children))
        yield pairs


def pair_count(n):
    """|R_n|: an odd step doubles and adds one pair, an even step doubles."""
    count = 0
    for k in range(n):
        count = 2 * count + (k % 2 == 0)
    return count


# -- exhaustive reference checkers ------------------------------------------
# These sweep all 2^n strings of a level and read its pairs directly; the
# library answers the same questions from the seeds and prune records.


def words_of(n):
    for i in range(1 << n):
        yield format(i, f"0{n}b") if n else ""


def ref_s_size(ls):
    total = 0
    for u in words_of(ls.n):
        forced = ls.forced_prefix(u)
        if forced is not None:
            total += 1 << (ls.n - len(forced))
    return total


def ref_s_pairs(ls):
    for u in words_of(ls.n):
        forced = ls.forced_prefix(u)
        if forced is None:
            continue
        for tail in words_of(ls.n - len(forced)):
            yield (u, forced + tail)


def ref_check_condition1(ls):
    failing = tuple(u for u in words_of(ls.n) if ls.forced_prefix(u) is None)
    return (not failing, failing)


def ref_check_condition2(ls):
    n = ls.n
    first = {u for (u, _) in ls.pairs}
    proj = sorted(int(u, 2) for u in first) if n else []
    failing = []
    for v in words_of(n):
        if n == 0:
            if "" in first:
                failing.append(v)
            continue
        cylinders = sorted((m, us) for (m, us, vs) in ls.prunes if v[:m] != vs)
        kept = []
        for m, us in cylinders:
            if any(us[:mk] == uk for mk, uk in kept):
                continue
            kept.append((m, us))
        covered = 0
        outside_proj = len(proj)
        for m, us in kept:
            covered += 1 << (n - m)
            lo = int(us, 2) << (n - m)
            hi = lo + (1 << (n - m))
            outside_proj -= bisect_left(proj, hi) - bisect_left(proj, lo)
        covered += outside_proj
        if covered >= 1 << n:
            failing.append(v)
    return (not failing, tuple(failing))


def ref_check_acyclic(ls):
    parent = {}

    def find(a):
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(a, a) != a:
            parent[a], a = root, parent[a]
        return root

    adj = {}
    for u, v in ls.pairs:
        a, b = ("u", u), ("v", v)
        ra, rb = find(a), find(b)
        if ra == rb and a in adj:
            prev = {a: None}
            queue = [a]
            while queue:
                x = queue.pop(0)
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
            return (False, tuple(path))
        parent[ra] = rb
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return (True, None)


def ref_section_report(ls, k):
    row_counts = Counter(u for (u, _) in ls.pairs)
    col_counts = Counter(v for (_, v) in ls.pairs)
    best_row, best_col = {}, {}
    for counts, best in ((row_counts, best_row), (col_counts, best_col)):
        for s, c in counts.items():
            for ell in range(ls.n + 1):
                w = s[:ell]
                if best.get(w, 0) < c:
                    best[w] = c
    max_passing = -1
    first_failing = ()
    for ell in range(ls.n + 1):
        failing = []
        for w in words_of(ell):
            br = best_row.get(w, 0)
            bc = best_col.get(w, 0)
            if br < k or bc < k:
                failing.append((w, br, bc))
        if failing:
            first_failing = tuple(failing[:8])
            break
        max_passing = ell
    return SectionReport(ls.n, k, max_passing, ls.n - max_passing, first_failing)


def fabricate(n, u_history, prunes):
    """A level system whose pairs are the equal-bit expansion of the seeds
    (u_k·0, v_k·1), as the recursion keeps them."""
    pairs = [
        (u + "0" + w, v + "1" + w)
        for u, v in u_history
        for w in words_of(n - len(u) - 1)
    ]
    return LevelSystem(n, tuple(sorted(pairs)), tuple(prunes), tuple(u_history), ())


def expansion(n, seeds):
    """The equal-bit expansion of the seeds at level n, listed and sorted."""
    return tuple(sorted(
        (a + w, b + w) for a, b in seeds for w in words_of(n - len(a))
    ))


def random_seeds(rng, n, count):
    """count seeds of random lengths up to n and random bits; unlike the
    recursion's seeds they may repeat, nest or close cycles."""
    seeds = []
    for _ in range(count):
        m = rng.randrange(n + 1)
        seeds.append(tuple("".join(rng.choice("01") for _ in range(m)) for _ in "ab"))
    return tuple(seeds)


def random_system(rng, n):
    u_history = [
        ("".join(rng.choice("01") for _ in range(2 * k)),
         "".join(rng.choice("01") for _ in range(2 * k)))
        for k in range((n + 1) // 2)
    ]
    prunes = []
    for _ in range(rng.randrange(n + 1)):
        m = rng.randrange(1, n + 1)
        prunes.append(
            (m, format(rng.getrandbits(m), f"0{m}b"), format(rng.getrandbits(m), f"0{m}b"))
        )
    return fabricate(n, u_history, prunes)


def assert_agrees_with_reference(ls, dump=False):
    assert check_condition1(ls) == ref_check_condition1(ls), ls
    assert check_condition2(ls) == ref_check_condition2(ls), ls
    assert check_acyclic(ls) == ref_check_acyclic(ls), ls
    assert ls.s_size() == ref_s_size(ls), ls
    for k in (1, 2, 3):
        assert section_report(ls, k) == ref_section_report(ls, k), (ls, k)
    if dump:
        assert list(ls.s_pairs()) == list(ref_s_pairs(ls)), ls


class TestFrozenLevels:
    def test_level_zero(self):
        ls = init_level()
        assert ls.n == 0
        assert tuple(ls.pairs) == () and len(ls.pairs) == 0
        assert list(ls.s_pairs()) == [("", "")]
        assert ls.s_size() == 1

    def test_level_one(self):
        ls = list(levels(1))[1]
        assert set(ls.pairs) == {("0", "1")}
        assert ls.s_size() == 4
        assert ls.u_history == (("", ""),)

    def test_level_two(self):
        ls = list(levels(2))[2]
        assert sorted(ls.pairs) == [("00", "10"), ("01", "11")]
        assert ls.s_size() == 13
        assert ls.v_history == (("0", "1"),)
        assert ls.s_contains("10", "01")
        assert not ls.s_contains("10", "11")
        assert ls.s_contains("11", "00")

    def test_level_three_size(self):
        assert len(list(levels(3))[3].pairs) == 5

    def test_r_sizes_follow_the_recurrences(self):
        produced = list(levels(16))
        sizes = [len(ls.pairs) for ls in produced]
        assert sizes[:9] == [0, 1, 2, 5, 10, 21, 42, 85, 170]
        assert sizes[16] == 43690
        for n in range(0, 15, 2):
            assert sizes[n + 1] == 2 * sizes[n] + 1
            assert sizes[n + 2] == 2 * sizes[n + 1]


class TestAgainstExplicitSets:
    def test_full_agreement_to_level_eight(self):
        rng = random.Random(99)
        produced = list(levels(8))
        for (n, r_set, s_set), ls in zip(reference_levels(8), produced):
            assert ls.n == n
            assert set(ls.pairs) == r_set, n
            assert ls.s_size() == len(s_set), n
            assert set(ls.s_pairs()) == s_set, n
            if n == 0:
                continue
            for _ in range(200):
                u = format(rng.getrandbits(n), f"0{n}b")
                v = format(rng.getrandbits(n), f"0{n}b")
                assert ls.s_contains(u, v) == ((u, v) in s_set), (n, u, v)

    def test_r_inside_s_everywhere(self):
        for ls in levels(14):
            for u, v in ls.pairs:
                assert ls.s_contains(u, v), (ls.n, u, v)

    def test_odd_step_additions_come_from_s(self):
        produced = list(levels(12))
        for n in range(0, 12, 2):
            before, after = produced[n], produced[n + 1]
            grown = {
                (u + a, v + a) for (u, v) in before.pairs for a in "01"
            }
            added = set(after.pairs) - grown
            (u_new, v_new), = added
            assert u_new.endswith("0") and v_new.endswith("1")
            assert before.s_contains(u_new[:-1], v_new[:-1])


class TestConditionsAndAcyclicity:
    def test_conditions_hold_to_level_twelve(self):
        for ls in levels(12):
            ok1, witness1 = check_condition1(ls)
            ok2, witness2 = check_condition2(ls)
            assert ok1, (ls.n, witness1)
            assert ok2, (ls.n, witness2)

    def test_acyclic_to_level_twelve(self):
        for ls in levels(12):
            ok, cycle = check_acyclic(ls)
            assert ok, (ls.n, cycle)

    def test_acyclicity_checker_finds_cycles(self):
        fabricated = LevelSystem(
            n=1,
            pairs=(("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
            prunes=(),
            u_history=(),
            v_history=(),
        )
        ok, cycle = check_acyclic(fabricated)
        assert not ok
        assert cycle


class TestSchedule:
    def test_first_entries(self):
        assert dense_schedule(0) == ("", "0")
        assert dense_schedule(1) == ("00", "000")
        assert dense_schedule(2) == ("1000", "10000")

    def test_lengths(self):
        for m in range(40):
            u, v = dense_schedule(m)
            assert len(u) == 2 * m
            assert len(v) == 2 * m + 1

    def test_matches_length_lex_enumeration(self):
        words = list(itertools.islice(length_lex_words(), 60))
        for m, w in enumerate(words):
            u, v = dense_schedule(m)
            assert u == w + "0" * (2 * m - len(w))
            assert v == w + "0" * (2 * m + 1 - len(w))

    def test_short_words_scheduled_quickly(self):
        # every word of length <= 4 appears as a prefix by step 30
        for length in range(5):
            for bits in itertools.product("01", repeat=length):
                w = "".join(bits)
                assert any(
                    dense_schedule(m)[0].startswith(w) for m in range(31)
                ), w
                assert any(
                    dense_schedule(m)[1].startswith(w) for m in range(31)
                ), w


class TestDeterminism:
    def test_two_runs_agree_exactly(self):
        assert list(levels(10)) == list(levels(10))


class TestSectionReport:
    def test_k_zero_trivially_passes(self):
        for ls in levels(6):
            rep = section_report(ls, 0)
            assert rep.max_passing_len == ls.n
            assert rep.codimension == 0
            assert rep.failing == ()

    def test_level_two_failures(self):
        ls = list(levels(2))[2]
        rep = section_report(ls, 1)
        assert rep.max_passing_len == 0
        assert rep.codimension == 2
        assert rep.failing == (("0", 1, 0), ("1", 0, 1))

    def test_threshold_for_singleton_sections(self):
        produced = list(levels(8))
        first = next(
            n for n in range(9) if section_report(produced[n], 1).max_passing_len >= 1
        )
        assert first == 5

    def test_passing_prefixes_persist_two_levels_later(self):
        produced = list(levels(12))

        def passing(ls, k, ell):
            rows = {}
            cols = {}
            for u, v in ls.pairs:
                rows[u] = rows.get(u, 0) + 1
                cols[v] = cols.get(v, 0) + 1
            out = set()
            for i in range(1 << ell):
                w = format(i, f"0{ell}b") if ell else ""
                row_ok = any(c >= k for s, c in rows.items() if s.startswith(w))
                col_ok = any(c >= k for s, c in cols.items() if s.startswith(w))
                if row_ok and col_ok:
                    out.add(w)
            return out

        for n in range(0, 10):
            for ell in range(0, min(n, 3) + 1):
                assert passing(produced[n], 1, ell) <= passing(produced[n + 2], 1, ell)


class TestAgainstReferenceCheckers:
    def test_every_level_to_sixteen(self):
        # |S_n| is about 4^n pairs, so the pair listing is compared in full
        # up to level 9; the CLI test pins the level-10 dump byte for byte.
        for ls in levels(16):
            assert_agrees_with_reference(ls, dump=ls.n <= 9)

    def test_random_systems_keeping_the_seed_invariant(self):
        rng = random.Random(5)
        seen = Counter()
        for _ in range(300):
            ls = random_system(rng, rng.randrange(8))
            assert_agrees_with_reference(ls, dump=True)
            view = dataclasses.replace(ls, pairs=SeedPairs(ls.n, ls.seeds()))
            assert tuple(view.pairs) == ls.pairs, ls
            assert len(view.pairs) == len(ls.pairs), ls
            assert_agrees_with_reference(view)
            seen["c1"] += not check_condition1(ls)[0]
            seen["c2"] += not check_condition2(ls)[0]
        assert seen["c1"] and seen["c2"]

    def test_condition1_failure(self):
        # (u, v) with u starting 01 must start v with both 0 and 10
        ls = fabricate(3, [("", "")], [(1, "0", "0"), (2, "01", "10")])
        ok, failing = check_condition1(ls)
        assert not ok
        assert failing == ("010", "011")
        assert ls.s_size() == 4 * 8 + 2 * 4  # 1**, then 000 and 001
        assert_agrees_with_reference(ls, dump=True)

    def test_condition2_failure(self):
        # the only first string outside the projection {0} is 1, and second
        # strings starting 0 may not pair with it
        ls = fabricate(1, [("", "")], [(1, "1", "1")])
        ok, failing = check_condition2(ls)
        assert not ok
        assert failing == ("0",)
        assert check_condition1(ls) == (True, ())
        assert_agrees_with_reference(ls, dump=True)

    def test_prunes_longer_than_the_level_change_nothing(self):
        ls = fabricate(3, [("", ""), ("01", "10")], [(2, "10", "01")])
        longer = dataclasses.replace(ls, prunes=ls.prunes + ((4, "1000", "0000"),))
        for check in (check_condition1, check_condition2, LevelSystem.s_size,
                      lambda ls: list(ls.s_pairs())):
            assert check(longer) == check(ls)

    def test_section_report_stops_at_eight_failing_prefixes(self):
        # On each side, seeds 2..5 hit one length-3 block each of the half
        # that seed 0 misses, and seed 1 lies in the half seed 0 covers. So
        # length 4 is the first to fail, at four prefixes on each side.
        u_history = [("", ""), ("00", "10"), ("1000", "0000"), ("101000", "001000"),
                     ("11000000", "01000000"), ("1110000000", "0110000000")]
        ls = fabricate(11, u_history, [])
        rep = section_report(ls, 1)
        assert rep.max_passing_len == 3
        assert rep.failing == (
            ("0001", 2, 0), ("0011", 1, 0), ("0101", 1, 0), ("0111", 1, 0),
            ("1001", 0, 1), ("1011", 0, 2), ("1101", 0, 1), ("1111", 0, 1),
        )
        assert rep == ref_section_report(ls, 1)

    def test_cycles_and_their_witnesses(self):
        # Every system keeping the seed invariant is a forest: each seed
        # joins the copy of R ending in 0 to the copy ending in 1. Cycles
        # therefore need pairs outside the invariant.
        square = LevelSystem(1, (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")), (), (), ())
        assert check_acyclic(square) == (
            False,
            (("u", "1"), ("v", "0"), ("u", "0"), ("v", "1")),
        )
        doubled = LevelSystem(2, (("01", "10"), ("01", "10")), (), (), ())
        assert check_acyclic(doubled) == (False, (("u", "01"), ("v", "10")))
        hexagon = LevelSystem(
            2,
            (("00", "00"), ("00", "01"), ("01", "01"), ("01", "10"), ("10", "10"),
             ("10", "00"), ("11", "11")),
            (), (), (),
        )
        for ls in (square, doubled, hexagon):
            assert check_acyclic(ls) == ref_check_acyclic(ls)
        assert len(check_acyclic(hexagon)[1]) == 6

    def test_acyclicity_checker_rejects_strings_of_another_length(self):
        # as a node number, "10" would be the second string "0"
        for pairs in ((("10", "0"),), (("0", "1"), ("1", "01"))):
            with pytest.raises(ValueError):
                check_acyclic(LevelSystem(1, pairs, (), (), ()))
        for seeds in ((("0", "1"), ("1", "01")), (("001", "101"),)):
            with pytest.raises(ValueError):
                SeedPairs(2, seeds)


class TestSeedPairs:
    def test_view_lists_the_doubled_pairs_to_level_sixteen(self):
        produced = list(levels(16))
        for ls, pairs in zip(produced, doubled_pairs(produced)):
            assert isinstance(ls.pairs, SeedPairs)
            assert tuple(ls.pairs) == pairs, ls.n
            assert len(ls.pairs) == pair_count(ls.n) == len(pairs), ls.n

    def test_random_seeds_of_any_length(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(7)
            seeds = random_seeds(rng, n, rng.randrange(6))
            view = SeedPairs(n, seeds)
            assert tuple(view) == expansion(n, seeds), (n, seeds)
            assert len(view) == len(expansion(n, seeds)), (n, seeds)

    def test_integer_and_string_acyclicity_agree(self):
        rng = random.Random(23)
        verdicts = Counter()
        for _ in range(300):
            n = rng.randrange(1, 6)
            seeds = random_seeds(rng, n, rng.randrange(1, 7))
            seeded = LevelSystem(n, SeedPairs(n, seeds), (), (), ())
            listed = LevelSystem(n, expansion(n, seeds), (), (), ())
            result = check_acyclic(seeded)
            assert result == check_acyclic(listed) == ref_check_acyclic(listed), seeds
            verdicts[result[0]] += 1
        assert verdicts[True] and verdicts[False]

    def test_seeded_acyclicity_against_the_reference(self):
        # Seeds of length 0, a repeated seed (two equal edges, a 2-cycle)
        # and levels beyond the longest seed, where the pair graph is copies
        # of the one at the longest seed's level.
        pinned = [
            (0, (("", ""),), True),
            (0, (("", ""), ("", "")), False),
            (4, (("", ""), ("", "")), False),
            (6, (("01", "10"), ("01", "10")), False),
            (5, (("", ""), ("0", "1")), True),
            (9, (("", ""), ("0", "1"), ("1", "0")), False),
            (9, (("0", "1"), ("01", "11")), False),  # a seed extending a seed
            (9, (("", ""), ("0", "1"), ("10", "01")), True),
        ]
        for n, seeds, ok in pinned:
            ls = LevelSystem(n, SeedPairs(n, seeds), (), (), ())
            assert check_acyclic(ls)[0] == ok, (n, seeds)
            assert check_acyclic(ls) == ref_check_acyclic(ls), (n, seeds)
        rng = random.Random(29)
        seen = Counter()
        for _ in range(400):
            n = rng.randrange(9)
            seeds = random_seeds(rng, rng.randrange(n + 1), rng.randrange(8))
            if seeds and rng.randrange(4) == 0:
                seeds += (rng.choice(seeds),)
            ls = LevelSystem(n, SeedPairs(n, seeds), (), (), ())
            result = check_acyclic(ls)
            assert result == ref_check_acyclic(ls), (n, seeds)
            seen[result[0]] += 1
            seen["empty seed"] += ("", "") in seeds
            seen["past the longest"] += n > max((len(a) for a, _ in seeds), default=0)
        assert seen[True] > 50 and seen[False] > 50, seen
        assert seen["empty seed"] and seen["past the longest"], seen


class UnreadPairs:
    """Stands in for pairs that a checker must not read."""

    def __iter__(self):
        raise AssertionError("the pairs were listed")

    def __len__(self):
        raise AssertionError("the pairs were counted")


class TestScaling:
    def test_level_twenty_checkers_read_no_pairs(self):
        *_, full = levels(20)
        bare = dataclasses.replace(full, pairs=UnreadPairs())
        checks = (
            check_condition1,
            check_condition2,
            LevelSystem.s_size,
            lambda ls: section_report(ls, 1),
            check_acyclic,
        )
        start = time.perf_counter()
        results = [check(bare) for check in checks]
        elapsed = time.perf_counter() - start
        assert results == [check(full) for check in checks]
        assert results[0] == (True, ()) and results[1] == (True, ())
        assert results[4] == (True, None)
        assert elapsed < 1.0

    def test_level_sixty_checkers_finish_quickly(self):
        *_, ls = levels(60)
        start = time.perf_counter()
        results = (
            check_condition1(ls),
            check_condition2(ls),
            ls.s_size(),
            section_report(ls, 1),
            check_acyclic(ls),
        )
        elapsed = time.perf_counter() - start
        assert results[0] == (True, ()) and results[1] == (True, ())
        assert results[4] == (True, None)
        assert pair_count(60) <= results[2] <= 1 << 120
        assert results[3].codimension == 60 - results[3].max_passing_len
        assert elapsed < 1.0
