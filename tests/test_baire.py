"""Closure/buffer machinery and the disjoint sweep step."""

import pytest

from treematch import Matching, ROOT
from treematch.baire import ClosurePair, _buffer_info, _verify_remainder, buffer, closure, sweep_step
from treematch.errors import BudgetExceededError, InvariantViolationError
from treematch.oracle import has_perfect_matching

from conftest import induced_tree_graph


def translate(matching, order):
    index = {v: i for i, v in enumerate(order)}
    return Matching.of([(index[a], index[b]) for a, b in matching.sorted_pairs()])


class TestClosure:
    def test_three_regular_root_pairs_with_first_child(self, battery):
        s, m = closure(battery["three_regular"], ROOT)
        assert s == frozenset({ROOT, (0,)})
        assert m.sorted_pairs() == [(ROOT, (0,))]

    def test_internal_matching_is_perfect_on_the_closure(self, battery):
        for name in ("three_regular", "binary", "odd_comb", "mixed_period", "ray_comb"):
            for seed in (ROOT, (0,), (0, 0)):
                s, m = closure(battery[name], seed)
                assert len(s) % 2 == 0, (name, seed)
                assert seed in s
                graph, order = induced_tree_graph(battery[name], s)
                finite = translate(m, order)
                assert finite.is_perfect_on(graph), (name, seed)
                assert has_perfect_matching(graph)

    def test_odd_comb_line_vertex(self, battery):
        s, m = closure(battery["odd_comb"], (0,), budget=64)
        assert len(s) % 2 == 0
        assert len(m) * 2 == len(s)

    def test_bare_line_exceeds_any_budget(self, battery):
        for budget in (10, 100, 1000):
            with pytest.raises(BudgetExceededError) as info:
                closure(battery["line"], ROOT, budget=budget)
            assert info.value.frontier

    def test_even_comb_ray_side_runs_away(self, battery):
        with pytest.raises(BudgetExceededError):
            closure(battery["even_comb"], ROOT, budget=100)

    def test_seed_validation(self, battery):
        t = battery["three_regular"]
        with pytest.raises(ValueError):
            closure(t, (5,))
        with pytest.raises(ValueError):
            closure(t, ROOT, removed=frozenset({ROOT}))
        with pytest.raises(InvariantViolationError):
            closure(battery["line"], ROOT, removed=frozenset({(0,), (1,)}))

    def test_deterministic(self, battery):
        a = closure(battery["odd_comb"], (0, 0))
        b = closure(battery["odd_comb"], (0, 0))
        assert a == b


class TestBuffer:
    def test_three_regular_ball(self, battery):
        t = battery["three_regular"]
        s, _ = closure(t, ROOT)
        t_set = buffer(t, s)
        assert s <= t_set
        assert len(t_set) == 30
        expected = set(t.window(3).paths) | {
            v for v in t.window(4).paths if len(v) == 4 and v[0] == 0
        }
        assert set(t_set) == expected

    def test_buffer_contains_no_escape_within_radius(self, battery):
        t = battery["odd_comb"]
        s, _ = closure(t, ROOT)
        t_set = buffer(t, s)
        assert s <= t_set


def ball(t, s_set, radius):
    """s_set plus every vertex within the given distance of it."""
    out = set(s_set)
    layer = list(s_set)
    for _ in range(radius):
        nxt = []
        for v in layer:
            for w in t.neighbors(v):
                if w not in out:
                    out.add(w)
                    nxt.append(w)
        layer = nxt
    return frozenset(out)


class TestCrossingWitness:
    """A buffer thinner than the certified radius lets a degree-alternating
    path escape; the remainder check names it. The witness tuples were
    recorded while the crossing search was still its own recursive function."""

    def remainder(self, t, seed, radius, max_path=12):
        s, m = closure(t, seed)
        _, certified, boundary = _buffer_info(t, s)
        pair = ClosurePair(seed, s, ball(t, s, radius), m, boundary, certified)
        return _verify_remainder(t, (pair,), s, frozenset(), 4, max_path=max_path)

    def test_t_set_equal_to_s_set(self, battery):
        rep = self.remainder(battery["three_regular"], ROOT, 0)
        assert rep.crossing_witnesses == (
            (ROOT, ((1,),)),
            (ROOT, ((2,),)),
            (ROOT, ((0, 0),)),
            (ROOT, ((0, 1),)),
        )
        assert rep.degree_violations == ()
        assert not rep.clean

    def test_one_layer_buffer(self, battery):
        rep = self.remainder(battery["mixed_period"], (0, 0), 1)
        assert rep.crossing_witnesses == (
            ((0, 0), ((0,), (0, 1))),
            ((0, 0), ((0, 0, 1), (0, 0, 1, 0))),
            ((0, 0), ((0, 0, 2), (0, 0, 2, 0))),
            ((0, 0), ((0, 0, 0, 1), (0, 0, 0, 1, 0))),
        )

    def test_path_through_the_root(self, battery):
        t = battery["mixed_period"]
        assert self.remainder(t, (0, 0), 2).crossing_witnesses == (
            ((0, 0), ((0,), ROOT, (1,))),
        )
        assert self.remainder(t, (0, 0), 2, max_path=3).crossing_witnesses == (
            ((0, 0), ((0,), ROOT, (1,))),
        )
        # The only escape has three vertices.
        assert self.remainder(t, (0, 0), 2, max_path=2).clean

    def test_certified_radius_is_clean(self, battery):
        for name, seed in (("mixed_period", (0, 0)), ("three_regular", ROOT)):
            t = battery[name]
            s, _ = closure(t, seed)
            t_set, certified, _ = _buffer_info(t, s)
            assert ball(t, s, certified) == t_set, name
            assert self.remainder(t, seed, certified).clean, name


class TestSweepStep:
    def test_greedy_keeps_first_overlapping_seed(self, battery):
        t = battery["three_regular"]
        res = sweep_step(t, [ROOT, (0,), (1,), (2,), (0, 0)], check_depth=6)
        assert [p.seed for p in res.kept] == [ROOT]
        assert res.dropped == ((0,), (1,), (2,), (0, 0))
        assert res.matching.sorted_pairs() == [(ROOT, (0,))]
        assert res.removed == frozenset({ROOT, (0,)})
        assert res.remainder.clean

    def test_far_seeds_are_both_kept(self, battery):
        t = battery["three_regular"]
        deep = (0,) * 8
        res = sweep_step(t, [ROOT, deep], check_depth=6)
        assert [p.seed for p in res.kept] == [ROOT, deep]
        assert not (res.kept[0].t_set & res.kept[1].t_set)
        assert len(res.matching) == 2
        assert res.remainder.clean

    def test_duplicate_seeds_collapse(self, battery):
        t = battery["three_regular"]
        res = sweep_step(t, [ROOT, ROOT], check_depth=5)
        assert [p.seed for p in res.kept] == [ROOT]
        assert res.dropped == ()

    def test_removed_accumulates_across_steps(self, battery):
        t = battery["three_regular"]
        first = sweep_step(t, [ROOT], check_depth=5)
        second = sweep_step(t, [(0, 0)], removed=first.removed, check_depth=5)
        assert first.removed <= second.removed
        assert second.remainder.clean
        with pytest.raises(ValueError):
            sweep_step(t, [ROOT], removed=first.removed)

    def test_repeated_sweeps_cover_the_window(self, battery):
        for name in ("three_regular", "odd_comb"):
            t = battery[name]
            removed = frozenset()
            goal = set(t.window(2).paths)
            for _ in range(12):
                uncovered = sorted(goal - removed, key=len)
                if not uncovered:
                    break
                res = sweep_step(t, [uncovered[0]], removed=removed, check_depth=5)
                assert res.remainder.clean
                removed = res.removed
            assert goal <= removed, name

    def test_artificial_damage_is_detected(self, battery):
        t = battery["three_regular"]
        removed = frozenset({(0, 0), (0, 1)})
        with pytest.raises(InvariantViolationError):
            sweep_step(t, [(1,)], removed=removed, check_depth=4)
        res = sweep_step(t, [(1,)], removed=removed, check_depth=4, strict=False)
        assert res.remainder.degree_violations == ((0,),)
        assert not res.remainder.clean

    def test_budget_error_propagates(self, battery):
        with pytest.raises(BudgetExceededError):
            sweep_step(battery["line"], [ROOT], budget=200)

    def test_invalid_seed_rejected(self, battery):
        with pytest.raises(ValueError):
            sweep_step(battery["three_regular"], [(7,)])
