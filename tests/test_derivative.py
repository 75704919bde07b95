"""Forced-edge pruning: forced matching extraction and degree-two cores."""

import random

import pytest

from treematch import AutomaticTree, FiniteGraph, Matching
from treematch.derivative import DerivativeConflict, DerivativeResult, derive, derive_window
from treematch.enumeration import all_trees, random_forest
from treematch.oracle import enumerate_perfect_matchings, has_perfect_matching
from treematch.presets import BATTERY, cycle_graph, path_graph, star_graph

from conftest import induced_tree_graph


def induced(g, keep):
    """The subgraph of g on keep, renumbered in ascending order, and the
    old id of each new one."""
    old = sorted(set(keep))
    index = {v: i for i, v in enumerate(old)}
    edges = [(index[a], index[b]) for a, b in g.edges if a in index and b in index]
    return FiniteGraph.from_edges(len(old), edges), old


class TestDeriveFinite:
    def test_single_edge_is_forced(self):
        res = derive(path_graph(2))
        assert isinstance(res, DerivativeResult)
        assert res.core == frozenset()
        assert res.forced.sorted_pairs() == [(0, 1)]
        assert res.stabilized

    def test_path_three_conflicts_at_the_middle(self):
        res = derive(path_graph(3))
        assert isinstance(res, DerivativeConflict)
        assert res.kind == "double_forced"
        assert res.vertex == 1
        assert tuple(sorted(res.partners)) == (0, 2)

    def test_cycle_four_is_its_own_core(self):
        res = derive(cycle_graph(4))
        assert isinstance(res, DerivativeResult)
        assert res.core == frozenset({0, 1, 2, 3})
        assert len(res.forced) == 0

    def test_star_conflicts_at_the_center(self):
        res = derive(star_graph(3))
        assert isinstance(res, DerivativeConflict)
        assert res.vertex == 0

    def test_trace_is_decreasing_and_stabilizes(self):
        res = derive(path_graph(8))
        assert isinstance(res, DerivativeResult)
        sizes = res.trace
        assert sizes[0] == 8
        for earlier, later in zip(sizes, sizes[1:]):
            assert later <= earlier
        assert sizes[-1] == len(res.core)
        assert res.stabilized

    def test_isolated_vertex_conflicts(self):
        res = derive(FiniteGraph.from_edges(3, [(0, 1)]))
        assert isinstance(res, DerivativeConflict)
        assert res.kind == "isolated"
        assert res.vertex == 2


class TestDeriveAgainstOracle:
    def test_exhaustive_small_trees(self):
        for n in range(1, 10):
            for g in all_trees(n):
                res = derive(g)
                conflict = isinstance(res, DerivativeConflict)
                assert conflict == (not has_perfect_matching(g)), g.edges
                if not conflict:
                    assert res.core == frozenset()
                    assert res.forced.is_perfect_on(g)

    def test_random_forests(self):
        rng = random.Random(404)
        for _ in range(300):
            g = random_forest(rng, 16)
            res = derive(g)
            conflict = isinstance(res, DerivativeConflict)
            assert conflict == (not has_perfect_matching(g)), g.edges
            if not conflict:
                assert res.forced.is_perfect_on(g)

    def test_success_forced_is_the_unique_matching_on_trees(self):
        for n in (2, 4, 6, 8):
            for g in all_trees(n):
                res = derive(g)
                if isinstance(res, DerivativeConflict):
                    continue
                enumerated = enumerate_perfect_matchings(g)
                assert enumerated == [res.forced]

    def test_forced_plus_core_matching_is_perfect_on_cyclic_inputs(self):
        c4_pendant = FiniteGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)]
        )
        c6_plus_edge = FiniteGraph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (6, 7)]
        )
        for g in (c4_pendant, c6_plus_edge):
            res = derive(g)
            assert isinstance(res, DerivativeResult)
            assert res.core
            core_graph, ids = induced(g, res.core)
            back = {i: v for i, v in enumerate(ids)}
            completions = enumerate_perfect_matchings(core_graph)
            assert completions
            for completion in completions:
                pairs = list(res.forced.sorted_pairs())
                pairs += [(back[a], back[b]) for a, b in completion.sorted_pairs()]
                assert Matching.of(pairs).is_perfect_on(g)


class TestDeriveWindow:
    def test_three_regular_window_is_all_core(self):
        t = BATTERY["three_regular"]()
        for depth in (2, 4):
            res = derive_window(t.window(depth))
            assert isinstance(res, DerivativeResult)
            assert len(res.core) == len(t.window(depth).paths)
            assert len(res.forced) == 0
            assert res.stabilized

    def test_line_window_is_all_core(self):
        t = BATTERY["line"]()
        res = derive_window(t.window(4))
        assert isinstance(res, DerivativeResult)
        assert len(res.core) == 9
        assert len(res.forced) == 0

    def test_degree_one_root_forces_its_edge(self):
        t = AutomaticTree.build(
            "top", {"top": 1, "body": 2}, {("top", 0): "body"}
        )
        # Window indices: the root is 0, (0,) is 1 and (0, 0) is 2.
        res = derive_window(t.window(4))
        assert isinstance(res, DerivativeResult)
        assert res.forced.partner(0) == 1
        assert 0 not in res.core
        assert 1 not in res.core
        assert 2 in res.core

    def test_partner_beyond_the_window(self):
        # The boundary vertex (0, 0), window index 2, keeps only its child
        # beyond the window, index 3 in the window one level deeper.
        res = derive_window(BATTERY["unary"]().window(2))
        assert isinstance(res, DerivativeResult)
        assert res.forced.sorted_pairs() == [(0, 1), (2, 3)]
        assert res.trace == (3, 2, 1, 0, 0)

    def test_finite_machines_agree_with_derive(self):
        # Layered machines: each state branches only into higher-numbered
        # states and the last one has no children, so a window of depth
        # max(2, states) holds the whole finite tree.
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(2, 5)
            branch = {f"s{i}": rng.randint(1, 3) for i in range(n - 1)}
            branch[f"s{n - 1}"] = 0
            step = {
                (f"s{i}", j): f"s{rng.randint(i + 1, n - 1)}"
                for i in range(n - 1)
                for j in range(branch[f"s{i}"])
            }
            t = AutomaticTree.build("s0", branch, step)
            win = t.window(max(2, n))
            # The graph numbers the window's vertices by window index, so
            # both results name each vertex alike.
            g, order = induced_tree_graph(t, win.paths)
            assert order == list(win.paths)
            got, want = derive_window(win), derive(g)
            assert got == want, step
            if isinstance(want, DerivativeConflict):
                outcomes.add(want.kind)
            else:
                outcomes.add("perfect" if not want.core else "core")
            assert isinstance(got, DerivativeConflict) == (not has_perfect_matching(g))
        assert {"isolated", "double_forced", "perfect"} <= outcomes

    def test_requires_depth_at_least_two(self):
        with pytest.raises(ValueError):
            derive_window(BATTERY["binary"]().window(1))
