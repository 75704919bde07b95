"""Brute-force matching oracles and the greedy forest matcher."""

import random

import pytest

from treematch import FiniteGraph, Matching
from treematch.enumeration import all_trees, forests, random_forest
from treematch.oracle import (
    enumerate_perfect_matchings,
    greedy_forest_matching,
    has_perfect_matching,
    max_matching,
    two_coloring,
)
from treematch.presets import complete_graph, cycle_graph, path_graph, star_graph


def greedy_reference(g):
    """The documented greedy rule, step by step: pair the lowest-id vertex
    of degree one with its one neighbour left; fail at the lowest isolated
    vertex."""
    alive = set(range(g.vertex_count))
    pairs = []
    while alive:
        live = {v: [w for w in g.neighbors(v) if w in alive] for v in alive}
        isolated = [v for v in alive if not live[v]]
        if isolated:
            return False, None, min(isolated)
        v = min(v for v in alive if len(live[v]) == 1)
        pairs.append((v, live[v][0]))
        alive -= {v, live[v][0]}
    return True, sorted((min(p), max(p)) for p in pairs), None


def kuhn_reference(g):
    """Kuhn's augmenting paths on a bipartite graph, from the colour-0
    vertices in id order, neighbours ascending, with a fresh visited set per
    search; colour 0 is an even distance from its component's lowest vertex."""
    color = {}
    for start in range(g.vertex_count):
        if start not in color:
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
    match = {}

    def augment(v, visited):
        for w in g.neighbors(v):
            if w not in visited:
                visited.add(w)
                if w not in match or augment(match[w], visited):
                    match[w] = v
                    return True
        return False

    for v in range(g.vertex_count):
        if color[v] == 0:
            augment(v, set())
    return sorted((min(v, w), max(v, w)) for w, v in match.items())


def bipartite_graph(rng):
    """Random edges across a random bipartition: even cycles, no odd ones."""
    n = rng.randrange(2, 15)
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(a, b) for b in range(n) for a in range(b)
             if side[a] != side[b] and rng.random() < 0.35]
    return FiniteGraph.from_edges(n, edges)


class TestMaxMatching:
    def test_single_edge(self):
        assert max_matching(path_graph(2)).sorted_pairs() == [(0, 1)]

    def test_path_three(self):
        assert len(max_matching(path_graph(3))) == 1

    def test_cycle_four(self):
        assert len(max_matching(cycle_graph(4))) == 2

    def test_odd_cliques_leave_one_vertex(self):
        for n in (3, 5, 7):
            assert len(max_matching(complete_graph(n))) == n // 2

    def test_pairs_are_kuhns_on_all_small_forests(self):
        for n in range(1, 11):
            for g in forests(n):
                assert max_matching(g).sorted_pairs() == kuhn_reference(g), g.edges

    def test_pairs_are_kuhns_on_bipartite_graphs_with_cycles(self):
        rng = random.Random(2711)
        cyclic = 0
        for _ in range(500):
            g = bipartite_graph(rng)
            assert max_matching(g).sorted_pairs() == kuhn_reference(g), g.edges
            cyclic += not g.is_acyclic()
        assert cyclic > 100

    def test_result_is_a_valid_matching(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_forest(rng, 14)
            m = max_matching(g)
            m.validate_on(g)


class TestHasPerfectMatching:
    def test_examples(self):
        assert has_perfect_matching(path_graph(2))
        assert not has_perfect_matching(path_graph(3))
        assert not has_perfect_matching(star_graph(3))

    def test_odd_order_never_matches(self):
        assert not has_perfect_matching(complete_graph(5))


class TestEnumerate:
    def test_cycle_counts(self):
        assert len(enumerate_perfect_matchings(cycle_graph(4))) == 2
        assert len(enumerate_perfect_matchings(cycle_graph(6))) == 2

    def test_path_four_unique(self):
        found = enumerate_perfect_matchings(path_graph(4))
        assert found == [Matching.of([(0, 1), (2, 3)])]

    def test_empty_when_no_perfect_matching(self):
        assert enumerate_perfect_matchings(path_graph(3)) == []

    def test_agrees_with_decision_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_forest(rng, 12)
            assert bool(enumerate_perfect_matchings(g)) == has_perfect_matching(g)


class TestTwoColoring:
    def test_trees_are_bipartite(self):
        color = two_coloring(path_graph(5))
        assert color is not None
        for a, b in path_graph(5).edges:
            assert color[a] != color[b]

    def test_odd_cycle_is_not(self):
        assert two_coloring(cycle_graph(5)) is None


class TestGreedyForestMatching:
    def test_path_four(self):
        res = greedy_forest_matching(path_graph(4))
        assert res.ok
        assert res.matching.sorted_pairs() == [(0, 1), (2, 3)]

    def test_path_three_reports_stuck_vertex(self):
        res = greedy_forest_matching(path_graph(3))
        assert not res.ok
        assert res.stuck_vertex == 2

    def test_two_disjoint_edges(self):
        g = FiniteGraph.from_edges(4, [(0, 1), (2, 3)])
        res = greedy_forest_matching(g)
        assert res.ok and len(res.matching) == 2

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            greedy_forest_matching(cycle_graph(4))

    def test_follows_the_greedy_rule_on_all_small_forests(self):
        for n in range(1, 11):
            for g in forests(n):
                self._assert_greedy_rule(g)

    def test_follows_the_greedy_rule_on_random_forests(self):
        rng = random.Random(2712)
        for _ in range(1000):
            self._assert_greedy_rule(random_forest(rng, 20))

    @staticmethod
    def _assert_greedy_rule(g):
        res = greedy_forest_matching(g)
        pairs = res.matching.sorted_pairs() if res.ok else None
        assert (res.ok, pairs, res.stuck_vertex) == greedy_reference(g), g.edges

    def test_matches_decision_oracle_on_all_small_forests(self):
        for n in range(1, 13):
            for g in forests(n):
                res = greedy_forest_matching(g)
                assert res.ok == has_perfect_matching(g), g.edges
                if res.ok:
                    assert res.matching.is_perfect_on(g)

    def test_matches_decision_oracle_on_random_forests(self):
        rng = random.Random(20260817)
        for _ in range(1000):
            g = random_forest(rng, 18)
            res = greedy_forest_matching(g)
            assert res.ok == has_perfect_matching(g), g.edges
            if res.ok:
                assert res.matching.is_perfect_on(g)


class TestEnumerationHelpers:
    def test_rooted_tree_counts(self):
        expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
        for n, count in zip(range(1, 11), expected):
            assert len(list(all_trees(n))) == count

    def test_trees_are_trees(self):
        for n in range(1, 8):
            for g in all_trees(n):
                assert g.vertex_count == n
                assert g.is_acyclic()
                assert len(g.components()) == 1

    def test_forests_are_acyclic(self):
        for n in range(1, 8):
            for g in forests(n):
                assert g.vertex_count == n
                assert g.is_acyclic()

    def test_forest_counts_match_euler_transform(self):
        # forests on n vertices = rooted trees on n+1 vertices
        expected = [1, 2, 4, 9, 20, 48, 115]
        for n, count in zip(range(1, 8), expected):
            assert len(list(forests(n))) == count

    def test_random_forest_is_deterministic_per_seed(self):
        a = [random_forest(random.Random(3), 16).edges for _ in range(1)]
        b = [random_forest(random.Random(3), 16).edges for _ in range(1)]
        assert a == b
