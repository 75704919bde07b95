"""Incidence subdivision and the orientation/matching correspondence."""

import itertools

import pytest

from treematch.enumeration import all_trees
from treematch.oracle import enumerate_perfect_matchings, has_perfect_matching
from treematch.presets import cycle_graph, path_graph
from treematch.subdivision import (
    matching_to_orientation,
    orientation_to_matching,
    subdivide,
)


def rotation(n, k=1):
    return {i: (i + k) % n for i in range(n)}


class TestSubdivide:
    def test_single_edge_becomes_path(self):
        sub = subdivide(path_graph(2))
        assert sub.graph.vertex_count == 3
        assert sub.graph.edges == frozenset({(0, 2), (1, 2)})
        assert sub.base_vertex_count == 2
        assert sub.label(2) == ("edge", (0, 1))
        assert sub.label(0) == ("point", 0)
        assert sub.edge_id(1, 0) == 2

    def test_triangle_becomes_six_cycle(self):
        sub = subdivide(cycle_graph(3))
        g = sub.graph
        assert g.vertex_count == 6
        assert all(g.degree(v) == 2 for v in range(g.vertex_count))
        assert len(g.components()) == 1
        assert not g.is_acyclic()

    def test_square_becomes_eight_cycle(self):
        g = subdivide(cycle_graph(4)).graph
        assert g.vertex_count == 8
        assert all(g.degree(v) == 2 for v in range(g.vertex_count))
        assert len(g.components()) == 1

    def test_edge_vertices_touch_their_endpoints(self):
        g = path_graph(4)
        sub = subdivide(g)
        for a, b in g.edges:
            e = sub.edge_id(a, b)
            assert sub.graph.degree(e) == 2
            assert set(sub.graph.neighbors(e)) == {a, b}

    def test_bipartite_between_tags(self):
        sub = subdivide(cycle_graph(5))
        for a, b in sub.graph.edges:
            kinds = {sub.label(a)[0], sub.label(b)[0]}
            assert kinds == {"point", "edge"}


class TestOrientationToMatching:
    def test_triangle_rotation(self):
        g = cycle_graph(3)
        m = orientation_to_matching(g, rotation(3))
        assert len(m) == 3
        assert m in enumerate_perfect_matchings(subdivide(g).graph)

    def test_square_rotation(self):
        g = cycle_graph(4)
        m = orientation_to_matching(g, rotation(4))
        assert m.is_perfect_on(subdivide(g).graph)

    def test_rejects_involutive_generator(self):
        # the swap generates the edge but squares to the identity
        with pytest.raises(ValueError):
            orientation_to_matching(path_graph(2), {0: 1, 1: 0})

    def test_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            orientation_to_matching(cycle_graph(3), {0: 0, 1: 2, 2: 1})

    def test_rejects_non_generating_maps(self):
        with pytest.raises(ValueError):
            orientation_to_matching(cycle_graph(4), {0: 1, 1: 0, 2: 3, 3: 2})


class TestMatchingToOrientation:
    def test_six_cycle_matchings_are_the_two_rotations(self):
        g = cycle_graph(3)
        sub = subdivide(g)
        found = []
        for m in enumerate_perfect_matchings(sub.graph):
            found.append(matching_to_orientation(g, m))
        assert len(found) == 2
        assert rotation(3, 1) in found
        assert rotation(3, 2) in found

    def test_round_trip_identity_on_cycles(self):
        for n in range(3, 13):
            g = cycle_graph(n)
            for k in (1, n - 1):
                f = rotation(n, k)
                assert matching_to_orientation(g, orientation_to_matching(g, f)) == f
            matchings = enumerate_perfect_matchings(subdivide(g).graph)
            assert len(matchings) == 2
            for m in matchings:
                assert orientation_to_matching(g, matching_to_orientation(g, m)) == m

    def test_rejects_non_perfect_matchings(self):
        from treematch import Matching

        with pytest.raises(ValueError):
            matching_to_orientation(cycle_graph(3), Matching.of([(0, 3)]))


class TestTreesHaveNoSubdividedMatching:
    def test_odd_order_and_oracle_agree(self):
        for n in range(1, 9):
            for g in all_trees(n):
                sub = subdivide(g)
                assert sub.graph.vertex_count == 2 * n - 1
                assert not has_perfect_matching(sub.graph)

    def test_no_generator_with_aperiodic_square_exists(self):
        # exhaustive over all neighbor-valued maps on every tree up to 6
        # vertices: none generates the tree with f and f.f fixed-point free
        for n in range(2, 7):
            for g in all_trees(n):
                neighbor_lists = [g.neighbors(v) for v in range(n)]
                for choice in itertools.product(*neighbor_lists):
                    f = dict(enumerate(choice))
                    if any(f[f[x]] == x for x in range(n)):
                        continue
                    generated = {(min(x, f[x]), max(x, f[x])) for x in range(n)}
                    assert generated != g.edges, (g.edges, f)
