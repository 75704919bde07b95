"""Paths, matchings, finite graphs, branching machines, ends, bad rays."""

import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from treematch import (
    ROOT,
    AutomaticTree,
    EndDescriptor,
    FiniteGraph,
    Matching,
    ends_equivalent,
    has_bad_ray,
    parse_path,
    render_path,
    shortlex,
    validate_end,
)
from treematch.errors import BudgetExceededError, FormatError
from treematch.graph_core import MAX_WINDOW_PATH_LENGTH, MAX_WINDOW_VERTICES, divergence_length
from treematch.presets import BAD_RAY_TRUTH, BATTERY, path_graph, star_graph

from conftest import induced_tree_graph, longest_window_bad_path

paths = st.lists(st.integers(min_value=0, max_value=9), max_size=8).map(tuple)


class TestPaths:
    def test_root_renders_as_slash(self):
        assert render_path(ROOT) == "/"
        assert parse_path("/") == ROOT

    def test_round_trip_explicit(self):
        assert parse_path("0/1/0") == (0, 1, 0)
        assert render_path((0, 1, 0)) == "0/1/0"
        assert parse_path("12") == (12,)

    @given(paths)
    def test_round_trip_property(self, v):
        assert parse_path(render_path(v)) == v

    @pytest.mark.parametrize("bad", ["", "0//1", "a", "-1", "0/"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_path(bad)

    def test_shortlex_orders_by_length_then_indices(self):
        vs = [(1,), (0, 0), ROOT, (0,), (0, 1)]
        assert sorted(vs, key=shortlex) == [ROOT, (0,), (1,), (0, 0), (0, 1)]


class TestMatching:
    def test_pairs_are_canonicalized(self):
        m = Matching.of([(3, 1), (0, 2)])
        assert m.sorted_pairs() == [(0, 2), (1, 3)]
        assert m.partner(3) == 1
        assert m.partner(7) is None
        assert len(m) == 2

    def test_duplicate_pair_collapses(self):
        m = Matching.of([(0, 1), (1, 0)])
        assert len(m) == 1

    def test_loop_pair_rejected(self):
        with pytest.raises(ValueError):
            Matching.of([(2, 2)])

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            Matching.of([(0, 1), (1, 2)])

    def test_validate_on_graph(self):
        g = path_graph(4)
        Matching.of([(0, 1), (2, 3)]).validate_on(g)
        with pytest.raises(ValueError):
            Matching.of([(0, 3)]).validate_on(g)
        assert Matching.of([(0, 1), (2, 3)]).is_perfect_on(g)
        assert not Matching.of([(0, 1)]).is_perfect_on(g)

    @given(st.sets(st.integers(0, 30), min_size=2, max_size=12))
    def test_of_is_idempotent(self, verts):
        vs = sorted(verts)
        pairs = list(zip(vs[0::2], vs[1::2]))
        m = Matching.of(pairs)
        assert Matching.of(m.sorted_pairs()) == m


class TestFiniteGraph:
    def test_degree_path_middle(self):
        assert path_graph(3).degree(1) == 2

    def test_components(self):
        assert len(FiniteGraph.from_edges(3, []).components()) == 3
        assert len(path_graph(3).components()) == 1
        assert len(FiniteGraph.from_edges(4, [(0, 1), (2, 3)]).components()) == 2

    def test_is_acyclic(self):
        assert path_graph(4).is_acyclic()
        assert not FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).is_acyclic()
        two_stars = FiniteGraph.from_edges(
            8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
        )
        assert two_stars.is_acyclic()

    def test_star_shape(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))


class TestAutomaticTree:
    def test_three_regular_degrees(self):
        t = BATTERY["three_regular"]()
        assert t.degree(ROOT) == 3
        assert t.degree((0, 1)) == 3

    def test_children_and_parent(self):
        t = BATTERY["three_regular"]()
        assert t.children(ROOT) == [(0,), (1,), (2,)]
        assert t.neighbors((0,)) == [(0, 0), (0, 1), ROOT]

    def test_vertex_validity_follows_branching(self):
        t = BATTERY["binary"]()
        assert t.is_valid_vertex((0, 1))
        assert not t.is_valid_vertex((2,))

    def test_window_sizes(self):
        t = BATTERY["three_regular"]()
        for depth, n_vertices, n_edges in [(0, 1, 0), (1, 4, 3), (3, 22, 21)]:
            win = t.window(depth)
            assert len(win.paths) == n_vertices
            assert len(induced_tree_graph(t, win.paths)[0].edges) == n_edges

    def test_window_graph_is_tree(self):
        for name, build in BATTERY.items():
            t = build()
            for depth in range(5):
                graph, _ = induced_tree_graph(t, t.window(depth).paths)
                assert graph.is_acyclic(), name
                assert len(graph.components()) == 1, name
                assert len(graph.edges) == graph.vertex_count - 1, name

    def test_window_paths_are_shortlex_and_keep_states(self):
        win = BATTERY["mixed_period"]().window(5)
        assert list(win.paths) == sorted(win.paths, key=shortlex)
        assert set(vars(win)) == {"tree", "depth", "states", "boundary_start", "paths"}

    def test_window_states_are_the_machine_states(self):
        for name, build in BATTERY.items():
            t = build()
            win = t.window(5)
            assert len(win.states) == len(win.paths), name
            for i, v in enumerate(win.paths):
                assert win.states[i] == t.state_of(v), (name, v)

    def test_window_children_are_consecutive(self):
        # derive_window lists each vertex's children as one slice of paths.
        for name, build in BATTERY.items():
            t = build()
            win = t.window(4)
            nxt = 1
            for v, q in zip(win.paths, win.states):
                if len(v) < win.depth:
                    k = t.branch_of(q)
                    assert win.paths[nxt : nxt + k] == tuple(t.children(v)), (name, v)
                    nxt += k
            assert nxt == len(win.paths), name

    def test_window_names_and_first_children(self):
        for name, build in BATTERY.items():
            t = build()
            for depth in (0, 1, 4):
                win = t.window(depth)
                assert win.names == [render_path(v) for v in win.paths], (name, depth)
                for j, v in enumerate(win.paths):
                    if len(v) < depth and t.branch_of(win.states[j]):
                        assert win.paths[win.child_start[j]] == v + (0,), (name, v)

    def test_window_ids_follow_shortlex(self):
        t = BATTERY["binary"]()
        win = t.window(3)
        graph, order = induced_tree_graph(t, win.paths)
        assert order == list(win.paths)
        for i, v in enumerate(win.paths):
            if v:
                assert (order.index(v[:-1]), i) in graph.edges
        assert tuple(v for v in win.paths if len(v) == 3) == win.paths[-8:]

    def test_window_degree_matches_tree_degree_in_interior(self):
        for name, build in BATTERY.items():
            t = build()
            graph, order = induced_tree_graph(t, t.window(4).paths)
            for i, v in enumerate(order):
                if len(v) <= 3:
                    assert graph.degree(i) == t.degree(v), (name, v)

    def test_window_caps_are_checked_before_building(self):
        # binary at depth 17 has 262,143 vertices; the line at depth 2000
        # has 4,001 vertices but a total path length of 4,002,000. Both are
        # refused from a count by state, before any path exists.
        with pytest.raises(BudgetExceededError, match=f"exceeds {MAX_WINDOW_VERTICES} vertices"):
            BATTERY["binary"]().window(17)
        line = BATTERY["line"]()
        assert sum(map(len, line.window(1999).paths)) <= MAX_WINDOW_PATH_LENGTH
        with pytest.raises(BudgetExceededError,
                           match=f"exceeds {MAX_WINDOW_PATH_LENGTH} total path length"):
            line.window(2000)
        with pytest.raises(BudgetExceededError):
            line.window(10**12)

    def test_window_of_a_finite_tree_stops_at_its_last_level(self):
        t = AutomaticTree.build("r", {"r": 2, "leaf": 0}, {("r", 0): "leaf", ("r", 1): "leaf"})
        win = t.window(10**12)
        assert win.paths == (ROOT, (0,), (1,))
        assert win.boundary_start == 3

    def test_build_fills_self_loops(self):
        t = AutomaticTree.build("a", {"a": 2})
        assert t.step("a", 0) == "a" and t.step("a", 1) == "a"

    def test_build_trims_unreachable_states(self):
        t = AutomaticTree.build("a", {"a": 2, "b": 3})
        assert t.states == ("a",)

    def test_build_rejects_unknown_root_and_target(self):
        with pytest.raises(ValueError):
            AutomaticTree.build("missing", {"a": 1})
        with pytest.raises(ValueError):
            AutomaticTree.build("a", {"a": 1}, {("a", 0): "zz"})

    def test_strict_constructor_rejects_partial_step(self):
        with pytest.raises(ValueError):
            AutomaticTree("a", {"a": 1}, {})


class TestEnds:
    def test_parse_render_round_trip(self):
        for text in ["|0", "1|0", "0,1|1,0", "|2,1"]:
            assert EndDescriptor.parse(text).render() == text

    @pytest.mark.parametrize("bad", ["", "0", "|", "0|", "|x", "0,|1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            EndDescriptor.parse(bad)

    def test_prefix_walks_the_ray(self):
        e = EndDescriptor.parse("1|0,1")
        assert e.prefix(0) == ROOT
        assert e.prefix(4) == (1, 0, 1, 0)

    def test_prefix_cache_leaves_identity_alone(self):
        e = EndDescriptor.parse("1|0,1")
        f = EndDescriptor.parse("1|0,1")
        assert e.prefix(101) == tuple(e.index(i) for i in range(101))
        assert e.prefix(7) == (1, 0, 1, 0, 1, 0, 1)
        assert e == f and hash(e) == hash(f) and repr(e) == repr(f)
        assert repr(e) == "EndDescriptor(preperiod=(1,), period=(0, 1))"

    def test_divergence_length(self):
        t = BATTERY["binary"]()
        es = [
            EndDescriptor.parse(s)
            for s in ["|0", "|1", "0|1", "0,1|1", "|0,1", "0,1|0,1", "1|0", "0,0,1|0"]
        ]
        assert divergence_length(es[0], es[1]) == 0
        assert divergence_length(es[0], es[7]) == 2
        assert divergence_length(es[2], es[3]) is None
        for a in es:
            for b in es:
                d = divergence_length(a, b)
                assert (d is None) == ends_equivalent(t, a, b)
                if d is not None:
                    assert a.prefix(d) == b.prefix(d) and a.index(d) != b.index(d)

    def test_divergence_length_agrees_with_the_lcm_bound(self):
        # The reference compares pre_a + pre_b + 2 * lcm(p, q) indices.
        rng = Random(5)
        for _ in range(3000):
            a, b = (EndDescriptor(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))),
                                  tuple(rng.randrange(2) for _ in range(rng.randint(1, 6))))
                    for _ in range(2))
            n = len(a.preperiod) + len(b.preperiod) + 2 * math.lcm(len(a.period), len(b.period))
            diff = [i for i in range(n) if a.index(i) != b.index(i)]
            assert divergence_length(a, b) == (diff[0] if diff else None), (a, b)

    def test_coprime_periods_stay_unrolled_to_their_sum(self):
        # Equivalent ends with periods 2000 and 2001: the lcm is 4,002,000.
        p, q = 2000, 2001
        a, b = EndDescriptor((), (0,) * p), EndDescriptor((), (0,) * q)
        assert ends_equivalent(BATTERY["binary"](), a, b)
        assert divergence_length(a, b) is None
        assert len(a._ray) < 4 * (p + q) and len(b._ray) < 4 * (p + q)

    def test_validate_end_respects_branching(self):
        t = BATTERY["three_regular"]()
        assert validate_end(t, EndDescriptor.parse("|0"))
        assert validate_end(t, EndDescriptor.parse("2|0"))
        # only the root has a third child, so the periodic part cannot use 2
        assert not validate_end(t, EndDescriptor.parse("|2"))

    def test_equivalence_examples(self):
        t = BATTERY["binary"]()
        a = EndDescriptor.parse("0|1")
        assert ends_equivalent(t, a, a)
        assert ends_equivalent(t, a, EndDescriptor.parse("0,1|1"))
        assert not ends_equivalent(
            t, EndDescriptor.parse("|0"), EndDescriptor.parse("|1")
        )

    def test_equivalence_relation_laws(self):
        t = BATTERY["binary"]()
        es = [
            EndDescriptor.parse(s)
            for s in ["|0", "|1", "0|1", "0,1|1", "|0,1", "0,1|0,1", "1|0"]
        ]
        for a in es:
            assert ends_equivalent(t, a, a)
            for b in es:
                assert ends_equivalent(t, a, b) == ends_equivalent(t, b, a)
                for c in es:
                    if ends_equivalent(t, a, b) and ends_equivalent(t, b, c):
                        assert ends_equivalent(t, a, c)


class TestBadRay:
    def test_named_examples(self):
        assert has_bad_ray(BATTERY["line"]())
        assert not has_bad_ray(BATTERY["three_regular"]())
        assert has_bad_ray(BATTERY["even_comb"]())

    def test_battery_table(self):
        for name, build in BATTERY.items():
            assert has_bad_ray(build()) == BAD_RAY_TRUTH[name], name

    def test_agrees_with_exhaustive_window_search(self):
        # A long degree-alternating path in a deep window certifies a bad
        # ray for these presets, and its absence refutes one: trees without
        # bad rays here have no such path beyond two vertices.
        for name, build in BATTERY.items():
            t = build()
            longest = longest_window_bad_path(t, depth=8, cap=7)
            assert (longest >= 7) == BAD_RAY_TRUTH[name], (name, longest)
