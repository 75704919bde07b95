"""Constructive matchings: rooted and end-based."""

import gc
import re
import tracemalloc
import weakref
from random import Random

import pytest

from treematch import (
    AutomaticTree,
    EndDescriptor,
    Matching,
    ROOT,
    ends_equivalent,
    has_bad_ray,
    shortlex,
)
from treematch import graph_core, matcher
from treematch.cli import _pair_lines
from treematch.errors import BudgetExceededError, InvariantViolationError
from treematch.graph_core import divergence_length
from treematch.matcher import (
    EndsOutput,
    MatchingOracle,
    many_end_matching,
    match_ends,
    one_end_matching,
    rooted_matching,
    two_end_matching,
    verify_ends_output,
)
from treematch.oracle import enumerate_perfect_matchings
from treematch.presets import BAD_RAY_TRUTH, BATTERY, BATTERY_ENDS, battery_ends

from conftest import (
    check_window_matching,
    cli_run,
    equivalent_descriptor,
    induced_tree_graph,
    random_machine,
    tree_text,
)


def parse_ends(texts):
    return [EndDescriptor.parse(s) for s in texts]


# Expected exceptional-set kinds per battery end group, frozen by hand
# analysis of the branch-gap parities.
EXPECTED_KINDS = {
    ("line", 0): "injective_part",
    ("line", 1): "line",
    ("even_comb", 1): "line",
}


class TestRootedMatching:
    def test_binary_layer_rule(self):
        o = rooted_matching(BATTERY["binary"]())
        assert o.partner(ROOT) == (0,)
        assert o.partner((0,)) == ROOT
        assert o.partner((1,)) == (1, 0)
        assert o.partner((0, 1)) == (0, 1, 0)

    def test_unary_consecutive_pairs(self):
        o = rooted_matching(BATTERY["unary"]())
        assert o.partner(ROOT) == (0,)
        assert o.partner((0,)) == ROOT
        assert o.partner((0, 0)) == (0, 0, 0)
        assert o.partner((0, 0, 0)) == (0, 0)

    def test_ternary_root_window_totality(self):
        t = BATTERY["three_regular"]()
        checked = check_window_matching(t, rooted_matching(t), depth=8)
        assert checked == len(t.window(8).paths)

    def test_battery_totality(self, battery):
        for name, t in battery.items():
            checked = check_window_matching(t, rooted_matching(t), depth=4)
            assert checked == len(t.window(4).paths), name

    def test_rejects_leaf_states(self):
        t = AutomaticTree.build("a", {"a": 1, "leaf": 0}, {("a", 0): "leaf"})
        with pytest.raises(ValueError):
            rooted_matching(t)

    def test_deterministic_across_instances(self):
        a = rooted_matching(BATTERY["mixed_period"]())
        b = rooted_matching(BATTERY["mixed_period"]())
        for v in BATTERY["mixed_period"]().window(5).paths:
            assert a.partner(v) == b.partner(v)


class TestOneEnd:
    def test_line_is_all_injective_part(self, battery):
        t = battery["line"]
        out = one_end_matching(t, EndDescriptor.parse("|0"))
        assert out.b_set.kind == "injective_part"
        for v in t.window(4).paths:
            assert out.b_set.contains(v)
            with pytest.raises(ValueError, match="outside the oracle domain"):
                out.oracle.partner(v)

    def test_three_regular_is_total(self, battery):
        t = battery["three_regular"]
        out = one_end_matching(t, EndDescriptor.parse("|0"))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 10) == len(t.window(10).paths)

    def test_ray_with_binary_teeth_is_total(self, battery):
        t = battery["ray_comb"]
        out = one_end_matching(t, EndDescriptor.parse("|0"))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 10) == len(t.window(10).paths)

    def test_rejects_degree_one_vertices(self, battery):
        with pytest.raises(ValueError):
            one_end_matching(battery["unary"], EndDescriptor.parse("|0"))

    def test_rejects_invalid_end(self, battery):
        with pytest.raises(ValueError):
            one_end_matching(battery["three_regular"], EndDescriptor.parse("|2"))


class TestTwoEnd:
    def test_bare_line_exceptional_set_is_the_line(self, battery):
        t = battery["line"]
        out = two_end_matching(t, *parse_ends(["|0", "1|0"]))
        assert out.b_set.kind == "line"
        line = out.b_set.line
        assert not line.odd_pair
        assert not any(line.a_at(pos) for pos in range(-20, 21))
        for v in t.window(4).paths:
            assert out.b_set.contains(v)
            with pytest.raises(ValueError, match="outside the oracle domain"):
                out.oracle.partner(v)

    def test_odd_gap_comb_is_total(self, battery):
        t = battery["odd_comb"]
        out = two_end_matching(t, *parse_ends(["|0", "1|0"]))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 8) == len(t.window(8).paths)

    def test_even_gap_comb_keeps_the_line(self, battery):
        t = battery["even_comb"]
        out = two_end_matching(t, *parse_ends(["|0", "1|0"]))
        assert out.b_set.kind == "line"
        line = out.b_set.line
        assert not line.odd_pair
        assert len(line.a_parities) == 1
        on_line = out.b_set.contains
        t_checked = check_window_matching(t, out.oracle, 8, excluded=on_line)
        off_line = [v for v in t.window(8).paths if not on_line(v)]
        assert t_checked == len(off_line) > 0

    def test_three_regular_two_ends_is_total(self, battery):
        t = battery["three_regular"]
        out = two_end_matching(t, *parse_ends(["|0", "|1"]))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 6) == len(t.window(6).paths)

    def test_rejects_equivalent_ends(self, battery):
        with pytest.raises(ValueError):
            two_end_matching(battery["line"], *parse_ends(["|0", "0|0"]))


class TestManyEnd:
    def test_three_regular_symmetric_median(self, battery):
        t = battery["three_regular"]
        out = many_end_matching(t, parse_ends(["|0", "|1", "2|0"]))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 6) == len(t.window(6).paths)

    def test_shared_prefix_median_re_roots(self, battery):
        t = battery["binary"]
        out = many_end_matching(t, parse_ends(["0,0|0", "0,1|0", "0,1|1"]))
        assert out.b_set.kind == "empty"
        assert check_window_matching(t, out.oracle, 6) == len(t.window(6).paths)
        verify_ends_output(t, out, 5)

    def test_extra_ends_are_ignored(self, battery):
        t = battery["binary"]
        four = parse_ends(["|0", "|1", "0,1|0", "1,0|1"])
        a = many_end_matching(t, four)
        b = many_end_matching(t, four[:3])
        for v in t.window(5).paths:
            assert a.oracle.partner(v) == b.oracle.partner(v)

    def test_rejects_short_or_equivalent_lists(self, battery):
        t = battery["binary"]
        with pytest.raises(ValueError):
            many_end_matching(t, parse_ends(["|0", "|1"]))
        with pytest.raises(ValueError):
            many_end_matching(t, parse_ends(["|0", "|1", "0|0"]))


class TestMatchEnds:
    def test_battery_groups(self, battery):
        for name, groups in BATTERY_ENDS.items():
            t = battery[name]
            for gi, ends in enumerate(battery_ends(name)):
                out = match_ends(t, ends)
                assert out.n_ends == len(ends), (name, gi)
                expected = EXPECTED_KINDS.get((name, gi), "empty")
                assert out.b_set.kind == expected, (name, gi)
                if not BAD_RAY_TRUTH[name]:
                    assert out.b_set.kind == "empty", name
                verify_ends_output(t, out, 5)
                verify_ends_output(t, out, 7)

    def test_duplicate_descriptors_collapse(self, battery):
        t = battery["three_regular"]
        single = match_ends(t, parse_ends(["|0"]))
        multi = match_ends(t, parse_ends(["|0", "0|0", "0,0|0"]))
        assert multi.n_ends == 1
        for v in t.window(4).paths:
            assert multi.oracle.partner(v) == single.oracle.partner(v)

    def test_bare_line_two_ends_consistent_with_bad_ray(self, battery):
        t = battery["line"]
        out = match_ends(t, parse_ends(["|0", "1|0"]))
        assert out.b_set.kind == "line"
        assert has_bad_ray(t)

    def test_permuted_lists_give_identical_oracles(self, battery):
        t = battery["three_regular"]
        ends = ["|0", "|1", "2|0"]
        base = match_ends(t, parse_ends(ends))
        for perm in (["|1", "2|0", "|0"], ["2|0", "|0", "|1"]):
            other = match_ends(t, parse_ends(perm))
            for v in t.window(4).paths:
                assert other.oracle.partner(v) == base.oracle.partner(v)

    def test_rejects_empty_and_invalid_lists(self, battery):
        with pytest.raises(ValueError):
            match_ends(battery["binary"], [])
        with pytest.raises(ValueError):
            match_ends(battery["binary"], parse_ends(["|2"]))

    def test_each_end_is_walked_once_per_call(self, battery, monkeypatch):
        # match_ends validates every descriptor and the construction it
        # dispatches to validates its representatives; comparing ends after
        # that walks no descriptor again.
        calls = []

        def counting(t, e, validate=graph_core.validate_end):
            calls.append(e)
            return validate(t, e)

        monkeypatch.setattr(graph_core, "validate_end", counting)
        monkeypatch.setattr(matcher, "validate_end", counting)
        t = battery["binary"]
        for texts, expected in ((["|0"], 2), (["|0", "|1"], 4), (["|0", "|1", "0|1"], 6),
                                (["|0", "0|0", "|1"], 5)):
            calls.clear()
            match_ends(t, parse_ends(texts), check_depth=2)
            assert len(calls) == expected, texts
        calls.clear()
        with pytest.raises(ValueError, match="ends are not pairwise inequivalent"):
            many_end_matching(t, parse_ends(["|0", "|1", "0|0"]))
        assert len(calls) == 3
        with pytest.raises(ValueError, match=r"invalid end descriptor \|2"):
            match_ends(t, parse_ends(["|0", "|2"]))


class _StandInTripod:
    """A stand-in for a compiled tripod, for oracles built by hand: a domain
    predicate, a partner function and an anchor test, by default true at
    every vertex."""

    def __init__(self, in_domain, partner, is_anchor=lambda v: True):
        self.in_domain = in_domain
        self.partner = partner
        self.is_anchor = is_anchor


class _PredicateB:
    """A stand-in exceptional set given by a predicate."""

    def __init__(self, contains, kind="line"):
        self.contains = contains
        self.kind = kind

    def window_indices(self, win):
        deeper = win.tree.window(win.depth + 1).paths
        return tuple(j for j, v in enumerate(deeper) if self.contains(v))


def _zeros(v):
    return all(i == 0 for i in v)


def _broken_outputs():
    """(label, tree, EndsOutput, depth, message) whose window check must
    fail with that message, one for each check in verify_ends_output."""
    binary = BATTERY["binary"]()
    rooted = rooted_matching(binary)
    no_b = _PredicateB(lambda v: False, "empty")

    def fabricated(t, b_set, partner, in_domain=None):
        domain = in_domain or (lambda v: not b_set.contains(v))
        oracle = MatchingOracle(t, _StandInTripod(domain, partner), "fabricated")
        return EndsOutput(b_set, oracle, 1)

    def overriding(base, table):
        return lambda v: table[v] if v in table else base(v)

    cases = [("non-involution inside the window", binary,
              fabricated(binary, no_b, lambda v: v + (0,)), 3, "vertex (0,) matched twice")]
    # A boundary vertex pairs one level down, and that partner pairs further down.
    v = next(v for v in binary.window(2).paths if len(rooted.partner(v)) == 3)
    child = rooted.partner(v)
    cases.append(("partner beyond the window does not point back", binary,
                  fabricated(binary, no_b, overriding(rooted.partner, {child: child + (0,)})), 2,
                  "partner map is not an involution at 0/0"))
    cases.append(("partner beyond the window in B", binary,
                  fabricated(binary, _PredicateB(lambda v: v == child, "empty"), rooted.partner,
                             in_domain=lambda v: True), 2,
                  "pair 0/0 0/0/0 meets the exceptional set"))
    swapped = {ROOT: (1, 0), (1, 0): ROOT, (0,): (1,), (1,): (0,)}
    cases.append(("involution across non-neighbours", binary,
                  fabricated(binary, no_b, overriding(rooted.partner, swapped)), 3,
                  "pair / 1/0 is not a tree edge"))
    cases.append(("matched vertex outside the domain", binary,
                  fabricated(binary, no_b, rooted.partner, in_domain=lambda v: v != ROOT), 3,
                  "pair / 0 meets a vertex outside the domain"))
    cases.append(("B not 2-regular", binary,
                  fabricated(binary, _PredicateB(lambda v: v == ROOT), rooted.partner), 3,
                  "exceptional vertex / has 0 exceptional neighbors"))
    cases.append(("B vertices of degree >= 3 at odd distance", binary,
                  fabricated(binary, _PredicateB(lambda v: _zeros(v) or (v[0] == 1 and _zeros(v[1:]))),
                             rooted.partner), 3,
                  "exceptional vertices 0, 0/0 have degree >= 3 and odd distance"))

    comb = BATTERY["even_comb"]()
    line_out = two_end_matching(comb, *parse_ends(["|0", "1|0"]))
    # The real line as B, with the rooted matching pairing its vertices too.
    cases.append(("B vertex in the domain", comb,
                  fabricated(comb, line_out.b_set, rooted_matching(comb).partner,
                             in_domain=lambda v: True), 4,
                  "exceptional vertex / is in the oracle domain"))
    # The real oracle leaves the line out, but B is declared empty.
    cases.append(("vertex outside the domain not in B", comb,
                  EndsOutput(no_b, line_out.oracle, 2), 4,
                  "vertex / is outside the oracle domain and not exceptional"))

    def into_root(v):
        # The tooth at the root pairs its top vertex into the root, which is
        # on the line; the rest of its leftmost path shifts by one.
        if v and v[0] == 2 and _zeros(v[1:]):
            return ROOT if len(v) == 1 else v + (0,) if len(v) % 2 == 0 else v[:-1]
        return line_out.oracle.partner(v)

    cases.append(("partner in B", comb, fabricated(comb, line_out.b_set, into_root), 4,
                  "pair / 2 meets a vertex outside the domain"))

    # Two lines, one through the root and one through 2/0, whose degree-3
    # vertices are at even distance; the rest is the ray 2/1/0... below 2.
    forks = AutomaticTree.build(
        "R",
        {"R": 3, "A": 1, "S": 2, "C": 2},
        {("R", 0): "A", ("R", 1): "A", ("R", 2): "S", ("S", 0): "C", ("S", 1): "A",
         ("C", 0): "A", ("C", 1): "A"},
    )

    def two_lines(v):
        if not v or v[0] < 2:
            return _zeros(v[1:])
        return len(v) >= 2 and v[1] == 0 and _zeros(v[3:])

    def down_the_ray(v):
        if v in ((2,), (2, 1)):
            return (2, 1) if v == (2,) else (2,)
        return v + (0,) if len(v) % 2 == 1 else v[:-1]

    cases.append(("B with two components", forks,
                  fabricated(forks, _PredicateB(two_lines), down_the_ray), 4,
                  "exceptional set spans more than one window component"))

    three = BATTERY["three_regular"]()
    three_rooted = rooted_matching(three)
    tip = next(v for v in three.window(2).paths if len(three_rooted.partner(v)) == 3)
    b_tip = {tip, tip + (0,), tip + (1,)}
    cases.append(("nonempty B on a tree with no bad ray", three,
                  fabricated(three, _PredicateB(b_tip.__contains__), three_rooted.partner), 2,
                  "nonempty exceptional set on a tree with no bad ray"))
    return cases


BROKEN_OUTPUTS = _broken_outputs()


class TestVerifierFailures:
    @pytest.mark.parametrize("label, t, out, depth, message", BROKEN_OUTPUTS,
                             ids=[case[0] for case in BROKEN_OUTPUTS])
    def test_raises_invariant_violation(self, label, t, out, depth, message):
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            verify_ends_output(t, out, depth)

    def test_exceptional_checks_walk_no_vertex_from_the_root(self, monkeypatch):
        # On the bare line with two ends the whole window is exceptional.
        # Its checks read states from the window, so the number of walks
        # from the root must not grow with the depth.
        t = BATTERY["line"]()
        out = match_ends(t, parse_ends(["|0", "1|0"]), check_depth=1)
        walks = []
        state_of = AutomaticTree.state_of
        monkeypatch.setattr(AutomaticTree, "state_of",
                            lambda self, v: walks.append(v) or state_of(self, v))
        for depth in (10, 300):
            walks.clear()
            window_size, b_vertices, _ = verify_ends_output(t, out, depth)
            assert len(b_vertices) == window_size == 2 * depth + 1
            assert len(walks) <= 4, depth


def fresh_constructions(t, name):
    """(label, build) for every construction the battery tree supports. Each
    build() returns a new oracle and its exceptional-set predicate."""
    out = [("rooted", lambda: (rooted_matching(t), lambda v: False))]
    for ends in battery_ends(name) if name in BATTERY_ENDS else []:
        def build(ends=ends):
            if len(ends) == 1:
                res = one_end_matching(t, ends[0])
            elif len(ends) == 2:
                res = two_end_matching(t, *ends)
            else:
                res = many_end_matching(t, ends)
            return res.oracle, res.b_set.contains

        out.append((f"{len(ends)} ends", build))
    return out


class TestMemoizedPartners:
    """partner keeps no state between queries, so the order of the queries
    does not matter; the window pass leaves out exactly the vertices outside
    the domain."""

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_deepest_first_queries_agree(self, battery, name):
        t = battery[name]
        win = t.window(8)
        for label, build in fresh_constructions(t, name):
            forward, excluded = build()
            backward, _ = build()
            members = [v for v in win.paths if not excluded(v)]
            deepest_first = {v: backward.partner(v) for v in reversed(members)}
            assert {v: forward.partner(v) for v in members} == deepest_first, (name, label)
            checked = check_window_matching(t, backward, 8, excluded=excluded)
            assert checked == len(members), (name, label)

    def test_deep_pointwise_query(self):
        # Far beyond the recursion limit: the anchor rule runs in a loop.
        o = rooted_matching(BATTERY["binary"]())
        assert o.partner((0,) * 3000) == (0,) * 3001

    def test_render_pass_matches_the_sorted_matching(self, battery):
        for name, t in battery.items():
            o = rooted_matching(t)
            win = t.window(5)
            expected = Matching.of(
                tuple(sorted((v, o.partner(v)), key=shortlex)) for v in win.paths
            ).sorted_pairs()
            pairs = o.restricted_pairs(win)
            assert pairs == expected and pairs.skipped == [], name

    def test_render_pass_leaves_out_the_vertices_outside_the_domain(self, battery):
        # With the root taken out of the domain, the rooted matching's own
        # rule pairs the rest of the window by the anchor rule: the root is
        # left out and (0,) takes its child 0. Asking every vertex instead
        # finds (0,) pairing with the left-out root.
        for name, t in battery.items():
            o = rooted_matching(t)
            rootless = MatchingOracle(
                t, _StandInTripod(lambda v: v != ROOT, o.tripod.partner, o.tripod.is_anchor),
                "rootless")
            win = t.window(4)
            pairs = rootless.restricted_pairs(win)
            assert pairs.skipped == [0], name
            assert list(pairs) == pointwise_sweep(rootless, win, [ROOT])[1], name
            everywhere = MatchingOracle(t, _StandInTripod(lambda v: v != ROOT, o.partner),
                                        "asked everywhere")
            with pytest.raises(ValueError, match="meets a vertex outside the domain"):
                everywhere.restricted_pairs(win)

    def test_render_pass_rejects_a_non_involution(self):
        t = BATTERY["binary"]()
        down = MatchingOracle(t, _StandInTripod(lambda v: True, lambda v: v + (0,)),
                              "always down")
        with pytest.raises(ValueError, match="matched twice"):
            down.restricted_pairs(t.window(3))
        up = MatchingOracle(t, _StandInTripod(lambda v: True, lambda v: v[:-1] if v else (0,)),
                            "up")
        with pytest.raises(ValueError, match="matched twice"):
            up.restricted_pairs(t.window(1))

    def test_render_pass_rejects_a_non_edge(self):
        t = BATTERY["binary"]()
        swap = {(0,): (1,), (1,): (0,)}
        siblings = MatchingOracle(t, _StandInTripod(lambda v: v != ROOT, swap.__getitem__),
                                  "siblings")
        with pytest.raises(ValueError, match="not a tree edge"):
            siblings.restricted_pairs(t.window(1))


def chain_partner(oracle, top, k):
    """The partner of top + (0,) * k by the anchor rule, read from top's
    partner: down the chain of child 0s the pairs alternate."""
    down_at_even = oracle.partner(top) == top + (0,)
    v = top + (0,) * k
    return v + (0,) if (k % 2 == 0) == down_at_even else v[:-1]


class TestAnchorRule:
    """partner asks a construction's own partner function only at its
    anchors; every other vertex follows the anchor rule."""

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_partner_fn_is_asked_only_at_anchors(self, battery, name):
        t = battery[name]
        win = t.window(8)
        for label, build in fresh_constructions(t, name):
            oracle, in_b = build()
            tripod = oracle.tripod
            is_anchor = tripod.is_anchor
            asked = []

            def recording(v, partner=tripod.partner, asked=asked):
                asked.append(v)
                return partner(v)

            oracle.tripod = _StandInTripod(tripod.in_domain, recording, is_anchor)
            b_vertices = [v for v in win.paths if in_b(v)]
            assert pointwise_sweep(oracle, win, b_vertices)[0] == "pairs", (name, label)
            assert all(map(is_anchor, asked)), (name, label)
            # restricted_pairs relies on this: the anchors are prefix-closed
            # and hold the root and every vertex outside the domain.
            assert is_anchor(ROOT), (name, label)
            for v in t.window(win.depth + 1).paths:
                if v and is_anchor(v):
                    assert is_anchor(v[:-1]), (name, label, v)
                if not tripod.in_domain(v):
                    assert is_anchor(v), (name, label, v)

    def test_deep_queries_off_the_line(self):
        # Far beyond the recursion limit: below a line vertex of a one-end
        # and a two-end matching, and below the root, which lies above the
        # two-end line's divergence vertex (0,).
        t = BATTERY["binary"]()
        cases = [(["|0"], (0, 1), 2998), (["0|0", "0|1"], (0, 0, 1), 2997),
                 (["0|0", "0|1"], (1, 1), 2998)]
        for texts, top, k in cases:
            oracle = match_ends(t, parse_ends(texts), check_depth=0).oracle
            v = top + (0,) * k
            p = oracle.partner(v)
            assert p == chain_partner(oracle, top, k), (oracle.description, top)
            assert oracle.partner(p) == v


def closed_truncation_agrees_with_oracle(t, oracle, excluded=None):
    """Cut the construction at a window boundary and let the brute-force
    enumerator confirm it: the restriction (plus the boundary partners) must
    be the perfect matching of the truncated finite tree."""
    skip = excluded or (lambda v: False)
    depth = None
    for d in range(10, 2, -1):
        win = t.window(d)
        if len(win.paths) + sum(1 for v in win.paths if len(v) == d) <= 40:
            depth = d
            break
    assert depth is not None, "no window small enough for enumeration"
    members = [v for v in t.window(depth).paths if not skip(v)]
    if not members:
        return 0
    closed = set(members)
    pairs = set()
    for v in members:
        p = oracle.partner(v)
        closed.add(p)
        pairs.add(tuple(sorted((v, p), key=shortlex)))
    graph, order = induced_tree_graph(t, closed)
    index = {v: i for i, v in enumerate(order)}
    finite = Matching.of([(index[a], index[b]) for a, b in pairs])
    for component in graph.components():
        assert len(component) % 2 == 0
    assert finite.is_perfect_on(graph)
    enumerated = enumerate_perfect_matchings(graph)
    assert finite in enumerated
    interior = {
        (index[a], index[b])
        for a, b in pairs
        if len(a) <= depth - 2 and len(b) <= depth - 2
    }
    for pm in enumerated:
        assert interior <= set(pm.sorted_pairs())
    return len(members)


class TestClosedTruncation:
    def test_rooted_constructions(self, battery):
        for name, t in battery.items():
            assert closed_truncation_agrees_with_oracle(t, rooted_matching(t)) > 0

    def test_end_constructions(self, battery):
        cases = [
            ("three_regular", ["|0"]),
            ("odd_comb", ["|0", "1|0"]),
            ("binary", ["|0", "|1", "0,1|0"]),
            ("ray_comb", ["|0"]),
            ("even_comb", ["|0", "1|0"]),
        ]
        for name, texts in cases:
            t = battery[name]
            out = match_ends(t, parse_ends(texts))
            checked = closed_truncation_agrees_with_oracle(
                t, out.oracle, excluded=out.b_set.contains
            )
            if out.b_set.kind == "empty":
                assert checked > 0


def pointwise_sweep(oracle, win, b_vertices):
    """The window's pairs from a pointwise query of every vertex off B, in
    shortlex order, asking each partner inside the set right after its
    vertex and each partner beyond the window at the end: ("pairs", sorted
    pairs) or ("error", type, message, frontier) for the first failure."""
    members = [v for v in win.paths if v not in set(b_vertices)]
    inside = set(members)
    try:
        found = []
        for v in members:
            p = oracle.partner(v)
            if p in inside:
                oracle.partner(p)
            found.append(tuple(sorted((v, p), key=shortlex)))
        pairs = Matching.of(found).sorted_pairs()
        for a, b in pairs:
            if len(b) > win.depth and oracle.partner(b) != a:
                raise ValueError(f"partner map is not an involution at {a}")
        return ("pairs", pairs)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "frontier", None))


def window_pass(oracle, win, b_vertices):
    """The window's pairs from one restricted_pairs pass, in the form of
    pointwise_sweep. The pass leaves out the vertices outside the domain,
    which must be exactly B's."""
    try:
        pairs = oracle.restricted_pairs(win)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "frontier", None))
    assert tuple(win.paths[j] for j in pairs.skipped) == tuple(b_vertices), oracle.description
    return ("pairs", list(pairs))


def representatives(t, ends):
    """The ends up to equivalence, each by its first descriptor."""
    reps = []
    for e in ends:
        if not any(ends_equivalent(t, e, r) for r in reps):
            reps.append(e)
    return reps


def end_constructions(t, ends, budget=100_000):
    """(oracle, B predicate) of the construction match_ends dispatches to,
    built fresh."""
    reps = representatives(t, ends)
    if len(reps) == 1:
        res = one_end_matching(t, reps[0], budget)
    elif len(reps) == 2:
        res = two_end_matching(t, *reps, budget)
    else:
        res = many_end_matching(t, reps)
    return res.oracle, res.b_set.contains


class TestWindowPass:
    """Two implementations of the anchor rule: the window pass applies it
    top-down, and partner carries it down from the deepest anchor above each
    query. The pass must see the pairs (or raise the error) that a pointwise
    sweep does."""

    def compare(self, t, build, depth):
        oracle, in_b = build()
        win = t.window(depth)
        b_vertices = tuple(v for v in win.paths if in_b(v))
        reference, _ = build()
        expected = pointwise_sweep(reference, win, b_vertices)
        got = window_pass(oracle, win, b_vertices)
        if expected[0] == "error" and expected[1] is ValueError:
            assert got[0] == "error", oracle.description  # messages name vertices differently
        else:
            assert got == expected, oracle.description
        return oracle.description, expected[0]

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_battery_at_depth_8(self, battery, name):
        t = battery[name]
        for label, build in fresh_constructions(t, name):
            self.compare(t, build, 8)

    @pytest.mark.parametrize("name", ["binary", "three_regular", "mixed_period"])
    def test_many_end_median_two_levels_down(self, battery, name):
        # The median (0, 0) re-roots the component: the root and (0,) pair
        # toward it by other rules than the tree root's.
        t = battery[name]
        ends = parse_ends(["0,0,0|0", "0,0,1|0", "0,0,1,1|0"])
        assert self.compare(t, lambda: end_constructions(t, ends), 8) == ("many-end", "pairs")

    def test_budget_limited_runs_fail_alike(self, battery):
        # The budget bounds every gap between consecutive flagged positions
        # of a matched line, and it is checked once, when the construction
        # is built. Budget 1 stops exactly the matched lines with a gap of 2
        # or more: on the binary, mixed_period and ray_comb trees the line
        # runs through a root of branch 2, which has no neighbour off the
        # line, and even_comb's teeth are two apart. Budget 2 lets all of
        # them through. A construction that is built answers every query of
        # the window, as the sweep does.
        stopped = set()
        for budget in (1, 2):
            for name in sorted(BATTERY_ENDS):
                t = battery[name]
                for ends in battery_ends(name):
                    if len(ends) > 2:
                        continue  # the many-end matching walks no line
                    build = lambda: end_constructions(t, ends, budget)  # noqa: E731
                    try:
                        build()
                    except BudgetExceededError as exc:
                        assert "budget exceeded walking the line from" in str(exc)
                        assert len(exc.frontier) == 1
                        stopped.add((budget, name, len(ends)))
                        continue
                    assert self.compare(t, build, 8)[1] == "pairs", (budget, name, ends)
        assert stopped == {(1, "binary", 1), (1, "binary", 2), (1, "even_comb", 1),
                           (1, "mixed_period", 1), (1, "mixed_period", 2), (1, "ray_comb", 1)}

    def test_random_machines_at_depth_6(self):
        rng = Random(2024)
        seen = set()
        for _ in range(300):
            t, ends = random_machine(rng)
            builds = []
            if all(t.branch_of(q) >= 1 for q in t.states):
                builds.append(lambda: (rooted_matching(t), lambda v: False))
            try:
                end_constructions(t, ends)
            except ValueError:
                pass
            else:
                builds.append(lambda: end_constructions(t, ends))
            for build in builds:
                seen.add(self.compare(t, build, 6)[0])
        assert seen == {"rooted", "one-end injective", "one-end rooted fallback", "one-end",
                        "two-end full", "two-end off-line", "many-end"}


def line_cases(battery):
    """(tree, representative ends) with one or two ends, built without a
    ValueError: the battery's groups, then the ends of TestWindowPass's 300
    seeded random machines."""
    cases = [(battery[name], ends) for name in sorted(BATTERY_ENDS)
             for ends in battery_ends(name) if len(ends) <= 2]
    rng = Random(2024)
    for _ in range(300):
        cases.append(random_machine(rng))
    for t, ends in cases:
        reps = representatives(t, ends)
        if len(reps) > 2:
            continue
        try:
            end_constructions(t, reps)
        except ValueError:
            continue
        yield t, reps


def compiled(oracle):
    """The tripod an end construction compiled to, as (m, stem codes, ray
    words)."""
    tripod = oracle.tripod
    return tripod.m, tripod.stem, tripod.words


class TestTripodWords:
    """Each one- and two-end construction is read from a compiled word, at
    any depth."""

    def test_periodic_extension_past_any_window(self, battery):
        # Every position of the line's two rays down to depth m_len + 200
        # pairs with a tree neighbour that pairs back: the cycle words hold
        # where no window reaches.
        seen = set()
        for t, reps in line_cases(battery):
            oracle, _ = end_constructions(t, reps)
            if len(reps) == 1:
                e = reps[0]
                rays, m_len = (EndDescriptor((1 if e.index(0) == 0 else 0,), (0,)), e), 0
            else:
                rays, m_len = reps, divergence_length(*reps)
            for ray in rays:
                for n in range(m_len + 1, m_len + 201):
                    v = ray.prefix(n)
                    try:
                        p = oracle.partner(v)
                    except ValueError as exc:  # the exceptional line
                        assert "outside the oracle domain" in str(exc), (reps, v)
                        continue
                    upper, lower = sorted((v, p), key=len)
                    assert lower[:-1] == upper and t.is_valid_vertex(lower), (reps, v, p)
                    assert oracle.partner(p) == v, (reps, v)
            seen.add(oracle.description)
        assert {"one-end", "two-end full", "two-end off-line"} <= seen

    def test_equivalent_descriptors_compile_alike(self, battery):
        # Unrolling a period into the preperiod or doubling it changes the
        # flag words' preperiod and period, not the compiled codes.
        rng = Random(17)
        for t, reps in line_cases(battery):
            expected = compiled(end_constructions(t, reps)[0])
            for _ in range(2):
                other = [EndDescriptor.parse(equivalent_descriptor(e.render(), rng)) for e in reps]
                assert compiled(end_constructions(t, other)[0]) == expected, reps

    @pytest.mark.parametrize("texts", [["|0"], ["0|0", "0|1"]])
    def test_deep_line_query_stays_small(self, texts):
        # One query at depth 3000 of the binary tree, on the line or off the
        # tripod below the line vertex (0,) or (0, 1), reads the word at one
        # anchor: no set of anchors per depth and nothing kept along the query.
        t = BATTERY["binary"]()
        ends = parse_ends(texts)
        oracle = match_ends(t, ends, check_depth=0).oracle
        for v in (ends[0].prefix(3000), (0, 1) + (0,) * 2998):
            tracemalloc.start()
            try:
                p = oracle.partner(v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (v[:2], peak)
            assert oracle.partner(p) == v


class TestIndexSpaceWindows:
    """A window stores states, and the window pass records its pairs by
    window index: the path tuples are built only where a reader asks."""

    def test_window_paths_and_pairs_are_freed_by_reference_counting(self):
        # No reference cycle may keep a window alive: with the collector
        # off, the last reference going must free it at once.
        t = BATTERY["three_regular"]()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for build in (lambda: rooted_matching(t).restricted_pairs(t.window(4)),
                          lambda: match_ends(t, parse_ends(["|0", "|1"]), check_depth=4).pairs):
                pairs = build()
                win = pairs.window
                paths = win.paths
                assert list(pairs) and paths[-1] and win.names and win.child_start
                refs = [weakref.ref(x) for x in (win, paths, pairs)]
                del build, pairs, win, paths
                assert [r() for r in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def peak_mib(run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name, depth, limit", [("line", 1999, 25), ("three_regular", 14, 16)])
    def test_rooted_window_pass_and_rendering_stay_small(self, name, depth, limit):
        # The window, the pass and the rendered lines, as match-rooted runs
        # them. Stored path tuples took 46.6 MiB on the line and 22.4 MiB on
        # the 3-regular tree.
        t = BATTERY[name]()
        oracle = rooted_matching(t)
        def render():
            pairs = oracle.restricted_pairs(t.window(depth))
            return _pair_lines(pairs.window.names, pairs.uppers, pairs.children)

        peak = self.peak_mib(render)
        assert peak < limit, peak

    def test_deep_line_match_ends_keeps_no_anchor_paths(self):
        # Every vertex of the unmatched line is an anchor, and the B check
        # builds the window's paths: keeping each anchor's path as well
        # would double the peak.
        t = BATTERY["line"]()
        peak = self.peak_mib(lambda: match_ends(t, parse_ends(["|0", "1|0"]), check_depth=1999))
        assert peak <= 35, peak

    def test_deep_line_match_ends_stays_smaller_still(self):
        # B comes by window index, so no window path is built: the whole
        # run took 31.7 MiB when B was asked at every window path.
        t = BATTERY["line"]()
        peak = self.peak_mib(lambda: match_ends(t, parse_ends(["|0", "1|0"]), check_depth=1999))
        assert peak <= 8, peak

    def test_window_commands_build_no_window_paths(self, monkeypatch, tmp_path):
        built = []
        original = graph_core.WindowPaths._built
        monkeypatch.setattr(graph_core.WindowPaths, "_built",
                            lambda self: built.append(len(self)) or original(self))
        for name, ends, depth in (("line", ["|0"], 1999), ("line", ["|0", "1|0"], 1999),
                                  ("even_comb", ["|0", "1|0"], 14)):
            out = match_ends(BATTERY[name](), parse_ends(ends), check_depth=depth)
            assert out.b_set.kind != "empty", (name, ends)
        path = tmp_path / "three_regular.tree"
        path.write_text(tree_text(BATTERY["three_regular"]()))
        code, stdout, _ = cli_run(["derivative", "--tree", str(path), "--depth", "14"])
        assert code == 0 and stdout.count("\ncore ") == 3 * 2**14 - 2
        assert built == []
