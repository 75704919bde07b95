"""Acceptance gate: seven criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import functools
import time
from itertools import product
from random import Random

import pytest

from treematch import (
    ROOT,
    BudgetExceededError,
    DerivativeConflict,
    FiniteGraph,
    Matching,
    check_acyclic,
    check_condition1,
    check_condition2,
    closure,
    dense_schedule,
    derive,
    enumerate_perfect_matchings,
    has_perfect_matching,
    levels,
    match_ends,
    matching_to_orientation,
    orientation_to_matching,
    rooted_matching,
    subdivide,
    sweep_step,
    verify_ends_output,
)
from treematch.enumeration import all_trees, random_forest
from treematch.presets import BAD_RAY_TRUTH, BATTERY, battery_ends, cycle_graph

from conftest import check_window_matching, cli_run, induced_tree_graph


def criterion(number, name, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed >= budget:
                print(f"criterion {number} ({name}): FAIL")
                raise AssertionError(
                    f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
                )
            print(f"criterion {number} ({name}): PASS")

        return run

    return wrap


def assert_derivative_decides(g: FiniteGraph) -> None:
    res = derive(g)
    if isinstance(res, DerivativeConflict):
        assert not has_perfect_matching(g)
        return
    assert has_perfect_matching(g)
    assert not res.core
    res.forced.validate_on(g)
    assert set(res.forced.partner_map) == set(range(g.vertex_count))


@criterion(1, "derivative completeness", budget=30)
def test_criterion_1_derivative_completeness():
    total = 0
    for n in range(1, 11):
        for g in all_trees(n):
            assert_derivative_decides(g)
            total += 1
    assert total == 1205
    rng = Random(20260817)
    for _ in range(1000):
        assert_derivative_decides(random_forest(rng, 16))


@criterion(2, "rooted totality", budget=10)
def test_criterion_2_rooted_totality():
    covered = 0
    for builder in BATTERY.values():
        t = builder()
        oracle = rooted_matching(t)
        assert check_window_matching(t, oracle, 10) > 0
        covered += 1
    assert covered >= 6


@criterion(3, "end matchings", budget=30)
def test_criterion_3_end_matchings():
    for name, builder in BATTERY.items():
        if BAD_RAY_TRUTH[name]:
            continue
        t = builder()
        for group in battery_ends(name):
            out = match_ends(t, group)
            assert out.b_set.kind == "empty"
            assert check_window_matching(t, out.oracle, 10) > 0
    line = BATTERY["line"]()
    (one, other) = battery_ends("line")[1]
    out = match_ends(line, [one, other])
    assert out.b_set.kind == "line"
    verify_ends_output(line, out, 10)


@criterion(4, "subdivision correspondence", budget=10)
def test_criterion_4_subdivision_correspondence():
    for n in range(3, 13):
        cyc = cycle_graph(n)
        sub = subdivide(cyc)
        pms = enumerate_perfect_matchings(sub.graph)
        assert len(pms) == 2
        for m in pms:
            f = matching_to_orientation(cyc, m)
            assert orientation_to_matching(cyc, f) == m
        for f in (
            {i: (i + 1) % n for i in range(n)},
            {i: (i - 1) % n for i in range(n)},
        ):
            m = orientation_to_matching(cyc, f)
            assert matching_to_orientation(cyc, m) == f
    for n in range(1, 9):
        for g in all_trees(n):
            sub = subdivide(g)
            assert sub.graph.vertex_count % 2 == 1
            assert not has_perfect_matching(sub.graph)


@criterion(5, "closure and sweep", budget=30)
def test_criterion_5_closure_and_sweep():
    for name in ("three_regular", "odd_comb"):
        t = BATTERY[name]()
        s_set, internal = closure(t, ROOT)
        assert len(s_set) % 2 == 0
        assert set(internal.partner_map) == s_set
        finite, order = induced_tree_graph(t, s_set)
        index = {v: i for i, v in enumerate(order)}
        moved = Matching.of(
            [(index[a], index[b]) for (a, b) in internal.pairs]
        )
        assert has_perfect_matching(finite)
        assert moved in enumerate_perfect_matchings(finite)
        result = sweep_step(t, [ROOT])
        assert result.remainder.clean
        assert result.remainder.check_depth == 8
        assert result.remainder.checked_pairs > 0
    line = BATTERY["line"]()
    for budget in (10, 100, 1000):
        with pytest.raises(BudgetExceededError) as exc:
            closure(line, ROOT, budget=budget)
        assert exc.value.frontier


@criterion(6, "level recursion", budget=60)
def test_criterion_6_level_recursion():
    systems = list(levels(16))
    assert len(systems) == 17
    sizes = [len(ls.pairs) for ls in systems]
    for n in range(0, 15, 2):
        assert sizes[n + 1] == 2 * sizes[n] + 1
        assert sizes[n + 2] == 2 * sizes[n + 1]
    for ls in systems:
        for (u, v) in ls.pairs:
            assert ls.s_contains(u, v)
        ok, failing = check_condition1(ls)
        assert ok, (ls.n, failing)
        ok, failing = check_condition2(ls)
        assert ok, (ls.n, failing)
        ok, witness = check_acyclic(ls)
        assert ok, (ls.n, witness)
    scheduled = [dense_schedule(m) for m in range(200)]
    words = [""]
    for length in range(1, 7):
        words.extend("".join(bits) for bits in product("01", repeat=length))
    for w in words:
        assert any(u.startswith(w) for (u, _) in scheduled)
        assert any(v.startswith(w) for (_, v) in scheduled)
    assert list(levels(16)) == systems


@criterion(7, "output determinism")
def test_criterion_7_output_determinism(tmp_path):
    p3 = tmp_path / "p3.g"
    p3.write_text("graph 3\ne 0 1\ne 1 2\n")
    p4 = tmp_path / "p4.g"
    p4.write_text("graph 4\ne 0 1\ne 1 2\ne 2 3\n")
    t3 = tmp_path / "t3.tree"
    t3.write_text(
        "tree\nstate r branch 3\nstate b branch 2\nroot r\n"
        "trans r 0 b\ntrans r 1 b\ntrans r 2 b\ntrans b 0 b\ntrans b 1 b\n"
    )
    line = tmp_path / "line.tree"
    line.write_text(
        "tree\nstate root branch 2\nstate l branch 1\nroot root\n"
        "trans root 0 l\ntrans root 1 l\ntrans l 0 l\n"
    )
    commands = [
        ["derivative", "--graph", str(p3)],
        ["derivative", "--graph", str(p4)],
        ["derivative", "--tree", str(t3), "--depth", "4"],
        ["match-rooted", "--tree", str(t3), "--depth", "4"],
        ["match-ends", "--tree", str(t3), "--end", "|0", "--end", "|1", "--end", "2|0"],
        ["match-ends", "--tree", str(line), "--end", "|0", "--end", "1|0"],
        ["subdivide", "--graph", str(p4)],
        ["baire-sweep", "--tree", str(t3), "--seed", "/", "--seed", "0/0", "--depth", "4"],
        ["baire-sweep", "--tree", str(line), "--seed", "/", "--budget", "50"],
        ["counterexample", "--levels", "6"],
    ]
    for argv in commands:
        first = cli_run(argv)
        second = cli_run(argv)
        assert first[0] == second[0], argv
        assert first[1] == second[1], argv
