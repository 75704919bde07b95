"""Command-line interface: formats, exit codes, and frozen outputs."""

import hashlib
import re
import time
import tracemalloc

import pytest

from treematch import cli
from treematch.graph_core import MAX_END_WALK
from treematch.presets import BATTERY, BATTERY_ENDS

from conftest import cli_run, cyclic_chain, tree_text

P3 = "graph 3\ne 0 1\ne 1 2\n"
P4 = "graph 4\ne 0 1\ne 1 2\ne 2 3\n"
C4 = "graph 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
T3 = (
    "tree\n"
    "state r branch 3\n"
    "state b branch 2\n"
    "root r\n"
    "trans r 0 b\n"
    "trans r 1 b\n"
    "trans r 2 b\n"
    "trans b 0 b\n"
    "trans b 1 b\n"
)
LINE = (
    "tree\n"
    "state root branch 2\n"
    "state l branch 1\n"
    "root root\n"
    "trans root 0 l\n"
    "trans root 1 l\n"
    "trans l 0 l\n"
)

DERIVATIVE_P3 = "outcome conflict\nkind double_forced\nvertex 1\npartners 0 2\nstage 1\n"
DERIVATIVE_P4 = "outcome ok\nrounds 1\nstabilized yes\nm 0 1\nm 2 3\n"
DERIVATIVE_T3 = (
    "outcome ok\nrounds 0\nstabilized yes\n"
    "core /\ncore 0\ncore 1\ncore 2\n"
    "core 0/0\ncore 0/1\ncore 1/0\ncore 1/1\ncore 2/0\ncore 2/1\n"
    "core 0/0/0\ncore 0/0/1\ncore 0/1/0\ncore 0/1/1\n"
    "core 1/0/0\ncore 1/0/1\ncore 1/1/0\ncore 1/1/1\n"
    "core 2/0/0\ncore 2/0/1\ncore 2/1/0\ncore 2/1/1\n"
)
ROOTED_T3 = (
    "m / 0\nm 1 1/0\nm 2 2/0\n"
    "m 0/0 0/0/0\nm 0/1 0/1/0\nm 1/1 1/1/0\nm 2/1 2/1/0\n"
)
ENDS_LINE = "ends 2\nbset line\nb /\nb 0\nb 1\nb 0/0\nb 1/0\nb 0/0/0\nb 1/0/0\n"
ENDS_T3 = "ends 1\nbset empty\n" + ROOTED_T3
ENDS_CHAIN = "ends 2\nbset empty\nm / 0\nm 1 1/0\nm 0/0 0/0/1\nm 0/1 0/1/0\nm 1/1 1/1/0\n"
ENDS_LINE_DEDUP = (
    "ends 1\nbset injective-part\n"
    "b /\nb 0\nb 1\nb 0/0\nb 1/0\nb 0/0/0\nb 1/0/0\n"
    "b 0/0/0/0\nb 1/0/0/0\nb 0/0/0/0/0\nb 1/0/0/0/0\n"
    "b 0/0/0/0/0/0\nb 1/0/0/0/0/0\n"
)
SUBDIVIDE_P3 = (
    "graph 5\n"
    "# point 0 = 0\n# point 1 = 1\n# point 2 = 2\n"
    "# edge 3 = {0,1}\n# edge 4 = {1,2}\n"
    "e 0 3\ne 1 3\ne 1 4\ne 2 4\n"
)
SWEEP_T3 = (
    "kept /\n"
    "s /\ns 0\n"
    "t /\nt 0\nt 1\nt 2\n"
    "t 0/0\nt 0/1\nt 1/0\nt 1/1\nt 2/0\nt 2/1\n"
    "t 0/0/0\nt 0/0/1\nt 0/1/0\nt 0/1/1\n"
    "t 1/0/0\nt 1/0/1\nt 1/1/0\nt 1/1/1\n"
    "t 2/0/0\nt 2/0/1\nt 2/1/0\nt 2/1/1\n"
    "t 0/0/0/0\nt 0/0/0/1\nt 0/0/1/0\nt 0/0/1/1\n"
    "t 0/1/0/0\nt 0/1/0/1\nt 0/1/1/0\nt 0/1/1/1\n"
    "m / 0\n"
    "dropped 0/0\n"
    "remainder-degree ok\n"
    "remainder-crossing ok\n"
)
LEVELS_2 = (
    "level 0\nS - -\n"
    "level 1\nu -\nv -\nR 0 1\nS 0 0\nS 0 1\nS 1 0\nS 1 1\n"
    "level 2\nu 1\nv 0\nR 00 10\nR 01 11\n"
    "S 00 00\nS 00 01\nS 00 10\nS 00 11\n"
    "S 01 00\nS 01 01\nS 01 10\nS 01 11\n"
    "S 10 01\n"
    "S 11 00\nS 11 01\nS 11 10\nS 11 11\n"
)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("p3.g", P3),
        ("p4.g", P4),
        ("c4.g", C4),
        ("t3.tree", T3),
        ("line.tree", LINE),
    ]:
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    paths["dir"] = tmp_path
    return paths


class TestDerivative:
    def test_conflict_output(self, files):
        code, out, err = cli_run(["derivative", "--graph", files["p3.g"]])
        assert code == 1
        assert out == DERIVATIVE_P3
        assert "outcome=conflict" in err

    def test_forced_output(self, files):
        code, out, _ = cli_run(["derivative", "--graph", files["p4.g"]])
        assert code == 0
        assert out == DERIVATIVE_P4

    def test_window_output(self, files):
        code, out, _ = cli_run(["derivative", "--tree", files["t3.tree"], "--depth", "3"])
        assert code == 0
        assert out == DERIVATIVE_T3

    def test_report_line_shape(self, files):
        code, _, err = cli_run(["derivative", "--graph", files["p3.g"]])
        assert err.startswith("report subcommand=derivative digest=")
        assert " outcome=conflict vertices=3 iterations=1 runtime=" in err


class TestMatchRooted:
    def test_frozen_window(self, files):
        code, out, _ = cli_run(["match-rooted", "--tree", files["t3.tree"], "--depth", "2"])
        assert code == 0
        assert out == ROOTED_T3

    def test_report_counts_pointwise_queries(self, files):
        # The rooted matching's one anchor is the root.
        _, _, err = cli_run(["match-rooted", "--tree", files["t3.tree"], "--depth", "4"])
        assert " runtime=" in err and err.endswith(" pointwise=1\n")
        _, _, err = cli_run(["match-ends", "--tree", files["t3.tree"], "--end", "|0", "--depth", "4"])
        # The root, the line's 2 x 4 vertices below it, and the depth-5 line
        # vertex that the depth-4 one pairs with, asked back.
        assert err.endswith(" pointwise=10\n")

    def test_deep_thin_window_is_refused_before_it_is_built(self, files):
        # 199,999 vertices, under the vertex cap, but a total path length of
        # about 10**10: refused from the count by state, in well under a
        # second, with the budget's exit code.
        start = time.monotonic()
        code, out, err = cli_run(["match-rooted", "--tree", files["line.tree"], "--depth", "99999"])
        assert time.monotonic() - start < 1
        assert code == 3
        assert out == ""
        assert "total path length" in err

    def test_rejects_leaf_states(self, files, tmp_path):
        leafy = tmp_path / "leafy.tree"
        leafy.write_text(
            "tree\nstate a branch 1\nstate b branch 0\nroot a\ntrans a 0 b\n"
        )
        code, out, err = cli_run(["match-rooted", "--tree", str(leafy)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestMatchEnds:
    def test_two_ends_on_the_line(self, files):
        code, out, _ = cli_run(
            ["match-ends", "--tree", files["line.tree"], "--end", "|0", "--end", "1|0", "--depth", "3"]
        )
        assert code == 0
        assert out == ENDS_LINE

    def test_one_end_on_three_regular(self, files):
        code, out, _ = cli_run(
            ["match-ends", "--tree", files["t3.tree"], "--end", "|0", "--depth", "2"]
        )
        assert code == 0
        assert out == ENDS_T3

    def test_equivalent_ends_deduplicate(self, files):
        code, out, _ = cli_run(
            ["match-ends", "--tree", files["line.tree"], "--end", "|0", "--end", "0|0"]
        )
        assert code == 0
        assert out == ENDS_LINE_DEDUP

    def test_two_ends_on_a_large_machine(self, tmp_path):
        chain = tmp_path / "chain.tree"
        chain.write_text(tree_text(cyclic_chain(1500)))
        code, out, err = cli_run(
            ["match-ends", "--tree", str(chain), "--end", "|0", "--end", "|1", "--depth", "2"]
        )
        assert code == 0
        assert out == ENDS_CHAIN
        assert "Traceback" not in err

    def test_end_walk_over_the_cap_exits_3(self, tmp_path):
        # The walk along this end repeats a (state, phase) pair only after
        # 1,500 x 1,999 steps; it stops at the cap instead.
        chain = tmp_path / "chain.tree"
        chain.write_text(tree_text(cyclic_chain(1500)))
        end = "|" + "0," * 1998 + "1"
        start = time.monotonic()
        code, out, err = cli_run(["match-ends", "--tree", str(chain), "--end", end, "--depth", "2"])
        assert time.monotonic() - start < 1
        assert code == 3
        assert out == ""
        assert "outcome=budget-exceeded" in err and f"within {MAX_END_WALK} steps" in err
        assert "Traceback" not in err

    def test_malformed_end_descriptor(self, files):
        code, out, err = cli_run(
            ["match-ends", "--tree", files["t3.tree"], "--end", "nope"]
        )
        assert code == 2
        assert err.startswith("error:")


class TestSubdivide:
    def test_frozen_output(self, files):
        code, out, _ = cli_run(["subdivide", "--graph", files["p3.g"]])
        assert code == 0
        assert out == SUBDIVIDE_P3

    def test_output_is_itself_a_graph_file(self, files, tmp_path):
        target = tmp_path / "c8.g"
        code, _, _ = cli_run(
            ["subdivide", "--graph", files["c4.g"], "--out", str(target)]
        )
        assert code == 0
        code, out, _ = cli_run(["derivative", "--graph", str(target)])
        assert code == 0
        assert out.startswith("outcome ok\n")
        assert out.count("core") == 8


class TestBaireSweep:
    def test_frozen_output(self, files):
        code, out, _ = cli_run(
            ["baire-sweep", "--tree", files["t3.tree"], "--seed", "/", "--seed", "0/0", "--depth", "4"]
        )
        assert code == 0
        assert out == SWEEP_T3

    def test_budget_exhaustion_reports_frontier(self, files):
        code, out, err = cli_run(
            ["baire-sweep", "--tree", files["line.tree"], "--seed", "/", "--budget", "50"]
        )
        assert code == 3
        assert out == ""
        assert "outcome=budget-exceeded" in err
        assert err.count("frontier ") == 2


class TestCounterexample:
    def test_frozen_dump(self):
        code, out, _ = cli_run(["counterexample", "--levels", "2"])
        assert code == 0
        assert out == LEVELS_2

    def test_level_zero(self):
        code, out, _ = cli_run(["counterexample", "--levels", "0"])
        assert code == 0
        assert out == "level 0\nS - -\n"

    def test_frozen_dump_at_the_level_cap(self):
        # 1,028,340 lines, recorded from the exhaustive per-string listing
        code, out, _ = cli_run(["counterexample", "--levels", "10"])
        assert code == 0
        assert out.count("\n") == 1_028_340
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "43ad47103e43caa2f3c5d1541d9414326fc604a6c76bae471db80aec46010118"
        )

    def test_dump_at_the_cap_is_copied_once(self):
        # The output is joined once, with its trailing newline: the 22.9 MB
        # dump is not copied a second time to add it.
        tracemalloc.start()
        try:
            code, out, _ = cli_run(["counterexample", "--levels", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert peak <= 56 * 2**20, peak / 2**20

    @pytest.mark.parametrize("levels", ["-1", "11"])
    def test_level_bounds(self, levels):
        code, out, err = cli_run(["counterexample", "--levels", levels])
        assert code == 2
        assert err.startswith("error:")


# sha256 of the stdout of each depth-10 tree command, recorded before the
# oracles memoized their answers. Depth 10 reaches the one-end run
# components and the hanging components of the two-end line, which the
# depth-3 outputs above do not.
DEPTH10_SHA256 = {
    ("three_regular", "match-rooted"): "3a243f3ff21cb92cb46ce55acf68b4a4e9825861db4bc627b0431d9213bdb10d",
    ("three_regular", "derivative"): "1eee30c8fed424798d26f2f029f0f55e72b2350798ab3be1bf498da8a87234ac",
    ("three_regular", "|0"): "257e5c11f8fedb4b40757e4ae5d25a3a9c1073723149be3480200fa25ee1661f",
    ("three_regular", "|0 |1"): "6325e38b0cc73b1315db8dc70d16c701448b007d014ad11029fdab30a0dd83e6",
    ("three_regular", "|0 |1 2|0"): "d5cca8a84a17aa99fc8df8dbde66f0e4be9340345333ee75cecbbbdfdf8fe0d1",
    ("odd_comb", "match-rooted"): "3a243f3ff21cb92cb46ce55acf68b4a4e9825861db4bc627b0431d9213bdb10d",
    ("odd_comb", "derivative"): "1eee30c8fed424798d26f2f029f0f55e72b2350798ab3be1bf498da8a87234ac",
    ("odd_comb", "|0"): "257e5c11f8fedb4b40757e4ae5d25a3a9c1073723149be3480200fa25ee1661f",
    ("odd_comb", "|0 1|0"): "213f575b91bea81d90b067cc17570ccf058c87bc38eb3aa5ed2b9518d7a8754f",
    ("odd_comb", "|0 1|0 2|0"): "d5cca8a84a17aa99fc8df8dbde66f0e4be9340345333ee75cecbbbdfdf8fe0d1",
    ("even_comb", "match-rooted"): "e7488b0fcd7fff416a0cfc92248e03c0af511f2a73921991259793e789b81e20",
    ("even_comb", "derivative"): "adc4853fc0e52bb0d69ed92bf84bf2595817619a725778cd60ba6a469864a98f",
    ("even_comb", "|0"): "d6ca639cd512f732fca114776d293bd742822d8f7f02a84aa7039d6f321ff365",
    ("even_comb", "|0 1|0"): "9ae4f54ce1b79613efa8d3a5c37e909013329cd41ea877f51df5eb9c32b71bfd",
    ("even_comb", "|0 1|0 2|0"): "395c00c8385be3085be7cbb965761e461f933877fc82468b14ad6b0c761dc5f5",
}


class TestTreeCommandBytes:
    @pytest.mark.parametrize("name, command", sorted(DEPTH10_SHA256))
    def test_depth10_stdout_is_pinned(self, tmp_path, name, command):
        path = tmp_path / f"{name}.tree"
        path.write_text(tree_text(BATTERY[name]()))
        if command in ("match-rooted", "derivative"):
            argv = [command]
        else:
            argv = ["match-ends"]
            for e in command.split():
                argv += ["--end", e]
        code, out, _ = cli_run(argv + ["--tree", str(path), "--depth", "10"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DEPTH10_SHA256[(name, command)]


# sha256 of the stdout of match-ends at depth 8 for every battery end group
# on the trees the depth-10 pins leave out, and of baire-sweep at its default
# depth for two seed sets, recorded while the one-end spine and the two-end
# line still kept separate coordinates and baire.py two bad-path searches.
ENDS_DEPTH8_SHA256 = {
    ("line", "|0"): "d259eb33154fa62c992800a6e6741cd05c4cf1d412ea9ec59270e9fcc3d47994",
    ("line", "|0 1|0"): "0e47212674f15e7a67a2d52945ced6a4b6ff77eea5965c4d18a0687362cfa38f",
    ("binary", "|0"): "595a4dd036633c74e94037be984f4e3b89bbdce6dd2f2646bb8450917d8ff08c",
    ("binary", "|0 |1"): "6b4e3bc71f86a00eb2bd3530d1fd6a6ecfe264b29ebdef460031d4ef19c9fea0",
    ("binary", "|0 |1 0,1|0"): "3a634ee086c0ba76f1bc4623e407dd523b74adca7e3a19ad2920c6fc3484c31d",
    ("mixed_period", "|0"): "ff48cf4ce1744eda8672f080f7eec49b41278ffaf41f78be7735b141203666a7",
    ("mixed_period", "|0 1|0"): "911654f94f44aa0b675858fc7bd5ae705677b445142df5889b15b3e398120d86",
    ("mixed_period", "|0 1|0 0,1|0"): "052944435bc163ad5d95890104ea8e760aaacc85d2dbfa4877ba795a7f99f5e8",
    ("ray_comb", "|0"): "595a4dd036633c74e94037be984f4e3b89bbdce6dd2f2646bb8450917d8ff08c",
}
SWEEP_SEEDS = {
    "near": ("/", "0/0/0"),
    "spread": ("1/0", "0/1/1", "0/0/0/0/0", "1/1/1/1"),
}
SWEEP_SHA256 = {
    ("three_regular", "near"): "d94f5dc04d3de213d7fa72eec0f58183fdb0d988d38acbad0417e2ee92957989",
    ("three_regular", "spread"): "0673cc1d2ef4270d737ee8f7237466dba37a95f0e7766e1fc031d7d0bb8e7987",
    ("odd_comb", "near"): "d94f5dc04d3de213d7fa72eec0f58183fdb0d988d38acbad0417e2ee92957989",
    ("odd_comb", "spread"): "0673cc1d2ef4270d737ee8f7237466dba37a95f0e7766e1fc031d7d0bb8e7987",
    ("mixed_period", "near"): "df65f7b806940246c243f6a36ad5e84dc8ee9d9df00e8823bf49f24b3dcee0ab",
    ("mixed_period", "spread"): "f322cbafa7d708d4b3d6b5f428970ead2a2d2fadd0037903267e0798e448a542",
}


class TestBatteryBytes:
    @pytest.mark.parametrize("name, ends", sorted(ENDS_DEPTH8_SHA256))
    def test_match_ends_depth8_stdout_is_pinned(self, tmp_path, name, ends):
        path = tmp_path / f"{name}.tree"
        path.write_text(tree_text(BATTERY[name]()))
        argv = ["match-ends", "--tree", str(path), "--depth", "8"]
        for e in ends.split():
            argv += ["--end", e]
        code, out, _ = cli_run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENDS_DEPTH8_SHA256[(name, ends)]

    def test_every_battery_end_group_is_pinned(self):
        for name in ("line", "binary", "mixed_period", "ray_comb"):
            for group in BATTERY_ENDS[name]:
                assert (name, " ".join(group)) in ENDS_DEPTH8_SHA256

    @pytest.mark.parametrize("name, seeds", sorted(SWEEP_SHA256))
    def test_baire_sweep_stdout_is_pinned(self, tmp_path, name, seeds):
        path = tmp_path / f"{name}.tree"
        path.write_text(tree_text(BATTERY[name]()))
        argv = ["baire-sweep", "--tree", str(path)]
        for s in SWEEP_SEEDS[seeds]:
            argv += ["--seed", s]
        code, out, _ = cli_run(argv)
        assert code == 0
        assert out.endswith("remainder-degree ok\nremainder-crossing ok\n")
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[(name, seeds)]


class TestFormatErrors:
    def test_bad_edge_line_is_located(self, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("graph 3\ne 0 5\n")
        code, out, err = cli_run(["derivative", "--graph", str(bad)])
        assert code == 2
        assert err.startswith("error: line 2:")

    def test_unknown_transition_target(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("tree\nstate a branch 2\nroot a\ntrans a 0 zz\n")
        code, _, err = cli_run(["derivative", "--tree", str(bad)])
        assert code == 2
        assert "unknown state" in err

    def test_branch_count_above_the_window_cap(self, tmp_path):
        # Rejected while parsing, before any transition table is built.
        bad = tmp_path / "wide.tree"
        bad.write_text("tree\nstate a branch 200001\nroot a\n")
        code, out, err = cli_run(["derivative", "--tree", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2:")
        assert "window cap" in err

    def test_vertex_count_above_the_cap(self, tmp_path):
        # Rejected while parsing the header, before any vertex is built.
        for n in (200_001, 10**12):
            bad = tmp_path / "huge.g"
            bad.write_text(f"graph {n}\n")
            for command in ("derivative", "subdivide"):
                code, out, err = cli_run([command, "--graph", str(bad)])
                assert code == 2, (n, command)
                assert out == ""
                assert err.startswith("error: line 1:") and "exceeds the cap" in err

    def test_missing_file(self):
        code, _, err = cli_run(["derivative", "--graph", "/nonexistent.g"])
        assert code == 2
        assert err.startswith("error:")

    def test_usage_errors(self):
        assert cli_run(["not-a-command"])[0] == 2
        assert cli_run([])[0] == 2

    def test_budget_only_where_it_is_used(self, files):
        # Only match-ends and baire-sweep have a budget to spend.
        code, out, err = cli_run(["derivative", "--graph", files["p4.g"], "--budget", "5"])
        assert code == 2
        assert out == ""
        assert "--budget" in err
        for argv in (
            ["match-rooted", "--tree", files["t3.tree"]],
            ["subdivide", "--graph", files["p3.g"]],
            ["counterexample"],
        ):
            assert cli_run(argv + ["--budget", "5"])[0] == 2, argv
        code, _, _ = cli_run(
            ["match-ends", "--tree", files["t3.tree"], "--end", "|0", "--budget", "5"]
        )
        assert code == 0

    def test_budget_below_one_is_a_usage_error(self, files):
        for argv in (
            ["match-ends", "--tree", files["t3.tree"], "--end", "|0"],
            ["baire-sweep", "--tree", files["t3.tree"], "--seed", "/"],
        ):
            for budget in ("0", "-1"):
                code, out, err = cli_run(argv + ["--budget", budget])
                assert code == 2, (argv, budget)
                assert out == ""
                assert "report " not in err
                assert "budget must be at least 1" in err


class TestOutputFile:
    def test_out_receives_the_bytes_and_code_is_kept(self, files, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = cli_run(
            ["derivative", "--graph", files["p3.g"], "--out", str(target)]
        )
        assert code == 1
        assert out == ""
        assert target.read_text() == DERIVATIVE_P3


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, files):
        commands = [
            ["derivative", "--graph", files["p4.g"]],
            ["derivative", "--tree", files["t3.tree"], "--depth", "3"],
            ["match-rooted", "--tree", files["t3.tree"], "--depth", "3"],
            ["match-ends", "--tree", files["line.tree"], "--end", "|0", "--end", "1|0"],
            ["subdivide", "--graph", files["c4.g"]],
            ["baire-sweep", "--tree", files["t3.tree"], "--seed", "/", "--depth", "4"],
            ["counterexample", "--levels", "4"],
        ]
        for argv in commands:
            first = cli_run(argv)
            second = cli_run(argv)
            assert first[0] == second[0], argv
            assert first[1] == second[1], argv
            assert first[1].endswith("\n") and not first[1].endswith("\n\n"), argv

    def test_one_parser_serves_every_run(self, files):
        # The parser is built on the first run and reused: a run after usage
        # errors, a capped dump, an exceeded budget and --help prints what
        # the first run printed.
        good = ["match-ends", "--tree", files["line.tree"], "--end", "|0", "--depth", "4"]
        runtime = re.compile(r"runtime=\S+")
        cli._build_parser.cache_clear()
        first = cli_run(good)
        assert first[0] == 0 and first[1]
        assert cli_run(["match-rooted", "--depth", "3"])[0] == 2
        assert cli_run(["counterexample", "--levels", "11"])[0] == 2
        code, _, err = cli_run(
            ["baire-sweep", "--tree", files["t3.tree"], "--seed", "/", "--budget", "1"]
        )
        assert code == 3 and "outcome=budget-exceeded" in err
        code, out, _ = cli_run(["--help"])
        assert code == 0 and out.startswith("usage: treematch")
        last = cli_run(good)
        assert last[:2] == first[:2]
        assert runtime.sub("", last[2]) == runtime.sub("", first[2])
        assert cli._build_parser.cache_info().misses == 1
