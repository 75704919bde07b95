"""Seeded fuzzing of the command line: mutated tree files, graph files, end
descriptors and `/` paths. Every run must end with one of the documented
exit codes 0 to 3 and print no traceback. Depths, budgets and levels stay
small; the caps on huge inputs have their own tests in test_cli.py."""

from pathlib import Path
from random import Random

import pytest

from treematch.graph_core import AutomaticTree
from treematch.presets import BATTERY, BATTERY_ENDS

from conftest import cli_run, cyclic_chain, tree_text

GRAPHS = [
    "graph 3\ne 0 1\ne 1 2\n",
    "graph 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n",
    "graph 6\ne 0 1\ne 0 2\ne 2 3\ne 4 5\n# a comment\n",
    "graph 0\n",
]
TREES = sorted(BATTERY)
ENDS = sorted({e for groups in BATTERY_ENDS.values() for group in groups for e in group})
SEEDS = ["/", "0", "1/0", "0/1/1", "2/0/1"]
NOISE = "0123456789 \n#|,/-abe"
RUNS = 150


def mutate(text: str, rng: Random) -> str:
    """text after one to three random edits: a character deleted, inserted
    or replaced, or a line deleted, repeated or moved."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.randrange(6)
        if kind == 3 and len(lines) > 1:
            del lines[rng.randrange(len(lines))]
        elif kind == 4:
            j = rng.randrange(len(lines))
            lines.insert(j, lines[j])
        elif kind == 5:
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(rng.randrange(len(lines))))
        else:
            j = rng.randrange(len(text) + 1)
            c = rng.choice(NOISE)
            text = (text[:j] + c + text[j:] if kind == 0
                    else text[:j] + text[j + 1:] if kind == 1
                    else text[:j] + c + text[j + 1:])
            continue
        text = "\n".join(lines)
    return text


def maybe_mutated(text: str, rng: Random, p: float = 0.5) -> str:
    return mutate(text, rng) if rng.random() < p else text


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fuzz_argv(command: str, rng: Random, tmp_path) -> list:
    depth = ["--depth", maybe_mutated(str(rng.randint(0, 4)), rng, 0.15)]
    budget = ["--budget", maybe_mutated(str(rng.randint(1, 40)), rng, 0.15)]
    if command.endswith("--graph"):
        return command.split() + [write(tmp_path, "in.g", maybe_mutated(rng.choice(GRAPHS), rng))]
    name = rng.choice(TREES)
    tree = write(tmp_path, "in.tree", maybe_mutated(tree_text(BATTERY[name]()), rng))
    if command == "match-ends":
        # Mostly a group of ends that is valid on the unmutated tree.
        group = list(rng.choice(BATTERY_ENDS.get(name) or [ENDS]))
        ends = [maybe_mutated(rng.choice(group), rng, 0.3) for _ in range(rng.randint(1, 3))]
        return ["match-ends", "--tree", tree, *(a for e in ends for a in ("--end", e))] + depth + budget
    if command == "baire-sweep":
        seeds = [maybe_mutated(rng.choice(SEEDS), rng, 0.3) for _ in range(rng.randint(1, 3))]
        return ["baire-sweep", "--tree", tree, *(a for s in seeds for a in ("--seed", s))] + depth + budget
    return command.split() + [tree] + depth


@pytest.mark.parametrize(
    "command", ["derivative --graph", "subdivide --graph", "derivative --tree",
                "match-rooted --tree", "match-ends", "baire-sweep"])
def test_mutated_inputs_end_with_a_documented_exit_code(tmp_path, command):
    rng = Random(f"cli-fuzz:{command}")
    codes = set()
    for _ in range(RUNS):
        argv = fuzz_argv(command, rng, tmp_path)
        inputs = [Path(a).read_text() for a in argv if a.startswith(str(tmp_path))]
        try:
            code, _, err = cli_run(argv)
        except Exception as exc:
            pytest.fail(f"{argv} on {inputs!r} raised {exc!r}")
        assert code in (0, 1, 2, 3), (argv, inputs, code)
        assert "Traceback" not in err, (argv, inputs, err)
        codes.add(code)
    # The mutations reach past the parser: some runs finish.
    assert 0 in codes and 2 in codes, codes


def large_machine(rng: Random) -> AutomaticTree:
    """A machine of 100 to 800 states, each with 1 to 3 children in random
    states, or the cyclic chain, whose ends' walks can outrun the cap."""
    n = rng.randint(100, 800)
    if rng.random() < 0.3:
        return cyclic_chain(n)
    branch = {f"s{i}": rng.randint(1, 3) for i in range(n)}
    branch["s0"] = rng.randint(2, 3)
    step = {(q, i): f"s{rng.randrange(n)}" for q in branch for i in range(branch[q])}
    return AutomaticTree.build("s0", branch, step)


def test_match_ends_on_large_machines_ends_with_a_documented_exit_code(tmp_path):
    rng = Random("cli-fuzz:large")
    long_end = "|" + "0," * 70 + "1"
    codes = set()
    for _ in range(12):
        tree = write(tmp_path, "large.tree", tree_text(large_machine(rng)))
        for _ in range(3):
            ends = [rng.choice(ENDS + [long_end]) for _ in range(rng.randint(1, 3))]
            argv = ["match-ends", "--tree", tree, *(a for e in ends for a in ("--end", e)),
                    "--depth", str(rng.randint(0, 4))]
            code, _, err = cli_run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, (argv, err)
            codes.add(code)
    assert 0 in codes, codes


def test_mutated_levels_end_with_a_documented_exit_code():
    rng = Random("cli-fuzz:counterexample")
    for _ in range(RUNS):
        levels = mutate(str(rng.randint(0, 6)), rng).strip() or "0"
        code, _, err = cli_run(["counterexample", "--levels", levels])
        assert code in (0, 2), (levels, code)
        assert "Traceback" not in err, (levels, err)
