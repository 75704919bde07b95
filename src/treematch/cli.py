"""Command-line front end.

Every subcommand reads line-oriented input files, runs one construction, and
emits deterministic line-oriented output (stdout or --out). A one-line run
report goes to stderr, where the only nondeterministic field (runtime)
lives, so captured primary output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from .baire import sweep_step
from .counterexample import levels
from .derivative import DerivativeConflict, derive, derive_window
from .errors import BudgetExceededError, FormatError, InvariantViolationError
from .graph_core import (
    MAX_WINDOW_VERTICES,
    AutomaticTree,
    EndDescriptor,
    FiniteGraph,
    parse_path,
    render_path,
    shortlex,
)
from .matcher import match_ends, rooted_matching
from .subdivision import subdivide

MAX_DUMP_LEVELS = 10


def _parse_graph_text(text: str) -> FiniteGraph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "graph" or len(parts) != 2:
                raise FormatError("expected 'graph <vertex count>' header", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError("vertex count must be an integer", lineno)
            if n < 0:
                raise FormatError("vertex count must be nonnegative", lineno)
            if n > MAX_WINDOW_VERTICES:
                raise FormatError(f"vertex count {n} exceeds the cap of {MAX_WINDOW_VERTICES}", lineno)
            continue
        if parts[0] == "e":
            if len(parts) != 3:
                raise FormatError("expected 'e <a> <b>'", lineno)
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", lineno)
            if not (0 <= a < b < n):
                raise FormatError(
                    "edge endpoints must satisfy 0 <= a < b < vertex count", lineno
                )
            edges.append((a, b))
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", lineno)
    if n is None:
        raise FormatError("missing 'graph' header")
    return FiniteGraph.from_edges(n, edges)


def _parse_tree_text(text: str) -> AutomaticTree:
    saw_header = False
    branch: dict = {}
    root = None
    trans: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not saw_header:
            if parts != ["tree"]:
                raise FormatError("expected 'tree' header", lineno)
            saw_header = True
            continue
        if parts[0] == "state":
            if len(parts) != 4 or parts[2] != "branch":
                raise FormatError("expected 'state <name> branch <k>'", lineno)
            name = parts[1]
            if name in branch:
                raise FormatError(f"duplicate state {name!r}", lineno)
            try:
                k = int(parts[3])
            except ValueError:
                raise FormatError("branch count must be an integer", lineno)
            if k < 0:
                raise FormatError("branch count must be nonnegative", lineno)
            if k > MAX_WINDOW_VERTICES:
                raise FormatError(
                    f"branch count {k} exceeds the window cap of {MAX_WINDOW_VERTICES}", lineno
                )
            branch[name] = k
        elif parts[0] == "root":
            if len(parts) != 2:
                raise FormatError("expected 'root <name>'", lineno)
            if root is not None:
                raise FormatError("duplicate root directive", lineno)
            root = parts[1]
        elif parts[0] == "trans":
            if len(parts) != 4:
                raise FormatError("expected 'trans <state> <i> <state>'", lineno)
            q, r = parts[1], parts[3]
            try:
                i = int(parts[2])
            except ValueError:
                raise FormatError("transition index must be an integer", lineno)
            if q not in branch:
                raise FormatError(f"unknown state {q!r} (declare states first)", lineno)
            if not (0 <= i < branch[q]):
                raise FormatError(f"index {i} out of range for state {q!r}", lineno)
            if (q, i) in trans:
                raise FormatError(f"duplicate transition ({q!r}, {i})", lineno)
            trans[(q, i)] = r
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", lineno)
    if not saw_header:
        raise FormatError("missing 'tree' header")
    if root is None:
        raise FormatError("missing 'root' directive")
    if root not in branch:
        raise FormatError(f"root state {root!r} was never declared")
    for (q, i), r in trans.items():
        if r not in branch:
            raise FormatError(f"transition ({q!r}, {i}) targets unknown state {r!r}")
    return AutomaticTree.build(root, branch, trans)


def _read(path: str, digest_parts: list) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    digest_parts.append(data)
    return data.decode("utf-8")


def _word(s: str) -> str:
    return s if s else "-"


def _pair_lines(names, uppers, children) -> list:
    """The output lines of tree-edge pairs in window order of their upper
    ends, each (upper end's window index, child i) rendered from the
    window's names as "m <upper> <upper>/i"."""
    lines = [f"m {names[j]} {names[j]}/{i}" for j, i in zip(uppers, children)]
    if uppers and uppers[0] == 0:
        lines[0] = f"m / {children[0]}"  # the root's child is not named //i
    return lines


def _cmd_derivative(args, stats, digest_parts):
    if args.graph is not None:
        g = _parse_graph_text(_read(args.graph, digest_parts))
        result = derive(g)
        label = str
        stats["vertices"] = g.vertex_count
    else:
        t = _parse_tree_text(_read(args.tree, digest_parts))
        digest_parts.append(f"depth={args.depth}".encode())
        win = t.window(args.depth)
        result = derive_window(win)
        label = win.names.__getitem__
        stats["vertices"] = result.trace[0]
    if isinstance(result, DerivativeConflict):
        stats["iterations"] = result.stage
        lines = [
            "outcome conflict",
            f"kind {result.kind}",
            f"vertex {label(result.vertex)}",
        ]
        if result.kind == "double_forced":
            lines.append(f"partners {label(result.partners[0])} {label(result.partners[1])}")
        lines.append(f"stage {result.stage}")
        return lines, "conflict", 1
    stats["iterations"] = result.rounds
    lines = [
        "outcome ok",
        f"rounds {result.rounds}",
        f"stabilized {'yes' if result.stabilized else 'no'}",
    ]
    if args.graph is not None:
        lines.extend(f"core {v}" for v in sorted(result.core))
        lines.extend(f"m {a} {b}" for a, b in result.forced.sorted_pairs())
        return lines, "ok", 0
    names, first = win.names, win.child_start
    lines.extend(f"core {names[j]}" for j in sorted(result.core))
    # Forced pairs are tree edges, each stored as (upper, lower) window indices.
    forced = sorted(result.forced.pairs)
    lines += _pair_lines(names, [a for a, _ in forced], [b - first[a] for a, b in forced])
    return lines, "ok", 0


def _cmd_match_rooted(args, stats, digest_parts):
    t = _parse_tree_text(_read(args.tree, digest_parts))
    digest_parts.append(f"depth={args.depth}".encode())
    oracle = rooted_matching(t)
    win = t.window(args.depth)
    pairs = oracle.restricted_pairs(win)
    stats["vertices"] = len(win.states)
    stats["iterations"] = len(pairs)
    stats["pointwise"] = pairs.pointwise
    return _pair_lines(win.names, pairs.uppers, pairs.children), "ok", 0


def _cmd_match_ends(args, stats, digest_parts):
    t = _parse_tree_text(_read(args.tree, digest_parts))
    ends = [EndDescriptor.parse(s) for s in args.end]
    digest_parts.append(f"depth={args.depth};ends={','.join(args.end)}".encode())
    out = match_ends(t, ends, budget=args.budget, check_depth=args.depth)
    kind = out.b_set.kind.replace("_", "-")
    lines = [f"ends {out.n_ends}", f"bset {kind}"]
    names = out.pairs.window.names
    lines.extend(f"b {names[j]}" for j in out.b_index)
    lines += _pair_lines(names, out.pairs.uppers, out.pairs.children)
    stats["vertices"] = out.window_size
    stats["iterations"] = len(out.pairs)
    stats["pointwise"] = out.pairs.pointwise
    return lines, "ok", 0


def _cmd_subdivide(args, stats, digest_parts):
    g = _parse_graph_text(_read(args.graph, digest_parts))
    sd = subdivide(g)
    lines = [f"graph {sd.graph.vertex_count}"]
    for v in range(sd.base_vertex_count):
        lines.append(f"# point {v} = {v}")
    for j, (a, b) in enumerate(sd.edge_labels):
        lines.append(f"# edge {sd.base_vertex_count + j} = {{{a},{b}}}")
    for a, b in sorted(sd.graph.edges):
        lines.append(f"e {a} {b}")
    stats["vertices"] = sd.graph.vertex_count
    stats["iterations"] = len(sd.edge_labels)
    return lines, "ok", 0


def _cmd_baire_sweep(args, stats, digest_parts):
    t = _parse_tree_text(_read(args.tree, digest_parts))
    seeds = [parse_path(s) for s in args.seed]
    digest_parts.append(
        f"depth={args.depth};budget={args.budget};seeds={','.join(args.seed)}".encode()
    )
    res = sweep_step(
        t, seeds, budget=args.budget, check_depth=args.depth, strict=False
    )
    kept_by_seed = {pair.seed: pair for pair in res.kept}
    lines = []
    for seed in sorted(set(seeds), key=shortlex):
        pair = kept_by_seed.get(seed)
        if pair is None:
            lines.append(f"dropped {render_path(seed)}")
            continue
        lines.append(f"kept {render_path(seed)}")
        for v in sorted(pair.s_set, key=shortlex):
            lines.append(f"s {render_path(v)}")
        for v in sorted(pair.t_set, key=shortlex):
            lines.append(f"t {render_path(v)}")
        for a, b in pair.internal_matching.sorted_pairs():
            lines.append(f"m {render_path(a)} {render_path(b)}")
    rem = res.remainder
    if rem.degree_violations:
        lines.append(f"remainder-degree violations {len(rem.degree_violations)}")
    else:
        lines.append("remainder-degree ok")
    if rem.crossing_witnesses:
        lines.append(f"remainder-crossing found {len(rem.crossing_witnesses)}")
    else:
        lines.append("remainder-crossing ok")
    stats["vertices"] = rem.window_size
    stats["iterations"] = len(res.kept)
    if rem.clean:
        return lines, "ok", 0
    return lines, "invariant-violation", 1


def _cmd_counterexample(args, stats, digest_parts):
    if args.levels < 0:
        raise FormatError("--levels must be nonnegative")
    if args.levels > MAX_DUMP_LEVELS:
        raise FormatError(
            f"--levels is capped at {MAX_DUMP_LEVELS} for the full dump; "
            "use the library for deeper levels"
        )
    digest_parts.append(f"levels={args.levels}".encode())
    # Each chunk is several output lines joined: a level's header, its R
    # block, and one S block per first string.
    chunks = []
    last = None
    for ls in levels(args.levels):
        header = [f"level {ls.n}"]
        if ls.n % 2 == 1:
            u_sched, v_pick = ls.u_history[-1]
            header += [f"u {_word(u_sched)}", f"v {_word(v_pick)}"]
        elif ls.n > 0:
            v_sched, u_pick = ls.v_history[-1]
            header += [f"u {_word(u_pick)}", f"v {_word(v_sched)}"]
        chunks.append("\n".join(header))
        if ls.pairs:
            chunks.append("\n".join(f"R {a} {b}" for a, b in ls.pairs))
        for a, seconds in ls.s_rows():
            if not ls.n:  # the empty string prints as "-"
                a, seconds = _word(a), [_word(b) for b in seconds]
            prefix = f"S {a} "
            chunks.append(prefix + ("\n" + prefix).join(seconds))
        last = ls
    stats["vertices"] = len(last.pairs) if last else 0
    stats["iterations"] = args.levels
    return chunks, "ok", 0


_HANDLERS = {
    "derivative": _cmd_derivative,
    "match-rooted": _cmd_match_rooted,
    "match-ends": _cmd_match_ends,
    "subdivide": _cmd_subdivide,
    "baire-sweep": _cmd_baire_sweep,
    "counterexample": _cmd_counterexample,
}


def _budget(text: str) -> int:
    # A budget below one allows no step at all, so no run could finish.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treematch",
        description="Perfect matchings on finite forests and finitely presented trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth_default=None):
        sp.add_argument("--out", default=None, help="write primary output to this file")
        if depth_default is not None:
            sp.add_argument("--depth", type=int, default=depth_default)

    d = sub.add_parser("derivative", help="iterate forced-edge pruning to a stable core or conflict")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="finite graph file")
    src.add_argument("--tree", help="branching machine file (windowed)")
    common(d, depth_default=6)

    mr = sub.add_parser("match-rooted", help="total matching of a tree with no leaves")
    mr.add_argument("--tree", required=True)
    common(mr, depth_default=6)

    me = sub.add_parser("match-ends", help="end-based matching with exceptional-set report")
    me.add_argument("--tree", required=True)
    me.add_argument("--end", action="append", required=True, help="end descriptor, repeatable")
    me.add_argument("--budget", type=_budget, default=10_000)
    common(me, depth_default=6)

    sd = sub.add_parser("subdivide", help="edge subdivision of a finite graph")
    sd.add_argument("--graph", required=True)
    common(sd)

    bs = sub.add_parser("baire-sweep", help="closure/buffer sweep around seed vertices")
    bs.add_argument("--tree", required=True)
    bs.add_argument("--seed", action="append", required=True, help="seed path, repeatable")
    bs.add_argument("--budget", type=_budget, default=10_000)
    common(bs, depth_default=8)

    ce = sub.add_parser("counterexample", help="dump levels of the pair-system recursion")
    ce.add_argument("--levels", type=int, default=4)
    common(ce)

    return p


def _report(command: str, digest_parts, outcome: str, stats, start: float) -> None:
    digest = hashlib.sha256(b"\x00".join(digest_parts)).hexdigest()[:12]
    runtime = time.monotonic() - start
    # Only a finished window pass knows how many partner queries it made.
    pointwise = f" pointwise={stats['pointwise']}" if "pointwise" in stats else ""
    print(
        f"report subcommand={command} digest={digest} outcome={outcome} "
        f"vertices={stats['vertices']} iterations={stats['iterations']} "
        f"runtime={runtime:.3f}{pointwise}",
        file=sys.stderr,
    )


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.monotonic()
    stats = {"vertices": 0, "iterations": 0}
    digest_parts: list = [args.command.encode()]
    try:
        lines, outcome, code = _HANDLERS[args.command](args, stats, digest_parts)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        _report(args.command, digest_parts, "budget-exceeded", stats, start)
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.frontier:
            name = render_path(v) if isinstance(v, tuple) else str(v)
            print(f"frontier {name}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        _report(args.command, digest_parts, "invariant-violation", stats, start)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _report(args.command, digest_parts, outcome, stats, start)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
