"""Edge subdivision and the correspondence between perfect matchings of the
subdivision and generating orientations of the base graph.

The subdivision keeps the original vertices ("points", ids 0..n-1) and adds
one vertex per original edge (ids n.., in sorted edge order). A map f with
f and f.f both fixed-point free whose pairs {x, f(x)} are exactly the edges
corresponds to a perfect matching of the subdivision: match each point x with
the edge vertex of {x, f(x)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph_core import FiniteGraph, Matching


@dataclass(frozen=True)
class SubdivisionGraph:
    graph: FiniteGraph
    base_vertex_count: int
    edge_labels: tuple  # sorted original edges, position j -> vertex id n + j

    @cached_property
    def edge_index(self) -> dict:
        return {e: self.base_vertex_count + j for j, e in enumerate(self.edge_labels)}

    def edge_id(self, a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in self.edge_index:
            raise ValueError(f"no edge {key}")
        return self.edge_index[key]

    def label(self, i: int):
        if 0 <= i < self.base_vertex_count:
            return ("point", i)
        j = i - self.base_vertex_count
        if 0 <= j < len(self.edge_labels):
            return ("edge", self.edge_labels[j])
        raise ValueError(f"no vertex {i}")


def subdivide(g: FiniteGraph) -> SubdivisionGraph:
    labels = tuple(sorted(g.edges))
    n = g.vertex_count
    edges = []
    for j, (a, b) in enumerate(labels):
        edges.append((a, n + j))
        edges.append((b, n + j))
    return SubdivisionGraph(
        graph=FiniteGraph.from_edges(n + len(labels), edges),
        base_vertex_count=n,
        edge_labels=labels,
    )


def _validate_generator(g: FiniteGraph, f: dict) -> None:
    for x in range(g.vertex_count):
        if x not in f:
            raise ValueError(f"f undefined at {x}")
        y = f[x]
        if not (0 <= y < g.vertex_count):
            raise ValueError(f"f({x}) = {y} out of range")
        if y == x:
            raise ValueError(f"f has a fixed point at {x}")
        if f.get(y) == x:
            raise ValueError(f"f.f has a fixed point at {x}")
    generated = {(min(x, f[x]), max(x, f[x])) for x in range(g.vertex_count)}
    if generated != g.edges:
        raise ValueError("f does not generate the graph's edges")


def orientation_to_matching(g: FiniteGraph, f: dict) -> Matching:
    """Perfect matching of subdivide(g) induced by a generating map f."""
    f = dict(f)
    _validate_generator(g, f)
    sub = subdivide(g)
    pairs = [(x, sub.edge_id(x, f[x])) for x in range(g.vertex_count)]
    m = Matching.of(pairs)
    if not m.is_perfect_on(sub.graph):
        raise ValueError("induced matching is not perfect")
    return m


def matching_to_orientation(g: FiniteGraph, m: Matching) -> dict:
    """Generating map recovered from a perfect matching of subdivide(g)."""
    sub = subdivide(g)
    if not m.is_perfect_on(sub.graph):
        raise ValueError("matching is not a perfect matching of the subdivision")
    f = {}
    for x in range(g.vertex_count):
        partner = m.partner(x)
        kind, payload = sub.label(partner)
        if kind != "edge":
            raise ValueError(f"point {x} is matched to another point")
        a, b = payload
        f[x] = b if x == a else a
    _validate_generator(g, f)
    return f
