"""Graph problems as CNF, plus the one that never needs a formula.

Perfect matching and Hamiltonian cycle reduce to CNF with a documented
variable mapping, so the rest of the package can analyze the encodings like
any other formula.  Eulerian path deliberately does not: the degree-parity
argument decides it outright, and the encoder returns that decision record
instead of manufacturing a formula for a problem that needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .formula import CnfFormula


class GraphParseError(ValueError):
    """Malformed edge-list input.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_edge(a: int, b: int, vertex_count: int) -> None:
    """ValueError unless (a, b) joins two distinct vertices of 0..vertex_count-1."""
    if a == b:
        raise ValueError(f"self-loop at vertex {a}")
    if not (0 <= a < vertex_count and 0 <= b < vertex_count):
        raise ValueError(f"edge ({a},{b}) outside vertex range")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    # vertex -> its incident edges in sorted order; isolated vertices are absent
    _incident: dict[int, list[tuple[int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        normalized: set[tuple[int, int]] = set()
        for a, b in self.edges:
            _check_edge(a, b, self.vertex_count)
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "_incident", {})
        for e in sorted(normalized):
            for v in e:
                self._incident.setdefault(v, []).append(e)

    def incident_edges(self, v: int) -> list[tuple[int, int]]:
        return self._incident.get(v, [])

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def graph(vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    return Graph(vertex_count, frozenset(tuple(e) for e in edges))


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: a ``v <count>`` header, then one ``a b`` pair
    per line, vertices 0-based.  Blank lines and ``#`` comments are skipped.
    """
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 2 or parts[0] != "v":
                raise GraphParseError("expected header 'v <count>'", lineno)
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise GraphParseError(f"bad vertex count {parts[1]!r}", lineno) from None
            if vertex_count < 0:
                raise GraphParseError("vertex count must be >= 0", lineno)
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'a b' edge pair, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"bad edge pair {line!r}", lineno) from None
        try:
            _check_edge(a, b, vertex_count)
        except ValueError as exc:
            raise GraphParseError(str(exc), lineno) from None
        edges.append((a, b))
    if vertex_count is None:
        raise GraphParseError("missing 'v <count>' header")
    return graph(vertex_count, edges)


@dataclass(frozen=True)
class Encoding:
    """A CNF encoding plus the meaning of its variables.

    variable_labels maps every CNF variable to what it asserts about the
    graph; warnings carry structural notes (an isolated vertex, say) that
    make the formula trivially unsatisfiable without making it malformed.
    """

    formula: CnfFormula
    variable_labels: dict[int, str]
    warnings: tuple[str, ...] = ()

    def comment_lines(self) -> list[str]:
        lines = [f"var {v} = {self.variable_labels[v]}" for v in sorted(self.variable_labels)]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return lines


def encode_perfect_matching(g: Graph) -> Encoding:
    """One variable per edge; each vertex covered exactly once.

    Per vertex: an at-least-one clause over its incident edge variables
    (width = degree) and pairwise at-most-one clauses.  Models correspond
    exactly to perfect matchings.  An isolated vertex has no incident edge
    to cover it; it contributes a fresh marker variable asserted both ways,
    keeping the formula well-formed and honestly unsatisfiable, and is
    reported in warnings.
    """
    edge_list = g.sorted_edges()
    edge_var = {e: i + 1 for i, e in enumerate(edge_list)}
    labels = {var: f"edge ({a},{b})" for (a, b), var in edge_var.items()}
    clauses: list[tuple[int, ...]] = []
    warnings: list[str] = []
    next_var = len(edge_list)
    for v in range(g.vertex_count):
        incident = [edge_var[e] for e in g.incident_edges(v)]
        if not incident:
            next_var += 1
            labels[next_var] = f"isolated vertex {v} marker (forced contradiction)"
            clauses.append((next_var,))
            clauses.append((-next_var,))
            warnings.append(f"vertex {v} is isolated; no perfect matching exists")
            continue
        clauses.append(tuple(incident))
        clauses.extend((-a, -b) for a, b in combinations(incident, 2))
    return Encoding(CnfFormula(tuple(clauses), next_var), labels, tuple(warnings))


def perfect_matching_clause_count(g: Graph) -> int:
    """Clauses ``encode_perfect_matching(g)`` emits, without building them:
    per vertex of degree d, 1 + d(d-1)/2, or 2 for an isolated vertex."""
    degrees = [g.degree(v) for v in range(g.vertex_count)]
    return sum(1 + d * (d - 1) // 2 if d else 2 for d in degrees)


def encode_hamiltonian_cycle(g: Graph) -> Encoding:
    """Position encoding: variable x[v][p] says vertex v sits at cycle slot p.

    Clauses: every slot holds some vertex, no slot holds two, every vertex
    gets some slot, no vertex gets two, and vertices in cyclically
    consecutive slots must be adjacent (stated contrapositively for each
    ordered non-adjacent pair).  Needs at least 3 vertices; a cycle on
    fewer is not defined in a simple graph.
    """
    n = g.vertex_count
    if n < 3:
        raise ValueError("hamiltonian cycle encoding needs at least 3 vertices")

    def var(v: int, p: int) -> int:
        return v * n + p + 1

    labels = {
        var(v, p): f"vertex {v} at position {p}" for v in range(n) for p in range(n)
    }
    clauses: list[tuple[int, ...]] = []
    for p in range(n):
        clauses.append(tuple(var(v, p) for v in range(n)))
        clauses.extend((-var(u, p), -var(w, p)) for u, w in combinations(range(n), 2))
    for v in range(n):
        clauses.append(tuple(var(v, p) for p in range(n)))
        clauses.extend((-var(v, p), -var(v, q)) for p, q in combinations(range(n), 2))
    for u in range(n):
        for w in range(n):
            if u == w or g.adjacent(u, w):
                continue
            for p in range(n):
                clauses.append((-var(u, p), -var(w, (p + 1) % n)))
    return Encoding(CnfFormula(tuple(clauses), n * n), labels)


def hamiltonian_cycle_clause_count(g: Graph) -> int:
    """Clauses ``encode_hamiltonian_cycle(g)`` emits, without building them:
    1 + n(n-1)/2 per slot and per vertex, and n per ordered non-adjacent
    pair of distinct vertices."""
    n = g.vertex_count
    return 2 * n * (1 + n * (n - 1) // 2) + n * (n * (n - 1) - 2 * len(g.edges))


@dataclass(frozen=True)
class EulerianResult:
    exists: bool
    odd_count: int
    connected: bool

    def to_json_dict(self) -> dict:
        return {
            "exists": self.exists,
            "oddCount": self.odd_count,
            "connected": self.connected,
        }


def eulerian_path_exists(g: Graph) -> EulerianResult:
    """Degree-parity decision: a trail using every edge once exists iff the
    non-isolated part of the graph is connected and the number of
    odd-degree vertices is 0 or 2.  The empty edge set counts as the empty
    trail.
    """
    active = [v for v in range(g.vertex_count) if g.degree(v)]
    odd = sum(1 for v in active if g.degree(v) % 2)
    if not active:
        return EulerianResult(True, 0, True)
    seen = {active[0]}
    frontier = [active[0]]
    while frontier:
        u = frontier.pop()
        for a, b in g.incident_edges(u):
            other = b if u == a else a
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    connected = len(seen) == len(active)
    return EulerianResult(connected and odd in (0, 2), odd, connected)
