from __future__ import annotations

import itertools
import random

import pytest

from cdfsat.encoders import (
    GraphParseError,
    encode_hamiltonian_cycle,
    encode_perfect_matching,
    eulerian_path_exists,
    graph,
    hamiltonian_cycle_clause_count,
    parse_graph,
    perfect_matching_clause_count,
)
from cdfsat.logic import dpll_solve
from cdfsat.semantics import formula_image

from _oracles import perfect_matchings


def all_graphs(vertex_count):
    """Every simple graph on the given vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(vertex_count), 2))
    for bits in range(1 << len(pairs)):
        yield tuple(p for i, p in enumerate(pairs) if bits >> i & 1)


class TestGraph:
    def test_edges_normalized(self):
        g = graph(3, [(2, 1), (1, 2), (0, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_degree_and_adjacency(self):
        g = graph(4, [(0, 1), (1, 2), (1, 3)])
        assert g.degree(1) == 3
        assert g.degree(0) == 1
        assert g.adjacent(3, 1)
        assert not g.adjacent(0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            graph(3, [(0, 3)])


class TestParseGraph:
    def test_simple(self):
        g = parse_graph("v 3\n0 1\n1 2\n")
        assert g.vertex_count == 3
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_comments_and_blanks(self):
        g = parse_graph("# triangle\nv 3\n\n0 1\n# middle\n1 2\n2 0\n")
        assert len(g.edges) == 3

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_graph("0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("vertices 3\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("v 3\n0 1 2\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "edge, message",
        [("1 5", "edge (1,5) outside vertex range"), ("1 1", "self-loop at vertex 1")],
        ids=["out-of-range", "self-loop"],
    )
    def test_bad_edge_reports_line(self, edge, message):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"v 2\n0 1\n{edge}\n")
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: {message}"

    def test_fixture_files(self, data_dir):
        k4 = parse_graph((data_dir / "k4.graph").read_text())
        assert k4.vertex_count == 4
        assert len(k4.edges) == 6


class TestPerfectMatching:
    def count_encoded(self, g):
        enc = encode_perfect_matching(g)
        return formula_image(enc.formula).count

    def test_c4_has_two_matchings(self, data_dir):
        g = parse_graph((data_dir / "c4.graph").read_text())
        assert self.count_encoded(g) == 2

    def test_k4_has_three_matchings(self, data_dir):
        g = parse_graph((data_dir / "k4.graph").read_text())
        assert self.count_encoded(g) == 3

    def test_odd_graph_has_none(self, data_dir):
        g = parse_graph((data_dir / "triangle.graph").read_text())
        assert self.count_encoded(g) == 0

    def test_variable_labels_name_edges(self):
        enc = encode_perfect_matching(graph(2, [(0, 1)]))
        assert enc.variable_labels == {1: "edge (0,1)"}
        assert enc.comment_lines() == ["var 1 = edge (0,1)"]

    def test_isolated_vertex_warns_and_blocks(self):
        enc = encode_perfect_matching(graph(3, [(0, 1)]))
        assert enc.warnings
        assert "vertex 2" in enc.warnings[0]
        res, _ = dpll_solve(enc.formula)
        assert not res.satisfiable

    def test_model_decodes_to_matching(self, data_dir):
        g = parse_graph((data_dir / "c4.graph").read_text())
        enc = encode_perfect_matching(g)
        res, _ = dpll_solve(enc.formula)
        chosen = [
            enc.variable_labels[v] for v, val in res.model.items() if val
        ]
        # two disjoint edges covering all four vertices
        assert len(chosen) == 2
        covered = set()
        for label in chosen:
            a, b = label.removeprefix("edge (").removesuffix(")").split(",")
            covered |= {int(a), int(b)}
        assert covered == {0, 1, 2, 3}

    def test_all_four_vertex_graphs_match_oracle(self):
        for edges in all_graphs(4):
            g = graph(4, edges)
            want = len(perfect_matchings(4, edges))
            assert self.count_encoded(g) == want, edges

    def test_sampled_six_vertex_graphs_match_oracle(self):
        rng = random.Random(20240817)
        pairs = list(itertools.combinations(range(6), 2))
        for _ in range(25):
            edges = tuple(
                p for p in pairs if rng.random() < 0.5
            )[:8]  # stated oracle budget: at most 8 edges
            g = graph(6, edges)
            want = len(perfect_matchings(6, edges))
            assert self.count_encoded(g) == want, edges

    def test_clause_count_matches_encoding(self):
        for n in range(6):
            for edges in all_graphs(n):
                g = graph(n, edges)
                got = perfect_matching_clause_count(g)
                assert got == encode_perfect_matching(g).formula.clause_count, edges


class TestHamiltonianCycle:
    def is_sat(self, g):
        res, _ = dpll_solve(encode_hamiltonian_cycle(g).formula)
        return res.satisfiable

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            encode_hamiltonian_cycle(graph(2, [(0, 1)]))

    def test_triangle_and_c4_have_cycles(self, data_dir):
        for name in ("triangle.graph", "c4.graph", "k4.graph"):
            g = parse_graph((data_dir / name).read_text())
            assert self.is_sat(g), name

    def test_path_has_no_cycle(self, data_dir):
        g = parse_graph((data_dir / "path3.graph").read_text())
        assert not self.is_sat(g)

    def test_variable_labels_cover_positions(self):
        enc = encode_hamiltonian_cycle(graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert enc.formula.variable_count == 9
        assert enc.variable_labels[1] == "vertex 0 at position 0"
        assert enc.variable_labels[9] == "vertex 2 at position 2"

    def test_model_decodes_to_cycle(self, data_dir):
        g = parse_graph((data_dir / "c4.graph").read_text())
        enc = encode_hamiltonian_cycle(g)
        res, _ = dpll_solve(enc.formula)
        assert res.satisfiable
        n = g.vertex_count
        slot = {}
        for var, val in res.model.items():
            if val:
                v, p = (var - 1) // n, (var - 1) % n
                assert p not in slot
                slot[p] = v
        order = [slot[p] for p in range(n)]
        assert sorted(order) == list(range(n))
        for i in range(n):
            assert g.adjacent(order[i], order[(i + 1) % n])

    def test_clause_count_matches_encoding(self):
        for n in range(3, 6):
            for edges in all_graphs(n):
                g = graph(n, edges)
                got = hamiltonian_cycle_clause_count(g)
                assert got == encode_hamiltonian_cycle(g).formula.clause_count, edges


class TestEulerianPath:
    def test_cycle_graph(self, data_dir):
        g = parse_graph((data_dir / "c4.graph").read_text())
        r = eulerian_path_exists(g)
        assert r.exists and r.connected and r.odd_count == 0

    def test_path_graph_two_odd(self, data_dir):
        g = parse_graph((data_dir / "path3.graph").read_text())
        r = eulerian_path_exists(g)
        assert r.exists and r.odd_count == 2

    def test_k4_has_four_odd_vertices(self, data_dir):
        g = parse_graph((data_dir / "k4.graph").read_text())
        r = eulerian_path_exists(g)
        assert not r.exists
        assert r.odd_count == 4
        assert r.connected

    def test_disconnected_fails(self):
        g = graph(4, [(0, 1), (2, 3)])
        r = eulerian_path_exists(g)
        assert not r.exists
        assert not r.connected

    def test_isolated_vertices_do_not_disconnect(self):
        g = graph(5, [(0, 1), (1, 2)])
        assert eulerian_path_exists(g).exists

    def test_empty_graph_trivially_exists(self):
        r = eulerian_path_exists(graph(3))
        assert r.exists and r.connected and r.odd_count == 0

    def test_json_shape(self):
        d = eulerian_path_exists(graph(2, [(0, 1)])).to_json_dict()
        assert d == {"exists": True, "oddCount": 2, "connected": True}
