from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.formula import clause, formula, generate_random_ksat, parse_dimacs, satisfies
from cdfsat.logic import (
    HEURISTICS,
    Implication,
    WideClauseError,
    build_implication_graph,
    clause_to_implications,
    dpll_solve,
    implication_graph_to_dot,
    lit_text,
    propagate_closure,
    solve_2sat,
    trace_to_dot,
    unit_propagate,
)

from _oracles import (
    fast_satisfiable,
    is_satisfiable,
    naive_reachable,
    naive_unit_closure,
    rescan_unit_propagate,
)


def random_2cnf(max_n=8, max_m=14):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        m = draw(st.integers(0, max_m))
        seed = draw(st.integers(0, 10**6))
        return generate_random_ksat(n, m, 2, seed=seed)

    return build()


def random_3cnf(max_n=7, max_m=16):
    @st.composite
    def build(draw):
        n = draw(st.integers(3, max_n))
        m = draw(st.integers(0, max_m))
        seed = draw(st.integers(0, 10**6))
        return generate_random_ksat(n, m, 3, seed=seed)

    return build()


def signed_literals(n, min_size, max_size):
    """Literals over distinct variables of 1..n, each with a drawn polarity."""
    variables = st.lists(st.integers(1, n), min_size=min_size, max_size=max_size, unique=True)
    return variables.flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)).map(list)
    )


@st.composite
def mixed_cnf_and_seed(draw):
    """Clauses of widths 1-4 (unit clauses included) and a 0-3 literal seed."""
    n = draw(st.integers(1, 7))
    clause_lists = draw(st.lists(signed_literals(n, 1, min(4, n)), max_size=12))
    seed = draw(signed_literals(n, 0, min(3, n)))
    return formula(clause_lists, n), clause_lists, seed


class TestImplications:
    def test_lit_text(self):
        assert lit_text(3) == "x3"
        assert lit_text(-3) == "~x3"

    def test_two_clause_gives_both_directions(self):
        assert clause_to_implications(clause(-1, 2)) == (
            Implication(1, 2),
            Implication(-2, -1),
        )

    def test_unit_clause_gives_forcing_edge(self):
        assert clause_to_implications(clause(3)) == (Implication(-3, 3),)

    def test_wide_clause_inapplicable(self):
        with pytest.raises(WideClauseError) as exc:
            clause_to_implications(clause(-1, -2, 3))
        assert exc.value.clause == clause(-1, -2, 3)


class TestImplicationGraph:
    def test_chain_edges(self):
        g = build_implication_graph(formula([[-1, 2], [-2, 3]], 3))
        got = {(lit_text(e.antecedent), lit_text(e.consequent)) for e in g.edges}
        assert got == {("x1", "x2"), ("~x2", "~x1"), ("x2", "x3"), ("~x3", "~x2")}

    def test_contrapositive_closure_at_construction(self):
        from cdfsat.logic import ImplicationGraph

        g = ImplicationGraph(2, frozenset({Implication(1, 2)}))
        assert Implication(-2, -1) in g.edges

    def test_successors_sorted(self):
        g = build_implication_graph(formula([[-1, 3], [-1, 2], [-1, -2]], 3))
        assert g.successors(1) == (2, -2, 3)

    def test_literals_enumeration(self):
        g = build_implication_graph(formula([], 2))
        assert g.literals() == [1, -1, 2, -2]

    def test_wide_clause_rejected(self):
        with pytest.raises(WideClauseError):
            build_implication_graph(formula([[1, 2, 3]], 3))

    def test_json_shape(self):
        g = build_implication_graph(formula([[-1, 2]], 2))
        d = g.to_json_dict()
        assert d["variableCount"] == 2
        assert {"from": 1, "to": 2} in d["edges"]
        assert {"from": -2, "to": -1} in d["edges"]


class TestPropagateClosure:
    def test_chain_from_x(self):
        g = build_implication_graph(formula([[-1, 2], [-2, 3]], 3))
        got = propagate_closure(g, {1})
        assert got.forced == {1, 2, 3}
        assert got.conflict is None

    def test_chain_backward_from_not_z(self):
        g = build_implication_graph(formula([[-1, 2], [-2, 3]], 3))
        assert propagate_closure(g, {-3}).forced == {-3, -2, -1}

    def test_empty_seed_empty_closure(self):
        g = build_implication_graph(formula([[1], [-1, 2]], 2))
        got = propagate_closure(g, frozenset())
        assert got.forced == frozenset()
        assert got.steps == ()

    def test_conflict_detected(self):
        # x forces y and ~y
        g = build_implication_graph(formula([[-1, 2], [-1, -2]], 2))
        got = propagate_closure(g, {1})
        assert got.conflict == 2
        assert got.forced == {1, 2, -2, -1}  # closure still completes

    def test_contradictory_seed(self):
        g = build_implication_graph(formula([], 1))
        assert propagate_closure(g, {1, -1}).conflict == 1

    def test_seed_out_of_range(self):
        g = build_implication_graph(formula([], 2))
        with pytest.raises(ValueError):
            propagate_closure(g, {3})

    @settings(max_examples=60, deadline=None)
    @given(random_2cnf(), st.integers(1, 8), st.booleans())
    def test_matches_reachability_oracle(self, f, var, positive):
        if var > f.variable_count:
            return
        seed = var if positive else -var
        g = build_implication_graph(f)
        pairs = [(e.antecedent, e.consequent) for e in g.edges]
        assert propagate_closure(g, {seed}).forced == naive_reachable(pairs, {seed})


class TestUnitPropagate:
    def test_chain_seed_forces_rest(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        got = unit_propagate(f, {1: True})
        assert got.forced - got.seed == {2, 3}
        assert got.conflict is None

    def test_wide_clause_seed_two_true(self):
        f = formula([[-1, -2, 3]], 3)
        got = unit_propagate(f, {1: True, 2: True})
        assert got.forced - got.seed == {3}

    def test_wide_clause_seed_one_true_forces_nothing(self):
        f = formula([[-1, -2, 3]], 3)
        got = unit_propagate(f, {1: True})
        assert got.forced - got.seed == set()

    def test_original_unit_fires_unconditionally(self):
        got = unit_propagate(formula([[1], [-1, 2]], 2), {})
        assert got.forced == {1, 2}
        assert [s.rule for s in got.steps] == ["unit", "unit"]
        assert got.steps[0].source == 1  # self-evident

    def test_conflict_stops_growth(self):
        f = formula([[-1, 2], [-2, 3], [-3], [4, 5]], 5)
        got = unit_propagate(f, {1: True})
        assert got.conflict == 3
        assert got.forced == {1, 2, 3}

    def test_assignment_out_of_range(self):
        with pytest.raises(ValueError):
            unit_propagate(formula([], 2), {3: True})

    @settings(max_examples=80, deadline=None)
    @given(random_2cnf(), st.integers(0, 8))
    def test_matches_naive_fixpoint(self, f, pick):
        v = pick % f.variable_count + 1
        seeds = [set(), {v}, {-v}]
        lists = [cl.literals for cl in f.clauses]
        for seed in seeds:
            got = unit_propagate(f, {abs(l): l > 0 for l in seed})
            want_forced, want_conflict = naive_unit_closure(lists, seed)
            assert (got.conflict is not None) == want_conflict
            if not want_conflict:
                assert got.forced == want_forced

    @settings(max_examples=300, deadline=None)
    @given(mixed_cnf_and_seed())
    def test_matches_rescan_oracle(self, case):
        f, clause_lists, seed = case
        got = unit_propagate(f, {abs(l): l > 0 for l in seed})
        want_forced, want_steps, want_conflict = rescan_unit_propagate(clause_lists, seed)
        assert got.seed == frozenset(seed)
        assert got.forced == want_forced
        assert [(s.source, s.literal) for s in got.steps] == want_steps
        assert got.conflict == want_conflict

    def test_conflict_keeps_rescan_forced_set(self):
        # the forced set at a conflict depends on visit order: with the
        # clashing clause first, pass one still forces x4 and pass two finds
        # the clash; with it third, the clash ends pass one before x4
        f = formula([[-2, -3], [-1, 2], [-1, 3], [-1, 4]], 4)
        got = unit_propagate(f, {1: True})
        assert got.conflict == 3
        assert got.forced == {1, 2, 3, 4}
        f = formula([[-1, 2], [-1, 3], [-2, -3], [-1, 4]], 4)
        got = unit_propagate(f, {1: True})
        assert got.conflict == 3
        assert got.forced == {1, 2, 3}

    def test_json_shape(self):
        got = unit_propagate(formula([[1]], 1), {})
        d = got.to_json_dict()
        assert d == {
            "seed": [],
            "forced": [1],
            "steps": [{"from": 1, "rule": "unit", "to": 1}],
            "conflict": None,
        }


class TestSolve2Sat:
    def test_chain_sat_with_verified_model(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        res = solve_2sat(f)
        assert res.satisfiable
        assert satisfies(f, res.model)

    def test_forced_chain(self):
        # unit x plus chain forces everything true
        f = formula([[1], [-1, 2], [-2, 3]], 3)
        res = solve_2sat(f)
        assert res.model == {1: True, 2: True, 3: True}

    def test_unsat_with_witness(self, data_dir):
        f = parse_dimacs((data_dir / "unsat_pair.cnf").read_text())
        res = solve_2sat(f)
        assert not res.satisfiable
        assert res.model is None
        assert res.witness_variable == 1

    def test_wide_clause_rejected(self):
        with pytest.raises(WideClauseError):
            solve_2sat(formula([[1, 2, 3]], 3))

    def test_no_clauses(self):
        res = solve_2sat(formula([], 3))
        assert res.satisfiable
        assert set(res.model) == {1, 2, 3}

    @settings(max_examples=120, deadline=None)
    @given(random_2cnf(max_n=10, max_m=20))
    def test_matches_brute_force(self, f):
        lists = [cl.literals for cl in f.clauses]
        res = solve_2sat(f)
        assert res.satisfiable == is_satisfiable(lists, f.variable_count)
        if res.satisfiable:
            assert satisfies(f, res.model)

    def test_json_model_as_sorted_literals(self):
        res = solve_2sat(formula([[1], [-1, 2]], 2))
        assert res.to_json_dict() == {
            "result": "SAT",
            "model": [1, 2],
            "witnessVariable": None,
        }


class TestDpll:
    def test_chain_is_backtrack_free(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        res, tr = dpll_solve(f)
        assert res.satisfiable
        assert tr.backtrack_count == 0
        assert tr.branch_count == 0
        assert tr.conflict_count() == 0
        # linear chain: decision on x, then propagation of y and z
        assert tr.parents == [-1, 0, 1, 2]
        assert tr.kinds == ["root", "decision", "propagation", "propagation"]
        assert tr.leaves[-1] == "SAT"

    def test_wide_example_single_refutation_leaf(self):
        f = formula([[-1, -2, 3]], 3)
        res, tr = dpll_solve(f)
        assert res.satisfiable
        assert tr.conflict_count() == 1
        assert tr.branch_count == 1
        assert tr.backtrack_count == 1
        # the only UNSAT leaf sits at x=T, y=T, z=F
        x, y, refutation, forced = 1, 2, 3, 4
        assert tr.parents == [-1, 0, x, y, y]
        assert (tr.variables[x], tr.values[x], tr.kinds[x]) == (1, True, "decision")
        assert (tr.variables[y], tr.values[y], tr.kinds[y]) == (2, True, "decision")
        assert (tr.variables[refutation], tr.values[refutation]) == (3, False)
        assert tr.kinds[refutation] == "refutation"
        assert tr.leaves[refutation] == "UNSAT"
        assert (tr.variables[forced], tr.values[forced], tr.leaves[forced]) == (3, True, "SAT")

    def test_unit_contradiction(self):
        res, tr = dpll_solve(formula([[1], [-1]], 1))
        assert not res.satisfiable
        assert tr.conflict_count() == 1
        assert tr.backtrack_count == 0
        assert tr.branch_count == 0

    def test_two_variable_unsat(self, data_dir):
        f = parse_dimacs((data_dir / "unsat_pair.cnf").read_text())
        res, tr = dpll_solve(f)
        assert not res.satisfiable
        assert tr.conflict_count() == 2  # both x branches die
        assert tr.backtrack_count == 1
        assert tr.branch_count == 1

    def test_free_variables_reported(self):
        f = formula([[1, 2]], 4)
        res, tr = dpll_solve(f)
        assert res.satisfiable
        assert set(res.model) | set(tr.free_variables) == {1, 2, 3, 4}
        assert satisfies(f, res.model)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            dpll_solve(formula([[1]], 1), heuristic="bogus")

    def test_most_occurrences_picks_busiest_variable(self):
        # x3 occurs in three clauses, x1 in one
        f = formula([[1, 3], [2, 3], [-3, 2], [4, 2]], 4)
        _, tr = dpll_solve(f, heuristic="most-occurrences")
        first = tr.parents.index(0)  # the root's first child
        assert tr.kinds[first] == "decision"
        assert tr.variables[first] in (2, 3)  # both occur three times; tie -> lowest
        assert tr.variables[first] == 2

    @settings(max_examples=100, deadline=None)
    @given(random_3cnf(), st.sampled_from(HEURISTICS))
    def test_matches_brute_force(self, f, heuristic):
        lists = [cl.literals for cl in f.clauses]
        res, tr = dpll_solve(f, heuristic=heuristic)
        assert res.satisfiable == fast_satisfiable(lists, f.variable_count)
        if res.satisfiable:
            assert satisfies(f, res.model)
        assert tr.branch_count >= tr.backtrack_count
        if res.satisfiable:
            assert tr.backtrack_count == tr.conflict_count()
        else:
            assert tr.backtrack_count == max(0, tr.conflict_count() - 1)

    @settings(max_examples=100, deadline=None)
    @given(random_3cnf(), st.sampled_from(HEURISTICS))
    def test_flat_trace_is_a_preorder_tree(self, f, heuristic):
        res, tr = dpll_solve(f, heuristic=heuristic)
        n = tr.node_count()
        assert tr.parents[0] == -1 and tr.kinds[0] == "root"
        assert all(tr.parents[i] < i for i in range(1, n))
        # preorder: each node hangs off the path from the root to its predecessor
        path_nodes = [0]
        for i in range(1, n):
            while path_nodes and path_nodes[-1] != tr.parents[i]:
                path_nodes.pop()
            assert path_nodes, f"node {i} breaks depth-first preorder"
            path_nodes.append(i)
        assert len(tr.kinds) == len(tr.variables) == len(tr.values) == len(tr.leaves) == n
        sat_leaves = [i for i, leaf in enumerate(tr.leaves) if leaf == "SAT"]
        assert len(sat_leaves) == (1 if res.satisfiable else 0)
        if res.satisfiable:
            path: dict[int, bool] = {}
            node = sat_leaves[0]
            while node > 0:
                path[tr.variables[node]] = tr.values[node]
                node = tr.parents[node]
            assert path == res.model
            assert satisfies(f, path)
        dot = trace_to_dot(tr)
        assert dot.count(" [label=") == n
        assert dot.count(" -> ") == n - 1

    def test_deep_chain_has_flat_trace(self):
        # a propagation chain as deep as the formula: counting, measuring
        # and rendering the trace must not recurse once per node
        n = 3000
        f = formula([[1]] + [[-i, i + 1] for i in range(1, n)], n)
        res, tr = dpll_solve(f)
        assert res.satisfiable
        assert tr.node_count() == n + 1
        assert tr.depth() == n
        assert tr.to_json_dict()["depth"] == n
        dot = trace_to_dot(tr)
        assert f'  n{n} [label="x{n}=true (SAT)"];' in dot
        assert f"  n{n - 1} -> n{n};" in dot

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_deep_pairs_search_is_iterative(self, heuristic):
        # 1500 decisions deep: the search itself must not recurse per decision
        n = 3000
        f = formula([[-i, -(i + 1)] for i in range(1, n, 2)], n)
        res, tr = dpll_solve(f, heuristic=heuristic)
        assert res.satisfiable and satisfies(f, res.model)
        assert tr.depth() == n
        assert tr.node_count() == n + 1
        assert tr.kinds.count("decision") == n // 2
        assert tr.branch_count == tr.backtrack_count == 0

    @settings(max_examples=60, deadline=None)
    @given(random_2cnf(max_n=9, max_m=18))
    def test_agrees_with_2sat_solver(self, f):
        res, _ = dpll_solve(f)
        assert res.satisfiable == solve_2sat(f).satisfiable

    def test_trace_counters_in_json(self):
        _, tr = dpll_solve(formula([[-1, -2, 3]], 3))
        d = tr.to_json_dict()
        assert d["result"] == "SAT"
        assert d["branchCount"] == 1
        assert d["backtrackCount"] == 1
        assert d["nodeCount"] == tr.node_count()
        assert "root" not in d  # the tree itself stays out of the JSON


class TestDotExport:
    def test_implication_graph_dot(self):
        g = build_implication_graph(formula([[-1, 2]], 2))
        dot = implication_graph_to_dot(g)
        assert dot.startswith("digraph implication_graph {")
        assert '"x1" -> "x2";' in dot
        assert '"~x2" -> "~x1";' in dot
        assert dot == implication_graph_to_dot(g)

    def test_trace_dot_marks_decisions_and_conflicts(self):
        _, tr = dpll_solve(formula([[-1, -2, 3]], 3))
        dot = trace_to_dot(tr)
        assert 'label="Start"' in dot
        assert 'label="x1=true", shape=doublecircle' in dot
        assert 'x3=false (UNSAT)' in dot
        assert "style=filled" in dot
        assert dot == trace_to_dot(tr)
