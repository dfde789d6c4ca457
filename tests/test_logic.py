from __future__ import annotations

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdfsat import logic
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
    read_trace_dot,
    reference_2sat,
    reference_dpll,
    reference_trace_dot,
)


def random_2cnf(max_n=8, max_m=14):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        m = draw(st.integers(0, max_m))
        seed = draw(st.integers(0, 10**6))
        return generate_random_ksat(n, m, 2, seed=seed)

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


@st.composite
def random_2cnf_and_seeds(draw):
    """A random 2-CNF, its clause lists, and the seeds {}, {v} and {-v} of
    a drawn variable v."""
    f = draw(random_2cnf())
    v = draw(st.integers(1, f.variable_count))
    return f, [cl.literals for cl in f.clauses], [[], [v], [-v]]


@st.composite
def narrow_cnf(draw):
    """Clauses of widths 1-2 over at most 12 variables, up to 3n of them:
    unit clauses and a density past the 2-SAT threshold make UNSAT common."""
    n = draw(st.integers(1, 12))
    clause_lists = draw(st.lists(signed_literals(n, 1, min(2, n)), max_size=3 * n))
    return formula(clause_lists, n), clause_lists


@st.composite
def mixed_cnf(draw):
    """Clauses of widths 1-4 over at most 12 variables, with their lists."""
    n = draw(st.integers(1, 12))
    clause_lists = draw(st.lists(signed_literals(n, 1, min(4, n)), max_size=40))
    return formula(clause_lists, n), clause_lists


def _core_clauses(draw, variables, path=()):
    """The negated paths of a random complete decision tree over
    ``variables``: an UNSAT clause set, one clause per leaf, of widths 1 up
    to the tree's depth."""
    remaining = [v for v in variables if all(abs(lit) != v for lit in path)]
    if path and (not remaining or draw(st.booleans())):
        return [[-lit for lit in path]]
    v = draw(st.sampled_from(remaining))
    return _core_clauses(draw, variables, path + (v,)) + _core_clauses(draw, variables, path + (-v,))


@st.composite
def free_clauses_then_core(draw):
    """A few free clauses on the lowest indices, then a small UNSAT core.

    The free clauses have widths 1-4 over variables 1..k, and the core is
    the negated paths of a decision tree over up to four more variables.
    DPLL decides free variables before (lowest-index) or between
    (most-occurrences) the core's, so it refutes the core under one
    setting of them after another, unless it stops at an autarky.
    """
    k = draw(st.integers(2, 6))
    free = draw(st.lists(signed_literals(k, 1, min(4, k)), min_size=1, max_size=5))
    core_size = draw(st.integers(1, 4))
    core = _core_clauses(draw, tuple(range(k + 1, k + core_size + 1)))
    clause_lists = free + core
    return formula(clause_lists, k + core_size), clause_lists


def assert_matches_reference_search(f, clause_lists, heuristic):
    """The search against ``reference_dpll`` and its verdict against brute
    force: the result and every counter of both records, and the DOT text
    of a "dot" search against the reference tree's rendering, under
    ``DOT_CHUNK`` values of one line, two lines (which make small searches
    flush as well) and the default.  The default-chunk "dot" tree is also
    checked on its own: a depth-first preorder from one root, with one SAT
    leaf exactly when the search is SAT, whose path from the root is the
    model."""
    ref = reference_dpll(clause_lists, f.variable_count, heuristic)
    assert ref["satisfiable"] == fast_satisfiable(clause_lists, f.variable_count)
    # the stored depth is the longest root-to-leaf path of the reference tree
    parents = ref["parents"]
    depths = [0] * len(parents)
    for i in range(1, len(parents)):
        depths[i] = depths[parents[i]] + 1
    lists = (ref[key] for key in ("parents", "kinds", "variables", "values", "leaves"))
    dot = reference_trace_dot(*lists)
    runs = [("counts", logic.DOT_CHUNK)] + [("dot", chunk) for chunk in (1, 2, logic.DOT_CHUNK)]
    for record, chunk in runs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logic, "DOT_CHUNK", chunk)
            res, tr = dpll_solve(f, heuristic=heuristic, record=record)
            assert res.satisfiable == ref["satisfiable"]
            assert res.model == ref["model"]
            assert tr.node_count() == len(parents)
            assert tr.decision_count == ref["kinds"].count("decision")
            assert tr.branch_count == ref["branch_count"]
            assert tr.backtrack_count == ref["backtrack_count"]
            assert tr.branch_count >= tr.backtrack_count
            assert tr.free_variables == ref["free_variables"]
            assert tr.depth() == max(depths)
            if record == "dot":
                assert trace_to_dot(tr) == dot
            else:
                assert tr.parents is None and tr.dot_nodes is None
                with pytest.raises(ValueError, match='record="dot"'):
                    trace_to_dot(tr)
    # the last run is the default-chunk "dot" search: its tree, read back
    # from the DOT text, on its own
    drawn = read_trace_dot(trace_to_dot(tr))
    tree = tr.parents
    assert tree[0] == -1 and drawn["variables"][0] is None
    # preorder: each node hangs off the path from the root to its predecessor
    path_nodes = [0]
    for i in range(1, len(tree)):
        while path_nodes and path_nodes[-1] != tree[i]:
            path_nodes.pop()
        assert path_nodes, f"node {i} breaks depth-first preorder"
        path_nodes.append(i)
    sat_leaves = [i for i, leaf in enumerate(drawn["leaves"]) if leaf == "SAT"]
    assert len(sat_leaves) == res.satisfiable
    if res.satisfiable:
        path: dict[int, bool] = {}
        node = sat_leaves[0]
        while node > 0:
            path[drawn["variables"][node]] = drawn["values"][node]
            node = tree[node]
        assert path == res.model
        assert satisfies(f, path)


def assert_each_decision_tried_at_most_twice(f):
    """The search of a 2-CNF ``f``, under both heuristics, takes at most n
    branches and 2n decisions: every conflict-free level of it is
    autarkic, so a decision that fails both ways ends the search (Even,
    Itai & Shamir 1976)."""
    n = f.variable_count
    for heuristic in HEURISTICS:
        _, tr = dpll_solve(f, heuristic=heuristic)
        assert tr.branch_count <= n
        assert tr.decision_count <= 2 * n


def drawn_search(f, heuristic="lowest-index"):
    """A "dot" search of ``f``, with its tree's lists read from the DOT text."""
    res, tr = dpll_solve(f, heuristic=heuristic, record="dot")
    return res, tr, read_trace_dot(trace_to_dot(tr))


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
        got = {(lit_text(u), lit_text(v)) for u in g.literals() for v in g.successors(u)}
        assert got == {("x1", "x2"), ("~x2", "~x1"), ("x2", "x3"), ("~x3", "~x2")}

    def test_successors_sorted(self):
        g = build_implication_graph(formula([[-1, 3], [-1, 2], [-1, -2]], 3))
        assert g.successors(1) == (2, -2, 3)

    def test_literals_enumeration(self):
        g = build_implication_graph(formula([], 2))
        assert g.literals() == [1, -1, 2, -2]

    def test_wide_clause_rejected(self):
        with pytest.raises(WideClauseError):
            build_implication_graph(formula([[1, 2, 3]], 3))

    def test_successors_outside_range_empty(self):
        # x2 => x1 is stored at the index that -3 would wrap around to
        g = build_implication_graph(formula([[-2, 1]], 2))
        assert g.successors(2) == (1,)
        assert g.successors(-3) == ()
        assert g.successors(3) == ()
        assert g.successors(0) == ()

    @settings(max_examples=150, deadline=None)
    @given(narrow_cnf())
    def test_edges_are_the_clause_implications(self, case):
        # the built graph is the clause implications, closed under contraposition
        f, _ = case
        edges = set()
        for cl in f.clauses:
            for e in clause_to_implications(cl):
                edges.add((e.antecedent, e.consequent))
                edges.add((-e.consequent, -e.antecedent))
        g = build_implication_graph(f)
        assert {(u, v) for u in g.literals() for v in g.successors(u)} == edges


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
        assert got.conflict is None

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
        pairs = [
            (e.antecedent, e.consequent) for cl in f.clauses for e in clause_to_implications(cl)
        ]
        g = build_implication_graph(f)
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
        assert got.conflict is None

    def test_conflict_stops_growth(self):
        f = formula([[-1, 2], [-2, 3], [-3], [4, 5]], 5)
        got = unit_propagate(f, {1: True})
        assert got.conflict == 3
        assert got.forced == {1, 2, 3}

    def test_assignment_out_of_range(self):
        with pytest.raises(ValueError):
            unit_propagate(formula([], 2), {3: True})

    def test_variable_mapped_to_none_is_free(self):
        # as in satisfies: None is no value, so x1 is not read as false
        f = formula([[1, 2]], 2)
        assert unit_propagate(f, {1: None}) == unit_propagate(f, {})

    # one_of splits the draws about evenly, so each strategy keeps at least
    # the examples it had as a test of its own (80 and 300)
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        random_2cnf_and_seeds(),
        mixed_cnf_and_seed().map(lambda case: (case[0], case[1], [case[2]])),
    ))
    def test_matches_rescan_oracle(self, case):
        f, clause_lists, seeds = case
        for seed in seeds:
            got = unit_propagate(f, {abs(l): l > 0 for l in seed})
            want_forced, want_conflict = naive_unit_closure(clause_lists, seed)
            assert got.seed == frozenset(seed)
            assert got.forced == want_forced
            assert got.conflict == want_conflict

    def test_conflict_is_the_literal_falsified_last(self):
        # x1 forces x2 and then x3, so the clash clause (~x3 | ~x2) has x3
        # false last, although its last literal is on x2
        got = unit_propagate(formula([[-1, 2], [-1, 3], [-3, -2]], 3), {1: True})
        assert got.conflict == 3
        assert got.forced == {1, 2, 3}

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

    @settings(max_examples=300, deadline=None)
    @given(narrow_cnf())
    def test_matches_reference_components(self, case):
        f, clause_lists = case
        res = solve_2sat(f)
        ref = reference_2sat(clause_lists, f.variable_count)
        assert res.satisfiable == ref["satisfiable"]
        assert res.model == ref["model"]
        assert res.witness_variable == ref["witness"]

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
        res, tr, drawn = drawn_search(f)
        assert res.satisfiable
        assert tr.backtrack_count == 0
        assert tr.branch_count == 0
        assert drawn["leaves"].count("UNSAT") == 0
        # linear chain: decision on x, then propagation of y and z
        assert drawn["parents"] == [-1, 0, 1, 2]
        assert drawn["decisions"] == [False, True, False, False]
        assert drawn["leaves"][-1] == "SAT"

    def test_wide_example_single_refutation_leaf(self):
        f = formula([[-1, -2, 3]], 3)
        res, tr, drawn = drawn_search(f)
        assert res.satisfiable
        assert drawn["leaves"].count("UNSAT") == 1
        assert tr.branch_count == 1
        assert tr.backtrack_count == 1
        # the only UNSAT leaf sits at x=T, y=T, z=F
        x, y, refutation, forced = 1, 2, 3, 4
        assert drawn["parents"] == [-1, 0, x, y, y]
        node = [(drawn["variables"][i], drawn["values"][i], drawn["decisions"][i],
                 drawn["leaves"][i]) for i in range(tr.node_count())]
        assert node[x] == (1, True, True, None)
        assert node[y] == (2, True, True, None)
        # the refutation is a non-decision x3=false (UNSAT) leaf under y, and
        # its sibling the forced x3=true (SAT)
        assert node[refutation] == (3, False, False, "UNSAT")
        assert node[forced] == (3, True, False, "SAT")

    def test_unit_contradiction(self):
        res, tr, drawn = drawn_search(formula([[1], [-1]], 1))
        assert not res.satisfiable
        assert drawn["leaves"].count("UNSAT") == 1
        assert tr.backtrack_count == 0
        assert tr.branch_count == 0

    def test_two_variable_unsat(self, data_dir):
        f = parse_dimacs((data_dir / "unsat_pair.cnf").read_text())
        res, tr, drawn = drawn_search(f)
        assert not res.satisfiable
        assert drawn["leaves"].count("UNSAT") == 2  # both x branches die
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
        _, _, drawn = drawn_search(f, heuristic="most-occurrences")
        first = drawn["parents"].index(0)  # the root's first child
        assert drawn["decisions"][first]
        assert drawn["variables"][first] in (2, 3)  # both occur three times; tie -> lowest
        assert drawn["variables"][first] == 2

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
        dot = trace_to_dot(dpll_solve(f, record="dot")[1])
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
        assert tr.decision_count == n // 2
        assert tr.branch_count == tr.backtrack_count == 0

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_wide_clause_pick_within_budget(self, heuristic):
        # after x1 = true satisfies the one 8000-literal clause, the pick
        # finds no candidate among the other 7999 variables; checking the
        # clause once per variable instead of once per pick took seconds
        f = formula([list(range(8000, 0, -1))], 8000)
        start = time.perf_counter()
        res, tr = dpll_solve(f, heuristic=heuristic)
        assert time.perf_counter() - start < 0.5
        assert res.satisfiable
        assert tr.node_count() == 2

    def test_random_unsat_2sat_within_budget(self):
        # 15 s and 9.0M trace nodes with chronological backtracking alone
        f = generate_random_ksat(200, 200, 2, 43)
        start = time.perf_counter()
        res, _ = dpll_solve(f)
        assert time.perf_counter() - start < 1.0
        assert not res.satisfiable

    @settings(max_examples=300, deadline=None)
    @given(narrow_cnf())
    def test_2cnf_search_is_bounded_by_the_variables(self, case):
        assert_each_decision_tried_at_most_twice(case[0])

    @pytest.mark.parametrize("n, seed", [(n, s) for n in (200, 1000) for s in range(5)]
                             + [(200, 43), (200, 48)])
    def test_random_2sat_search_is_bounded_by_the_variables(self, n, seed):
        # at the threshold m = n; seeds 43 and 48 are UNSAT, refuted below
        # an autarky
        assert_each_decision_tried_at_most_twice(generate_random_ksat(n, n, 2, seed))

    def test_trace_counters_in_json(self):
        _, tr = dpll_solve(formula([[-1, -2, 3]], 3))
        d = tr.to_json_dict()
        assert d["result"] == "SAT"
        assert d["branchCount"] == 1
        assert d["backtrackCount"] == 1
        assert d["nodeCount"] == tr.node_count()
        assert "root" not in d  # the tree itself stays out of the JSON


def _case(clause_lists, n):
    return formula(clause_lists, n), clause_lists


class TestRecords:
    """The record modes run one search and differ only in what they keep."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(mixed_cnf(), free_clauses_then_core()), st.sampled_from(HEURISTICS))
    @example(_case([[1], [-1]], 1), "lowest-index")  # a conflict at the root node
    @example(_case([[1], [-1, 2], [-1, -2, 3]], 3), "lowest-index")  # settled at the root
    @example(_case([[1], [2], [-1, -2, 3], [-3]], 3), "most-occurrences")  # refuted there
    @example(_case([], 2), "lowest-index")  # SAT at the root node
    # a unit clause falsified by an earlier unit's propagation before its turn
    @example(_case([[-2], [1], [2]], 2), "lowest-index")
    # a width-5 clause forced through its last literal, after four decisions
    @example(_case([[-1, -2, -3, -4, 5]], 5), "lowest-index")
    # a duplicated width-3 clause: the copy is satisfied by its twin's forcing
    @example(_case([[-1, -2, 3], [-1, -2, 3]], 3), "most-occurrences")
    def test_every_record_gives_the_reference_search(self, case, heuristic):
        assert_matches_reference_search(*case, heuristic)

    def test_unknown_record_rejected(self):
        f = formula([[1]], 1)
        for record in ("lines", "tree"):
            expected = re.escape(f"unknown record {record!r}, expected one of ('dot', 'counts')")
            with pytest.raises(ValueError, match=expected):
                dpll_solve(f, record=record)
        _, default = dpll_solve(f)
        assert default.parents is None and default.dot_nodes is None


class TestDotExport:
    def test_implication_graph_dot(self):
        g = build_implication_graph(formula([[-1, 2]], 2))
        dot = implication_graph_to_dot(g)
        assert dot.startswith("digraph implication_graph {")
        assert '"x1" -> "x2";' in dot
        assert '"~x2" -> "~x1";' in dot
        assert dot == implication_graph_to_dot(g)

    def test_trace_dot_marks_decisions_and_conflicts(self):
        _, tr = dpll_solve(formula([[-1, -2, 3]], 3), record="dot")
        dot = trace_to_dot(tr)
        assert 'label="Start"' in dot
        assert 'label="x1=true", shape=doublecircle' in dot
        assert 'x3=false (UNSAT)' in dot
        assert "style=filled" in dot
        assert dot == trace_to_dot(tr)

    def test_trace_dot_parses_back_to_the_trace(self):
        # the records test compares every drawn search's DOT text with
        # reference_trace_dot byte for byte; this checks the reader itself
        clause_lists = [[-1, -2, 3]]
        ref = reference_dpll(clause_lists, 3, "lowest-index")
        _, tr, drawn = drawn_search(formula(clause_lists, 3))
        assert drawn == {
            "parents": ref["parents"],
            "decisions": [kind == "decision" for kind in ref["kinds"]],
            "variables": ref["variables"],
            "values": ref["values"],
            "leaves": ref["leaves"],
        }
        assert drawn["parents"] == list(tr.parents)
        text = trace_to_dot(tr)
        for broken in (text.replace("  n0 ", "  n00 ", 1), text[:-2],
                       text.replace('"Start', '"x1=true', 1)):
            with pytest.raises(ValueError):
                read_trace_dot(broken)
