"""Acceptance gate: one test per shipped guarantee, with explicit budgets.

Every test here re-derives its expected values through the independent
brute-force oracles in _oracles (or through replay of emitted witnesses),
never through the code path under test, and asserts its wall-clock budget
so a performance regression fails loudly rather than silently.  Run with
``pytest -v`` to get one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

from _oracles import (
    fast_count_models,
    fast_satisfiable,
    has_eulerian_path,
    has_hamiltonian_cycle,
    model_masks,
    partial_formula_satisfied,
    perfect_matchings,
    read_trace_dot,
)

from cdfsat.analysis import check_compositionality, classify, measure_growth
from cdfsat.encoders import (
    Graph,
    encode_hamiltonian_cycle,
    encode_perfect_matching,
    eulerian_path_exists,
)
from cdfsat.formula import Clause, CnfFormula, formula, generate_random_ksat
from cdfsat.logic import (
    WideClauseError,
    build_implication_graph,
    clause_to_implications,
    dpll_solve,
    propagate_closure,
    solve_2sat,
    trace_to_dot,
    unit_propagate,
)
from cdfsat.proofs import (
    check_derivation,
    eval_truth_table,
    parse_derivation_json,
    parse_proposition,
)
from cdfsat.semantics import clause_image, formula_image

CHAIN = formula([[-1, 2], [-2, 3]], variable_count=3)
WIDE = formula([[-1, -2, 3]], variable_count=3)


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )


def test_criterion_01_per_clause_image_law():
    """A width-k clause admits exactly 2^k - 1 of the 2^k local assignments."""
    with _Budget(1.0) as b:
        for k in range(1, 7):
            patterns = [
                [v for v in range(1, k + 1)],
                [-v for v in range(1, k + 1)],
                [v if v % 2 else -v for v in range(1, k + 1)],
            ]
            for lits in patterns:
                image = clause_image(Clause(lits))
                assert image.count == 2**k - 1
                # exhaustive ground truth, counted and listed independently
                oracle_masks = model_masks([lits], k)
                assert len(oracle_masks) == 2**k - 1
                assert list(image.assignments) == oracle_masks
    print(f"criterion 1 PASS: image law holds for k=1..6 ({b.elapsed:.2f}s)")


def test_criterion_02_disjoint_product_law():
    """Variable-disjoint clauses multiply: prod(2^k - 1) times 2^free."""
    with _Budget(10.0) as b:
        cases = 0
        for k in (2, 3):
            for m in range(1, 7):
                for free in (0, 2):
                    n = k * m + free
                    f = generate_random_ksat(
                        n, m, k, seed=97 * k + 13 * m + free, disjoint=True
                    )
                    expected = (2**k - 1) ** m << free
                    assert formula_image(f).count == expected
                    assert n <= 20
                    clause_lists = [tuple(cl) for cl in f.clauses]
                    assert fast_count_models(clause_lists, n) == expected
                    cases += 1
    print(f"criterion 2 PASS: product law on {cases} disjoint families ({b.elapsed:.2f}s)")


def test_criterion_03_growth_rate():
    """Disjoint k-SAT families grow exponentially at base (2^k - 1)^(1/k)."""
    with _Budget(30.0) as b:
        for k, density, target in (
            (3, (1, 3), 7 ** (1 / 3)),
            (2, (1, 2), math.sqrt(3)),
        ):
            num, den = density

            def family(n: int, k=k, num=num, den=den) -> CnfFormula:
                return generate_random_ksat(
                    n, (n * num) // den, k, seed=100 + n, disjoint=True
                )

            fit = measure_growth(family, list(range(9, 25)))
            assert fit.failed_n == ()
            assert fit.preferred_model == "Exponential"
            rel = abs(fit.implied_base - target) / target
            assert rel <= 0.02, (k, fit.implied_base, target, rel)
    print(f"criterion 3 PASS: fitted bases within 2% of targets ({b.elapsed:.2f}s)")


def test_criterion_04_compositionality_on_narrow_formulas():
    """500 random width-2 formulas: clause-level and graph-level closures agree.

    Agreement per single-literal seed means the forced-literal sets are
    identical whenever the seed does not conflict, and conflict status
    coincides always (a conflicting closure saturates on the graph side but
    stops at the falsified clause on the clause side, so raw set equality
    is only defined for conflict-free seeds).
    """
    with _Budget(60.0) as b:
        rng = random.Random(42)
        seeds_checked = 0
        for i in range(500):
            n = rng.randint(2, 10)
            m = rng.randint(1, 2 * n)
            f = generate_random_ksat(n, m, 2, seed=1000 + i)
            report = check_compositionality(f)
            assert report.status == "Compositional", (i, report)
            assert report.checked_seeds == 2 * n + 1
            g = build_implication_graph(f)
            for v in range(1, n + 1):
                for lit in (v, -v):
                    gamma = unit_propagate(f, {abs(lit): lit > 0})
                    beta_alpha = propagate_closure(g, {lit})
                    assert (gamma.conflict is None) == (beta_alpha.conflict is None), (
                        i, lit,
                    )
                    if gamma.conflict is None:
                        assert gamma.forced == beta_alpha.forced, (i, lit)
                    seeds_checked += 1
        assert seeds_checked > 5000
    print(
        f"criterion 4 PASS: 500 formulas compositional, {seeds_checked} seeds "
        f"({b.elapsed:.2f}s)"
    )


def test_criterion_05_noncompositionality_of_wide_formulas():
    """500 random 3SAT instances: always NonCompositional, witness replays."""
    with _Budget(60.0) as b:
        rng = random.Random(43)
        for i in range(500):
            n = rng.randint(3, 15)
            m = rng.randint(1, max(1, int(4.3 * n)))
            f = generate_random_ksat(n, m, 3, seed=2000 + i)
            report = check_compositionality(f)
            assert report.status == "NonCompositional", i
            w = report.witness
            assert w is not None and w.clause.width >= 3
            assert w.assignment == frozenset(-lit for lit in w.clause.literals[:-2])
            # replay: under the witness assignment the clause still has two
            # live literals, so clause-level propagation forces nothing
            single = formula([w.clause.literals], variable_count=n)
            closure = unit_propagate(single, {abs(l): l > 0 for l in w.assignment})
            assert closure.conflict is None
            assert closure.forced == set(w.assignment)
            assert w.gamma_forced == frozenset()
            # and the graph side has no implication form at all
            assert w.beta_alpha_forced is None
            try:
                clause_to_implications(w.clause)
            except WideClauseError:
                pass
            else:
                raise AssertionError(f"clause {w.clause} unexpectedly implicative")
    print(f"criterion 5 PASS: 500 wide formulas witnessed ({b.elapsed:.2f}s)")


def test_criterion_06_solver_oracle_equivalence():
    """Solver decisions match exhaustive model counting on randomized suites."""
    with _Budget(120.0) as b:
        rng = random.Random(44)
        for i in range(1000):
            n = rng.randint(2, 12)
            m = rng.randint(1, int(2.2 * n))
            f = generate_random_ksat(n, m, 2, seed=3000 + i)
            clause_lists = [tuple(cl) for cl in f.clauses]
            expected = fast_satisfiable(clause_lists, n)
            assert (formula_image(f, materialization_cap=0).count > 0) == expected
            two = solve_2sat(f)
            assert two.satisfiable == expected, i
            res, _ = dpll_solve(f)
            assert res.satisfiable == expected, i
            if expected:
                assert partial_formula_satisfied(clause_lists, two.model)
                assert partial_formula_satisfied(clause_lists, res.model)
        rng = random.Random(45)
        for i in range(500):
            n = rng.randint(3, 15)
            m = rng.randint(1, int(4.5 * n))
            f = generate_random_ksat(n, m, 3, seed=4000 + i)
            clause_lists = [tuple(cl) for cl in f.clauses]
            expected = fast_satisfiable(clause_lists, n)
            assert (formula_image(f, materialization_cap=0).count > 0) == expected
            res, _ = dpll_solve(f)
            assert res.satisfiable == expected, i
            if expected:
                assert partial_formula_satisfied(clause_lists, res.model)
    print(f"criterion 6 PASS: 1000 2SAT + 500 3SAT decisions match ({b.elapsed:.2f}s)")


def test_criterion_07_worked_examples():
    """The canonical chain solves backtrack-free; the canonical wide clause
    probes exactly one dead end, at x1=T, x2=T, x3=F."""
    with _Budget(1.0) as b:
        _, chain_trace = dpll_solve(CHAIN)
        assert chain_trace.backtrack_count == 0
        assert classify(CHAIN).verdict == "ComCDF"

        assert classify(WIDE).verdict == "ExpCDF"
        _, wide_trace = dpll_solve(WIDE, record="dot")
        # each node's assignment and leaf mark, as its DOT line shows them
        drawn = read_trace_dot(trace_to_dot(wide_trace))
        # node i's path extends its parent's; parents precede children
        paths: list[dict] = [{}]
        for i in range(1, wide_trace.node_count()):
            parent = paths[wide_trace.parents[i]]
            paths.append({**parent, drawn["variables"][i]: drawn["values"][i]})
        unsat_paths = [
            path for path, leaf in zip(paths, drawn["leaves"]) if leaf == "UNSAT"
        ]
        assert unsat_paths == [{1: True, 2: True, 3: False}]
    print(f"criterion 7 PASS: worked examples reproduce ({b.elapsed:.2f}s)")


def test_criterion_08_weakening_tautology_and_derivation(data_dir):
    """A -> (B -> A) is true on all 4 rows and has a valid 5-step derivation."""
    with _Budget(1.0) as b:
        goal = parse_proposition("A -> (B -> A)")
        table = eval_truth_table(goal)
        assert table.atoms == ("A", "B")
        assert table.row_count == 4
        assert table.is_tautology
        expected_rows = [
            {"A": False, "B": False},
            {"A": False, "B": True},
            {"A": True, "B": False},
            {"A": True, "B": True},
        ]
        for i, assignment in enumerate(expected_rows):
            assert table.row_assignment(i) == assignment
            assert table.values[i] is True

        steps = parse_derivation_json(
            json.loads((data_dir / "weakening.json").read_text())
        )
        assert len(steps) == 5
        check = check_derivation(steps, goal)
        assert check.valid, check.reason
    print(f"criterion 8 PASS: tautology table + 5-step derivation ({b.elapsed:.2f}s)")


def _all_graphs(vertex_count: int, max_edges: int | None = None):
    pairs = list(itertools.combinations(range(vertex_count), 2))
    top = len(pairs) if max_edges is None else min(max_edges, len(pairs))
    for r in range(top + 1):
        for combo in itertools.combinations(pairs, r):
            yield Graph(vertex_count, combo)


def _sampled_graphs(vertex_count: int, max_edges: int, count: int, seed: int):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(vertex_count), 2))
    for _ in range(count):
        r = rng.randint(0, min(max_edges, len(pairs)))
        yield Graph(vertex_count, rng.sample(pairs, r))


def test_criterion_09_graph_problem_alignment():
    """Encodings and the direct decider agree with brute force on small graphs,
    and Hamiltonian encodings of incomplete graphs never come out ComCDF."""
    with _Budget(120.0) as b:
        matching_graphs = itertools.chain(
            _all_graphs(4),
            _all_graphs(5, max_edges=8),
            _sampled_graphs(6, max_edges=8, count=150, seed=46),
        )
        matched = 0
        for g in matching_graphs:
            result, _ = dpll_solve(encode_perfect_matching(g).formula)
            expected = bool(perfect_matchings(g.vertex_count, g.edges))
            assert result.satisfiable == expected, g
            matched += 1

        ham_graphs = itertools.chain(
            _all_graphs(4),
            _all_graphs(5),
            _sampled_graphs(6, max_edges=15, count=150, seed=47),
        )
        hams = never_comcdf = 0
        for g in ham_graphs:
            enc = encode_hamiltonian_cycle(g)
            result, _ = dpll_solve(enc.formula)
            assert result.satisfiable == has_hamiltonian_cycle(
                g.vertex_count, g.edges
            ), g
            hams += 1
            complete = len(g.edges) == g.vertex_count * (g.vertex_count - 1) // 2
            if g.vertex_count >= 4 and not complete:
                assert classify(enc.formula).verdict != "ComCDF", g
                never_comcdf += 1

        euler_graphs = itertools.chain(
            _all_graphs(4),
            _all_graphs(5, max_edges=7),
            _sampled_graphs(6, max_edges=7, count=150, seed=48),
        )
        eulers = 0
        for g in euler_graphs:
            assert eulerian_path_exists(g).exists == has_eulerian_path(
                g.vertex_count, g.edges
            ), g
            eulers += 1
    print(
        f"criterion 9 PASS: {matched} matching / {hams} hamiltonian "
        f"({never_comcdf} incomplete, none ComCDF) / {eulers} eulerian "
        f"({b.elapsed:.2f}s)"
    )


def test_criterion_10_cli_determinism(data_dir, tmp_path):
    """Repeating any CLI command with identical inputs gives identical bytes."""
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    commands = [
        ("analyze", str(chain)),
        (
            "growth", "--k", "3", "--n", "9,12,15,18", "--density", "1/3",
            "--disjoint", "--seed", "11",
        ),
        ("encode", "matching", str(data_dir / "c4.graph")),
        ("encode", "hamiltonian", str(data_dir / "k4.graph")),
        ("euler", str(data_dir / "path3.graph")),
        (
            "prove", "A -> (B -> A)",
            "--derivation", str(data_dir / "weakening.json"),
        ),
        ("export-dot", "trace", str(data_dir / "wide_clause.cnf")),
        ("export-dot", "implication-graph", str(chain)),
    ]
    env = os.environ.copy()
    env.pop("CDFSAT_CAP", None)
    env.pop("CDFSAT_THETA", None)
    for command in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cdfsat.cli", *command],
                capture_output=True,
                env=env,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, command
        assert runs[0].stdout == runs[1].stdout, command
        assert runs[0].stderr == runs[1].stderr, command
    print(f"criterion 10 PASS: {len(commands)} commands byte-identical on repeat")
