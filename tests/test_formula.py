from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.formula import (
    Clause,
    CnfFormula,
    DimacsParseError,
    DimacsWarning,
    TautologicalClauseError,
    clause,
    formula,
    generate_random_ksat,
    parse_dimacs,
    satisfies,
    width_profile,
    write_dimacs,
)


class TestClause:
    def test_width_and_iteration(self):
        cl = clause(-1, 2, 3)
        assert cl.width == 3
        assert list(cl) == [-1, 2, 3]
        assert cl.variables() == {1, 2, 3}

    def test_duplicates_collapse_preserving_order(self):
        assert clause(2, -1, 2, -1).literals == (2, -1)

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            Clause(())

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            clause(1, 0)

    def test_tautology_rejected(self):
        with pytest.raises(TautologicalClauseError):
            clause(1, -1)

    def test_hashable_and_equal(self):
        assert clause(1, -2) == clause(1, -2)
        assert hash(clause(1, -2)) == hash(clause(1, -2))
        assert clause(1, -2) != clause(-2, 1)  # order is part of identity


class TestCnfFormula:
    def test_basic_properties(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        assert f.variable_count == 3
        assert f.clause_count == 2
        assert f.max_width == 2
        assert f.density == Fraction(2, 3)
        assert f.variables() == {1, 2, 3}

    def test_width_profile(self):
        f = formula([[1], [-1, 2], [-1, -2, 3], [1, 2, 3]], 3)
        assert width_profile(f) == {1: 1, 2: 1, 3: 2}

    def test_empty_formula(self):
        f = formula([], 0)
        assert f.max_width == 0
        assert f.density is None

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            formula([[1, 4]], 3)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula((), -1)

    def test_satisfies(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        assert satisfies(f, {1: True, 2: True, 3: True})
        assert satisfies(f, {1: False, 2: False, 3: False})
        assert not satisfies(f, {1: True, 2: False, 3: True})

    def test_satisfies_partial_assignment(self):
        f = formula([[-1, 2]], 2)
        assert satisfies(f, {1: False})  # ~x already satisfies the clause
        assert not satisfies(f, {1: True})  # y still free: not yet satisfied


class TestDimacs:
    def test_parse_simple(self):
        f = parse_dimacs("c comment\np cnf 3 2\n-1 2 0\n-2 3 0\n")
        assert f.variable_count == 3
        assert [cl.literals for cl in f.clauses] == [(-1, 2), (-2, 3)]

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n-1\n-2 3 0\n")
        assert f.clauses[0].literals == (-1, -2, 3)

    def test_header_mismatch_warns(self):
        with pytest.warns(DimacsWarning):
            f = parse_dimacs("p cnf 3 5\n1 2 0\n")
        assert f.clause_count == 1

    def test_missing_header(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("1 2 0\n")

    def test_literal_beyond_declared_range(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p cnf 2 1\n1 3 0\n")
        assert exc.value.line == 2

    def test_bad_token_reports_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        assert exc.value.line == 2

    def test_tautological_clause_named_by_ordinal(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p cnf 2 2\n1 2 0\n1 -1 0\n")
        assert "clause 2" in str(exc.value)

    def test_unterminated_final_clause(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_satlib_trailer_ends_clause_data(self):
        f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n")
        assert [cl.literals for cl in f.clauses] == [(1, -2, 3)]

    def test_write_round_trip(self, data_dir):
        text = (data_dir / "implication_chain.cnf").read_text()
        f = parse_dimacs(text)
        assert parse_dimacs(write_dimacs(f)) == f

    def test_write_includes_comments(self):
        out = write_dimacs(formula([[1]], 1), comments=("hello", ""))
        assert out.startswith("c hello\nc\np cnf 1 1\n")

    @settings(max_examples=50)
    @given(
        n=st.integers(1, 8),
        m=st.integers(0, 10),
        k=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_round_trip_random(self, n, m, k, seed):
        if k > n:
            return
        f = generate_random_ksat(n, m, k, seed=seed)
        assert parse_dimacs(write_dimacs(f)) == f


class TestRandomKsat:
    def test_deterministic_for_seed(self):
        a = generate_random_ksat(10, 20, 3, seed=42)
        b = generate_random_ksat(10, 20, 3, seed=42)
        assert a == b
        assert a != generate_random_ksat(10, 20, 3, seed=43)

    def test_every_clause_has_k_distinct_variables(self):
        f = generate_random_ksat(12, 30, 3, seed=1)
        for cl in f.clauses:
            assert cl.width == 3
            assert len(cl.variables()) == 3

    def test_disjoint_clauses_share_no_variables(self):
        f = generate_random_ksat(12, 4, 3, seed=5, disjoint=True)
        seen: set[int] = set()
        for cl in f.clauses:
            assert not (cl.variables() & seen)
            seen |= cl.variables()

    def test_disjoint_requires_enough_variables(self):
        with pytest.raises(ValueError):
            generate_random_ksat(8, 3, 3, seed=0, disjoint=True)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            generate_random_ksat(2, 1, 3, seed=0)

    def test_zero_clauses(self):
        f = generate_random_ksat(5, 0, 3, seed=0)
        assert f.clause_count == 0
        assert f.variable_count == 5
