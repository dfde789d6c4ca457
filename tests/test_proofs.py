from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.proofs import (
    MAX_NESTING,
    And,
    Atom,
    DerivationStep,
    Implies,
    Not,
    Or,
    PropositionParseError,
    atoms,
    check_derivation,
    eval_proposition,
    eval_truth_table,
    format_derivation,
    parse_derivation_json,
    parse_proposition,
    semantic_cost,
    to_text,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")


def propositions(max_leaves=6, names="ABCDE"):
    atom = st.sampled_from(names).map(Atom)
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: Implies(*t)),
        ),
        max_leaves=max_leaves,
    )


class TestParser:
    def test_atoms_and_not(self):
        assert parse_proposition("A") == A
        assert parse_proposition("~A") == Not(A)
        assert parse_proposition("~~A") == Not(Not(A))

    def test_precedence_not_over_and_over_or(self):
        assert parse_proposition("~A & B") == And(Not(A), B)
        assert parse_proposition("A | B & C") == Or(A, And(B, C))

    def test_implies_binds_loosest_and_right_associates(self):
        assert parse_proposition("A -> B -> C") == Implies(A, Implies(B, C))
        assert parse_proposition("A & B -> C") == Implies(And(A, B), C)

    def test_parentheses(self):
        assert parse_proposition("(A -> B) -> C") == Implies(Implies(A, B), C)
        assert parse_proposition("A & (B | C)") == And(A, Or(B, C))

    def test_multichar_atom_names(self):
        p = parse_proposition("rain -> wet_ground")
        assert p == Implies(Atom("rain"), Atom("wet_ground"))

    def test_whitespace_irrelevant(self):
        assert parse_proposition(" A->B ") == parse_proposition("A -> B")

    def test_error_position(self):
        with pytest.raises(PropositionParseError) as exc:
            parse_proposition("A -> $")
        assert exc.value.position == 5

    def test_trailing_input(self):
        with pytest.raises(PropositionParseError):
            parse_proposition("A B")

    def test_unbalanced_paren(self):
        with pytest.raises(PropositionParseError):
            parse_proposition("(A -> B")

    def test_empty_input(self):
        with pytest.raises(PropositionParseError):
            parse_proposition("")

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: "~" * k + "A",
            lambda k: "(" * k + "A" + ")" * k,
            lambda k: " & ".join(["A"] * (k + 1)),
            lambda k: " | ".join(["A"] * (k + 1)),
            lambda k: " -> ".join(["A"] * (k + 1)),
            lambda k: "(" * (k // 2) + " & ".join(["A"] * (k - k // 2 + 1)) + ")" * (k // 2),
        ],
        ids=["negations", "parentheses", "and-chain", "or-chain", "implies-chain", "mixed"],
    )
    def test_nesting_bound(self, build):
        # connectives and parentheses around one atom count alike
        assert eval_proposition(parse_proposition(build(MAX_NESTING)), {"A": True}) is True
        with pytest.raises(PropositionParseError, match="nesting deeper than"):
            parse_proposition(build(MAX_NESTING + 1))

    @settings(max_examples=150)
    @given(propositions())
    def test_to_text_round_trips(self, p):
        assert parse_proposition(to_text(p)) == p


class TestEvaluation:
    def test_connectives(self):
        env = {"A": True, "B": False}
        assert eval_proposition(And(A, B), env) is False
        assert eval_proposition(Or(A, B), env) is True
        assert eval_proposition(Implies(A, B), env) is False
        assert eval_proposition(Implies(B, A), env) is True
        assert eval_proposition(Not(B), env) is True

    def test_atoms_sorted(self):
        assert atoms(parse_proposition("C & A -> B")) == ("A", "B", "C")

    def test_semantic_cost(self):
        assert semantic_cost(parse_proposition("A -> B -> A")) == 4
        assert semantic_cost(parse_proposition("A & A")) == 2


class TestTruthTable:
    def test_weakening_table_all_true(self):
        table = eval_truth_table(parse_proposition("A -> (B -> A)"))
        assert table.atoms == ("A", "B")
        assert table.row_count == 4
        assert table.values == (True, True, True, True)
        assert table.is_tautology

    def test_row_order_false_first(self):
        table = eval_truth_table(parse_proposition("A & B"))
        # rows: FF, FT, TF, TT
        assert table.values == (False, False, False, True)
        assert table.row_assignment(0) == {"A": False, "B": False}
        assert table.row_assignment(2) == {"A": True, "B": False}

    def test_non_tautology(self):
        assert not eval_truth_table(parse_proposition("A -> B")).is_tautology

    def test_classical_tautologies(self):
        for text in ("A -> A", "A | ~A", "((A -> B) -> A) -> A"):
            assert eval_truth_table(parse_proposition(text)).is_tautology, text

    def test_to_text_renders_rows(self):
        out = eval_truth_table(parse_proposition("A -> B")).to_text()
        lines = out.split("\n")
        assert lines[0] == "A B | value"
        assert lines[2] == "F F | T"
        assert lines[4] == "T F | F"

    def test_atom_cap(self):
        wide = " & ".join(f"a{i}" for i in range(21))
        with pytest.raises(ValueError):
            eval_truth_table(parse_proposition(wide))

    @settings(max_examples=150)
    @given(propositions(max_leaves=12, names="ABCDEF"))
    def test_rows_match_eval_proposition(self, p):
        table = eval_truth_table(p)
        assert len(table.values) == 1 << len(table.atoms)
        for row, value in enumerate(table.values):
            assert type(value) is bool
            assert value is eval_proposition(p, table.row_assignment(row))

    def test_json_rows_optional(self):
        table = eval_truth_table(parse_proposition("A"))
        with_rows = table.to_json_dict()
        assert with_rows["rows"][1] == {"assignment": {"A": True}, "value": True}
        assert "rows" not in table.to_json_dict(include_rows=False)


def weakening_steps():
    return (
        DerivationStep(A, "assumption"),
        DerivationStep(B, "assumption"),
        DerivationStep(A, "reiteration", (1,)),
        DerivationStep(Implies(B, A), "implies-intro", (2, 3)),
        DerivationStep(Implies(A, Implies(B, A)), "implies-intro", (1, 4)),
    )


class TestDerivationChecker:
    def test_weakening_is_valid(self):
        goal = Implies(A, Implies(B, A))
        check = check_derivation(weakening_steps(), goal)
        assert check.valid
        assert check.failed_step is None
        assert [sorted(d) for d in check.dependencies] == [[1], [2], [1], [1], []]

    def test_goal_mismatch(self):
        check = check_derivation(weakening_steps(), Implies(B, Implies(A, B)))
        assert not check.valid
        assert "not the goal" in check.reason

    def test_open_assumptions_rejected(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(A, "reiteration", (1,)),
        )
        check = check_derivation(steps, A)
        assert not check.valid
        assert "open assumptions" in check.reason

    def test_self_implication_via_vacuous_free_derivation(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(Implies(A, A), "implies-intro", (1, 1)),
        )
        check = check_derivation(steps, Implies(A, A))
        assert check.valid

    def test_vacuous_discharge_allowed(self):
        steps = (
            DerivationStep(B, "assumption"),
            DerivationStep(A, "assumption"),
            DerivationStep(Implies(B, A), "implies-intro", (1, 2)),
            DerivationStep(
                Implies(A, Implies(B, A)), "implies-intro", (2, 3)
            ),
        )
        check = check_derivation(steps, Implies(A, Implies(B, A)))
        assert check.valid

    def test_modus_ponens(self):
        steps = (
            DerivationStep(Implies(A, B), "assumption"),
            DerivationStep(A, "assumption"),
            DerivationStep(B, "implies-elim", (1, 2)),
        )
        check = check_derivation(steps)
        assert not check.valid  # deps {1, 2} stay open
        assert check.dependencies[2] == frozenset({1, 2})

    def test_elim_requires_conditional_major(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(A, "assumption"),
            DerivationStep(B, "implies-elim", (1, 2)),
        )
        check = check_derivation(steps)
        assert not check.valid
        assert check.failed_step == 3

    def test_elim_checks_antecedent(self):
        steps = (
            DerivationStep(Implies(A, B), "assumption"),
            DerivationStep(C, "assumption"),
            DerivationStep(B, "implies-elim", (1, 2)),
        )
        assert not check_derivation(steps).valid

    def test_reiteration_must_match(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(B, "reiteration", (1,)),
        )
        check = check_derivation(steps)
        assert not check.valid
        assert check.failed_step == 2

    def test_intro_requires_assumption_source(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(A, "reiteration", (1,)),
            DerivationStep(Implies(A, A), "implies-intro", (2, 2)),
        )
        check = check_derivation(steps)
        assert not check.valid
        assert "not an assumption" in check.reason

    def test_intro_formula_must_match(self):
        steps = (
            DerivationStep(A, "assumption"),
            DerivationStep(Implies(B, A), "implies-intro", (1, 1)),
        )
        check = check_derivation(steps)
        assert not check.valid
        assert check.failed_step == 2

    def test_forward_reference_rejected(self):
        steps = (
            DerivationStep(A, "reiteration", (2,)),
            DerivationStep(A, "assumption"),
        )
        check = check_derivation(steps)
        assert not check.valid
        assert check.failed_step == 1

    def test_empty_derivation(self):
        check = check_derivation(())
        assert not check.valid

    def test_format_derivation_lists_dependencies(self):
        goal = Implies(A, Implies(B, A))
        check = check_derivation(weakening_steps(), goal)
        out = format_derivation(weakening_steps(), check)
        lines = out.split("\n")
        assert lines[0] == "1. A  [assumption] {1}"
        assert lines[4] == "5. A -> B -> A  [implies-intro (1, 4)] {}"


class TestDerivationJson:
    def test_weakening_fixture(self, data_dir):
        data = json.loads((data_dir / "weakening.json").read_text())
        steps = parse_derivation_json(data)
        assert len(steps) == 5
        goal = parse_proposition("A -> (B -> A)")
        assert check_derivation(steps, goal).valid

    def test_missing_rule_key(self):
        with pytest.raises(ValueError):
            parse_derivation_json([{"formula": "A"}])

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            parse_derivation_json([{"formula": "A", "rule": "magic"}])

    def test_missing_reference_key(self):
        with pytest.raises(ValueError) as exc:
            parse_derivation_json(
                [
                    {"formula": "A", "rule": "assumption"},
                    {"formula": "A", "rule": "reiteration"},
                ]
            )
        assert "of" in str(exc.value)

    def test_non_object_step(self):
        with pytest.raises(ValueError):
            parse_derivation_json(["A"])
