from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.formula import clause, formula, generate_random_ksat
from cdfsat.semantics import (
    COUNT_ONLY,
    ENUMERATED,
    MAX_ENUMERATION_CAP,
    IntractableError,
    clause_image,
    clauses_variable_disjoint,
    disjoint_lower_bound,
    formula_image,
    log2_count,
)

from _oracles import count_models, model_masks


def random_formulas(max_n=8, max_m=12, ks=(1, 2, 3)):
    """Strategy: a (clause_lists, n) pair with clauses of mixed small widths."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(0, max_m))
        k = draw(st.sampled_from([w for w in ks if w <= n]))
        seed = draw(st.integers(0, 10**6))
        f = generate_random_ksat(n, m, k, seed=seed)
        return f

    return build()


class TestClauseImage:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_count_is_2k_minus_1(self, k):
        cl = clause(*range(1, k + 1))
        assert clause_image(cl).count == 2**k - 1

    def test_excluded_assignment_falsifies_every_literal(self):
        # (~x | ~y | z) is false only under x=T, y=T, z=F, i.e. mask 0b110
        img = clause_image(clause(-1, -2, 3))
        assert img.count == 7
        assert set(img.assignments) == set(range(8)) - {0b110}

    @settings(max_examples=60)
    @given(
        lits=st.lists(
            st.integers(1, 6), min_size=1, max_size=6, unique=True
        ),
        signs=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_matches_brute_force(self, lits, signs):
        signed = tuple(v if s else -v for v, s in zip(lits, signs))
        cl = clause(*signed)
        img = clause_image(cl)
        k = cl.width
        scope = img.scope
        expected = []
        for mask in range(1 << k):
            assignment = {
                v: bool((mask >> (k - 1 - i)) & 1) for i, v in enumerate(scope)
            }
            if any(assignment[abs(l)] == (l > 0) for l in cl):
                expected.append(mask)
        assert list(img.assignments) == expected
        assert img.count == (1 << k) - 1

    def test_scope_is_sorted_variables(self):
        img = clause_image(clause(5, -2, 3))
        assert img.scope == (2, 3, 5)


class TestDisjointness:
    def test_detects_disjoint(self):
        assert clauses_variable_disjoint(formula([[1, 2], [3, 4]], 4))
        assert not clauses_variable_disjoint(formula([[1, 2], [2, 3]], 3))

    def test_lower_bound_product(self):
        f = formula([[1, 2, 3], [4, 5, 6]], 6)
        assert disjoint_lower_bound(f) == 7 * 7

    def test_lower_bound_none_when_overlapping(self):
        assert disjoint_lower_bound(formula([[1, 2], [2, 3]], 3)) is None


class TestFormulaImage:
    def test_worked_example_count(self):
        # (~x | y) & (~y | z) has models FFF, FFT, FTT, TTT
        f = formula([[-1, 2], [-2, 3]], 3)
        img = formula_image(f)
        assert img.count == 4
        assert img.representation == ENUMERATED
        assert list(img.assignments) == [0b000, 0b001, 0b011, 0b111]

    def test_to_text_rows(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        assert formula_image(f).to_text() == "000\n001\n011\n111\n"

    def test_unsat_formula_empty_image(self):
        f = formula([[1], [-1]], 1)
        img = formula_image(f)
        assert img.count == 0
        assert img.assignments == ()

    def test_no_clauses_full_table(self):
        assert formula_image(formula([], 4)).count == 16

    @settings(max_examples=80, deadline=None)
    @given(random_formulas())
    def test_matches_brute_force(self, f):
        img = formula_image(f)
        lists = [cl.literals for cl in f.clauses]
        assert img.count == count_models(lists, f.variable_count)
        if img.assignments is not None:
            assert list(img.assignments) == model_masks(lists, f.variable_count)

    def test_disjoint_product_route_beyond_materialization(self):
        # 8 disjoint 3-clauses over 24 vars: count-only product, no enumeration
        lists = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(8)]
        f = formula(lists, 24)
        img = formula_image(f, enumeration_cap=20)
        assert img.representation == COUNT_ONLY
        assert img.count == 7**8

    def test_disjoint_product_counts_free_variables(self):
        f = formula([[1, 2, 3]], 5)
        assert formula_image(f).count == 7 * 4

    def test_count_only_between_caps(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        img = formula_image(f, materialization_cap=0)
        assert img.count == 4
        assert img.assignments is None
        assert img.representation == COUNT_ONLY

    def test_intractable_beyond_cap(self):
        f = formula([[1, 2, 3], [3, 4, 5]], 30)  # overlapping: no product route
        with pytest.raises(IntractableError) as exc:
            formula_image(f)
        assert exc.value.variable_count == 30
        assert exc.value.cap == 26

    def test_cap_is_configurable(self):
        f = formula([[1, 2], [2, 3]], 10)
        with pytest.raises(IntractableError):
            formula_image(f, enumeration_cap=9)
        assert formula_image(f, enumeration_cap=10).count > 0

    @pytest.mark.parametrize("cap", [-1, MAX_ENUMERATION_CAP + 1, 70])
    def test_cap_outside_mask_width_rejected(self, cap):
        # past 63 the uint64 clause masks would overflow
        f = formula([[1, 70], [1, -70], [2, 3]], 70)
        with pytest.raises(ValueError, match="enumeration cap"):
            formula_image(f, enumeration_cap=cap, materialization_cap=0)

    def test_assignment_decoding(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        img = formula_image(f)
        assert img.assignment_at(3) == {1: True, 2: True, 3: True}

    def test_json_shape(self):
        img = formula_image(formula([[1]], 1))
        assert img.to_json_dict() == {
            "scope": [1],
            "count": 1,
            "representation": "enumerated",
            "assignments": ["1"],
        }


class TestLog2Count:
    def test_values(self):
        assert log2_count(1) == 0.0
        assert log2_count(8) == 3.0
        assert log2_count(0) == float("-inf")
        assert math.isclose(log2_count(7), math.log2(7))

    def test_huge_exact_int(self):
        assert math.isclose(log2_count(2**200), 200.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log2_count(-1)
