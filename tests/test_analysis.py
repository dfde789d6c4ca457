from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.analysis import (
    COM_CDF,
    COMPOSITIONAL,
    EXP_CDF,
    EXPONENTIAL,
    NON_COMPOSITIONAL,
    POLYNOMIAL,
    SEMI_EXP_CDF,
    CdfClassification,
    CompositionalityReport,
    GrowthSample,
    check_compositionality,
    classify,
    fit_growth,
    measure_growth,
    wide_clause_fraction,
    wide_clause_witness,
)
from cdfsat.formula import clause, formula, generate_random_ksat
from cdfsat.logic import unit_propagate
from cdfsat.semantics import formula_image

from _oracles import seedwise_compositionality


def random_2cnf(max_n=8, max_m=14):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        m = draw(st.integers(0, max_m))
        seed = draw(st.integers(0, 10**6))
        return generate_random_ksat(n, m, 2, seed=seed)

    return build()


def narrow_cnf(with_units: bool, max_n=10, max_m=14):
    """Width-2 formulas, with at least one unit clause mixed in if asked."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        m = draw(st.integers(0, max_m))
        clauses = []
        for _ in range(m):
            width = draw(st.sampled_from((1, 2))) if with_units else 2
            variables = draw(
                st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True)
            )
            clauses.append([v if draw(st.booleans()) else -v for v in variables])
        if with_units and not any(len(cl) == 1 for cl in clauses):
            unit = [draw(st.integers(1, n)) * draw(st.sampled_from((1, -1)))]
            clauses.insert(draw(st.integers(0, len(clauses))), unit)
        return formula(clauses, n)

    return build()


class TestCompositionality:
    def test_chain_is_compositional(self):
        rep = check_compositionality(formula([[-1, 2], [-2, 3]], 3))
        assert rep.status == COMPOSITIONAL
        assert rep.checked_seeds == 7  # empty + 6 literals
        assert rep.witness is None

    def test_empty_formula_vacuously_compositional(self):
        rep = check_compositionality(formula([], 0))
        assert rep.status == COMPOSITIONAL
        assert rep.checked_seeds == 1

    def test_wide_clause_short_circuits(self):
        rep = check_compositionality(formula([[-1, -2, 3]], 3))
        assert rep.status == NON_COMPOSITIONAL
        assert rep.checked_seeds == 0
        assert rep.witness.clause == clause(-1, -2, 3)
        assert rep.witness.assignment == {1}  # x=T falsifies literal ~x
        assert rep.witness.gamma_forced == frozenset()
        assert rep.witness.beta_alpha_forced is None

    def test_wide_witness_replays(self):
        f = formula([[1, 2, 3], [-1, 2], [2, -3, -4, 1]], 4)
        rep = check_compositionality(f)
        w = rep.witness
        assert w.clause.width >= 3
        # falsifying all but the last two literals leaves the clause inert
        single = formula([list(w.clause.literals)], f.variable_count)
        closure = unit_propagate(single, {abs(l): l > 0 for l in w.assignment})
        assert closure.forced - closure.seed == set()
        assert closure.conflict is None

    def test_unit_clause_breaks_composition(self):
        # clause-level reasoning fires (x) from nothing; reachability cannot
        rep = check_compositionality(formula([[1], [-1, 2]], 2))
        assert rep.status == NON_COMPOSITIONAL
        assert rep.witness.beta_alpha_forced is not None
        assert rep.witness.assignment == frozenset()
        assert 1 in rep.witness.gamma_forced
        assert rep.witness.gamma_forced != rep.witness.beta_alpha_forced

    @settings(max_examples=100, deadline=None)
    @given(random_2cnf())
    def test_width_two_always_compositional(self, f):
        rep = check_compositionality(f)
        assert rep.status == COMPOSITIONAL
        assert rep.checked_seeds == 2 * f.variable_count + 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 8),
        m=st.integers(1, 10),
        seed=st.integers(0, 10**6),
    )
    def test_any_wide_clause_never_compositional(self, n, m, seed):
        f = generate_random_ksat(n, m, 3, seed=seed)
        rep = check_compositionality(f)
        assert rep.status == NON_COMPOSITIONAL
        assert rep.witness is not None

    def test_witness_seed_shape(self):
        cl = clause(1, -2, 3, 4)
        w = wide_clause_witness(formula([list(cl.literals)], 4), cl)
        # all but the last two literals are made false
        assert w.assignment == {-1, 2}

    def test_long_pairs_formula_within_budget(self):
        # 1500 independent clauses, 6001 seeds: each seed touches one clause
        f = formula([[-i, -(i + 1)] for i in range(1, 3000, 2)], 3000)
        start = time.monotonic()
        rep = check_compositionality(f)
        elapsed = time.monotonic() - start
        assert rep.status == COMPOSITIONAL
        assert rep.checked_seeds == 6001
        assert elapsed < 3.0, f"budget exceeded: {elapsed:.2f}s >= 3.0s"

    @pytest.mark.parametrize("with_units", [False, True], ids=["unit-free", "units"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lemma_matches_seedwise_oracle(self, with_units, data):
        f = data.draw(narrow_cnf(with_units))
        want = seedwise_compositionality(
            [list(cl.literals) for cl in f.clauses], f.variable_count
        )
        assert check_compositionality(f).to_json_dict() == want
        assert (want["status"] == NON_COMPOSITIONAL) == with_units

    def test_long_unit_free_chain_within_budget(self):
        # the seed-by-seed comparison walks a closure of up to n literals
        # from each of the 2n+1 seeds; the lemma route propagates once
        n = 4000
        f = formula([[-i, i + 1] for i in range(1, n)], n)
        start = time.monotonic()
        rep = check_compositionality(f)
        elapsed = time.monotonic() - start
        assert rep.status == COMPOSITIONAL
        assert rep.checked_seeds == 2 * n + 1
        assert elapsed < 0.1, f"budget exceeded: {elapsed:.3f}s >= 0.1s"

    def test_report_guard(self):
        with pytest.raises(ValueError):
            CompositionalityReport(NON_COMPOSITIONAL, 0, None)

    def test_json_round_shapes(self):
        rep = check_compositionality(formula([[-1, -2, 3]], 3))
        d = rep.to_json_dict()
        assert d["status"] == "NonCompositional"
        assert d["witness"]["betaAlphaForced"] == "undefined"
        assert d["witness"]["assignment"] == [1]


class TestGrowthFit:
    def test_exact_exponential_series(self):
        samples = [GrowthSample(n, 2**n, float(n)) for n in (4, 8, 12, 16)]
        fit = fit_growth(samples)
        assert fit.preferred_model == EXPONENTIAL
        assert math.isclose(fit.implied_base, 2.0)
        assert math.isclose(fit.exponential_rate, 1.0)
        assert fit.exponential_residual < 1e-12

    def test_exact_polynomial_series(self):
        # size = n^3, so log2 size = 3 log2 n
        samples = [GrowthSample(n, n**3, 3 * math.log2(n)) for n in (4, 8, 16, 32)]
        fit = fit_growth(samples)
        assert fit.preferred_model == POLYNOMIAL
        assert math.isclose(fit.polynomial_degree, 3.0)
        assert fit.polynomial_residual < 1e-12

    def test_constant_series_is_flat_under_both_models(self):
        # both fits are exact here, so the residual comparison is float
        # noise; assert the meaningful outputs instead of the tie winner
        samples = [GrowthSample(n, 16, 4.0) for n in (2, 4, 8)]
        fit = fit_growth(samples)
        assert math.isclose(fit.exponential_rate, 0.0, abs_tol=1e-12)
        assert math.isclose(fit.polynomial_degree, 0.0, abs_tol=1e-12)
        assert math.isclose(fit.implied_base, 1.0)
        assert fit.exponential_residual < 1e-12
        assert fit.polynomial_residual < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_growth([GrowthSample(3, 8, 3.0)])

    def test_csv_shape(self):
        fit = fit_growth([GrowthSample(2, 4, 2.0), GrowthSample(4, 16, 4.0)])
        lines = fit.to_csv().strip().split("\n")
        assert lines[0] == "n,imageSize,logImageBits"
        assert lines[1] == "2,4,2.0"


class TestMeasureGrowth:
    def test_disjoint_3sat_family_base(self):
        fit = measure_growth(
            lambda n: generate_random_ksat(n, n // 3, 3, seed=n, disjoint=True),
            [9, 12, 15, 18],
        )
        assert fit.preferred_model == EXPONENTIAL
        assert math.isclose(fit.implied_base, 7 ** (1 / 3), rel_tol=1e-9)
        assert fit.failed_n == ()

    def test_requires_three_increasing_sizes(self):
        family = lambda n: formula([], n)
        with pytest.raises(ValueError):
            measure_growth(family, [3, 5])
        with pytest.raises(ValueError):
            measure_growth(family, [3, 5, 5])

    def test_unsatisfiable_member_lands_in_failed(self):
        def family(n):
            if n == 4:
                return formula([[1], [-1]], n)
            return formula([], n)

        fit = measure_growth(family, [3, 4, 5, 6])
        assert fit.failed_n == (4,)
        assert len(fit.samples) == 3

    def test_intractable_member_lands_in_failed(self):
        def family(n):
            if n > 6:
                return formula([[1, 2], [2, 3]], n)  # overlap: no product route
            return formula([], n)

        fit = measure_growth(family, [4, 5, 6, 8], enumeration_cap=6)
        assert fit.failed_n == (8,)

    def test_cap_outside_mask_width_rejected(self):
        family = lambda n: formula([[1, n], [1, -n], [2, 3]], n)
        with pytest.raises(ValueError, match="enumeration cap"):
            measure_growth(family, [68, 69, 70], enumeration_cap=70)

    def test_all_failures_raise(self):
        family = lambda n: formula([[1], [-1]], n)
        with pytest.raises(ValueError):
            measure_growth(family, [3, 4, 5])


class TestClassification:
    def test_chain_is_com(self):
        c = classify(formula([[-1, 2], [-2, 3]], 3))
        assert c.verdict == COM_CDF
        assert c.wide_clause_fraction == 0.0
        assert not c.tension

    def test_single_wide_clause_is_exp(self):
        c = classify(formula([[-1, -2, 3]], 3))
        assert c.verdict == EXP_CDF
        assert c.wide_clause_fraction == 1.0

    def test_sparse_wide_clause_is_semi(self):
        # 3 of 10 variables sit in the one wide clause
        f = formula([[1, 2, 3], [-4, 5], [6, -7]], 10)
        c = classify(f)
        assert c.verdict == SEMI_EXP_CDF
        assert c.wide_clause_fraction == 0.3

    def test_threshold_boundary_stays_semi(self):
        # exactly at theta: fraction 0.5 <= 0.5
        f = formula([[1, 2, 3], [4, 5], [-5, 6]], 6)
        c = classify(f)
        assert c.wide_clause_fraction == 0.5
        assert c.verdict == SEMI_EXP_CDF

    def test_theta_shifts_verdict(self):
        f = formula([[1, 2, 3]], 4)  # fraction 0.75
        assert classify(f, theta=0.5).verdict == EXP_CDF
        assert classify(f, theta=0.75).verdict == SEMI_EXP_CDF
        assert classify(f, theta=0.8).verdict == SEMI_EXP_CDF

    def test_theta_validated(self):
        f = formula([[1, 2]], 2)
        with pytest.raises(ValueError):
            classify(f, theta=-0.1)
        with pytest.raises(ValueError):
            classify(f, theta=1.5)

    def test_unit_formula_classified_by_fraction(self):
        # non-compositional via the unit asymmetry, but no wide clauses
        c = classify(formula([[1], [-1, 2]], 2))
        assert c.compositionality.status == NON_COMPOSITIONAL
        assert c.wide_clause_fraction == 0.0
        assert c.verdict == SEMI_EXP_CDF

    def test_growth_evidence_attached_and_tension_flagged(self):
        wide = formula([[1, 2, 3]], 3)
        poly = fit_growth(
            [GrowthSample(n, n**2, 2 * math.log2(n)) for n in (4, 8, 16)]
        )
        c = classify(wide, growth=poly)
        assert c.verdict == EXP_CDF  # syntactic criterion wins
        assert c.tension
        expo = fit_growth([GrowthSample(n, 2**n, float(n)) for n in (4, 8, 16)])
        assert not classify(wide, growth=expo).tension

    def test_compositional_never_tense(self):
        chain = formula([[-1, 2]], 2)
        poly = fit_growth(
            [GrowthSample(n, n**2, 2 * math.log2(n)) for n in (4, 8, 16)]
        )
        assert not classify(chain, growth=poly).tension

    def test_com_guard(self):
        rep = check_compositionality(formula([[1, 2, 3]], 3))
        with pytest.raises(ValueError):
            CdfClassification(
                verdict=COM_CDF,
                compositionality=rep,
                growth=None,
                wide_clause_fraction=1.0,
                theta=0.5,
                tension=False,
            )

    def test_verdict_stable_under_variable_permutation(self):
        f = formula([[1, 2, 3], [-4, 5], [2, -5]], 5)
        # swap variables 1<->5, 2<->4
        swap = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
        relabel = lambda lit: swap[abs(lit)] * (1 if lit > 0 else -1)
        g = formula(
            [[relabel(l) for l in cl.literals] for cl in f.clauses], 5
        )
        assert classify(f).verdict == classify(g).verdict
        assert (
            check_compositionality(f).status == check_compositionality(g).status
        )

    def test_wide_fraction_empty_formula(self):
        assert wide_clause_fraction(formula([], 0)) == 0.0

    def test_json_shape(self):
        d = classify(formula([[-1, 2]], 2)).to_json_dict()
        assert d["verdict"] == "ComCDF"
        assert d["growth"] is None
        assert d["compositionality"]["status"] == "Compositional"


class TestGrowthClassifierIntegration:
    def test_image_and_classify_consistency(self):
        # single wide clause: image is 7/8 of the table, verdict ExpCDF
        f = formula([[-1, -2, 3]], 3)
        assert formula_image(f).count == 7
        c = classify(f)
        assert c.verdict == EXP_CDF
        assert c.compositionality.status == NON_COMPOSITIONAL
