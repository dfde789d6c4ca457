from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat.formula import clause, formula, generate_random_ksat
from cdfsat.semantics import (
    COUNT_ONLY,
    ENUMERATED,
    ENUMERATION_CAP,
    MAX_ENUMERATION_CAP,
    SWEEP_BITS,
    IntractableError,
    clause_image,
    clauses_variable_disjoint,
    formula_image,
    log2_count,
)

from _oracles import component_count, components, fast_count_models, model_masks


@st.composite
def mixed_width_clauses(draw, max_n=12, max_m=16):
    """Strategy: (clause_lists, n) with widths 1..4 mixed in one formula."""
    n = draw(st.integers(1, max_n))
    variables = st.integers(1, n)
    lists = draw(
        st.lists(
            st.lists(variables, min_size=1, max_size=min(4, n), unique=True).flatmap(
                lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs])
            ),
            max_size=max_m,
        )
    )
    return [list(cl) for cl in lists], n


@st.composite
def disjoint_clauses(draw, max_n=16):
    """Strategy: (clause_lists, n) with pairwise variable-disjoint clauses.

    Widths 1..4 are dealt from a shuffled variable order with random signs;
    the variables left over are free.
    """
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    lists: list[list[int]] = []
    used = 0
    for width in draw(st.lists(st.integers(1, 4), max_size=n)):
        if used + width > n:
            break
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        lists.append([v if s else -v for v, s in zip(order[used:used + width], signs)])
        used += width
    return lists, n


@st.composite
def overlapping_clauses(draw, max_n=20):
    """Strategy: (clause_lists, n), up to 2n clauses of widths 1..3 over
    variables drawn from 1..n, so that clauses share variables."""
    n = draw(st.integers(1, max_n))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(3, n), unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs]))
    return [list(cl) for cl in draw(st.lists(clause, max_size=2 * n))], n


@st.composite
def blocks_past_the_cap(draw, max_n=400):
    """Strategy: (clause_lists, n) with n past the default cap, made of up
    to six variable-disjoint blocks of 1..18 variables, scattered over
    1..n; each block holds up to 2 clauses per variable, of widths 1..3."""
    n = draw(st.integers(ENUMERATION_CAP + 1, max_n))
    sizes = draw(st.lists(st.integers(1, 18), max_size=6))
    order = draw(st.permutations(range(1, n + 1)))
    lists, used = [], 0
    for size in sizes:
        if used + size > n:
            break
        block = order[used:used + size]
        used += size
        clause = st.lists(st.sampled_from(block), min_size=1, max_size=min(3, size),
                          unique=True).flatmap(
            lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs]))
        lists += [list(cl) for cl in draw(st.lists(clause, max_size=2 * size))]
    return lists, n


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(disjoint_clauses(), overlapping_clauses()))
    def test_disjoint_exactly_when_no_component_holds_two_clauses(self, case):
        lists, n = case
        expected = all(len(members) < 2 for _, members in components(lists, n))
        assert clauses_variable_disjoint(formula(lists, n)) is expected

    @settings(max_examples=100, deadline=None)
    @given(disjoint_clauses(), st.data())
    def test_closed_form_and_sweep_agree(self, case, data):
        # without materialization the closed form counts, at any cap; with
        # it the sweep does; both must agree with the oracle
        lists, n = case
        f = formula(lists, n)
        expected = fast_count_models(lists, n)
        closed = formula_image(
            f,
            enumeration_cap=data.draw(st.integers(0, n + 2)),
            materialization_cap=data.draw(st.integers(0, n - 1)),
        )
        assert closed.count == expected
        assert closed.assignments is None
        assert closed.representation == COUNT_ONLY
        swept = formula_image(
            f,
            enumeration_cap=data.draw(st.integers(n, n + 2)),
            materialization_cap=data.draw(st.integers(n, n + 2)),
        )
        assert swept.count == expected
        assert len(swept.assignments) == expected
        assert swept.representation == ENUMERATED

    def test_closed_form_counts_within_the_cap(self, monkeypatch):
        # a disjoint formula within a raised cap but past materialization
        # must not pay 2^60 sweep steps
        def no_sweep(*args, **kwargs):
            raise AssertionError("disjoint formula was swept")

        monkeypatch.setattr("cdfsat.semantics._sweep", no_sweep)
        lists = [[3 * i + 1, -(3 * i + 2), 3 * i + 3] for i in range(19)]
        img = formula_image(formula(lists, 60), enumeration_cap=MAX_ENUMERATION_CAP)
        assert img.count == 7**19 * 2**3
        assert img.representation == COUNT_ONLY

    def test_one_shared_variable_past_the_cap_is_intractable(self):
        # two disjoint clauses and a third that shares x6: the two clauses
        # over x4..x7 have no closed form, and their 4 variables pass a cap
        # of 3; the lone clause over x1..x3 needs no sweep
        lists = [[1, 2, 3], [4, 5, 6], [-6, 7]]
        f = formula(lists, 8)
        with pytest.raises(IntractableError) as exc:
            formula_image(f, enumeration_cap=3)
        assert exc.value.variable_count == 8
        assert exc.value.cap == 3
        assert formula_image(f, enumeration_cap=4).count == fast_count_models(lists, 8)


class TestComponents:
    @settings(max_examples=150, deadline=None)
    @given(overlapping_clauses(), st.data())
    def test_count_only_image_or_intractable(self, case, data):
        # the route raises exactly when a component of two or more clauses
        # has more variables than the cap, and otherwise counts exactly
        lists, n = case
        cap = data.draw(st.integers(0, n + 2))
        largest = max((len(variables) for variables, members in components(lists, n)
                       if len(members) > 1), default=0)
        f = formula(lists, n)
        if largest > cap:
            with pytest.raises(IntractableError) as exc:
                formula_image(f, enumeration_cap=cap, materialization_cap=0)
            assert (exc.value.variable_count, exc.value.cap) == (n, cap)
        else:
            img = formula_image(f, enumeration_cap=cap, materialization_cap=0)
            assert img.count == fast_count_models(lists, n)
            assert img.representation == COUNT_ONLY

    @settings(max_examples=60, deadline=None)
    @given(blocks_past_the_cap())
    def test_count_past_the_cap_matches_component_oracle(self, case):
        lists, n = case
        img = formula_image(formula(lists, n))
        assert img.count == component_count(lists, n)
        assert img.representation == COUNT_ONLY

    def test_component_spanning_the_chunk_bits(self):
        # an 18-variable chain is swept in 8 chunks after renumbering, next
        # to a lone 30-variable clause and 212 free variables
        chain = [[-i, i + 1] for i in range(101, 118)]
        lists = chain + [[-(200 + i) for i in range(30)]]
        img = formula_image(formula(lists, 260))
        assert img.count == 19 * (2**30 - 1) * 2**(260 - 18 - 30)

    @pytest.mark.parametrize("case", ["chain", "dense 2-SAT"])
    def test_gives_up_before_any_sweep(self, case, monkeypatch):
        # the union-find stops at the first component of two or more clauses
        # past the cap; the 1M-clause formula is not read to its end
        if case == "chain":
            f = formula([[1]] + [[-i, i + 1] for i in range(1, 3000)], 3000)
        else:
            f = generate_random_ksat(14000, 1000000, 2, seed=1)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a component was swept")

        monkeypatch.setattr("cdfsat.semantics._sweep", no_sweep)
        start = time.perf_counter()
        with pytest.raises(IntractableError) as exc:
            formula_image(f, materialization_cap=0)
        elapsed = time.perf_counter() - start
        assert (exc.value.variable_count, exc.value.cap) == (f.variable_count, ENUMERATION_CAP)
        assert elapsed < 0.05, f"budget exceeded: {elapsed:.3f}s >= 0.05s"


class TestFormulaImage:
    def test_worked_example_count(self):
        # (~x | y) & (~y | z) has models FFF, FFT, FTT, TTT
        f = formula([[-1, 2], [-2, 3]], 3)
        img = formula_image(f)
        assert img.count == 4
        assert img.representation == ENUMERATED
        assert list(img.assignments) == [0b000, 0b001, 0b011, 0b111]

    def test_unsat_formula_empty_image(self):
        f = formula([[1], [-1]], 1)
        img = formula_image(f)
        assert img.count == 0
        assert img.assignments == ()

    def test_no_clauses_full_table(self):
        assert formula_image(formula([], 4)).count == 16

    @settings(max_examples=150, deadline=None)
    @given(mixed_width_clauses())
    def test_sweep_matches_model_masks(self, case):
        # every n here fits in one chunk, down to one int of two bits at
        # n = 1; unit clauses have no second column to OR
        lists, n = case
        f = formula(lists, n)
        expected = model_masks(lists, n)
        img = formula_image(f)
        assert img.count == len(expected)
        assert list(img.assignments) == expected
        assert formula_image(f, materialization_cap=0).count == len(expected)

    @pytest.mark.parametrize("n", range(SWEEP_BITS + 1, SWEEP_BITS + 5))
    def test_sweep_past_one_chunk_matches_fast_oracle(self, n):
        # n > SWEEP_BITS splits the sweep into 2^(n - SWEEP_BITS) chunks.
        # (~x1) lies wholly above the chunk bits, and so does (x1 | ~x2)
        # from n = SWEEP_BITS + 2: each leaves whole chunks without a model
        random_lists = generate_random_ksat(n, 3 * n, 3, seed=n).clauses
        lists = [[-1], [1, -2]] + [cl.literals for cl in random_lists]
        f = formula(lists, n)
        expected = fast_count_models(lists, n)
        assert formula_image(f, materialization_cap=0).count == expected
        if n > 20:
            return
        img = formula_image(f)
        assert img.representation == ENUMERATED
        masks = np.array(img.assignments, dtype=np.int64)
        assert len(masks) == expected
        assert np.all(np.diff(masks) > 0)
        for cl in lists:
            sat = np.zeros(len(masks), dtype=bool)
            for lit in cl:
                sat |= ((masks >> (n - abs(lit))) & 1) == (lit > 0)
            assert sat.all()

    def test_count_only_sweep_within_budget(self):
        # 256 chunks; the ROADMAP baseline took 12.2 s here
        f = generate_random_ksat(26, 110, 3, seed=0)
        start = time.perf_counter()
        img = formula_image(f, materialization_cap=0)
        elapsed = time.perf_counter() - start
        assert img.representation == COUNT_ONLY
        assert elapsed < 2.0, f"budget exceeded: {elapsed:.2f}s >= 2.0s"

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
        # one chain of 29 clauses over all 30 variables: a component past the cap
        f = formula([[i, i + 1] for i in range(1, 30)], 30)
        with pytest.raises(IntractableError) as exc:
            formula_image(f)
        assert exc.value.variable_count == 30
        assert exc.value.cap == 26

    def test_cap_is_configurable(self):
        f = formula([[i, i + 1] for i in range(1, 10)], 10)  # one 10-variable chain
        with pytest.raises(IntractableError):
            formula_image(f, enumeration_cap=9)
        assert formula_image(f, enumeration_cap=10).count > 0

    @pytest.mark.parametrize("cap", [-1, MAX_ENUMERATION_CAP + 1, 70])
    def test_cap_outside_mask_width_rejected(self, cap):
        # 63 bounds the cap itself; a 2^63-step sweep would never finish
        f = formula([[1, 70], [1, -70], [2, 3]], 70)
        with pytest.raises(ValueError, match="enumeration cap"):
            formula_image(f, enumeration_cap=cap, materialization_cap=0)


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
