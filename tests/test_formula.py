from __future__ import annotations

import re
import time
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsat import formula as formula_module
from cdfsat.encoders import encode_hamiltonian_cycle, encode_perfect_matching, graph
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

from _oracles import partial_formula_satisfied, reference_clause, reference_dimacs


class TestClause:
    def test_width_and_iteration(self):
        cl = clause(-1, 2, 3)
        assert cl.width == 3
        assert list(cl) == [-1, 2, 3]
        assert cl.variables() == {1, 2, 3}
        # a clause is the tuple of its literals
        assert isinstance(cl, tuple) and cl == (-1, 2, 3) and cl[1:] == (2, 3)
        assert cl.literals is cl

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

    def test_bool_literal_rejected(self):
        with pytest.raises(ValueError, match="^literal must be a nonzero int, got True$"):
            formula([[True, -2]], 2)
        with pytest.raises(ValueError, match="^literal must be a nonzero int, got False$"):
            clause(1, False)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.integers(-5, 5) | st.sampled_from((True, False, None, 1.0, -2.5, "3", (1,))),
        max_size=8,
    ))
    def test_matches_reference_clause(self, lits):
        # zeros, repeats, complementary pairs, bools and non-ints, in any
        # order: the same tuple, or the same exception type and message
        try:
            got = ("ok", tuple(Clause(lits)))
        except ValueError as exc:
            got = (type(exc).__name__, str(exc))
        assert got == reference_clause(lits)

    def test_hashable_and_equal(self):
        assert clause(1, -2) == clause(1, -2)
        assert hash(clause(1, -2)) == hash(clause(1, -2))
        assert clause(1, -2) != clause(-2, 1)  # order is part of identity

    @pytest.mark.parametrize("route", ["direct", "dimacs"])
    def test_wide_clause_within_budget(self, route):
        # duplicate checks must stay linear: a quadratic scan takes about
        # 22 s at this width on a 2-vCPU host
        width = 40000
        lits = [v if v % 3 else -v for v in range(1, width + 1)]
        start = time.perf_counter()
        if route == "direct":
            cl = Clause(tuple(lits + lits[:100]))
        else:
            text = f"p cnf {width} 1\n" + " ".join(map(str, lits + lits[:100])) + " 0\n"
            (cl,) = parse_dimacs(text).clauses
        elapsed = time.perf_counter() - start
        assert cl.literals == tuple(lits)
        assert elapsed < 0.5, f"budget exceeded: {elapsed:.2f}s >= 0.5s"


class TestCnfFormula:
    def test_basic_properties(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        assert f.variable_count == 3
        assert f.clause_count == 2
        assert f.max_width == 2
        assert f.density == Fraction(2, 3)

    def test_width_profile(self):
        f = formula([[1], [-1, 2], [-1, -2, 3], [1, 2, 3]], 3)
        assert width_profile(f) == {1: 1, 2: 1, 3: 2}

    def test_empty_formula(self):
        f = formula([], 0)
        assert f.max_width == 0
        assert f.density is None

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="^clause 1 uses variable 4 but variable_count is 3$"):
            formula([[1, 4]], 3)
        # the first offending literal of the first offending clause is named
        with pytest.raises(ValueError, match="^clause 2 uses variable 5 but variable_count is 3$"):
            CnfFormula(((1, 2), (-3, -5, 4), (7,)), 3)

    @pytest.mark.parametrize("kind, lits", [
        pytest.param(kind, lits, id=prefix + name)
        for kind, prefix in ((tuple, ""), (list, "list-"))
        for name, lits in (("zero", (1, 0)), ("tautology", (2, -1, -2)), ("empty", ()),
                           ("bool", (True, -2)), ("float", (1, -2.0)))
    ])
    def test_raw_clause_rejected_with_clause_error(self, kind, lits):
        # the bad clause sits between clean ones, as in the clause lists of
        # formula()
        with pytest.raises(ValueError) as want:
            Clause(lits)
        clauses = tuple(kind(cl) for cl in ((1, 2), lits, (-2,)))
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            CnfFormula(clauses, 2)

    @pytest.mark.parametrize("kind", [tuple, list, iter])
    def test_gate_dedupes_as_clause_does(self, kind):
        f = CnfFormula(tuple(kind(cl) for cl in ((1, -2), (3, 1, 3, -2, 1), (-3,))), 3)
        assert f.clauses == ((1, -2), (3, 1, -2), (-3,))
        assert all(type(cl) is Clause for cl in f.clauses)

    def test_every_builder_hands_clauses_to_the_gate(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])
        built = [
            formula([[1, -2], [2]], 2),
            CnfFormula(([1, -2, 1], (2,)), 2),
            generate_random_ksat(6, 8, 3, seed=3),
            encode_perfect_matching(g).formula,
            encode_hamiltonian_cycle(g).formula,
        ]
        for f in built:
            assert f.clause_count > 0
            assert all(type(cl) is Clause for cl in f.clauses)
        assert built[1].clauses == ((1, -2), (2,))
        with pytest.raises(TautologicalClauseError):
            CnfFormula(((1, -1), (0,), ()), 1)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula((), -1)

    @pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "3", None])
    def test_non_int_variable_count_rejected(self, n):
        # write_dimacs would write a header (p cnf True 1) that parse_dimacs
        # rejects
        with pytest.raises(ValueError, match=f"^variable_count must be an int, got {n!r}$"):
            formula([[1]], n)

    def test_satisfies(self):
        f = formula([[-1, 2], [-2, 3]], 3)
        assert satisfies(f, {1: True, 2: True, 3: True})
        assert satisfies(f, {1: False, 2: False, 3: False})
        assert not satisfies(f, {1: True, 2: False, 3: True})

    def test_satisfies_partial_assignment(self):
        f = formula([[-1, 2]], 2)
        assert satisfies(f, {1: False})  # ~x already satisfies the clause
        assert not satisfies(f, {1: True})  # y still free: not yet satisfied

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_satisfies_matches_oracle(self, data):
        # total assignments, and partial ones that leave variables out or
        # map them to None (free either way)
        n = data.draw(st.integers(1, 8))
        clause_lists = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=min(4, n), unique=True).flatmap(
                lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)).map(list)),
            max_size=12,
        ))
        total = data.draw(st.booleans())
        values = st.booleans() if total else st.sampled_from((True, False, None))
        variables = st.just(range(1, n + 1)) if total else st.sets(st.integers(1, n))
        assignment = {v: data.draw(values) for v in data.draw(variables)}
        f = formula(clause_lists, n)
        assert satisfies(f, assignment) == partial_formula_satisfied(clause_lists, assignment)


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
        # a % line before the header ends the data
        for text in ("%\np cnf 1 0", " %\np cnf 1 1\n1 0", "c\x0c%\np cnf 1 0\n"):
            with pytest.raises(DimacsParseError, match="^missing 'p cnf' header$"):
                parse_dimacs(text)

    def test_negative_header_count_is_a_parse_error(self):
        for text in ("p cnf -1 0\n", "p cnf 2 -1\n"):
            with pytest.raises(DimacsParseError, match="^line 1: negative counts in header"):
                parse_dimacs(text)

    def test_literal_beyond_declared_range(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p cnf 2 1\n1 3 0\n")
        assert exc.value.line == 2

    def test_bad_token_reports_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        assert exc.value.line == 2

    def test_duplicate_header_reports_line(self):
        with pytest.raises(DimacsParseError, match="^line 4: duplicate header$"):
            parse_dimacs("c x\np cnf 2 1\n1 0\n p cnf 2 1\n")

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

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_bulk_path_matches_line_path(self, data):
        # clause lists laid out with spanning clauses, CRLF, \f and \v,
        # blank lines, and +1 and 007 tokens, in blocks as small as 1
        # character, with at most one fault or oddity of the kinds in
        # `oddity`: a repeated or complementary literal, a zero or an
        # out-of-range literal in a clause, a comment line in the body (with
        # or without a %), a % trailer, an unterminated clause, a header
        # count off by one, a malformed header, or a line break that only
        # splitlines sees.  The references are the oracle, and a parse that
        # reads the whole body as one block and sends it to the line step.
        oddity = data.draw(st.sampled_from((
            None, None, None, None, "repeat", "zero", "range", "comment", "trailer",
            "unterminated", "count", "header", "hidden line",
        )))
        n = data.draw(st.integers(1, 8))
        clause_lists = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=min(4, n), unique=True).flatmap(
                lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)).map(list)),
            max_size=8,
        ))
        if clause_lists and oddity in ("repeat", "zero", "range"):
            target = data.draw(st.sampled_from(clause_lists))
            if oddity == "repeat":
                fault = data.draw(st.sampled_from(target)) * data.draw(st.sampled_from((1, -1)))
            elif oddity == "zero":
                fault = 0
            else:
                fault = data.draw(st.sampled_from((n + 1, -n - 1)))
            target.insert(data.draw(st.integers(0, len(target))), fault)
        comment = ("\nc x\n", "\nc 5% x\n") if oddity == "comment" else ()
        gap = st.sampled_from((" ", " ", "\t", "\n", "\r\n", "\x0c", "\x0b", *comment))
        between = st.sampled_from(("\n", "\n", " ", "\r\n", "\n\n", *comment))

        def spell(lit: int) -> str:  # 7, +7, 007, -07, +0, ...
            sign = "-" if lit < 0 else data.draw(st.sampled_from(("", "", "+")))
            return sign + data.draw(st.sampled_from(("", "", "0", "00"))) + str(abs(lit))

        body = "".join(
            data.draw(between) + data.draw(gap).join([*map(spell, cl), "0"])
            for cl in clause_lists
        )
        if oddity == "unterminated":
            body = body[: -len("0")]
        declared = len(clause_lists) + sum(cl.count(0) for cl in clause_lists)
        if oddity == "count":
            declared += data.draw(st.sampled_from((-1, 1)))
        head = data.draw(st.sampled_from(("", "", "c head\n", "\n \n", "c a\r\n", "c 9%\n")))
        if oddity == "hidden line":
            # a line break other than \n hides "1 0" in a comment from a
            # reader that splits at \n alone
            head += data.draw(st.sampled_from(("c\x0b1 0\n", "c\r1 0\n", "c\x851 0\n")))
        header = f"p cnf {n} {declared}"
        if oddity == "header":
            header = data.draw(st.sampled_from((
                f"pp cnf {n} {declared}", f"1 cnf {n} {declared}", f"p cnf {n}",
                f"p cnf -{n} {declared}", f"p cnf {n} {declared} 0", f"p cnf x {declared}",
                f" %\np cnf {n} {declared}", f"c\x0c%\np cnf {n} {declared}",
            )))
        tail = data.draw(st.sampled_from(("\n", "", "\r\n")))
        if oddity == "trailer":
            # a % after a token on the same line is a bad token, unless a
            # line break that only splitlines sees comes first
            tail = data.draw(st.sampled_from(("\n%\n0\n", "\n%", " %\n0\n", "\x0c%\n")))
        text = f"{head}{header}{body}{tail}"
        block_chars = data.draw(st.sampled_from((1, 4, 16, 1 << 16)))

        def outcome():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    f = parse_dimacs(text)
                except ValueError as exc:
                    return (type(exc).__name__, str(exc))
            assert all(type(cl) is Clause for cl in f.clauses)
            assert all(w.category is DimacsWarning for w in caught)
            return ("ok", f.variable_count, list(f.clauses), [str(w.message) for w in caught])

        with mock.patch.object(formula_module, "_BLOCK_CHARS", block_chars):
            got = outcome()
        with mock.patch.object(formula_module, "_BLOCK_CHARS", len(text) + 1), \
                mock.patch.object(formula_module, "_clean_block_clauses", lambda block, n: None):
            assert got == outcome()
        assert got == reference_dimacs(text)

    @pytest.fixture(scope="class")
    def six_blocks(self):
        # 21300 clauses, 380 KB: six blocks
        f = generate_random_ksat(5000, 21300, 3, seed=1)
        return f, write_dimacs(f)

    @pytest.fixture
    def line_steps(self, monkeypatch):
        """The blocks that ``parse_dimacs`` sends to the line step."""
        blocks = []
        line_step = formula_module._parse_lines

        def recording(block, *args):
            blocks.append(block)
            return line_step(block, *args)

        monkeypatch.setattr(formula_module, "_parse_lines", recording)
        return blocks

    def test_write_dimacs_output_takes_bulk_path(self, six_blocks, line_steps):
        enc = encode_hamiltonian_cycle(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))
        built = [
            (formula([], 0), ()),
            (formula([[1]], 1), ("one comment", "")),
            (formula([[-3, 1, 2], [2]], 9), ()),
            (generate_random_ksat(40, 170, 3, seed=4), ()),
            (enc.formula, enc.comment_lines()),
            (six_blocks[0], ()),
        ]
        for f, comments in built:
            assert parse_dimacs(write_dimacs(f, comments)) == f
        assert line_steps == []

    def test_trailer_and_count_mismatch_take_bulk_path(self, six_blocks, line_steps):
        # valid forms that a reader of SATLIB files or of a hand-edited
        # header meets; no block of them needs the line step
        for f in (formula([], 0), formula([[1, -2], [2]], 2), six_blocks[0]):
            text = write_dimacs(f)
            # the last trailer is longer than a block
            for trailer in ("%\n0\n", "%", " %\r\n0\n\n", "\x0c%\n1 2 x\n", "%\n" + "0\n" * 40000):
                assert parse_dimacs(text + trailer) == f
            header = f"p cnf {f.variable_count} {f.clause_count}\n"
            for declared in (f.clause_count - 1, f.clause_count + 1):
                if declared < 0:
                    continue
                wrong = text.replace(header, f"p cnf {f.variable_count} {declared}\n")
                message = f"^header declares {declared} clauses, found {f.clause_count}$"
                with pytest.warns(DimacsWarning, match=message) as caught:
                    assert parse_dimacs(wrong + "%\n0\n") == f
                assert len(caught) == 1 and caught[0].filename == __file__
        assert line_steps == []

    def test_percent_in_a_comment_is_not_a_trailer(self, six_blocks, line_steps):
        # a % that does not start its line leaves the body whole: before the
        # header no block needs the line step, and after it only the block
        # that holds the comment line does
        f, text = six_blocks
        assert parse_dimacs("c 100% sure\n" + text) == f
        assert line_steps == []
        at = text.index("\n", 3 * (1 << 16)) + 1
        assert parse_dimacs(f"{text[:at]}c 50% done\n{text[at:]}") == f
        assert len(line_steps) == 1 and "c 50% done\n" in line_steps[0]
        assert parse_dimacs("p cnf 2 1\nc 50%\n1 0\n %c\n-1 2 0\n") == formula([[1]], 2)

    @pytest.mark.parametrize("line_break", ["\x0c", "\r", "\x0b", "\x85", "\u2028"])
    def test_percent_after_a_token_is_a_bad_token(self, line_break):
        with pytest.raises(DimacsParseError, match="^line 3: bad literal token '%'$"):
            parse_dimacs("p cnf 2 2\n1 0\n1 2 %\n0\n")
        # unless a line break comes between them
        assert parse_dimacs(f"p cnf 2 1\n1 0{line_break}\t %\n0\n") == formula([[1]], 2)

    def test_line_breaks_are_those_of_splitlines(self):
        breaks = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}
        assert breaks == set(formula_module._LINE_BREAKS)

    def test_percent_comments_within_budget(self):
        # finding the % line must stay linear: a search back to the last \n
        # from each % takes about 9 s on this text (CR line ends only) on a
        # 2-vCPU host
        text = "p cnf 1 1\r" + "c 50% done\r" * 20000 + "1 0\r"
        start = time.perf_counter()
        assert parse_dimacs(text) == formula([[1]], 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"budget exceeded: {elapsed:.2f}s >= 0.5s"

    @pytest.mark.parametrize("tail", ["c late\n{last}", "{first} {last}"],
                             ids=["comment", "repeated literal"])
    def test_late_oddity_costs_one_block(self, six_blocks, line_steps, tail):
        f, text = six_blocks
        head, last = text[:-1].rsplit("\n", 1)
        tail = tail.format(first=last.split()[0], last=last) + "\n"
        assert parse_dimacs(f"{head}\n{tail}") == f
        assert len(line_steps) == 1 and line_steps[0].endswith(tail)

    @pytest.mark.parametrize("early_break", ["\n", "\x0c", "\r"], ids=["LF", "FF", "CR"])
    def test_late_fault_names_the_line_of_a_one_block_parse(
        self, six_blocks, line_steps, early_break
    ):
        # the first block's extra line break sits inside a clause, where the
        # bulk step reads it as a space; the line numbers after it count it
        f, text = six_blocks
        head, last = text[:-1].rsplit("\n", 1)
        space = head.index(" ", head.index("\n"))
        head = head[:space] + early_break + head[space + 1 :]
        text = f"{head}\n{-int(last.split()[0])} {last}\n"
        message = f"^line {f.clause_count + 2}: clause {f.clause_count} is tautological"
        with pytest.raises(DimacsParseError, match=message) as blocks:
            parse_dimacs(text)
        assert len(line_steps) == 1
        with mock.patch.object(formula_module, "_BLOCK_CHARS", len(text) + 1), \
                pytest.raises(DimacsParseError) as one_block:
            parse_dimacs(text)
        assert str(blocks.value) == str(one_block.value)
        assert blocks.value.line == one_block.value.line

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
