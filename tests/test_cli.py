from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdfsat import cli
from cdfsat.formula import formula, generate_random_ksat, parse_dimacs, write_dimacs
from cdfsat.logic import HEURISTICS

from _oracles import components, fast_count_models, fast_satisfiable, naive_unit_closure

CHAIN = "p cnf 3 2\n-1 2 0\n-2 3 0\n"
WIDE = "p cnf 3 1\n-1 -2 3 0\n"


def _cli_env(env_extra=None):
    env = os.environ.copy()
    env.pop("CDFSAT_CAP", None)
    env.pop("CDFSAT_THETA", None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None, stdin_text=None, **run_options):
    return subprocess.run(
        [sys.executable, "-m", "cdfsat.cli", *args],
        capture_output=True,
        text=True,
        env=_cli_env(env_extra),
        input=stdin_text,
        **run_options,
    )


def _cap_address_space(mib=1024):
    resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))


def _refuse_constant(name):
    # json.loads calls this for NaN, Infinity and -Infinity, which are not JSON
    raise ValueError(f"not JSON: {name}")


def run_main(argv):
    """Exit code of one in-process ``cli.main`` call, usage errors included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.cnf"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.cnf"
    path.write_text(WIDE)
    return str(path)


class TestAnalyze:
    def test_chain_report(self, chain_file):
        proc = run_cli("analyze", chain_file)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["classification"]["verdict"] == "ComCDF"
        assert report["semantics"]["imageCount"] == 4
        assert report["logic"]["dpll"]["backtrackCount"] == 0
        assert report["logic"]["twoSat"]["result"] == "SAT"
        assert report["formula"]["widthProfile"] == {"2": 2}
        assert report["provenance"]["version"]
        assert "verdict" in proc.stderr

    def test_wide_report(self, wide_file):
        proc = run_cli("analyze", wide_file)
        report = json.loads(proc.stdout)
        assert report["classification"]["verdict"] == "ExpCDF"
        witness = report["classification"]["compositionality"]["witness"]
        assert witness["clause"] == [-1, -2, 3]
        assert witness["assignment"] == [1]
        assert witness["betaAlphaForced"] == "undefined"
        assert report["logic"]["twoSat"] is None

    def test_quiet_suppresses_summary(self, chain_file):
        proc = run_cli("analyze", chain_file, "--quiet")
        assert proc.stderr == ""
        json.loads(proc.stdout)

    def test_stdin_input(self):
        proc = run_cli("analyze", "-", "--quiet", stdin_text=CHAIN)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["provenance"]["input"] == "-"

    def test_zero_variable_formula(self, capsys, monkeypatch):
        # n = 0 fits the materialization cap of 0 that analyze passes, so
        # this is the one analyze report that is not count-only
        monkeypatch.delenv("CDFSAT_CAP", raising=False)
        text = "p cnf 0 0\n"
        code, report = _analyze_in_process(text)
        assert code == 0
        assert report["semantics"] == {"intractable": False, "imageCount": 1,
                                       "log2Count": 0.0, "representation": "enumerated"}
        dpll = report["logic"]["dpll"]
        assert (dpll["result"], dpll["model"], dpll["nodeCount"], dpll["depth"]) == (
            "SAT", [], 1, 0)
        assert report["logic"]["twoSat"]["result"] == "SAT"
        assert report["classification"]["compositionality"]["checkedSeeds"] == 1
        for kind, dot in [
            ("trace", 'digraph derivation_trace {\n  rankdir=TB;\n  n0 [label="Start (SAT)"];\n}\n'),
            ("implication-graph", "digraph implication_graph {\n  rankdir=LR;\n}\n"),
        ]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run_main(["export-dot", kind, "-"]) == 0
            assert capsys.readouterr().out == dot

    def test_no_timestamps_in_report(self, chain_file):
        report = json.loads(run_cli("analyze", chain_file).stdout)

        def keys_of(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k.lower()
                    yield from keys_of(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys_of(v)

        for key in keys_of(report):
            for needle in ("time", "date", "stamp"):
                assert needle not in key

    def test_intractable_exits_2(self, tmp_path):
        path = tmp_path / "big.cnf"  # one 30-variable chain: a component past the cap
        path.write_text("p cnf 30 29\n" + "".join(f"{i} {i + 1} 0\n" for i in range(1, 30)))
        proc = run_cli("analyze", str(path), "--quiet")
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["semantics"]["intractable"] is True
        assert report["semantics"]["imageCount"] is None
        assert report["classification"]["verdict"]  # analysis still present

    def test_missing_file_exits_1(self):
        proc = run_cli("analyze", "/nonexistent/file.cnf")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_malformed_dimacs_exits_1(self, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 x 0\n")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 1

    def test_satlib_trailer_accepted(self):
        proc = run_cli("analyze", "-", "--quiet", stdin_text="p cnf 3 1\n1 -2 3 0\n%\n0\n")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["formula"]["clauseCount"] == 1

    def test_header_count_mismatch_warns_in_one_line(self):
        proc = run_cli("analyze", "-", "--quiet", stdin_text="p cnf 3 5\n1 2 0\n")
        assert proc.returncode == 0
        assert proc.stderr == "cdfsat: warning: header declares 5 clauses, found 1\n"
        fixed = run_cli("analyze", "-", "--quiet", stdin_text="p cnf 3 1\n1 2 0\n")
        assert proc.stdout == fixed.stdout

    def test_header_count_mismatch_warns_on_every_call(self, tmp_path, capsys):
        path = tmp_path / "mismatch.cnf"
        path.write_text("p cnf 3 5\n1 2 0\n")
        for argv in [["analyze", str(path), "--quiet"], ["export-dot", "trace", str(path)]] * 2:
            assert run_main(argv) == 0
            assert capsys.readouterr().err == (
                "cdfsat: warning: header declares 5 clauses, found 1\n"
            )

    def test_narrow_unsat_search_stops_at_autarky(self, tmp_path, capsys, monkeypatch):
        # 8 free clauses (x_i | y_i), then an UNSAT core on a, b, c: DPLL
        # refuted the core under each of the 2^8 settings of x (1790 nodes,
        # 511 backtracks) before it stopped at autarkic levels
        monkeypatch.delenv("CDFSAT_CAP", raising=False)
        k = 8
        a, b, c = 2 * k + 1, 2 * k + 2, 2 * k + 3
        clause_lists = [[i, k + i] for i in range(1, k + 1)]
        clause_lists += [[a, b], [a, -b], [-a, c], [-a, -c]]
        path = tmp_path / "thrash.cnf"
        path.write_text(write_dimacs(formula(clause_lists, 2 * k + 3)))
        assert run_main(["analyze", str(path), "--quiet"]) == 0
        dpll = json.loads(capsys.readouterr().out)["logic"]["dpll"]
        assert dpll["result"] == "UNSAT"
        assert (dpll["backtrackCount"], dpll["branchCount"], dpll["nodeCount"]) == (1, 1, 13)

    def test_largest_unsat_2sat_ends_in_report(self):
        # the largest size the variable limit admits; DPLL was killed by the
        # host before it finished, and the child gets 1 GiB and 20 s so that
        # a regression fails here instead
        text = write_dimacs(generate_random_ksat(14000, 14000, 2, 1))
        proc = run_cli("analyze", "-", "--quiet", stdin_text=text,
                       timeout=20, preexec_fn=_cap_address_space)
        assert "Traceback" not in proc.stderr
        # its giant component is past the cap, and the refutation counts it
        assert proc.returncode == 0
        report = json.loads(proc.stdout, parse_constant=_refuse_constant)
        assert report["semantics"] == {"intractable": False, "imageCount": 0,
                                       "log2Count": None, "representation": "count-only"}
        assert report["logic"]["dpll"]["result"] == "UNSAT"
        assert report["logic"]["twoSat"]["result"] == "UNSAT"

    def test_long_search_keeps_no_tree(self):
        # 3,453,523 search nodes: keeping the tree raised MemoryError at 128
        # and 192 MiB, and the report needs only the search's counters
        text = write_dimacs(generate_random_ksat(110, 469, 3, 3))
        proc = run_cli("analyze", "-", "--quiet", stdin_text=text, timeout=60,
                       preexec_fn=lambda: _cap_address_space(128))
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        dpll = json.loads(proc.stdout, parse_constant=_refuse_constant)["logic"]["dpll"]
        assert (dpll["result"], dpll["nodeCount"]) == ("UNSAT", 3453523)


def _analyze_in_process(text: str, *options: str) -> tuple[int, dict]:
    """Exit code and strictly parsed report of ``analyze -`` on ``text``."""
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", "-", "--quiet", *options])
    finally:
        sys.stdin = saved
    return code, json.loads(out.getvalue(), parse_constant=_refuse_constant)


@st.composite
def _formulas_with_units(draw):
    """(clauses, n): n <= 16, up to n unit clauses among up to 3n clauses
    of widths 1-3, each over distinct variables with random signs."""
    n = draw(st.integers(1, 16))

    def clause(max_width: int) -> list[int]:
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_width,
                                  unique=True))
        return [v if draw(st.booleans()) else -v for v in variables]

    units = [clause(1) for _ in range(draw(st.integers(0, n)))]
    rest = [clause(3) for _ in range(draw(st.integers(0, 3 * n)))]
    return draw(st.permutations(units + rest)), n


class TestCountFromSearch:
    """Past the cap, ``analyze`` takes the count from the search when the
    search settles it: 0 for a refuted formula, 2^free for one that root
    propagation satisfies before any decision."""

    @settings(max_examples=300, deadline=None)
    @given(_formulas_with_units(), st.integers(0, 3))
    # two units force x3 through a width-3 clause (a refutation pair, one
    # branch and no decision), then the chain forces the rest: one model
    @example(([[1], [2], [-1, -2, 3]] + [[-i, i + 1] for i in range(3, 7)], 7), 3)
    def test_counts_match_oracle(self, drawn, cap):
        clauses, n = drawn
        text = write_dimacs(formula(clauses, n))
        sections = []
        for heuristic in HEURISTICS:
            code, report = _analyze_in_process(text, "--cap", str(cap),
                                               "--heuristic", heuristic)
            assert code == (2 if report["semantics"]["intractable"] else 0)
            sections.append(report["semantics"])
        assert sections[0] == sections[1]
        semantics = sections[0]

        largest = max((len(variables) for variables, members in components(clauses, n)
                       if len(members) > 1), default=0)
        forced, _ = naive_unit_closure(clauses, [])
        settled = all(any(lit in forced for lit in cl) for cl in clauses)
        expected = largest > cap and fast_satisfiable(clauses, n) and not settled
        assert semantics["intractable"] == expected
        if not expected:
            count = fast_count_models(clauses, n)
            assert semantics["imageCount"] == count
            assert semantics["log2Count"] == (math.log2(count) if count else None)

    @pytest.mark.parametrize(
        "f, count",
        [
            pytest.param(generate_random_ksat(200, 200, 2, 43), 0, id="refuted 2-SAT"),
            pytest.param(generate_random_ksat(40, 170, 3, 4), 0, id="refuted 3-SAT"),
            pytest.param(formula([[1]] + [[-i, i + 1] for i in range(1, 3000)], 3020),
                         2**20, id="unit chain"),
            pytest.param(formula([[1], [2], [-1, -2, 3]] + [[-i, i + 1] for i in range(3, 40)],
                                 40), 1, id="forced through a wide clause"),
            pytest.param(formula([[i, i + 1] for i in range(1, 30)], 30), None,
                         id="SAT after a decision"),
            pytest.param(formula([[1, 2], [-1, 2], [1, -2], [-1, -2]], 2), 0,
                         id="refuted within the cap"),
        ],
    )
    def test_semantics_section(self, f, count, monkeypatch):
        monkeypatch.delenv("CDFSAT_CAP", raising=False)
        code, report = _analyze_in_process(write_dimacs(f))
        semantics = report["semantics"]
        if count is None:
            assert code == 2
            assert semantics == {"intractable": True, "imageCount": None,
                                 "variableCount": f.variable_count, "cap": 26}
        else:
            assert code == 0
            assert semantics == {
                "intractable": False, "imageCount": count,
                "log2Count": math.log2(count) if count else None,
                "representation": "count-only",
            }


class TestConfigPrecedence:
    def test_env_cap_lowers_limit(self, chain_file):
        proc = run_cli("analyze", chain_file, "--quiet", env_extra={"CDFSAT_CAP": "2"})
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["semantics"]["intractable"] is True

    def test_flag_overrides_env_cap(self, chain_file):
        proc = run_cli(
            "analyze", chain_file, "--quiet", "--cap", "3",
            env_extra={"CDFSAT_CAP": "2"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["semantics"]["imageCount"] == 4

    def test_env_theta_shifts_verdict(self, wide_file):
        proc = run_cli(
            "analyze", wide_file, "--quiet", env_extra={"CDFSAT_THETA": "1.0"}
        )
        assert json.loads(proc.stdout)["classification"]["verdict"] == "SemiExpCDF"

    def test_flag_overrides_env_theta(self, wide_file):
        proc = run_cli(
            "analyze", wide_file, "--quiet", "--theta", "0.5",
            env_extra={"CDFSAT_THETA": "1.0"},
        )
        assert json.loads(proc.stdout)["classification"]["verdict"] == "ExpCDF"

    def test_bad_env_value_exits_1(self, chain_file):
        proc = run_cli("analyze", chain_file, env_extra={"CDFSAT_CAP": "many"})
        assert proc.returncode == 1
        assert "CDFSAT_CAP" in proc.stderr

    @pytest.mark.parametrize(
        "cap_args, env",
        [(("--cap", "70"), None), ((), {"CDFSAT_CAP": "70"})],
        ids=["flag", "env"],
    )
    def test_cap_above_mask_width_is_usage_error(self, tmp_path, cap_args, env):
        path = tmp_path / "seventy.cnf"
        path.write_text("p cnf 70 3\n1 70 0\n1 -70 0\n2 3 0\n")
        proc = run_cli("analyze", str(path), *cap_args, env_extra=env)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("cdfsat: error: enumeration cap must be <= 63")
        assert "Traceback" not in proc.stderr

    def test_cap_at_mask_width_accepted(self, tmp_path):
        path = tmp_path / "seventy.cnf"  # one 70-variable chain, past the cap of 63
        path.write_text("p cnf 70 69\n" + "".join(f"{i} {i + 1} 0\n" for i in range(1, 70)))
        proc = run_cli("analyze", str(path), "--quiet", "--cap", "63")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["semantics"]["cap"] == 63

    def test_config_recorded_in_provenance(self, chain_file):
        proc = run_cli(
            "analyze", chain_file, "--quiet", "--theta", "0.25",
            "--heuristic", "most-occurrences",
        )
        config = json.loads(proc.stdout)["provenance"]["config"]
        assert config == {
            "enumerationCap": 26,
            "theta": 0.25,
            "heuristic": "most-occurrences",
        }


class TestGrowth:
    def test_disjoint_k3_family(self):
        proc = run_cli(
            "growth", "--k", "3", "--n", "9,12,15,18", "--density", "1/3",
            "--disjoint", "--seed", "11", "--quiet",
        )
        assert proc.returncode == 0
        fit = json.loads(proc.stdout)["growth"]
        assert fit["preferredModel"] == "Exponential"
        assert math.isclose(fit["impliedBase"], 7 ** (1 / 3), rel_tol=1e-6)
        assert fit["failedN"] == []

    def test_csv_format(self):
        proc = run_cli(
            "growth", "--k", "2", "--n", "4,6,8", "--density", "1/2",
            "--disjoint", "--format", "csv", "--quiet",
        )
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "n,imageSize,logImageBits"
        assert len(lines) == 4
        assert lines[1].startswith("4,9,")  # (2^2-1)^2 models at n=4

    def test_provenance_records_family(self):
        proc = run_cli(
            "growth", "--k", "2", "--n", "4,6,8", "--density", "1/2",
            "--disjoint", "--seed", "3", "--quiet",
        )
        prov = json.loads(proc.stdout)["provenance"]
        assert prov["seed"] == 3
        assert prov["config"]["k"] == 2
        assert prov["config"]["density"] == "1/2"
        assert prov["config"]["nValues"] == [4, 6, 8]

    def test_too_few_sizes_exits_1(self):
        proc = run_cli("growth", "--k", "2", "--n", "4,6")
        assert proc.returncode == 1

    def test_non_increasing_sizes_exit_1(self):
        proc = run_cli("growth", "--k", "2", "--n", "4,4,6")
        assert proc.returncode == 1

    def test_impossible_disjoint_family_exits_1(self):
        proc = run_cli(
            "growth", "--k", "3", "--n", "4,5,6", "--density", "1", "--disjoint"
        )
        assert proc.returncode == 1

    def test_partial_family_exits_2(self):
        # n=28 member overlaps with near-certainty and exceeds the tiny cap
        proc = run_cli(
            "growth", "--k", "3", "--n", "4,5,6,28", "--density", "2",
            "--seed", "0", "--cap", "8", "--quiet",
        )
        assert proc.returncode == 2
        fit = json.loads(proc.stdout)["growth"]
        assert 28 in fit["failedN"]

    def test_two_surviving_sizes_exit_2(self):
        # the n=28 member exceeds the cap, which leaves two sizes to fit
        proc = run_cli(
            "growth", "--k", "3", "--n", "4,5,28", "--density", "2", "--cap", "8",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("cdfsat: error: need at least 3 measured samples")

    @pytest.mark.parametrize("args, message", [
        (("--k", "3", "--density", "1/2", "--n", "1,2,3"),
         "cannot pick 3 distinct variables out of 2"),
        (("--k", "2", "--density", "2/3", "--n", "1,2,3", "--disjoint"),
         "disjoint mode needs m*k <= n, got m=2 k=2 n=3"),
    ], ids=["k past n", "disjoint"])
    def test_later_size_that_cannot_be_drawn_exits_1(self, args, message):
        # n=1 draws no clause; only n=2 or n=3 cannot be drawn
        proc = run_cli("growth", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"cdfsat: error: {message}\n"

    def test_each_member_drawn_once(self, monkeypatch, capsys):
        drawn = []
        draw = cli.generate_random_ksat

        def recording(n, *args, **kwargs):
            drawn.append(n)
            return draw(n, *args, **kwargs)

        monkeypatch.setattr(cli, "generate_random_ksat", recording)
        assert run_main(["growth", "--k", "3", "--n", "4,5,6", "--density", "1"]) == 0
        assert drawn == [4, 5, 6]

    @pytest.mark.parametrize("density", ["1e400", "100001"])
    def test_clause_count_past_limit_exits_1(self, density):
        # without the limit, 1e400 draws floor(density * n) clauses until
        # memory gives out; the child gets 1 GiB and 20 s, so that such a
        # regression fails here instead of starving the host
        proc = run_cli(
            "growth", "--k", "3", "--n", "4,5,6", "--density", density,
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: cdfsat [-h] [--version]")
        assert "more than 100000 clauses at n=6" in proc.stderr

    def test_size_past_limit_exits_1(self):
        # without the limit, the disjoint family deals all 2*10^6 variables
        # (seconds and over 100 MiB) and then fails on Python's 4300-digit
        # int-to-string limit when the report prints 2^(n-1)
        proc = run_cli(
            "growth", "--k", "1", "--n", "1,2,2000000", "--density", "1/2000000",
            "--disjoint", "--quiet", timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: cdfsat [-h] [--version]")
        assert "error: --n sizes must be <= 14000" in proc.stderr
        assert "Exceeds the limit" not in proc.stderr

    def test_largest_size_prints_exact_image(self, capsys):
        args = ["growth", "--k", "1", "--n", "1,2,14000", "--density", "1/14000",
                "--disjoint", "--quiet"]
        assert run_main(args) == 0
        out, _ = capsys.readouterr()
        samples = json.loads(out)["growth"]["samples"]
        assert samples[-1]["n"] == 14000
        assert samples[-1]["imageSize"] == 2**13999

    @pytest.mark.parametrize("density", ["1e-5000", "1e3000000", "1e-30000000", "1/0"])
    def test_unparsable_density_exits_1(self, density):
        # Fraction expands a decimal exponent into an exact integer: 1e3000000
        # took seconds to parse, 1e-30000000 most of a minute, and 1e-5000
        # failed later on Python's int-to-string limit; 1/0 was a traceback
        proc = run_cli(
            "growth", "--k", "3", "--n", "4,5,6", "--density", density,
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: cdfsat growth ")
        assert "error: argument --density: " in proc.stderr
        assert "Exceeds the limit" not in proc.stderr

    def test_density_digits_stop_at_int_string_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        args = ["growth", "--k", "2", "--n", "4,6,8", "--quiet", "--density"]
        # 10**(limit - 1) has exactly `limit` digits, 10**limit one more
        assert run_main(args + [f"1e-{limit - 1}"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["provenance"]["config"]["density"] == f"1/1{'0' * (limit - 1)}"
        assert run_main(args + [f"1e-{limit}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"has more than {limit} digits above or below the line\n")

    def test_density_digits_stop_at_a_lowered_limit(self, capsys):
        saved = sys.get_int_max_str_digits()
        limit = 640
        sys.set_int_max_str_digits(limit)
        try:
            args = ["growth", "--k", "2", "--n", "4,6,8", "--quiet", "--density"]
            # 2**2126 has 640 digits and the bit length of 10**640, so only the
            # exact comparison can tell the two apart
            for density, shown in [(f"1e-{limit - 1}", f"1/1{'0' * (limit - 1)}"),
                                   (f"5e-{limit}", f"1/2{'0' * (limit - 1)}"),
                                   (f"1/{2**2126}", f"1/{2**2126}")]:
                assert run_main(args + [density]) == 0
                out, _ = capsys.readouterr()
                assert json.loads(out)["provenance"]["config"]["density"] == shown
            for density in [f"1e-{limit}", f"1e{limit}"]:
                assert run_main(args + [density]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err.endswith(f"has more than {limit} digits above or below the line\n")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_density_sign_is_not_a_digit(self, capsys):
        # 640 nines fit a limit of 640 digits, and so does their negation
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            args = ["growth", "--k", "2", "--n", "4,6,8", "--quiet", "--density", "-" + "9" * 640]
            assert run_main(args) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith("error: --density must be positive\n")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_clause_limit_counts_the_largest_member(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_CLAUSES", 6)
        args = ["growth", "--k", "2", "--n", "4,6,8", "--quiet", "--density"]
        assert run_main(args + ["3/4"]) == 0  # 6 clauses at n=8
        capsys.readouterr()
        assert run_main(args + ["7/8"]) == 1  # 7 clauses at n=8
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: --density gives more than 6 clauses at n=8\n")


class TestEncode:
    def test_matching_round_trips_as_dimacs(self, tmp_path):
        path = tmp_path / "c4.graph"
        path.write_text("v 4\n0 1\n1 2\n2 3\n3 0\n")
        proc = run_cli("encode", "matching", str(path))
        assert proc.returncode == 0
        f = parse_dimacs(proc.stdout)
        assert f.variable_count == 4
        assert "var 1 = edge (0,1)" in proc.stdout
        assert "4 variables" in proc.stderr

    def test_hamiltonian_encoding(self, tmp_path):
        path = tmp_path / "k3.graph"
        path.write_text("v 3\n0 1\n1 2\n2 0\n")
        proc = run_cli("encode", "hamiltonian", str(path))
        f = parse_dimacs(proc.stdout)
        assert f.variable_count == 9

    def test_isolated_vertex_warning(self, tmp_path):
        path = tmp_path / "iso.graph"
        path.write_text("v 3\n0 1\n")
        proc = run_cli("encode", "matching", str(path))
        assert proc.returncode == 0
        assert "isolated" in proc.stderr

    def test_bad_graph_exits_1(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("v 2\n0 5\n")
        proc = run_cli("encode", "matching", str(path))
        assert proc.returncode == 1

    def test_unknown_problem_exits_1(self, tmp_path):
        proc = run_cli("encode", "clique", "whatever")
        assert proc.returncode == 1


class TestEuler:
    def test_report(self, tmp_path):
        path = tmp_path / "p3.graph"
        path.write_text("v 3\n0 1\n1 2\n")
        proc = run_cli("euler", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["eulerianPath"] == {
            "exists": True,
            "oddCount": 2,
            "connected": True,
        }
        assert "eulerian path exists" in proc.stderr


class TestProve:
    def test_tautology_with_derivation(self, tmp_path, data_dir):
        proc = run_cli(
            "prove", "A -> (B -> A)",
            "--derivation", str(data_dir / "weakening.json"), "--quiet",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tautology"] is True
        assert report["truthTable"]["rowCount"] == 4
        assert report["cost"] == {"semantic": 4, "syntactic": 5}
        assert report["derivation"]["valid"] is True

    def test_non_tautology(self):
        proc = run_cli("prove", "A -> B", "--quiet")
        report = json.loads(proc.stdout)
        assert report["tautology"] is False
        assert report["cost"]["syntactic"] is None

    def test_invalid_derivation_still_exits_0(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                [
                    {"formula": "A", "rule": "assumption"},
                    {"formula": "B", "rule": "reiteration", "of": 1},
                ]
            )
        )
        proc = run_cli("prove", "A -> A", "--derivation", str(bad), "--quiet")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["derivation"]["valid"] is False
        assert report["cost"]["syntactic"] is None

    def test_unparsable_formula_exits_1(self):
        proc = run_cli("prove", "A -> $")
        assert proc.returncode == 1

    def test_malformed_derivation_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        proc = run_cli("prove", "A", "--derivation", str(bad))
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "formula",
        [
            "~" * 1200 + "A",
            "(" * 300 + "A" + ")" * 300,
            " & ".join(["A"] * 1500),
            " -> ".join(["A"] * 1500),
        ],
        ids=["negations", "parentheses", "and-chain", "implies-chain"],
    )
    def test_too_deep_formula_exits_1(self, formula):
        proc = run_cli("prove", formula, "--quiet")
        assert proc.returncode == 1, proc.stderr
        assert "nesting deeper than" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_derivation_exits_1(self, tmp_path):
        # the JSON decoder recurses per level: 1100 levels ended in a
        # RecursionError traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        proc = run_cli("prove", "A", "--derivation", str(deep), "--quiet")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "cdfsat: error: derivation file is nested too deeply\n"

    @pytest.mark.parametrize(
        "step",
        [
            {"formula": "A", "rule": "reiteration", "of": [1]},
            {"formula": "A", "rule": "reiteration", "of": 1.5},
            {"formula": "A", "rule": "reiteration", "of": True},
            {"formula": 5, "rule": "assumption"},
            {"formula": "A", "rule": ["assumption"]},
        ],
        ids=["list-ref", "float-ref", "bool-ref", "number-formula", "list-rule"],
    )
    def test_mistyped_derivation_step_exits_1(self, tmp_path, step):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"formula": "A", "rule": "assumption"}, step]))
        proc = run_cli("prove", "A -> A", "--derivation", str(bad), "--quiet")
        assert proc.returncode == 1, proc.stderr
        assert "cdfsat: error: step 2: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_widest_truth_table_within_budget(self):
        # 20 atoms is TRUTH_TABLE_ATOM_CAP: 2^20 rows
        goal = " | ".join(f"A{i}" for i in range(20))
        start = time.monotonic()
        proc = run_cli("prove", goal, "--quiet")
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["tautology"] is False
        assert report["truthTable"]["rowCount"] == 1 << 20
        assert elapsed < 3.0, f"budget exceeded: {elapsed:.2f}s >= 3.0s"

    def test_table_in_stderr_summary(self):
        proc = run_cli("prove", "A -> A")
        assert "tautology: yes" in proc.stderr
        assert "A | value" in proc.stderr


class TestExportDot:
    def test_implication_graph(self, chain_file):
        proc = run_cli("export-dot", "implication-graph", chain_file)
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph implication_graph {")
        assert '"x1" -> "x2";' in proc.stdout

    def test_trace(self, wide_file):
        proc = run_cli("export-dot", "trace", wide_file)
        assert proc.returncode == 0
        assert "UNSAT" in proc.stdout

    # chain: a 3000-deep propagation chain; pairs: 1500 decisions, each
    # followed by one propagation.  Both search 3000 deep, past Python's
    # default recursion limit.  The chain's 3000 overlapping variables are
    # one component past the cap, but propagation at the root satisfies it
    # with no decision, so its one model is counted; the pairs are
    # disjoint clauses, counted exactly by the product law.
    @pytest.mark.parametrize(
        "clauses, count",
        [
            pytest.param([[1]] + [[-i, i + 1] for i in range(1, 3000)], 1, id="chain"),
            pytest.param([[-i, -(i + 1)] for i in range(1, 3000, 2)], 3**1500, id="pairs"),
        ],
    )
    def test_deep_chain_within_budget(self, clauses, count):
        n = 3000
        text = f"p cnf {n} {len(clauses)}\n" + "".join(
            " ".join(map(str, cl)) + " 0\n" for cl in clauses
        )
        start = time.monotonic()
        analyze = run_cli("analyze", "-", "--quiet", stdin_text=text)
        dot = run_cli("export-dot", "trace", "-", stdin_text=text)
        elapsed = time.monotonic() - start
        assert analyze.returncode == 0, analyze.stderr
        report = json.loads(analyze.stdout)
        assert report["logic"]["dpll"]["depth"] == n
        assert report["semantics"]["imageCount"] == count
        assert dot.returncode == 0, dot.stderr
        assert dot.stdout.count(" [label=") == n + 1
        assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s >= 5.0s"

    def test_long_trace_fits_the_cap(self, tmp_path):
        # 4,640,823 search nodes and 309,844,122 bytes of DOT: rendering the
        # stored tree raised MemoryError under this cap.  The text is read
        # in pieces, so that only the child holds all of it.
        path = tmp_path / "n120.cnf"
        path.write_text(write_dimacs(generate_random_ksat(120, 511, 3, 120)))
        with subprocess.Popen([sys.executable, "-m", "cdfsat.cli", "export-dot", "trace",
                               str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_cli_env(), preexec_fn=_cap_address_space) as proc:
            size = lines = 0
            head = piece = proc.stdout.read(1 << 16)
            tail = b""
            while piece:
                size += len(piece)
                lines += piece.count(b"\n")
                tail = (tail + piece)[-2:]
                piece = proc.stdout.read(1 << 20)
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert code == 0
        assert head.startswith(b"digraph derivation_trace {\n")
        assert tail == b"}\n"
        assert size == 309844122
        # the header, a node line and an edge line per node but the root's,
        # and the closing brace
        assert lines == 2 * 4640823 + 2

    def test_wide_clause_has_no_implication_graph(self, wide_file):
        proc = run_cli("export-dot", "implication-graph", wide_file)
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestVariableLimit:
    # without the limit, 10^8 variables ran out of the child's 1 GiB in
    # DPLL's per-variable order list (a MemoryError traceback after
    # seconds), and 15000 variables counted 3 * 2^14998, which has more
    # than 4300 digits and failed at JSON emission
    @pytest.mark.parametrize(
        "command, n",
        [
            (["analyze"], 10**8),
            (["export-dot", "trace"], 10**8),
            (["export-dot", "implication-graph"], 10**8),
            (["analyze"], 15000),
        ],
    )
    def test_declared_count_past_limit_exits_1(self, command, n):
        proc = run_cli(
            *command, "-", stdin_text=f"p cnf {n} 1\n1 2 0\n",
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"cdfsat: error: {n} variables exceed the limit of 14000\n"

    @pytest.mark.parametrize("command", [["analyze"], ["export-dot", "implication-graph"]])
    def test_uncounted_formula_past_limit_exits_1(self, tmp_path, capsys, command):
        # an overlapping 2-SAT chain prints no count (analyze reports it
        # intractable, export-dot never counts), and the limit still holds
        n = cli.MAX_VARIABLES + 1
        path = tmp_path / "chain.cnf"
        path.write_text(f"p cnf {n} 2\n-1 2 0\n-2 3 0\n")
        assert run_main([*command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cdfsat: error: {n} variables exceed the limit of 14000\n"

    def test_largest_count_prints_exact_image(self, tmp_path, capsys):
        path = tmp_path / "limit.cnf"
        path.write_text("p cnf 14000 1\n1 2 0\n")
        assert run_main(["analyze", str(path), "--quiet"]) == 0
        out, _ = capsys.readouterr()
        count = json.loads(out)["semantics"]["imageCount"]
        assert count == 3 * 2**13998
        assert len(str(count)) == 4215


class TestGraphLimits:
    # without the limits, under 1 GiB: matching on 3000000 vertices and
    # hamiltonian on 118 or 200 vertices ended in a MemoryError traceback
    # after 12-19 s, and euler on 20000000 vertices took 7 s
    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["encode", "matching"], "v 3000000\n0 1\n", "3000000 vertices exceed the limit of 14000"),
            (["encode", "hamiltonian"], "v 118\n0 1\n", "3258216 clauses exceed the limit of 100000"),
            (["encode", "hamiltonian"], "v 200\n", "15920400 clauses exceed the limit of 100000"),
            (["euler"], "v 20000000\n0 1\n", "20000000 vertices exceed the limit of 14000"),
        ],
        ids=["matching", "hamiltonian-118", "hamiltonian-200", "euler"],
    )
    def test_graph_past_limit_exits_1(self, command, text, message):
        proc = run_cli(
            *command, "-", stdin_text=text, timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"cdfsat: error: {message}\n"

    def test_encoding_near_clause_limit_admitted(self):
        # the complete graph on 46 vertices: 95312 clauses; on 47, 101708
        n = 46
        text = f"v {n}\n" + "".join(f"{a} {b}\n" for a in range(n) for b in range(a + 1, n))
        proc = run_cli(
            "encode", "hamiltonian", "-", stdin_text=text,
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 0
        assert parse_dimacs(proc.stdout).clause_count == 95312

    @pytest.mark.parametrize("problem, clause_count", [("matching", 16), ("hamiltonian", 56)])
    def test_clause_limit_counts_the_encoding(self, tmp_path, monkeypatch, capsys,
                                               problem, clause_count):
        path = tmp_path / "k4.graph"
        path.write_text("v 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        monkeypatch.setattr(cli, "MAX_CLAUSES", clause_count)
        assert run_main(["encode", problem, str(path)]) == 0
        out, _ = capsys.readouterr()
        assert parse_dimacs(out).clause_count == clause_count
        monkeypatch.setattr(cli, "MAX_CLAUSES", clause_count - 1)
        assert run_main(["encode", problem, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cdfsat: error: {clause_count} clauses exceed the limit of {clause_count - 1}\n"


_JSON_STR = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters(),
                    max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _JSON_STR
    | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300)) | st.floats(),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5) | st.dictionaries(_JSON_STR, inner, max_size=5),
    max_leaves=30,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, Fraction(1, 2), [b"x"],
                                       [[object()]]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


# argv for main, and the two-level parse it must match byte for byte; F is a
# DIMACS file and G an edge list
DISPATCH_ARGV = {
    "no arguments": [],
    "unknown command": ["frobnicate"],
    "version": ["--version"],
    "help": ["-h"],
    "analyze, no input": ["analyze"],
    "analyze help": ["analyze", "-h"],
    "analyze, unknown option": ["analyze", "F", "--bogus"],
    "analyze, extra argument": ["analyze", "F", "extra"],
    "analyze, top-level option after the command": ["analyze", "F", "--version"],
    "analyze, bad --cap": ["analyze", "--cap", "x", "F"],
    "analyze, abbreviated --quiet": ["analyze", "--qui", "F"],
    "export-dot, bad kind": ["export-dot", "nope", "-"],
    "export-dot, bad heuristic": ["export-dot", "trace", "F", "--heuristic", "bad"],
    "growth, two sizes": ["growth", "--k", "3", "--n", "1,2"],
    "growth, density 1/0": ["growth", "--k", "3", "--n", "4,5,6", "--density", "1/0"],
    "analyze": ["analyze", "F"],
    "growth": ["growth", "--k", "2", "--n", "4,5,6"],
    "encode": ["encode", "matching", "G"],
    "euler": ["euler", "G"],
    "prove": ["prove", "A -> (B -> A)"],
    "export-dot": ["export-dot", "implication-graph", "F"],
}


def _two_level_main(argv):
    """``main`` as it was when the top-level parser parsed every line."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cdfsat: error: {exc}", file=sys.stderr)
        return 1


class TestUsage:
    @pytest.mark.parametrize("argv", DISPATCH_ARGV.values(), ids=DISPATCH_ARGV.keys())
    def test_dispatch_matches_two_level_parse(self, argv, chain_file, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.delenv("CDFSAT_CAP", raising=False)
        monkeypatch.delenv("CDFSAT_THETA", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap to the terminal
        graph = tmp_path / "edge.txt"
        graph.write_text("v 2\n0 1\n")
        argv = [{"F": chain_file, "G": str(graph)}.get(a, a) for a in argv]
        outputs = []
        for run in (cli.main, _two_level_main):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_no_command_exits_1(self):
        assert run_cli().returncode == 1

    def test_unknown_command_exits_1(self):
        assert run_cli("frobnicate").returncode == 1

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "cdfsat" in proc.stdout

    def test_main_calls_in_one_process_match_fresh_processes(
        self, chain_file, capsys, monkeypatch
    ):
        # main reuses one parser for the whole process; a usage error or a
        # report must leave nothing on it that changes a later call
        monkeypatch.delenv("CDFSAT_CAP", raising=False)
        monkeypatch.delenv("CDFSAT_THETA", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap to the terminal
        usage_error = ["analyze"]  # no input file
        sequence = [usage_error, ["analyze", chain_file], usage_error, ["--version"]]
        for argv, want_code in zip(sequence, [1, 0, 1, 0]):
            code = run_main(argv)
            out, err = capsys.readouterr()
            assert code == want_code
            fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
            assert (out, err, code) == (fresh.stdout, fresh.stderr, fresh.returncode)
