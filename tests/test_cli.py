from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time

import pytest

from cdfsat import cli
from cdfsat.formula import parse_dimacs

CHAIN = "p cnf 3 2\n-1 2 0\n-2 3 0\n"
WIDE = "p cnf 3 1\n-1 -2 3 0\n"


def run_cli(*args, env_extra=None, stdin_text=None, binary=False, **run_options):
    env = os.environ.copy()
    env.pop("CDFSAT_CAP", None)
    env.pop("CDFSAT_THETA", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cdfsat.cli", *args],
        capture_output=True,
        text=not binary,
        env=env,
        input=stdin_text,
        **run_options,
    )


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


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
        path = tmp_path / "big.cnf"
        path.write_text("p cnf 30 2\n1 2 3 0\n3 4 5 0\n")
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
        path = tmp_path / "seventy.cnf"
        path.write_text("p cnf 70 3\n1 70 0\n1 -70 0\n2 3 0\n")
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
        assert proc.stderr.startswith("usage: cdfsat")
        assert "more than 100000 clauses at n=6" in proc.stderr

    def test_clause_limit_counts_the_largest_member(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GROWTH_CLAUSES", 6)
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
    # default recursion limit.  Counting the chain's 3000 overlapping
    # variables is past the cap (partial result, exit 2); the pairs are
    # disjoint clauses, counted exactly by the product law.
    @pytest.mark.parametrize(
        "clauses, analyze_code",
        [
            pytest.param([[1]] + [[-i, i + 1] for i in range(1, 3000)], 2, id="chain"),
            pytest.param([[-i, -(i + 1)] for i in range(1, 3000, 2)], 0, id="pairs"),
        ],
    )
    def test_deep_chain_within_budget(self, clauses, analyze_code):
        n = 3000
        text = f"p cnf {n} {len(clauses)}\n" + "".join(
            " ".join(map(str, cl)) + " 0\n" for cl in clauses
        )
        start = time.monotonic()
        analyze = run_cli("analyze", "-", "--quiet", stdin_text=text)
        dot = run_cli("export-dot", "trace", "-", stdin_text=text)
        elapsed = time.monotonic() - start
        assert analyze.returncode == analyze_code, analyze.stderr
        assert json.loads(analyze.stdout)["logic"]["dpll"]["depth"] == n
        assert dot.returncode == 0, dot.stderr
        assert dot.stdout.count(" [label=") == n + 1
        assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s >= 5.0s"

    def test_wide_clause_has_no_implication_graph(self, wide_file):
        proc = run_cli("export-dot", "implication-graph", wide_file)
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestDeterminism:
    def test_analyze_byte_identical(self, chain_file):
        a = run_cli("analyze", chain_file, binary=True)
        b = run_cli("analyze", chain_file, binary=True)
        assert a.stdout == b.stdout
        assert a.stderr == b.stderr

    def test_growth_byte_identical(self):
        args = (
            "growth", "--k", "3", "--n", "9,12,15", "--density", "1/3",
            "--disjoint", "--seed", "5",
        )
        assert run_cli(*args, binary=True).stdout == run_cli(*args, binary=True).stdout

    def test_export_dot_byte_identical(self, wide_file):
        args = ("export-dot", "trace", wide_file)
        assert run_cli(*args, binary=True).stdout == run_cli(*args, binary=True).stdout


class TestUsage:
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
