from __future__ import annotations

import ast
import importlib
import io
import json
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_formula_submodule_is_not_shadowed():
    import cdfsat.formula as F

    assert isinstance(F, types.ModuleType)
    assert F is importlib.import_module("cdfsat.formula")
    assert F.formula([[1, -2]], 2).clause_count == 1


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _stated_value(comment: str):
    """The longest prefix of a comment that is a Python literal."""
    for end in range(len(comment), 0, -1):
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no stated value in comment {comment!r}")


def _claims(block: str) -> list[tuple[str, str]]:
    """(expression, comment) for each bare expression line of the block.

    The comment is the line's own ``#`` comment, or else the comment-only
    lines right below it, joined.
    """
    lines = block.splitlines()
    claims = []
    for i, line in enumerate(lines):
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code or not isinstance(ast.parse(code).body[0], ast.Expr):
            continue
        if not comment:
            below = []
            for follow in lines[i + 1:]:
                if not follow.lstrip().startswith("#"):
                    break
                below.append(follow.lstrip()[1:])
            comment = " ".join(below)
        if comment.strip():
            claims.append((code, comment.strip()))
    return claims


def test_readme_quick_tour_runs_and_its_stated_values_hold():
    block = _quick_tour()
    namespace: dict = {}
    exec(block, namespace)
    claims = _claims(block)
    assert len(claims) == 8
    for code, comment in claims:
        assert eval(code, namespace) == _stated_value(comment), code


def test_readme_public_names_exist():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(cdfsat\.\w+)` \| (.*) \|$", text, re.M)
    assert len(rows) == 7
    for module_name, cell in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([^`]+)`", cell)
        if module_name == "cdfsat.cli":
            names.remove("cdfsat")  # the console script, not an attribute
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module_name} lacks {missing}"


_NO_NUMPY = """
import importlib, pkgutil, sys
import cdfsat
for info in pkgutil.iter_modules(cdfsat.__path__):
    importlib.import_module("cdfsat." + info.name)
from cdfsat.analysis import GrowthSample, fit_growth
from cdfsat.formula import formula
from cdfsat.proofs import eval_truth_table, parse_proposition
from cdfsat.semantics import formula_image
assert formula_image(formula([[-1, 2], [-2, 3]], 3)).count == 4
assert eval_truth_table(parse_proposition("A -> (B -> A)")).is_tautology
assert fit_growth([GrowthSample(n, 2**n, float(n)) for n in (2, 4, 6)]).exponential_rate == 1
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_package_runs_without_numpy():
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_PROOFS_ON_DEMAND = """
import contextlib, io, sys
import cdfsat.cli
assert "cdfsat.proofs" not in sys.modules, "importing cdfsat.cli imported proofs"
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cdfsat.cli.main(["prove", "A -> (B -> A)", "--quiet"]) == 0
assert '"tautology": true' in out.getvalue()
"""


def test_cli_imports_proofs_only_for_prove():
    # every other subcommand skips compiling and running cdfsat.proofs
    proc = subprocess.run([sys.executable, "-c", _PROOFS_ON_DEMAND],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_installs_and_counts(monkeypatch, capsys):
    # perfbench/tracing.py imports package members and wraps others by the
    # module attributes their callers look them up through, so a deleted or
    # renamed member would break the benchmark before it measures anything.
    # Its observers read the trace's counters, depth() and node_count() and
    # count the nodes in trace_to_dot's text, so a changed result breaks it
    # as well.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from cdfsat import cli, logic

    data = ROOT / "tests" / "data"
    chain = str(data / "implication_chain.cnf")
    wide = str(data / "wide_clause.cnf")  # 5 nodes, depth 3, one refutation pair
    try:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main(["export-dot", "implication-graph", chain]) == 0
            graph = capsys.readouterr().out
            graph_builds = tracer.calls["logic.build_implication_graph"]
            assert cli.main(["analyze", wide]) == 0
            report = json.loads(capsys.readouterr().out)["logic"]["dpll"]
            searched = dict(tracer.counters)
            assert cli.main(["export-dot", "trace", wide]) == 0
            dot = capsys.readouterr().out
            emitted = tracer.nodes_emitted
            # a chunk of one line: every decision joins the lines before it
            monkeypatch.setattr(logic, "DOT_CHUNK", 1)
            assert cli.main(["export-dot", "trace", wide]) == 0
            assert capsys.readouterr().out == dot
        finally:
            tracer.restore()
    finally:
        sys.modules.pop("tracing", None)
    assert graph.startswith("digraph implication_graph {")
    assert graph_builds == 1
    assert (report["nodeCount"], report["depth"]) == (5, 3)
    assert searched["logic.dpll.trace_nodes"] == report["nodeCount"]
    assert searched["logic.dpll.depth"] == report["depth"]
    assert searched["logic.dpll.branches"] == report["branchCount"]
    assert searched["logic.dpll.backtracks"] == report["backtrackCount"]
    assert dot.startswith("digraph derivation_trace {")
    assert emitted == report["nodeCount"]
    assert tracer.nodes_emitted - emitted == report["nodeCount"]


_ORACLES_STAND_ALONE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("_oracles", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "cdfsat")
assert not loaded, f"_oracles imported {loaded}"
"""


def test_oracles_import_nothing_from_the_package():
    # the package is importable here (conftest puts src/ on PYTHONPATH), so
    # only the oracles' own imports decide what gets loaded
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLES_STAND_ALONE, str(ROOT / "tests" / "_oracles.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_verifier_reads_the_oracles(monkeypatch, capsys):
    # perfbench/verify.py checks each analyze report's unit closure with
    # tests/_oracles.py's naive_unit_closure, so a changed return shape
    # would fail every such command in the benchmark, not here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from cdfsat import cli

    try:
        import verify
        from workloads import Command

        verifier = verify.Verifier(verify.load_oracles(ROOT))
        for text, gamma_forced in [
            ("p cnf 1 2\n1 0\n-1 0\n", [1]),  # the root conflict stops propagation
            ("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n", [1, 2, 3]),
        ]:
            cnf = verify.parse_dimacs(text)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["analyze", "-"]) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            witness = report["classification"]["compositionality"]["witness"]
            assert witness["gammaForced"] == gamma_forced
            cmd = Command("analyze", ("analyze", "-"), cnf)
            assert verifier.check(cmd, 0, out, None) is None
            witness["gammaForced"] = gamma_forced[:-1]
            assert verifier.check(cmd, 0, json.dumps(report), None) is not None
    finally:
        for name in ("verify", "refsolver", "workloads"):
            sys.modules.pop(name, None)


def _tuple_new_sites(tree: ast.AST, scope: str = "") -> list[str]:
    """The enclosing function of each ``tuple.__new__`` in ``tree``."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "tuple"):
            sites.append(scope)
        inner = node.name if isinstance(node, ast.FunctionDef) else scope
        sites += _tuple_new_sites(node, inner)
    return sites


def test_only_the_bulk_parse_bypasses_the_clause_check():
    # CnfFormula makes every clause through Clause; only parse_dimacs's bulk
    # step builds a Clause with tuple.__new__, after its own check
    sites = [f"{path.stem}.{site}"
             for path in sorted((ROOT / "src" / "cdfsat").rglob("*.py"))
             for site in _tuple_new_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == ["formula._clean_block_clauses"]
