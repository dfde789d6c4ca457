"""Independent checks of command outputs.

Counts come from ``tests/_oracles.py`` (``fast_count_models``,
``perfect_matchings``), graph verdicts from its ``has_hamiltonian_cycle`` and
``has_eulerian_path``, UNSAT verdicts above the counting sizes from
``refsolver``.  Models are checked against the clauses.  Classification is
recomputed from the clause widths: a formula with a width->=3 clause is
NonCompositional with the first such clause as witness, and its verdict
follows from the wide-variable fraction and theta.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import refsolver
from cdfsat.formula import generate_random_ksat
from workloads import Cnf, Command, Encoded, Graph, Growth

CAP = 26  # default enumeration cap of `cdfsat analyze` and `cdfsat growth`
THETA = 0.5  # default classification threshold


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("_oracles", root / "tests" / "_oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_dimacs(text: str) -> Cnf:
    n = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                pending.append(lit)
            else:
                clauses.append(tuple(pending))
                pending = []
    if n is None or pending:
        raise ValueError("malformed DIMACS")
    return Cnf(tuple(clauses), n)


def _model_ok(clauses, true_literals) -> bool:
    chosen = set(true_literals)
    return not any(-lit in chosen for lit in chosen) and all(
        any(lit in chosen for lit in cl) for cl in clauses
    )


def _lit_key(lit: int) -> tuple[int, bool]:
    return (abs(lit), lit < 0)


class Verifier:
    def __init__(self, oracles):
        self.oracles = oracles
        self._counts: dict[Cnf, int] = {}
        self._sat: dict[Cnf, bool] = {}

    # -- references -------------------------------------------------------

    def count(self, cnf: Cnf) -> int:
        if cnf not in self._counts:
            self._counts[cnf] = self.oracles.fast_count_models(cnf.clauses, cnf.n)
        return self._counts[cnf]

    def reference(self, cnf: Cnf, subject) -> tuple[int | None, bool]:
        """(exact model count when within the cap, else None; satisfiable)."""
        if isinstance(subject, Encoded) and subject.problem == "matching":
            g = subject.graph
            count = len(self.oracles.perfect_matchings(g.vertices, g.edges))
            return count, count > 0
        count = self.count(cnf) if cnf.n <= CAP else None
        if isinstance(subject, Encoded):
            g = subject.graph
            return count, self.oracles.has_hamiltonian_cycle(g.vertices, g.edges)
        if count is not None:
            return count, count > 0
        if cnf not in self._sat:
            self._sat[cnf] = refsolver.satisfiable(cnf.clauses, cnf.n)
        return None, self._sat[cnf]

    # -- per-command checks -----------------------------------------------

    def check(self, cmd: Command, code: int, out: str, piped_in: str | None) -> str | None:
        try:
            return self._check(cmd, code, out, piped_in)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, cmd: Command, code: int, out: str, piped_in: str | None) -> str | None:
        verb = cmd.argv[0]
        if verb == "growth":
            return self._growth(cmd.subject, code, json.loads(out))
        if verb == "euler":
            return self._euler(cmd.subject, code, json.loads(out))
        if verb == "encode":
            return self._encode(cmd, code, out)
        cnf = parse_dimacs(piped_in) if piped_in is not None else cmd.subject
        if verb == "analyze":
            return self._analyze(cnf, cmd.subject, code, json.loads(out))
        if cmd.argv[1] == "implication-graph":
            return self._implication_dot(cnf, code, out)
        return self._trace_dot(cnf, cmd.subject, code, out)

    def _analyze(self, cnf: Cnf, subject, code: int, report: dict) -> str | None:
        fm = report["formula"]
        if (fm["variableCount"], fm["clauseCount"]) != (cnf.n, len(cnf.clauses)):
            return "formula size mismatch"
        sem = report["semantics"]
        expected_count, expected_sat = self.reference(cnf, subject)
        if expected_count is not None:
            if sem["intractable"] or sem["imageCount"] != expected_count:
                return f"imageCount {sem['imageCount']} != {expected_count}"
        elif not sem["intractable"] and sem["imageCount"] is None:
            return "no count and not intractable"
        if code != (2 if sem["intractable"] else 0):
            return f"exit code {code} with intractable={sem['intractable']}"

        dpll = report["logic"]["dpll"]
        if (dpll["result"] == "SAT") != expected_sat:
            return f"dpll says {dpll['result']}"
        if expected_sat and not _model_ok(cnf.clauses, dpll["model"]):
            return "dpll model violates a clause"
        if not sem["intractable"] and (sem["imageCount"] > 0) != expected_sat:
            return "count and verdict disagree"
        two = report["logic"]["twoSat"]
        if max(map(len, cnf.clauses), default=0) <= 2:
            if two is None or (two["result"] == "SAT") != expected_sat:
                return "2-SAT verdict wrong"
            if expected_sat and not _model_ok(cnf.clauses, two["model"]):
                return "2-SAT model violates a clause"
        elif two is not None:
            return "2-SAT result on a wide formula"
        return self._classification(cnf, report["classification"])

    def _classification(self, cnf: Cnf, cls: dict) -> str | None:
        comp = cls["compositionality"]
        wide = [cl for cl in cnf.clauses if len(cl) >= 3]
        units = [cl for cl in cnf.clauses if len(cl) == 1]
        if wide:
            first = wide[0]
            witness = {
                "clause": list(first),
                "assignment": sorted((-lit for lit in first[:-2]), key=_lit_key),
                "gammaForced": [],
                "betaAlphaForced": "undefined",
            }
            expected_comp = ("NonCompositional", 0, witness)
        elif units:
            # the empty seed already separates the fragments: the clause side
            # fires unit clauses, the graph side reaches nothing from nothing
            forced, _ = self.oracles.naive_unit_closure(cnf.clauses, [])
            witness = {
                "clause": list(units[0]),
                "assignment": [],
                "gammaForced": sorted(forced, key=_lit_key),
                "betaAlphaForced": [],
            }
            expected_comp = ("NonCompositional", 2 * cnf.n + 1, witness)
        else:
            expected_comp = ("Compositional", 2 * cnf.n + 1, None)
        got = (comp["status"], comp["checkedSeeds"], comp["witness"])
        if got != expected_comp:
            return f"compositionality {got[:2]} != {expected_comp[:2]} or witness differs"
        wide_vars = {abs(lit) for cl in wide for lit in cl}
        fraction = len(wide_vars) / cnf.n if cnf.n else 0.0
        if expected_comp[0] == "Compositional":
            verdict = "ComCDF"
        else:
            verdict = "ExpCDF" if fraction > THETA else "SemiExpCDF"
        if cls["verdict"] != verdict or not math.isclose(cls["wideClauseFraction"], fraction):
            return f"verdict {cls['verdict']} != {verdict}"
        return None

    def _growth(self, growth: Growth, code: int, report: dict) -> str | None:
        samples = {s["n"]: s["imageSize"] for s in report["growth"]["samples"]}
        failed = []
        for n in growth.ns:
            f = generate_random_ksat(n, math.floor(growth.density * n), growth.k, growth.seed + n)
            count = self.count(Cnf(tuple(cl.literals for cl in f.clauses), n))
            if count == 0:
                failed.append(n)
            elif samples.get(n) != count:
                return f"growth sample n={n}: {samples.get(n)} != {count}"
        if report["growth"]["failedN"] != failed or code != (2 if failed else 0):
            return "growth failedN or exit code wrong"
        return None

    def _euler(self, graph: Graph, code: int, report: dict) -> str | None:
        got = report["eulerianPath"]
        degree = [0] * graph.vertices
        for a, b in graph.edges:
            degree[a] += 1
            degree[b] += 1
        odd = sum(d % 2 for d in degree)
        exists = self.oracles.has_eulerian_path(graph.vertices, graph.edges)
        if code != 0 or got["exists"] != exists or got["oddCount"] != odd:
            return f"euler exists={got['exists']} oddCount={got['oddCount']}"
        return None

    def _encode(self, cmd: Command, code: int, out: str) -> str | None:
        graph = cmd.subject
        cnf = parse_dimacs(out)
        expected_n = len(graph.edges) if cmd.argv[1] == "matching" else graph.vertices ** 2
        if code != 0 or cnf.n != expected_n:
            return f"encoding has {cnf.n} variables, expected {expected_n}"
        return None

    def _implication_dot(self, cnf: Cnf, code: int, out: str) -> str | None:
        def name(lit: int) -> str:
            return f"x{lit}" if lit > 0 else f"~x{-lit}"

        expected = set()
        for cl in cnf.clauses:
            if len(cl) == 1:
                expected.add((name(-cl[0]), name(cl[0])))
            else:
                a, b = cl
                expected.add((name(-a), name(b)))
                expected.add((name(-b), name(a)))
        edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', out, re.M)
        nodes = re.findall(r'^  "([^"]+)";$', out, re.M)
        if code != 0 or len(edges) != len(expected) or set(edges) != expected:
            return "implication edges differ"
        if sorted(nodes) != sorted(name(s * v) for v in range(1, cnf.n + 1) for s in (1, -1)):
            return "implication nodes differ"
        return None

    def _trace_dot(self, cnf: Cnf, subject, code: int, out: str) -> str | None:
        labels = dict(re.findall(r'^  n(\d+) \[label="([^"]*)"', out, re.M))
        parent = {v: u for u, v in re.findall(r"^  n(\d+) -> n(\d+);$", out, re.M)}
        if code != 0 or not labels or len(parent) != len(labels) - 1 or "0" in parent:
            return "trace is not a tree rooted at n0"
        sat_leaves = [k for k, text in labels.items() if text.endswith("(SAT)")]
        _, expected_sat = self.reference(cnf, subject)
        if len(sat_leaves) != (1 if expected_sat else 0):
            return f"{len(sat_leaves)} SAT leaves, expected SAT={expected_sat}"
        if expected_sat:
            model = []
            node = sat_leaves[0]
            while node != "0":
                var, val = re.match(r"x(\d+)=(true|false)", labels[node]).groups()
                model.append(int(var) if val == "true" else -int(var))
                node = parent[node]
            if not _model_ok(cnf.clauses, model):
                return "path to the SAT leaf is not a model"
        return None
