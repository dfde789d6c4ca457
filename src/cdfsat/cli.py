"""Command-line front end.

Machine-readable JSON (or DIMACS/DOT/CSV where that is the natural format)
goes to stdout; human-oriented summaries go to stderr.  Output is
deterministic byte for byte: reports carry no timestamps, all collections
are emitted in a canonical order, and JSON keys are sorted.

Exit codes: 0 success, 1 bad usage or unreadable input, 2 partial result
(some requested quantity was intractable under the configured cap).

Configuration precedence is flag over environment over default; the
environment knobs are CDFSAT_CAP (enumeration cap) and CDFSAT_THETA
(classification threshold).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .analysis import DEFAULT_THETA, classify, measure_growth
from .encoders import (
    Encoding,
    encode_hamiltonian_cycle,
    encode_perfect_matching,
    eulerian_path_exists,
    parse_graph,
)
from .formula import CnfFormula, parse_dimacs, width_profile, write_dimacs
from .formula import generate_random_ksat
from .logic import (
    HEURISTICS,
    build_implication_graph,
    dpll_solve,
    implication_graph_to_dot,
    solve_2sat,
    trace_to_dot,
)
from .proofs import (
    TRUTH_TABLE_ATOM_CAP,
    atoms,
    check_derivation,
    eval_truth_table,
    format_derivation,
    parse_derivation_json,
    parse_proposition,
    semantic_cost,
    to_text,
)
from .semantics import (
    ENUMERATION_CAP,
    IntractableError,
    check_enumeration_cap,
    formula_image,
    log2_count,
)

ENV_CAP = "CDFSAT_CAP"
ENV_THETA = "CDFSAT_THETA"

# the most clauses `growth` draws for one family member, floor(density * n)
# at the largest n; past it the command is a usage error
MAX_GROWTH_CLAUSES = 100_000


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1; argparse's stock behavior would exit 2,
    # which this tool reserves for partial results
    def error(self, message: str):  # noqa: D401 (argparse override)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_value(name: str, convert: Callable, what: str):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be {what}, got {raw!r}") from None


def _resolve_cap(flag: int | None) -> int:
    cap = flag if flag is not None else _env_value(ENV_CAP, int, "an integer")
    # checked up front, so a bad cap is a usage error (exit 1) even in
    # growth, which reports a ValueError from measure_growth as exit 2
    return check_enumeration_cap(ENUMERATION_CAP if cap is None else cap)


def _resolve_theta(flag: float | None) -> float:
    theta = flag if flag is not None else _env_value(ENV_THETA, float, "a number")
    return DEFAULT_THETA if theta is None else theta


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_table(rows: Sequence[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}", file=sys.stderr)


def _provenance(input_name: str | None, seed: int | None, config: dict) -> dict:
    return {
        "input": input_name,
        "seed": seed,
        "version": __version__,
        "config": config,
    }


def _model_text(model: dict[int, bool] | None) -> str:
    if model is None:
        return "-"
    return " ".join(str(v if model[v] else -v) for v in sorted(model))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args.cap)
    theta = _resolve_theta(args.theta)
    f = parse_dimacs(_read_text(args.input))

    classification = classify(f, growth=None, theta=theta)
    result, trace = dpll_solve(f, heuristic=args.heuristic)

    partial = False
    try:
        image = formula_image(f, enumeration_cap=cap, materialization_cap=0)
        semantics: dict = {
            "intractable": False,
            "imageCount": image.count,
            "log2Count": log2_count(image.count),
            "representation": image.representation,
        }
    except IntractableError as exc:
        partial = True
        semantics = {
            "intractable": True,
            "imageCount": None,
            "variableCount": exc.variable_count,
            "cap": exc.cap,
        }

    logic: dict = {"dpll": trace.to_json_dict()}
    if f.max_width <= 2:
        logic["twoSat"] = solve_2sat(f).to_json_dict()
    else:
        logic["twoSat"] = None

    report = {
        "formula": {
            "variableCount": f.variable_count,
            "clauseCount": f.clause_count,
            "maxWidth": f.max_width,
            "widthProfile": {str(w): c for w, c in sorted(width_profile(f).items())},
            "density": None if f.density is None else str(f.density),
        },
        "semantics": semantics,
        "logic": logic,
        "classification": classification.to_json_dict(),
        "provenance": _provenance(
            args.input,
            None,
            {"enumerationCap": cap, "theta": theta, "heuristic": args.heuristic},
        ),
    }
    _emit_json(report)

    if not args.quiet:
        rows = [
            ("input", args.input),
            ("variables", str(f.variable_count)),
            ("clauses", str(f.clause_count)),
            ("max width", str(f.max_width)),
            ("verdict", classification.verdict),
            ("compositionality", classification.compositionality.status),
            ("wide-clause fraction", f"{classification.wide_clause_fraction:.3f}"),
            (
                "image size",
                "intractable" if partial else str(semantics["imageCount"]),
            ),
            ("dpll", "SAT" if result.satisfiable else "UNSAT"),
            ("model", _model_text(result.model)),
            ("branches / backtracks", f"{trace.branch_count} / {trace.backtrack_count}"),
        ]
        _print_table(rows)
    return 2 if partial else 0


def _parse_n_list(text: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        parser.error(f"--n expects comma-separated integers, got {text!r}")
    if len(values) < 3:
        parser.error("--n needs at least 3 sizes")
    if any(b <= a for a, b in zip(values, values[1:])):
        parser.error("--n sizes must be strictly increasing")
    if values[0] < 1:
        parser.error("--n sizes must be >= 1")
    return values


def _cmd_growth(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args.cap)
    ns = _parse_n_list(args.n, args.parser)
    density: Fraction = args.density
    if density <= 0:
        args.parser.error("--density must be positive")
    if math.floor(density * ns[-1]) > MAX_GROWTH_CLAUSES:
        args.parser.error(
            f"--density gives more than {MAX_GROWTH_CLAUSES} clauses at n={ns[-1]}"
        )

    def family(n: int) -> CnfFormula:
        m = math.floor(density * n)
        return generate_random_ksat(
            n, m, args.k, seed=args.seed + n, disjoint=args.disjoint
        )

    family(ns[0])  # surface bad parameter combinations as usage errors
    try:
        fit = measure_growth(family, ns, enumeration_cap=cap)
    except ValueError as exc:
        print(f"cdfsat: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "csv":
        sys.stdout.write(fit.to_csv())
    else:
        _emit_json(
            {
                "growth": fit.to_json_dict(),
                "provenance": _provenance(
                    None,
                    args.seed,
                    {
                        "k": args.k,
                        "density": str(density),
                        "nValues": ns,
                        "disjoint": args.disjoint,
                        "enumerationCap": cap,
                    },
                ),
            }
        )

    if not args.quiet:
        rows = [
            ("preferred model", fit.preferred_model),
            ("implied base", f"{fit.implied_base:.4f}"),
            ("exponential rate", f"{fit.exponential_rate:.4f} bits/var"),
            ("polynomial degree", f"{fit.polynomial_degree:.4f}"),
            ("samples", str(len(fit.samples))),
            ("failed n", ", ".join(str(n) for n in fit.failed_n) or "-"),
        ]
        _print_table(rows)
    return 2 if fit.failed_n else 0


def _cmd_encode(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    if args.problem == "matching":
        enc: Encoding = encode_perfect_matching(g)
    else:
        enc = encode_hamiltonian_cycle(g)
    sys.stdout.write(write_dimacs(enc.formula, comments=enc.comment_lines()))
    print(
        f"{args.problem}: {enc.formula.variable_count} variables, "
        f"{enc.formula.clause_count} clauses",
        file=sys.stderr,
    )
    for w in enc.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    result = eulerian_path_exists(g)
    _emit_json(
        {
            "eulerianPath": result.to_json_dict(),
            "provenance": _provenance(args.graph, None, {}),
        }
    )
    verdict = "exists" if result.exists else "does not exist"
    print(
        f"eulerian path {verdict} ({result.odd_count} odd-degree vertices, "
        f"{'connected' if result.connected else 'disconnected'})",
        file=sys.stderr,
    )
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    goal = parse_proposition(args.formula)
    names = atoms(goal)

    derivation_json = None
    derivation_steps = None
    check = None
    if args.derivation is not None:
        data = json.loads(_read_text(args.derivation))
        if not isinstance(data, list):
            raise ValueError("derivation file must hold a JSON list of steps")
        derivation_steps = parse_derivation_json(data)
        check = check_derivation(derivation_steps, goal)
        derivation_json = check.to_json_dict()
        derivation_json["steps"] = len(derivation_steps)

    syntactic = None
    if derivation_json is not None and derivation_json["valid"]:
        syntactic = derivation_json["steps"]

    report: dict = {
        "goal": to_text(goal),
        "atoms": list(names),
        "cost": {"semantic": semantic_cost(goal), "syntactic": syntactic},
        "derivation": derivation_json,
        "provenance": _provenance(None, None, {"derivation": args.derivation}),
    }

    if len(names) > TRUTH_TABLE_ATOM_CAP:
        report["tautology"] = None
        report["truthTable"] = None
        report["error"] = (
            f"{len(names)} atoms exceeds the truth-table cap of {TRUTH_TABLE_ATOM_CAP}"
        )
        _emit_json(report)
        print(f"cdfsat: error: {report['error']}", file=sys.stderr)
        return 2

    table = eval_truth_table(goal)
    report["tautology"] = table.is_tautology
    report["truthTable"] = table.to_json_dict(include_rows=len(names) <= 8)
    _emit_json(report)

    if not args.quiet:
        if len(names) <= 6:
            print(table.to_text(), file=sys.stderr)
        print(
            f"tautology: {'yes' if table.is_tautology else 'no'} "
            f"({table.row_count} rows)",
            file=sys.stderr,
        )
        if check is not None:
            print(format_derivation(derivation_steps, check), file=sys.stderr)
            status = "valid" if check.valid else f"invalid: {check.reason}"
            print(f"derivation: {status}", file=sys.stderr)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    f = parse_dimacs(_read_text(args.input))
    if args.kind == "implication-graph":
        sys.stdout.write(implication_graph_to_dot(build_implication_graph(f)))
    else:
        _, trace = dpll_solve(f, heuristic=args.heuristic)
        sys.stdout.write(trace_to_dot(trace))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdfsat",
        description="Structural-complexity analysis of CNF formulas.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="full report for one DIMACS CNF file")
    p.add_argument("input", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap (variables)")
    p.add_argument("--theta", type=float, default=None, help="classification threshold")
    p.add_argument("--heuristic", choices=HEURISTICS, default="lowest-index")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("growth", help="image-size growth of a random k-CNF family")
    p.add_argument("--k", type=int, required=True, help="clause width")
    p.add_argument("--n", required=True, help="comma-separated sizes, e.g. 9,12,15")
    p.add_argument(
        "--density",
        type=Fraction,
        default=Fraction(1),
        help="clauses per variable; m = floor(density*n) (fraction or decimal)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--disjoint",
        action="store_true",
        help="draw clauses over pairwise-disjoint variables",
    )
    p.add_argument("--cap", type=int, default=None, help="enumeration cap (variables)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("encode", help="encode a graph problem as DIMACS CNF")
    p.add_argument("problem", choices=("matching", "hamiltonian"))
    p.add_argument("graph", help="edge-list path, or - for stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("euler", help="decide eulerian-path existence directly")
    p.add_argument("graph", help="edge-list path, or - for stdin")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("prove", help="truth table and optional derivation check")
    p.add_argument("formula", help="proposition, e.g. 'A -> (B -> A)'")
    p.add_argument("--derivation", default=None, help="JSON derivation file")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("export-dot", help="graphviz view of a formula's structure")
    p.add_argument("kind", choices=("implication-graph", "trace"))
    p.add_argument("input", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--heuristic", choices=HEURISTICS, default="lowest-index")
    p.set_defaults(func=_cmd_export_dot)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing keeps no state on the
    # parser, and per-call state lives on the returned Namespace
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cdfsat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
