"""Command-line front end.

Machine-readable JSON (or DIMACS/DOT/CSV where that is the natural format)
goes to stdout; human-oriented summaries go to stderr.  Output is
deterministic byte for byte: reports carry no timestamps, all collections
are emitted in a canonical order, and JSON keys are sorted.

Exit codes: 0 success, 1 bad usage or unreadable input, 2 partial result.
``analyze`` gives 2 when a component of two or more clauses has more
variables than the configured cap and the search it runs anyway does not
settle the count: a refuted formula counts 0, and one that propagation at
the root satisfies, before any decision, counts 2 to the number of free
variables, at any size.  ``growth`` gives 2 when a size lands in
``failedN``, or when fewer than three sizes are measured.

The command line alone configures a run: every setting is a flag with a
fixed default, and no environment variable is read, so the same argv and
input give the same output in any shell.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import is_
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import DEFAULT_THETA, classify, measure_growth
from .encoders import (
    Encoding,
    Graph,
    encode_hamiltonian_cycle,
    encode_perfect_matching,
    eulerian_path_exists,
    hamiltonian_cycle_clause_count,
    parse_graph,
    perfect_matching_clause_count,
)
from .formula import CnfFormula, parse_dimacs, width_profile, write_dimacs
from .formula import generate_random_ksat
from .logic import (
    HEURISTICS,
    DerivationTrace,
    SolveResult,
    build_implication_graph,
    dpll_solve,
    implication_graph_to_dot,
    solve_2sat,
    trace_to_dot,
)
from .semantics import (
    COUNT_ONLY,
    ENUMERATION_CAP,
    IntractableError,
    check_enumeration_cap,
    formula_image,
    log2_count,
)

# the most clauses of any clause list the CLI builds: the floor(density * n)
# that `growth` draws at the largest n (past it, a usage error) and the
# clauses of an `encode` encoding (past it, an input error)
MAX_CLAUSES = 100_000

# the most variables of any formula the CLI reads or draws (a DIMACS header,
# a `growth --n` size): 2^14000 has 4215 digits, so every exact count stays
# under Python's 4300-digit int-to-string limit; also the most vertices of
# any graph it reads
MAX_VARIABLES = 14_000

# the decimal exponent of a --density, e.g. the 400 of 1e400; Fraction turns
# 10 to that power into an exact integer, so it is bounded while still text
_DENSITY_EXPONENT = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1; argparse's stock behavior would exit 2,
    # which this tool reserves for partial results
    def error(self, message: str):  # noqa: D401 (argparse override)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _density(text: str) -> Fraction:
    """argparse type of ``growth --density``: an exact Fraction that prints.

    A decimal exponent outside +-4300 is refused before Fraction expands it.
    A numerator or denominator with more digits than Python's int-to-string
    limit (a minus sign not counted) is refused by that limit itself, as
    ``str`` raises on it before the provenance prints the density.  Either
    is a usage error.
    """
    exponent = _DENSITY_EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or "0") > 4300:
            raise argparse.ArgumentTypeError(
                f"exponent of {text!r} lies outside -4300..4300"
            )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    try:
        str(value)  # raises past the limit
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} has more than {sys.get_int_max_str_digits()} digits above or below the line"
        ) from None
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _read_formula(path: str) -> CnfFormula:
    """Parse a DIMACS file, refusing more than MAX_VARIABLES variables.

    The check runs before any command allocates per variable.  A parser
    warning (a header clause count the body contradicts) is printed as one
    ``cdfsat: warning:`` line on stderr, on every call.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = parse_dimacs(_read_text(path))
    for w in caught:
        print(f"cdfsat: warning: {w.message}", file=sys.stderr)
    if f.variable_count > MAX_VARIABLES:
        raise ValueError(
            f"{f.variable_count} variables exceed the limit of {MAX_VARIABLES}"
        )
    return f


def _read_graph(path: str) -> Graph:
    """Parse an edge list, refusing more than MAX_VARIABLES vertices.

    The check runs before any command loops over the vertices.
    """
    g = parse_graph(_read_text(path))
    if g.vertex_count > MAX_VARIABLES:
        raise ValueError(f"{g.vertex_count} vertices exceed the limit of {MAX_VARIABLES}")
    return g


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _json_text(o, newline: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, byte for byte, for the
    values a report holds: dicts with str keys, lists, tuples, str, int,
    float, bool and None.  Any other type raises ``TypeError``.

    With ``indent`` set, ``json`` drops to its pure-Python encoder; this
    one keeps the C string escaper and writes a list of plain ints (a
    model, ``freeVariables``) in one join.
    """
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if kind is bool:
        return "true" if o else "false"
    if kind is float:
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    inner = newline + "  "
    if kind is dict:
        if not o:
            return "{}"
        keys = sorted(o)
        if not all(map(is_, map(type, keys), repeat(str))):
            raise TypeError("JSON object keys must be str")
        items = [f"{encode_basestring_ascii(k)}: {_json_text(o[k], inner)}" for k in keys]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        if all(map(is_, map(type, o), repeat(int))):
            items = map(int.__repr__, o)
        else:
            items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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

def _search_count(result: SolveResult, trace: DerivationTrace) -> int | None:
    """The model count that a complete search settles by itself, or None.

    A refuted formula has no model.  A satisfiable one whose search took no
    decision was settled by propagation at the root: the literals forced
    there are entailed, and they satisfy every clause, so the models are
    exactly the 2^k settings of the k free variables.  A forcing through a
    clause of width 3 or more adds a refutation pair and a branch without
    any decision, so the test is on the decisions, not the branch count.
    """
    if not result.satisfiable:
        return 0
    if trace.decision_count:
        return None
    return 1 << len(trace.free_variables)


def _cmd_analyze(args: argparse.Namespace) -> int:
    # checked up front, so a bad cap is a usage error (exit 1) before the
    # input is read
    check_enumeration_cap(args.cap)
    f = _read_formula(args.input)

    classification = classify(f, growth=None, theta=args.theta)
    result, trace = dpll_solve(f, heuristic=args.heuristic, record="counts")

    try:
        count = formula_image(f, enumeration_cap=args.cap, materialization_cap=0).count
    except IntractableError as exc:
        # past the cap, the search that already ran may still settle the count
        count = _search_count(result, trace)
        if count is None:
            semantics: dict = {
                "intractable": True,
                "imageCount": None,
                "variableCount": exc.variable_count,
                "cap": exc.cap,
            }
    partial = count is None
    if not partial:
        semantics = {
            "intractable": False,
            "imageCount": count,
            # an empty image has no logarithm, and JSON has no -Infinity
            "log2Count": log2_count(count) if count else None,
            "representation": COUNT_ONLY,
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
            {"enumerationCap": args.cap, "theta": args.theta, "heuristic": args.heuristic},
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
    if values[-1] > MAX_VARIABLES:
        parser.error(f"--n sizes must be <= {MAX_VARIABLES}")
    return values


class _DrawError(ValueError):
    """A ``growth`` family member could not be drawn from the parameters."""


def _cmd_growth(args: argparse.Namespace) -> int:
    # checked up front, so a bad cap is a usage error (exit 1), not the
    # exit 2 that a ValueError from measure_growth gives
    check_enumeration_cap(args.cap)
    ns = _parse_n_list(args.n, args.parser)
    density: Fraction = args.density
    if density <= 0:
        args.parser.error("--density must be positive")
    if math.floor(density * ns[-1]) > MAX_CLAUSES:
        args.parser.error(
            f"--density gives more than {MAX_CLAUSES} clauses at n={ns[-1]}"
        )

    def family(n: int) -> CnfFormula:
        m = math.floor(density * n)
        try:
            return generate_random_ksat(
                n, m, args.k, seed=args.seed + n, disjoint=args.disjoint
            )
        except ValueError as exc:
            raise _DrawError(str(exc)) from None

    try:
        fit = measure_growth(family, ns, enumeration_cap=args.cap)
    except _DrawError:
        raise  # a usage error (exit 1), not a partial result
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
                        "enumerationCap": args.cap,
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
    g = _read_graph(args.graph)
    if args.problem == "matching":
        clause_count, encode = perfect_matching_clause_count(g), encode_perfect_matching
    else:
        clause_count, encode = hamiltonian_cycle_clause_count(g), encode_hamiltonian_cycle
    # counted before any clause is built
    if clause_count > MAX_CLAUSES:
        raise ValueError(f"{clause_count} clauses exceed the limit of {MAX_CLAUSES}")
    enc: Encoding = encode(g)
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
    g = _read_graph(args.graph)
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
    # imported here, so that no other subcommand compiles or runs proofs
    from .proofs import (
        atoms,
        check_derivation,
        eval_truth_table,
        format_derivation,
        parse_derivation_json,
        parse_proposition,
        semantic_cost,
        to_text,
    )

    goal = parse_proposition(args.formula)
    names = atoms(goal)

    derivation_json = None
    derivation_steps = None
    check = None
    if args.derivation is not None:
        try:
            data = json.loads(_read_text(args.derivation))
        except RecursionError:
            # the decoder recurses once per nesting level
            raise ValueError("derivation file is nested too deeply") from None
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

    try:
        table = eval_truth_table(goal)
    except ValueError as exc:  # more atoms than the truth-table cap
        report["tautology"] = None
        report["truthTable"] = None
        report["error"] = str(exc)
        _emit_json(report)
        print(f"cdfsat: error: {exc}", file=sys.stderr)
        return 2

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
    f = _read_formula(args.input)
    if args.kind == "implication-graph":
        sys.stdout.write(implication_graph_to_dot(build_implication_graph(f)))
    else:
        # the trace is dropped before its text is written out
        _, trace = dpll_solve(f, heuristic=args.heuristic, record="dot")
        text = trace_to_dot(trace)
        del trace
        sys.stdout.write(text)
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
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                   help="enumeration cap: most variables of one swept component")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA,
                   help="classification threshold")
    p.add_argument("--heuristic", choices=HEURISTICS, default="lowest-index")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("growth", help="image-size growth of a random k-CNF family")
    p.add_argument("--k", type=int, required=True, help="clause width")
    p.add_argument("--n", required=True, help="comma-separated sizes, e.g. 9,12,15")
    p.add_argument(
        "--density",
        type=_density,
        default=Fraction(1),
        help="clauses per variable; m = floor(density*n) (fraction or decimal)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--disjoint",
        action="store_true",
        help="draw clauses over pairwise-disjoint variables",
    )
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                   help="enumeration cap: most variables of one swept component")
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

    # the subcommand parsers by name, for main to parse with one of them alone
    parser._subcommands = sub.choices
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing keeps no state on the
    # parser, and per-call state lives on the returned Namespace
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    if argv is None:
        argv = sys.argv[1:]
    # The parser of the subcommand that argv[0] names parses the rest alone,
    # as it would inside argparse's two-level parse.  With no subcommand
    # named first, or arguments the subcommand does not know, the top-level
    # parser parses the whole line, for its usage, help, version and
    # "unrecognized arguments" error.
    command = parser._subcommands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extras:
        args = parser.parse_args(argv)
    # growth raises its own usage errors through the top-level parser
    args.parser = parser
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cdfsat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
