"""Check that another checkout gives the same output on every benchmark command.

    python3 tools/compare_outputs.py OTHER_CHECKOUT [--seeds 7,3]

Run from anywhere; OTHER_CHECKOUT is the root of another copy of this
repository, typically the parent commit.  The command lists of both
workloads (``count-narrow`` and ``search``) are built once, for every seed,
from this checkout's ``perfbench/workloads.py``.  Each ``analyze -`` and
``export-dot trace -`` command is then added once more with ``--heuristic
most-occurrences``, so that both DPLL search orders are compared, not only
the default ``lowest-index``; at seeds 7 and 3 that makes 806 commands,
against 428 without these twins.  Next come ``export-dot trace -`` on a
fixed corpus of CORPUS_SIZE small random formulas (n <= 14, clause widths
1-4, the same for every seed; see ``_corpus``), also under both
heuristics, so that changes to the search are checked trace by trace on
SAT and UNSAT formulas alike.  Then come ``analyze -`` and ``export-dot
implication-graph -`` on a fixed corpus of NARROW_CORPUS_SIZE small random
formulas of clause widths 1-2 (n <= 30; see ``_narrow_corpus``), about
half of them UNSAT, so that the 2-SAT solver's witness and the implication
graph are checked too (with the default heuristic only).  Then comes
``analyze -`` on each of the MALFORMED_DIMACS texts, every one of which
``parse_dimacs`` or the CLI rejects, so that error messages, their line
numbers and exit codes are compared as well.  Then ``analyze -`` and
``export-dot trace -`` run on each of the VALID_DIMACS texts, which
``parse_dimacs`` accepts although they are not in the form that
``write_dimacs`` writes, then the PROVE_COMMANDS, so that every command
that writes a JSON report is compared, then the GROWTH_ENCODE_COMMANDS, so that
``growth`` failures, CSV output and a ``--disjoint`` family, and an
``encode`` warning and clause limit, are compared, then the USAGE_COMMANDS,
so that usage errors, help and version text, the choice between the
top-level parser and a subcommand's, and ``--cap`` and ``--theta`` in and
out of range are compared, then ``analyze -`` and
``growth`` on formulas past the counting cap (see ``_past_cap_corpus``),
and last ``analyze -`` and ``export-dot trace -``, under both heuristics,
on random 3-SAT formulas whose search trees mostly span several chunks
of DOT node lines, and on formulas of clause widths 1, 2, 3 and 5 with
trees of thousands of nodes (see ``_large_tree_corpus``): 2557 commands in
all at seeds 7 and 3.
Each checkout then runs all of them in-process through its own
``cdfsat.cli.main``, in one subprocess per checkout, with stdin, stdout
and stderr held in memory; a piped command reads the stdout of its
source command in the same checkout.  The tool prints how many commands
gave the same stdout, stderr and exit code in both, and the label of each
that did not; where stdout differs, it also prints the differing lines (a
unified diff without context, this checkout's lines marked ``+``), at
most 10 per command.  It exits 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("count-narrow", "search")
MAX_DIFF_LINES = 10
OTHER_HEURISTIC = ("--heuristic", "most-occurrences")
CORPUS_SIZE = 500
NARROW_CORPUS_SIZE = 300
PAST_CAP_SEEDS = 5
LARGE_TREE_SEEDS = (1, 2, 3, 5)
MIXED_WIDTH_SEEDS = (0, 2, 6, 7)
# (label, DIMACS text): each is refused with a "cdfsat: error:" line, exit 1.
MALFORMED_DIMACS = (
    ("bad token", "p cnf 3 2\n1 2 0\n-3 x 0\n"),
    ("bool token", "p cnf 2 1\nTrue -2 0\n"),
    ("out-of-range literal", "p cnf 2 1\n1 -3 0\n"),
    ("tautology", "p cnf 2 2\n1 2 0\n2 -1 1 0\n"),
    ("lone 0", "p cnf 2 2\n1 2 0\n0\n"),
    ("unterminated clause", "p cnf 3 2\n1 2 0\n-3\n"),
    ("duplicate header", "p cnf 2 1\n1 0\np cnf 2 1\n"),
    ("data before the header", "c x\n1 2 0\np cnf 2 1\n"),
    ("missing header", "c only a comment\n"),
    ("malformed header", "p cnf two 1\n1 0\n"),
    ("negative header count", "p cnf 2 -1\n"),
    ("variable count past the limit", "p cnf 20000 1\n1 0\n"),
    ("tautology spanning lines", "p cnf 3 2\n1 2 0\n3\n1\n-3 0\n"),
    ("unterminated clause spanning lines", "p cnf 3 2\n1\n-2 0 2\n3\n"),
    ("bad token spanning lines", "p cnf 3 1\n1 2\n3 y 0\n"),
    ("out-of-range literal, then bad token", "p cnf 2 1\n1 3 x 0\n"),
    ("tautology, then out-of-range literal", "p cnf 2 1\n1 -1 5 0\n"),
    ("lone 0, then bad token", "p cnf 2 1\n0 z\n"),
    # 84 KB of clauses: the bad token lies in the second 64 KiB block, and a
    # form feed inside the first clause adds a line that a count of \n misses
    ("bad token in the second block, after a form feed",
     "p cnf 2 12002\n1\x0c-2 0\n" + "1 -2 0\n" * 12000 + "2 x 0\n"),
)
# (label, DIMACS text): each is accepted.  In each but the SATLIB trailer,
# whose body the bulk step of parse_dimacs takes whole, and the zero-variable
# formula, whose empty body reaches neither step, the bulk step refuses a
# block, which goes to the line step; a % that does not start its line is no
# trailer.  A header whose clause count disagrees with the body is left out:
# a checkout whose CLI lets Python print that warning writes its own source
# path to stderr.
VALID_DIMACS = (
    ("comment between clauses", "p cnf 3 2\n1 -2 0\nc a comment\n2 3 0\n"),
    ("comment inside a clause", "p cnf 3 1\n1\nc a comment\n-2 3 0\n"),
    ("clauses spanning lines, a repeated literal", "p cnf 4 2\n1\n-2 3\n0 4 -1 4 0\n"),
    ("SATLIB trailer", "p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n"),
    ("duplicate literals", "p cnf 3 2\n1 1 -2 0\n3 -2 3 -2 0\n"),
    ("CRLF line ends", "c crlf\r\np cnf 3 2\r\n1 -2 0\r\nc x\r\n2 3 0\r\n"),
    ("+1 and 007 tokens", "p cnf 7 3\nc signs\n+1 -2 0\n007 -003 0\n+7 0\n"),
    ("form feed and vertical tab", "p cnf 3 2\n1 -2 0\x0cc x\n2 3\x0b0\n"),
    ("blank and comment lines in the body", "\np cnf 2 2\n\nc x\n\n1 -2 0\n-1 0\n\n"),
    ("empty body but a comment", "p cnf 2 0\nc nothing\n"),
    ("comments holding %", "c 100% sure\np cnf 3 2\n1 -2 0\nc 50% done\n2 3 0\n"),
    # 144 KB over three variables: the first 64 KiB block ends inside a
    # clause, and a comment line comes before the last clause
    ("clause across the first block boundary, late comment",
     "p cnf 3 16002\n-3 0\n" + "1 -2\n3 0\n" * 16000 + "c late\n2 3 0\n"),
    ("zero variables", "p cnf 0 0\n"),
)
# prove argv and stdin (a derivation read from "-"); the truth table is
# listed up to 8 atoms, and past TRUTH_TABLE_ATOM_CAP the command exits 2
PROVE_COMMANDS = (
    (("prove", "A -> (B -> A)", "--derivation", "-"), """[
        {"formula": "A", "rule": "assumption"},
        {"formula": "B", "rule": "assumption"},
        {"formula": "A", "rule": "reiteration", "of": 1},
        {"formula": "B -> A", "rule": "implies-intro", "from": 2, "to": 3},
        {"formula": "A -> (B -> A)", "rule": "implies-intro", "from": 1, "to": 4}]"""),
    (("prove", "A -> B", "--derivation", "-"),
     '[{"formula": "A", "rule": "assumption"}, {"formula": "B", "rule": "reiteration", "of": 1}]'),
    (("prove", "(p -> q) -> (~q -> ~p)"), None),
    (("prove", "\u00e9t\u00e9 | ~\u00e9t\u00e9 & x_1", "--quiet"), None),
    (("prove", " | ".join(f"A{i}" for i in range(9)), "--quiet"), None),
    (("prove", " | ".join(f"A{i}" for i in range(21)), "--quiet"), None),
)
# growth and encode argv and stdin, with the exit code each had when listed;
# a None stdin is the stdout of the command before it
GROWTH_ENCODE_COMMANDS = (
    # n = 30, 40 and 50 are past the counting cap, so one sample is left
    # and too few to fit: 2
    (("growth", "--k", "3", "--density", "2", "--n", "20,30,40,50"), ""),
    # n = 7 is unsatisfiable, and the three other samples still fit: 2,
    # with the fit
    (("growth", "--k", "3", "--density", "4", "--n", "4,5,6,7"), ""),
    # disjoint clauses count by the closed form past the cap: 0
    (("growth", "--k", "3", "--density", "1/3", "--n", "30,120,600", "--disjoint"), ""),
    (("growth", "--k", "2", "--n", "4,5,6", "--format", "csv"), ""),
    # no 4 distinct variables out of 3: 1
    (("growth", "--k", "4", "--n", "3,4,5"), ""),
    # an isolated vertex: a warning in the DIMACS and on stderr, 0
    (("encode", "matching", "-"), "v 3\n0 1\n"),
    (("analyze", "-"), None),
    # the complete graph on 47 vertices: 101708 clauses past the limit, 1
    (("encode", "hamiltonian", "-"),
     "v 47\n" + "".join(f"{u} {v}\n" for u in range(47) for v in range(u + 1, 47))),
)

# argv and stdin for main's choice of parser: the usage errors, help and
# version text of the top-level parser and of a subcommand's (among them
# arguments a subcommand does not know, which the top-level parser reports),
# then one valid command per subcommand, then --cap and --theta in and out
# of range, so that both flags are compared and not only their defaults
_USAGE_CNF = "p cnf 3 2\n-1 2 0\n-2 3 0\n"
_USAGE_WIDE = "p cnf 3 1\n-1 -2 3 0\n"
_USAGE_GRAPH = "v 3\n0 1\n1 2\n"
USAGE_COMMANDS = (
    ((), ""),
    (("frobnicate",), ""),
    (("--version",), ""),
    (("-h",), ""),
    (("analyze",), ""),
    (("analyze", "-h"), ""),
    (("analyze", "-", "--bogus"), _USAGE_CNF),
    (("analyze", "-", "extra"), _USAGE_CNF),
    (("analyze", "-", "--version"), _USAGE_CNF),
    (("analyze", "--cap", "x", "-"), _USAGE_CNF),
    (("analyze", "--qui", "-"), _USAGE_CNF),
    (("export-dot", "nope", "-"), _USAGE_CNF),
    (("export-dot", "trace", "-", "--heuristic", "bad"), _USAGE_CNF),
    (("growth", "--k", "3", "--n", "1,2"), ""),
    (("growth", "--k", "3", "--n", "4,5,6", "--density", "1/0"), ""),
    (("analyze", "-"), _USAGE_CNF),
    (("growth", "--k", "2", "--n", "4,5,6"), ""),
    (("encode", "matching", "-"), _USAGE_GRAPH),
    (("euler", "-"), _USAGE_GRAPH),
    (("prove", "A -> (B -> A)"), ""),
    (("export-dot", "implication-graph", "-"), _USAGE_CNF),
    # the chain is one 3-variable component, past a cap of 2: 2
    (("analyze", "-", "--cap", "2"), _USAGE_CNF),
    (("analyze", "-", "--cap", "63"), _USAGE_CNF),
    # out of range: 1
    (("analyze", "-", "--cap", "70"), _USAGE_CNF),
    (("analyze", "-", "--cap", "-1"), _USAGE_CNF),
    (("analyze", "-", "--theta", "2"), _USAGE_CNF),
    # theta 1.0 turns the wide clause's ExpCDF into SemiExpCDF
    (("analyze", "-", "--theta", "1.0"), _USAGE_WIDE),
    # n = 5 and 6 are past a cap of 4: 2
    (("growth", "--k", "3", "--n", "4,5,6", "--cap", "4"), ""),
)


def _import_cli(src: Path):
    """Import ``cdfsat.cli`` from ``src``, and only from there."""
    sys.path.insert(0, str(src))
    import cdfsat.cli

    if Path(cdfsat.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"compare_outputs: cdfsat must come from {src}, "
                         f"got {cdfsat.cli.__file__}")
    return cdfsat.cli


def _run_one(cli, argv: list[str], stdin_text: str) -> tuple[str, str, str]:
    """stdout, stderr and outcome (exit code, or the exception raised)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                outcome = f"exit {cli.main(argv)}"
            except SystemExit as exc:  # argparse usage errors
                outcome = f"exit {exc.code}"
            except Exception as exc:  # the command crashed: that is its output
                outcome = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = saved_stdin
    return out.getvalue(), err.getvalue(), outcome


def _child(checkout: Path) -> None:
    """Run the command lists read from stdin through ``checkout``'s
    ``cdfsat``; write each command's stdout, stderr digest and outcome."""
    cli = _import_cli((checkout / "src").resolve())
    results = []
    for commands in json.load(sys.stdin):
        stdouts: dict[int, str] = {}
        for i, (argv, stdin_text, pipe_from) in enumerate(commands):
            if pipe_from is not None:
                stdin_text = stdouts[pipe_from]
            out, err, outcome = _run_one(cli, argv, stdin_text or "")
            stdouts[i] = out
            results.append([out, hashlib.sha256(err.encode()).hexdigest(), outcome])
    json.dump(results, sys.stdout)


def _results(checkout: Path, payload: str) -> list[list[str]]:
    if not (checkout / "src" / "cdfsat" / "cli.py").is_file():
        raise SystemExit(f"compare_outputs: no cdfsat package under {checkout / 'src'}")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(checkout), "--child"],
        input=payload, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare_outputs: the run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _with_twins(commands: list) -> list:
    """``commands``, then a twin of each DPLL command run with the other
    heuristic.  The twins come after every original, so a twin's
    ``pipe_from`` still names its original's source command."""
    twins = [dataclasses.replace(c, label=f"{c.label} {' '.join(OTHER_HEURISTIC)}",
                                 argv=c.argv + OTHER_HEURISTIC)
             for c in commands
             if c.argv[:2] == ("analyze", "-") or c.argv[:3] == ("export-dot", "trace", "-")]
    return commands + twins


def _corpus(workloads) -> list:
    """``export-dot trace -`` on each formula of the corpus.

    A formula is two variable-disjoint random blocks: on the lowest 1-7
    variables, up to two clauses per variable, of widths 1-4; on the next
    1-7, up to eight clauses per variable, of widths 2-4.  Each clause has
    distinct variables and random polarities.  The low block is decided
    first and the dense high block is often UNSAT, which is where the
    search's stopping rules show in the trace; uniform random formulas of
    this size almost never reach them.
    """
    rng = random.Random("compare-outputs-corpus")

    def block(first: int, size: int, per_variable: int, min_width: int) -> list:
        variables = range(first, first + size)
        return [tuple(v if rng.getrandbits(1) else -v
                      for v in rng.sample(variables, min(size, rng.randint(min_width, 4))))
                for _ in range(rng.randint(0, per_variable * size))]

    commands = []
    for i in range(CORPUS_SIZE):
        low, high = rng.randint(1, 7), rng.randint(1, 7)
        n = low + high
        clauses = tuple(block(1, low, 2, 1) + block(low + 1, high, 8, 2))
        text = f"p cnf {n} {len(clauses)}\n" + "".join(
            " ".join(map(str, cl)) + " 0\n" for cl in clauses)
        commands.append(workloads.Command(
            f"export-dot trace corpus #{i} n={n} m={len(clauses)}",
            ("export-dot", "trace", "-"), workloads.Cnf(clauses, n), stdin=text))
    return commands


def _narrow_corpus(workloads) -> list:
    """``analyze -`` and ``export-dot implication-graph -`` on each formula
    of the narrow corpus.

    A formula has 1-30 variables and n to 5n/2 clauses, each a unit clause
    with probability 1/20 and otherwise two distinct variables, with random
    polarities.  That is past the 2-SAT threshold of one clause per
    variable, so about half are UNSAT, where the workload's 2-SAT formulas
    almost never are.
    """
    rng = random.Random("compare-outputs-narrow-corpus")
    commands = []
    for i in range(NARROW_CORPUS_SIZE):
        n = rng.randint(1, 30)
        clauses = tuple(
            tuple(v if rng.getrandbits(1) else -v
                  for v in rng.sample(range(1, n + 1), 1 if rng.random() < 0.05 else min(n, 2)))
            for _ in range(rng.randint(n, 5 * n // 2)))
        text = f"p cnf {n} {len(clauses)}\n" + "".join(
            " ".join(map(str, cl)) + " 0\n" for cl in clauses)
        cnf = workloads.Cnf(clauses, n)
        label = f"narrow corpus #{i} n={n} m={len(clauses)}"
        commands.append(workloads.Command(f"analyze {label}", ("analyze", "-"), cnf, stdin=text))
        commands.append(workloads.Command(
            f"export-dot implication-graph {label}",
            ("export-dot", "implication-graph", "-"), cnf, stdin=text))
    return commands


def _past_cap_corpus(workloads) -> list:
    """``analyze -`` on formulas past the default cap of 26 variables, and
    ``growth`` on the first family of them.

    Random 2-SAT at m = n/3 for n = 100-1000 (PAST_CAP_SEEDS draws each)
    splits into small components, and so does disjoint random 3-SAT.  The
    60-variable formula holds one component of about 24 variables (random
    3-SAT at m = 2n) beside 18 disjoint 2-clauses.  The rest are one
    component far past the cap, whose count only the search can settle:
    random 2-SAT at n = m = 200 and random 3-SAT at n = 40, m = 170, two
    refuted draws each (count 0); the 3000-variable chain from a unit
    clause, alone and among 3020 variables, which root propagation
    satisfies (count 1 and 2^20); and a 30-variable chain of positive
    2-clauses, satisfiable only after a decision, which stays intractable.
    """
    from cdfsat.formula import formula, generate_random_ksat, write_dimacs

    cases = [(f"2-SAT n={n} m={n // 3} seed {seed}", generate_random_ksat(n, n // 3, 2, seed))
             for n in (100, 200, 400, 1000) for seed in range(PAST_CAP_SEEDS)]
    cases += [(f"disjoint 3-SAT n={n} m={n // 3}", generate_random_ksat(n, n // 3, 3, n, True))
              for n in (30, 120, 600)]
    big = generate_random_ksat(24, 48, 3, seed=24).clauses
    cases.append(("a 24-variable component and 18 pairs",
                  formula(big + tuple((v, -(v + 1)) for v in range(25, 61, 2)), 60)))
    cases += [(f"refuted 2-SAT n=200 m=200 seed {seed}", generate_random_ksat(200, 200, 2, seed))
              for seed in (43, 48)]
    cases += [(f"refuted 3-SAT n=40 m=170 seed {seed}", generate_random_ksat(40, 170, 3, seed))
              for seed in (2, 4)]
    chain = [[1]] + [[-i, i + 1] for i in range(1, 3000)]
    cases.append(("chain n=3000", formula(chain, 3000)))
    cases.append(("chain over 3000 of n=3020", formula(chain, 3020)))
    cases.append(("SAT after a decision n=30", formula([[i, i + 1] for i in range(1, 30)], 30)))
    commands = [workloads.Command(f"analyze {label}", ("analyze", "-"), None,
                                  stdin=write_dimacs(f)) for label, f in cases]
    growth = ("growth", "--k", "2", "--density", "1/3", "--n", "100,200,400,1000")
    commands.append(workloads.Command(" ".join(growth), growth, None))
    return commands


def _mixed_width_formula(seed: int):
    """A random formula over 50-60 variables with clauses of widths 1, 2, 3
    and 5: one unit clause, n/5 width-2, 16n/5 width-3 and 2n width-5
    clauses in a random order, each over distinct variables with random
    polarities.  Each width reaches the search through its own kind of
    entry in the clause remainders that it propagates with."""
    from cdfsat.formula import formula

    rng = random.Random(f"compare-outputs-mixed-width:{seed}")
    n = rng.randint(50, 60)
    widths = [1] + [2] * (n // 5) + [3] * (16 * n // 5) + [5] * (2 * n)
    rng.shuffle(widths)
    return formula([tuple(v if rng.getrandbits(1) else -v for v in rng.sample(range(1, n + 1), w))
                    for w in widths], n)


def _large_tree_corpus(workloads) -> list:
    """``analyze -`` and ``export-dot trace -`` on formulas whose search
    trees are thousands of nodes.  Random 3-SAT at n = 60, m = 256: seeds
    1-3 are refuted (63289, 129027 and 110481 nodes under the default
    heuristic) and seed 5 is satisfiable (16885 nodes).  Mixed widths (see
    ``_mixed_width_formula``): seeds 0 and 6 are satisfiable (6222 and 5847
    nodes) and seeds 2 and 7 refuted (3792 and 5344 nodes).  Most of the
    3-SAT trees span several chunks of DOT node lines
    (``cdfsat.logic.DOT_CHUNK``)."""
    from cdfsat.formula import generate_random_ksat, write_dimacs

    cases = [(f"3-SAT n=60 m=256 seed {seed}", generate_random_ksat(60, 256, 3, seed))
             for seed in LARGE_TREE_SEEDS]
    cases += [(f"mixed widths seed {seed}", _mixed_width_formula(seed))
              for seed in MIXED_WIDTH_SEEDS]
    commands = []
    for name, f in cases:
        text = write_dimacs(f)
        for argv in (("analyze", "-"), ("export-dot", "trace", "-")):
            label = f"{' '.join(argv[:-1])} {name}"
            commands.append(workloads.Command(label, argv, None, stdin=text))
    return commands


def _changed_lines(theirs: str, mine: str) -> list[str]:
    """The first MAX_DIFF_LINES removed (-) and added (+) lines, indented."""
    diff = difflib.unified_diff(theirs.splitlines(), mine.splitlines(), n=0, lineterm="")
    # past the two file headers, a diff without context holds only hunk
    # headers and -/+ lines
    changed = [line for line in list(diff)[2:] if not line.startswith("@@")]
    return [f"    {line}" for line in changed[:MAX_DIFF_LINES]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--seeds", default="7,3", help="comma-separated workload seeds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.other)
        return 0

    sys.dont_write_bytecode = True  # leave this checkout's perfbench/ as it is
    _import_cli((ROOT / "src").resolve())
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [(f"{w} seed {s}", _with_twins(workloads.build(w, s)))
            for w in WORKLOADS for s in seeds]
    runs.append(("corpus", _with_twins(_corpus(workloads))))
    runs.append(("narrow corpus", _narrow_corpus(workloads)))
    runs.append(("malformed DIMACS", [workloads.Command(f"analyze {label}", ("analyze", "-"),
                                                        None, stdin=text)
                                      for label, text in MALFORMED_DIMACS]))
    runs.append(("valid DIMACS", [workloads.Command(f"{' '.join(argv[:-1])} {label}", argv,
                                                    None, stdin=text)
                                  for argv in (("analyze", "-"), ("export-dot", "trace", "-"))
                                  for label, text in VALID_DIMACS]))
    runs.append(("prove", [workloads.Command(" ".join(argv), argv, None, stdin=text)
                           for argv, text in PROVE_COMMANDS]))
    growth_encode = []
    for argv, text in GROWTH_ENCODE_COMMANDS:
        label = " ".join(argv)
        if text is None:
            growth_encode.append(workloads.Command(f"{growth_encode[-1].label} | {label}",
                                                   argv, None, pipe_from=len(growth_encode) - 1))
        else:
            growth_encode.append(workloads.Command(label, argv, None, stdin=text))
    runs.append(("growth and encode", growth_encode))
    runs.append(("usage", [workloads.Command(" ".join(("cdfsat",) + argv), argv, None, stdin=text)
                           for argv, text in USAGE_COMMANDS]))
    runs.append(("past the cap", _past_cap_corpus(workloads)))
    runs.append(("large trees", _with_twins(_large_tree_corpus(workloads))))
    payload = json.dumps([[[list(c.argv), c.stdin, c.pipe_from] for c in commands]
                          for _, commands in runs])
    here, other = _results(ROOT, payload), _results(args.other, payload)
    labels = [(run, c.label) for run, commands in runs for c in commands]
    same = 0
    for (run, label), mine, theirs in zip(labels, here, other):
        if mine == theirs:
            same += 1
            continue
        parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"), mine, theirs)
                 if a != b]
        print(f"differs: {run}: {label} ({', '.join(parts)})")
        if mine[0] != theirs[0]:
            for line in _changed_lines(theirs[0], mine[0]):
                print(line)
    print(f"{same}/{len(labels)} commands identical in stdout, stderr and exit code")
    return 0 if same == len(labels) else 1


if __name__ == "__main__":
    sys.exit(main())
