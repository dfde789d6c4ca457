"""Seeded command lists for the two benchmark workloads.

A workload is a fixed list of `cdfsat` commands built from one seed.  Every
input is generated here, in memory: DIMACS text from
``generate_random_ksat`` + ``write_dimacs`` and edge-list text for graphs.
Each command carries what the verifier needs to check its output
independently (the clause lists, the graph, the growth family).

Sizes are fixed per workload, so the work per pass stays comparable from
seed to seed.  On ``count-narrow`` the seed draws the clause and edge
contents; on ``search`` it orders the clauses, literals and edges of a
fixed random sample (see ``_search_suite``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from cdfsat.formula import formula, generate_random_ksat, write_dimacs

# ROADMAP item 4 reproducers.  Both raise RecursionError at baseline.
CHAIN_N = 3000
PAIRS_N = 3000
KNOWN_FAILURE = "RecursionError at baseline (ROADMAP item 4)"
# 2-SAT formula on which dpll_solve takes 2^THRASH_K branches
THRASH_K = 8

# Every command takes milliseconds, up to about 50 ms on a 2.1 GHz Xeon, so
# that a run repeats each one often enough for its best time to be steady
# (see run.py).  Counting: random 3-SAT sizes (2^n assignments) and formulas
# per size and density.  Propagation: random 2-SAT sizes (2n+1 seeds of unit
# propagation, counting skipped above the cap of 26) and formulas per size
# and clause count.
COUNT_SIZES = (16, 17, 18)
COUNT_COPIES = 4
NARROW_SIZES = (40, 60, 80)
NARROW_COPIES = 8


@dataclass(frozen=True)
class Cnf:
    clauses: tuple[tuple[int, ...], ...]
    n: int


@dataclass(frozen=True)
class Graph:
    vertices: int
    edges: tuple[tuple[int, int], ...]

    def text(self) -> str:
        return f"v {self.vertices}\n" + "".join(f"{a} {b}\n" for a, b in self.edges)


@dataclass(frozen=True)
class Encoded:
    """A graph problem whose CNF arrives on stdin from ``cdfsat encode``."""

    problem: str
    graph: Graph


@dataclass(frozen=True)
class Growth:
    k: int
    ns: tuple[int, ...]
    density: int
    seed: int


@dataclass
class Command:
    """One `cdfsat` invocation.

    ``stdin`` is the literal input text; ``pipe_from`` instead names the index
    of an earlier command in the same pass whose stdout is fed in, as in
    ``cdfsat encode matching g | cdfsat analyze -``.  ``subject`` is what the
    verifier checks the output against.
    """

    label: str
    argv: tuple[str, ...]
    subject: Cnf | Graph | Encoded | Growth
    stdin: str | None = None
    pipe_from: int | None = None
    known_failure: str | None = None


def _inputs(f) -> tuple[Cnf, str]:
    """The verifier's view of a formula and its DIMACS text."""
    return Cnf(tuple(cl.literals for cl in f.clauses), f.variable_count), write_dimacs(f)


def _ksat(n: int, m: int, k: int, rng: random.Random) -> tuple[Cnf, str]:
    return _inputs(generate_random_ksat(n, m, k, seed=rng.randrange(2**31)))


def _random_graph(vertices: int, edge_count: int, min_degree: int, rng: random.Random) -> Graph:
    """Uniform simple graph with exactly ``edge_count`` edges, redrawn until
    every vertex has at least ``min_degree`` neighbours."""
    pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    while True:
        edges = sorted(rng.sample(pairs, edge_count))
        degree = [0] * vertices
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if min(degree) >= min_degree:
            return Graph(vertices, tuple(edges))


def chain() -> tuple[Cnf, str]:
    """[[1]] + [[-i, i+1]]: one propagation chain as deep as the formula."""
    return _inputs(formula([[1]] + [[-i, i + 1] for i in range(1, CHAIN_N)], CHAIN_N))


def thrash() -> tuple[Cnf, str]:
    """k free clauses (x_i | y_i) on the lowest indices, then an UNSAT core.

    Polynomial for 2-SAT, but lowest-index DPLL decides every x_i before it
    reaches the core and refutes the core under each of the 2^k settings.
    """
    k = THRASH_K
    a, b, c = 2 * k + 1, 2 * k + 2, 2 * k + 3
    clause_lists = [[i, k + i] for i in range(1, k + 1)]
    clause_lists += [[a, b], [a, -b], [-a, c], [-a, -c]]
    return _inputs(formula(clause_lists, 2 * k + 3))


def pairs() -> tuple[Cnf, str]:
    """Disjoint pairs [[-i, -(i+1)]]: one DPLL decision per pair."""
    return _inputs(formula([[-i, -(i + 1)] for i in range(1, PAIRS_N, 2)], PAIRS_N))


def _analyze(label: str, cnf: Cnf, text: str) -> Command:
    return Command(label, ("analyze", "-", "--quiet"), cnf, stdin=text)


def _count_overlap(rng: random.Random) -> list[Command]:
    cmds: list[Command] = []
    for n in COUNT_SIZES:
        for density in (1, 2, 4.26):
            m = math.floor(density * n)
            for copy in range(COUNT_COPIES):
                cnf, text = _ksat(n, m, 3, rng)
                cmds.append(_analyze(f"analyze 3-SAT n={n} m={m} #{copy}", cnf, text))
    # perfect matching encodings: one variable per edge, so 2^edges assignments
    for vertices, edge_count in ((10, 15), (10, 16), (12, 17)):
        g = _random_graph(vertices, edge_count, 2, rng)
        cmds.append(Command(f"encode matching V={vertices} E={edge_count}",
                            ("encode", "matching", "-"), g, stdin=g.text()))
        cmds.append(Command(f"analyze matching V={vertices} E={edge_count}",
                            ("analyze", "-", "--quiet"), Encoded("matching", g),
                            pipe_from=len(cmds) - 1))
    for density in (1, 2):
        growth = Growth(3, (12, 14, 16), density, rng.randrange(10**6))
        cmds.append(Command(
            f"growth k=3 n=12,14,16 density={density}",
            ("growth", "--k", "3", "--n", ",".join(map(str, growth.ns)),
             "--density", str(density), "--seed", str(growth.seed), "--quiet"),
            growth,
        ))
    return cmds


def _narrow_2sat(rng: random.Random) -> list[Command]:
    # Random 2-SAT is UNSAT about once in 300 draws at m = 3n/4 for n = 40-80,
    # and dpll_solve then backtracks exponentially (see thrash()): up to 5 s
    # on one formula, where the rest take milliseconds.  m <= n/2 was UNSAT
    # once in 2000 draws, with dpll_solve under 0.1 s; the thrash reproducer
    # keeps the defect in view at a fixed cost.
    cmds: list[Command] = []
    for n in NARROW_SIZES:
        for m in (n // 3, n // 2):
            for copy in range(NARROW_COPIES):
                cnf, text = _ksat(n, m, 2, rng)
                cmds.append(_analyze(f"analyze 2-SAT n={n} m={m} #{copy}", cnf, text))
                if copy < 2:
                    cmds.append(Command(f"export-dot implication-graph n={n} m={m} #{copy}",
                                        ("export-dot", "implication-graph", "-"), cnf,
                                        stdin=text))
    cnf, text = thrash()
    cmds.append(_analyze(f"analyze 2-SAT thrash n={cnf.n}", cnf, text))
    return cmds


# Random 3-SAT sizes, just above the counting cap, instances per size, and
# the clause density of the satisfiability threshold (a mix of SAT and
# UNSAT formulas).
SEARCH_SIZES = (28, 30, 32)
SEARCH_PER_SIZE = 30
SEARCH_DENSITY = 4.26
# sparse graphs keep the trail-search Euler oracle fast
SEARCH_GRAPHS = ((7, 11), (7, 11), (8, 12), (8, 12))


def _shuffled(f, rng: random.Random) -> tuple[Cnf, str]:
    """The same formula with its clauses and each clause's literals in a
    random order."""
    clause_lists = [rng.sample(cl.literals, len(cl.literals)) for cl in f.clauses]
    rng.shuffle(clause_lists)
    return _inputs(formula(clause_lists, f.variable_count))


def _search_suite(seed: int) -> tuple[list[tuple[str, Cnf, str]], list[Graph]]:
    """The search workload's formulas and graphs for one seed.

    DPLL cost on random 3-SAT is heavy-tailed: drawing new formulas for
    every seed moved the sum and the median of 90 search times by 6-9%
    from seed to seed before any timing noise.  So the formulas and graphs
    are one fixed random sample, and the seed picks the order of every
    formula's clauses and literals and of every graph's edge lines.  The
    inputs, outputs and traces differ from seed to seed; a formula's search
    cost moves by a few percent (unit propagation visits clauses in another
    order), and a graph's encoding does not change at all.
    """
    sample = random.Random("search")
    order = random.Random(f"search:{seed}")
    formulas = []
    for copy in range(SEARCH_PER_SIZE):
        for n in SEARCH_SIZES:
            m = round(SEARCH_DENSITY * n)
            f = generate_random_ksat(n, m, 3, seed=sample.randrange(2**31))
            cnf, text = _shuffled(f, order)
            formulas.append((f"3-SAT n={n} m={m} #{copy}", cnf, text))
    graphs = []
    for v, e in SEARCH_GRAPHS:
        g = _random_graph(v, e, 1, sample)
        edges = [(b, a) if order.random() < 0.5 else (a, b) for a, b in g.edges]
        graphs.append(Graph(v, tuple(order.sample(edges, len(edges)))))
    return formulas, graphs


def _search(seed: int) -> list[Command]:
    """``analyze``, which builds the DPLL trace and drops it, on every other
    formula, and ``export-dot trace``, which renders it, on the rest; both
    on each Hamiltonian encoding."""
    formulas, graphs = _search_suite(seed)
    analyze = ("analyze", "-", "--quiet")
    render = ("export-dot", "trace", "-")
    cmds = []
    for i, (label, cnf, text) in enumerate(formulas):
        if i % 2 == 0:
            cmds.append(Command(f"analyze {label}", analyze, cnf, stdin=text))
        else:
            cmds.append(Command(f"export-dot trace {label}", render, cnf, stdin=text))
    for copy, g in enumerate(graphs):
        size = f"V={g.vertices} E={len(g.edges)} #{copy}"
        cmds.append(Command(f"encode hamiltonian {size}", ("encode", "hamiltonian", "-"),
                            g, stdin=g.text()))
        encoded = len(cmds) - 1
        cmds.append(Command(f"analyze hamiltonian {size}", analyze, Encoded("hamiltonian", g),
                            pipe_from=encoded))
        cmds.append(Command(f"export-dot trace hamiltonian {size}", render,
                            Encoded("hamiltonian", g), pipe_from=encoded))
        cmds.append(Command(f"euler {size}", ("euler", "-"), g, stdin=g.text()))
    (chain_cnf, chain_text), (pairs_cnf, pairs_text) = chain(), pairs()
    for label, verb, cnf, text in (
        (f"analyze chain n={chain_cnf.n}", analyze, chain_cnf, chain_text),
        (f"export-dot trace chain n={chain_cnf.n}", render, chain_cnf, chain_text),
        (f"export-dot trace pairs n={pairs_cnf.n}", render, pairs_cnf, pairs_text),
    ):
        cmds.append(Command(label, verb, cnf, stdin=text, known_failure=KNOWN_FAILURE))
    return cmds


def build(workload: str, seed: int) -> list[Command]:
    """The command list of one workload; a pure function of its arguments."""
    if workload == "count-narrow":
        # counting commands first: their pipe_from indices count from 0
        return (_count_overlap(random.Random(f"count-overlap:{seed}"))
                + _narrow_2sat(random.Random(f"narrow-2sat:{seed}")))
    if workload == "search":
        return _search(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(commands: list[Command]) -> str:
    """sha256 over every command's argv, literal stdin and pipe source."""
    h = hashlib.sha256()
    for c in commands:
        h.update(json.dumps([list(c.argv), c.stdin, c.pipe_from]).encode())
    return h.hexdigest()
