"""Independent brute-force oracles for the test suite.

Nothing here imports from cdfsat: each oracle is a deliberately naive
reimplementation of the quantity under test, so a package bug cannot hide
inside its own checking code.  Sizes are kept small enough that exhaustive
enumeration stays honest.
"""

from __future__ import annotations

import itertools
import re

import numpy as np


# ---------------------------------------------------------------------------
# Clause construction
# ---------------------------------------------------------------------------

def reference_clause(literals) -> tuple:
    """What building a clause from the literal list ``literals`` gives.

    Literals are read left to right, and the first fault met decides:
    something that is not an int, or is a bool, or is 0, gives
    ("ValueError", "literal must be a nonzero int, got <repr>"); a literal
    whose negation occurs earlier in the list gives
    ("TautologicalClauseError", "clause <the whole list> contains <lit> and
    <-lit>").  With no fault, an empty list gives ("ValueError", "empty
    clause is not representable"), and any other list gives ("ok", the
    tuple of its literals with every repeat after the first left out).
    """
    lits = list(literals)
    for i, lit in enumerate(lits):
        if type(lit) is bool or not isinstance(lit, int) or lit == 0:
            return ("ValueError", f"literal must be a nonzero int, got {lit!r}")
        if -lit in lits[:i]:
            return ("TautologicalClauseError", f"clause {lits} contains {lit} and {-lit}")
    if not lits:
        return ("ValueError", "empty clause is not representable")
    return ("ok", tuple(lit for i, lit in enumerate(lits) if lit not in lits[:i]))


def reference_dimacs(text: str) -> tuple:
    """What parsing the DIMACS text ``text`` gives, read line by line.

    Lines are those of ``str.splitlines``, numbered from 1.  A line whose
    first word starts with ``c`` is a comment; one whose first word starts
    with ``%`` ends the text; one whose first word starts with ``p`` is the
    header, ``p cnf <vars> <clauses>``, of which there is one, before any
    literal.  Every other word is an int literal within the declared
    variables, and a 0 ends a clause, which ``reference_clause`` builds.
    The first fault met gives ("DimacsParseError", "line <k>: <what>"),
    where a tautology names the line its clause began on; a missing header
    has no line.  Otherwise the result is ("ok", variable count, clause
    tuples, warning messages), with one warning when the header's clause
    count differs from the clauses found.
    """
    def error(what: str, line: int | None = None) -> tuple:
        return ("DimacsParseError", what if line is None else f"line {line}: {what}")

    header = None
    clauses: list[tuple] = []
    pending: list[int] = []
    began = 0
    for number, raw in enumerate(text.splitlines(), 1):
        words = raw.split()
        if not words or words[0][0] == "c":
            continue
        if words[0][0] == "%":
            break
        if words[0][0] == "p":
            if header is not None:
                return error("duplicate header", number)
            try:
                if len(words) != 4 or words[1] != "cnf":
                    raise ValueError
                header = (int(words[2]), int(words[3]))
            except ValueError:
                return error(f"malformed header {raw.strip()!r}", number)
            if min(header) < 0:
                return error(f"negative counts in header {raw.strip()!r}", number)
            continue
        if header is None:
            return error("clause data before 'p cnf' header", number)
        for word in words:
            try:
                lit = int(word)
            except ValueError:
                return error(f"bad literal token {word!r}", number)
            if lit and abs(lit) > header[0]:
                return error(f"literal {lit} exceeds declared variable count {header[0]}", number)
            if lit:
                if not pending:
                    began = number
                pending.append(lit)
                continue
            kind, built = reference_clause(pending)
            if kind == "TautologicalClauseError":
                return error(f"clause {len(clauses) + 1} is tautological: {built}", began)
            if kind != "ok":
                return error(f"clause {len(clauses) + 1}: {built}", number)
            clauses.append(built)
            pending = []
    if header is None:
        return error("missing 'p cnf' header")
    if pending:
        return error(f"clause {len(clauses) + 1} not terminated by 0", began)
    found = len(clauses)
    warned = [] if header[1] == found else [f"header declares {header[1]} clauses, found {found}"]
    return ("ok", header[0], clauses, warned)


# ---------------------------------------------------------------------------
# CNF model enumeration
# ---------------------------------------------------------------------------

def all_assignments(n: int):
    """Every total assignment over variables 1..n, ascending by the package's
    mask convention (variable 1 at the most significant bit, false=0 first).
    """
    for bits in itertools.product([False, True], repeat=n):
        yield {v: bits[v - 1] for v in range(1, n + 1)}


def clause_satisfied(literals, assignment) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in literals)


def formula_satisfied(clause_lists, assignment) -> bool:
    return all(clause_satisfied(cl, assignment) for cl in clause_lists)


def partial_formula_satisfied(clause_lists, partial) -> bool:
    """Whether a partial assignment already makes every clause true.

    Solver models may leave untouched variables out; soundness then means
    each clause contains a literal that the assigned part satisfies.
    """
    return all(
        any(abs(lit) in partial and partial[abs(lit)] == (lit > 0) for lit in cl)
        for cl in clause_lists
    )


def model_masks(clause_lists, n: int) -> list[int]:
    """Masks of all models in ascending order (bit n-v carries variable v)."""
    out = []
    for mask, assignment in enumerate(all_assignments(n)):
        if formula_satisfied(clause_lists, assignment):
            out.append(mask)
    return out


def is_satisfiable(clause_lists, n: int) -> bool:
    return any(formula_satisfied(clause_lists, a) for a in all_assignments(n))


def fast_count_models(clause_lists, n: int) -> int:
    """The number of models, vectorized for the large randomized suites.

    Builds one unpacked boolean truth column per variable over all 2^n
    rows and ORs them per clause.  The package's sweep also ORs truth
    columns, but packed into one Python int per chunk and with the high
    variables fixed per chunk; this oracle shares none of that code (nor
    numpy, which the package does not use), so a slip in the packing, the
    chunking or the clause resolution shows up as a different count.
    """
    rows = np.arange(1 << n, dtype=np.uint32)
    cols = {v: ((rows >> (n - v)) & 1).astype(bool) for v in range(1, n + 1)}
    ok = np.ones(1 << n, dtype=bool)
    for cl in clause_lists:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in cl:
            sat |= cols[abs(lit)] if lit > 0 else ~cols[abs(lit)]
        ok &= sat
    return int(np.count_nonzero(ok))


def fast_satisfiable(clause_lists, n: int) -> bool:
    return fast_count_models(clause_lists, n) > 0


def components(clause_lists, n: int) -> list[tuple[list[int], list]]:
    """(variables, clauses) of each connected component of the
    shared-variable graph that holds a clause, by a plain union-find."""
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for cl in clause_lists:
        for lit in cl[1:]:
            parent[find(abs(lit))] = find(abs(cl[0]))
    groups: dict[int, tuple[set, list]] = {}
    for cl in clause_lists:
        variables, members = groups.setdefault(find(abs(cl[0])), (set(), []))
        variables.update(abs(lit) for lit in cl)
        members.append(cl)
    return [(sorted(variables), members) for variables, members in groups.values()]


def component_count(clause_lists, n: int) -> int:
    """Model count as the product of component counts, each by
    fast_count_models over the component renumbered 1..k, times two for
    every variable in no clause."""
    parts = components(clause_lists, n)
    count = 1 << (n - sum(len(variables) for variables, _ in parts))
    for variables, members in parts:
        index = {v: i for i, v in enumerate(variables, 1)}
        renumbered = [[index[abs(lit)] if lit > 0 else -index[abs(lit)] for lit in cl]
                      for cl in members]
        count *= fast_count_models(renumbered, len(variables))
    return count


# ---------------------------------------------------------------------------
# Propagation fixpoints
# ---------------------------------------------------------------------------

def naive_unit_closure(clause_lists, seed_literals) -> tuple[set[int], int | None]:
    """Clause-level propagation by full formula-order rescans.

    Every pass scans all clauses in order, a clause with one unassigned
    literal left forces it, passes repeat until one forces nothing, and the
    first falsified clause ends the run.  The seed literals are over
    distinct variables.
    Returns ``(forced, conflict)``: the forced literal set, seed included,
    and the conflict variable, None without a conflict.  The conflict
    variable is that of the falsified clause's literal that became false
    most recently, the seed counting as forced first, in canonical order.
    """
    forced = set(seed_literals)
    canonical = sorted(forced, key=lambda lit: (abs(lit), lit < 0))
    order = {lit: i for i, lit in enumerate(canonical)}
    conflict = None
    progress = True
    while progress and conflict is None:
        progress = False
        for cl in clause_lists:
            if any(lit in forced for lit in cl):
                continue
            unassigned = [lit for lit in cl if -lit not in forced]
            if not unassigned:
                conflict = abs(max(cl, key=lambda lit: order[-lit]))
                break
            if len(unassigned) == 1:
                forced.add(unassigned[0])
                order[unassigned[0]] = len(order)
                progress = True
    return forced, conflict


def naive_reachable(pairs, seed_literals) -> set[int]:
    """Transitive closure of the seed over directed implication pairs."""
    forced = set(seed_literals)
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if u in forced and v not in forced:
                forced.add(v)
                changed = True
    return forced


def _lit_order(lit: int):
    return (abs(lit), lit < 0)


def seedwise_compositionality(clause_lists, n: int) -> dict:
    """The compositionality report of a width-<=2 formula, seed by seed.

    Runs clause-level propagation (``naive_unit_closure``) and
    reachability over the implication edges (``naive_reachable``; a clause
    (a | b) gives ~a => b and ~b => a, a unit clause (a) gives ~a => a)
    from the empty seed and from every single literal (x1, ~x1, x2, ...),
    2n+1 seeds.  It stops at the first seed on which the two differ in
    whether they meet a conflict (a falsified clause; a variable reached in
    both polarities) or, with no conflict on either side, in the forced
    set.  The result has the shape of the package's JSON report; the
    witness blames the first unit clause (the first clause when there is
    none) and carries the two forced sets.
    """
    if any(len(cl) > 2 for cl in clause_lists):
        raise ValueError("seedwise comparison needs clauses of width <= 2")
    pairs = []
    for cl in clause_lists:
        if len(cl) == 1:
            pairs.append((-cl[0], cl[0]))
        else:
            a, b = cl
            pairs += [(-a, b), (-b, a)]
    seeds = [set()]
    for v in range(1, n + 1):
        seeds += [{v}, {-v}]
    for seed in seeds:
        gamma, conflict = naive_unit_closure(clause_lists, seed)
        beta = naive_reachable(pairs, seed)
        clause_conflict = conflict is not None
        graph_conflict = any(-lit in beta for lit in beta)
        if clause_conflict == graph_conflict and (clause_conflict or gamma == beta):
            continue
        units = [cl for cl in clause_lists if len(cl) == 1]
        blamed = units[0] if units else clause_lists[0]
        return {
            "status": "NonCompositional",
            "checkedSeeds": len(seeds),
            "witness": {
                "clause": list(blamed),
                "assignment": sorted(seed, key=_lit_order),
                "gammaForced": sorted(gamma, key=_lit_order),
                "betaAlphaForced": sorted(beta, key=_lit_order),
            },
        }
    return {"status": "Compositional", "checkedSeeds": len(seeds), "witness": None}


# ---------------------------------------------------------------------------
# 2-SAT
# ---------------------------------------------------------------------------

def reference_2sat(clause_lists, n: int) -> dict:
    """2-SAT by strongly connected components (Aspvall, Plass & Tarjan
    1979), written naively.

    The implication graph is a dict from each of the 2n literals to the
    set of its successors: a clause (a | b) gives ~a => b and ~b => a, and
    a unit clause (a) gives ~a => a.  Tarjan's algorithm recurses from the
    literals in the order x1, ~x1, x2, ~x2, ..., visits successors in the
    same order (by variable, positive first), and numbers the components in
    the order it completes them.  The formula is UNSAT when a variable
    shares a component with its negation, and the lowest such variable is
    the witness.  Otherwise a variable is true when its positive literal's
    component is numbered lower.

    Returns "satisfiable", "model" (a dict over 1..n, None when UNSAT) and
    "witness" (None when SAT).
    """
    literals = [lit for v in range(1, n + 1) for lit in (v, -v)]
    successors = {lit: set() for lit in literals}
    for cl in clause_lists:
        if len(cl) == 1:
            successors[-cl[0]].add(cl[0])
        else:
            a, b = cl
            successors[-a].add(b)
            successors[-b].add(a)
    index, low, stack, component = {}, {}, [], {}

    def visit(u):
        index[u] = low[u] = len(index)
        stack.append(u)
        for w in sorted(successors[u], key=_lit_order):
            if w not in index:
                visit(w)
                low[u] = min(low[u], low[w])
            elif w in stack:
                low[u] = min(low[u], index[w])
        if low[u] == index[u]:
            number = len(set(component.values()))
            while True:
                w = stack.pop()
                component[w] = number
                if w == u:
                    break

    for lit in literals:
        if lit not in index:
            visit(lit)
    for v in range(1, n + 1):
        if component[v] == component[-v]:
            return {"satisfiable": False, "model": None, "witness": v}
    model = {v: component[v] < component[-v] for v in range(1, n + 1)}
    return {"satisfiable": True, "model": model, "witness": None}


# ---------------------------------------------------------------------------
# DPLL search
# ---------------------------------------------------------------------------

def reference_dpll(clause_lists, n: int, heuristic: str) -> dict:
    """The package's documented DPLL search with its trace, written naively.

    The search recurses once per decision and keeps its assignment in a
    dict.  Propagation takes literals from a first-in, first-out queue; for
    each, it scans every clause in formula order for those that contain the
    literal's negation and checks each against the whole current
    assignment.  A falsified clause marks the current tip as an UNSAT leaf
    and ends the branch.  An unsatisfied clause with a single unassigned
    literal forces it.  Through a clause of width <= 2, that is one
    propagation node.  Through a wider clause it is a refutation node for
    the excluded value (an UNSAT leaf, counted as a branch) and then the
    propagation node, both children of the current tip.  At the root, each
    time the queue is empty, the next unit clause in formula order is
    checked the same way.  The decision variable is the first one, in the
    heuristic's order, that is unassigned and occurs in a clause the
    assignment does not satisfy, found by rescanning the whole order:
    ascending index for "lowest-index", most clause occurrences first (ties
    to the lower index) for "most-occurrences".  The true value is tried
    first, and trying the false value counts as a branch.  SAT is declared
    when no variable is left to pick.

    The search stops early at autarkies.  An assignment is an autarky when
    every clause that holds the negation of one of its literals is
    satisfied.  The assignment after the root's propagation is autarkic
    when it is an autarky; the assignment after a decision's propagation
    is autarkic when it is an autarky and the assignment the decision was
    taken under is autarkic.  When both values of a decision taken under
    an autarkic assignment fail, the whole search ends as UNSAT.

    Returns the trace as five per-node lists in creation order ("parents",
    "kinds", "variables", "values", "leaves"; node 0 is the root, with
    parent -1 and kind "root"), plus "satisfiable", "model" (None when
    UNSAT), "branch_count", "backtrack_count" (the UNSAT leaves, less the
    final one of an UNSAT run) and "free_variables".
    """
    parents, kinds, variables, values, leaves = [-1], ["root"], [None], [None], [None]
    branches = 0

    def add_node(parent, kind, lit, leaf=None):
        parents.append(parent)
        kinds.append(kind)
        variables.append(abs(lit))
        values.append(lit > 0)
        leaves.append(leaf)
        return len(parents) - 1

    def satisfied(cl, assign):
        return any(assign.get(abs(lit)) == (lit > 0) for lit in cl)

    def propagate(assign, queue, tip, units=()):
        nonlocal branches
        units = list(units)
        while queue or units:
            if queue:
                taken = queue.pop(0)
                visit = [cl for cl in clause_lists if -taken in cl]
            else:
                visit = [units.pop(0)]
            for cl in visit:
                if satisfied(cl, assign):
                    continue
                unassigned = [lit for lit in cl if abs(lit) not in assign]
                if not unassigned:
                    leaves[tip] = "UNSAT"
                    return None
                if len(unassigned) == 1:
                    forced = unassigned[0]
                    if len(cl) >= 3:
                        add_node(tip, "refutation", -forced, "UNSAT")
                        branches += 1
                    assign[abs(forced)] = forced > 0
                    queue.append(forced)
                    tip = add_node(tip, "propagation", forced)
        return tip

    order = list(range(1, n + 1))
    if heuristic == "most-occurrences":
        occurrences = {v: sum(abs(lit) == v for cl in clause_lists for lit in cl) for v in order}
        order.sort(key=lambda v: -occurrences[v])

    def pick(assign):
        for var in order:
            if var in assign:
                continue
            for cl in clause_lists:
                if any(abs(lit) == var for lit in cl) and not satisfied(cl, assign):
                    return var
        return None

    def is_autarky(assign):
        return all(
            satisfied(cl, assign)
            for cl in clause_lists
            if any(assign.get(abs(lit)) == (lit < 0) for lit in cl)
        )

    cut = False

    def search(assign, tip, autarkic):
        nonlocal branches, cut
        var = pick(assign)
        if var is None:
            leaves[tip] = "SAT"
            return assign
        for lit in (var, -var):
            if lit < 0:
                branches += 1
            child = dict(assign)
            child[var] = lit > 0
            end = propagate(child, [lit], add_node(tip, "decision", lit))
            if end is not None:
                model = search(child, end, autarkic and is_autarky(child))
                if model is not None or cut:
                    return model
        cut = autarkic
        return None

    root = {}
    units = [cl for cl in clause_lists if len(cl) == 1]
    tip = propagate(root, [], 0, units)
    model = None if tip is None else search(root, tip, is_autarky(root))
    conflicts = leaves.count("UNSAT")
    return {
        "parents": parents,
        "kinds": kinds,
        "variables": variables,
        "values": values,
        "leaves": leaves,
        "satisfiable": model is not None,
        "model": model,
        "branch_count": branches,
        "backtrack_count": conflicts if model is not None else max(0, conflicts - 1),
        "free_variables": ()
        if model is None
        else tuple(v for v in range(1, n + 1) if v not in model),
    }


def reference_trace_dot(parents, kinds, variables, values, leaves) -> str:
    """Graphviz text of a DPLL trace given as its five per-node lists.

    One line per node in id order, ``  n<i> [label="..."];``, then one edge
    line ``  n<parent> -> n<i>;`` per node after the root, between the
    ``digraph derivation_trace {`` header with ``  rankdir=TB;`` and a
    closing brace, every line ending in a newline.  The label is "Start" at
    the root and ``x<variable>=true`` or ``=false`` elsewhere, followed by
    `` (SAT)`` or `` (UNSAT)`` at a leaf.  A decision node adds
    ``, shape=doublecircle`` and an UNSAT leaf ``, style=filled``.
    """
    lines = ["digraph derivation_trace {", "  rankdir=TB;"]
    for i, (kind, variable, value, leaf) in enumerate(zip(kinds, variables, values, leaves)):
        label = "Start" if kind == "root" else f"x{variable}={'true' if value else 'false'}"
        if leaf is not None:
            label += f" ({leaf})"
        attrs = f'label="{label}"'
        if kind == "decision":
            attrs += ", shape=doublecircle"
        if leaf == "UNSAT":
            attrs += ", style=filled"
        lines.append(f"  n{i} [{attrs}];")
    lines += [f"  n{parents[i]} -> n{i};" for i in range(1, len(parents))]
    lines.append("}")
    return "\n".join(lines) + "\n"


_TRACE_NODE_LINE = re.compile(
    r'^  n\d+ \[label="(?:Start|x(\d+)=(true|false))(?: \((SAT|UNSAT)\))?"'
    r"(, shape=doublecircle)?(?:, style=filled)?\];$",
    re.MULTILINE,
)
_TRACE_EDGE_LINE = re.compile(r"^  n(\d+) -> n\d+;$", re.MULTILINE)


def read_trace_dot(text: str) -> dict:
    """The per-node lists of a DPLL trace read back from its Graphviz text,
    the inverse of ``reference_trace_dot``.

    Returns "parents", "variables", "values" and "leaves" as that function
    takes them, and "decisions", True at a decision node.  The text tells a
    decision from the other nodes, but not a propagation from a
    refutation, so no kinds are read.  Raises ValueError unless
    ``reference_trace_dot`` renders the lists read back to ``text`` itself:
    node ids, edge order, header and closing brace must all be as it writes
    them.
    """
    nodes = _TRACE_NODE_LINE.findall(text)
    lists = {
        "parents": [-1] + [int(parent) for parent in _TRACE_EDGE_LINE.findall(text)],
        "decisions": [bool(shape) for _, _, _, shape in nodes],
        "variables": [int(variable) if variable else None for variable, _, _, _ in nodes],
        "values": [value == "true" if value else None for _, value, _, _ in nodes],
        "leaves": [leaf or None for _, _, leaf, _ in nodes],
    }
    kinds = ["root"] + ["decision" if d else "propagation" for d in lists["decisions"][1:]]
    rendered = reference_trace_dot(lists["parents"], kinds, lists["variables"],
                                   lists["values"], lists["leaves"])
    if rendered != text:
        raise ValueError("not the Graphviz text of a DPLL trace")
    return lists


# ---------------------------------------------------------------------------
# Graph problems
# ---------------------------------------------------------------------------

def _normalize(edges):
    return sorted(set((min(a, b), max(a, b)) for a, b in edges))


def perfect_matchings(vertex_count: int, edges) -> list[tuple]:
    """All perfect matchings as sorted edge tuples."""
    edge_list = _normalize(edges)
    if vertex_count % 2:
        return []
    out = []
    for combo in itertools.combinations(edge_list, vertex_count // 2):
        covered = [v for e in combo for v in e]
        if len(set(covered)) == vertex_count:
            out.append(combo)
    return out


def has_hamiltonian_cycle(vertex_count: int, edges) -> bool:
    """Permutation search anchored at vertex 0."""
    eset = set(_normalize(edges))
    if vertex_count < 3:
        return False

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in eset

    for perm in itertools.permutations(range(1, vertex_count)):
        cycle = (0,) + perm
        if all(
            adjacent(cycle[i], cycle[(i + 1) % vertex_count])
            for i in range(vertex_count)
        ):
            return True
    return False


def has_eulerian_path(vertex_count: int, edges) -> bool:
    """Trail search: try to walk every edge exactly once, from every start.

    Deliberately ignorant of the degree-parity theorem the package uses.
    """
    edge_list = [(min(a, b), max(a, b)) for a, b in edges]
    if not edge_list:
        return True

    def extend(at, remaining):
        if not remaining:
            return True
        for i, (a, b) in enumerate(remaining):
            if at in (a, b):
                nxt = b if at == a else a
                if extend(nxt, remaining[:i] + remaining[i + 1 :]):
                    return True
        return False

    starts = sorted(set(v for e in edge_list for v in e))
    return any(extend(s, edge_list) for s in starts)
