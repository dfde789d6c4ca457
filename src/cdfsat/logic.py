"""Derivation machinery: implication graphs, propagation, and solvers.

Two deterministic inference fragments live here side by side, and keeping
them separate is the point of the package:

* the *graph* fragment (``clause_to_implications`` / ``propagate_closure``)
  works on the implication edges that width-<=2 clauses admit, by pure
  reachability from a seed set of literals;
* the *clause* fragment (``unit_propagate``) works directly on clauses of
  any width, forcing the last unfalsified literal of an otherwise-falsified
  clause.

For formulas whose clauses all have width <= 2, none of them width 1, the
two fragments compute the same forced sets and meet the same conflicts from
every seed; a unit clause makes them differ at the empty seed, which clause
propagation fires and reachability does not.  The analysis layer decides
compositionality from this lemma, and the test suite checks it against a
seed-by-seed comparison of the two fragments.  A width->=3 clause has no
implication form at all, which ``clause_to_implications`` reports as
WideClauseError.

``dpll_solve`` is a complete backtracking search, unit propagation first.
Its trace distinguishes how each assignment was obtained: a forcing through
a width-<=2 clause is a direct implication step and appears as a single
propagation node, while a forcing through a wider clause has no implication
form and is recorded the way the search actually justifies it, as a
refutation pair: a conflict leaf for the excluded value followed by the
forced branch.  That is what makes backtrack counters an observable
difference between narrow and wide formulas instead of an informal claim.
The search itself is one loop over an explicit stack of open decisions,
and the trace is a tree stored flat, as parallel per-node lists (parent,
kind, variable, value, leaf) in depth-first preorder, so searching,
counting, measuring and rendering are loops with no recursion, however
deep the search goes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .formula import Assignment, Clause, CnfFormula, satisfies


class WideClauseError(ValueError):
    """A width->=3 clause was handed to the implication-graph fragment.

    No implication form exists for such a clause (knowing one literal false
    still leaves a disjunction, not a consequent), so the conversion is
    undefined rather than approximate.  The offending clause rides along as
    evidence.
    """

    def __init__(self, cl: Clause):
        self.clause = cl
        super().__init__(
            f"clause {list(cl.literals)} has width {cl.width}; "
            "only width-<=2 clauses have an implication form"
        )


def _lit_key(lit: int) -> tuple[int, bool]:
    # canonical literal order: by variable, positive polarity first
    return (abs(lit), lit < 0)


def lit_text(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


@dataclass(frozen=True)
class Implication:
    antecedent: int
    consequent: int


def clause_to_implications(cl: Clause) -> tuple[Implication, ...]:
    """Implication form of a narrow clause.

    (a | b) gives ~a => b and ~b => a; a unit clause (a) gives the forcing
    edge ~a => a.  Width >= 3 raises WideClauseError.
    """
    if cl.width == 1:
        (a,) = cl.literals
        return (Implication(-a, a),)
    if cl.width == 2:
        a, b = cl.literals
        return (Implication(-a, b), Implication(-b, a))
    raise WideClauseError(cl)


class ImplicationGraph:
    """Directed graph over all 2n literals of variables 1..n.

    The edge set is closed under contraposition at construction: inserting
    u => v also inserts ~v => ~u, so the invariant holds no matter how the
    graph was assembled.  Isolated literals are still nodes.  Edges are
    stored once, as each literal's successors in canonical order.
    """

    def __init__(self, variable_count: int, edges: Iterable[Implication] = ()):
        if variable_count < 0:
            raise ValueError("variable_count must be >= 0")
        self.variable_count = variable_count
        adj: dict[int, set[int]] = {}
        for e in edges:
            for lit in (e.antecedent, e.consequent):
                if lit == 0 or abs(lit) > variable_count:
                    raise ValueError(f"literal {lit} outside variable range")
            adj.setdefault(e.antecedent, set()).add(e.consequent)
            adj.setdefault(-e.consequent, set()).add(-e.antecedent)
        self._adj = {u: tuple(sorted(vs, key=_lit_key)) for u, vs in adj.items()}

    @property
    def edges(self) -> frozenset[Implication]:
        return frozenset(Implication(u, v) for u, vs in self._adj.items() for v in vs)

    def successors(self, lit: int) -> tuple[int, ...]:
        return self._adj.get(lit, ())

    def literals(self) -> list[int]:
        out: list[int] = []
        for v in range(1, self.variable_count + 1):
            out.extend((v, -v))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ImplicationGraph)
            and self.variable_count == other.variable_count
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        edge_count = sum(len(vs) for vs in self._adj.values())
        return f"ImplicationGraph(n={self.variable_count}, edges={edge_count})"

    def to_json_dict(self) -> dict:
        # literals() and successors() are both in canonical literal order
        return {
            "variableCount": self.variable_count,
            "edges": [
                {"from": u, "to": v} for u in self.literals() for v in self.successors(u)
            ],
        }


def build_implication_graph(f: CnfFormula) -> ImplicationGraph:
    """Union of the implication forms of every clause (all widths <= 2)."""
    edges: list[Implication] = []
    for cl in f.clauses:
        edges.extend(clause_to_implications(cl))
    return ImplicationGraph(f.variable_count, edges)


@dataclass(frozen=True)
class PropagationStep:
    source: int
    rule: str
    literal: int


@dataclass(frozen=True)
class PropagationClosure:
    """Forced-literal closure of a seed, with its derivation steps.

    ``conflict`` names the first variable observed forced in both
    polarities (graph fragment) or the variable of a falsified clause's
    last literal (clause fragment); None means no contradiction.
    """

    seed: frozenset[int]
    forced: frozenset[int]
    steps: tuple[PropagationStep, ...]
    conflict: int | None

    def to_json_dict(self) -> dict:
        return {
            "seed": sorted(self.seed, key=_lit_key),
            "forced": sorted(self.forced, key=_lit_key),
            "steps": [
                {"from": s.source, "rule": s.rule, "to": s.literal}
                for s in self.steps
            ],
            "conflict": self.conflict,
        }


def propagate_closure(g: ImplicationGraph, seed: Iterable[int]) -> PropagationClosure:
    """Reachability closure of ``seed`` over the implication edges.

    Breadth-first from the seed literals in canonical order, so the step
    list is deterministic.  The closure always runs to completion; the
    conflict marker is set as soon as some variable is reached in both
    polarities, taking the empty seed to the empty closure (a forcing edge
    ~a => a fires only once ~a is actually reached).
    """
    seed_set = frozenset(seed)
    for lit in seed_set:
        if lit == 0 or abs(lit) > g.variable_count:
            raise ValueError(f"seed literal {lit} outside variable range")
    forced: set[int] = set(seed_set)
    conflict: int | None = None
    for lit in sorted(seed_set, key=_lit_key):
        if -lit in seed_set:
            conflict = abs(lit)
            break
    steps: list[PropagationStep] = []
    queue = deque(sorted(seed_set, key=_lit_key))
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if v in forced:
                continue
            forced.add(v)
            steps.append(PropagationStep(u, "implication", v))
            if conflict is None and -v in forced:
                conflict = abs(v)
            queue.append(v)
    return PropagationClosure(seed_set, frozenset(forced), tuple(steps), conflict)


@dataclass(frozen=True, eq=False)
class OccurrenceIndex:
    """Where each literal occurs in one formula, for event-driven propagation.

    ``occurrences`` maps a literal to the ascending indices of the clauses
    that contain it; ``units`` lists the indices of the width-1 clauses in
    ascending order.
    """

    occurrences: dict[int, list[int]]
    units: tuple[int, ...]


def occurrence_index(f: CnfFormula) -> OccurrenceIndex:
    """Build the occurrence lists and the unit-clause list of ``f``."""
    occ: dict[int, list[int]] = {}
    units: list[int] = []
    for idx, cl in enumerate(f.clauses):
        lits = cl.literals
        if len(lits) == 1:
            units.append(idx)
        for lit in lits:
            occ.setdefault(lit, []).append(idx)
    return OccurrenceIndex(occ, tuple(units))


def unit_propagate(f: CnfFormula, assignment: Assignment) -> PropagationClosure:
    """Deterministic clause-level closure of a partial assignment.

    Repeatedly: a clause with every literal false except one unassigned
    forces that literal; an original unit clause forces its literal
    unconditionally.  Stops at the first falsified clause (conflict).

    The result is that of scanning all clauses in formula order, pass after
    pass, until a pass forces nothing; steps, forced set and conflict are
    exactly those of that rescan, including the forced set at a conflict,
    which depends on visit order.  The scan is replayed from the formula's
    occurrence index instead of being run: a clause can only start to
    force or conflict once the negation of one of its literals is forced,
    so each pass visits just the clauses that such an event touched since
    their last visit, in ascending order.  The first pass starts from the unit
    clauses and the clauses containing the negation of a seed literal.
    When clause i forces a literal, the clauses containing its negation
    join the current pass if their index is above i (a min-heap keeps the
    pass in formula order) and the next pass otherwise.
    """
    for var in assignment:
        if var < 1 or var > f.variable_count:
            raise ValueError(f"assigned variable {var} outside variable range")
    index = occurrence_index(f)
    occ = index.occurrences
    clauses = f.clauses
    seed_set = frozenset(v if val else -v for v, val in assignment.items())
    forced: set[int] = set(seed_set)
    order: dict[int, int] = {lit: i for i, lit in enumerate(sorted(seed_set, key=_lit_key))}
    steps: list[PropagationStep] = []
    conflict: int | None = None
    later: set[int] = set(index.units)
    for lit in seed_set:
        later.update(occ.get(-lit, ()))
    while later and conflict is None:
        queue = sorted(later)  # a sorted list is a valid heap
        queued = later
        later = set()
        while queue:
            i = heappop(queue)
            cl = clauses[i].literals
            if not forced.isdisjoint(cl):
                continue  # satisfied
            unassigned = [lit for lit in cl if -lit not in forced]
            if not unassigned:
                # falsified: the literal forced most recently is the clash
                trigger = max(cl, key=lambda l: order[-l])
                conflict = abs(trigger)
                break
            if len(unassigned) == 1:
                forced_lit = unassigned[0]
                false_lits = [lit for lit in cl if lit != forced_lit]
                if false_lits:
                    source = -max(false_lits, key=lambda l: order[-l])
                else:
                    source = forced_lit  # original unit clause, self-evident
                forced.add(forced_lit)
                order[forced_lit] = len(order)
                steps.append(PropagationStep(source, "unit", forced_lit))
                for j in occ.get(-forced_lit, ()):
                    if j < i:
                        later.add(j)
                    elif j not in queued:
                        queued.add(j)
                        heappush(queue, j)
    return PropagationClosure(seed_set, frozenset(forced), tuple(steps), conflict)


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    model: Assignment | None = None
    witness_variable: int | None = None

    def to_json_dict(self) -> dict:
        # assignments serialize as true-literal lists sorted by variable
        return {
            "result": "SAT" if self.satisfiable else "UNSAT",
            "model": None
            if self.model is None
            else [v if self.model[v] else -v for v in sorted(self.model)],
            "witnessVariable": self.witness_variable,
        }


def _tarjan_components(nodes: Sequence[int], graph: ImplicationGraph) -> dict[int, int]:
    """Strongly connected components, numbered in emission order.

    Tarjan emits components sinks-first (reverse topological order of the
    condensation), and the iteration order over ``nodes`` plus sorted
    successor lists make the numbering deterministic.
    """
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}
    next_index = 0
    next_comp = 0
    for root in nodes:
        if root in index_of:
            continue
        index_of[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack.add(root)
        call: list[tuple[int, int]] = [(root, 0)]
        while call:
            node, cursor = call[-1]
            succ = graph.successors(node)
            pushed = False
            while cursor < len(succ):
                w = succ[cursor]
                cursor += 1
                if w not in index_of:
                    call[-1] = (node, cursor)
                    index_of[w] = low[w] = next_index
                    next_index += 1
                    stack.append(w)
                    on_stack.add(w)
                    call.append((w, 0))
                    pushed = True
                    break
                if w in on_stack and index_of[w] < low[node]:
                    low[node] = index_of[w]
            if pushed:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp_of[w] = next_comp
                    if w == node:
                        break
                next_comp += 1
    return comp_of


def solve_2sat(f: CnfFormula) -> SolveResult:
    """Satisfiability of a width-<=2 formula via strongly connected components.

    Unsatisfiable exactly when some variable shares a component with its
    negation; that variable (lowest index) is returned as the witness.
    Otherwise each variable is set true iff its positive literal's component
    is emitted earlier (Tarjan emits sinks first, so earlier emission means
    later in topological order of the condensation), and the model is
    verified against every clause before it is returned.
    """
    g = build_implication_graph(f)  # raises WideClauseError on width >= 3
    comp = _tarjan_components(g.literals(), g)
    for v in range(1, f.variable_count + 1):
        if comp[v] == comp[-v]:
            return SolveResult(False, None, witness_variable=v)
    model = {v: comp[v] < comp[-v] for v in range(1, f.variable_count + 1)}
    if not satisfies(f, model):
        raise RuntimeError("2sat model extraction produced a non-model")
    return SolveResult(True, model, None)


# ---------------------------------------------------------------------------
# DPLL with derivation traces
# ---------------------------------------------------------------------------

HEURISTICS = ("lowest-index", "most-occurrences")


@dataclass
class DerivationTrace:
    """Search tree of one dpll_solve run plus its effort counters.

    The tree is stored as five parallel lists indexed by node id.  Node 0
    is the root, and nodes are numbered in creation order, which is
    depth-first preorder, so every parent precedes its children
    (``parents[i] < i``; the root's parent is -1).  ``kinds`` holds "root"
    for the start marker, "decision" for a heuristic choice,
    "propagation" for a forcing and "refutation" for the probed-and-excluded
    value of a width->=3 forcing; ``variables`` and ``values`` give the
    assignment a node makes (None at the root); ``leaves`` marks a node as
    a "SAT" or "UNSAT" endpoint of its branch, or None.

    branch_count counts branch points explored both ways: decisions whose
    second value was tried, and refutation pairs (the excluded value *is*
    the first try).  backtrack_count counts conflict leaves that the search
    retreated from (every conflict except a final one that ends an UNSAT
    run), so branch_count >= backtrack_count always holds.
    """

    parents: list[int]
    kinds: list[str]
    variables: list[int | None]
    values: list[bool | None]
    leaves: list[str | None]
    result: SolveResult
    heuristic: str
    branch_count: int
    backtrack_count: int
    free_variables: tuple[int, ...]

    def node_count(self) -> int:
        return len(self.parents)

    def depth(self) -> int:
        """Longest root-to-leaf path, in edges."""
        depths = [0] * len(self.parents)
        for i in range(1, len(self.parents)):
            depths[i] = depths[self.parents[i]] + 1
        return max(depths)

    def conflict_count(self) -> int:
        return self.leaves.count("UNSAT")

    def to_json_dict(self) -> dict:
        out = self.result.to_json_dict()
        del out["witnessVariable"]
        out.update(
            {
                "heuristic": self.heuristic,
                "branchCount": self.branch_count,
                "backtrackCount": self.backtrack_count,
                "freeVariables": list(self.free_variables),
                "nodeCount": self.node_count(),
                "depth": self.depth(),
            }
        )
        return out


class _DpllSearch:
    def __init__(self, f: CnfFormula, heuristic: str):
        self.f = f
        self.clauses = [cl.literals for cl in f.clauses]
        self.heuristic = heuristic
        index = occurrence_index(f)
        self.occ = index.occurrences
        self.units = index.units
        # decision order: the heuristic's choice is the first candidate in it
        self.order = list(range(1, f.variable_count + 1))
        if heuristic == "most-occurrences":
            # stable sort: ties keep ascending index
            self.order.sort(key=lambda v: -len(self.occ.get(v, ())) - len(self.occ.get(-v, ())))
        self.assign: Assignment = {}
        self.trail: list[int] = []
        self.sat_flag = [False] * len(self.clauses)
        self.sat_trail: list[int] = []
        self.sat_count = 0
        self.pending: deque[int] = deque()
        self.branch_count = 0
        self.conflict_seen = 0
        # the trace, node 0 being the root (see DerivationTrace)
        self.parents: list[int] = [-1]
        self.kinds: list[str] = ["root"]
        self.variables: list[int | None] = [None]
        self.values: list[bool | None] = [None]
        self.leaves: list[str | None] = [None]

    # -- state updates ------------------------------------------------

    def _node(self, parent: int, kind: str, lit: int) -> int:
        """Append a trace node assigning ``lit``; returns its id."""
        self.parents.append(parent)
        self.kinds.append(kind)
        self.variables.append(abs(lit))
        self.values.append(lit > 0)
        self.leaves.append(None)
        return len(self.parents) - 1

    def _set_literal(self, lit: int) -> None:
        var = abs(lit)
        self.assign[var] = lit > 0
        self.trail.append(var)
        self.pending.append(lit)
        for idx in self.occ.get(lit, ()):
            if not self.sat_flag[idx]:
                self.sat_flag[idx] = True
                self.sat_count += 1
                self.sat_trail.append(idx)

    def _undo_to(self, mark_assign: int, mark_sat: int) -> None:
        while len(self.trail) > mark_assign:
            del self.assign[self.trail.pop()]
        while len(self.sat_trail) > mark_sat:
            self.sat_flag[self.sat_trail.pop()] = False
            self.sat_count -= 1

    def _note_conflict(self, tip: int) -> None:
        """Mark node ``tip`` as an UNSAT leaf and count the conflict."""
        # a retreat follows unless this conflict ends the whole search;
        # the final tally fixes up the UNSAT case
        self.leaves[tip] = "UNSAT"
        self.conflict_seen += 1

    # -- propagation ----------------------------------------------------

    def _clause_state(self, idx: int) -> int | None:
        """The single unassigned literal, 0 if falsified, None otherwise."""
        single = None
        for lit in self.clauses[idx]:
            val = self.assign.get(abs(lit))
            if val is None:
                if single is not None:
                    return None  # two unassigned, nothing to do
                single = lit
            elif (lit > 0) == val:
                return None  # satisfied
        return 0 if single is None else single

    def _force(self, lit: int, wide: bool, tip: int) -> int:
        if wide:
            # no implication form: the excluded value is probed and refuted
            self._note_conflict(self._node(tip, "refutation", -lit))
            self.branch_count += 1
        self._set_literal(lit)
        return self._node(tip, "propagation", lit)

    def _propagate(self, tip: int, units: Sequence[int] = ()) -> int | None:
        """Drain the unit-propagation queue, growing the trace chain at tip.

        Whenever the queue runs dry, the next clause of ``units`` (the
        original unit clauses, at the root) is checked and fired.  Returns
        the new chain tip, or None on conflict (with the dead node already
        marked as an UNSAT leaf).
        """
        next_unit = 0
        while self.pending or next_unit < len(units):
            if self.pending:
                visit = self.occ.get(-self.pending.popleft(), ())
            else:
                visit = (units[next_unit],)
                next_unit += 1
            for idx in visit:
                if self.sat_flag[idx]:
                    continue
                state = self._clause_state(idx)
                if state is None:
                    continue
                if state == 0:
                    self._note_conflict(tip)
                    self.pending.clear()
                    return None
                tip = self._force(state, len(self.clauses[idx]) >= 3, tip)
        return tip

    # -- branching ------------------------------------------------------

    def _pick_variable(self, start: int) -> int:
        """Position in ``order`` of the first unassigned variable that occurs
        in an unsatisfied clause, looking from ``start`` on.

        ``start`` is where the parent level's choice was found: every
        variable before it was then assigned or in satisfied clauses only,
        and deeper in the search both the assignment and the satisfied
        clauses only grow.
        """
        pos = start
        while True:
            var = self.order[pos]
            if var not in self.assign and not all(
                self.sat_flag[idx] for lit in (var, -var) for idx in self.occ.get(lit, ())
            ):
                return pos
            pos += 1

    def _search(self) -> bool:
        """Depth-first search over an explicit stack of open decisions.

        A frame is (literal tried, parent node, trail marks before the
        literal, order position of its variable).  The true value is tried
        first, so a negative literal means both values have been tried.  On
        a conflict the loop drops those frames and flips the newest
        remaining one; the search is UNSAT when none remains.
        """
        frames: list[tuple[int, int, int, int, int]] = []
        tip = self._propagate(0, self.units)
        pos = 0
        while True:
            if tip is not None:
                if self.sat_count == len(self.clauses):
                    self.leaves[tip] = "SAT"
                    return True  # the assignment is left in place as the model
                pos = self._pick_variable(pos)
                lit, parent = self.order[pos], tip
                frames.append((lit, parent, len(self.trail), len(self.sat_trail), pos))
            else:
                while frames and frames[-1][0] < 0:
                    frames.pop()
                if not frames:
                    return False
                lit, parent, mark_assign, mark_sat, pos = frames[-1]
                self._undo_to(mark_assign, mark_sat)
                self.branch_count += 1
                lit = -lit
                frames[-1] = (lit, parent, mark_assign, mark_sat, pos)
            node = self._node(parent, "decision", lit)
            self._set_literal(lit)
            tip = self._propagate(node)

    def run(self) -> tuple[SolveResult, DerivationTrace]:
        free: tuple[int, ...] = ()
        if self._search():
            result = SolveResult(True, dict(self.assign), None)
            if not satisfies(self.f, self.assign):
                raise RuntimeError("dpll produced a non-model")
            free = tuple(v for v in range(1, self.f.variable_count + 1) if v not in self.assign)
            # every conflict was retreated from: the SAT leaf came after it
            backtracks = self.conflict_seen
        else:
            result = SolveResult(False, None, None)
            # the final conflict ends the run, so it is not a retreat
            backtracks = max(0, self.conflict_seen - 1)
        trace = DerivationTrace(
            parents=self.parents,
            kinds=self.kinds,
            variables=self.variables,
            values=self.values,
            leaves=self.leaves,
            result=result,
            heuristic=self.heuristic,
            branch_count=self.branch_count,
            backtrack_count=backtracks,
            free_variables=free,
        )
        return result, trace


def dpll_solve(
    f: CnfFormula, heuristic: str = "lowest-index"
) -> tuple[SolveResult, DerivationTrace]:
    """Complete backtracking search with unit propagation at every node.

    Heuristics pick the decision variable among the variables of currently
    unsatisfied clauses: "lowest-index" takes the smallest index,
    "most-occurrences" the variable occurring in the most clauses of the
    original formula (static counts, ties to the lowest index).  The true
    branch is always tried first.  SAT is declared as soon as every clause
    is satisfied; variables never assigned are reported free.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}, expected one of {HEURISTICS}")
    return _DpllSearch(f, heuristic).run()


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def implication_graph_to_dot(g: ImplicationGraph) -> str:
    """Graphviz text for an implication graph; node names are literal text."""
    lines = ["digraph implication_graph {", "  rankdir=LR;"]
    for lit in g.literals():
        lines.append(f'  "{lit_text(lit)}";')
    for u in g.literals():
        for v in g.successors(u):
            lines.append(f'  "{lit_text(u)}" -> "{lit_text(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_to_dot(trace: DerivationTrace) -> str:
    """Graphviz text for a derivation trace.

    Decision nodes are double-circled, UNSAT leaves are filled, and node ids
    are the trace's own (depth-first preorder), so the output is
    deterministic.
    """
    lines = ["digraph derivation_trace {", "  rankdir=TB;"]
    nodes = zip(trace.kinds, trace.variables, trace.values, trace.leaves)
    for i, (kind, variable, value, leaf) in enumerate(nodes):
        label = "Start" if kind == "root" else f"x{variable}={'true' if value else 'false'}"
        if leaf is not None:
            label += f" ({leaf})"
        attrs = [f'label="{label}"']
        if kind == "decision":
            attrs.append("shape=doublecircle")
        if leaf == "UNSAT":
            attrs.append("style=filled")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for i in range(1, len(trace.parents)):
        lines.append(f"  n{trace.parents[i]} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
