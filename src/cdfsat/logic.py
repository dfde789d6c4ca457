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

Every table in this module that holds an entry for each literal has one
layout: a list of 2n + 1 entries indexed by literal, where a negative
literal indexes from the end, so variable v owns entries v and -v and
entry 0 is unused.  A lookup is then one list index, with no hashing and
no default for a literal that occurs nowhere.  The implication graph's
successors, Tarjan's state in ``solve_2sat``, the occurrence lists that
``unit_propagate`` builds for its replay, the remainder lists of
``remainder_index`` and the DPLL value table are such lists.

``ImplicationGraph`` stores its edges in that layout: entry u is the tuple
of u's successors in canonical order (by variable, positive first).
``build_implication_graph`` is the only way to get one: it fills the list
straight from a formula's clause literals, so the graph is the image of
the formula's narrow clauses, and it is closed under contraposition
because each clause's implication form is.  ``solve_2sat``
decides a width-<=2 formula in linear time by strongly connected
components (Aspvall, Plass & Tarjan 1979), running Tarjan's algorithm over
lists indexed the same way.

``dpll_solve`` is a complete backtracking search, unit propagation first.
Its trace distinguishes how each assignment was obtained: a forcing through
a width-<=2 clause is a direct implication step and appears as a single
propagation node, while a forcing through a wider clause has no implication
form and is recorded the way the search actually justifies it, as a
refutation pair: a conflict leaf for the excluded value followed by the
forced branch.  That is what makes backtrack counters an observable
difference between narrow and wide formulas instead of an informal claim.
The search itself is one loop over an explicit stack of open decisions.
Its state is that stack (the frames), a value table indexed by literal,
the trail of assigned literals in assignment order, and the queue of
literals still to propagate, which is the trail's unpropagated tail, as in
MiniSat (Een & Sorensson, SAT 2003).  It reads the formula through one
index, the remainder lists: entry ``lit`` holds, for each clause holding
``lit``, the clause's other literals (its remainder; see
``remainder_index``).  A literal made false sends the search to the
remainders of its entry, which are checked against the value table, so a
visit to a width-2 or width-3 clause never reads the literal that
triggered it; a unit or width->=4 clause is its own remainder, shared by
the entries of all its literals, which keeps the index linear in the
formula.  The decision heuristic and the autarky check read the same
lists, and the root's unit clauses are the entries of their own literals.
The search is SAT once no unassigned variable occurs in an unsatisfied
clause.  The search also stops at autarkies (Monien & Speckenmeyer
1985): an assignment is an autarky when it satisfies every clause holding
the negation of one of its literals, and then the formula is satisfiable
exactly when the clauses it leaves untouched are.  So when both values of
a decision taken under an autarky fail, the formula is UNSAT, and the
search returns at once instead of backtracking further.  In a 2-CNF
formula every level that propagates without conflict is autarkic, so each
decision is tried at most twice, as in Even, Itai & Shamir (1976).  A
satisfiable formula never exhausts the subtree below an autarky, so the
cut leaves SAT traces unchanged.

The search tree is numbered in depth-first preorder, and the search keeps
of it only what its caller consumes, chosen by ``dpll_solve``'s
``record``: the parents and the tree's DOT node lines, written as each
node is made, or no node at all.  The search loop is one and the same in
both cases, and so are its counters: nodes, decisions, branches,
backtracks and the depth.  No step recurses, however deep the search
goes.  A mark (a conflict or a model) always lands on the newest
node, so a node's DOT line is final once a newer node exists.  At each
decision, once ``DOT_CHUNK`` finished lines or more are waiting, they are
joined into one string, so a long search holds a few large strings rather
than one per node.

The tree's depth is the longest the trail ever grew, which the search
records as it goes.  Every node on a path from the root, except the root,
assigns one trail literal, so a node's depth is the trail's length just
after the node is made; a refutation leaf sits one level below its
parent, where the forced literal next goes on the trail.  The trail
shrinks only when the search retreats from a conflict, so its high-water
mark is read there, before any literal is popped, and once more at the
end.
"""

from __future__ import annotations

from array import array
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
            f"clause {list(cl)} has width {len(cl)}; "
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
    if len(cl) == 1:
        (a,) = cl
        return (Implication(-a, a),)
    if len(cl) == 2:
        a, b = cl
        return (Implication(-a, b), Implication(-b, a))
    raise WideClauseError(cl)


class ImplicationGraph:
    """Directed graph over all 2n literals of variables 1..n: the union of
    the implication forms of a formula's clauses.

    Only ``build_implication_graph`` makes one, from a formula, so the edge
    set is closed under contraposition because each clause's implication
    form is.  Isolated literals are still nodes.  Edges are stored once, as
    one list indexed by literal, where a negative literal indexes from the
    end (as in the DPLL value table): entry u is the tuple of u's
    successors in canonical order, and entry 0 is empty.
    """

    variable_count: int
    _succ: list[tuple[int, ...]]

    def successors(self, lit: int) -> tuple[int, ...]:
        # a literal past n would wrap around the list, so it is range-checked
        if -self.variable_count <= lit <= self.variable_count:
            return self._succ[lit]
        return ()

    def literals(self) -> list[int]:
        out: list[int] = []
        for v in range(1, self.variable_count + 1):
            out.extend((v, -v))
        return out


def build_implication_graph(f: CnfFormula) -> ImplicationGraph:
    """Union of the implication forms of every clause (all widths <= 2).

    The successor lists are filled straight from the clause literals, with
    duplicates dropped and each list in canonical order.  A clause's
    implication form is closed under contraposition ((a | b) gives both
    ~a => b and ~b => a), so their union is too.  Raises WideClauseError on
    the first clause of width >= 3.
    """
    heads: list[list[int]] = [[] for _ in range(2 * f.variable_count + 1)]
    for cl in f.clauses:
        if len(cl) == 2:
            a, b = cl
            heads[-a].append(b)
            heads[-b].append(a)
        elif len(cl) == 1:
            a = cl[0]
            heads[-a].append(a)
        else:
            raise WideClauseError(cl)
    g = ImplicationGraph.__new__(ImplicationGraph)  # no constructor: made here only
    g.variable_count = f.variable_count
    g._succ = [tuple(sorted(set(s), key=_lit_key)) if len(s) > 1 else tuple(s) for s in heads]
    return g


@dataclass(frozen=True)
class PropagationClosure:
    """Forced-literal closure of a seed.

    ``forced`` holds the seed and every literal propagation forced from it.
    ``conflict`` names the first variable observed forced in both
    polarities (graph fragment) or, in the falsified clause that stopped
    propagation, the variable of the literal that became false most
    recently (clause fragment); None means no contradiction.
    """

    seed: frozenset[int]
    forced: frozenset[int]
    conflict: int | None


def propagate_closure(g: ImplicationGraph, seed: Iterable[int]) -> PropagationClosure:
    """Reachability closure of ``seed`` over the implication edges.

    Breadth-first from the seed literals in canonical order, which fixes
    the conflict variable.  The closure always runs to completion; the
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
    queue = deque(sorted(seed_set, key=_lit_key))
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if v in forced:
                continue
            forced.add(v)
            if conflict is None and -v in forced:
                conflict = abs(v)
            queue.append(v)
    return PropagationClosure(seed_set, frozenset(forced), conflict)


def remainder_index(f: CnfFormula) -> tuple[list[list[tuple[int, ...]]], tuple[Clause, ...]]:
    """What is left of each clause of ``f`` once one of its literals is
    false, for the DPLL search.

    Returns the remainder lists, one list indexed by literal (a negative
    literal indexes from the end, and entry 0 is empty), and the width-1
    clauses in formula order.  Entry ``lit`` holds one remainder for each
    clause that contains ``lit``, in ascending clause order:

    * for a width-2 clause, the 1-tuple of its other literal.  There is one
      such tuple per literal, shared by every width-2 clause that holds it;
    * for a width-3 clause, the pair of its other two literals;
    * for a width-1 or width->=4 clause, the clause itself, shared by the
      entries of all its literals.

    So a remainder of length 1 comes from a clause of width <= 2 and any
    longer one from a clause of width >= 3, and the index stays linear in
    the size of the formula.  Once ``lit`` is false, a remainder decides
    its clause as the whole clause would: the clause is satisfied when a
    literal of the remainder is true, falsified when all are false, and
    unit when exactly one is unassigned.  A whole clause adds only ``lit``,
    which is false and so changes none of these.
    """
    n = f.variable_count
    remainders: list[list[tuple[int, ...]]] = [[] for _ in range(2 * n + 1)]
    singles = [(lit,) for lit in range(n + 1)] + [(lit,) for lit in range(-n, 0)]
    units: list[Clause] = []
    for cl in f.clauses:
        if len(cl) == 2:
            a, b = cl
            remainders[a].append(singles[b])
            remainders[b].append(singles[a])
        elif len(cl) == 3:
            a, b, c = cl
            remainders[a].append((b, c))
            remainders[b].append((a, c))
            remainders[c].append((a, b))
        else:
            if len(cl) == 1:
                units.append(cl)
            for lit in cl:
                remainders[lit].append(cl)
    return remainders, tuple(units)


def unit_propagate(f: CnfFormula, assignment: Assignment) -> PropagationClosure:
    """Deterministic clause-level closure of a partial assignment.

    Repeatedly: a clause with every literal false except one unassigned
    forces that literal; an original unit clause forces its literal
    unconditionally.  Stops at the first falsified clause (conflict).

    The result is that of scanning all clauses in formula order, pass after
    pass, until a pass forces nothing; forced set and conflict are exactly
    those of that rescan, including the forced set at a conflict, which
    depends on visit order.  The scan is replayed from occurrence lists
    instead of being run: one list indexed by literal (a negative literal
    from the end), whose entry holds the ascending indices of the clauses
    that contain the literal.  A clause can only start to force or
    conflict once the negation of one of its literals is forced, so each
    pass visits just the clauses that such an event touched since their
    last visit, in ascending order.  The first pass starts from the unit
    clauses and the clauses containing the negation of a seed literal.
    When clause i forces a literal, the clauses containing its negation
    join the current pass if their index is above i (a min-heap keeps the
    pass in formula order) and the next pass otherwise.
    """
    for var in assignment:
        if var < 1 or var > f.variable_count:
            raise ValueError(f"assigned variable {var} outside variable range")
    clauses = f.clauses
    occ: list[list[int]] = [[] for _ in range(2 * f.variable_count + 1)]
    later: set[int] = set()  # the clauses of the next pass: first, the unit clauses
    for i, cl in enumerate(clauses):
        if len(cl) == 1:
            later.add(i)
        for lit in cl:
            occ[lit].append(i)
    # a variable mapped to None is free, as in ``satisfies``
    seed_set = frozenset(v if val else -v for v, val in assignment.items() if val is not None)
    # each forced literal's place in forcing order; the seed comes first
    order: dict[int, int] = {lit: i for i, lit in enumerate(sorted(seed_set, key=_lit_key))}
    forced = order.keys()
    conflict: int | None = None
    for lit in seed_set:
        later.update(occ[-lit])
    while later and conflict is None:
        queue = sorted(later)  # a sorted list is a valid heap
        queued = later
        later = set()
        while queue:
            i = heappop(queue)
            cl = clauses[i]
            if not forced.isdisjoint(cl):
                continue  # satisfied
            unassigned = [lit for lit in cl if -lit not in forced]
            if not unassigned:
                # falsified: the literal that became false last is the clash
                trigger = max(cl, key=lambda l: order[-l])
                conflict = abs(trigger)
                break
            if len(unassigned) == 1:
                forced_lit = unassigned[0]
                order[forced_lit] = len(order)
                for j in occ[-forced_lit]:
                    if j < i:
                        later.add(j)
                    elif j not in queued:
                        queued.add(j)
                        heappush(queue, j)
    return PropagationClosure(seed_set, frozenset(forced), conflict)


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


def _tarjan_components(graph: ImplicationGraph) -> list[int]:
    """Strongly connected components, numbered in emission order.

    Returns a list indexed by literal, like the graph's own successor list
    (a negative literal indexes from the end), holding each literal's
    component number.  Tarjan emits components sinks-first (reverse
    topological order of the condensation).  Roots are taken in
    ``literals()`` order (1, -1, 2, -2, ...) and successors in canonical
    order, so the numbering is deterministic.  All per-literal state is in
    lists indexed the same way: the visit number (0 for unvisited) and the
    low link.  A visited literal is on the Tarjan stack exactly while it has
    no component yet, so no separate on-stack set is kept.  A literal with
    no successors is a component on its own and is emitted as soon as it is
    reached, without a stack push.
    """
    succ = graph._succ
    size = len(succ)
    index = [0] * size
    low = [0] * size
    comp = [-1] * size
    stack: list[int] = []
    next_index = 1
    next_comp = 0
    for var in range(1, graph.variable_count + 1):
        for root in (var, -var):
            if index[root]:
                continue
            index[root] = low[root] = next_index
            next_index += 1
            if not succ[root]:
                comp[root] = next_comp
                next_comp += 1
                continue
            stack.append(root)
            call = [(root, iter(succ[root]))]
            while call:
                node, successors = call[-1]
                for w in successors:
                    if not index[w]:
                        index[w] = low[w] = next_index
                        next_index += 1
                        if succ[w]:
                            stack.append(w)
                            call.append((w, iter(succ[w])))
                            break
                        comp[w] = next_comp
                        next_comp += 1
                    elif comp[w] < 0 and index[w] < low[node]:
                        low[node] = index[w]
                else:
                    call.pop()
                    node_low = low[node]
                    if call:
                        parent = call[-1][0]
                        if node_low < low[parent]:
                            low[parent] = node_low
                    if node_low == index[node]:
                        while True:
                            w = stack.pop()
                            comp[w] = next_comp
                            if w == node:
                                break
                        next_comp += 1
    return comp


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
    comp = _tarjan_components(g)
    variables = range(1, f.variable_count + 1)
    for v in variables:
        if comp[v] == comp[-v]:
            return SolveResult(False, None, witness_variable=v)
    model = {v: comp[v] < comp[-v] for v in variables}
    if not satisfies(f, model):
        raise RuntimeError("2sat model extraction produced a non-model")
    return SolveResult(True, model, None)


# ---------------------------------------------------------------------------
# DPLL with derivation traces
# ---------------------------------------------------------------------------

HEURISTICS = ("lowest-index", "most-occurrences")
# what a search records per node, for the caller that consumes it
RECORDS = ("dot", "counts")
# the least number of finished DOT node lines joined into one string
DOT_CHUNK = 4096


@dataclass
class DerivationTrace:
    """Search tree of one dpll_solve run plus its effort counters.

    Both record modes fill the counters.  node_count() is the number of
    nodes of the search tree, decision_count the number of decision nodes
    among them.  branch_count counts branch points explored both ways:
    decisions whose second value was tried, and refutation pairs (the
    excluded value *is* the first try).  backtrack_count counts conflict
    leaves that the search retreated from (every conflict except a final
    one that ends an UNSAT run), so branch_count >= backtrack_count always
    holds.  max_depth is the longest root-to-leaf path in edges: the
    trail's high-water mark during the search (see the module docstring).
    ``depth()`` returns that stored number, and stays a method because
    ``perfbench/tracing.py`` calls it.

    Node 0 is the root, and nodes are numbered in creation order, which is
    depth-first preorder, so every parent precedes its children.  The tree
    itself is kept only as far as the record mode asks:

    * "dot" fills ``parents``, each node's parent as an ``array('i')`` of
      4 bytes per node (the root's is -1, and ``parents[i] < i``), and
      ``dot_nodes``, the tree's DOT node lines in order, joined into chunks
      (see ``trace_to_dot``).  A node's line carries the assignment it
      makes ("Start" at the root), whether it is a decision, and its leaf
      mark, "SAT" or "UNSAT", if it ends a branch.
    * "counts" keeps no node: ``parents`` and ``dot_nodes`` are None.
    """

    result: SolveResult
    heuristic: str
    branch_count: int
    backtrack_count: int
    free_variables: tuple[int, ...]
    max_depth: int
    total_nodes: int
    decision_count: int
    parents: Sequence[int] | None = None
    dot_nodes: list[str] | None = None

    def node_count(self) -> int:
        return self.total_nodes

    def depth(self) -> int:
        """Longest root-to-leaf path, in edges."""
        return self.max_depth

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


def _dot_node_parts(n: int) -> tuple[list[str], dict[tuple[bool, str | None], str]]:
    """The two parts of the DOT line of a trace node over variables 1..n,
    which follow the node's name ``  n<id>``.

    The first part is the start of the label, by the literal the node
    assigns: a list indexed by literal, a negative literal from the end, as
    the module's other per-literal tables, whose entry 0 is the root's.
    The second ends the label and the line, by whether the node is a
    decision and by its leaf mark (None, "UNSAT" or "SAT").  Decision
    nodes are double-circled and UNSAT leaves are filled.
    """
    heads = ([' [label="Start']
             + [f' [label="x{v}=true' for v in range(1, n + 1)]
             + [f' [label="x{v}=false' for v in range(n, 0, -1)])
    ends = {}
    for decision in (False, True):
        for leaf in (None, "UNSAT", "SAT"):
            mark = "" if leaf is None else f" ({leaf})"
            shape = ", shape=doublecircle" if decision else ""
            style = ", style=filled" if leaf == "UNSAT" else ""
            ends[decision, leaf] = f'{mark}"{shape}{style}];\n'
    return heads, ends


class _DpllSearch:
    def __init__(self, f: CnfFormula, heuristic: str, record: str):
        self.f = f
        self.heuristic = heuristic
        self.remainders, self.units = remainder_index(f)
        # decision order: the heuristic's choice is the first candidate in it
        self.order = list(range(1, f.variable_count + 1))
        if heuristic == "most-occurrences":
            # one remainder per occurrence; stable sort: ties keep ascending index
            self.order.sort(key=lambda v: -len(self.remainders[v]) - len(self.remainders[-v]))
        # value[lit] is True, False or None (unassigned); a negative literal
        # indexes from the end, so each variable v has the two entries
        # value[v] and value[-v], which are set and cleared together
        self.value: list[bool | None] = [None] * (2 * f.variable_count + 1)
        self.trail: list[int] = []  # the assigned literals, oldest first
        self.max_depth = 0  # the trail's longest length at a conflict
        self.branch_count = 0
        self.conflict_seen = 0
        self.decision_count = 0
        self.nodes = 1  # node 0 is the root (see DerivationTrace)
        self.dot = record == "dot"
        self.parents: Sequence[int] | None = None
        if self.dot:
            self.parents = array("i", (-1,))
            self.heads, self.ends = _dot_node_parts(f.variable_count)
            # the node lines not yet joined into a chunk; only the newest
            # can still be marked, so the others are finished
            self.lines = [f"  n0{self.heads[0]}{self.ends[False, None]}"]
            self.chunks: list[str] = []

    def _mark(self, tip: int, start: int, leaf: str) -> None:
        """Mark node ``tip`` as a ``leaf`` endpoint.  A conflict or a model
        always marks the newest node, the tip of the propagation chain that
        grew from node ``start``: ``start`` itself (the root or a decision)
        when the chain is empty, and otherwise a propagation node, whose
        literal is the newest on the trail."""
        if self.dot:
            lit = self.trail[-1] if tip else 0
            self.lines[-1] = f"  n{tip}{self.heads[lit]}{self.ends[0 < tip == start, leaf]}"

    def _propagate(self, tip: int, head: int, units: Sequence[Clause] = ()) -> int | None:
        """Unit-propagate the trail from position ``head`` on, growing the
        trace chain at node ``tip``, the newest node.

        The queue is the trail's tail from ``head`` on, taken first in,
        first out.  For each literal taken, the clauses holding its negation
        are visited in ascending order, through their remainders (see
        ``remainder_index``).  Of a width-2 or width-3 clause only the
        literals that can still change its state are read, unrolled, not
        the one just made false; a unit or wider clause is read whole.  A
        falsified clause is a conflict, and an unsatisfied clause with a
        single unassigned literal forces it.  Whenever the queue runs dry,
        the next clause of ``units`` (the original unit clauses, at the
        root) is visited.  Returns the new chain tip, or None on conflict
        (with the dead node already marked as an UNSAT leaf).
        """
        value, trail, remainders = self.value, self.trail, self.remainders
        dot = self.dot
        if dot:
            parents, lines, heads = self.parents, self.lines, self.heads
            forced_end, refuted_end = self.ends[False, None], self.ends[False, "UNSAT"]
        start, nodes = tip, self.nodes
        next_unit = 0
        while head < len(trail) or next_unit < len(units):
            if head < len(trail):
                visit = remainders[-trail[head]]
                head += 1
            else:
                visit = (units[next_unit],)
                next_unit += 1
            for rest in visit:
                if len(rest) == 2:
                    # a width-3 clause
                    a, b = rest
                    val = value[a]
                    if val:
                        continue  # satisfied
                    other = value[b]
                    if other:
                        continue
                    if val is None:
                        if other is None:
                            continue  # two unassigned, nothing to do
                        single = a
                    else:
                        single = b if other is None else 0
                elif len(rest) == 1:
                    # a width-2 clause, or a unit clause
                    single = rest[0]
                    val = value[single]
                    if val:
                        continue
                    if val is not None:
                        single = 0
                else:
                    # a wider clause, whole
                    single = 0
                    for lit in rest:
                        val = value[lit]
                        if val is None:
                            if single:
                                single = None  # two unassigned, nothing to do
                                break
                            single = lit
                        elif val:
                            single = None  # satisfied
                            break
                    if single is None:
                        continue
                if not single:
                    # falsified; a retreat follows unless this conflict
                    # ends the whole search, which the final tally fixes
                    self.nodes = nodes
                    self._mark(tip, start, "UNSAT")
                    self.conflict_seen += 1
                    return None
                if len(rest) > 1:
                    # a width->=3 clause has no implication form: the
                    # excluded value is probed and refuted
                    if dot:
                        parents.append(tip)
                        lines.append(f"  n{nodes}{heads[-single]}{refuted_end}")
                    nodes += 1
                    self.conflict_seen += 1
                    self.branch_count += 1
                value[single] = True
                value[-single] = False
                trail.append(single)
                if dot:
                    parents.append(tip)
                    lines.append(f"  n{nodes}{heads[single]}{forced_end}")
                tip = nodes
                nodes += 1
        self.nodes = nodes
        return tip

    def _pick_variable(self, start: int) -> int | None:
        """Position in ``order`` of the first unassigned variable that occurs
        in an unsatisfied clause, looking from ``start`` on, or None when
        every clause is satisfied.  The search picks only after propagating
        without conflict, so an unsatisfied clause has two unassigned
        literals: "no candidate" and "all satisfied" are the same condition.

        ``start`` is where the parent level's choice was found: every
        variable before it was then assigned or in satisfied clauses only,
        and deeper in the search both the assignment and the satisfied
        clauses only grow.  A clause holding an unassigned literal ``lit``
        is satisfied exactly when a literal of its remainder in
        ``remainders[lit]`` is true, since a whole clause adds only ``lit``
        itself.  The width->=4 clauses found satisfied, which are shared by
        the remainder lists of all their literals, are remembered for the
        call by ``id()``, so such a clause is scanned once, not once per
        variable; a remainder of one or two literals costs no more than that
        lookup.  Both the assignment and clause satisfaction are read from
        the value table.
        """
        value, remainders, order = self.value, self.remainders, self.order
        satisfied: set[int] = set()
        for pos in range(start, len(order)):
            var = order[pos]
            if value[var] is not None:
                continue
            for lit in (var, -var):
                for rest in remainders[lit]:
                    if len(rest) <= 2:
                        if not any(map(value.__getitem__, rest)):
                            return pos
                    elif id(rest) not in satisfied:
                        if not any(map(value.__getitem__, rest)):
                            return pos
                        satisfied.add(id(rest))
        return None

    def _autarkic(self, mark: int) -> bool:
        """Whether every clause holding the negation of a literal set at the
        current level, ``trail[mark:]``, is satisfied.  The level is then
        autarkic if its parent level is: the whole assignment satisfies
        every clause it touches.

        Each clause is read through its remainder in ``remainders[-lit]``,
        which holds a true literal exactly when the clause does, ``-lit``
        being false.  Only clauses of width >= 3 are tested: those whose
        remainder is longer than one literal.  The check runs after a
        propagation that ended without conflict, which took every literal
        of the level from the queue and visited each clause holding its
        negation; a visited clause of width <= 2 was then satisfied, or
        its other literal was forced true, since one false literal leaves
        it a conflict or a unit."""
        value, remainders = self.value, self.remainders
        for lit in self.trail[mark:]:
            for rest in remainders[-lit]:
                if len(rest) > 1 and not any(map(value.__getitem__, rest)):
                    return False
        return True

    def _search(self) -> bool:
        """Depth-first search over an explicit stack of open decisions.

        The search state is the value table, the trail, the queue (the
        trail's tail that ``_propagate`` has not yet taken) and the frames.
        A frame is (literal tried, parent node, length of the trail before
        the literal, order position of its variable, whether the level it
        was decided on is autarkic).  The true value is tried first, so a
        negative literal means both values have been tried.  On a conflict
        the loop first raises ``max_depth`` to the trail's length.  It then
        drops those frames, pops the trail back to the newest remaining
        frame's mark, clearing both value entries of every literal it pops,
        and flips that frame's literal; the search is UNSAT when no frame
        remains, or as soon as a frame it would drop was decided on an
        autarkic level.

        A level is the literals a decision sets, ``trail[mark:]`` (at the
        root, the literals the unit clauses force).  It is autarkic when
        its parent level is (the root's parent, the empty assignment, is)
        and ``_autarkic`` holds after it propagates without conflict; the
        check is skipped once the parent level is not autarkic.
        """
        value, trail, order = self.value, self.trail, self.order
        dot = self.dot
        if dot:
            heads, decision_end, lines = self.heads, self.ends[True, None], self.lines
            chunk = DOT_CHUNK
        frames: list[tuple[int, int, int, int, bool]] = []
        decided = 0  # the node the newest propagation started from
        tip = self._propagate(decided, 0, self.units)
        # the root level's parent is the empty assignment, an autarky
        autarkic, mark = True, 0
        pos: int | None = 0
        while True:
            if tip is not None:
                if autarkic:
                    autarkic = self._autarkic(mark)
                pos = self._pick_variable(pos)
                if pos is None:
                    self._mark(tip, decided, "SAT")
                    return True  # the trail is left in place as the model
                lit, parent, mark = order[pos], tip, len(trail)
                frames.append((lit, parent, mark, pos, autarkic))
            else:
                if len(trail) > self.max_depth:
                    self.max_depth = len(trail)
                while frames and frames[-1][0] < 0:
                    if frames[-1][4]:
                        return False  # refuted below an autarky
                    frames.pop()
                if not frames:
                    return False
                lit, parent, mark, pos, autarkic = frames[-1]
                while len(trail) > mark:
                    undone = trail.pop()
                    value[undone] = value[-undone] = None
                self.branch_count += 1
                lit = -lit
                frames[-1] = (lit, parent, mark, pos, autarkic)
            decided = self.nodes
            self.nodes = decided + 1
            self.decision_count += 1
            if dot:
                # no node before this one can be marked any more
                if len(lines) >= chunk:
                    self.chunks.append("".join(lines))
                    lines.clear()
                self.parents.append(parent)
                lines.append(f"  n{decided}{heads[lit]}{decision_end}")
            value[lit] = True
            value[-lit] = False
            trail.append(lit)
            tip = self._propagate(decided, mark)

    def run(self) -> tuple[SolveResult, DerivationTrace]:
        free: tuple[int, ...] = ()
        if self._search():
            model = {abs(lit): lit > 0 for lit in self.trail}
            if not satisfies(self.f, model):
                raise RuntimeError("dpll produced a non-model")
            result = SolveResult(True, model, None)
            free = tuple(v for v in range(1, self.f.variable_count + 1) if self.value[v] is None)
            # every conflict was retreated from: the SAT leaf came after it
            backtracks = self.conflict_seen
        else:
            result = SolveResult(False, None, None)
            # the final conflict ends the run, so it is not a retreat
            backtracks = max(0, self.conflict_seen - 1)
        dot_nodes = None
        if self.dot:
            dot_nodes = self.chunks
            dot_nodes.append("".join(self.lines))
        trace = DerivationTrace(
            result=result,
            heuristic=self.heuristic,
            branch_count=self.branch_count,
            backtrack_count=backtracks,
            free_variables=free,
            max_depth=max(self.max_depth, len(self.trail)),
            total_nodes=self.nodes,
            decision_count=self.decision_count,
            parents=self.parents,
            dot_nodes=dot_nodes,
        )
        return result, trace


def dpll_solve(
    f: CnfFormula, heuristic: str = "lowest-index", *, record: str = "counts"
) -> tuple[SolveResult, DerivationTrace]:
    """Complete backtracking search with unit propagation at every node.

    Heuristics pick the decision variable among the variables of currently
    unsatisfied clauses: "lowest-index" takes the smallest index,
    "most-occurrences" the variable occurring in the most clauses of the
    original formula (static counts, ties to the lowest index).  The true
    branch is always tried first.  SAT is declared as soon as every clause
    is satisfied; variables never assigned are reported free.  UNSAT is
    declared once no decision is left to flip, or as soon as both values
    of a decision taken under an autarky have failed.

    ``record`` says what the trace keeps of each node, for its consumer:
    "dot" the parents and the DOT node lines that ``trace_to_dot`` needs,
    and "counts", the default, nothing (see DerivationTrace).  The search
    and every counter are the same in both.
    ``trace_to_dot`` raises ValueError on a trace not recorded as "dot".
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}, expected one of {HEURISTICS}")
    if record not in RECORDS:
        raise ValueError(f"unknown record {record!r}, expected one of {RECORDS}")
    return _DpllSearch(f, heuristic, record).run()


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def implication_graph_to_dot(g: ImplicationGraph) -> str:
    """Graphviz text for an implication graph; node names are literal text,
    rendered once per literal."""
    literals = g.literals()
    names = [""] * len(g._succ)
    for lit in literals:
        names[lit] = f'"{lit_text(lit)}"'
    lines = ["digraph implication_graph {", "  rankdir=LR;"]
    lines += [f"  {names[lit]};" for lit in literals]
    succ = g._succ
    for u in literals:
        for v in succ[u]:
            lines.append(f"  {names[u]} -> {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_to_dot(trace: DerivationTrace) -> str:
    """Graphviz text for a derivation trace recorded with ``record="dot"``.

    The search wrote the node lines (``_dot_node_parts``), so this joins
    the header, those lines and one edge line per node after the root.
    Decision nodes are double-circled, UNSAT leaves are filled, and node
    ids are the trace's own (depth-first preorder), so the output is
    deterministic.  Raises ValueError on a trace recorded without DOT.
    """
    if trace.dot_nodes is None:
        raise ValueError('trace_to_dot needs a trace from dpll_solve(..., record="dot")')
    parents = trace.parents
    out = ["digraph derivation_trace {\n  rankdir=TB;\n", *trace.dot_nodes]
    for low in range(1, len(parents), DOT_CHUNK):
        edges = enumerate(parents[low:low + DOT_CHUNK], low)
        out.append("".join([f"  n{parent} -> n{i};\n" for i, parent in edges]))
    out.append("}\n")
    return "".join(out)
