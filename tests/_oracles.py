"""Independent brute-force oracles for the test suite.

Nothing here imports from cdfsat: each oracle is a deliberately naive
reimplementation of the quantity under test, so a package bug cannot hide
inside its own checking code.  Sizes are kept small enough that exhaustive
enumeration stays honest.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def count_models(clause_lists, n: int) -> int:
    return len(model_masks(clause_lists, n))


def is_satisfiable(clause_lists, n: int) -> bool:
    return any(formula_satisfied(clause_lists, a) for a in all_assignments(n))


def fast_count_models(clause_lists, n: int) -> int:
    """Vectorized variant of count_models for the large randomized suites.

    Builds one unpacked boolean truth column per variable over all 2^n
    rows and ORs them per clause.  The package's sweep also ORs truth
    columns, but packed 64 to a word and with the high variables fixed per
    chunk; this oracle shares none of that code, so a slip in the packing,
    the chunking or the clause resolution shows up as a different count.
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


# ---------------------------------------------------------------------------
# Propagation fixpoints
# ---------------------------------------------------------------------------

def naive_unit_closure(clause_lists, seed_literals) -> tuple[set[int], bool]:
    """Fixpoint of 'a clause with all other literals false forces the rest'.

    Returns (forced literal set, conflict flag); stops growing on conflict,
    mirroring the contract of clause-level propagation.
    """
    forced = set(seed_literals)
    conflict = any(-lit in forced for lit in forced)
    changed = True
    while changed and not conflict:
        changed = False
        for cl in clause_lists:
            if any(lit in forced for lit in cl):
                continue
            live = [lit for lit in cl if -lit not in forced]
            if not live:
                conflict = True
                break
            if len(live) == 1:
                forced.add(live[0])
                changed = True
    return forced, conflict


def rescan_unit_propagate(clause_lists, seed_literals):
    """Clause-level propagation by full formula-order rescans.

    The reference for the package's step order: every pass scans all
    clauses in order, a clause with one unassigned literal left forces it,
    passes repeat until one forces nothing, and the first falsified clause
    ends the run.
    Returns ``(forced, steps, conflict)``: the forced literal set, the steps
    as ``(source, literal)`` pairs in firing order (the source of an
    original unit clause is its own literal, otherwise the negation of the
    clause's most recently forced false literal) and the conflict variable,
    None without a conflict.
    """
    seed = set(seed_literals)
    forced = set(seed)
    canonical = sorted(seed, key=lambda lit: (abs(lit), lit < 0))
    order = {lit: i for i, lit in enumerate(canonical)}
    steps = []
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
                forced_lit = unassigned[0]
                false_lits = [lit for lit in cl if lit != forced_lit]
                if false_lits:
                    source = -max(false_lits, key=lambda lit: order[-lit])
                else:
                    source = forced_lit
                forced.add(forced_lit)
                order[forced_lit] = len(order)
                steps.append((source, forced_lit))
                progress = True
    return forced, steps, conflict


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

    Runs clause-level propagation (``rescan_unit_propagate``) and
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
        gamma, _, conflict = rescan_unit_propagate(clause_lists, seed)
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
