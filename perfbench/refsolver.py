"""Reference SAT solver for checking verdicts the oracles cannot reach.

It imports nothing from ``cdfsat`` and shares no code with it: an iterative
DPLL over counter-based clause states, branching on the variable with the
most occurrences in the shortest open clauses.  It is used to confirm UNSAT
verdicts on formulas above the exhaustive-counting sizes.
"""

from __future__ import annotations


def satisfiable(clauses, n: int) -> bool:
    """Whether the CNF (clause lists of DIMACS literals over 1..n) has a model."""
    occurrences: dict[int, list[int]] = {}
    for idx, cl in enumerate(clauses):
        for lit in cl:
            occurrences.setdefault(lit, []).append(idx)
    width = [len(cl) for cl in clauses]
    false_count = [0] * len(clauses)
    true_count = [0] * len(clauses)
    value: dict[int, bool] = {}
    trail: list[int] = []

    def assign(lit: int) -> int | None:
        """Set lit true and propagate; return None, or a clause index in conflict."""
        queue = [lit]
        while queue:
            lit = queue.pop()
            var = abs(lit)
            if var in value:
                if value[var] != (lit > 0):
                    return -1
                continue
            value[var] = lit > 0
            trail.append(lit)
            for idx in occurrences.get(lit, ()):
                true_count[idx] += 1
            conflict = None
            # every count is updated before returning, so undo stays exact
            for idx in occurrences.get(-lit, ()):
                false_count[idx] += 1
                if true_count[idx] or conflict is not None:
                    continue
                open_lits = width[idx] - false_count[idx]
                if open_lits == 0:
                    conflict = idx
                elif open_lits == 1:
                    for other in clauses[idx]:
                        if abs(other) not in value:
                            queue.append(other)
                            break
            if conflict is not None:
                return conflict
        return None

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            del value[abs(lit)]
            for idx in occurrences.get(lit, ()):
                true_count[idx] -= 1
            for idx in occurrences.get(-lit, ()):
                false_count[idx] -= 1

    def pick() -> int | None:
        best_score: dict[int, float] = {}
        for idx, cl in enumerate(clauses):
            if true_count[idx]:
                continue
            weight = 2.0 ** -(width[idx] - false_count[idx])
            for lit in cl:
                if abs(lit) not in value:
                    best_score[lit] = best_score.get(lit, 0.0) + weight
        if not best_score:
            return None
        return max(best_score, key=lambda l: (best_score[l], -abs(l), l))

    for cl in clauses:
        if len(cl) == 1 and assign(cl[0]) is not None:
            return False
    # explicit stack of (trail mark, literal tried first, whether flipped)
    stack: list[tuple[int, int, bool]] = []
    while True:
        lit = pick()
        if lit is None:
            return True
        mark = len(trail)
        conflict = assign(lit)
        stack.append((mark, lit, False))
        while conflict is not None:
            while stack and stack[-1][2]:
                mark, _, _ = stack.pop()
                undo(mark)
            if not stack:
                return False
            mark, lit, _ = stack.pop()
            undo(mark)
            stack.append((mark, -lit, True))
            conflict = assign(-lit)
