"""Satisfying-assignment images and exact model counts.

A semantic image is the set of assignments over a scope that satisfy a
clause or a formula.  Assignments are stored as integer bitmasks with the
lowest-indexed scope variable at the most significant bit, so ascending
mask order is exactly lexicographic order by variable index with false
before true, and that is the canonical enumeration and export order.

Counting is exact everywhere.  Exhaustive enumeration is the ground truth
and runs up to ``enumeration_cap`` variables (default 26); when the clause
variable sets are pairwise disjoint, the count is also available in closed
form as prod(2^k_i - 1) * 2^(free variables), and the two routes are
cross-checked whenever both were computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formula import Assignment, Clause, CnfFormula

ENUMERATION_CAP = 26
# assignments and clause masks are uint64 bitmasks, and the sweep counts
# up to 2^n, so n = 63 is the widest formula the sweep can represent
MAX_ENUMERATION_CAP = 63
MATERIALIZATION_CAP = 20

ENUMERATED = "enumerated"
COUNT_ONLY = "count-only"


def check_enumeration_cap(cap: int) -> int:
    """Return ``cap`` if it lies in 0..MAX_ENUMERATION_CAP, else ValueError."""
    if cap < 0:
        raise ValueError("enumeration cap must be >= 0")
    if cap > MAX_ENUMERATION_CAP:
        raise ValueError(
            f"enumeration cap must be <= {MAX_ENUMERATION_CAP} "
            f"(64-bit assignment masks), got {cap}"
        )
    return cap


class IntractableError(Exception):
    """Exact enumeration was requested beyond the configured cap."""

    def __init__(self, variable_count: int, cap: int):
        self.variable_count = variable_count
        self.cap = cap
        super().__init__(
            f"exhaustive enumeration over {variable_count} variables exceeds "
            f"the cap of {cap} and no closed-form route applies"
        )


@dataclass(frozen=True)
class SemanticImage:
    """Exact satisfying-assignment set of one clause or formula.

    ``count`` is always exact.  ``assignments`` is materialized (as sorted
    bitmasks over ``scope``) only when the scope is small enough; otherwise
    ``representation`` is ``count-only`` and ``assignments`` is None.
    """

    scope: tuple[int, ...]
    count: int
    assignments: tuple[int, ...] | None
    representation: str

    def __post_init__(self) -> None:
        if self.assignments is not None and len(self.assignments) != self.count:
            raise ValueError("materialized assignment count disagrees with count")

    def assignment_at(self, i: int) -> Assignment:
        """Decode the i-th materialized assignment to a variable->bool dict."""
        if self.assignments is None:
            raise ValueError("image is count-only; no materialized assignments")
        mask = self.assignments[i]
        k = len(self.scope)
        return {v: bool((mask >> (k - 1 - j)) & 1) for j, v in enumerate(self.scope)}

    def to_text(self) -> str:
        """Canonical listing: one 0/1 row per assignment, scope in index order."""
        if self.assignments is None:
            raise ValueError("image is count-only; no materialized assignments")
        k = len(self.scope)
        return "\n".join(format(mask, f"0{k}b") for mask in self.assignments) + "\n"

    def to_json_dict(self) -> dict:
        out: dict = {
            "scope": list(self.scope),
            "count": self.count,
            "representation": self.representation,
        }
        if self.assignments is not None:
            k = len(self.scope)
            out["assignments"] = [format(m, f"0{k}b") for m in self.assignments]
        return out


def clauses_variable_disjoint(f: CnfFormula) -> bool:
    """Whether the clause variable sets are pairwise disjoint."""
    seen: set[int] = set()
    for cl in f.clauses:
        vs = cl.variables()
        if seen & vs:
            return False
        seen |= vs
    return True


def disjoint_lower_bound(f: CnfFormula) -> int | None:
    """prod(2^k_i - 1) over clauses, or None when clauses share variables.

    For pairwise variable-disjoint clauses this is the exact model count
    restricted to the constrained variables (each clause independently
    excludes exactly its one all-false local assignment); with overlapping
    clauses the product law does not apply and None is returned.
    """
    if not clauses_variable_disjoint(f):
        return None
    bound = 1
    for cl in f.clauses:
        bound *= (1 << cl.width) - 1
    return bound


def clause_image(cl: Clause, materialization_cap: int = MATERIALIZATION_CAP) -> SemanticImage:
    """Image of a single clause over its own variables: 2^k - 1 assignments.

    The one excluded assignment sets every literal false.
    """
    scope = tuple(sorted(cl.variables()))
    k = len(scope)
    count = (1 << k) - 1
    if k > materialization_cap:
        return SemanticImage(scope, count, None, COUNT_ONLY)
    position = {v: k - 1 - j for j, v in enumerate(scope)}
    excluded = 0
    for lit in cl:
        if lit < 0:  # negative literal is false when the variable is true
            excluded |= 1 << position[abs(lit)]
    masks = tuple(m for m in range(1 << k) if m != excluded)
    return SemanticImage(scope, count, masks, ENUMERATED)


def _clause_bit_patterns(f: CnfFormula) -> tuple[np.ndarray, np.ndarray]:
    """Per-clause (mask, falsifying-pattern) pairs over n-bit assignments."""
    n = f.variable_count
    masks = np.zeros(f.clause_count, dtype=np.uint64)
    patterns = np.zeros(f.clause_count, dtype=np.uint64)
    for i, cl in enumerate(f.clauses):
        mask = 0
        pattern = 0
        for lit in cl:
            bit = 1 << (n - abs(lit))
            mask |= bit
            if lit < 0:
                pattern |= bit
        masks[i] = mask
        patterns[i] = pattern
    return masks, patterns


def _enumerate_image(f: CnfFormula, materialize: bool) -> tuple[int, tuple[int, ...] | None]:
    """Exact count by exhaustive enumeration, vectorized over chunks.

    A clause is falsified by exactly the assignments matching its falsifying
    pattern on its variable mask, so satisfaction is two bitwise ops per
    clause per assignment.
    """
    n = f.variable_count
    total = 1 << n
    masks, patterns = _clause_bit_patterns(f)
    chunk = 1 << 20
    count = 0
    kept: list[np.ndarray] = []
    for base in range(0, total, chunk):
        a = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        ok = np.ones(a.shape, dtype=bool)
        for mask, pattern in zip(masks, patterns):
            ok &= (a & mask) != pattern
        count += int(np.count_nonzero(ok))
        if materialize:
            kept.append(a[ok])
    if not materialize:
        return count, None
    sat = np.concatenate(kept) if kept else np.empty(0, dtype=np.uint64)
    return count, tuple(int(m) for m in sat)


def formula_image(
    f: CnfFormula,
    enumeration_cap: int = ENUMERATION_CAP,
    materialization_cap: int = MATERIALIZATION_CAP,
) -> SemanticImage:
    """Exact satisfying-assignment image of a formula over all its variables.

    Routes, in order: exhaustive enumeration with materialized assignments
    when n fits both caps; the closed-form disjoint product when clause
    variable sets are pairwise disjoint (any n); count-only enumeration up
    to ``enumeration_cap``.  Beyond that, IntractableError.  A cap outside
    0..MAX_ENUMERATION_CAP raises ValueError.
    """
    check_enumeration_cap(enumeration_cap)
    n = f.variable_count
    scope = tuple(range(1, n + 1))
    bound = disjoint_lower_bound(f)
    product = None
    if bound is not None:
        free = n - sum(cl.width for cl in f.clauses)
        product = bound << free
    if n <= enumeration_cap and n <= materialization_cap:
        count, assignments = _enumerate_image(f, materialize=True)
        if product is not None and product != count:
            raise RuntimeError(
                f"enumeration ({count}) and disjoint product ({product}) disagree"
            )
        return SemanticImage(scope, count, assignments, ENUMERATED)
    if product is not None:
        return SemanticImage(scope, product, None, COUNT_ONLY)
    if n <= enumeration_cap:
        count, _ = _enumerate_image(f, materialize=False)
        return SemanticImage(scope, count, None, COUNT_ONLY)
    raise IntractableError(n, enumeration_cap)


def log2_count(count: int) -> float:
    """log2 of an exact count, exact-ish for big ints; -inf for zero."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return float("-inf")
    return math.log2(count)
