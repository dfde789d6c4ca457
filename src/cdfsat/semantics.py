"""Satisfying-assignment images and exact model counts.

A semantic image is the set of assignments over a scope that satisfy a
clause or a formula.  Assignments are stored as integer bitmasks with the
lowest-indexed scope variable at the most significant bit, so ascending
mask order is exactly lexicographic order by variable index with false
before true, and that is the canonical enumeration and export order.

Counting is exact everywhere, and exactly one route counts each formula.
The exhaustive sweep runs up to ``enumeration_cap`` variables (default 26)
and is the only route that materializes models.  When the models are not
materialized and the clause variable sets are pairwise disjoint, the
count comes in closed form as prod(2^k_i - 1) * 2^(free variables), at
any n, since each clause excludes exactly its one all-false local
assignment.  Any other formula past the cap is intractable.

The exhaustive sweep is bit-sliced over Python ints.  Assignment index
a = (prefix << L) + bit, with variable v at bit n - v of a, so the lowest
L = min(n, SWEEP_BITS) bits hold the highest-indexed variables.  Their
truth columns are built once per call by ``truth_columns``, one int of
2^L bits per column, in both polarities, and every clause ORs its low
columns once.  The sweep then runs one chunk per setting of the other
n - L variables.  Under a chunk's prefix every clause with a high literal
resolves first: a true high literal drops it, and otherwise its OR of low
columns (0 when it has none) is ANDed into the chunk's int.  Clauses with
no high literal are ANDed once into the int every chunk starts from.  One
int operation thus checks a clause against 2^L assignments;
``int.bit_count`` counts the models, and materialized models are the set
bits in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formula import Clause, CnfFormula

ENUMERATION_CAP = 26
# the largest cap that --cap, CDFSAT_CAP and enumeration_cap accept: the
# sweep takes 2^n steps, so a larger cap could only admit a count that never
# finishes (the assignment masks are Python ints and set no bound of their own)
MAX_ENUMERATION_CAP = 63
MATERIALIZATION_CAP = 20
# the sweep checks the lowest SWEEP_BITS assignment bits in one int per
# chunk and fixes the variables above them once per chunk
SWEEP_BITS = 15

ENUMERATED = "enumerated"
COUNT_ONLY = "count-only"


def check_enumeration_cap(cap: int) -> int:
    """Return ``cap`` if it lies in 0..MAX_ENUMERATION_CAP, else ValueError."""
    if cap < 0:
        raise ValueError("enumeration cap must be >= 0")
    if cap > MAX_ENUMERATION_CAP:
        raise ValueError(f"enumeration cap must be <= {MAX_ENUMERATION_CAP}, got {cap}")
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
    bitmasks over ``scope``) only when the scope is small enough, and is
    None otherwise.
    """

    scope: tuple[int, ...]
    count: int
    assignments: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.assignments is not None and len(self.assignments) != self.count:
            raise ValueError("materialized assignment count disagrees with count")

    @property
    def representation(self) -> str:
        """``count-only`` when ``assignments`` is None, else ``enumerated``."""
        return COUNT_ONLY if self.assignments is None else ENUMERATED


def clauses_variable_disjoint(f: CnfFormula) -> bool:
    """Whether the clause variable sets are pairwise disjoint."""
    seen: set[int] = set()
    for cl in f.clauses:
        vs = cl.variables()
        if seen & vs:
            return False
        seen |= vs
    return True


def clause_image(cl: Clause) -> SemanticImage:
    """Image of a single clause over its own variables: 2^k - 1 assignments.

    The one excluded assignment sets every literal false.  The assignments
    are materialized up to MATERIALIZATION_CAP variables.
    """
    scope = tuple(sorted(cl.variables()))
    k = len(scope)
    count = (1 << k) - 1
    if k > MATERIALIZATION_CAP:
        return SemanticImage(scope, count, None)
    position = {v: k - 1 - j for j, v in enumerate(scope)}
    excluded = 0
    for lit in cl:
        if lit < 0:  # negative literal is false when the variable is true
            excluded |= 1 << position[abs(lit)]
    masks = tuple(m for m in range(1 << k) if m != excluded)
    return SemanticImage(scope, count, masks)


def truth_columns(bits: int) -> tuple[list[int], int]:
    """Truth columns of assignment bits 0..bits-1, and the all-ones int.

    Each column is one int over the 2^bits assignments, assignment ``a`` at
    bit ``a``.  Column 2j is set where bit j of the assignment is set,
    column 2j + 1 is its complement.  The all-ones int has every one of the
    2^bits bits set.
    """
    size = 1 << bits
    ones = (1 << size) - 1
    columns = []
    for j in range(bits):
        # runs of 2^j assignments alternate between bit j clear and set:
        # double one clear-then-set period until it spans all of them
        run = 1 << j
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            column |= column << width
            width *= 2
        columns += (column, column ^ ones)
    return columns, ones


def _sweep(f: CnfFormula, materialize: bool) -> tuple[int, tuple[int, ...] | None]:
    """Exact count, and the ascending models if asked, by the bit-sliced sweep.

    See the module docstring for the layout.  Clauses with no high literal
    resolve the same way under every prefix, so they are ANDed once into the
    int that each chunk starts from.
    """
    n = f.variable_count
    low = min(n, SWEEP_BITS)
    columns, base = truth_columns(low)
    # each clause with a high literal: (mask, falsifying pattern) of its high
    # literals over the chunk prefix, and the OR of its low columns
    split: list[tuple[int, int, int]] = []
    for cl in f.clauses:
        mask = pattern = column = 0
        for lit in cl:
            bit = n - abs(lit)
            if bit < low:
                column |= columns[2 * bit + (lit < 0)]
            else:
                mask |= 1 << (bit - low)
                if lit < 0:
                    pattern |= 1 << (bit - low)
        if mask:
            split.append((mask, pattern, column))
        else:
            base &= column
    count = 0
    models: list[int] = []
    for prefix in range(1 << (n - low)):
        acc = base
        for mask, pattern, column in split:
            if (prefix & mask) == pattern:  # every high literal is false
                acc &= column
        count += acc.bit_count()
        if materialize and acc:
            offset = prefix << low
            bits = f"{acc:b}"[::-1]  # bits[a] is bit a of acc
            a = bits.find("1")
            while a >= 0:
                models.append(offset + a)
                a = bits.find("1", a + 1)
    return count, tuple(models) if materialize else None


def formula_image(
    f: CnfFormula,
    enumeration_cap: int = ENUMERATION_CAP,
    materialization_cap: int = MATERIALIZATION_CAP,
) -> SemanticImage:
    """Exact satisfying-assignment image of a formula over all its variables.

    Exactly one route runs, the first that applies: the sweep with
    materialized assignments when n fits both caps; the closed form
    prod(2^k_i - 1) * 2^(free variables) when the clause variable sets are
    pairwise disjoint (any n); the count-only sweep up to
    ``enumeration_cap``.  Beyond that, IntractableError.  A cap outside
    0..MAX_ENUMERATION_CAP raises ValueError.
    """
    check_enumeration_cap(enumeration_cap)
    n = f.variable_count
    scope = tuple(range(1, n + 1))
    if n <= enumeration_cap and n <= materialization_cap:
        count, assignments = _sweep(f, materialize=True)
        return SemanticImage(scope, count, assignments)
    if clauses_variable_disjoint(f):
        count = 1 << (n - sum(map(len, f.clauses)))
        for cl in f.clauses:
            count *= (1 << len(cl)) - 1
        return SemanticImage(scope, count, None)
    if n <= enumeration_cap:
        count, _ = _sweep(f, materialize=False)
        return SemanticImage(scope, count, None)
    raise IntractableError(n, enumeration_cap)


def log2_count(count: int) -> float:
    """log2 of an exact count, exact-ish for big ints; -inf for zero."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return float("-inf")
    return math.log2(count)
