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

The exhaustive sweep is bit-sliced.  Assignment index a = 64 * word + bit,
with variable v at bit n - v, so the lowest L = min(n, SWEEP_BITS) bits
hold the highest-indexed variables.  Their truth columns are built once per
call as packed uint64 words, 2^(L-6) per column (one partial word when
L < 6), in both polarities.  The sweep then runs one chunk per setting of
the other n - L variables.  Under a chunk's prefix every clause resolves in
Python first: a true high literal drops it, a clause left with no literal
empties the chunk, and any other clause ANDs the OR of its low columns into
the chunk's accumulator.  One word op thus checks a clause against 64
assignments; ``np.bitwise_count`` counts the accumulator, and materialized
models are its set bits in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formula import Clause, CnfFormula

ENUMERATION_CAP = 26
# the sweep numbers the 2^n assignments with uint64 indices (64 * word + bit,
# prefix above the chunk bits), so n = 63 is the widest formula it can index
MAX_ENUMERATION_CAP = 63
MATERIALIZATION_CAP = 20
# the sweep runs the lowest SWEEP_BITS assignment bits as packed words and
# fixes the variables above them once per chunk
SWEEP_BITS = 18
_ALL_ONES = (1 << 64) - 1
# bit b of _WORD_COLUMNS[j] is bit j of b: within one word, the truth column
# of the variable at assignment bit j < 6
_WORD_COLUMNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)

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


def _low_columns(bits: int) -> np.ndarray:
    """Packed truth columns of assignment bits 0..bits-1, in both polarities.

    Assignment ``a`` of the 2^bits sits at bit ``a % 64`` of word ``a // 64``.
    Row 2j is set where bit j of the assignment is set, row 2j + 1 is its
    complement.  Below 6 bits there is one partial word, and its bits at or
    past 2^bits are for the caller to mask.
    """
    columns = np.empty((2 * bits, 1 << max(bits - 6, 0)), dtype=np.uint64)
    for j in range(bits):
        if j < 6:
            columns[2 * j] = _WORD_COLUMNS[j]
        else:
            # runs of 2^(j-6) words alternate between bit j clear and set
            runs = columns[2 * j].reshape(-1, 2, 1 << (j - 6))
            runs[:, 0] = 0
            runs[:, 1] = _ALL_ONES
    columns[1::2] = ~columns[0::2]
    return columns


def _and_clause(
    acc: np.ndarray, columns: np.ndarray, rows: list[int], scratch: np.ndarray
) -> None:
    """AND the OR of ``columns[rows]`` into ``acc`` in place."""
    if len(rows) == 1:
        np.bitwise_and(acc, columns[rows[0]], out=acc)
        return
    np.bitwise_or(columns[rows[0]], columns[rows[1]], out=scratch)
    for row in rows[2:]:
        np.bitwise_or(scratch, columns[row], out=scratch)
    np.bitwise_and(acc, scratch, out=acc)


def _sweep(f: CnfFormula, materialize: bool) -> tuple[int, tuple[int, ...] | None]:
    """Exact count, and the ascending models if asked, by the bit-sliced sweep.

    See the module docstring for the layout.  Clauses with no high literal
    resolve the same way under every prefix, so they are ANDed once into the
    accumulator that each chunk starts from.
    """
    n = f.variable_count
    low = min(n, SWEEP_BITS)
    columns = _low_columns(low)
    base = np.full(columns.shape[1], _ALL_ONES, dtype=np.uint64)
    if low < 6:
        base[0] = (1 << (1 << low)) - 1
    scratch = np.empty_like(base)
    # each clause with a high literal: (mask, falsifying pattern) of its high
    # literals over the chunk prefix, and the column rows of its low literals
    split: list[tuple[int, int, list[int]]] = []
    for cl in f.clauses:
        mask = pattern = 0
        rows = []
        for lit in cl:
            bit = n - abs(lit)
            if bit < low:
                rows.append(2 * bit + (lit < 0))
            else:
                mask |= 1 << (bit - low)
                if lit < 0:
                    pattern |= 1 << (bit - low)
        if mask:
            split.append((mask, pattern, rows))
        else:
            _and_clause(base, columns, rows, scratch)
    count = 0
    kept: list[np.ndarray] = []
    for prefix in range(1 << (n - low)):
        acc = base.copy()
        for mask, pattern, rows in split:
            if (prefix & mask) != pattern:
                continue  # a high literal is true under this prefix
            if not rows:
                break  # every literal is false: no model in this chunk
            _and_clause(acc, columns, rows, scratch)
        else:
            count += int(np.bitwise_count(acc).sum())
            if materialize:
                octets = acc.astype("<u8", copy=False).view(np.uint8)
                bits = np.unpackbits(octets, bitorder="little")
                kept.append(np.flatnonzero(bits) + (prefix << low))
    if not materialize:
        return count, None
    return count, tuple(np.concatenate(kept).tolist()) if kept else ()


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
        count, assignments = _sweep(f, materialize=True)
        if product is not None and product != count:
            raise RuntimeError(
                f"enumeration ({count}) and disjoint product ({product}) disagree"
            )
        return SemanticImage(scope, count, assignments, ENUMERATED)
    if product is not None:
        return SemanticImage(scope, product, None, COUNT_ONLY)
    if n <= enumeration_cap:
        count, _ = _sweep(f, materialize=False)
        return SemanticImage(scope, count, None, COUNT_ONLY)
    raise IntractableError(n, enumeration_cap)


def log2_count(count: int) -> float:
    """log2 of an exact count, exact-ish for big ints; -inf for zero."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return float("-inf")
    return math.log2(count)
