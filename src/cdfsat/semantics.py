"""Satisfying-assignment images and exact model counts.

A semantic image is the set of assignments over a scope that satisfy a
clause or a formula.  Assignments are stored as integer bitmasks with the
lowest-indexed scope variable at the most significant bit, so ascending
mask order is exactly lexicographic order by variable index with false
before true, and that is the canonical enumeration and export order.

Counting is exact everywhere, and exactly one route counts each formula.
When n fits both ``enumeration_cap`` (default 26) and
``materialization_cap``, the exhaustive sweep counts the whole formula and
materializes its models; no other route materializes.  Otherwise the
formula splits into connected components of the shared-variable graph, and
its count is the product of theirs, times 2^(variables in no clause): the
semantic image of syntactically independent parts is the product of their
images.  A one-clause component of k variables counts 2^k - 1 at any size,
since the clause excludes exactly its one all-false local assignment.
Every other component is swept over its own variables, so the cap bounds
the variables of a component of two or more clauses, not n; a formula with
a larger one is intractable.

The exhaustive sweep is bit-sliced over Python ints.  Assignment index
a = (prefix << L) + bit, with variable v at bit n - v of a, so the lowest
L = min(n, SWEEP_BITS) bits hold the highest-indexed variables.  Their
truth columns are built once per L by ``truth_columns``, one int of 2^L
bits per column, in both polarities, and every clause ORs its low columns
once.  The sweep then runs one chunk per setting of the other n - L
variables.  Under a chunk's prefix every clause with a high literal
resolves first: a true high literal drops it, and otherwise its OR of low
columns (0 when it has none) is ANDed into the chunk's int; the clauses
with no low literal come first, and the chunk stops once its int is 0.
Clauses with no high literal are ANDed once into the int every chunk
starts from.  One int operation thus checks a clause against 2^L
assignments; ``int.bit_count`` counts the models, and materialized models
are the set bits in ascending order, picked by ``itertools.compress``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import Sequence

from .formula import Clause, CnfFormula

ENUMERATION_CAP = 26
# the largest cap that --cap and enumeration_cap accept: the sweep takes 2^n
# steps, so a larger cap could only admit a count that never finishes (the
# assignment masks are Python ints and set no bound of their own)
MAX_ENUMERATION_CAP = 63
MATERIALIZATION_CAP = 20
# the sweep checks the lowest SWEEP_BITS assignment bits in one int per
# chunk and fixes the variables above them once per chunk
SWEEP_BITS = 15
# maps the digits of a binary string to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

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
    """A component of two or more clauses has more variables than the cap.

    ``variable_count`` is the variable count of the whole formula.
    """

    def __init__(self, variable_count: int, cap: int):
        self.variable_count = variable_count
        self.cap = cap
        super().__init__(
            f"a component of two or more clauses of a {variable_count}-variable "
            f"formula exceeds the cap of {cap} variables"
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
    """Whether the clause variable sets are pairwise disjoint.

    ``CnfFormula`` makes every clause name distinct variables, so a clause's
    width is the size of its variable set, and the sets are pairwise
    disjoint exactly when the widths sum to the number of distinct
    variables over all clauses.
    """
    return sum(map(len, f.clauses)) == len(set(map(abs, chain.from_iterable(f.clauses))))


def clause_image(cl: Clause) -> SemanticImage:
    """Image of a single clause over its own variables: 2^k - 1 assignments.

    The one excluded assignment sets every literal false.  This is
    ``formula_image`` of the one-clause formula over the clause's sorted
    variables, renumbered 1..k, so the assignments are materialized up to
    MATERIALIZATION_CAP variables and the count is the closed form beyond.
    """
    scope = tuple(sorted(cl.variables()))
    local = {v: i for i, v in enumerate(scope, 1)}
    renumbered = tuple(local[lit] if lit > 0 else -local[-lit] for lit in cl)
    image = formula_image(CnfFormula((renumbered,), len(scope)))
    return SemanticImage(scope, image.count, image.assignments)


@lru_cache(maxsize=None)
def truth_columns(bits: int) -> tuple[tuple[int, ...], int]:
    """Truth columns of assignment bits 0..bits-1, and the all-ones int.

    Each column is one int over the 2^bits assignments, assignment ``a`` at
    bit ``a``.  Column 2j is set where bit j of the assignment is set,
    column 2j + 1 is its complement.  The all-ones int has every one of the
    2^bits bits set.  The result is built once per width, since a formula
    may need one sweep per component: the sweep uses widths 0..SWEEP_BITS
    and truth tables up to their atom cap, about 10 MiB of columns at most.
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
    return tuple(columns), ones


def _sweep(
    clauses: Sequence[tuple[int, ...]], n: int, materialize: bool
) -> tuple[int, tuple[int, ...] | None]:
    """Exact count over variables 1..n, and the ascending models if asked.

    See the module docstring for the layout.  Clauses with no low literal
    empty a chunk outright when their high literals are all false, so they
    are checked first.
    """
    low = min(n, SWEEP_BITS)
    columns, base = truth_columns(low)
    # each clause with a high literal: (mask, falsifying pattern) of its high
    # literals over the chunk prefix, and the OR of its low columns
    split: list[tuple[int, int, int]] = []
    for cl in clauses:
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
    split.sort(key=lambda entry: entry[2] != 0)
    count = 0
    models: list[int] = []
    for prefix in range(1 << (n - low)):
        acc = base
        for mask, pattern, column in split:
            if (prefix & mask) == pattern:  # every high literal is false
                acc &= column
                if not acc:
                    break
        if acc:
            count += acc.bit_count()
            if materialize:
                # bit a of acc selects assignment offset + a
                offset = prefix << low
                chosen = f"{acc:b}"[::-1].encode().translate(_BIT_BYTES)
                models += compress(range(offset, offset + len(chosen)), chosen)
    return count, tuple(models) if materialize else None


def _component_count(f: CnfFormula, cap: int) -> int:
    """Exact count as the product of the counts of the connected components.

    Variables are joined by union-find (union by size, path halving), clause
    by clause, and each root keeps the clauses of its component.  A
    component of two or more clauses past ``cap`` variables raises
    IntractableError at once, before any sweep.
    """
    n = f.variable_count
    parent = list(range(n + 1))
    size = [1] * (n + 1)  # variables under each root
    components: dict[int, list[tuple[int, ...]]] = {}  # root: its clauses
    for cl in f.clauses:
        root = 0
        for lit in cl:
            v = lit if lit > 0 else -lit
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if v != root:
                if not root:
                    root = v
                    continue
                if size[v] > size[root]:
                    root, v = v, root
                parent[v] = root
                size[root] += size[v]
                if v in components:
                    if root in components:
                        components[root] += components.pop(v)
                    else:
                        components[root] = components.pop(v)
        group = components.get(root)
        if group is None:
            components[root] = [cl]
        else:
            group.append(cl)
            if size[root] > cap:
                raise IntractableError(n, cap)
    count = 1 << (n - sum(size[root] for root in components))
    local = [0] * (2 * n + 1)
    for root, group in components.items():
        k = size[root]
        if len(group) == 1:
            count *= (1 << k) - 1
            continue
        if k == n:  # the one component, holding every variable
            return _sweep(f.clauses, n, materialize=False)[0]
        # local[lit] is the component's literal over variables 1..k (a
        # negative lit indexes from the end of the list, so both fit)
        for i, v in enumerate(dict.fromkeys(map(abs, chain.from_iterable(group))), 1):
            local[v] = i
            local[-v] = -i
        renumbered = [tuple(map(local.__getitem__, cl)) for cl in group]
        count *= _sweep(renumbered, k, materialize=False)[0]
        if not count:
            break
    return count


def formula_image(
    f: CnfFormula,
    enumeration_cap: int = ENUMERATION_CAP,
    materialization_cap: int = MATERIALIZATION_CAP,
) -> SemanticImage:
    """Exact satisfying-assignment image of a formula over all its variables.

    Exactly one route runs.  When n fits both caps, the sweep counts the
    formula and materializes its assignments.  Otherwise the count is the
    product over connected components (see the module docstring), with no
    assignments; IntractableError(n, enumeration_cap) when a component of
    two or more clauses has more than ``enumeration_cap`` variables.  A cap
    outside 0..MAX_ENUMERATION_CAP raises ValueError.
    """
    check_enumeration_cap(enumeration_cap)
    n = f.variable_count
    scope = tuple(range(1, n + 1))
    if n <= enumeration_cap and n <= materialization_cap:
        count, assignments = _sweep(f.clauses, n, materialize=True)
        return SemanticImage(scope, count, assignments)
    return SemanticImage(scope, _component_count(f, enumeration_cap), None)


def log2_count(count: int) -> float:
    """log2 of an exact count, exact-ish for big ints; -inf for zero."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return float("-inf")
    return math.log2(count)
