"""CNF formulas and their concrete syntax.

Literals follow the DIMACS convention throughout the package: a literal is a
nonzero int, ``v`` for the positive polarity of variable ``v`` (1-based) and
``-v`` for the negative one.  Negation is ``-lit``, the variable is
``abs(lit)``, the polarity is ``lit > 0``.  A clause is the tuple of its
literals, and ``CnfFormula`` checks every clause it is given.  Assignments
are plain dicts mapping variable index to bool; a partial assignment is just
a dict whose key set is smaller than the variable range.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable

Assignment = dict[int, bool]


class TautologicalClauseError(ValueError):
    """A clause contains some literal together with its negation."""


class DimacsParseError(ValueError):
    """Malformed DIMACS input.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimacsWarning(UserWarning):
    """Recoverable DIMACS oddity (e.g. header clause count mismatch)."""


class Clause(tuple):
    """An ordered disjunction of literals, stored as the tuple of them, so
    ``len(cl)`` is its width.

    Each literal must be a nonzero int (a bool is rejected).  Duplicate
    literals are dropped at construction (keeping first occurrence order);
    a clause containing a complementary pair is rejected, since a
    tautological clause constrains nothing and would silently corrupt width
    and image bookkeeping downstream.  Empty clauses are rejected as well:
    an unsatisfiable constraint must be expressed by clauses over at least
    one literal.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[int]) -> Clause:
        seen: dict[int, None] = {}  # insertion-ordered, so first occurrences
        for lit in literals:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise ValueError(f"literal must be a nonzero int, got {lit!r}")
            if -lit in seen:
                raise TautologicalClauseError(
                    f"clause {list(literals)} contains {lit} and {-lit}"
                )
            seen[lit] = None
        if not seen:
            raise ValueError("empty clause is not representable")
        return super().__new__(cls, seen)

    # the literal tuple is the clause itself; both names stay for callers
    # that read a clause's fields, such as the acceptance criteria
    literals = property(lambda self: self)
    width = property(len)

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, self))


def clause(*literals: int) -> Clause:
    """Shorthand constructor: ``clause(-1, 2)`` is the clause (~x1 | x2)."""
    return Clause(literals)


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables ``1..variable_count``.

    Every clause given is checked here: one that is not yet a ``Clause``
    is made one, raising ``Clause``'s error, and every literal must lie in
    the variable range.  ``variable_count`` must be a non-negative int (a
    bool is rejected).  ``formula``, ``generate_random_ksat`` and the
    encoders hand over plain literal tuples; ``parse_dimacs`` builds each
    ``Clause`` itself, so that its errors can name the clause and the line.
    The clause list is a multiset: duplicated clauses are preserved in input
    order.  ``variable_count`` may exceed the largest index actually used;
    the unused variables are unconstrained and still count toward the
    assignment space.
    """

    clauses: tuple[Clause, ...]
    variable_count: int

    def __post_init__(self) -> None:
        n = self.variable_count
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"variable_count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("variable_count must be >= 0")
        clauses = tuple(self.clauses)
        if not all(map(isinstance, clauses, repeat(Clause))):
            clauses = tuple(cl if isinstance(cl, Clause) else Clause(cl) for cl in clauses)
        object.__setattr__(self, "clauses", clauses)
        if max(map(abs, chain.from_iterable(clauses)), default=0) > n:
            i, var = next((i, abs(lit)) for i, cl in enumerate(clauses, 1)
                          for lit in cl if abs(lit) > n)
            raise ValueError(f"clause {i} uses variable {var} but variable_count is {n}")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    @cached_property
    def max_width(self) -> int:
        return max(map(len, self.clauses), default=0)

    @property
    def density(self) -> Fraction | None:
        """Clause-to-variable ratio m/n, None for the zero-variable formula."""
        if self.variable_count == 0:
            return None
        return Fraction(self.clause_count, self.variable_count)


def formula(clause_lists: Iterable[Iterable[int]], variable_count: int) -> CnfFormula:
    """Build a formula from bare literal lists."""
    return CnfFormula(tuple(clause_lists), variable_count)


def width_profile(f: CnfFormula) -> dict[int, int]:
    """Histogram mapping clause width to the number of clauses of that width."""
    return dict(sorted(Counter(map(len, f.clauses)).items()))


def satisfies(f: CnfFormula, assignment: Assignment) -> bool:
    """Whether every clause has a literal made true by ``assignment``.

    The assignment becomes the set of its true literals, and each clause is
    one disjointness test against that set.  Works for partial assignments
    too: a variable left out, or mapped to None, is free, and a clause whose
    literals are all free or false counts as unsatisfied.
    """
    true = {v if val else -v for v, val in assignment.items() if val is not None}
    return not any(map(true.isdisjoint, f.clauses))


# ---------------------------------------------------------------------------
# DIMACS concrete syntax
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Recognized lines: ``c`` comments, one ``p cnf <vars> <clauses>`` header,
    then whitespace-separated literal tokens with ``0`` terminating each
    clause (clauses may span lines).  A line starting with ``%`` ends the
    clause data and the rest of the text is ignored, which accepts the
    ``%`` / ``0`` trailer of SATLIB benchmark files.  A header clause count
    that disagrees with the actual number of clauses is a ``DimacsWarning``,
    not an error; a literal referencing a variable beyond the header count
    is an error; a tautological clause is an error naming the clause
    ordinal.

    The text takes one of two paths, with the same result.  A clean text,
    such as any ``write_dimacs`` output, is read in bulk: the header after
    any leading blank and comment lines, then the body up to a ``%`` line
    in blocks of whole lines, each block converted and checked in a few
    passes over all its literals at once.  Anything else the bulk pass does
    not vouch for (a comment or second header line in the body, a token
    that is not an int, a literal out of range, an empty or unterminated
    clause, a repeated or complementary literal, or a clause that spans two
    blocks) sends the whole text through the line-by-line parser, which
    alone raises ``DimacsParseError``.  Both paths warn on the header clause
    count.
    """
    f = _parse_dimacs_clean(text)
    return _parse_dimacs_lines(text) if f is None else f


# the bulk pass reads the body in blocks of whole lines of about this many
# characters (a few thousand clause lines), so that its per-block token and
# literal lists stay small on a large file
_BLOCK_CHARS = 1 << 16


def _parse_dimacs_clean(text: str) -> CnfFormula | None:
    """The formula of a clean DIMACS text, or None for any other text."""
    pos = 0
    while True:  # leading blank and comment lines, then the header
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        raw = text[pos:end]
        if len(raw.splitlines()) > 1:  # a line break other than \n or \r\n
            return None
        line = raw.strip()
        pos = end + 1
        if line and not line.startswith("c"):
            break
        if pos > len(text):
            return None
    parts = line.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
        return None
    try:
        var_count, clause_total = int(parts[2]), int(parts[3])
    except ValueError:
        return None
    if var_count < 0 or clause_total < 0:
        return None
    body_end = len(text)
    percent = text.find("%", pos)
    if percent >= 0:  # the body ends at a line that starts with %
        body_end = max(text.rfind("\n", pos, percent) + 1, pos)
        if text[body_end:percent].strip():  # a % after a token on its line
            return None
    clauses: list[Clause] = []
    while pos < body_end:
        end = text.find("\n", pos + _BLOCK_CHARS, body_end)
        if end < 0:
            end = body_end
        block_clauses = _clean_block_clauses(text[pos:end], var_count)
        if block_clauses is None:
            return None
        clauses += block_clauses
        pos = end + 1
    _check_clause_total(clause_total, len(clauses))
    return CnfFormula(tuple(clauses), var_count)


def _clean_block_clauses(block: str, var_count: int) -> list[Clause] | None:
    """The clauses of one block of body lines, or None unless every token is
    an int literal in range and every clause is non-empty, ends in the
    block, and has distinct variables (so ``Clause`` would keep it as is)."""
    try:
        lits = list(map(int, block.split()))
    except ValueError:
        return None
    if lits and (lits[-1] != 0 or max(map(abs, lits)) > var_count):
        return None
    clauses: list[Clause] = []
    start = 0
    while start < len(lits):
        end = lits.index(0, start)
        literals = lits[start:end]
        if not literals or len(set(map(abs, literals))) != len(literals):
            return None
        clauses.append(tuple.__new__(Clause, literals))
        start = end + 1
    return clauses


def _check_clause_total(declared: int, found: int) -> None:
    """Warn, naming the caller of ``parse_dimacs``, when the header's clause
    count differs from the body's."""
    if declared != found:
        warnings.warn(
            f"header declares {declared} clauses, found {found}",
            DimacsWarning,
            stacklevel=4,
        )


def _parse_dimacs_lines(text: str) -> CnfFormula:
    """``parse_dimacs`` one line at a time: the path that names the line of
    any fault, and warns on a header clause count that the body contradicts.
    """
    var_count: int | None = None
    clause_total: int | None = None
    pending: list[int] = []
    pending_line = 0
    clauses: list[Clause] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if var_count is not None:
                raise DimacsParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", lineno)
            try:
                var_count = int(parts[2])
                clause_total = int(parts[3])
            except ValueError:
                raise DimacsParseError(f"malformed header {line!r}", lineno) from None
            if var_count < 0 or clause_total < 0:
                raise DimacsParseError(f"negative counts in header {line!r}", lineno)
            continue
        if var_count is None:
            raise DimacsParseError("clause data before 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"bad literal token {token!r}", lineno) from None
            if lit == 0:
                try:
                    clauses.append(Clause(pending))
                except TautologicalClauseError as exc:
                    raise DimacsParseError(
                        f"clause {len(clauses) + 1} is tautological: {exc}", pending_line
                    ) from None
                except ValueError as exc:
                    raise DimacsParseError(
                        f"clause {len(clauses) + 1}: {exc}", lineno
                    ) from None
                pending = []
            else:
                if abs(lit) > var_count:
                    raise DimacsParseError(
                        f"literal {lit} exceeds declared variable count {var_count}",
                        lineno,
                    )
                if not pending:
                    pending_line = lineno
                pending.append(lit)

    if var_count is None:
        raise DimacsParseError("missing 'p cnf' header")
    if pending:
        raise DimacsParseError(
            f"clause {len(clauses) + 1} not terminated by 0", pending_line
        )
    if clause_total is not None:
        _check_clause_total(clause_total, len(clauses))
    return CnfFormula(tuple(clauses), var_count)


def write_dimacs(f: CnfFormula, comments: Iterable[str] = ()) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"c {c}" if c else "c" for c in comments]
    lines.append(f"p cnf {f.variable_count} {f.clause_count}")
    for cl in f.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def generate_random_ksat(
    n: int,
    m: int,
    k: int,
    seed: int,
    disjoint: bool = False,
) -> CnfFormula:
    """Generate a random k-SAT instance with m clauses over n variables.

    Every clause has exactly k distinct variables (so no tautologies and no
    width collapse) with uniform independent polarities.  With
    ``disjoint=True`` the clause variable sets are pairwise disjoint, which
    requires m*k <= n; variables are dealt out of one Fisher-Yates shuffle.
    The PRNG is ``random.Random(seed)`` (Mersenne Twister), so output is a
    pure function of the arguments.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0 or n < 0:
        raise ValueError("n and m must be >= 0")
    if m > 0 and k > n:
        raise ValueError(f"cannot pick {k} distinct variables out of {n}")
    if disjoint and m * k > n:
        raise ValueError(
            f"disjoint mode needs m*k <= n, got m={m} k={k} n={n}"
        )
    rng = random.Random(seed)
    clauses: list[tuple[int, ...]] = []
    if disjoint:
        deck = list(range(1, n + 1))
        rng.shuffle(deck)
        for i in range(m):
            block = sorted(deck[i * k : (i + 1) * k])
            clauses.append(tuple(v if rng.getrandbits(1) else -v for v in block))
    else:
        for _ in range(m):
            block = sorted(rng.sample(range(1, n + 1), k))
            clauses.append(tuple(v if rng.getrandbits(1) else -v for v in block))
    return CnfFormula(tuple(clauses), n)
