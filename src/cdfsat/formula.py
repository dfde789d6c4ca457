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
            # a plain int, by far the common case, skips the isinstance pair
            if (type(lit) is not int and (not isinstance(lit, int) or isinstance(lit, bool))
                    or lit == 0):
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
    ordinal.  Lines are those of ``str.splitlines``, numbered from 1.

    The text is parsed once.  The data ends at the first line that starts
    with ``%``.  A header step reads the leading blank and comment lines
    and the header, and the body after it is read in blocks of whole lines.
    The bulk step takes a block whole when no clause runs into it, every
    token is an int literal in range, and every clause ends in the block
    with distinct variables, as in any ``write_dimacs`` output.  Any other
    block goes to the line step, which parses that block alone, one line at
    a time, and alone raises the body's ``DimacsParseError``.  Lines are
    counted only when a block reaches the line step.
    """
    data_end = _data_end(text)
    var_count, clause_total, pos, lines = _read_header(text, data_end)
    clauses: list[Clause] = []
    pending: list[int] = []  # the clause the line step left open, if any
    pending_line = 0  # the line where it began
    counted = pos  # the text up to here holds `lines` lines
    while pos < data_end:
        end = text.find("\n", pos + _BLOCK_CHARS, data_end) + 1 or data_end
        block = text[pos:end]
        bulk = None if pending else _clean_block_clauses(block, var_count)
        if bulk is None:
            lines += _line_count(text, counted, pos)
            pending_line, lines = _parse_lines(
                block, lines, var_count, clauses, pending, pending_line
            )
            counted = end
        else:
            clauses += bulk
        pos = end
    if pending:
        raise DimacsParseError(
            f"clause {len(clauses) + 1} not terminated by 0", pending_line
        )
    if clause_total != len(clauses):
        warnings.warn(
            f"header declares {clause_total} clauses, found {len(clauses)}",
            DimacsWarning,
            stacklevel=2,
        )
    return CnfFormula(tuple(clauses), var_count)


# the body is read in blocks of whole lines of about this many characters (a
# few thousand clause lines), so that the bulk step's token and literal lists
# stay small on a large file, and the line step parses at most one block for
# each oddity
_BLOCK_CHARS = 1 << 16


def _read_header(text: str, data_end: int) -> tuple[int, int, int, int]:
    """The variable and clause counts of the header, which must come before
    ``data_end`` and after nothing but blank and comment lines, the position
    just past its line, and its line number."""
    pos = lineno = 0
    while pos < data_end:
        end = text.find("\n", pos, data_end) + 1 or data_end
        for raw in text[pos:end].splitlines(keepends=True):
            lineno += 1
            pos += len(raw)
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if not line.startswith("p"):
                raise DimacsParseError("clause data before 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", lineno)
            try:
                var_count, clause_total = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(f"malformed header {line!r}", lineno) from None
            if var_count < 0 or clause_total < 0:
                raise DimacsParseError(f"negative counts in header {line!r}", lineno)
            return var_count, clause_total, pos, lineno
    raise DimacsParseError("missing 'p cnf' header")


# the characters at which str.splitlines ends a line ("\r\n" is one break)
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _line_count(text: str, start: int, end: int) -> int:
    """How many lines ``str.splitlines`` finds in ``text[start:end]``, which
    starts and ends at line boundaries, counted without building them."""
    breaks = sum(text.count(c, start, end) for c in _LINE_BREAKS)
    return breaks - text.count("\r\n", start, end)


def _data_end(text: str) -> int:
    """Where the data ends: at the start of the first line whose first
    non-blank character is ``%``, else at the text's end."""
    percent = text.find("%")
    while percent >= 0:
        start = percent  # back over the blanks before the % on its line
        while start and text[start - 1] not in _LINE_BREAKS and text[start - 1].isspace():
            start -= 1
        if not start or text[start - 1] in _LINE_BREAKS:
            return start
        percent = text.find("%", percent + 1)
    return len(text)


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


def _parse_lines(
    block: str,
    lineno: int,
    var_count: int,
    clauses: list[Clause],
    pending: list[int],
    pending_line: int,
) -> tuple[int, int]:
    """Parse one block of body lines, the first of them line ``lineno + 1``,
    one line at a time: append its clauses to ``clauses``, continuing the
    clause left open in ``pending`` (begun at line ``pending_line``), and
    leave in ``pending`` the clause still open at the block's end.  Returns
    the line where that clause began and the block's last line number.
    """
    block_lines = block.splitlines()
    for number, raw in enumerate(block_lines, lineno + 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            raise DimacsParseError("duplicate header", number)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"bad literal token {token!r}", number) from None
            if lit == 0:
                try:
                    clauses.append(Clause(pending))
                except TautologicalClauseError as exc:
                    raise DimacsParseError(
                        f"clause {len(clauses) + 1} is tautological: {exc}", pending_line
                    ) from None
                except ValueError as exc:
                    raise DimacsParseError(
                        f"clause {len(clauses) + 1}: {exc}", number
                    ) from None
                pending.clear()
            else:
                if abs(lit) > var_count:
                    raise DimacsParseError(
                        f"literal {lit} exceeds declared variable count {var_count}",
                        number,
                    )
                if not pending:
                    pending_line = number
                pending.append(lit)
    return pending_line, lineno + len(block_lines)


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
