"""CNF formulas and their concrete syntax.

Literals follow the DIMACS convention throughout the package: a literal is a
nonzero int, ``v`` for the positive polarity of variable ``v`` (1-based) and
``-v`` for the negative one.  Negation is ``-lit``, the variable is
``abs(lit)``, the polarity is ``lit > 0``.  Assignments are plain dicts
mapping variable index to bool; a partial assignment is just a dict whose key
set is smaller than the variable range.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Clause:
    """An ordered disjunction of literals.

    Duplicate literals are dropped at construction (keeping first occurrence
    order); a clause containing a complementary pair is rejected, since a
    tautological clause constrains nothing and would silently corrupt width
    and image bookkeeping downstream.  Empty clauses are rejected as well:
    an unsatisfiable constraint must be expressed by clauses over at least
    one literal.
    """

    literals: tuple[int, ...]

    def __post_init__(self) -> None:
        seen: list[int] = []
        for lit in self.literals:
            if not isinstance(lit, int) or lit == 0:
                raise ValueError(f"literal must be a nonzero int, got {lit!r}")
            if -lit in seen:
                raise TautologicalClauseError(
                    f"clause {list(self.literals)} contains {lit} and {-lit}"
                )
            if lit not in seen:
                seen.append(lit)
        if not seen:
            raise ValueError("empty clause is not representable")
        object.__setattr__(self, "literals", tuple(seen))

    @property
    def width(self) -> int:
        return len(self.literals)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for lit in self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)


def clause(*literals: int) -> Clause:
    """Shorthand constructor: ``clause(-1, 2)`` is the clause (~x1 | x2)."""
    return Clause(tuple(literals))


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables ``1..variable_count``.

    The clause list is a multiset: duplicated clauses are preserved in input
    order.  ``variable_count`` may exceed the largest index actually used;
    the unused variables are unconstrained and still count toward the
    assignment space.
    """

    clauses: tuple[Clause, ...]
    variable_count: int

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise ValueError("variable_count must be >= 0")
        object.__setattr__(self, "clauses", tuple(self.clauses))
        for i, cl in enumerate(self.clauses):
            for lit in cl:
                if abs(lit) > self.variable_count:
                    raise ValueError(
                        f"clause {i + 1} uses variable {abs(lit)} "
                        f"but variable_count is {self.variable_count}"
                    )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    @property
    def max_width(self) -> int:
        return max((cl.width for cl in self.clauses), default=0)

    @property
    def density(self) -> Fraction | None:
        """Clause-to-variable ratio m/n, None for the zero-variable formula."""
        if self.variable_count == 0:
            return None
        return Fraction(self.clause_count, self.variable_count)

    def variables(self) -> frozenset[int]:
        """Variables actually occurring in some clause."""
        out: set[int] = set()
        for cl in self.clauses:
            out.update(abs(lit) for lit in cl)
        return frozenset(out)


def formula(clause_lists: Iterable[Iterable[int]], variable_count: int) -> CnfFormula:
    """Build a formula from bare literal lists."""
    return CnfFormula(tuple(Clause(tuple(c)) for c in clause_lists), variable_count)


def width_profile(f: CnfFormula) -> dict[int, int]:
    """Histogram mapping clause width to the number of clauses of that width."""
    profile: dict[int, int] = {}
    for cl in f.clauses:
        profile[cl.width] = profile.get(cl.width, 0) + 1
    return dict(sorted(profile.items()))


def literal_satisfied(lit: int, assignment: Assignment) -> bool | None:
    """True/False if the literal's variable is assigned, None if free."""
    value = assignment.get(abs(lit))
    if value is None:
        return None
    return value if lit > 0 else not value


def clause_satisfied(cl: Clause, assignment: Assignment) -> bool:
    return any(literal_satisfied(lit, assignment) for lit in cl)


def satisfies(f: CnfFormula, assignment: Assignment) -> bool:
    """Whether every clause has a literal made true by ``assignment``.

    Works for partial assignments too: a clause whose literals are all free
    or false counts as unsatisfied.
    """
    return all(clause_satisfied(cl, assignment) for cl in f.clauses)


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
    that disagrees with the actual number of clauses is a warning, not an
    error; a literal referencing a variable beyond the header count is an
    error; a tautological clause is an error naming the clause ordinal.
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
                    clauses.append(Clause(tuple(pending)))
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
    if clause_total is not None and clause_total != len(clauses):
        warnings.warn(
            f"header declares {clause_total} clauses, found {len(clauses)}",
            DimacsWarning,
            stacklevel=2,
        )
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
    clauses: list[Clause] = []
    if disjoint:
        deck = list(range(1, n + 1))
        rng.shuffle(deck)
        for i in range(m):
            block = sorted(deck[i * k : (i + 1) * k])
            clauses.append(
                Clause(tuple(v if rng.getrandbits(1) else -v for v in block))
            )
    else:
        for _ in range(m):
            block = sorted(rng.sample(range(1, n + 1), k))
            clauses.append(
                Clause(tuple(v if rng.getrandbits(1) else -v for v in block))
            )
    return CnfFormula(tuple(clauses), n)
