"""Propositional formulas, truth tables, and checked natural deduction.

The derivation checker tracks assumption dependencies the classical way:
an assumption depends on itself, rules union the dependencies of what they
cite, and conditional introduction discharges one assumption.  A derivation
proves its goal only when the last line carries no open assumptions.  The
package compares two cost notions.  Semantic cost, the full truth-table
size, is ``semantic_cost``.  Syntactic cost, the line count of a valid
derivation, is computed by ``cdfsat prove`` from the ``check_derivation``
result it already has.

Truth tables evaluate every row at once.  Each atom is one int column from
``semantics.truth_columns``, row r at bit r; the connectives are bitwise
operations on those ints, and negation is XOR with the all-ones int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .semantics import truth_columns

TRUTH_TABLE_ATOM_CAP = 20
# most connectives and parentheses around any one atom of a parsed proposition
MAX_NESTING = 100


class PropositionParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class Proposition:
    """Base class; concrete nodes are Atom, Not, And, Or, Implies."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Proposition):
    name: str


@dataclass(frozen=True)
class Not(Proposition):
    operand: Proposition


@dataclass(frozen=True)
class And(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Or(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Implies(Proposition):
    left: Proposition
    right: Proposition


def atoms(p: Proposition) -> tuple[str, ...]:
    """Atom names in p, sorted alphabetically."""
    names: set[str] = set()
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack.append(node.left)  # type: ignore[attr-defined]
            stack.append(node.right)  # type: ignore[attr-defined]
    return tuple(sorted(names))


def eval_proposition(p: Proposition, env: dict[str, bool]) -> bool:
    if isinstance(p, Atom):
        return env[p.name]
    if isinstance(p, Not):
        return not eval_proposition(p.operand, env)
    if isinstance(p, And):
        return eval_proposition(p.left, env) and eval_proposition(p.right, env)
    if isinstance(p, Or):
        return eval_proposition(p.left, env) or eval_proposition(p.right, env)
    if isinstance(p, Implies):
        return (not eval_proposition(p.left, env)) or eval_proposition(p.right, env)
    raise TypeError(f"not a proposition: {p!r}")


# Precedence: -> binds loosest, then |, &, ~; -> is right-associative.
_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}


def to_text(p: Proposition) -> str:
    """Render with minimal parentheses; parse(to_text(p)) round-trips."""

    def render(node: Proposition) -> str:
        prec = _PRECEDENCE[type(node)]
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, Not):
            inner = render(node.operand)
            if _PRECEDENCE[type(node.operand)] < prec:
                inner = f"({inner})"
            return f"~{inner}"
        op = {And: "&", Or: "|", Implies: "->"}[type(node)]
        left, right = render(node.left), render(node.right)
        lp, rp = _PRECEDENCE[type(node.left)], _PRECEDENCE[type(node.right)]
        # right-associative ->: parenthesize an -> on the left;
        # left-associative & and |: parenthesize a same-operator right child
        if lp < prec or (lp == prec and isinstance(node, Implies)):
            left = f"({left})"
        if rp < prec or (rp == prec and not isinstance(node, Implies)):
            right = f"({right})"
        return f"{left} {op} {right}"

    return render(p)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            yield ("op", "->", i)
            i += 2
        elif ch in "~&|()":
            yield ("op", ch, i)
            i += 1
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("atom", text[i:j], i)
            i = j
        else:
            raise PropositionParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", len(text))


def parse_proposition(text: str) -> Proposition:
    """Parse ``~``, ``&``, ``|``, ``->`` over alphanumeric atom names.

    No atom may sit inside more than MAX_NESTING connectives and
    parentheses together.  A deeper proposition is rejected while it is
    parsed, so neither the parser nor the recursive functions over the tree
    (evaluation, rendering, equality) reach Python's recursion limit.
    """
    tokens = list(_tokenize(text))
    pos = 0

    def peek() -> tuple[str, str, int]:
        return tokens[pos]

    def take() -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def nest(level: int, at: int) -> int:
        if level > MAX_NESTING:
            raise PropositionParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        return level

    # Each parse function is given the nesting around its input and returns
    # its node with the nesting inside it; nest() checks both as they grow,
    # so the parser's own recursion stops at the bound as well.
    def parse_implies(depth: int) -> tuple[Proposition, int]:
        left, height = parse_or(depth)
        kind, value, at = peek()
        if kind == "op" and value == "->":
            take()
            right, right_height = parse_implies(nest(depth + 1, at))
            return Implies(left, right), nest(max(height, right_height) + 1, at)
        return left, height

    def parse_or(depth: int) -> tuple[Proposition, int]:
        node, height = parse_and(depth)
        while peek()[:2] == ("op", "|"):
            at = take()[2]
            right, right_height = parse_and(nest(depth + 1, at))
            node, height = Or(node, right), nest(max(height, right_height) + 1, at)
        return node, height

    def parse_and(depth: int) -> tuple[Proposition, int]:
        node, height = parse_unary(depth)
        while peek()[:2] == ("op", "&"):
            at = take()[2]
            right, right_height = parse_unary(nest(depth + 1, at))
            node, height = And(node, right), nest(max(height, right_height) + 1, at)
        return node, height

    def parse_unary(depth: int) -> tuple[Proposition, int]:
        kind, value, at = peek()
        if kind == "op" and value == "~":
            take()
            operand, height = parse_unary(nest(depth + 1, at))
            return Not(operand), nest(height + 1, at)
        if kind == "op" and value == "(":
            take()
            node, height = parse_implies(nest(depth + 1, at))
            kind, value, close_at = peek()
            if (kind, value) != ("op", ")"):
                raise PropositionParseError("expected ')'", close_at)
            take()
            return node, nest(height + 1, at)
        if kind == "atom":
            take()
            return Atom(value), 0
        raise PropositionParseError(
            f"expected an atom, '~', or '(', got {value!r}" if value else "unexpected end of input",
            at,
        )

    node, _ = parse_implies(0)
    kind, value, at = peek()
    if kind != "end":
        raise PropositionParseError(f"trailing input {value!r}", at)
    return node


@dataclass(frozen=True)
class TruthTable:
    """Complete table for a proposition.

    Rows are in lexicographic order over the alphabetical atom tuple, all
    atoms false first; row index r assigns atoms[i] the bit of r at
    position len(atoms)-1-i.
    """

    atoms: tuple[str, ...]
    values: tuple[bool, ...]

    @property
    def row_count(self) -> int:
        return len(self.values)

    @property
    def is_tautology(self) -> bool:
        return all(self.values)

    def row_assignment(self, row: int) -> dict[str, bool]:
        k = len(self.atoms)
        return {a: bool((row >> (k - 1 - i)) & 1) for i, a in enumerate(self.atoms)}

    def to_text(self) -> str:
        header = " ".join(self.atoms) + " | value"
        lines = [header, "-" * len(header)]
        for row, value in enumerate(self.values):
            env = self.row_assignment(row)
            bits = " ".join(
                ("T" if env[a] else "F").rjust(len(a)) for a in self.atoms
            )
            lines.append(f"{bits} | {'T' if value else 'F'}")
        return "\n".join(lines)

    def to_json_dict(self, include_rows: bool = True) -> dict:
        out: dict = {
            "atoms": list(self.atoms),
            "rowCount": self.row_count,
            "isTautology": self.is_tautology,
        }
        if include_rows:
            out["rows"] = [
                {
                    "assignment": self.row_assignment(row),
                    "value": value,
                }
                for row, value in enumerate(self.values)
            ]
        return out


def eval_truth_table(p: Proposition) -> TruthTable:
    names = atoms(p)
    if len(names) > TRUTH_TABLE_ATOM_CAP:
        raise ValueError(
            f"{len(names)} atoms exceeds the truth-table cap of {TRUTH_TABLE_ATOM_CAP}"
        )
    k = len(names)
    columns, ones = truth_columns(k)
    # row r assigns names[i] bit k-1-i of r, and sits at bit r of a column
    by_atom = {a: columns[2 * (k - 1 - i)] for i, a in enumerate(names)}
    value = _eval_columns(p, by_atom, ones)
    bits = f"{value:0{1 << k}b}"[::-1]  # bits[r] is bit r of value
    return TruthTable(names, tuple(map("1".__eq__, bits)))


def _eval_columns(p: Proposition, columns: dict[str, int], ones: int) -> int:
    """eval_proposition over every row at once, one int column per atom."""
    if isinstance(p, Atom):
        return columns[p.name]
    if isinstance(p, Not):
        return ones ^ _eval_columns(p.operand, columns, ones)
    if not isinstance(p, (And, Or, Implies)):
        raise TypeError(f"not a proposition: {p!r}")
    left = _eval_columns(p.left, columns, ones)
    right = _eval_columns(p.right, columns, ones)
    if isinstance(p, And):
        return left & right
    if isinstance(p, Or):
        return left | right
    return (ones ^ left) | right


def semantic_cost(p: Proposition) -> int:
    """Rows a full truth-table verification must examine: 2**atoms."""
    return 1 << len(atoms(p))


ASSUMPTION = "assumption"
REITERATION = "reiteration"
IMPLIES_INTRO = "implies-intro"
IMPLIES_ELIM = "implies-elim"


@dataclass(frozen=True)
class DerivationStep:
    """One numbered line.  refs are 1-based step numbers; their meaning is
    rule-specific: reiteration (cited,), implies-intro (assumption, result),
    implies-elim (conditional, antecedent).
    """

    formula: Proposition
    rule: str
    refs: tuple[int, ...] = ()


def parse_derivation_json(data: list[dict]) -> tuple[DerivationStep, ...]:
    """Read steps from JSON objects with a ``formula`` string, a ``rule``,
    and the rule's named references: ``of`` for reiteration, ``from``/``to``
    for implies-intro, ``major``/``minor`` for implies-elim.
    """
    steps: list[DerivationStep] = []
    ref_keys = {
        ASSUMPTION: (),
        REITERATION: ("of",),
        IMPLIES_INTRO: ("from", "to"),
        IMPLIES_ELIM: ("major", "minor"),
    }
    for i, obj in enumerate(data, start=1):
        if not isinstance(obj, dict):
            raise ValueError(f"step {i}: expected an object")
        try:
            text = obj["formula"]
            rule = obj["rule"]
        except KeyError as exc:
            raise ValueError(f"step {i}: missing key {exc.args[0]!r}") from None
        if not isinstance(text, str) or not isinstance(rule, str):
            raise ValueError(f"step {i}: 'formula' and 'rule' must be strings")
        if rule not in ref_keys:
            raise ValueError(f"step {i}: unknown rule {rule!r}")
        try:
            refs = tuple(obj[k] for k in ref_keys[rule])
        except KeyError as exc:
            raise ValueError(
                f"step {i}: rule {rule!r} needs key {exc.args[0]!r}"
            ) from None
        for key, ref in zip(ref_keys[rule], refs):
            if type(ref) is not int:  # bool is an int subclass, and 1.5 is no step
                raise ValueError(f"step {i}: {key!r} must be a step number, got {ref!r}")
        steps.append(DerivationStep(parse_proposition(text), rule, refs))
    return tuple(steps)


@dataclass(frozen=True)
class DerivationCheck:
    valid: bool
    failed_step: int | None = None
    reason: str | None = None
    dependencies: tuple[frozenset[int], ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "failedStep": self.failed_step,
            "reason": self.reason,
            "dependencies": [sorted(d) for d in self.dependencies],
        }


def check_derivation(
    steps: tuple[DerivationStep, ...] | list[DerivationStep],
    goal: Proposition | None = None,
) -> DerivationCheck:
    """Validate every step and the endpoint.

    A derivation is valid when each line is licensed by its rule, the last
    line's dependency set is empty, and (when a goal is given) the last
    formula is exactly the goal.
    """
    steps = tuple(steps)
    deps: list[frozenset[int]] = []

    def fail(step: int, reason: str) -> DerivationCheck:
        return DerivationCheck(False, step, reason, tuple(deps))

    if not steps:
        return DerivationCheck(False, None, "empty derivation", ())

    for i, step in enumerate(steps, start=1):
        for r in step.refs:
            if not (1 <= r < i):
                return fail(i, f"reference {r} is not an earlier step")
        if step.rule == ASSUMPTION:
            deps.append(frozenset({i}))
        elif step.rule == REITERATION:
            (of,) = step.refs
            if steps[of - 1].formula != step.formula:
                return fail(i, f"formula differs from step {of}")
            deps.append(deps[of - 1])
        elif step.rule == IMPLIES_ELIM:
            major, minor = step.refs
            conditional = steps[major - 1].formula
            if not isinstance(conditional, Implies):
                return fail(i, f"step {major} is not a conditional")
            if steps[minor - 1].formula != conditional.left:
                return fail(i, f"step {minor} is not the antecedent of step {major}")
            if step.formula != conditional.right:
                return fail(i, f"formula is not the consequent of step {major}")
            deps.append(deps[major - 1] | deps[minor - 1])
        elif step.rule == IMPLIES_INTRO:
            from_, to = step.refs
            if from_ > to:
                return fail(i, "discharged assumption must not follow the result")
            if steps[from_ - 1].rule != ASSUMPTION:
                return fail(i, f"step {from_} is not an assumption")
            expected = Implies(steps[from_ - 1].formula, steps[to - 1].formula)
            if step.formula != expected:
                return fail(i, f"formula must be {to_text(expected)}")
            # vacuous discharge is allowed: from_ need not appear in deps[to-1]
            deps.append(deps[to - 1] - {from_})
        else:
            return fail(i, f"unknown rule {step.rule!r}")

    last = len(steps)
    if deps[-1]:
        open_steps = ", ".join(str(s) for s in sorted(deps[-1]))
        return fail(last, f"open assumptions remain: steps {open_steps}")
    if goal is not None and steps[-1].formula != goal:
        return fail(last, f"final formula is {to_text(steps[-1].formula)}, not the goal")
    return DerivationCheck(True, None, None, tuple(deps))


def format_derivation(
    steps: tuple[DerivationStep, ...] | list[DerivationStep],
    check: DerivationCheck | None = None,
) -> str:
    """Numbered plain-text listing with per-line dependency sets."""
    deps = check.dependencies if check is not None else ()
    lines = []
    for i, step in enumerate(steps, start=1):
        refs = f" ({', '.join(str(r) for r in step.refs)})" if step.refs else ""
        dep = ""
        if i <= len(deps):
            dep = " {" + ", ".join(str(d) for d in sorted(deps[i - 1])) + "}"
        lines.append(f"{i}. {to_text(step.formula)}  [{step.rule}{refs}]{dep}")
    return "\n".join(lines)
