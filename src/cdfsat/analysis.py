"""Compositionality checking, semantic growth measurement, classification.

The central question: does reasoning over the implication graph (built
clause by clause, then closed by reachability) force exactly the literals
that direct clause-level propagation forces, from every seed (the empty set
and each single literal, 2n+1 seeds)?  A width->=3 clause settles it at
once, because no implication form exists for it, and the report then
carries a concrete witness: a partial assignment under which clause-level
reasoning is stuck and graph reasoning is not even defined.

For formulas whose clauses all have width <= 2 the answer is fixed by the
syntax, by this lemma:

* Without a unit clause the two fragments agree on every seed.  Clause
  (a | b) forces b after ~a exactly as the edge ~a => b does, so every
  forced literal is reachable; a propagation fixpoint without conflict is
  consistent and closed under the edges, so it is the whole reachability
  closure; and a falsified clause (a | b) puts ~a, ~b and, along ~a => b,
  b into the closure, so both sides meet a conflict on the same seeds.
* With a unit clause (a) the empty seed already disagrees: clause-level
  propagation forces a (or meets a conflict), while reachability from
  nothing reaches nothing, since the edge ~a => a needs ~a first.

So the narrow report is computed, not searched for: the first unit clause
with the empty seed, UP(empty)'s forced set and the empty set as its
witness, or Compositional; either way the 2n+1 seeds the lemma covers are
counted.  On narrow formulas NonCompositional thus comes only from unit
clauses.  The seed-by-seed comparison itself lives in the test oracles
(``tests/_oracles.py``), which check the lemma route against it.

Growth measurement samples exact image sizes over a formula family and fits
log2(size) against n (exponential model) and against log2(n) (polynomial
model) by least squares; the model with the smaller squared residual is
preferred and the exponential slope is also reported as a per-variable
branching base, 2^slope.

Classification combines the two: compositional formulas are ComCDF;
otherwise the fraction of variables touched by wide clauses decides between
SemiExpCDF (at most theta) and ExpCDF (above theta).  Growth evidence never
overrides the syntactic verdict; a polynomial-preferred fit on a
non-compositional formula only raises a tension flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .formula import Clause, CnfFormula
# build_implication_graph and propagate_closure are not called here; they stay
# importable from this module, where perfbench/tracing.py wraps them
from .logic import (  # noqa: F401
    build_implication_graph,
    propagate_closure,
    unit_propagate,
    _lit_key,
)
from .semantics import (
    ENUMERATION_CAP,
    IntractableError,
    formula_image,
    log2_count,
)

COMPOSITIONAL = "Compositional"
NON_COMPOSITIONAL = "NonCompositional"

EXPONENTIAL = "Exponential"
POLYNOMIAL = "Polynomial"

DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class CompositionalityWitness:
    """Concrete evidence that the two inference fragments come apart.

    For a wide clause: the clause, a partial assignment falsifying all but
    two of its literals, the (empty) set clause-level reasoning forces on
    it, and None for the graph side, whose implication form is undefined.
    For a narrow formula with a unit clause: that clause, the empty seed,
    the set clause-level propagation forces from it, and the empty set
    reachability forces from it.
    """

    clause: Clause
    assignment: frozenset[int]  # seed, as true literals
    gamma_forced: frozenset[int]
    beta_alpha_forced: frozenset[int] | None  # None means undefined

    def to_json_dict(self) -> dict:
        return {
            "clause": list(self.clause.literals),
            "assignment": sorted(self.assignment, key=_lit_key),
            "gammaForced": sorted(self.gamma_forced, key=_lit_key),
            "betaAlphaForced": "undefined"
            if self.beta_alpha_forced is None
            else sorted(self.beta_alpha_forced, key=_lit_key),
        }


@dataclass(frozen=True)
class CompositionalityReport:
    status: str
    checked_seeds: int
    witness: CompositionalityWitness | None

    def __post_init__(self) -> None:
        if (self.status == NON_COMPOSITIONAL) != (self.witness is not None):
            raise ValueError("NonCompositional exactly when a witness is present")

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "checkedSeeds": self.checked_seeds,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def wide_clause_witness(f: CnfFormula, cl: Clause) -> CompositionalityWitness:
    """Build the replayable witness for a width->=3 clause.

    The assignment falsifies every literal but the last two, leaving the
    clause a live disjunction: clause-level propagation forces nothing on
    it, and there is no implication edge to follow at all.
    """
    seed = frozenset(-lit for lit in cl.literals[:-2])
    assignment = {abs(lit): lit > 0 for lit in seed}
    closure = unit_propagate(CnfFormula((cl,), f.variable_count), assignment)
    return CompositionalityWitness(
        clause=cl,
        assignment=seed,
        gamma_forced=frozenset(closure.forced - closure.seed),
        beta_alpha_forced=None,
    )


def check_compositionality(f: CnfFormula) -> CompositionalityReport:
    """Decide whether clause-level and graph-level propagation agree.

    A width->=3 clause short-circuits to NonCompositional with a replayable
    wide-clause witness and 0 checked seeds, since the graph side is
    undefined for it.  Otherwise the lemma in the module docstring decides
    over all 2n+1 seeds (the empty set and every single literal): the first
    unit clause gives NonCompositional at the empty seed, with UP(empty)'s
    forced set against the empty reachability closure; with no unit clause
    the formula is Compositional.  This takes one unit propagation from the
    empty seed, and no implication graph.
    """
    for cl in f.clauses:
        if cl.width >= 3:
            return CompositionalityReport(
                NON_COMPOSITIONAL, 0, wide_clause_witness(f, cl)
            )
    seeds = 2 * f.variable_count + 1
    for cl in f.clauses:
        if cl.width == 1:
            gamma = unit_propagate(f, {})
            return CompositionalityReport(
                NON_COMPOSITIONAL,
                seeds,
                CompositionalityWitness(
                    clause=cl,
                    assignment=frozenset(),
                    gamma_forced=gamma.forced,
                    beta_alpha_forced=frozenset(),
                ),
            )
    return CompositionalityReport(COMPOSITIONAL, seeds, None)


# ---------------------------------------------------------------------------
# Semantic growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthSample:
    n: int
    image_size: int
    log_image_bits: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "imageSize": self.image_size,
            "logImageBits": self.log_image_bits,
        }


@dataclass(frozen=True)
class GrowthFit:
    """Two least-squares fits of log2(image size) and their comparison.

    exponential_rate is the slope against n, in bits per variable, so the
    implied per-variable branching base is 2^rate; polynomial_degree is the
    slope against log2(n).  preferred_model is whichever transform left the
    smaller sum of squared residuals.  failed_n lists sample sizes that
    could not be measured (over the enumeration cap with no closed form, or
    an unsatisfiable member, whose empty image has no log).
    """

    samples: tuple[GrowthSample, ...]
    exponential_rate: float
    polynomial_degree: float
    preferred_model: str
    implied_base: float
    exponential_residual: float
    polynomial_residual: float
    failed_n: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "samples": [s.to_json_dict() for s in self.samples],
            "exponentialRate": self.exponential_rate,
            "polynomialDegree": self.polynomial_degree,
            "preferredModel": self.preferred_model,
            "impliedBase": self.implied_base,
            "residuals": {
                "exponential": self.exponential_residual,
                "polynomial": self.polynomial_residual,
            },
            "failedN": list(self.failed_n),
        }

    def to_csv(self) -> str:
        lines = ["n,imageSize,logImageBits"]
        for s in self.samples:
            lines.append(f"{s.n},{s.image_size},{s.log_image_bits!r}")
        return "\n".join(lines) + "\n"


def fit_growth(
    samples: Sequence[GrowthSample], failed_n: Iterable[int] = ()
) -> GrowthFit:
    """Fit the two growth models to already-measured samples."""
    if len(samples) < 2:
        raise ValueError("need at least 2 measured samples to fit growth")
    ns = np.array([s.n for s in samples], dtype=float)
    bits = np.array([s.log_image_bits for s in samples], dtype=float)
    if np.any(ns < 1):
        raise ValueError("sample sizes must be >= 1")
    exp_slope, exp_icept = np.polyfit(ns, bits, 1)
    exp_res = float(np.sum((bits - (exp_slope * ns + exp_icept)) ** 2))
    log_ns = np.log2(ns)
    poly_slope, poly_icept = np.polyfit(log_ns, bits, 1)
    poly_res = float(np.sum((bits - (poly_slope * log_ns + poly_icept)) ** 2))
    preferred = EXPONENTIAL if exp_res <= poly_res else POLYNOMIAL
    return GrowthFit(
        samples=tuple(samples),
        exponential_rate=float(exp_slope),
        polynomial_degree=float(poly_slope),
        preferred_model=preferred,
        implied_base=float(2.0 ** exp_slope),
        exponential_residual=exp_res,
        polynomial_residual=poly_res,
        failed_n=tuple(failed_n),
    )


def measure_growth(
    family: Callable[[int], CnfFormula],
    n_values: Sequence[int],
    enumeration_cap: int = ENUMERATION_CAP,
) -> GrowthFit:
    """Measure exact image sizes of family(n) over n_values and fit them.

    n_values must be strictly increasing with at least 3 entries.  Sizes
    beyond the enumeration cap still measure exactly when the family member
    is variable-disjoint (closed-form product); otherwise that n lands in
    failed_n and the fit proceeds on the remaining samples.
    """
    ns = list(n_values)
    if len(ns) < 3:
        raise ValueError("need at least 3 sample sizes")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    samples: list[GrowthSample] = []
    failed: list[int] = []
    for n in ns:
        member = family(n)
        try:
            img = formula_image(member, enumeration_cap, materialization_cap=0)
        except IntractableError:
            failed.append(n)
            continue
        if img.count < 1:
            failed.append(n)
            continue
        samples.append(GrowthSample(n, img.count, log2_count(img.count)))
    return fit_growth(samples, failed)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

COM_CDF = "ComCDF"
SEMI_EXP_CDF = "SemiExpCDF"
EXP_CDF = "ExpCDF"


@dataclass(frozen=True)
class CdfClassification:
    """Syntactic verdict with its evidence.

    verdict is ComCDF exactly when the compositionality comparison passed.
    Otherwise wide_clause_fraction (share of variables occurring in some
    width->=3 clause) against theta separates SemiExpCDF from ExpCDF.
    tension flags growth evidence disagreeing with the syntactic verdict
    (polynomial-preferred fit on a non-compositional formula); the verdict
    stands either way.
    """

    verdict: str
    compositionality: CompositionalityReport
    growth: GrowthFit | None
    wide_clause_fraction: float
    theta: float
    tension: bool

    def __post_init__(self) -> None:
        if self.verdict == COM_CDF and self.compositionality.status != COMPOSITIONAL:
            raise ValueError("ComCDF requires a Compositional report")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "theta": self.theta,
            "wideClauseFraction": self.wide_clause_fraction,
            "tension": self.tension,
            "compositionality": self.compositionality.to_json_dict(),
            "growth": None if self.growth is None else self.growth.to_json_dict(),
        }


def wide_clause_fraction(f: CnfFormula) -> float:
    """Share of variables occurring in at least one width->=3 clause."""
    if f.variable_count == 0:
        return 0.0
    wide_vars: set[int] = set()
    for cl in f.clauses:
        if cl.width >= 3:
            wide_vars |= cl.variables()
    return len(wide_vars) / f.variable_count


def classify(
    f: CnfFormula,
    growth: GrowthFit | None = None,
    theta: float = DEFAULT_THETA,
) -> CdfClassification:
    """Classify a formula as ComCDF, SemiExpCDF, or ExpCDF."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    comp = check_compositionality(f)
    fraction = wide_clause_fraction(f)
    if comp.status == COMPOSITIONAL:
        verdict = COM_CDF
    elif fraction <= theta:
        verdict = SEMI_EXP_CDF
    else:
        verdict = EXP_CDF
    tension = (
        comp.status == NON_COMPOSITIONAL
        and growth is not None
        and growth.preferred_model == POLYNOMIAL
    )
    return CdfClassification(
        verdict=verdict,
        compositionality=comp,
        growth=growth,
        wide_clause_fraction=fraction,
        theta=theta,
        tension=tension,
    )
