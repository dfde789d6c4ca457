"""Structural-complexity analysis of CNF formulas.

The package takes one formula through three views: the satisfying-assignment
image (semantics), clause-level and implication-graph inference (logic), and
an executable compositionality comparison between the two, which grounds a
three-way classification.  Graph-problem encoders and a checked
natural-deduction kit round out the toolbox; the cli module exposes all of
it as the ``cdfsat`` command.

The public names live in the submodules ``formula``, ``semantics``, ``logic``,
``analysis``, ``encoders``, ``proofs`` and ``cli``; importing the package
alone loads none of them.
"""

__version__ = "0.1.0"
