"""Exhaustive verifier for the elusiveness of nontrivial monotone weakly
symmetric boolean functions of 14 variables.

The campaign splits into a group-theoretic part (cyclic / Oliver-witness /
Sylow-style classification of the six minimal transitive groups of degree
14) and a combinatorial part (a constraint search over orbit-type
assignments for the one group the classification cannot handle), backed by
an exact decision-tree-depth oracle.
"""

__version__ = "0.1.0"


class InputError(Exception):
    """Input the verifier cannot use: data that fails a check, or a group
    or case count past a cap.  The CLI reports every such error as exit 2;
    each subclass keeps its own base too."""
