"""Exact computation with group-graded PI-algebras.

Multilinear graded-identity components by two independent routes
(evaluation kernels and consequence spans), T-ideal products and
factoring verdicts for block-triangular matrix algebras, a normal-form
engine for exterior-type relatively free algebras, and the generic
matrix model tying them together. All arithmetic is exact rational.

Each name is imported from its own module (gradedpi.algebras,
gradedpi.spaces, ...); the package root holds only the grading groups.
"""

from .groups import TRIVIAL_GROUP, Z2, GroupSpec

__version__ = "0.1.0"
