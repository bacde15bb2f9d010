"""Finite abelian groups as products of cyclic factors.

Group elements are plain tuples of residues, one per cyclic factor,
componentwise reduced. The trivial group is the empty product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MalformedElementError

GroupElement = tuple  # tuple[int, ...], componentwise reduced


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nr}."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any((not isinstance(n, int)) or n < 1 for n in self.orders):
            raise MalformedElementError(f"cyclic orders must be positive ints: {self.orders!r}")

    def order(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    def is_trivial(self) -> bool:
        return self.order() == 1

    def identity(self) -> GroupElement:
        return (0,) * len(self.orders)

    def validate(self, a) -> GroupElement:
        a = tuple(a)
        if len(a) != len(self.orders):
            raise MalformedElementError(f"element {a!r} does not fit group {self.orders!r}")
        for r, n in zip(a, self.orders):
            if not isinstance(r, int) or not 0 <= r < n:
                raise MalformedElementError(f"residue {r!r} must lie in 0..{n - 1} (modulo {n})")
        return a

    def op(self, a, b) -> GroupElement:
        a = self.validate(a)
        b = self.validate(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def inverse(self, a) -> GroupElement:
        a = self.validate(a)
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sum(self, elements) -> GroupElement:
        out = self.identity()
        for e in elements:
            out = self.op(out, e)
        return out

    def elements(self) -> list[GroupElement]:
        """All elements, ascending lexicographic order."""
        return list(itertools.product(*(range(n) for n in self.orders)))


TRIVIAL_GROUP = GroupSpec(())
Z2 = GroupSpec((2,))
