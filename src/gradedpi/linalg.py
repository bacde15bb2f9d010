"""Exact sparse rational linear algebra.

Rows are kept fraction-free during elimination: each working row is a
primitive integer vector (content divided out, leading entry positive) and
updates are integer cross-multiplications followed by a gcd reduction.
Back-substitution at the end normalizes to the canonical reduced row
echelon form over Fraction. RREF is unique per row space, so pivot
selection order cannot change results, only intermediate growth; the batch
entry point feeds rows sparsest-first with lowest-index tie-break.

No floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbientMismatchError, GuardExceededError, MalformedElementError

SparseRow = tuple  # tuple[(col, Fraction), ...] sorted by col


@dataclass(frozen=True)
class GuardLimits:
    """Resource envelope for elimination; exceeding either raises."""

    max_cells: int = 8_000_000
    max_bits: int = 20_000


DEFAULT_GUARD = GuardLimits()


@dataclass(frozen=True)
class SparseMatrix:
    n_rows: int
    n_cols: int
    rows: tuple  # tuple[SparseRow, ...], len == n_rows

    def __post_init__(self):
        if len(self.rows) != self.n_rows:
            raise MalformedElementError("row count mismatch")
        for r in self.rows:
            last = -1
            for col, val in r:
                if not 0 <= col < self.n_cols:
                    raise MalformedElementError(f"column {col} out of range")
                if col <= last:
                    raise MalformedElementError("row entries must be sorted by column")
                if val == 0:
                    raise MalformedElementError("stored entries must be nonzero")
                last = col

    @staticmethod
    def from_rows(rows, n_cols: int) -> "SparseMatrix":
        packed = []
        for r in rows:
            if isinstance(r, dict):
                items = sorted(r.items())
            else:
                items = sorted(r)
            packed.append(tuple((c, Fraction(v)) for c, v in items if v != 0))
        return SparseMatrix(len(packed), n_cols, tuple(packed))

    def transpose(self) -> "SparseMatrix":
        cols = [dict() for _ in range(self.n_cols)]
        for i, r in enumerate(self.rows):
            for c, v in r:
                cols[c][i] = v
        return SparseMatrix.from_rows(cols, self.n_rows)


@dataclass(frozen=True)
class Subspace:
    """Row space in canonical RREF presentation."""

    ambient_dim: int
    rows: tuple  # tuple[SparseRow, ...] in RREF, pivots strictly increasing
    pivots: tuple  # tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def add_scaled(out: dict, items, c=1) -> dict:
    """Add c * items into the sparse map out, in place, and return out.

    items is a dict or (key, value) pairs with nonzero values; a zero c
    adds nothing. A key whose sum cancels is dropped; a new key takes
    c * value as it is, with no zero to add it to.
    """
    if not c:
        return out
    if isinstance(items, dict):
        items = items.items()
    scaled = c != 1
    for k, v in items:
        if scaled:
            v = c * v
        old = out.get(k)
        if old is not None:
            v += old
            if not v:
                del out[k]
                continue
        out[k] = v
    return out


def _bits_exceeded(bits: int, guard: GuardLimits) -> GuardExceededError:
    return GuardExceededError(
        f"a coefficient exceeded {guard.max_bits} bits during elimination", bits=bits
    )


def _primitive(items, guard: GuardLimits) -> tuple:
    """Divide sorted nonzero (col, int) pairs by their content, leading
    entry positive. The largest entry must fit the guard's max_bits."""
    if not items:
        return ()
    vals = [v for _, v in items]
    bits = max(max(vals), -min(vals)).bit_length()
    if bits > guard.max_bits:
        raise _bits_exceeded(bits, guard)
    g = math.gcd(*vals)
    if vals[0] < 0:
        g = -g
    return tuple(items) if g == 1 else tuple([(c, v // g) for c, v in items])


def _primitive_int_row(row, guard: GuardLimits) -> tuple:
    """Convert a sparse Fraction row to a primitive integer row, sign-normalized."""
    items = sorted(row.items()) if isinstance(row, dict) else sorted(row)
    items = [(c, Fraction(v)) for c, v in items if v != 0]
    denom_lcm = math.lcm(*(v.denominator for _, v in items))
    return _primitive([(c, int(v * denom_lcm)) for c, v in items], guard)


def _int_row_reduce(row, pivot_row, guard: GuardLimits) -> tuple:
    """Eliminate row's leading entry against pivot_row (same leading column)."""
    a, b = row[0][1], pivot_row[0][1]
    merged = add_scaled({c: b * v for c, v in row}, pivot_row, -a)
    return _primitive(sorted(merged.items()), guard)


class RowReducer:
    """Incremental echelon builder over primitive integer rows.

    add() forward-reduces one row against the current pivots and stores it
    if independent; finish() back-substitutes to the canonical RREF.
    """

    def __init__(self, n_cols: int, guard: GuardLimits = DEFAULT_GUARD):
        self.n_cols = n_cols
        self.guard = guard
        self.pivot_rows = {}  # leading col -> primitive int row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add(self, row) -> bool:
        """Insert one row (dict or (col, value) pairs); True if rank grew."""
        r = _primitive_int_row(row, self.guard)
        while r:
            lead = r[0][0]
            if lead >= self.n_cols:
                raise AmbientMismatchError(f"column {lead} outside ambient {self.n_cols}")
            piv = self.pivot_rows.get(lead)
            if piv is None:
                self.pivot_rows[lead] = r
                return True
            r = _int_row_reduce(r, piv, self.guard)
        return False

    def finish(self) -> Subspace:
        pivots = sorted(self.pivot_rows)
        reduced = {}
        for p in reversed(pivots):
            row = {c: Fraction(v) for c, v in self.pivot_rows[p]}
            lead = row[p]
            row = {c: v / lead for c, v in row.items()}
            for q in list(row):
                if q != p and q in reduced:
                    add_scaled(row, reduced[q], -row[q])
            # a Fraction's size is that of its larger part
            bits = max(max(abs(v.numerator), v.denominator) for v in row.values()).bit_length()
            if bits > self.guard.max_bits:
                raise _bits_exceeded(bits, self.guard)
            reduced[p] = row
        rows = tuple(tuple(sorted(reduced[p].items())) for p in pivots)
        return Subspace(self.n_cols, rows, tuple(pivots))


def row_space(rows, n_cols: int, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    """Canonical RREF of the span of a row iterable (streamed, arrival order)."""
    red = RowReducer(n_cols, guard)
    for r in rows:
        red.add(r)
    return red.finish()


def rref(m: SparseMatrix, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    """Canonical RREF of a matrix; sparsest rows are fed first."""
    cells = m.n_rows * m.n_cols
    if cells > guard.max_cells:
        raise GuardExceededError(
            f"matrix has {cells} cells, guard allows {guard.max_cells}", cells=cells
        )
    order = sorted(range(m.n_rows), key=lambda i: (len(m.rows[i]), i))
    return row_space((m.rows[i] for i in order), m.n_cols, guard)


def kernel_basis(m: SparseMatrix, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    """Canonical RREF basis of the right kernel {v : m v = 0}."""
    space = m if isinstance(m, Subspace) else rref(m, guard)
    pivots = list(space.pivots)
    pivot_set = set(pivots)
    gens = {f: {f: Fraction(1)} for f in range(space.ambient_dim) if f not in pivot_set}
    # an RREF row is zero on every other pivot column: its entries off its
    # own pivot all sit in free columns
    for prow, p in zip(space.rows, pivots):
        for f, entry in prow:
            if f != p:
                gens[f][p] = -entry
    return row_space(gens.values(), space.ambient_dim, guard)


def reduce_vector(vec, space: Subspace):
    """Residue of a vector after elimination against an RREF basis."""
    v = dict(vec.items()) if isinstance(vec, dict) else {c: Fraction(x) for c, x in vec}
    v = {c: Fraction(x) for c, x in v.items() if x != 0}
    for row, p in zip(space.rows, space.pivots):
        coef = v.get(p)
        if coef:
            add_scaled(v, row, -coef)
    return v


def contains(space: Subspace, vec) -> bool:
    return not reduce_vector(vec, space)


def subspace_sum(a: Subspace, b: Subspace, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("subspace sum needs equal ambient dimensions")
    return row_space(a.rows + b.rows, a.ambient_dim, guard)


EQUAL = "equal"
A_INSIDE_B = "a_strictly_inside_b"
B_INSIDE_A = "b_strictly_inside_a"
INCOMPARABLE = "incomparable"


def subspace_cmp(a: Subspace, b: Subspace) -> str:
    """Compare two subspaces of one ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("cannot compare subspaces of different ambients")
    if a.rows == b.rows:
        return EQUAL
    a_in_b = all(contains(b, dict(r)) for r in a.rows)
    b_in_a = all(contains(a, dict(r)) for r in b.rows)
    if a_in_b and b_in_a:
        return EQUAL
    if a_in_b:
        return A_INSIDE_B
    if b_in_a:
        return B_INSIDE_A
    return INCOMPARABLE


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, (), ())

