"""Exact sparse rational linear algebra.

Elimination is incremental Gauss-Jordan over primitive integer rows (content
divided out, leading entry positive). Each stored row starts at its pivot
and is zero on every other pivot column. An incoming row clears the pivot
columns it meets in one pass of fraction-free integer updates, as a plain
dict. Only a row that raises the rank becomes a sorted primitive tuple;
its new pivot column is then cleared from the rows already stored, so they
stay fully reduced. finish() only divides each row by its leading entry to
give the canonical reduced row echelon form over Fraction. RREF is unique
per row space, so the order rows arrive in cannot change results, only
intermediate growth. kernel_basis runs the same elimination on the columns
in reverse order, and reads the kernel's RREF off the stored rows with no
second elimination.

No floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbientMismatchError, GuardExceededError


@dataclass(frozen=True)
class GuardLimits:
    """Resource envelope for elimination; exceeding either raises."""

    max_cells: int = 8_000_000
    max_bits: int = 20_000


DEFAULT_GUARD = GuardLimits()


@dataclass(frozen=True)
class Subspace:
    """Row space in canonical RREF presentation."""

    ambient_dim: int
    rows: tuple  # sorted (col, Fraction) tuples in RREF, pivots strictly increasing
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


def integral(c):
    """A Fraction as an int when it is integral, so arithmetic on it
    multiplies ints."""
    return c.numerator if c.denominator == 1 else c


def _content(vals, guard: GuardLimits) -> int:
    """The gcd of nonzero ints, at least one, once the largest fits the
    guard's max_bits."""
    bits = max(max(vals), -min(vals)).bit_length()
    if bits > guard.max_bits:
        raise GuardExceededError(
            f"a coefficient exceeded {guard.max_bits} bits during elimination", bits=bits
        )
    return math.gcd(*vals)


def _primitive(items, guard: GuardLimits) -> tuple:
    """Divide sorted nonzero (col, int) pairs, at least one, by their
    content, leading entry positive."""
    g = _content([v for _, v in items], guard)
    if items[0][1] < 0:
        g = -g
    return tuple(items) if g == 1 else tuple([(c, v // g) for c, v in items])


def _int_row(acc: dict, guard: GuardLimits) -> dict:
    """A sparse row of nonzero values as an integer row with no content; an
    integral row of content 1 is returned as it is. A rational row is scaled
    by its denominators' lcm first, and the integer row is bounded before
    its content is divided out."""
    if not all(type(v) is int for v in acc.values()):
        # scale by the denominators' lcm without building a Fraction per entry
        acc = {c: v if isinstance(v, (int, Fraction)) else Fraction(v) for c, v in acc.items()}
        denom_lcm = math.lcm(*(v.denominator for v in acc.values()))
        acc = {c: v.numerator * (denom_lcm // v.denominator) for c, v in acc.items()}
    g = _content(acc.values(), guard)
    return acc if g == 1 else {c: v // g for c, v in acc.items()}


def cells_guard(n_rows: int, n_cols: int, guard: GuardLimits, what: str):
    """Bound rows x columns by the guard's max_cells, before the work."""
    cells = n_rows * n_cols
    if cells > guard.max_cells:
        raise GuardExceededError(
            f"{what}: {n_rows} rows of {n_cols} columns ({cells} cells) "
            f"exceeds the guard of {guard.max_cells} cells",
            cells=cells,
        )


def _clear(row: dict, col: int, pivot_row: tuple) -> None:
    """Cancel row's entry at col, in place, with pivot_row (leading at col):
    row <- (a/g) row - (b/g) pivot_row, a and b the two entries at col."""
    a, b = pivot_row[0][1], row[col]
    if a != 1:
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for c in row:
                row[c] *= a
    add_scaled(row, pivot_row, -b)


class RowReducer:
    """Incremental Gauss-Jordan over primitive integer rows.

    pivot_rows maps each pivot column to its stored row, a sorted tuple of
    (col, int) pairs that starts at that column and is zero on every other
    pivot column. add() keeps that invariant; finish() gives the canonical
    RREF. A row is stored only while (rank + 1) x n_cols stays within the
    guard's max_cells, and every input or updated row within its max_bits.
    At full rank add() still checks each row and stores nothing.
    """

    def __init__(self, n_cols: int, guard: GuardLimits = DEFAULT_GUARD):
        self.n_cols = n_cols
        self.guard = guard
        self.pivot_rows = {}  # pivot col -> primitive int row
        self._holders = {}  # non-pivot col -> pivots whose stored row uses it

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add(self, row) -> bool:
        """Insert one row (dict or (col, value) pairs); True if rank grew.

        The row is cleared as a plain dict; only a row that survives is
        made a sorted primitive tuple.
        """
        acc = {c: v for c, v in (row.items() if isinstance(row, dict) else row) if v}
        if not acc:
            return False
        acc = _int_row(acc, self.guard)
        last = max(acc)
        if last >= self.n_cols:
            raise AmbientMismatchError(f"column {last} outside ambient {self.n_cols}")
        pivots = self.pivot_rows
        if len(pivots) == self.n_cols:
            return False  # full rank: every row lies in the span
        # clearing one pivot column touches no other pivot column
        for p in sorted(acc.keys() & pivots.keys()):
            _clear(acc, p, pivots[p])
        if not acc:
            return False
        r = _primitive(sorted(acc.items()), self.guard)
        cells_guard(len(pivots) + 1, self.n_cols, self.guard, "elimination, kept")
        lead = r[0][0]
        holders = self._holders
        # clear the new pivot column from the stored rows; every update is
        # made before any is stored, so a guard trip leaves the state as it was
        updates = []
        for q in holders.get(lead, ()):
            acc = dict(pivots[q])
            _clear(acc, lead, r)
            updates.append((q, acc, _primitive(sorted(acc.items()), self.guard)))
        holders.pop(lead, None)
        for q, acc, updated in updates:
            pivots[q] = updated
            for c, _ in r[1:]:
                if c in acc:
                    holders.setdefault(c, set()).add(q)
                else:
                    holders[c].discard(q)
        pivots[lead] = r
        for c, _ in r[1:]:
            holders.setdefault(c, set()).add(lead)
        return True

    def finish(self) -> Subspace:
        """The canonical RREF: each stored row divided by its leading entry.
        Needs no max_bits check: both parts of v / lead in lowest terms are
        at most the stored entries, which add() has already bounded."""
        pivots = sorted(self.pivot_rows)
        rows = []
        for p in pivots:
            stored = self.pivot_rows[p]
            lead = stored[0][1]
            rows.append(tuple((c, Fraction(v, lead)) for c, v in stored))
        return Subspace(self.n_cols, tuple(rows), tuple(pivots))


def row_space(rows, n_cols: int, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    """Canonical RREF of the span of a row iterable (streamed, arrival order)."""
    red = RowReducer(n_cols, guard)
    for r in rows:
        red.add(r)
    return red.finish()


def kernel_basis(rows, n_cols: int, guard: GuardLimits = DEFAULT_GUARD) -> Subspace:
    """Canonical RREF basis of the right kernel {v : r . v = 0 for every row r}
    of a row iterable (dicts or (col, value) pairs), from one elimination.

    Each row is fed with column c renamed n_cols - 1 - c, so each stored row
    ends, in true columns, at its pivot q and is zero on every other pivot.
    For each free column f the kernel row e_f - sum_q (row_q[f] / lead_q) e_q
    then starts at f and is zero on every other free column: these rows are
    the kernel's canonical RREF as they stand. Before the first is built,
    (n_cols - rank) x n_cols must fit the guard's max_cells, as kept rows do
    in elimination. Kernel entries need no max_bits check: both parts of
    row_q[f] / lead_q in lowest terms are at most the stored entries, which
    the reducer has already bounded.
    """
    top = n_cols - 1
    red = RowReducer(n_cols, guard)
    for row in rows:
        items = row.items() if isinstance(row, dict) else row
        mirrored = {top - c: v for c, v in items if v}
        if mirrored and min(mirrored) < 0:
            raise AmbientMismatchError(f"column {top - min(mirrored)} outside ambient {n_cols}")
        red.add(mirrored)
    stored = red.pivot_rows
    cells_guard(n_cols - len(stored), n_cols, guard, "kernel")
    kernel = {f: [(f, Fraction(1))] for f in range(n_cols) if top - f not in stored}
    # true pivots ascending, so each kernel row is built sorted; each stored
    # row is dropped once it is read
    for m in sorted(stored, reverse=True):
        row = stored.pop(m)
        q, lead = top - m, row[0][1]
        for c, v in row[1:]:
            kernel[top - c].append((q, Fraction(-v, lead)))
    return Subspace(n_cols, tuple(map(tuple, kernel.values())), tuple(kernel))


def reduce_vector(vec: dict, space: Subspace) -> dict:
    """Residue of a sparse vector after elimination against an RREF basis."""
    v = {c: Fraction(x) for c, x in vec.items() if x}
    for row, p in zip(space.rows, space.pivots):
        coef = v.get(p)
        if coef:
            add_scaled(v, row, -coef)
    return v


def contains(space: Subspace, vec) -> bool:
    return not reduce_vector(vec, space)
