import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi import linalg
from gradedpi.errors import AmbientMismatchError, GuardExceededError
from gradedpi.linalg import (
    GuardLimits,
    RowReducer,
    Subspace,
    add_scaled,
    contains,
    kernel_basis,
    reduce_vector,
    row_space,
)

from _support import dense_kernel, dense_rows, subspace_dense


def rand_sparse_rows(rng, n_rows, n_cols, density=0.5, span=9):
    rows = []
    for _ in range(n_rows):
        r = {}
        for c in range(n_cols):
            if rng.random() < density:
                num = rng.randint(-span, span)
                den = rng.randint(1, 4)
                if num:
                    r[c] = Fraction(num, den)
        rows.append(r)
    return rows


def test_rref_is_canonical_rref():
    """Every pivot column must be zero in all other rows."""
    rows = [
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        {1: 1, 4: 1, 5: 1},
        {2: 1, 3: 1, 5: 1},
        {3: 1, 4: 1, 5: 1},
    ]
    space = row_space(rows, 6)
    assert space.pivots == (0, 1, 2, 3)
    piv_set = set(space.pivots)
    for row, p in zip(space.rows, space.pivots):
        d = dict(row)
        assert d[p] == 1
        for q in piv_set - {p}:
            assert q not in d, f"stray pivot column {q} in row with pivot {p}"
    # this input once produced a row (2:1, 3:-1, 4:-1); the correct
    # back-substituted row is (2:1, 4:-1)
    assert space.rows[2] == ((2, Fraction(1)), (4, Fraction(-1)))
    assert dense_rows(rows, 6) == subspace_dense(space)


def test_rref_matches_dense_oracle_randomized():
    rng = random.Random(20260818)
    for trial in range(60):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 8)
        rows = rand_sparse_rows(rng, n_rows, n_cols)
        space = row_space(rows, n_cols)
        assert subspace_dense(space) == dense_rows(rows, n_cols), (trial, rows)


def test_rref_leading_ones_and_increasing_pivots():
    rng = random.Random(7)
    for _ in range(30):
        rows = rand_sparse_rows(rng, 6, 7)
        space = row_space(rows, 7)
        assert list(space.pivots) == sorted(space.pivots)
        for row, p in zip(space.rows, space.pivots):
            d = dict(row)
            assert min(d) == p
            assert d[p] == 1


def test_canonicity_under_row_operations():
    """The RREF presentation must not depend on the spanning set."""
    rng = random.Random(99)
    for _ in range(25):
        rows = rand_sparse_rows(rng, 5, 6)
        base = row_space(rows, 6)
        mixed = [dict(r) for r in rows]
        rng.shuffle(mixed)
        # invertible integer row operations
        for _ in range(10):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2, 3])
            for col, v in mixed[j].items():
                nv = mixed[i].get(col, Fraction(0)) + c * v
                if nv:
                    mixed[i][col] = nv
                else:
                    mixed[i].pop(col, None)
        again = row_space(mixed, 6)
        assert base.rows == again.rows
        assert base.pivots == again.pivots


def test_rank_nullity_exhaustive_small():
    """rank + kernel dim == n_cols for every matrix over {-1,0,1}."""
    for n_rows, n_cols in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        cells = n_rows * n_cols
        for combo in itertools.product((-1, 0, 1), repeat=cells):
            rows = []
            for i in range(n_rows):
                chunk = combo[i * n_cols : (i + 1) * n_cols]
                rows.append({c: Fraction(v) for c, v in enumerate(chunk) if v})
            space = row_space(rows, n_cols)
            ker = kernel_basis(rows, n_cols)
            assert space.dim + ker.dim == n_cols
            # kernel vectors annihilate every row
            for kv in ker.rows:
                kd = dict(kv)
                for r in rows:
                    s = sum(r.get(c, Fraction(0)) * v for c, v in kd.items())
                    assert s == 0


def test_kernel_matches_dense_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        n_rows = rng.randint(1, 7)
        n_cols = rng.randint(1, 7)
        rows = rand_sparse_rows(rng, n_rows, n_cols)
        ker = kernel_basis(rows, n_cols)
        oracle = dense_kernel(rows, n_cols)
        assert ker.dim == len(oracle)
        assert subspace_dense(ker) == dense_rows(oracle, n_cols)


def _negated(row):
    return {c: -v for c, v in row.items()}


_streams = st.integers(1, 7).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(
            st.dictionaries(
                st.integers(0, n_cols - 1),
                st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)),
                max_size=n_cols,
            ),
            max_size=8,
        ),
    )
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_streams, st.data())
def test_kernel_of_a_row_stream_matches_dense_oracle(stream, data):
    """kernel_basis of a row stream is the kernel's canonical RREF, whatever
    the stream repeats or negates, and with zero entries, zero rows and
    Fraction entries in it; as dicts, as (col, value) pairs or lazily."""
    n_cols, rows = stream
    extra = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    fed = rows + extra + [_negated(r) for r in extra] + [{}, {0: 0}]
    order = data.draw(st.permutations(range(len(fed))))
    fed = [fed[i] for i in order]
    kernel = dense_kernel(rows, n_cols)
    want = row_space([dict(enumerate(v)) for v in kernel], n_cols)
    assert kernel_basis(fed, n_cols) == want
    assert kernel_basis((sorted(r.items()) for r in fed), n_cols) == want


def test_kernel_at_rank_zero_and_full_rank():
    for rows in ([], [{}], [{0: 0, 2: 0}]):
        ker = kernel_basis(rows, 3)
        assert ker.rows == tuple(((c, Fraction(1)),) for c in range(3))
        assert ker.pivots == (0, 1, 2)
    full = [{0: 1, 1: 2}, {1: Fraction(1, 2), 2: 1}, {2: -3}, {0: -1, 1: -2}, {2: 1}]
    ker = kernel_basis(full, 3)
    assert ker.dim == 0 and ker.rows == () and ker.ambient_dim == 3


def test_kernel_rows_are_read_off_one_elimination(monkeypatch):
    """kernel_basis builds one reducer, which stores columns in reverse
    order, and never back-substitutes through finish()."""
    reducers = []

    class Recording(RowReducer):
        def __init__(self, *args):
            super().__init__(*args)
            reducers.append(self)

        def finish(self):
            raise AssertionError("finish() called")

    monkeypatch.setattr(linalg, "RowReducer", Recording)
    # x0 + x3 = 0 and x1 - 2 x3 + x4 = 0: the stored rows end at the true
    # pivots 3 and 4, e0 + e3 and 2 e0 + e1 + e4, so 0, 1 and 2 are free
    rows = [{0: 1, 3: 1}, {1: 1, 3: -2, 4: 1}, {0: 2, 3: 2}]
    ker = kernel_basis(rows, 5)
    assert len(reducers) == 1
    assert ker.pivots == (0, 1, 2)
    assert ker.rows == (
        ((0, Fraction(1)), (3, Fraction(-1)), (4, Fraction(-2))),
        ((1, Fraction(1)), (4, Fraction(-1))),
        ((2, Fraction(1)),),
    )


def test_kernel_guard_bounds_the_kernel_before_building_it():
    """(n_cols - rank) x n_cols must fit max_cells; the message names the
    kernel it bounds, whatever the limit."""
    rows = [{0: 1, 1: 1}]  # rank 1, kernel 9 rows of 10 columns
    with pytest.raises(GuardExceededError) as exc:
        kernel_basis(rows, 10, GuardLimits(max_cells=89))
    assert str(exc.value) == "kernel: 9 rows of 10 columns (90 cells) exceeds the guard of 89 cells"
    assert exc.value.cells == 90
    with pytest.raises(GuardExceededError, match="kernel: 9 rows of 10 columns"):
        kernel_basis(rows, 10, GuardLimits(max_cells=50))
    assert kernel_basis(rows, 10, GuardLimits(max_cells=90)).dim == 9


def test_kernel_ambient_mismatch():
    with pytest.raises(AmbientMismatchError, match="column 5 outside ambient 3"):
        kernel_basis([{0: 1}, {5: 1}], 3)
    with pytest.raises(AmbientMismatchError, match="column 3 outside ambient 3"):
        kernel_basis([[(1, 2), (3, 1)]], 3)
    assert kernel_basis([{5: 0}], 3).dim == 3


def test_reduce_vector_and_contains():
    space = row_space([{0: 1, 2: 3}, {1: 2, 2: -1}], 3)
    assert contains(space, {0: 2, 2: 6})
    assert contains(space, {0: 1, 1: 2, 2: 2})
    assert not contains(space, {2: 1})
    res = reduce_vector({0: 1, 1: 1}, space)
    assert res and all(v != 0 for v in res.values())
    assert reduce_vector({}, space) == {}


def test_zero_and_empty_inputs():
    assert row_space([], 5).dim == 0
    assert row_space([{}, {0: 0}], 5).dim == 0
    assert row_space([], 4).rows == ()
    full = kernel_basis([{}], 3)
    assert full.dim == 3


def test_primitive_rows_from_fraction_input():
    space = row_space([{0: Fraction(2, 3), 1: Fraction(-4, 3)}], 2)
    assert space.rows == (((0, Fraction(1)), (1, Fraction(-2))),)


def test_reducer_incremental_rank():
    red = RowReducer(4)
    assert red.add({0: 1, 1: 1})
    assert not red.add({0: 2, 1: 2})
    assert red.add({1: 1})
    assert red.rank == 2
    assert red.add([(3, Fraction(1, 2))])
    assert red.rank == 3


def test_reducer_at_full_rank_checks_rows_and_stores_nothing(monkeypatch):
    red = RowReducer(2, GuardLimits(max_bits=100))
    assert red.add({0: 1, 1: 1})
    assert red.add({1: 3})
    stored = dict(red.pivot_rows)
    space = red.finish()

    def no_elimination(*args):
        raise AssertionError("a row was eliminated at full rank")

    monkeypatch.setattr(linalg, "_clear", no_elimination)
    for row in ({0: 3, 1: -7}, {1: Fraction(1, 2)}, [(0, 5)], {}):
        assert not red.add(row)
    with pytest.raises(GuardExceededError) as exc:
        red.add({0: 2**3000 + 1})
    assert exc.value.bits == 3001
    with pytest.raises(AmbientMismatchError):
        red.add({5: 1})
    assert red.rank == 2 and red.pivot_rows == stored
    assert red.finish() == space == row_space([{0: 1}, {1: 1}], 2)


def test_ambient_mismatch_in_reducer():
    red = RowReducer(3)
    with pytest.raises(AmbientMismatchError):
        red.add({5: 1})


def test_guard_max_cells():
    # the sixth kept row would make 6 x 10 cells
    with pytest.raises(GuardExceededError, match="6 rows of 10 columns") as exc:
        row_space([{i: 1} for i in range(10)], 10, GuardLimits(max_cells=50, max_bits=20000))
    assert exc.value.cells == 60


def test_guard_max_bits():
    # repeated elimination against huge coefficients forces bit growth
    big = 10**40
    rows = [{0: 1, 1: big, 2: 1}, {0: 1, 1: 1, 2: big}, {1: 1, 2: big * big}]
    with pytest.raises(GuardExceededError):
        row_space(rows, 3, GuardLimits(max_cells=8_000_000, max_bits=64))


def test_guard_max_bits_bounds_input_rows():
    red = RowReducer(2, GuardLimits(max_bits=100))
    with pytest.raises(GuardExceededError) as exc:
        red.add({0: 2**3000 + 1, 1: 3})
    assert exc.value.bits == 3001
    assert red.rank == 0


def test_guard_max_bits_bounds_back_substitution():
    # both forward rows fit in 61 bits; clearing column 1 from the first row
    # during back-substitution makes a 120-bit numerator
    def reducer(max_bits):
        red = RowReducer(3, GuardLimits(max_bits=max_bits))
        assert red.add({0: 1, 1: 2**60 + 1, 2: 1})
        assert red.add({1: 2**60 + 3, 2: 2**60 - 1})
        return red

    with pytest.raises(GuardExceededError, match="exceeded 100 bits during elimination") as exc:
        reducer(100).finish()
    assert exc.value.bits == 120
    assert reducer(120).finish().dim == 2


def test_guard_trip_on_a_stored_row_leaves_the_reducer_unchanged():
    red = RowReducer(3, GuardLimits(max_bits=100))
    assert red.add({0: 1, 1: 2**60 + 1, 2: 1})
    stored = dict(red.pivot_rows)
    with pytest.raises(GuardExceededError):
        red.add({1: 2**60 + 3, 2: 2**60 - 1})
    assert red.pivot_rows == stored
    assert red.add({1: 1})
    assert red.finish() == row_space([{0: 1, 2: 1}, {1: 1}], 3)


def test_reducer_clears_int_rows_as_dicts_and_stores_them_primitive():
    """An integral row is cleared on a copy of the caller's dict, and only a
    row that raises the rank is stored, primitive. max_bits bounds the row as
    given, before its content is divided out."""
    red = RowReducer(3, GuardLimits(max_bits=5))
    first = {0: -8, 1: -12}
    assert red.add(first)
    assert red.pivot_rows == {0: ((0, 2), (1, 3))}
    stored = dict(red.pivot_rows)
    # 33 needs 6 bits; 64 needs 7 although the row's primitive form is (2, 3)
    for row, bits in (({0: 33, 1: 1}, 6), ({0: 64, 1: 96}, 7)):
        with pytest.raises(GuardExceededError) as exc:
            red.add(row)
        assert exc.value.bits == bits
        assert red.pivot_rows == stored
    dependent = {0: 16, 1: 24}
    assert not red.add(dependent)
    assert red.pivot_rows == stored
    assert red.add({0: 4, 1: 6, 2: 10})
    assert red.pivot_rows == {0: ((0, 2), (1, 3)), 2: ((2, 1),)}
    primitive = {0: 2, 1: 3, 2: 5}
    assert not red.add(primitive)
    assert first == {0: -8, 1: -12} and dependent == {0: 16, 1: 24}
    assert primitive == {0: 2, 1: 3, 2: 5}


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_sparse = st.dictionaries(st.integers(0, 7), _fractions.filter(bool), max_size=8)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    out=_sparse,
    items=_sparse,
    c=st.one_of(st.just(1), _fractions),
    as_pairs=st.booleans(),
)
def test_add_scaled_matches_dense_accumulation(out, items, c, as_pairs):
    dense = [out.get(k, 0) + c * items.get(k, 0) for k in range(8)]
    got = add_scaled(out, list(items.items()) if as_pairs else items, c)
    assert got is out
    assert got == {k: v for k, v in enumerate(dense) if v}


_matrices = st.integers(1, 6).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(st.lists(_fractions, min_size=n_cols, max_size=n_cols), min_size=1, max_size=6),
    )
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_matrices)
def test_sparse_rref_and_kernel_match_dense_oracle(matrix):
    n_cols, dense = matrix
    rows = [dict(enumerate(r)) for r in dense]
    space = row_space(rows, n_cols)
    assert subspace_dense(space) == dense_rows(dense, n_cols)
    kernel = dense_kernel(dense, n_cols)
    assert subspace_dense(kernel_basis(rows, n_cols)) == dense_rows(kernel, n_cols)


_entries = st.one_of(st.integers(-4, 4), _fractions).filter(bool)
_row_sets = st.integers(1, 7).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(st.dictionaries(st.integers(0, n_cols - 1), _entries, max_size=4), max_size=9),
    )
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_row_sets, st.data())
def test_reducer_keeps_rows_fully_reduced(row_set, data):
    n_cols, rows = row_set
    red = RowReducer(n_cols)
    for r in rows:
        red.add(r)
        for lead, stored in red.pivot_rows.items():
            cols = [c for c, _ in stored]
            vals = [v for _, v in stored]
            assert cols == sorted(cols) and cols[0] == lead
            assert all(type(v) is int for v in vals) and vals[0] > 0
            assert math.gcd(*vals) == 1
            assert not set(cols[1:]) & set(red.pivot_rows)
    space = red.finish()
    assert subspace_dense(space) == dense_rows(rows, n_cols)
    order = data.draw(st.permutations(range(len(rows))))
    assert row_space([rows[i] for i in order], n_cols) == space


def test_reducer_guard_bounds_kept_rows():
    # dependent rows cost nothing; the third kept row would make 3 x 4 cells
    red = RowReducer(4, GuardLimits(max_cells=8))
    for r in ({0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}, {0: 3, 1: 5}, {0: 1}):
        red.add(r)
    assert red.rank == 2
    with pytest.raises(GuardExceededError, match="guard of 8 cells") as exc:
        red.add({2: 1})
    assert exc.value.cells == 12
    assert red.rank == 2


def test_subspace_is_hashable_value_object():
    a = row_space([{0: 1, 1: 2}], 2)
    b = row_space([{0: 2, 1: 4}], 2)
    assert a == b
    assert hash(a) == hash(b)
    assert isinstance(a, Subspace)
