import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from gradedpi import Z2, TRIVIAL_GROUP, GroupSpec
from gradedpi.algebras import (
    CHECK_ASSOC_EXHAUSTIVE_DIM,
    CHECK_PAIR_EXHAUSTIVE_DIM,
    BlockShape,
    GrassmannSpec,
    StructureConstantAlgebra,
    algebra_from_descriptor,
    build_field,
    build_grassmann,
    build_matrix_algebra,
    build_matrix_over,
    check_indices,
    descriptor_group,
    evaluate,
    exterior_spec,
    fast_rows_kind,
    guard_construction,
    homogeneous_indices,
    is_g_regular,
    normalize_descriptor,
    parse_inline_descriptor,
    with_generators,
)
from gradedpi.errors import (
    GradedEvaluationError,
    GuardExceededError,
    MalformedElementError,
    ParseError,
    UnsupportedFeatureError,
)
from gradedpi.freealg import parse_poly, sort_sign
from gradedpi.linalg import GuardLimits
from gradedpi.spaces import identities_by_evaluation

from _support import reference_self_check


ALL_KINDS = [
    GrassmannSpec(3, "natural"),
    GrassmannSpec(4, "infty"),
    GrassmannSpec(4, "kstar", k=2),
    GrassmannSpec(3, "trivial"),
    GrassmannSpec(3, "explicit", explicit=(0, 1, 0)),
]


def vec_eq(u, v):
    return {i: c for i, c in u.items() if c} == {i: c for i, c in v.items() if c}


def test_grassmann_generator_relations():
    E = build_grassmann(GrassmannSpec(4, "natural"))
    gens = [E.index[(i,)] for i in range(1, 5)]
    for gi in gens:
        assert E.product_basis(gi, gi) == {}
        for gj in gens:
            ab = E.product_basis(gi, gj)
            ba = E.product_basis(gj, gi)
            neg = {k: -c for k, c in ba.items()}
            assert vec_eq(ab, neg) or gi == gj


def test_grassmann_associativity_exhaustive():
    """(b_i b_j) b_k == b_i (b_j b_k) over every basis triple of E_3."""
    E = build_grassmann(GrassmannSpec(3, "natural"))
    for i, j, k in itertools.product(range(E.dim), repeat=3):
        left = E.mul_vectors(E.product_basis(i, j), E.basis_vector(k))
        right = E.mul_vectors(E.basis_vector(i), E.product_basis(j, k))
        assert vec_eq(left, right), (i, j, k)


def test_unit_law_all_kinds():
    for gspec in ALL_KINDS:
        A = build_grassmann(gspec)
        one = A.unit
        for i in range(A.dim):
            v = A.basis_vector(i)
            assert vec_eq(A.mul_vectors(one, v), v)
            assert vec_eq(A.mul_vectors(v, one), v)


def test_grading_compatibility_all_kinds():
    """deg(b_i b_j) == deg(b_i) + deg(b_j) wherever the product is nonzero."""
    for gspec in ALL_KINDS:
        A = build_grassmann(gspec)
        g = A.group
        for i in range(A.dim):
            for j in range(A.dim):
                p = A.product_basis(i, j)
                if not p:
                    continue
                want = g.op(A.degrees[i], A.degrees[j])
                for k in p:
                    assert A.degrees[k] == want


def test_grassmann_grading_kinds():
    nat = build_grassmann(GrassmannSpec(3, "natural"))
    assert [nat.degrees[nat.index[(i,)]] for i in (1, 2, 3)] == [(1,), (1,), (1,)]
    inf = build_grassmann(GrassmannSpec(4, "infty"))
    assert [inf.degrees[inf.index[(i,)]] for i in (1, 2, 3, 4)] == [(1,), (0,), (1,), (0,)]
    ks = build_grassmann(GrassmannSpec(4, "kstar", k=2))
    assert [ks.degrees[ks.index[(i,)]] for i in (1, 2, 3, 4)] == [(1,), (1,), (0,), (0,)]
    triv = build_grassmann(GrassmannSpec(2, "trivial"))
    assert triv.group == TRIVIAL_GROUP
    assert set(triv.degrees) == {()}
    exp = build_grassmann(GrassmannSpec(3, "explicit", explicit=(0, 1, 0)))
    assert [exp.degrees[exp.index[(i,)]] for i in (1, 2, 3)] == [(0,), (1,), (0,)]


def test_grassmann_word_count():
    E = build_grassmann(GrassmannSpec(5, "natural"))
    assert E.dim == 32
    assert E.labels[0] == ()
    # top product of all generators is nonzero, one more factor kills it
    v = E.unit
    for i in range(1, 6):
        v = E.mul_vectors(v, E.basis_vector(E.index[(i,)]))
    assert vec_eq(v, E.basis_vector(E.index[(1, 2, 3, 4, 5)]))
    assert E.mul_vectors(v, E.basis_vector(E.index[(3,)])) == {}


def test_bad_grassmann_specs():
    with pytest.raises(UnsupportedFeatureError):
        GrassmannSpec(3, "degk", k=1)
    with pytest.raises(MalformedElementError):
        GrassmannSpec(3, "kstar")
    with pytest.raises(MalformedElementError):
        GrassmannSpec(3, "explicit", explicit=(0, 1))
    with pytest.raises(MalformedElementError):
        GrassmannSpec(-1, "natural")


def test_matrix_units_exhaustive():
    """e_ij e_kl == delta_jk e_il on full 3x3 matrices."""
    A = build_matrix_algebra(((0,), (1,), (0,)), Z2)
    n = 3
    idx = {(i, j): A.index[f"e_{i}_{j}"] for i in range(1, n + 1) for j in range(1, n + 1)}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            p = A.product_basis(a, b)
            if j == k:
                assert p == {idx[(i, l)]: Fraction(1)}
            else:
                assert p == {}


def test_elementary_grading_degrees():
    A = build_matrix_algebra(((0,), (1,)), Z2)
    assert A.degrees[A.index["e_1_1"]] == (0,)
    assert A.degrees[A.index["e_2_2"]] == (0,)
    assert A.degrees[A.index["e_1_2"]] == (1,)
    assert A.degrees[A.index["e_2_1"]] == (1,)
    g3 = GroupSpec((3,))
    B = build_matrix_algebra(((0,), (1,), (2,)), g3)
    assert B.degrees[B.index["e_1_3"]] == (2,)
    assert B.degrees[B.index["e_3_1"]] == (1,)


def test_block_triangular_shape():
    A = build_matrix_algebra(((0,), (1,)), Z2, BlockShape((1, 1)))
    assert set(A.labels) == {"e_1_1", "e_1_2", "e_2_2"}
    # the missing corner never appears in products
    for i in range(A.dim):
        for j in range(A.dim):
            for k in A.product_basis(i, j):
                assert A.labels[k] in {"e_1_1", "e_1_2", "e_2_2"}
    B = build_matrix_algebra(((0,), (1,), (0,)), Z2, BlockShape((2, 1)))
    assert "e_3_1" not in B.index and "e_1_3" in B.index
    assert B.dim == 7


def test_matrix_over_is_blockwise_product():
    E = build_grassmann(GrassmannSpec(2, "natural"))
    M = build_matrix_over(E, BlockShape((1, 1)))
    assert M.dim == 3 * E.dim
    rng = random.Random(3)

    def rand_el():
        # position -> E-vector
        return {
            (i, j): {t: Fraction(rng.randint(-3, 3)) for t in range(E.dim)}
            for (i, j) in [(1, 1), (1, 2), (2, 2)]
        }

    def to_vec(m):
        out = {}
        for (i, j), ev in m.items():
            for t, c in ev.items():
                if c:
                    out[M.index[(i, j, E.labels[t])]] = c
        return out

    def matmul(a, b):
        out = {}
        for (i, j), u in a.items():
            for (k, l), v in b.items():
                if j != k or not BlockShape((1, 1)).allowed(i, l):
                    continue
                prod = E.mul_vectors(u, v)
                acc = out.setdefault((i, l), {})
                for t, c in prod.items():
                    acc[t] = acc.get(t, Fraction(0)) + c
        return out

    for _ in range(8):
        a, b = rand_el(), rand_el()
        lhs = M.mul_vectors(to_vec(a), to_vec(b))
        rhs = to_vec(matmul(a, b))
        assert vec_eq(lhs, rhs)
    one = M.unit
    v = to_vec(rand_el())
    assert vec_eq(M.mul_vectors(one, v), v)
    assert vec_eq(M.mul_vectors(v, one), v)


def test_matrix_over_degrees():
    """Positions carry no degree of their own, only the entry does."""
    E = build_grassmann(GrassmannSpec(2, "natural"))
    M = build_matrix_over(E, BlockShape((1, 1)))
    for t, lab in enumerate(M.labels):
        _, _, e_lab = lab
        assert M.degrees[t] == E.degrees[E.index[e_lab]]


def test_build_field():
    F = build_field(TRIVIAL_GROUP)
    assert F.dim == 1
    assert F.product_basis(0, 0) == {0: Fraction(1)}
    F2 = build_field(Z2)
    assert F2.degrees == ((0,),)


def test_is_g_regular_examples():
    ok, rep = is_g_regular(((0,), (1,)), Z2)
    assert ok and rep["regular"] and rep["surjective"] and rep["equipotent"]
    assert rep["fibers"] == {"0": 1, "1": 1}
    ok, rep = is_g_regular(((0,), (0,), (1,)), Z2)
    assert not ok and rep["surjective"] and not rep["equipotent"]
    ok, rep = is_g_regular(((0,), (0,)), Z2)
    assert not ok and not rep["surjective"]
    ok, rep = is_g_regular(((0, 0), (1, 1), (0, 1), (1, 0)), GroupSpec((2, 2)))
    assert ok


def test_descriptor_round_trip():
    """A built algebra's meta is its canonical descriptor: it rebuilds the
    same algebra, and the fast-rows rule reads off it the exterior spec and
    block shape the algebra was built from, for E and one level of M(E)."""
    specs = [
        GrassmannSpec(3, "natural"),
        GrassmannSpec(3, "infty"),
        GrassmannSpec(4, "kstar", k=2),
        GrassmannSpec(3, "explicit", explicit=(0, 1, 0)),
        GrassmannSpec(2, "trivial"),
    ]
    # (algebra, what fast_rows_kind gives on its meta)
    cases = [(build_grassmann(g), (g, BlockShape((1,)))) for g in specs]
    E = build_grassmann(GrassmannSpec(2, "infty"))
    shapes = (BlockShape((1, 1)), BlockShape((2, 1)))
    over_e = [build_matrix_over(E, shape) for shape in shapes]
    cases += [(M, (exterior_spec(E.meta), shape)) for M, shape in zip(over_e, shapes)]
    cases += [
        (build_matrix_over(over_e[0], BlockShape((1,))), None),  # nested matrix_over
        (build_field(), None),
        (build_field(Z2), None),
        (build_matrix_algebra(((0,), (1,), (0,)), Z2), None),
        (build_matrix_algebra(((0,), (1,)), Z2, BlockShape((1, 1))), None),
    ]
    kinds = {A.meta["kind"] for A, _ in cases}
    assert kinds == {"field", "matrix", "block_triangular", "grassmann", "matrix_over"}
    for A, fast in cases:
        assert normalize_descriptor(A.meta) == A.meta
        B = algebra_from_descriptor(A.meta)
        assert B.dim == A.dim
        assert B.degrees == A.degrees
        assert B.labels == A.labels
        assert B.meta == A.meta
        assert fast_rows_kind(A.meta) == fast, A.meta
    # an algebra made by the constructor alone has no descriptor and takes
    # the full evaluation rows, which cut the same component as E's fast ones
    C = StructureConstantAlgebra(E.labels, E.degrees, E.group, E.product_basis, E.unit)
    assert C.meta == {} and fast_rows_kind(C.meta) is None
    sig = ((1,), (1,))
    full = identities_by_evaluation(C, sig)
    assert full.meta["method"] == "full"
    assert full.space == identities_by_evaluation(E, sig).space


def test_inline_descriptors():
    d = parse_inline_descriptor("grassmann:N=3,deg=natural")
    assert d["kind"] == "grassmann" and d["generators"] == 3
    d = parse_inline_descriptor("grassmann:N=4,deg=kstar,k=2")
    assert d["grading"] == {"deg": {"kstar": 2}}
    assert algebra_from_descriptor(d).dim == 16
    d = parse_inline_descriptor("field")
    A = algebra_from_descriptor(d)
    assert A.dim == 1
    with pytest.raises(ParseError):
        parse_inline_descriptor("nonsense:zzz")
    with pytest.raises(UnsupportedFeatureError):
        parse_inline_descriptor("grassmann:N=3,deg=degk")
    with pytest.raises(ParseError):
        parse_inline_descriptor("grassmann:N=4,deg=kstar")


@pytest.mark.parametrize(
    "text, want",
    [
        ("field", {"kind": "field", "group": []}),
        ("grassmann:deg=natural", {"kind": "grassmann", "grading": {"deg": "natural"}, "group": [2]}),
        ("grassmann:deg=infty", {"kind": "grassmann", "grading": {"deg": "infty"}, "group": [2]}),
        ("grassmann:deg=trivial", {"kind": "grassmann", "grading": {"deg": "trivial"}, "group": []}),
        (
            "grassmann:deg=kstar,k=2",
            {"kind": "grassmann", "grading": {"deg": {"kstar": 2}}, "group": [2]},
        ),
        (
            "grassmann:N=3",
            {"kind": "grassmann", "grading": {"deg": "natural"}, "group": [2], "generators": 3},
        ),
    ],
)
def test_inline_descriptor_shapes(text, want):
    assert parse_inline_descriptor(text) == want
    assert normalize_descriptor(want) == want


def test_descriptor_group_is_derived_and_checked():
    natural = {"kind": "grassmann", "generators": 2, "grading": {"deg": "natural"}}
    assert descriptor_group(natural) == Z2
    assert normalize_descriptor(natural)["group"] == [2]
    with pytest.raises(ParseError, match="states group"):
        descriptor_group(dict(natural, group=[3]))
    with pytest.raises(ParseError, match="states group"):
        descriptor_group(dict(natural, group=[]))
    # matrices over E take the group of their entries
    M = build_matrix_over(build_grassmann(GrassmannSpec(2, "infty")), BlockShape((1, 1)))
    d = M.meta
    assert "group" not in d and descriptor_group(d) == Z2
    assert descriptor_group(dict(d, group=[2])) == Z2
    with pytest.raises(ParseError, match="states group"):
        descriptor_group(dict(d, group=[]))
    assert descriptor_group({"kind": "field"}) == TRIVIAL_GROUP


def test_exterior_spec_and_truncation():
    inline = parse_inline_descriptor("grassmann:deg=kstar,k=1")
    assert exterior_spec(inline) == GrassmannSpec(0, "kstar", k=1)
    at5 = with_generators(inline, 5)
    assert at5["generators"] == 5 and "generators" not in inline
    assert exterior_spec(at5) == GrassmannSpec(5, "kstar", k=1)
    nested = {"kind": "matrix_over", "shape": [1, 1], "entries": inline}
    assert exterior_spec(nested) == GrassmannSpec(0, "kstar", k=1)
    assert with_generators(nested, 3)["entries"]["generators"] == 3
    assert algebra_from_descriptor(with_generators(nested, 3)).dim == 3 * 8
    assert exterior_spec({"kind": "field"}) is None
    with pytest.raises(ParseError):
        with_generators({"kind": "field"}, 3)


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "grassmann", "generators": "abc"},
        {"kind": "grassmann", "generators": True},
        {"kind": "grassmann", "generators": 2.0},
        {"kind": "grassmann", "group": 2},
        {"kind": "grassmann", "group": ["two"]},
        {"kind": "grassmann", "grading": "natural"},
        {"kind": "grassmann", "grading": {"deg": {"kstar": "k"}}},
        {"kind": "grassmann", "grading": {"deg": {"kstar": 1, "explicit": [1]}}},
        {"kind": "grassmann", "grading": {"deg": "kstar"}},
        {"kind": "grassmann", "generators": 2, "grading": {"deg": {"explicit": [1, "x"]}}},
        {"kind": "matrix_over", "group": [2], "shape": [1, 1]},
        {"kind": "matrix_over", "entries": {"kind": "field"}},
        {"kind": "matrix_over", "shape": "1,1", "entries": {"kind": "field"}},
        {"kind": "block_triangular", "group": [2], "grading": {"targets": [[0], [1]]}},
        {"kind": "matrix", "group": [2], "grading": {"targets": [["a"]]}},
        {"kind": "matrix", "group": [2]},
        {"kind": "nonsense"},
        [1],
    ],
)
def test_malformed_descriptors_are_parse_errors(desc):
    with pytest.raises(ParseError):
        normalize_descriptor(desc)


def test_evaluate_products_and_degrees():
    E = build_grassmann(GrassmannSpec(3, "natural"))
    e1 = E.basis_vector(E.index[(1,)])
    e2 = E.basis_vector(E.index[(2,)])
    e3 = E.basis_vector(E.index[(3,)])
    f = parse_poly("z1*z2 + z2*z1", Z2)
    assert evaluate(f, {1: e1, 2: e2}, E) == {}
    g = parse_poly("z1*z2*z3", Z2)
    out = evaluate(g, {1: e1, 2: e2, 3: e3}, E)
    assert out == {E.index[(1, 2, 3)]: Fraction(1)}
    # even slot must get an even value
    h = parse_poly("y1*z2", Z2)
    with pytest.raises(GradedEvaluationError):
        evaluate(h, {1: e1, 2: e2}, E)
    e12 = E.mul_vectors(e1, e2)
    assert evaluate(h, {1: e12, 2: e3}, E) == {E.index[(1, 2, 3)]: Fraction(1)}


def test_homogeneous_indices():
    E = build_grassmann(GrassmannSpec(3, "natural"))
    odd = homogeneous_indices(E, (1,))
    even = homogeneous_indices(E, (0,))
    assert sorted(odd + even) == list(range(E.dim))
    assert all(E.degrees[i] == (1,) for i in odd)
    assert all(E.degrees[i] == (0,) for i in even)
    assert len(odd) == 4 and len(even) == 4


def _kind_spec(kind: str, n: int) -> GrassmannSpec:
    if kind == "kstar":
        return GrassmannSpec(n, kind, k=2)
    if kind == "explicit":
        return GrassmannSpec(n, kind, explicit=tuple(i % 2 for i in range(n)))
    return GrassmannSpec(n, kind)


def _sorting_product(E, a: int, b: int) -> dict:
    """The product of two exterior monomials by concatenating and sorting."""
    word = E.labels[a] + E.labels[b]
    sign = sort_sign(word)
    return {E.index[tuple(sorted(word))]: sign} if sign else {}


@pytest.mark.parametrize("kind", ["natural", "infty", "kstar", "explicit", "trivial"])
def test_bitmask_product_matches_sorting_sign(kind):
    E = build_grassmann(_kind_spec(kind, 6))
    for a, b in itertools.product(range(E.dim), repeat=2):
        assert E.product_basis(a, b) == _sorting_product(E, a, b), (a, b)
    E = build_grassmann(_kind_spec(kind, 10))
    rng = random.Random(10)
    for _ in range(3000):
        a, b = rng.randrange(E.dim), rng.randrange(E.dim)
        assert E.product_basis(a, b) == _sorting_product(E, a, b), (a, b)
    gspec = exterior_spec(E.meta)
    assert E.degrees == tuple(gspec.monomial_degree(lab) for lab in E.labels)


def test_structure_constants_stay_integers():
    E = build_grassmann(GrassmannSpec(4, "infty"))
    for A in (
        E,
        build_matrix_over(E, BlockShape((2, 1))),
        build_matrix_algebra(((0,), (1,)), Z2),
        build_field(),
    ):
        assert all(type(c) is int for c in A.unit.values())
        assert all(type(c) is int for c in A.basis_vector(A.dim - 1).values())
        for i, j in itertools.product(range(A.dim), repeat=2):
            assert all(type(c) is int for c in A.product_basis(i, j).values())


def test_self_check_products_are_released():
    """Built algebras keep none of the products their self-checks computed:
    E_12 and M(E_12) over (1,1) hold about 3 MB, a kept memo about 34 MB."""
    tracemalloc.start()
    try:
        E = build_grassmann(GrassmannSpec(12, "infty"))
        M = build_matrix_over(E, BlockShape((1, 1)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M.meta["entries"] == E.meta
    assert held < 8_000_000


def _defective_rule(n: int, defect: str):
    """E_n (natural grading) and its product rule with one defect."""
    E = build_grassmann(GrassmannSpec(n, "natural"))
    last = E.dim - 1

    def rule(i, j):
        out = E.product_basis(i, j)
        if defect == "unit" and (i, j) == (0, last):
            return {}
        if defect == "degree" and i and j and out:
            # toggling generator 1 in the result flips its parity
            ((k, c),) = out.items()
            return {E.index[tuple(sorted(set(E.labels[k]) ^ {1}))]: c}
        if defect == "sign" and i and j and 1 in E.labels[i] + E.labels[j]:
            # (e1 e2) e3 is flipped twice, e1 (e2 e3) once
            return {k: -c for k, c in out.items()}
        return out

    return E, rule


def _defective(n: int, defect: str) -> StructureConstantAlgebra:
    """The table of E_n (natural grading) with one defect."""
    E, rule = _defective_rule(n, defect)
    return StructureConstantAlgebra(E.labels, E.degrees, E.group, rule, E.unit)


@pytest.mark.parametrize("n", [4, 9])
@pytest.mark.parametrize(
    "defect, message",
    [("unit", "unit law fails"), ("degree", "leaves its degree"), ("sign", "associativity fails")],
)
def test_self_check_rejects_defective_tables(n, defect, message):
    """E_4 is checked exhaustively, E_9 on the seeded samples."""
    dim = 2**n
    assert (dim <= CHECK_ASSOC_EXHAUSTIVE_DIM) == (dim <= CHECK_PAIR_EXHAUSTIVE_DIM) == (n == 4)
    with pytest.raises(MalformedElementError, match=message):
        _defective(n, defect)


@pytest.mark.parametrize("n", [301, 1024, 4096, 3 * 4096, 12345])
def test_check_indices_draw_as_randrange(n):
    rng = random.Random(0xA11CE)
    draws = check_indices(n)
    assert [next(draws) for _ in range(5000)] == [rng.randrange(n) for _ in range(5000)]


def _self_check_outcome(check, algebra):
    """The message check raises on algebra, or None if it passes."""
    try:
        check(algebra)
    except MalformedElementError as exc:
        return str(exc)
    return None


def test_self_check_matches_reference(monkeypatch):
    """_check and the randrange-drawn oracle agree: both pass on E_10 and
    M(E_10), and both raise the same message on every defective table,
    exhaustive (E_4), sampled (E_9), and a sampled matrix-over table whose
    entry dimension, 96, is not a power of two."""
    E10 = build_grassmann(GrassmannSpec(10, "infty"))
    for A in (E10, build_matrix_over(E10, BlockShape((1, 1)))):
        assert _self_check_outcome(StructureConstantAlgebra._check, A) is None
        assert _self_check_outcome(reference_self_check, A) is None
    tables = [
        _defective_rule(n, defect)
        for n, defect in itertools.product([4, 9], ["unit", "degree", "sign"])
    ]
    inner = build_matrix_over(build_grassmann(GrassmannSpec(5, "natural")), BlockShape((1, 1)))
    M = build_matrix_over(inner, BlockShape((2, 1)))
    assert (inner.dim, M.dim) == (96, 672)

    def sign_defect(a, b):
        # as _defective's "sign", on the exterior part of each entry label
        out = M.product_basis(a, b)
        ga, gb = M.labels[a][2][2], M.labels[b][2][2]
        if ga and gb and 1 in ga + gb:
            return {k: -c for k, c in out.items()}
        return out

    tables.append((M, sign_defect))
    monkeypatch.setattr(StructureConstantAlgebra, "_check", lambda self: None)
    unchecked = [
        StructureConstantAlgebra(A.labels, A.degrees, A.group, rule, A.unit)
        for A, rule in tables
    ]
    monkeypatch.undo()
    for A in unchecked:
        message = _self_check_outcome(StructureConstantAlgebra._check, A)
        assert message is not None
        assert message == _self_check_outcome(reference_self_check, A)


def test_guard_construction_estimates_unit_law_products():
    descriptors = [
        {"kind": "field"},
        {"kind": "matrix", "group": [2], "grading": {"targets": [[0], [1], [0]]}},
        {"kind": "block_triangular", "group": [2], "grading": {"targets": [[0], [1], [0]]},
         "shape": [2, 1]},
        {"kind": "grassmann", "generators": 4, "grading": {"deg": "infty"}},
        {"kind": "matrix_over", "shape": [2, 1],
         "entries": {"kind": "grassmann", "generators": 3}},
    ]
    for desc in descriptors:
        A = algebra_from_descriptor(desc)
        assert guard_construction(desc, GuardLimits()) == 2 * A.dim * len(A.unit), desc
    # E_14 over (1,1), the largest construction in use, stays far below the default
    e14 = {"kind": "matrix_over", "shape": [1, 1],
           "entries": {"kind": "grassmann", "generators": 14}}
    assert guard_construction(e14, GuardLimits()) == 2 * (3 * 2**14) * 2
    # read from the descriptor alone: E_40 is never enumerated
    with pytest.raises(GuardExceededError, match="exceeds the guard of 8000000 cells") as exc:
        guard_construction({"kind": "grassmann", "generators": 40}, GuardLimits())
    assert exc.value.cells == 2 * 2**40
    with pytest.raises(MalformedElementError):
        GrassmannSpec(5000, "natural")
