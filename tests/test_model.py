import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedpi import Z2, TRIVIAL_GROUP
from gradedpi.algebras import BlockShape, GrassmannSpec, build_grassmann
from gradedpi.errors import MalformedElementError, UnsupportedFeatureError
from gradedpi.freealg import NcPolynomial, left_normed_commutator, parse_poly
from gradedpi.model import (
    GenericMatrix,
    ModelConfig,
    RectangularStrip,
    decode_entry_variable,
    encode_entry_variable,
    extract_blocks,
    identity_matrix,
    independent_by_columns,
    independent_full,
    make_generator,
    model_eval,
    reassemble,
    shift_automorphism,
    zero_matrix,
)
from gradedpi.relfree import GradingMode, RelFreeElement, random_basis_word
from gradedpi.spaces import TruncatedQuotientBackend

from _support import check_accumulating_step, reference_letter_product, word_by_word_model_eval

NAT = GradingMode("natural")


def cfg_nat(sizes):
    return ModelConfig(BlockShape(sizes), Z2, NAT)


def test_entry_variable_codec_roundtrip():
    cfg = cfg_nat((1, 1))
    seen = set()
    for i, j in itertools.product((1, 2), repeat=2):
        for k in range(1, 5):
            for deg in [(0,), (1,)]:
                vid = encode_entry_variable(i, j, k, deg, cfg)
                assert vid >= 1
                assert vid not in seen
                seen.add(vid)
                assert decode_entry_variable(vid, cfg) == (i, j, k, deg)


def test_entry_variable_codec_dense():
    """Ids are consecutive from 1 with no gaps for the first generators."""
    cfg = cfg_nat((2,))
    ids = sorted(
        encode_entry_variable(i, j, k, d, cfg)
        for i, j in itertools.product((1, 2), repeat=2)
        for k in (1, 2)
        for d in [(0,), (1,)]
    )
    assert ids == list(range(1, 17))


def test_codec_rejects_bad_positions():
    cfg = cfg_nat((1, 1))
    with pytest.raises(MalformedElementError):
        encode_entry_variable(0, 1, 1, (0,), cfg)
    with pytest.raises(MalformedElementError):
        encode_entry_variable(1, 3, 1, (0,), cfg)
    with pytest.raises(MalformedElementError):
        encode_entry_variable(1, 1, 0, (0,), cfg)
    with pytest.raises(MalformedElementError):
        decode_entry_variable(0, cfg)


def test_make_generator_layout():
    cfg = cfg_nat((1, 1))
    g = make_generator(1, (0,), cfg)
    positions = set(g.entries)
    assert positions == {(1, 1), (1, 2), (2, 2)}
    # each entry is the single variable the codec assigns to its position
    ad = cfg.adapter()
    for (i, j) in positions:
        vid = encode_entry_variable(i, j, 1, (0,), cfg)
        assert g.entry(i, j) == ad.variable(vid, (0,))
    assert g.entry(2, 1) == ad.zero()


def test_structural_zero_below_blocks():
    cfg = cfg_nat((1, 1))
    ad = cfg.adapter()
    with pytest.raises(MalformedElementError):
        GenericMatrix(cfg, {(2, 1): ad.variable(1, (0,))})


def test_identity_and_zero_matrices():
    cfg = cfg_nat((2, 1))
    one = identity_matrix(cfg)
    zero = zero_matrix(cfg)
    g = make_generator(2, (1,), cfg)
    assert (one * g).equal(g)
    assert (g * one).equal(g)
    assert (zero * g).is_zero()
    assert (g + zero).equal(g)
    assert (g - g).is_zero()


def test_matrix_arithmetic_laws():
    cfg = cfg_nat((1, 1))
    a = make_generator(1, (0,), cfg)
    b = make_generator(2, (1,), cfg)
    c = make_generator(3, (1,), cfg)
    assert ((a + b) * c).equal(a * c + b * c)
    assert (c * (a + b)).equal(c * a + c * b)
    assert ((a * b) * c).equal(a * (b * c))
    assert (a * b).same_model(c)
    d = a.scale(3)
    assert (d - a - a - a).is_zero()


def test_mixed_models_rejected():
    a = make_generator(1, (0,), cfg_nat((1, 1)))
    b = make_generator(1, (0,), cfg_nat((2,)))
    with pytest.raises(MalformedElementError):
        a + b


def test_model_eval_even_commutator():
    """Diagonal parts of even generics commute; the corner does not vanish."""
    cfg = cfg_nat((1, 1))
    f = parse_poly("[y1, y2]", Z2)
    M = model_eval(f, cfg)
    ad = cfg.adapter()
    assert ad.is_zero(M.entry(1, 1))
    assert ad.is_zero(M.entry(2, 2))
    assert not ad.is_zero(M.entry(1, 2))
    assert not M.is_zero()


def test_model_eval_product_of_commutators():
    """[y1,y2]*[y3,y4] lands in the square of the strictly upper corner."""
    cfg = cfg_nat((1, 1))
    f = parse_poly("[y1, y2]*[y3, y4]", Z2)
    assert model_eval(f, cfg).is_zero()
    g = parse_poly("[y1, y2]*[y3, y4]", Z2)
    assert not model_eval(g, cfg_nat((1, 1, 1))).is_zero()


def test_model_eval_single_block_is_entry_algebra():
    cfg = cfg_nat((1,))
    assert model_eval(parse_poly("z1*z2 + z2*z1", Z2), cfg).is_zero()
    assert not model_eval(parse_poly("z1*z2", Z2), cfg).is_zero()


def test_model_eval_constants_and_linearity():
    cfg = cfg_nat((1, 1))
    three = model_eval(parse_poly("3", Z2), cfg)
    assert three.equal(identity_matrix(cfg).scale(3))
    f = parse_poly("y1*z2", Z2)
    g = parse_poly("z2*y1", Z2)
    lhs = model_eval(f - g, cfg)
    assert lhs.equal(model_eval(f, cfg) - model_eval(g, cfg))


def test_entry_strings_cover_positions():
    cfg = cfg_nat((1, 1))
    M = model_eval(parse_poly("[y1, y2]", Z2), cfg)
    ss = M.entry_strings()
    assert set(ss) == {"1,1", "1,2", "2,2"}
    assert ss["1,1"] == "0"
    assert ss["1,2"] != "0"


def test_shift_laws_on_generators_and_products():
    cfg = cfg_nat((3,))
    n = 3
    rng = random.Random(1)
    samples = [
        make_generator(1, (0,), cfg),
        make_generator(2, (1,), cfg),
        make_generator(1, (0,), cfg) * make_generator(2, (1,), cfg),
        model_eval(parse_poly("[y1, z2]", Z2), cfg),
    ]
    ad = cfg.adapter()
    for M in samples:
        S = shift_automorphism(M, cfg)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ad.is_zero(S.entry(i, j) - M.entry(i % n + 1, j % n + 1))
    # order n: applying n times is the identity
    M = samples[2]
    out = M
    for _ in range(n):
        out = shift_automorphism(out, cfg)
    assert out.equal(M)
    # multiplicative
    A, B = samples[0], samples[1]
    assert shift_automorphism(A * B, cfg).equal(
        shift_automorphism(A, cfg) * shift_automorphism(B, cfg)
    )
    assert shift_automorphism(A + B, cfg).equal(
        shift_automorphism(A, cfg) + shift_automorphism(B, cfg)
    )


def test_shift_requires_single_block():
    cfg = cfg_nat((1, 1))
    with pytest.raises(UnsupportedFeatureError):
        shift_automorphism(make_generator(1, (0,), cfg), cfg)


def test_independence_basic():
    cfg = cfg_nat((2,))
    a = make_generator(1, (0,), cfg)
    b = make_generator(2, (0,), cfg)
    assert independent_full([a, b])
    assert independent_by_columns([a, b], 1)
    assert not independent_full([a, a.scale(2)])
    assert not independent_full([a, b, a + b])
    assert not independent_by_columns([a, b, a + b], 1)


def test_independence_column_vs_full_sampled():
    """Projecting to one column must agree with the full check here: entries
    of distinct generators use disjoint variables, so no cancellation."""
    cfg = cfg_nat((2,))
    rng = random.Random(12)
    gens = [make_generator(k, (d,), cfg) for k in (1, 2, 3) for d in (0, 1)]
    for _ in range(25):
        chosen = rng.sample(gens, rng.randint(2, 4))
        coeffs = [rng.randint(-2, 2) for _ in chosen]
        mats = list(chosen)
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        combo = zero_matrix(cfg)
        for c, m in zip(coeffs, chosen):
            combo = combo + m.scale(c)
        mats_dep = mats + [combo]
        full = independent_full(mats_dep)
        col = independent_by_columns(mats_dep, 1)
        assert full == col == False
        assert independent_full(mats) == independent_by_columns(mats, 1) == True


def test_extract_and_reassemble_roundtrip():
    cfg = cfg_nat((2, 1))
    M = model_eval(parse_poly("y1*z2 + z2*y1", Z2), cfg)
    leading, corner, strip = extract_blocks(M, cfg)
    assert isinstance(strip, RectangularStrip)
    assert strip.n_rows == 2 and strip.n_cols == 1
    assert leading.cfg.shape.sizes == (2,)
    assert corner.cfg.shape.sizes == (1,)
    back = reassemble(leading, corner, strip, cfg)
    assert back.equal(M)


def test_extract_blocks_needs_two_blocks():
    cfg = cfg_nat((2,))
    with pytest.raises(MalformedElementError):
        extract_blocks(make_generator(1, (0,), cfg), cfg)


def test_relfree_backend_requires_z2():
    with pytest.raises(MalformedElementError):
        ModelConfig(BlockShape((1, 1)), TRIVIAL_GROUP, NAT)


def test_truncated_backend_agrees_with_relfree_backend():
    """Same verdicts from the rewriting backend and the congruence backend."""
    E = build_grassmann(GrassmannSpec(10, "natural"))
    backend = TruncatedQuotientBackend(E, max_degree=4)
    cfg_t = ModelConfig(BlockShape((1, 1)), Z2, backend)
    cfg_r = cfg_nat((1, 1))
    samples = [
        "[y1, y2]",
        "[y1, y2]*[y3, y4]",
        "z1*z2 + z2*z1",
        "y1*z2 - z2*y1",
        "z1*z2*z3 - z3*z2*z1",
    ]
    for text in samples:
        f = parse_poly(text, Z2)
        assert model_eval(f, cfg_t).is_zero() == model_eval(f, cfg_r).is_zero(), text


def test_truncated_backend_shift_and_independence_agree_with_relfree_backend():
    """The congruence backend renames entries for the shift and keys their
    residues for independence; every verdict matches the rewriting
    backend's on M_2 over E."""
    E = build_grassmann(GrassmannSpec(8, "natural"))
    cfg_t = ModelConfig(BlockShape((2,)), Z2, TruncatedQuotientBackend(E, max_degree=3))

    def verdicts(cfg):
        A, B = make_generator(1, (0,), cfg), make_generator(2, (1,), cfg)
        C = model_eval(parse_poly("[y1, z2]", Z2), cfg)  # A*B - B*A
        out = []
        for M in (A, B, A * B, C):
            S = shift_automorphism(M, cfg)
            out += [S.equal(M), shift_automorphism(S, cfg).equal(M)]
        SA, SB = shift_automorphism(A, cfg), shift_automorphism(B, cfg)
        out.append(shift_automorphism(A * B, cfg).equal(SA * SB))
        for mats in ([A, B, A * B, C], [A, B, A + B.scale(2)], [A * B, B * A, C]):
            out += [independent_full(mats), independent_by_columns(mats, 1),
                    independent_by_columns(mats, 2)]
        return out

    got = verdicts(cfg_t)
    assert got == verdicts(cfg_nat((2,)))
    assert any(got) and not all(got)


def test_truncated_backend_group_must_match():
    E = build_grassmann(GrassmannSpec(4, "trivial"))
    backend = TruncatedQuotientBackend(E, max_degree=3)
    with pytest.raises(MalformedElementError):
        ModelConfig(BlockShape((1, 1)), Z2, backend)
    cfg = ModelConfig(BlockShape((1,)), TRIVIAL_GROUP, backend)
    assert model_eval(parse_poly("[[x1, x2], x3]", TRIVIAL_GROUP), cfg).is_zero()
    assert not model_eval(parse_poly("[x1, x2]", TRIVIAL_GROUP), cfg).is_zero()


# -- model_eval against the word-by-word oracle ----------------------------------


@functools.lru_cache(maxsize=None)
def _truncated_backend():
    return TruncatedQuotientBackend(build_grassmann(GrassmannSpec(6, "natural")), max_degree=4)


@st.composite
def _commutator_polys(draw, max_degree=5):
    """(L1 + L2) * (R1 + R2) + c: scaled products of letters and left-normed
    commutators over four variables. Every word of L_i * R shares its left
    quotients with the others up to a scalar (as in 2*A*B - A*C), letters
    may repeat, so terms cancel, and a zero coefficient drops a summand."""
    degrees = draw(st.lists(st.sampled_from([(0,), (1,)]), min_size=4, max_size=4))
    xs = [NcPolynomial.variable(v, d) for v, d in enumerate(degrees, 1)]
    coeffs = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)])

    def product(room):
        """A product of at most `room` letters; returns it and its degree."""
        out, used = NcPolynomial.constant(1), 0
        while used < room and (used == 0 or draw(st.booleans())):
            size = draw(st.integers(1, min(3, room - used)))
            letters = [draw(st.sampled_from(xs)) for _ in range(size)]
            factor = letters[0] if size == 1 else left_normed_commutator(letters)
            out, used = out * factor, used + size
        return out, used

    def combination(room):
        p1, d1 = product(room)
        p2, d2 = product(room)
        return draw(coeffs) * p1 + draw(coeffs) * p2, max(d1, d2)

    left, used = combination(max_degree - 1)
    right = combination(max_degree - used)[0] if draw(st.booleans()) else NcPolynomial.constant(1)
    return left * right + draw(coeffs)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    f=_commutator_polys(),
    backend=st.sampled_from(["natural", "infty", "kstar:1", "kstar:2", "truncated"]),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 1, 1)]),
)
@example(f=NcPolynomial.zero(), backend="infty", shape=(1, 1, 1))
@example(f=NcPolynomial.constant(Fraction(-3, 2)), backend="natural", shape=(2, 1))
@example(f=parse_poly("2*[z1,z2]*[y3,z4] - [z1,z2]*z4*y3 + 5", Z2), backend="infty", shape=(1, 1, 1))
@example(f=parse_poly("[z1,z2]*y3 - [z1,z2]*y3 + z1*y3 - z1*y3", Z2), backend="truncated", shape=(1, 1))
# the square block last, and kstar:0, where no odd letter survives: neither
# is drawn by the strategy
@example(f=parse_poly("2*[z1,y2]*z3 - y4*[z3,z1] + z1*y4*z3 + 1", Z2), backend="kstar:2", shape=(1, 2))
@example(f=parse_poly("[y1,y2]*y3*[y4,z5] - y4*y3 + z5", Z2), backend="kstar:0", shape=(2, 1))
# Fraction coefficients that cancel inside one entry, and a repeated variable
@example(f=parse_poly("1/2*z1*y2*z1 - 1/2*z1*z1*y2 + [z1,y2]*z1", Z2), backend="infty", shape=(1, 1, 1))
def test_model_eval_matches_the_word_by_word_oracle(f, backend, shape):
    """Memoized Horner gives the same printed entries as multiplying out
    every word, on both backends."""
    entries = _truncated_backend() if backend == "truncated" else GradingMode.parse(backend)
    cfg = ModelConfig(BlockShape(shape), Z2, entries)
    got = model_eval(f, cfg).entry_strings()
    assert got == word_by_word_model_eval(f, cfg).entry_strings()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    scale=st.sampled_from([1, -1, 2, Fraction(1, 2)]),
    backend=st.sampled_from(["natural", "infty", "kstar:0", "kstar:1", "kstar:2", "truncated"]),
)
def test_adapter_times_accumulates_in_place(seed, scale, backend):
    """Each adapter's times(vid, raw, out, c) adds c * x_vid * raw straight
    into an entry that already holds terms, some of which the product
    cancels: the same as adding the bare product to it, with no zero
    coefficient left."""
    rng = random.Random(seed)
    ids = list(range(1, 7))
    parities = {v: 0 if v <= 2 else rng.randint(0, 1) for v in ids}
    universe = {v: (p,) for v, p in parities.items()}
    x = rng.choice(ids)
    coeffs = [-2, -1, 1, Fraction(1, 2)]
    if backend == "truncated":
        words = [tuple(rng.choice(ids) for _ in range(rng.randint(0, 3))) for _ in range(3)]
        raw = {w: rng.choice(coeffs) for w in words}
        product = {(x,) + w: c for w, c in raw.items()}
    else:
        mode = GradingMode.parse(backend)
        words = [random_basis_word(mode, ids, parities, rng, 4) for _ in range(3)]
        el = RelFreeElement(mode, {w: rng.choice(coeffs) for w in words}, parities)
        raw = {(w.evens, w.odds, w.comms): c for w, c in el.terms.items()}
        product = reference_letter_product(mode, x, el, parities)
    entries = _truncated_backend() if backend == "truncated" else mode
    _, times, _ = ModelConfig(BlockShape((1,)), Z2, entries).adapter().raw_arithmetic(universe)
    check_accumulating_step(lambda out, c: times(x, raw, out, c), product, list(raw), scale, rng)


def test_model_eval_of_a_long_word():
    """Quotients are evaluated without recursion, so word length is not
    bounded by the interpreter's stack."""
    cfg = cfg_nat((1,))
    f = NcPolynomial({(1,) * 1200: Fraction(2)}, {1: (0,)})
    assert model_eval(f, cfg).entry_strings() == word_by_word_model_eval(f, cfg).entry_strings()
