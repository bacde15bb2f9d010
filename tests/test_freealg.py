import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi import Z2, TRIVIAL_GROUP, GroupSpec
from gradedpi.errors import DegreeConflictError, MalformedElementError, ParseError
from gradedpi.freealg import (
    NcPolynomial,
    format_poly,
    left_normed_commutator,
    multilinear_coordinates,
    monomial_index,
    multilinear_monomials,
    parse_poly,
    parse_signature,
    poly_from_coordinates,
    sort_sign,
    validate_signature,
    yvar,
    zvar,
)
from gradedpi.spaces import full_multilinearization, multidegree_components

from _support import GradedSubstitutionError, substitute


def rand_poly(rng, uni, n_terms=4, max_len=3):
    """Random polynomial over a fixed variable-degree assignment."""
    n_vars = len(uni)
    out = NcPolynomial.zero()
    for _ in range(n_terms):
        w = tuple(rng.randint(1, n_vars) for _ in range(rng.randint(0, max_len)))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        out = out + c * NcPolynomial.word(w, {i: uni[i] for i in w})
    return out


def test_parse_and_format_round_trip():
    samples = [
        "x1*x2 - x2*x1",
        "2*x1 + x2*x3*x1 - 1/2*x2",
        "[x1, x2]",
        "[x1, [x2, x3]]",
        "[x1, x2, x3]",
        "3",
        "0",
        "x1",
    ]
    for text in samples:
        f = parse_poly(text, TRIVIAL_GROUP)
        again = parse_poly(format_poly(f), TRIVIAL_GROUP)
        assert f == again, text


# Z2 polynomials: up to five terms in up to four variables, words of length
# 0..4 (the empty word is a constant term), coefficients any small fraction
_z2_polys = st.dictionaries(
    st.integers(1, 12), st.sampled_from([(0,), (1,)]), min_size=1, max_size=4
).flatmap(
    lambda uni: st.dictionaries(
        st.lists(st.sampled_from(sorted(uni)), max_size=4).map(tuple),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        max_size=5,
    ).map(lambda terms: NcPolynomial(terms, uni))
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_z2_polys, st.sampled_from(["explicit", "yz"]))
def test_format_then_parse_is_the_identity(f, style):
    """format_poly's promise parse(format(f)) == f, in both styles: x<id>^(r)
    letters, y/z shorthand, fraction coefficients and constant terms."""
    again = parse_poly(format_poly(f, style), Z2)
    assert again.terms == f.terms
    assert again.universe == f.universe


def test_parse_yz_notation():
    f = parse_poly("[y1, z2]*z3 - 2*y1*z2*z3", Z2)
    assert f.universe == {1: (0,), 2: (1,), 3: (1,)}
    assert f.terms == {(1, 2, 3): Fraction(-1), (2, 1, 3): Fraction(-1)}
    assert format_poly(f, style="yz") == "-y1*z2*z3 - z2*y1*z3"
    assert parse_poly(format_poly(f, style="yz"), Z2) == f


def test_parse_explicit_degree_notation():
    g = GroupSpec((2, 2))
    f = parse_poly("x1^(1,0)*x2^(0,1)", g)
    assert f.universe == {1: (1, 0), 2: (0, 1)}
    assert parse_poly(format_poly(f), g) == f


def test_left_normed_commutator():
    a, b, c = yvar(1), yvar(2), yvar(3)
    assert left_normed_commutator([a, b]) == a * b - b * a
    manual = (a * b - b * a) * c - c * (a * b - b * a)
    assert left_normed_commutator([a, b, c]) == manual
    assert format_poly(left_normed_commutator([a, b, c]), style="yz") == (
        "y1*y2*y3 - y2*y1*y3 - y3*y1*y2 + y3*y2*y1"
    )


def test_degree_conflict_detected():
    with pytest.raises(DegreeConflictError):
        parse_poly("y1*z1", Z2)
    with pytest.raises(DegreeConflictError):
        yvar(1) * zvar(1)


def test_parse_errors():
    for bad in ["x1 +", "[x1", "x1^2", "1/0", "x0", "qq3"]:
        with pytest.raises((ParseError, MalformedElementError)):
            parse_poly(bad, TRIVIAL_GROUP)
    for bad in ["1/0*z1", "y1 - 3/00*y2", "[1/0*y1, y2]"]:
        with pytest.raises(ParseError, match=r"^zero denominator in '\d+/0+'$"):
            parse_poly(bad, Z2)
    assert parse_poly("0/3*y1 + y2", Z2) == parse_poly("y2", Z2)


def test_ring_axioms_on_samples():
    rng = random.Random(5)
    uni = {1: (0,), 2: (1,), 3: (1,)}
    for _ in range(15):
        f = rand_poly(rng, uni)
        g = rand_poly(rng, uni)
        h = rand_poly(rng, uni)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f + g == g + f
        assert f - f == NcPolynomial.zero()
        assert f * NcPolynomial.constant(1) == f
        assert NcPolynomial.constant(0) * f == NcPolynomial.zero()


def test_scalar_coercion():
    f = yvar(1)
    assert 2 * f == f + f
    assert f * Fraction(1, 2) + f * Fraction(1, 2) == f
    assert f - 1 == f + NcPolynomial.constant(-1)


def test_substitute_is_homomorphism():
    rng = random.Random(11)
    uni = {1: (0,), 2: (0,), 3: (1,)}
    images = {
        1: parse_poly("y4*y5", Z2),
        2: parse_poly("y5 + 2*y6", Z2),
        3: parse_poly("z7*z8*z9", Z2),
    }
    for _ in range(10):
        f = rand_poly(rng, uni)
        g = rand_poly(rng, uni)
        fs = substitute(f, images, Z2)
        gs = substitute(g, images, Z2)
        assert substitute(f * g, images, Z2) == fs * gs
        assert substitute(f + g, images, Z2) == fs + gs


def test_substitute_checks_degrees():
    f = zvar(1) * zvar(2)
    with pytest.raises(GradedSubstitutionError):
        substitute(f, {1: yvar(3)}, Z2)
    with pytest.raises(GradedSubstitutionError):
        substitute(f, {1: zvar(3) + yvar(4)}, Z2)


def test_rename_variables():
    f = parse_poly("z1*z2 - z2*z1", Z2)
    g = f.rename_variables({1: 5, 2: 7})
    assert g == parse_poly("z5*z7 - z7*z5", Z2)
    with pytest.raises(MalformedElementError):
        f.rename_variables({1: 2, 2: 2})


def test_multilinear_monomials_order():
    assert multilinear_monomials(1) == ((1,),)
    assert multilinear_monomials(3) == (
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    )
    assert len(multilinear_monomials(4)) == 24


def test_monomial_index_is_built_once_and_read_only():
    assert multilinear_monomials(4) is multilinear_monomials(4)
    idx = monomial_index(4)
    assert idx is monomial_index(4)
    assert [idx[w] for w in multilinear_monomials(4)] == list(range(24))
    with pytest.raises(TypeError):
        idx[(1, 2, 3, 4)] = 0


def test_signature_parsing_and_validation():
    assert parse_signature("0,1", Z2) == ((0,), (1,))
    assert parse_signature("0.1,1.0", GroupSpec((2, 2))) == ((0, 1), (1, 0))
    assert validate_signature([(1,), (0,)], Z2) == ((1,), (0,))
    with pytest.raises(MalformedElementError):
        validate_signature([(2,)], Z2)
    # residues must already lie in 0..n-1; none is reduced
    with pytest.raises(MalformedElementError):
        parse_signature("0,5", Z2)
    with pytest.raises(MalformedElementError):
        parse_signature("0,-1", Z2)
    with pytest.raises(ParseError):
        parse_signature("", Z2)
    with pytest.raises(ParseError):
        parse_signature("0,a", Z2)
    # over the rank-0 group the only degree is 0; no entry may be empty
    assert parse_signature("0, 0", TRIVIAL_GROUP) == ((), ())
    for text, spec in [("0,1", TRIVIAL_GROUP), ("0,,1", Z2), ("0,1,", Z2), (",0", TRIVIAL_GROUP)]:
        with pytest.raises(ParseError):
            parse_signature(text, spec)


def test_multilinear_coordinates_round_trip():
    sig = ((1,), (1,))
    f = parse_poly("z1*z2 + 3*z2*z1", Z2)
    coords = multilinear_coordinates(f, sig, Z2)
    assert coords == {0: Fraction(1), 1: Fraction(3)}
    assert poly_from_coordinates(coords, sig, Z2) == f


def test_multilinear_coordinates_reject_mismatch():
    sig = ((1,), (1,))
    with pytest.raises(MalformedElementError):
        multilinear_coordinates(parse_poly("z1*z1", Z2), sig, Z2)
    with pytest.raises(MalformedElementError):
        multilinear_coordinates(parse_poly("y1*z2", Z2), sig, Z2)


def test_full_multilinearization_square():
    lin, sig = full_multilinearization(parse_poly("y1*y1", Z2), Z2)
    assert sig == ((0,), (0,))
    assert lin == parse_poly("y1*y2 + y2*y1", Z2)


def test_full_multilinearization_counts():
    # x1^2*x2 has 2 substitutions for x1: coefficient pattern of P(2,1)
    f = parse_poly("x1*x1*x2", TRIVIAL_GROUP)
    lin, sig = full_multilinearization(f, TRIVIAL_GROUP)
    assert len(sig) == 3
    assert sum(abs(c) for c in lin.terms.values()) == 2
    for w in lin.terms:
        assert sorted(w) == [1, 2, 3]


def test_multidegree_components():
    f = parse_poly("y1*y1 + z2*y1 - 3", Z2)
    comps = multidegree_components(f)
    assert set(comps) == {(), ((1, 2),), ((1, 1), (2, 1))}
    total = NcPolynomial.zero()
    for part in comps.values():
        total = total + part
    assert total == f


def test_word_degree_and_homogeneity():
    f = parse_poly("z1*z2", Z2)
    assert f.homogeneous_degree(Z2) == (0,)
    g = parse_poly("z1 + y2", Z2)
    assert g.homogeneous_degree(Z2) is None
    assert f.max_degree() == 2


def _cycle_sign(keys):
    """(-1)^(n - cycles) of the permutation that sorts distinct keys."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(keys)):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = order[j]
    return -1 if (len(keys) - cycles) % 2 else 1


def test_sort_sign_small_cases():
    assert sort_sign(()) == 1
    assert sort_sign((1, 2, 3)) == 1
    assert sort_sign((2, 1)) == -1
    assert sort_sign(iter((3, 1, 2))) == 1
    assert sort_sign(((1, 4), (0, 2))) == -1
    assert sort_sign((1, 2, 1)) == 0


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=9, unique=True))
def test_sort_sign_is_the_parity_of_the_cycle_count(keys):
    assert sort_sign(keys) == _cycle_sign(keys)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=9), st.data())
def test_sort_sign_is_zero_on_a_repeated_key(keys, data):
    twin = keys[data.draw(st.integers(0, len(keys) - 1))]
    at = data.draw(st.integers(0, len(keys)))
    assert sort_sign(keys[:at] + [twin] + keys[at:]) == 0
