import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    check_accumulating_step,
    reference_letter_product,
    reference_relfree_mul,
    reference_straighten,
)
from gradedpi import Z2
from gradedpi.errors import DegreeConflictError, MalformedElementError, UnsupportedFeatureError
from gradedpi import relfree
from gradedpi.freealg import NcPolynomial, parse_poly
from gradedpi.relfree import (
    GradingMode,
    RelFreeElement,
    RelFreeWord,
    count_multilinear_basis_words,
    expand,
    format_relfree,
    from_straightened,
    is_basis_word,
    letter_step,
    multilinear_basis_words,
    normal_form,
    partial_multiplicativity_check,
    random_basis_word,
    relfree_mul,
    soundness_probe,
)

NAT = GradingMode("natural")
INF = GradingMode("infty")
K1 = GradingMode("kstar", 1)
K2 = GradingMode("kstar", 2)

CORPUS = [
    "[x1, x2, x3]",
    "[y1, y2]",
    "z1*z2 + z2*z1",
    "[y1, z2]",
    "z1*z2*z3 - z3*z2*z1",
    "y1*z2*y3",
    "[z1, z2]*y3 - y3*[z1, z2]",
    "z1*y2*z3 + z3*y2*z1",
]


def nf(text, mode):
    return normal_form(parse_poly(text, Z2 if mode.kind != "trivial" else Z2), mode)


def test_mode_parsing():
    assert GradingMode.parse("natural").token() == "natural"
    assert GradingMode.parse("infty").token() == "infty"
    assert GradingMode.parse("kstar:2") == GradingMode("kstar", 2)
    with pytest.raises(UnsupportedFeatureError) as ei:
        GradingMode.parse("degk:1")
    assert "not in the supported catalogue" in str(ei.value)
    with pytest.raises((MalformedElementError, UnsupportedFeatureError)):
        GradingMode.parse("bogus")


def test_pinned_normal_forms():
    assert format_relfree(nf("z2*z1", NAT)) == "-z1*z2"
    assert format_relfree(nf("z2*z1", INF)) == "-[x1,x2] + z1*z2"
    assert format_relfree(nf("y2*y1", NAT)) == "y1*y2"
    assert nf("[y1, y2]", NAT).is_zero()
    assert format_relfree(nf("[y1, y2]", INF)) == "[x1,x2]"
    assert nf("z1*z2 + z2*z1", NAT).is_zero()
    # odd elements need not anticommute in the infty grading
    assert format_relfree(nf("z1*z2 + z2*z1", INF)) == "-[x1,x2] + 2*z1*z2"
    # squares of odd variables
    assert nf("z1*z1", NAT).is_zero()
    assert not nf("z1*z1", INF).is_zero()


def test_kstar_zero_rule():
    """More than k odd letters with repeats beyond the cap collapse to 0."""
    assert nf("z1*z2", K1).is_zero()
    assert not nf("z1*z2", K2).is_zero()
    assert nf("z1*z2*z3", K2).is_zero()
    assert not nf("z1*y2*z3", K2).is_zero()
    assert nf("z1", K1).is_zero() is False


def test_normal_form_is_projection():
    for mode in (NAT, INF, K1, K2):
        for text in CORPUS:
            el = nf(text, mode)
            again = normal_form(expand(el), mode)
            assert el == again, (mode.token(), text)


def test_normal_form_linear():
    for mode in (NAT, INF, K2):
        f = parse_poly(CORPUS[2], Z2)
        g = parse_poly(CORPUS[4], Z2)
        assert normal_form(f + g, mode) == normal_form(f, mode) + normal_form(g, mode)
        assert normal_form(f - f, mode).is_zero()


def test_soundness_probe_corpus():
    """Normal form must agree with direct substitution into the algebra."""
    for mode in (NAT, INF, K1, K2):
        for text in CORPUS:
            f = parse_poly(text, Z2)
            rep = soundness_probe(f, mode, 5, 30, seed=7)
            assert rep.ok, (mode.token(), text, rep.first_witness)
            assert rep.trials == 30


def test_soundness_probe_catches_wrong_forms():
    # z1*z2 is NOT zero in the infty mode; a probe of the difference with 0
    # must produce failures (sanity check that the probe has teeth)
    f = parse_poly("z1*z2", Z2)
    rep = soundness_probe(f, INF, 5, 30, seed=7, normal_form_fn=lambda g, m: nf("0", INF))
    assert not rep.ok
    assert rep.first_witness


def test_relfree_mul_matches_expansion():
    # second factor uses ids 11.. so universes never clash
    rhs_corpus = [
        "[x11, x12, x13]",
        "[y11, y12]",
        "z11*z12 + z12*z11",
        "[y11, z12]",
        "z11*z12*z13 - z13*z12*z11",
    ]
    for mode in (NAT, INF, K2):
        for t1, t2 in itertools.product(CORPUS[:5], rhs_corpus):
            a = nf(t1, mode)
            b = nf(t2, mode)
            direct = normal_form(expand(a) * expand(b), mode)
            assert relfree_mul(a, b) == direct, (mode.token(), t1, t2)


def test_basis_word_shape_invariants():
    for mode in (NAT, INF, K1, K2):
        for sig in [((0,), (1,)), ((1,), (1,)), ((0,), (0,), (1,)), ((1,), (1,), (1,))]:
            words = multilinear_basis_words(mode, sig)
            assert len(words) == count_multilinear_basis_words(mode, sig)
            assert len(set(words)) == len(words)
            parities = {i + 1: d[0] for i, d in enumerate(sig)}
            for w in words:
                assert is_basis_word(w, parities, mode)
                assert list(w.evens) == sorted(w.evens)
                assert len(w.comms) % 2 == 0
                used = list(w.evens) + list(w.odds) + list(w.comms)
                assert sorted(used) == sorted(parities)


def test_basis_word_counts_pinned():
    # natural: single word per multilinear signature
    for sig in [((1,), (1,)), ((0,), (1,), (1,)), ((0,), (0,))]:
        assert count_multilinear_basis_words(NAT, sig) == 1
    # infty ungraded-style: 2^(n-1) words at all-even signatures
    assert count_multilinear_basis_words(INF, ((0,), (0,))) == 2
    assert count_multilinear_basis_words(INF, ((0,), (0,), (0,))) == 4
    assert count_multilinear_basis_words(INF, ((0,),) * 4) == 8
    # kstar cap: too many odd letters leaves no words
    assert count_multilinear_basis_words(K1, ((1,), (1,))) == 0
    assert count_multilinear_basis_words(K2, ((1,), (1,), (1,))) == 0


def test_basis_words_are_independent_normal_forms():
    """Each basis word is its own normal form, and distinct words stay
    distinct after a round trip through the free algebra."""
    for mode in (NAT, INF, K2):
        sig = ((0,), (1,), (1,)) if mode is not K1 else ((0,), (0,), (1,))
        parities = {i + 1: d[0] for i, d in enumerate(sig)}
        words = multilinear_basis_words(mode, sig)
        seen = set()
        for w in words:
            el = RelFreeElement(mode, {w: Fraction(1)}, parities)
            back = normal_form(expand(el), mode)
            assert back == el
            seen.add(tuple(sorted(back.terms.items(), key=lambda kv: kv[0].sort_key())))
        assert len(seen) == len(words)


@pytest.mark.parametrize(
    "mode", [NAT, INF] + [GradingMode("kstar", k) for k in range(4)], ids=lambda m: m.token()
)
def test_straightening_matches_leftmost_pair_oracle(mode):
    """normal_form and relfree_mul against the leftmost-pair rewriting, on
    seeded polynomials with repeated ids whose words share beginnings,
    products whose tails repeat an id or meet a prefix id, and (kstar)
    products that cross the odd-letter cutoff."""
    rng = random.Random(19 + (mode.k or 0))
    ids = list(range(1, 7))
    seen = dict.fromkeys(
        ["shared beginning", "repeated tail id", "prefix id in tail", "crosses cutoff"], 0
    )
    for _ in range(120):
        # at least two even ids, so kstar:0 has words to sample
        parities = {v: 0 if v <= 2 else rng.randint(0, 1) for v in ids}
        rng.shuffle(ids)
        universe = {v: (p,) for v, p in parities.items()}
        pool = rng.sample(ids, rng.randint(2, 6))

        def poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
                terms[word] = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            return NcPolynomial(terms, universe)

        # a product: its words share their beginnings, as normal_form groups them
        f = poly() * poly()
        want = {}
        for word, c in f.terms.items():
            prefix = [(parities[v], v) for v in word]
            for w, x in reference_straighten(prefix, (), mode).items():
                want[w] = want.get(w, 0) + c * x
        assert normal_form(f, mode).terms == {w: c for w, c in want.items() if c}, (mode, f)
        seen["shared beginning"] += len({w[0] for w in f.terms}) < len(f.terms)

        def element():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = random_basis_word(mode, ids[:5], parities, rng, 5)
                terms[w] = rng.choice([-2, -1, 1, Fraction(1, 2)])
            return RelFreeElement(mode, terms, parities)

        a, b = element(), element()
        assert relfree_mul(a, b).terms == reference_relfree_mul(a, b), (mode, a, b)
        for wa in a.terms:
            for wb in b.terms:
                seen["repeated tail id"] += bool(set(wa.comms) & set(wb.comms))
                seen["prefix id in tail"] += bool(set(wa.evens + wa.odds) & set(wb.comms))
                if mode.kind == "kstar":
                    odd = [len(w.odds) + sum(parities[v] for v in w.comms) for w in (wa, wb)]
                    seen["crosses cutoff"] += max(odd) <= mode.k < sum(odd)
    assert seen["shared beginning"], seen
    if mode.kind != "natural":
        assert seen["repeated tail id"] and seen["prefix id in tail"], seen
    if mode.kind == "kstar" and mode.k:
        assert seen["crosses cutoff"], seen


def test_relfree_word_validation():
    with pytest.raises(MalformedElementError):
        RelFreeWord((2, 1), (), ())
    with pytest.raises(MalformedElementError):
        RelFreeWord((), (), (3,))
    with pytest.raises(MalformedElementError):
        RelFreeWord((), (), (2, 1))
    w = RelFreeWord((1,), (3,), (2, 4))
    assert w.length == 4


def test_public_constructor_checks_parities():
    # every id needs a declared parity, tail ids included
    with pytest.raises(MalformedElementError, match="x1 has no declared parity"):
        RelFreeElement(INF, {RelFreeWord((1,), (), ()): 1}, {})
    with pytest.raises(MalformedElementError, match="x3 has no declared parity"):
        RelFreeElement(INF, {RelFreeWord((), (), (2, 3)): 1}, {2: 0})
    # a prefix id must sit in the prefix of its declared parity
    with pytest.raises(DegreeConflictError, match="x1 used as even"):
        RelFreeElement(INF, {RelFreeWord((1,), (), ()): 1}, {1: 1})
    with pytest.raises(DegreeConflictError, match="x2 used as odd"):
        RelFreeElement(INF, {RelFreeWord((), (2,), ()): 1}, {2: 0})


def test_public_constructor_rejects_words_outside_the_basis():
    # natural words carry no commutator tail and repeat no odd id
    not_basis = MalformedElementError
    with pytest.raises(not_basis, match=r"^\[x1,x2\] is not a normal-form word of mode natural$"):
        RelFreeElement(NAT, {RelFreeWord((), (), (1, 2)): 1}, {1: 1, 2: 1})
    with pytest.raises(not_basis, match=r"^z1\*z1 is not a normal-form word of mode natural$"):
        RelFreeElement(NAT, {RelFreeWord((), (1, 1), ()): 1}, {1: 1})
    # kstar:1 words hold at most one odd occurrence, tail slots included
    with pytest.raises(not_basis, match=r"^z1\*z3 is not a normal-form word of mode kstar:1$"):
        RelFreeElement(K1, {RelFreeWord((), (1, 3), ()): 1}, {1: 1, 3: 1})
    with pytest.raises(not_basis, match=r"^z3\*\[x1,x2\] is not a normal-form word of mode kstar:1$"):
        RelFreeElement(K1, {RelFreeWord((), (3,), (1, 2)): 1}, {1: 1, 2: 0, 3: 1})
    # a zero coefficient drops its word before the check
    assert RelFreeElement(K1, {RelFreeWord((), (1, 3), ()): 0}, {1: 1, 3: 1}).is_zero()
    # the same words are normal forms where the mode allows them
    tail = RelFreeElement(INF, {RelFreeWord((), (), (1, 2)): 1}, {1: 1, 2: 1})
    assert tail == normal_form(expand(tail), INF)
    odds = RelFreeElement(K2, {RelFreeWord((), (1, 3), ()): 1}, {1: 1, 3: 1})
    assert odds == normal_form(expand(odds), K2)


@pytest.mark.parametrize(
    "mode", [NAT, INF] + [GradingMode("kstar", k) for k in range(3)], ids=lambda m: m.token()
)
def test_letter_step_matches_leftmost_pair_oracle(mode):
    """letter_step(x, terms) is the leftmost-pair rewriting of x times el,
    for seeded normal-form elements el: odd letters that land exactly on
    the kstar cutoff or pass it, and (natural) odd letters that repeat an
    odd id of a word."""
    rng = random.Random(41 + (mode.k or 0))
    ids = list(range(1, 7))
    seen = dict.fromkeys(["on cutoff", "past cutoff", "repeated odd id"], 0)
    for _ in range(150):
        # at least two even ids, so kstar:0 has words to sample
        parities = {v: 0 if v <= 2 else rng.randint(0, 1) for v in ids}
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = random_basis_word(mode, ids, parities, rng, 4)
            terms[w] = rng.choice([-2, -1, 1, Fraction(1, 2)])
        if rng.random() < 0.2:
            terms[RelFreeWord((), (), ())] = 3
        el = RelFreeElement(mode, terms, parities)
        x = rng.choice(ids)
        want = reference_letter_product(mode, x, el, parities)
        raw = {(w.evens, w.odds, w.comms): c for w, c in el.terms.items()}
        got = {}
        letter_step(mode, x, raw, parities, got, 1)
        assert got == want, (mode, x, el)
        assert from_straightened(mode, got, parities).terms == {
            RelFreeWord(*k): c for k, c in want.items()
        }
        for w in el.terms:
            odd = len(w.odds) + sum(parities[v] for v in w.comms) + parities[x]
            if mode.kind == "kstar" and parities[x]:
                seen["on cutoff"] += odd == mode.k
                seen["past cutoff"] += odd > mode.k
            seen["repeated odd id"] += x in w.odds
    if mode.kind == "kstar":
        assert seen["past cutoff"] and (seen["on cutoff"] or mode.k == 0), seen
    if mode.kind == "natural":
        assert seen["repeated odd id"], seen


@pytest.mark.parametrize(
    "mode", [NAT, INF] + [GradingMode("kstar", k) for k in range(3)], ids=lambda m: m.token()
)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), scale=st.sampled_from([1, -1, 2, Fraction(1, 2)]))
def test_letter_step_accumulates_in_place(mode, seed, scale):
    """letter_step adds scale * x * el straight into a dict that already
    holds words, some of which the product cancels: the same as adding the
    leftmost-pair product to it, with no zero coefficient left."""
    rng = random.Random(seed)
    ids = list(range(1, 7))
    parities = {v: 0 if v <= 2 else rng.randint(0, 1) for v in ids}
    words = [random_basis_word(mode, ids, parities, rng, 4) for _ in range(rng.randint(1, 3))]
    el = RelFreeElement(mode, {w: rng.choice([-2, -1, 1, Fraction(1, 2)]) for w in words}, parities)
    x = rng.choice(ids)
    raw = {(w.evens, w.odds, w.comms): c for w, c in el.terms.items()}
    check_accumulating_step(
        lambda out, c: letter_step(mode, x, raw, parities, out, c),
        reference_letter_product(mode, x, el, parities),
        list(raw),
        scale,
        rng,
    )


@pytest.mark.parametrize("mode", [NAT, INF, K1, K2], ids=lambda m: m.token())
def test_arithmetic_results_pass_the_public_check(mode):
    """Sums, scales, products and normal forms skip the constructor's check;
    each must be what the checking constructor makes of its own parts."""
    rng = random.Random(5)
    ids = list(range(1, 7))
    parities = {v: v % 2 for v in ids}

    def element():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = random_basis_word(mode, ids, parities, rng, 4)
            terms[w] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        return RelFreeElement(mode, terms, parities)

    for _ in range(30):
        a, b = element(), element()
        results = [
            a + b,
            a - a,
            a.scale(0),
            a.scale(Fraction(-2, 3)),
            a * b,
            normal_form(expand(a), mode),
            normal_form(expand(a) * expand(b), mode),
        ]
        for r in results:
            assert RelFreeElement(r.mode, r.terms, r.parities) == r


def test_multiplicativity_reports():
    holds_nat = partial_multiplicativity_check(NAT, 3, 60, seed=0)
    assert holds_nat.verdict == "holds-on-samples"
    assert holds_nat.witness is None
    holds_inf = partial_multiplicativity_check(INF, 3, 60, seed=0)
    assert holds_inf.verdict == "holds-on-samples"
    fails_k1 = partial_multiplicativity_check(K1, 3, 60, seed=0)
    assert fails_k1.verdict == "fails"
    assert fails_k1.witness and "0" in fails_k1.witness


def test_multiplicativity_combination_witness(monkeypatch):
    # no shipped mode reaches a vanishing combination of nonzero products;
    # make the last product of every sample with three or more dependent
    real = relfree.products_of_word_sets

    def dependent(set1, set2, mode, parities):
        products = real(set1, set2, mode, parities)
        if len(products) >= 3:
            products[-1] = products[0].scale(2) - products[1].scale(3)
        return products

    monkeypatch.setattr(relfree, "products_of_word_sets", dependent)
    rep = partial_multiplicativity_check(NAT, 4, 50, seed=11)
    assert (rep.verdict, rep.samples) == ("fails", 1)
    assert rep.witness == (
        "1*(y4*y4*y4*y8)*(y16) + -3/2*(y4*y4*y4*y8)*(y10*y10) + -1/2*(y4)*(z9) = 0"
    )


def test_format_relfree_round_trip_via_expand():
    for mode in (NAT, INF, K2):
        for text in CORPUS[:6]:
            el = nf(text, mode)
            if el.is_zero():
                assert format_relfree(el) == "0"
                continue
            s = format_relfree(el)
            assert s and "*" in s or s.startswith("[") or s.lstrip("-").startswith(("y", "z", "["))
