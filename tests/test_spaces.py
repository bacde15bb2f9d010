import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi import Z2, TRIVIAL_GROUP, GroupSpec, spaces
from gradedpi.algebras import (
    BlockShape,
    GrassmannSpec,
    build_field,
    build_grassmann,
    build_matrix_algebra,
    build_matrix_over,
)
from gradedpi.errors import (
    AmbientMismatchError,
    GuardExceededError,
    InternalInconsistencyError,
    MalformedElementError,
    TruncationError,
)
from gradedpi.freealg import (
    format_poly,
    monomial_index,
    multilinear_monomials,
    parse_poly,
    zvar,
)
from gradedpi.linalg import (
    DEFAULT_GUARD,
    GuardLimits,
    RowReducer,
    Subspace,
    contains,
    kernel_basis,
    row_space,
)
from gradedpi.relfree import GradingMode, count_multilinear_basis_words
from gradedpi.spaces import (
    ConsequenceProvider,
    EvaluationProvider,
    GrassmannRowsProvider,
    IdentitySubspace,
    ProductProvider,
    TIdealPresentation,
    TruncatedQuotientBackend,
    check_factoring,
    full_multilinearization,
    grassmann_fast_rows,
    identities_by_consequences,
    identities_by_evaluation,
    membership,
    multidegree_components,
    parity_patterns,
    presentation_for_mode,
    presentation_trivial_grassmann,
    tideal_product,
    triple_commutator_generators,
)

from _support import (
    primitive_int_row,
    reference_consequence_rows,
    reference_fast_rows,
    reference_parity_patterns,
    reference_product_rows,
)


def E(n, kind, k=None):
    return build_grassmann(GrassmannSpec(n, kind, k=k))


def all_z2_sigs(total):
    return list(itertools.product(((0,), (1,)), repeat=total))


def test_full_equals_fast_across_kinds():
    """The pattern-row shortcut must compute the same kernel as brute force."""
    cases = [
        (E(6, "natural"), [((1,), (1,)), ((0,), (1,)), ((1,), (1,), (0,))]),
        (E(6, "infty"), [((1,), (1,)), ((0,), (0,)), ((1,), (0,), (1,))]),
        (E(6, "kstar", k=1), [((1,), (1,)), ((0,), (1,), (0,))]),
        (E(5, "trivial"), [((), ()), ((), (), ())]),
    ]
    for alg, sigs in cases:
        for sig in sigs:
            full = identities_by_evaluation(alg, sig, method="full")
            fast = identities_by_evaluation(alg, sig, method="fast")
            assert full.space == fast.space, (alg.meta, sig)


def test_full_equals_fast_matrix_over():
    # at these lengths the components are 0 or everything, so each case
    # checks that the fast rows reach full rank or vanish exactly as the
    # full enumeration does
    cases = [
        (4, "natural", (1, 1), [((1,), (1,)), ((0,), (1,))]),
        (1, "natural", (2, 1), [((0,), (0,), (0,), (1,)), ((0,), (0,), (1,), (1,))]),
        (2, "natural", (1, 1, 1), [((1,), (0,), (1,)), ((1,), (1,), (1,))]),
        (1, "infty", (1, 1, 1), [((0,), (0,), (0,), (0,)), ((0,), (1,), (1,), (1,))]),
    ]
    for n_gens, kind, shape, sigs in cases:
        M = build_matrix_over(E(n_gens, kind), BlockShape(shape))
        for sig in sigs:
            full = identities_by_evaluation(M, sig, method="full")
            fast = identities_by_evaluation(M, sig, method="fast")
            assert full.space == fast.space, (n_gens, kind, shape, sig)


def _outcome(fn, *args):
    try:
        rows, report = fn(*args)
    except TruncationError as exc:
        return ("truncation", str(exc))
    return ("rows", list(rows), report)


def test_fast_rows_match_direct_enumeration():
    """Rows from composable unit chains equal the direct |positions|^n * n!
    enumeration: the same stream of rows in the same order, repeats
    included, and the same report. Shape None is E_N itself, whose one unit
    (1, 1) gives one column set."""
    gradings = [("natural", None), ("infty", None), ("kstar", 1), ("trivial", None)]
    cases = [
        (5, None, 4), (4, (1, 1), 4), (6, (1, 1), 4), (4, (2, 1), 3), (4, (1, 2), 3),
        (4, (1, 1, 1), 3),
    ]
    for n_gens, shape, max_len in cases:
        for kind, k in gradings:
            gspec = GrassmannSpec(n_gens, kind, k=k)
            M = build_grassmann(gspec)
            if shape is not None:
                M = build_matrix_over(M, BlockShape(shape))
            blocks = BlockShape(shape or (1,))
            degrees = [()] if kind == "trivial" else [(0,), (1,)]
            for n in range(1, max_len + 1):
                for sig in itertools.product(degrees, repeat=n):
                    for limit in (False, True):
                        got = _outcome(grassmann_fast_rows, gspec, blocks, sig, limit)
                        want = _outcome(reference_fast_rows, M, sig, limit)
                        assert got == want, (n_gens, shape, kind, sig, limit)


def _component_outcome(fn, *args):
    try:
        comp = fn(*args)
    except TruncationError as exc:
        return ("truncation", str(exc))
    return ("component", comp.space.rows, comp.space.pivots, comp.meta)


def test_grassmann_rows_provider_matches_evaluation_on_built_algebras():
    """GrassmannRowsProvider reads its components off the exterior spec and
    the block shape, with nothing built: rows, pivots, meta and
    TruncationError text equal those of identities_by_evaluation on the
    built algebra, at every Z2 signature up to length 4, for five gradings,
    five shapes ((1,) is E_N itself), fast and limit. The truncations are
    small enough that limit raises at some signatures."""
    gspecs = [
        GrassmannSpec(4, "natural"),
        GrassmannSpec(5, "infty"),
        GrassmannSpec(4, "kstar", k=1),
        GrassmannSpec(5, "kstar", k=2),
        GrassmannSpec(4, "explicit", explicit=(1, 0, 1, 1)),
    ]
    sigs = [sig for n in range(1, 5) for sig in all_z2_sigs(n)]
    outcomes = Counter()
    for gspec in gspecs:
        entries = build_grassmann(gspec)
        for sizes in [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 2)]:
            shape = BlockShape(sizes)
            alg = entries if sizes == (1,) else build_matrix_over(entries, shape)
            for method in ("fast", "limit"):
                provider = GrassmannRowsProvider(gspec, shape, method == "limit")
                for sig in sigs:
                    got = _component_outcome(provider.component, sig)
                    want = _component_outcome(identities_by_evaluation, alg, sig, method)
                    assert got == want, (gspec, sizes, sig, method)
                    outcomes[got[0]] += 1
    assert outcomes["truncation"] and outcomes["component"]


def _patterns_outcome(fn, gspec, sig, limit):
    try:
        return ("patterns", fn(gspec, sig, limit))
    except TruncationError as exc:
        return ("truncation", str(exc))


def test_parity_patterns_match_the_per_kind_table():
    """One cost rule, d degree-1 and (p - d) mod 2 degree-0 generators per
    position, selects the same patterns as the per-kind table with the
    natural grading's parity-degree conflict, and raises the same
    TruncationError, for every grading, N = 0..12 and lengths up to 5."""
    for n_gens in range(13):
        specs = [GrassmannSpec(n_gens, kind) for kind in ("natural", "infty", "trivial")]
        specs += [GrassmannSpec(n_gens, "kstar", k=k) for k in range(4)]
        specs += [
            GrassmannSpec(n_gens, "explicit", explicit=tuple(rule(i) for i in range(n_gens)))
            for rule in (lambda i: 0, lambda i: 1, lambda i: i % 2, lambda i: int(i < 3))
        ]
        for gspec in specs:
            degrees = [()] if gspec.deg_kind == "trivial" else [(0,), (1,)]
            for n in range(1, 6):
                for sig in itertools.product(degrees, repeat=n):
                    for limit in (False, True):
                        got = _patterns_outcome(parity_patterns, gspec, sig, limit)
                        want = _patterns_outcome(reference_parity_patterns, gspec, sig, limit)
                        assert got == want, (gspec, sig, limit)


def test_full_route_counts_rows_past_full_rank(monkeypatch):
    """The full route's rows meta counts every distinct row, also the ones
    that reach the reducer after its rank is full and add nothing, and the
    ones not fed because their negation was fed before them."""
    M = build_matrix_over(E(4, "infty"), BlockShape((1, 1)))
    fed, past_full = [], []
    add = RowReducer.add

    def counting_add(self, row):
        at_full = self.rank == self.n_cols
        grew = add(self, row)
        fed.append(row)
        if at_full:
            past_full.append(grew)
        return grew

    monkeypatch.setattr(RowReducer, "add", counting_add)
    comp = identities_by_evaluation(M, ((1,), (0,), (1,)), method="full")
    assert comp.dim == 0
    assert comp.meta == {"route": "evaluation", "method": "full", "rows": 46, "tuples": 13824}
    # 23 of the 46 distinct rows are negations of rows fed before them
    assert len(fed) == 23
    assert past_full == [False] * 17


def test_evaluation_feeds_no_row_whose_negation_was_fed(monkeypatch):
    """A distinct row whose negation was fed before it spans nothing new and
    is not fed; the rows meta still counts it, and the component is the
    kernel of every distinct row."""
    M = build_matrix_over(E(8, "infty"), BlockShape((1, 1)))
    sig = ((0,), (1,), (1,))
    rows = grassmann_fast_rows(GrassmannSpec(8, "infty"), BlockShape((1, 1)), sig)[0]
    distinct = list(dict.fromkeys(rows))
    want = [
        dict(r) for i, r in enumerate(distinct)
        if tuple((c, -v) for c, v in r) not in distinct[:i]
    ]
    fed = []
    add = RowReducer.add

    def recording_add(self, row):
        # kernel_basis feeds column c as n! - 1 - c
        fed.append({self.n_cols - 1 - c: v for c, v in row.items()})
        return add(self, row)

    with monkeypatch.context() as patched:
        patched.setattr(RowReducer, "add", recording_add)
        comp = identities_by_evaluation(M, sig)
    assert comp.meta["rows"] == len(distinct) == 34
    assert fed == want and len(fed) == 23
    assert comp.space == kernel_basis(distinct, 6)


def test_fast_route_stops_at_full_rank():
    """Rows after the rank reaches n! are in the span: skipping them gives
    the same space as feeding every distinct row."""
    gspec, shape = GrassmannSpec(4, "infty"), BlockShape((2, 1))
    M = build_matrix_over(build_grassmann(gspec), shape)
    sig = ((1,), (0,), (1,), (0,))
    rows = list(dict.fromkeys(grassmann_fast_rows(gspec, shape, sig)[0]))
    reducer = RowReducer(24)
    full_at = None
    for i, r in enumerate(rows):
        reducer.add(r)
        if full_at is None and reducer.rank == 24:
            full_at = i
    assert full_at is not None and full_at < len(rows) - 1
    fed_all = kernel_basis(rows, 24)
    comp = identities_by_evaluation(M, sig)
    assert comp.space == fed_all and comp.dim == 0
    assert comp.meta["rows"] == len(rows)


def test_ungraded_grassmann_dims_small():
    """dim(multilinear identities of E) = n! - 2^(n-1) in low degree."""
    for n, want in [(2, 0), (3, 2), (4, 16)]:
        alg = E(2 * n, "trivial")
        sig = ((),) * n
        comp = identities_by_evaluation(alg, sig, method="fast")
        assert comp.dim == want
        assert comp.space.ambient_dim == math.factorial(n)


def test_natural_z2_dims_pinned():
    alg = E(8, "natural")
    # odd variables anticommute: n!-1 identities at all-odd signatures
    assert identities_by_evaluation(alg, ((1,), (1,))).dim == 1
    assert identities_by_evaluation(alg, ((1,), (1,), (1,))).dim == 5
    # even part is central, all-even behaves like a commutative algebra
    assert identities_by_evaluation(alg, ((0,), (0,))).dim == 1
    assert identities_by_evaluation(alg, ((0,), (1,))).dim == 1


def test_known_identity_membership():
    alg = E(8, "trivial")
    comp = identities_by_evaluation(alg, ((), (), ()))
    t1 = parse_poly("[x1, x2, x3]", TRIVIAL_GROUP)
    t2 = parse_poly("[x1, x3, x2]", TRIVIAL_GROUP)
    assert membership(t1, comp)
    assert membership(t2, comp)
    not_id = parse_poly("x1*x2*x3 - x2*x1*x3", TRIVIAL_GROUP)
    assert not membership(not_id, comp)


def test_routes_agree_on_sample_signatures():
    """Evaluation kernels against consequence spans for each catalogued mode."""
    mode_algs = [
        (GradingMode("natural"), E(8, "natural")),
        (GradingMode("infty"), E(8, "infty")),
        (GradingMode("kstar", 1), E(8, "kstar", k=1)),
    ]
    sigs = all_z2_sigs(2) + [((1,), (1,), (0,)), ((0,), (0,), (1,))]
    for mode, alg in mode_algs:
        pres = presentation_for_mode(mode)
        for sig in sigs:
            ev = identities_by_evaluation(alg, sig)
            cons = identities_by_consequences(pres, sig)
            assert ev.space == cons.space, (mode.token(), sig)


def test_routes_agree_ungraded_small():
    pres = presentation_trivial_grassmann()
    for n in (2, 3):
        sig = ((),) * n
        ev = identities_by_evaluation(E(2 * n, "trivial"), sig)
        cons = identities_by_consequences(pres, sig)
        assert ev.space == cons.space


def test_consequences_of_commutator_only():
    """[x1,x2] generates everything the free commutative algebra satisfies."""
    gen = parse_poly("[x1, x2]", TRIVIAL_GROUP)
    pres = TIdealPresentation((gen,), TRIVIAL_GROUP)
    comp = identities_by_consequences(pres, ((), ()))
    assert comp.dim == 1
    comp3 = identities_by_consequences(pres, ((), (), ()))
    # commutative algebra: all of the n!-dim component except symmetric part
    assert comp3.dim == math.factorial(3) - 1


def _streamed_rows(monkeypatch, route, *args):
    """The rows route(*args) hands to the RowReducer of its result's
    ambient, n! columns, in order, and the component it returns. Rows fed
    to reducers of shorter components are not recorded."""
    rows = []

    class Recording(RowReducer):
        def add(self, row):
            rows.append((self.n_cols, dict(row)))
            return super().add(row)

    with monkeypatch.context() as patched:
        patched.setattr(spaces, "RowReducer", Recording)
        comp = route(*args)
    return [row for n_cols, row in rows if n_cols == comp.space.ambient_dim], comp


@functools.cache
def _oracle(pres, sig):
    """The substitution oracle's rows at sig and their span, computed once
    per presentation and signature for every test that asks."""
    rows = reference_consequence_rows(pres, sig)
    return rows, row_space(rows, math.factorial(len(sig)))


def _check_consequence_rows(monkeypatch, pres, sig):
    """The route's rows against the substitution oracle's: the component is
    the span of the oracle's rows, every fed row lies in it, meta counts
    every oracle row, and integral generators give int rows. Returns the
    fed rows, the component and the oracle's rows."""
    got, comp = _streamed_rows(monkeypatch, identities_by_consequences, pres, sig)
    want, span = _oracle(pres, sig)
    assert comp.space == span, (pres.name, sig)
    assert all(contains(span, r) for r in got), (pres.name, sig)
    assert comp.meta["rows"] == len(want), (pres.name, sig)
    if all(c.denominator == 1 for f in pres.generators for c in f.terms.values()):
        assert all(type(v) is int for r in got for v in r.values())
    return got, comp, want


def _user_presentation():
    """A commutator and a rational generator of arity 3."""
    return TIdealPresentation(
        (
            parse_poly("[y1, z2]", Z2),
            parse_poly("1/2*y1*z2*z3 - 3/4*z3*y1*z2 + 5*z2*z3*y1", Z2),
        ),
        Z2,
        name="user",
    )


def test_consequence_rows_match_substitution_oracle(monkeypatch):
    """The rows fed at the signature's own length (covering substitutions
    built from words, and the bordered rows of shorter components) span
    the same space as the substitution oracle's rows; meta counts every
    oracle row."""
    z2_sigs = [s for n in range(1, 5) for s in all_z2_sigs(n)]
    cases = [(presentation_trivial_grassmann(), [((),) * n for n in range(1, 6)])]
    for mode, sig5 in [
        ("natural", (0, 0, 1, 1, 1)),
        ("infty", (1, 0, 1, 0, 1)),
        ("kstar:1", (0, 1, 0, 0, 1)),
        ("kstar:2", (1, 1, 0, 1, 1)),
    ]:
        pres = presentation_for_mode(GradingMode.parse(mode))
        cases.append((pres, z2_sigs + [tuple((d,) for d in sig5)]))
    user = _user_presentation()
    cases.append((user, z2_sigs + [((0,), (1,), (0,), (1,), (1,))]))
    for pres, sigs in cases:
        fed = [
            row for sig in sigs for row in _check_consequence_rows(monkeypatch, pres, sig)[0]
        ]
        if pres is user:
            assert any(type(v) is Fraction for r in fed for v in r.values())


def _renamed_oracle(pres, sig):
    """The oracle's row count at sig and the span of its rows, from its span
    at the sorted signature. A degree-preserving bijection of positions maps
    the substitutions at one order onto those at the other, so any such
    bijection will do; this one matches equal degrees in reverse."""
    n = len(sig)
    rows, span = _oracle(pres, tuple(sorted(sig)))
    # variable j of the sorted signature becomes position image[j - 1]
    image = sorted(range(1, n + 1), key=lambda p: (sig[p - 1], -p))
    words, index = multilinear_monomials(n), monomial_index(n)
    renamed = (
        {index[tuple(image[v - 1] for v in words[col])]: c for col, c in row}
        for row in span.rows
    )
    return len(rows), row_space(renamed, math.factorial(n))


def test_consequence_components_match_oracle_in_every_order():
    """Every Z2 signature up to length 5, in every order, against the span of
    the substitution oracle's rows: the four modes, a rational user
    presentation, kstar:0 (arities 1 and 3), the ungraded triple commutator
    and a constant. The route computes a shorter component once per sorted
    degree sequence and renames it, so an unsorted order is where a wrong
    renaming or memo key would show. The oracle runs once per multiset of
    degrees, its span renamed to each order."""
    sigs = [s for n in range(1, 6) for s in all_z2_sigs(n)]
    modes = ["natural", "infty", "kstar:1", "kstar:2", "kstar:0"]
    cases = [(presentation_for_mode(GradingMode.parse(m)), sigs) for m in modes]
    cases.append((_user_presentation(), sigs))
    cases.append((presentation_trivial_grassmann(), [((),) * n for n in range(1, 6)]))
    cases.append((TIdealPresentation((parse_poly("3", Z2),), Z2, name="constant"), sigs[:14]))
    for pres, pres_sigs in cases:
        for sig in pres_sigs:
            comp = identities_by_consequences(pres, sig)
            n_rows, span = _renamed_oracle(pres, sig)
            assert comp.space == span, (pres.name, sig)
            assert comp.meta["rows"] == n_rows, (pres.name, sig)


def test_consequence_dedupe_catches_repeats_and_nothing_else(monkeypatch):
    """Covering substitutions that repeat up to sign are fed once: across
    generators ([y1,y2] and [y2,y1]) and across slot orders (the symmetrised
    y1*y2*y3). A g that is no repeat (y1*y2 + 2*y2*y1 against its swap,
    equal degrees but no symmetry) is fed, and so are rational generators'
    rows."""
    gens = {
        "commutators": ["[y1, y2]", "[y2, y1]"],
        "symmetric": [
            " + ".join("*".join(f"y{i}" for i in p) for p in itertools.permutations((1, 2, 3)))
        ],
        "skew": ["y1*y2 + 2*y2*y1"],
        "rational": ["1/2*y1*z2 - 2/3*z2*y1"],
    }
    gens["all"] = [g for texts in gens.values() for g in texts]
    sigs = [s for n in range(1, 5) for s in all_z2_sigs(n)] + [((0,), (1,), (0,), (0,), (1,))]
    fed = {}
    for name, texts in gens.items():
        pres = TIdealPresentation(tuple(parse_poly(t, Z2) for t in texts), Z2, name=name)
        for sig in sigs:
            got, comp, want = _check_consequence_rows(monkeypatch, pres, sig)
            fed[name, sig] = (len(got), len(want))
    y = (0,)
    # four g, all +-(y1*y2 - y2*y1); six slot orders of one symmetric g
    assert fed["commutators", (y, y)] == (1, 4)
    assert fed["symmetric", (y, y, y)] == (1, 6)
    # y1*y2 + 2*y2*y1 and its swap y2*y1 + 2*y1*y2 are both fed
    assert fed["skew", (y, y)] == (2, 2)


@functools.cache
def _limit_algebra(mode_token):
    mode = GradingMode.parse(mode_token)
    return E(12, mode.kind, k=mode.k)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["natural", "infty", "kstar:1", "kstar:2"]),
    st.lists(st.sampled_from([(0,), (1,)]), min_size=1, max_size=4),
)
def test_evaluation_equals_consequences_equals_normal_form_count(mode_token, sig):
    """Three routes to one component: the evaluation kernel in E_12 (limit
    semantics), the consequence span of the mode's presentation, and the
    complement of the relatively free normal-form basis count."""
    mode = GradingMode.parse(mode_token)
    sig = tuple(sig)
    ev = identities_by_evaluation(_limit_algebra(mode_token), sig, method="limit")
    cons = identities_by_consequences(presentation_for_mode(mode), sig)
    assert ev.space == cons.space
    assert cons.dim == math.factorial(len(sig)) - count_multilinear_basis_words(mode, sig)


def test_presentations_are_multilinear():
    all_pres = [presentation_for_mode(GradingMode.parse(m)) for m in
                ["natural", "infty", "kstar:1", "kstar:2"]]
    all_pres.append(presentation_trivial_grassmann())
    for pres in all_pres:
        assert pres.generators
        for f in pres.generators:
            for w in f.terms:
                assert len(set(w)) == len(w)


_TRIPLE_COMMUTATORS = [
    "y1*y2*y3 - y2*y1*y3 - y3*y1*y2 + y3*y2*y1",
    "y1*y2*z3 - y2*y1*z3 - z3*y1*y2 + z3*y2*y1",
    "y1*z2*y3 - z2*y1*y3 - y3*y1*z2 + y3*z2*y1",
    "y1*z2*z3 - z2*y1*z3 - z3*y1*z2 + z3*z2*y1",
    "z1*y2*y3 - y2*z1*y3 - y3*z1*y2 + y3*y2*z1",
    "z1*y2*z3 - y2*z1*z3 - z3*z1*y2 + z3*y2*z1",
    "z1*z2*y3 - z2*z1*y3 - y3*z1*z2 + y3*z2*z1",
    "z1*z2*z3 - z2*z1*z3 - z3*z1*z2 + z3*z2*z1",
]


@pytest.mark.parametrize(
    "mode, want",
    [
        ("natural", ["y1*y2 - y2*y1", "y1*z2 - z2*y1", "z1*z2 + z2*z1"]),
        ("infty", _TRIPLE_COMMUTATORS),
        ("kstar:0", _TRIPLE_COMMUTATORS + ["z1"]),
        ("kstar:1", _TRIPLE_COMMUTATORS + ["z1*z2"]),
        ("kstar:2", _TRIPLE_COMMUTATORS + ["z1*z2*z3"]),
    ],
)
def test_presentation_of_each_mode(mode, want):
    """Each mode's presentation: its name and its generators in order."""
    pres = presentation_for_mode(GradingMode.parse(mode))
    assert pres.name == mode and pres.spec == Z2
    assert [format_poly(f, style="yz") for f in pres.generators] == want


def test_triple_commutator_generators_z2():
    """The eight Z2 triple commutators generate T(E) of the infty grading at
    length 3: the evaluation route on E_6 and the normal-form count agree."""
    gens = triple_commutator_generators(Z2)
    assert len(gens) == 8
    sig = ((0,), (0,), (0,))
    comp = identities_by_consequences(TIdealPresentation(gens, Z2), sig)
    assert comp.space == identities_by_evaluation(E(6, "infty"), sig, method="limit").space
    assert math.factorial(3) - comp.dim == count_multilinear_basis_words(GradingMode("infty"), sig)


def test_tideal_product_bordered_crosscheck():
    """Bordered and plain spans of T(A)T(B) agree at small signatures."""
    pres = presentation_for_mode(GradingMode("natural"))
    left = ConsequenceProvider(pres)
    right = ConsequenceProvider(pres)
    for sig in [((1,), (1,), (1,)), ((0,), (1,), (1,)), ((0,), (0,), (1,), (1,))]:
        plain = tideal_product(left, right, sig, bordered=False)
        bordered = tideal_product(left, right, sig, bordered=True)
        assert plain.space == bordered.space, sig


def test_product_rows_match_polynomial_oracle(monkeypatch):
    """Rows built by word concatenation equal the polynomial-product oracle's:
    the same count, order and values, plain and bordered, for two factors
    and for a nested ProductProvider."""
    E8 = EvaluationProvider(E(8, "natural"))
    blocks = [EvaluationProvider(build_matrix_algebra([t], Z2)) for t in [(0,), (1,), (0,)]]
    cases = [
        (E8, E8, [tuple((d,) for d in s) for s in [(0, 1, 0, 1), (0, 0, 1, 1, 1)]]),
        (blocks[0], blocks[1], [s for n in (2, 3) for s in all_z2_sigs(n)]),
        (ProductProvider(blocks[:2]), blocks[2], [s for n in (3, 4) for s in all_z2_sigs(n)]),
    ]
    nonzero = 0
    for left, right, sigs in cases:
        for bordered in (False, True):
            for sig in sigs:
                # the oracle runs first, so every factor component is cached
                # and only the outer product's rows are recorded
                want = reference_product_rows(left, right, sig, Z2, bordered)
                got, comp = _streamed_rows(
                    monkeypatch, functools.partial(tideal_product, bordered=bordered),
                    left, right, sig,
                )
                assert comp.meta["rows"] == len(got)
                assert [primitive_int_row(r) for r in got] == [
                    primitive_int_row(r) for r in want
                ], (sig, bordered)
                nonzero += bool(got)
    assert nonzero > 20


def test_tideal_product_inside_both_factors():
    pres = presentation_for_mode(GradingMode("natural"))
    left = ConsequenceProvider(pres)
    right = ConsequenceProvider(pres)
    sig = ((1,), (1,), (1,))
    prod = tideal_product(left, right, sig)
    t_comp = left.component(sig)
    assert all(contains(t_comp.space, dict(r)) for r in prod.space.rows)


def test_factoring_ut11_natural_small():
    R = build_matrix_over(E(8, "natural"), BlockShape((1, 1)))
    factors = [EvaluationProvider(E(8, "natural")), EvaluationProvider(E(8, "natural"))]
    for sig in all_z2_sigs(2):
        v = check_factoring(EvaluationProvider(R), factors, sig)
        assert v.relation == "equal", sig
        assert v.factors
        assert v.dim_identities == v.dim_product


def test_factoring_kstar_strictly_inside():
    k = 1
    sig = ((1,),) * (k + 1)
    A = E(6, "kstar", k=k)
    R = build_matrix_over(A, BlockShape((1, 1)))
    factors = [EvaluationProvider(A), EvaluationProvider(A)]
    v = check_factoring(EvaluationProvider(R), factors, sig)
    assert v.relation == "product_strictly_inside"
    assert not v.factors
    assert v.witness is not None
    # z1*z2 itself is an identity of R outside the product
    comp = EvaluationProvider(R).component(sig)
    assert membership(zvar(1) * zvar(2), comp)
    prod = ProductProvider(factors).component(sig)
    assert not membership(zvar(1) * zvar(2), prod)


def test_factoring_inconsistency_detected():
    class FakeProvider:
        spec = Z2

        def component(self, sig):
            # claims everything is an identity: the "product" cannot sit inside
            n = len(sig)
            dim = math.factorial(n)
            rows = tuple(((c, Fraction(1)),) for c in range(dim))
            return IdentitySubspace(sig, Z2, Subspace(dim, rows, tuple(range(dim))))

    A = E(6, "natural")
    target = EvaluationProvider(A)
    with pytest.raises(InternalInconsistencyError):
        check_factoring(target, [FakeProvider(), FakeProvider()], ((1,), (1,)))


def test_three_factor_product_matches_nested_reference_products():
    """ProductProvider of three factors is (T1 T2) T3: the same space as
    reference_product_rows applied twice, for the elementary blocks of the
    (1,1,1) field algebra with targets 0,1,0, plain and bordered."""

    class Reference:
        spec = Z2

        def __init__(self, left, right):
            self.left, self.right = left, right

        def component(self, sig):
            rows = reference_product_rows(self.left, self.right, sig, Z2)
            return IdentitySubspace(sig, Z2, row_space(rows, math.factorial(len(sig))))

    factors = [EvaluationProvider(build_matrix_algebra((t,), Z2)) for t in ((0,), (1,), (0,))]
    want_provider = Reference(Reference(factors[0], factors[1]), factors[2])
    proper = []
    for sig in [s for n in (2, 3, 4) for s in all_z2_sigs(n)]:
        want = want_provider.component(sig).space
        for bordered in (False, True):
            assert ProductProvider(factors, bordered=bordered).component(sig).space == want, sig
        proper.append(0 < want.dim < want.ambient_dim)
    assert any(proper)  # some products are proper, some not


def test_products_need_one_group():
    """A product's group is its factors': a Z2 target with Z3-graded factors,
    or factors over two groups, is an ambient mismatch, not a verdict."""
    Z3 = GroupSpec((3,))
    target = EvaluationProvider(build_matrix_algebra(((0,), (1,)), Z2, BlockShape((1, 1))))
    z2_block = EvaluationProvider(build_matrix_algebra(((0,),), Z2))
    z3_block = EvaluationProvider(build_matrix_algebra(((0,),), Z3))
    sig = ((0,), (0,))
    with pytest.raises(AmbientMismatchError):
        check_factoring(target, [z3_block, z3_block], sig)
    with pytest.raises(AmbientMismatchError):
        ProductProvider([z2_block, z3_block])
    with pytest.raises(AmbientMismatchError):
        tideal_product(z2_block, z3_block, sig)
    assert ProductProvider([z3_block, z3_block]).spec == Z3


def test_product_provider_needs_two():
    with pytest.raises(MalformedElementError):
        ProductProvider([EvaluationProvider(E(4, "natural"))])


def test_provider_caching():
    prov = EvaluationProvider(E(6, "natural"))
    a = prov.component(((1,), (1,)))
    b = prov.component(((1,), (1,)))
    assert a is b


def test_limit_method_untruncated_semantics():
    # at one generator the kstar:1 algebra has no even part to draw on,
    # but the untruncated algebra does; limit must see the difference
    alg = E(1, "kstar", k=1)
    sig = ((0,), (0,))
    # the truncation has only scalars in even degree; fast computes its
    # kernel, limit refuses to certify the untruncated space from that
    truncated = identities_by_evaluation(alg, sig, method="fast")
    assert truncated.dim == 1
    assert membership(parse_poly("y1*y2", Z2), truncated) is False
    assert membership(parse_poly("y1*y2 - y2*y1", Z2), truncated)
    with pytest.raises(TruncationError):
        identities_by_evaluation(alg, sig, method="limit")
    # with enough generators the even part is a whole exterior algebra,
    # which has no multilinear identity in two variables; the truncated
    # dim 1 above really was an artifact, so refusing was the right call
    big = E(8, "kstar", k=1)
    lim = identities_by_evaluation(big, sig, method="limit")
    assert lim.dim == 0


def test_auto_method_matches_explicit():
    alg = E(6, "natural")
    sig = ((1,), (0,))
    assert identities_by_evaluation(alg, sig, "auto").space == identities_by_evaluation(alg, sig, "fast").space
    M2 = build_matrix_algebra(((0,), (1,)), Z2)
    # matrix algebra over the field is not pattern-capable; auto falls back
    assert identities_by_evaluation(M2, sig, "auto").space == identities_by_evaluation(M2, sig, "full").space


def test_m2_graded_identities():
    M2 = build_matrix_algebra(((0,), (1,)), Z2)
    # two odd variables admit no multilinear identity
    assert identities_by_evaluation(M2, ((1,), (1,))).dim == 0
    # diagonal matrices commute
    even = identities_by_evaluation(M2, ((0,), (0,)))
    assert membership(parse_poly("[y1, y2]", Z2), even)
    # the classical degree-3 odd identity
    odd3 = identities_by_evaluation(M2, ((1,), (1,), (1,)))
    assert membership(parse_poly("z1*z2*z3 - z3*z2*z1", Z2), odd3)
    assert not membership(parse_poly("z1*z2*z3 - z2*z1*z3", Z2), odd3)


def test_guard_trips_in_kernel_build():
    alg = E(6, "trivial")
    with pytest.raises(GuardExceededError):
        identities_by_evaluation(alg, ((),) * 4, guard=GuardLimits(max_cells=10, max_bits=20000))


def test_fast_rows_guard_bounds_walks_and_rows():
    """The fast route's guards bound the walks before the first row and the
    rows elimination keeps, not the rows the stream lists."""
    M = build_matrix_over(E(4, "infty"), BlockShape((2, 1)))
    sig = ((1,), (0,), (1,), (0,))
    positions = BlockShape((2, 1)).positions()
    n_walks = sum(
        all(w[t][1] == w[t + 1][0] for t in range(3))
        for w in itertools.product(positions, repeat=4)
    )
    n_walks_by_monomials = n_walks * 24
    with pytest.raises(GuardExceededError, match="unit walks by monomials"):
        grassmann_fast_rows(
            GrassmannSpec(4, "infty"),
            BlockShape((2, 1)),
            sig,
            guard=GuardLimits(max_cells=n_walks_by_monomials - 1),
        )
    # more distinct rows than this guard's cells, but a kept rank that fits
    limit = GuardLimits(max_cells=n_walks_by_monomials)
    comp = identities_by_evaluation(M, sig, guard=limit)
    assert comp.meta["rows"] * 24 > limit.max_cells >= 24 * 24
    assert comp.space == identities_by_evaluation(M, sig).space
    # E_8 at a length-4 signature keeps rank 8; the fifth kept row trips
    with pytest.raises(GuardExceededError, match="elimination, kept") as info:
        identities_by_evaluation(
            E(8, "infty"), ((1,),) * 4, method="fast", guard=GuardLimits(max_cells=100)
        )
    assert info.value.cells == 5 * 24


def test_streaming_guards_name_their_limit():
    guard = GuardLimits(max_cells=100, max_bits=20000)
    sig = ((0,), (0,), (1,), (1,))
    with pytest.raises(GuardExceededError, match="guard of 100 cells") as info:
        identities_by_consequences(presentation_for_mode(GradingMode("natural")), sig, guard)
    assert info.value.cells > 100
    prov = ConsequenceProvider(presentation_for_mode(GradingMode("natural")))
    with pytest.raises(GuardExceededError, match="guard of 100 cells") as info:
        tideal_product(prov, prov, sig, guard=guard)
    assert info.value.cells > 100


def test_consequence_guard_bounds_the_column_basis_first():
    """n x n! is checked before any shorter component is computed: at length
    5 and 500 cells the length-4 elimination (23 rows of 24 columns) would
    trip too, but the basis guard names the length that was asked for."""
    sig = tuple((d,) for d in (0, 1, 0, 1, 1))
    with pytest.raises(GuardExceededError) as info:
        identities_by_consequences(presentation_for_mode(GradingMode("natural")), sig, GuardLimits(max_cells=500))
    assert str(info.value).startswith("multilinear column basis: 5 rows of 120 columns")


def test_consequence_guard_counts_kept_rows_not_streamed_rows():
    # the spanning set's 18,144 rows x 720 columns exceed the default
    # 8,000,000 cells. The route feeds 3,228 rows instead: the covering
    # substitutions, and the stored rows of the length-5 components with a
    # letter put on either side. The guard counts only the 719 kept rows.
    sig = ((0,), (0,), (0,), (1,), (1,), (1,))
    comp = identities_by_consequences(presentation_for_mode(GradingMode("natural")), sig, DEFAULT_GUARD)
    assert comp.space.dim == 719
    assert comp.meta["rows"] * 720 > DEFAULT_GUARD.max_cells


def test_multidegree_components_split():
    f = parse_poly("x1*x1*x2 + x2*x1 - 4*x2*x1", TRIVIAL_GROUP)
    comps = multidegree_components(f)
    assert set(comps) == {((1, 2), (2, 1)), ((1, 1), (2, 1))}
    total = sum(comps.values(), parse_poly("0", TRIVIAL_GROUP))
    assert total == f


def test_full_multilinearization_identity_preservation():
    """f is an identity iff its polarization is (checked on E, char 0)."""
    alg = E(8, "natural")
    f = parse_poly("z1*z1", Z2)  # odd square, an identity of E
    lin, sig = full_multilinearization(f, Z2)
    comp = identities_by_evaluation(alg, sig)
    assert membership(lin, comp)
    g = parse_poly("y1*y1", Z2)  # even square is not
    lin2, sig2 = full_multilinearization(g, Z2)
    comp2 = identities_by_evaluation(alg, sig2)
    assert not membership(lin2, comp2)


def test_truncated_backend_agrees_with_normal_forms():
    """Congruence modulo T(E) matches the rewriting engine's verdicts."""
    from gradedpi.relfree import normal_form

    for kind, mode in [("natural", GradingMode("natural")), ("infty", GradingMode("infty"))]:
        alg = E(10, kind)
        backend = TruncatedQuotientBackend(alg, max_degree=4)
        samples = [
            "z1*z2 + z2*z1",
            "[y1, y2]",
            "z1*z2*z3 - z3*z2*z1",
            "[y1, z2]",
            "z1*y2*z3 + z3*y2*z1",
            "y1*y2 - y2*y1 + z3*z4",
        ]
        for text in samples:
            f = parse_poly(text, Z2)
            assert backend.is_zero(f) == normal_form(f, mode).is_zero(), (kind, text)


def test_truncated_backend_residue_linearity():
    alg = E(8, "natural")
    backend = TruncatedQuotientBackend(alg, max_degree=4)
    f = parse_poly("z1*z2", Z2)
    g = parse_poly("z2*z1", Z2)
    assert backend.congruent(f, -1 * g)
    assert backend.is_zero(f + g)
    assert not backend.is_zero(f - g)
    # mixed degrees split and reassemble
    h = parse_poly("z1*z2 + z2*z1 + [y3, y4]", Z2)
    assert backend.is_zero(h)
    # a constant term is a component of its own, and no identity
    c = parse_poly("3 + z1*z2 + z2*z1", Z2)
    assert backend.residue(c) == {(): ((0, 3),)}
    assert backend.congruent(c, parse_poly("3", Z2))


def test_truncated_backend_degree_bound():
    alg = E(6, "natural")
    backend = TruncatedQuotientBackend(alg, max_degree=2)
    with pytest.raises(TruncationError):
        backend.is_zero(parse_poly("z1*z2*z3", Z2))
    with pytest.raises(MalformedElementError):
        TruncatedQuotientBackend(alg, max_degree=0)


def test_identity_subspace_validates_ambient():
    with pytest.raises(MalformedElementError):
        IdentitySubspace(((1,), (1,)), Z2, Subspace(3, (), ()))


def test_basis_polynomials_round_trip():
    alg = E(8, "natural")
    comp = identities_by_evaluation(alg, ((1,), (1,)))
    polys = comp.basis_polynomials()
    assert len(polys) == comp.dim
    assert format_poly(polys[0], style="yz") == "z1*z2 + z2*z1"
    for p in polys:
        assert membership(p, comp)


def test_presentation_validation():
    with pytest.raises(MalformedElementError):
        TIdealPresentation((parse_poly("x1*x1", TRIVIAL_GROUP),), TRIVIAL_GROUP)
    with pytest.raises(MalformedElementError):
        TIdealPresentation((parse_poly("x1*x2 - x1", TRIVIAL_GROUP),), TRIVIAL_GROUP)
    with pytest.raises(MalformedElementError):
        TIdealPresentation((parse_poly("0", TRIVIAL_GROUP),), TRIVIAL_GROUP)
