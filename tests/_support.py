"""Shared test helpers: a dense rational Gauss-Jordan oracle used to
cross-check the sparse row reduction, the direct evaluation-row
enumeration and per-kind pattern table used to cross-check
grassmann_fast_rows and parity_patterns, graded substitution and the
consequence rows built by it, used to cross-check
identities_by_consequences, the polynomial-product rows used to
cross-check tideal_product, the
randrange-drawn construction self-check used to cross-check
StructureConstantAlgebra._check, the leftmost-pair rewriting used to
cross-check relfree's straightening, plus small conversion utilities."""

import itertools
from fractions import Fraction


def dense_rref(rows, n_cols):
    """Textbook Gauss-Jordan over Fraction.

    rows may be dicts {col: value} or full-length sequences. Returns
    (rref_rows, pivot_columns) with rref_rows a list of dense lists.
    """
    mat = []
    for r in rows:
        if isinstance(r, dict):
            mat.append([Fraction(r.get(j, 0)) for j in range(n_cols)])
        else:
            mat.append([Fraction(x) for x in r])
    pivots = []
    lead = 0
    for col in range(n_cols):
        pr = None
        for i in range(lead, len(mat)):
            if mat[i][col]:
                pr = i
                break
        if pr is None:
            continue
        mat[lead], mat[pr] = mat[pr], mat[lead]
        pv = mat[lead][col]
        mat[lead] = [x / pv for x in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def dense_kernel(rows, n_cols):
    """Kernel basis from the RREF: one vector per free column."""
    rref, pivots = dense_rref(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for j in range(n_cols):
        if j in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[j] = Fraction(1)
        for r, pc in zip(rref, pivots):
            v[pc] = -r[j]
        basis.append(v)
    return basis


def dense_rows(rows, n_cols):
    """Canonical row-space form as a hashable tuple of dense tuples."""
    rref, _ = dense_rref(rows, n_cols)
    return tuple(tuple(r) for r in rref)


def subspace_dense(space):
    """Expand a sparse Subspace into dense row tuples."""
    out = []
    for row in space.rows:
        d = dict(row)
        out.append(tuple(d.get(j, Fraction(0)) for j in range(space.ambient_dim)))
    return tuple(out)


def row_dict(row):
    return {c: v for c, v in row}


# -- evaluation-row oracle ------------------------------------------------------


def inversion_sign(seq):
    """(-1)^(inversions of seq), by counting every out-of-order pair."""
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return -1 if inv % 2 else 1


def _reference_pools(gspec, limit):
    """(degree-1 pool, degree-0 pool) per grading kind; None = unbounded."""
    n = gspec.n_generators
    kind = gspec.deg_kind
    if kind == "natural":
        return (None, 0) if limit else (n, 0)
    if kind == "infty":
        return (None, None) if limit else ((n + 1) // 2, n // 2)
    if kind == "kstar":
        return (gspec.k, None) if limit else (min(gspec.k, n), max(0, n - gspec.k))
    if kind == "trivial":
        return (0, None) if limit else (0, n)
    ones = sum(gspec.explicit)
    return (ones, n - ones)  # explicit: the algebra is its own limit


def _reference_block_cost(gspec, deg, parity):
    """(degree-1, degree-0) generators one position uses; None when the
    natural grading cannot give its degree that parity."""
    if gspec.deg_kind == "trivial":
        return (0, parity)
    d = deg[0]
    if gspec.deg_kind == "natural":
        return (d, 0) if d == parity else None
    return (d, (parity - d) % 2)


def reference_parity_patterns(gspec, sig, limit=False):
    """spaces.parity_patterns by a per-kind table of pools and costs, with
    the natural grading's parity-degree conflict as its own rule."""
    from gradedpi.errors import TruncationError

    def fits(need, sizes):
        return all(s is None or x <= s for x, s in zip(need, sizes))

    now_sizes = _reference_pools(gspec, limit=False)
    lim_sizes = _reference_pools(gspec, limit=True)
    used = []
    for pattern in itertools.product((0, 1), repeat=len(sig)):
        costs = [_reference_block_cost(gspec, d, p) for d, p in zip(sig, pattern)]
        if any(c is None for c in costs):
            continue
        need = (sum(c[0] for c in costs), sum(c[1] for c in costs))
        if limit and not fits(need, lim_sizes):
            continue
        if not fits(need, now_sizes):
            if limit:
                raise TruncationError(
                    f"signature {sig}, parity pattern {pattern} needs {need[0]} "
                    f"degree-1 and {need[1]} degree-0 generators; rebuild the "
                    f"algebra with a larger truncation than {gspec.n_generators}"
                )
            continue
        used.append(pattern)
    return used


def reference_fast_rows(algebra, sig, limit=False):
    """grassmann_fast_rows by the direct enumeration: for every used parity
    pattern, every tuple of matrix units and every permutation monomial,
    test the chain for composability and bucket its column by (start row,
    end column). |positions|^n * n! chain tests per pattern; the library
    finds the same column sets once from the composable walks. Every row
    is listed as sorted (col, value) pairs, repeats included.

    The pattern selection (reference_parity_patterns), the row enumeration
    and the pattern signs (an inversion count, not freealg.sort_sign) are
    all independent of the library's.
    """
    from gradedpi.algebras import BlockShape
    from gradedpi.freealg import multilinear_monomials, validate_signature

    meta = algebra.meta
    if meta["kind"] == "grassmann":
        gspec, positions = meta["gspec"], None
    else:
        gspec = meta["entries"].meta["gspec"]
        positions = BlockShape(tuple(meta["shape"])).positions()
    sig = validate_signature(sig, algebra.group)
    n = len(sig)
    perms = multilinear_monomials(n)
    rows = []
    for pattern in reference_parity_patterns(gspec, sig, limit):
        signs = [inversion_sign([v for v in perm if pattern[v - 1]]) for perm in perms]
        if positions is None:
            candidates = [{col: Fraction(s) for col, s in enumerate(signs)}]
        else:
            candidates = []
            for units in itertools.product(positions, repeat=n):
                buckets = {}
                for col, perm in enumerate(perms):
                    seq = [units[v - 1] for v in perm]
                    if all(seq[t][1] == seq[t + 1][0] for t in range(n - 1)):
                        key = (seq[0][0], seq[-1][1])
                        buckets.setdefault(key, {})[col] = Fraction(signs[col])
                candidates.extend(buckets.values())
        rows.extend(tuple(sorted(row.items())) for row in candidates)
    return rows, {"semantics": "limit" if limit else "truncated"}


# -- acceptance commands ---------------------------------------------------------

# the generator file read by one of the acceptance commands
ACCEPTANCE_GENERATORS = "[[x1, x2], x3]\n"


def acceptance_commands(generators_path):
    """Criterion 11's command lines (argv after "gradedpi"); the one that
    reads T-ideal generators takes them from generators_path."""
    return [
        ["identities", "--algebra", "grassmann:N=10,deg=infty",
         "--sig", "0,1,1,0", "--method", "limit", "--basis"],
        ["identities", "--generators", generators_path, "--group", "1", "--sig", "0,0,0,0"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=natural",
         "--sweep", "2", "--bordered"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=kstar,k=1",
         "--sig", "1,1"],
        ["factor-check", "--shape", "2,2", "--entries", "field",
         "--targets", "0,1,0,1", "--group", "2", "--sweep", "2"],
        ["model", "eval", "--shape", "1,1", "--mode", "natural",
         "--poly", "[y1, y2]*[y3, y4]"],
        ["relfree", "nf", "--mode", "infty", "--poly", "z1*z2 + z2*z1"],
        ["relfree", "multbasis", "--mode", "kstar:1",
         "--bound", "4", "--samples", "60", "--seed", "7"],
        ["regularity", "--group", "2", "--targets", "0,1"],
    ]


# -- acceptance reporting ------------------------------------------------------

# Populated by test_acceptance.py; conftest prints one line per criterion in
# the terminal summary so every run shows an explicit PASS/FAIL verdict even
# for criteria whose test crashed before finishing.
ACCEPTANCE_STATUS = {}


def acceptance_start(num, label):
    ACCEPTANCE_STATUS[num] = f"FAIL {num:>2}  {label} (did not complete)"


def acceptance_pass(num, label, elapsed, budget=None):
    timing = f"{elapsed:.1f}s" + (f" of {budget:.0f}s allowed" if budget else "")
    ACCEPTANCE_STATUS[num] = f"PASS {num:>2}  {label} ({timing})"


# -- generic-model oracle ----------------------------------------------------------


def word_by_word_model_eval(f, cfg):
    """model_eval by the definition: 1 * xi_{v1} * ... * xi_{vn} for every
    word of f, scaled by its coefficient and summed; one matrix product per
    letter of every word, nothing shared between words."""
    from gradedpi.model import identity_matrix, make_generator, zero_matrix

    gens = {vid: make_generator(vid, deg, cfg) for vid, deg in f.universe.items()}
    acc = zero_matrix(cfg)
    for w, c in f.terms.items():
        m = identity_matrix(cfg)
        for vid in w:
            m = m * gens[vid]
        acc = acc + m.scale(c)
    return acc


# -- straightening oracle ---------------------------------------------------------


def reference_straighten(prefix, tail, mode):
    """The normal form of the word prefix * tail by the leftmost-pair
    rewriting, as {RelFreeWord: int}. Letters are (parity, id) pairs
    ordered as tuples; tail lists commutator letters sorted by id.

    natural: evens are central and odds anticommute. infty: the leftmost
    out-of-order adjacent pair u v becomes v u + [u,v], and [u,v] joins
    the tail, which is alternating in its ids (a repeated id kills the
    word). kstar: the infty rules, and zero above k odd occurrences.
    """
    from gradedpi.freealg import sort_sign
    from gradedpi.relfree import RelFreeWord

    prefix, tail = tuple(prefix), tuple(tail)
    if mode.kind == "kstar" and sum(p for p, _ in prefix + tail) > mode.k:
        return {}
    if mode.kind == "natural":
        assert not tail
        odds = [v for p, v in prefix if p]
        sign = sort_sign(odds)
        evens = tuple(sorted(v for p, v in prefix if not p))
        return {RelFreeWord(evens, tuple(sorted(odds)), ()): sign} if sign else {}

    memo = {}

    def rewrite(prefix, tail):
        key = (prefix, tail)
        if key in memo:
            return memo[key]
        pos = next((i for i in range(len(prefix) - 1) if prefix[i] > prefix[i + 1]), None)
        if pos is None:
            evens = tuple(v for p, v in prefix if not p)
            odds = tuple(v for p, v in prefix if p)
            out = {RelFreeWord(evens, odds, tuple(v for _, v in tail)): 1}
        else:
            u, v = prefix[pos], prefix[pos + 1]
            out = dict(rewrite(prefix[:pos] + (v, u) + prefix[pos + 2 :], tail))
            sign = sort_sign(l[1] for l in tail + (u, v))
            if sign:
                tail2 = tuple(sorted(tail + (u, v), key=lambda l: l[1]))
                for w, c in rewrite(prefix[:pos] + prefix[pos + 2 :], tail2).items():
                    out[w] = out.get(w, 0) + sign * c
            out = {w: c for w, c in out.items() if c}
        memo[key] = out
        return out

    return rewrite(prefix, tail)


def reference_relfree_mul(a, b):
    """relfree_mul(a, b).terms by reference_straighten: the prefixes of two
    words concatenated, their tails merged with the sign of the sort."""
    from gradedpi.freealg import sort_sign

    parities = {**a.parities, **b.parities}
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            prefix = tuple((0, v) for v in wa.evens) + tuple((1, v) for v in wa.odds)
            prefix += tuple((0, v) for v in wb.evens) + tuple((1, v) for v in wb.odds)
            ids = wa.comms + wb.comms
            sign = sort_sign(ids)
            if not sign:
                continue
            tail = tuple((parities[v], v) for v in sorted(ids))
            for w, c in reference_straighten(prefix, tail, a.mode).items():
                out[w] = out.get(w, 0) + ca * cb * sign * c
    return {w: c for w, c in out.items() if c}


def reference_letter_product(mode, x, el, parities):
    """x * el in raw {(evens, odds, comms): c} id tuples, by
    reference_relfree_mul on the word x as it stands, unstraightened (the
    oracle applies the kstar cutoff); parities declares x."""
    from gradedpi.relfree import from_straightened

    letter = ((), (x,), ()) if parities[x] else ((x,), (), ())
    want = reference_relfree_mul(from_straightened(mode, {letter: 1}, parities), el)
    return {(w.evens, w.odds, w.comms): c for w, c in want.items()}


def check_accumulating_step(step, product, others, scale, rng):
    """step(out, scale) must add scale * product into out in place, key for
    key, and leave no zero coefficient. out starts holding the first key of
    product and about a third of the others at the value the step cancels,
    about a fifth at some other value, and the keys of others, which
    product may miss."""
    from gradedpi.linalg import add_scaled

    start = {}
    for n, (key, c) in enumerate(product.items()):
        r = rng.random()
        if n == 0 or r < 0.3:
            start[key] = -scale * c
        elif r < 0.5:
            start[key] = rng.choice([1, -3, Fraction(2, 3)])
    for key in others:
        start.setdefault(key, rng.choice([1, -1, Fraction(1, 3)]))
    out = dict(start)
    step(out, scale)
    assert out == add_scaled(dict(start), product, scale)
    assert all(out.values())
    assert not product or next(iter(product)) not in out  # a key was cancelled


# -- consequence-row oracle -------------------------------------------------------


class GradedSubstitutionError(Exception):
    """A substitution image is not a polynomial homogeneous of the replaced
    variable's degree."""


def substitute(f, images, spec):
    """f with variables replaced by homogeneous polynomials of the same
    degree; unmapped variables are left alone. An image that is not a
    polynomial, or not degree-homogeneous of its variable's degree, raises
    GradedSubstitutionError. Each word of f is multiplied out letter by
    letter into one terms dict."""
    from gradedpi.freealg import NcPolynomial, merge_universes
    from gradedpi.linalg import add_scaled

    universe = {}
    for vid, deg in f.universe.items():
        img = images.get(vid)
        if img is None:
            universe = merge_universes(universe, {vid: deg})
            continue
        if not isinstance(img, NcPolynomial):
            raise GradedSubstitutionError(f"image of x{vid} is not a polynomial")
        if img.is_zero():
            continue
        d = img.homogeneous_degree(spec)
        if d is None or d != tuple(deg):
            raise GradedSubstitutionError(
                f"image of x{vid} must be homogeneous of degree {deg}"
            )
        universe = merge_universes(universe, img.universe)
    terms = {}
    for w, c in f.terms.items():
        pieces = {(): c}
        for vid in w:
            img = images.get(vid)
            image_terms = img.terms if img is not None else {(vid,): 1}
            product = {}
            for w1, c1 in pieces.items():
                add_scaled(product, ((w1 + w2, c2) for w2, c2 in image_terms.items()), c1)
            pieces = product
        add_scaled(terms, pieces)
    return NcPolynomial(terms, universe)


def reference_consequence_rows(presentation, sig):
    """Every row u0 f(m) u1 of the spanning set identities_by_consequences
    spans and counts, by substituting one NcPolynomial word per generator
    variable with substitute, reading off the terms of the result and
    putting every border on it."""
    import math

    from gradedpi.freealg import NcPolynomial, monomial_index, validate_signature
    from gradedpi.spaces import _disjoint_subset_tuples

    spec = presentation.spec
    sig = validate_signature(sig, spec)
    n = len(sig)
    idx = monomial_index(n)
    positions = tuple(range(1, n + 1))
    rows = []
    for f in presentation.generators:
        fvars = sorted(f.universe)
        fdegs = [tuple(f.universe[v]) for v in fvars]
        for subsets, rest in _disjoint_subset_tuples(positions, len(fvars)):
            ok = all(
                spec.sum(sig[p - 1] for p in subsets[j]) == fdegs[j]
                for j in range(len(fvars))
            )
            if not ok:
                continue
            for orders in itertools.product(*(itertools.permutations(s) for s in subsets)):
                images = {
                    fvars[j]: NcPolynomial.word(orders[j], {p: sig[p - 1] for p in orders[j]})
                    for j in range(len(fvars))
                }
                g = substitute(f, images, spec)
                if g.is_zero():
                    continue
                for border in itertools.permutations(rest):
                    for cut in range(len(rest) + 1):
                        u0, u1 = border[:cut], border[cut:]
                        rows.append({idx[u0 + w + u1]: c for w, c in g.terms.items()})
    return rows


# -- product-row oracle -----------------------------------------------------------


def reference_product_rows(left, right, sig, spec, bordered=False):
    """The rows tideal_product streams, in order, by polynomial arithmetic:
    each basis row of a factor's component becomes an NcPolynomial on its
    positions, f * (middle word) * g is multiplied out as NcPolynomials, and
    the row is read back with multilinear_coordinates."""
    from gradedpi.freealg import (
        NcPolynomial,
        multilinear_coordinates,
        poly_from_coordinates,
        validate_signature,
    )

    sig = validate_signature(sig, spec)
    n = len(sig)
    positions = tuple(range(1, n + 1))

    def polys(provider, subset):
        sub_sig = tuple(sig[p - 1] for p in subset)
        rename = {t + 1: subset[t] for t in range(len(subset))}
        return [
            poly_from_coordinates(dict(row), sub_sig, spec).rename_variables(rename)
            for row in provider.component(sub_sig).space.rows
        ]

    def splits():
        for size_l in range(1, n):
            for s in itertools.combinations(positions, size_l):
                rest = tuple(p for p in positions if p not in s)
                if not bordered:
                    yield s, rest, ()
                    continue
                for size_r in range(1, len(rest) + 1):
                    for s2 in itertools.combinations(rest, size_r):
                        yield s, s2, tuple(p for p in rest if p not in s2)

    rows = []
    for s, s2, mid in splits():
        polys_l = polys(left, s)
        if not polys_l:
            continue
        polys_r = polys(right, s2)
        if not polys_r:
            continue
        middles = list(itertools.permutations(mid)) if mid else [()]
        for f in polys_l:
            for g in polys_r:
                for m in middles:
                    prod = f
                    if m:
                        prod = prod * NcPolynomial.word(m, {p: sig[p - 1] for p in m})
                    prod = prod * g
                    rows.append(multilinear_coordinates(prod, sig, spec))
    return rows


def primitive_int_row(row):
    """A sparse rational row as a sorted tuple of (col, int): scaled to
    coprime integers with a positive leading entry."""
    import math

    items = sorted((c, Fraction(v)) for c, v in row.items() if v)
    if not items:
        return ()
    denom = math.lcm(*(v.denominator for _, v in items))
    ints = [(c, int(v * denom)) for c, v in items]
    g = math.gcd(*(v for _, v in ints))
    if ints[0][1] < 0:
        g = -g
    return tuple((c, v // g) for c, v in ints)


# -- construction self-check oracle ---------------------------------------------


def reference_self_check(algebra):
    """StructureConstantAlgebra._check through the public product API: unit
    laws by mul_vectors with basis-vector dicts, degrees by product_basis,
    and indices from random.Random(0xA11CE).randrange. Same passes, bounds
    and messages; raises MalformedElementError on the first failure."""
    import random

    from gradedpi.algebras import (
        CHECK_ASSOC_EXHAUSTIVE_DIM,
        CHECK_PAIR_EXHAUSTIVE_DIM,
        CHECK_SAMPLES,
    )
    from gradedpi.errors import MalformedElementError

    A = algebra
    rng = random.Random(0xA11CE)
    n = A.dim
    for i in range(n):
        e = A.basis_vector(i)
        if A.mul_vectors(A.unit, e) != e or A.mul_vectors(e, A.unit) != e:
            raise MalformedElementError(f"unit law fails at basis element {A.labels[i]!r}")
    distinct = sorted(set(A.degrees))
    deg_id = {d: t for t, d in enumerate(distinct)}
    ids = [deg_id[d] for d in A.degrees]
    want_id = [[deg_id.get(A.group.op(a, b)) for b in distinct] for a in distinct]
    if n <= CHECK_PAIR_EXHAUSTIVE_DIM:
        pairs = itertools.product(range(n), repeat=2)
    else:
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(CHECK_SAMPLES))
    for i, j in pairs:
        want = want_id[ids[i]][ids[j]]
        for k in A.product_basis(i, j):
            if ids[k] != want:
                raise MalformedElementError(
                    f"product {A.labels[i]!r}*{A.labels[j]!r} leaves its degree"
                )
    if n <= CHECK_ASSOC_EXHAUSTIVE_DIM:
        triples = itertools.product(range(n), repeat=3)
    else:
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(CHECK_SAMPLES)
        )
    for i, j, k in triples:
        left = A.mul_vectors(A.product_basis(i, j), A.basis_vector(k))
        right = A.mul_vectors(A.basis_vector(i), A.product_basis(j, k))
        if left != right:
            raise MalformedElementError(
                f"associativity fails on ({A.labels[i]!r},{A.labels[j]!r},{A.labels[k]!r})"
            )
