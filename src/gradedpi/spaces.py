"""Multilinear graded-identity spaces and T-ideal arithmetic.

Identity components are computed two independent ways:

  evaluation  - kernel of the matrix of evaluations at tuples of
                homogeneous basis elements (exact for the given algebra);
                for exterior algebras and block matrices over them a
                provably sufficient reduced row set is used instead of the
                full tuple enumeration
  consequence - row space of all multilinear consequences of a finite
                T-ideal presentation

Both present subspaces of the n!-dimensional multilinear component in the
permutation-monomial coordinates of freealg.multilinear_monomials. Both
evaluation row sets stream their distinct rows into one elimination whose
kernel is the component. On top sit T-ideal products at a multidegree,
factoring verdicts for block-triangular algebras, and a quotient backend
that decides congruence modulo the identities of a finite-dimensional algebra.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from fractions import Fraction

from .algebras import (
    BlockShape,
    GrassmannSpec,
    StructureConstantAlgebra,
    algebra_from_descriptor,
    descriptor_group,
    fast_rows_kind,
    guard_construction,
    homogeneous_indices,
)
from .errors import (
    AmbientMismatchError,
    InternalInconsistencyError,
    MalformedElementError,
    TruncationError,
    UnsupportedFeatureError,
)
from .freealg import (
    NcPolynomial,
    left_normed_commutator,
    monomial_index,
    multilinear_coordinates,
    multilinear_monomials,
    poly_from_coordinates,
    validate_signature,
    yvar,
    zvar,
)
from .groups import TRIVIAL_GROUP, Z2, GroupSpec
from .linalg import (
    DEFAULT_GUARD,
    GuardLimits,
    RowReducer,
    Subspace,
    add_scaled,
    cells_guard,
    contains,
    integral,
    kernel_basis,
    reduce_vector,
)


class IdentitySubspace:
    """A subspace of the multilinear component at a fixed signature."""

    __slots__ = ("signature", "spec", "space", "meta")

    def __init__(self, signature, spec: GroupSpec, space: Subspace, meta=None):
        self.signature = validate_signature(signature, spec)
        self.spec = spec
        n = len(self.signature)
        if space.ambient_dim != math.factorial(n):
            raise MalformedElementError(
                f"ambient {space.ambient_dim} != {n}! for a length-{n} signature"
            )
        self.space = space
        self.meta = dict(meta or {})

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_polynomials(self) -> list:
        return [
            poly_from_coordinates(dict(row), self.signature, self.spec)
            for row in self.space.rows
        ]

    def __repr__(self):
        return f"IdentitySubspace(sig={self.signature}, dim={self.dim})"


@dataclass(frozen=True)
class TIdealPresentation:
    """Finite list of multilinear generators of a T-ideal."""

    generators: tuple
    spec: GroupSpec
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for f in self.generators:
            if not isinstance(f, NcPolynomial) or f.is_zero():
                raise MalformedElementError("generators must be nonzero polynomials")
            base = None
            for w in f.terms:
                ids = tuple(sorted(w))
                if len(set(ids)) != len(ids):
                    raise MalformedElementError("generators must be multilinear")
                if base is None:
                    base = ids
                elif ids != base:
                    raise MalformedElementError(
                        "all words of a generator must use the same variables"
                    )


# -- evaluation route --------------------------------------------------------


def guard_column_basis(n: int, guard: GuardLimits) -> None:
    """Bound the n x n! cells of the monomial basis of a length-n component
    by the guard's max_cells, before the basis is built."""
    cells_guard(n, math.factorial(n), guard, "multilinear column basis")


def _multilinear_basis(n: int, guard: GuardLimits) -> tuple:
    """The n! monomials that index the columns of a length-n component,
    built only once guard_column_basis passes."""
    guard_column_basis(n, guard)
    return multilinear_monomials(n)


def _full_rows(algebra: StructureConstantAlgebra, sig, guard: GuardLimits):
    """Evaluation rows from every tuple of homogeneous basis elements, as a
    stream of sorted (col, value) pairs, one per tuple and basis coordinate."""
    n = len(sig)
    comps = [homogeneous_indices(algebra, d) for d in sig]
    n_tuples = math.prod(len(c) for c in comps)
    cells_guard(n_tuples, math.factorial(n), guard, "evaluation kernel, estimated")
    perms = _multilinear_basis(n, guard)

    def rows():
        for tup in itertools.product(*comps):
            by_coord = {}
            for col, perm in enumerate(perms):
                vec = algebra.basis_vector(tup[perm[0] - 1])
                for vid in perm[1:]:
                    vec = algebra.times_basis(vec, tup[vid - 1])
                    if not vec:
                        break
                for k, c in vec.items():
                    by_coord.setdefault(k, {})[col] = c
            for row in by_coord.values():
                yield tuple(sorted(row.items()))

    return rows(), {"tuples": n_tuples}


def default_truncation(n_total: int, gspec: GrassmannSpec) -> int:
    # every parity pattern at length n_total fits, so the limit rows at
    # this level never raise
    return 2 * n_total + (gspec.k if gspec.deg_kind == "kstar" else 0)


def _pool_sizes(gspec: GrassmannSpec, limit: bool):
    """(degree-1 pool, degree-0 pool) generator counts; None = unbounded."""
    kind = gspec.deg_kind
    if limit and kind != "explicit":  # explicit: the algebra is its own limit
        return {
            "natural": (None, 0),
            "infty": (None, None),
            "kstar": (gspec.k, None),
            "trivial": (0, None),
        }[kind]
    ones = sum(map(gspec.generator_parity, range(1, gspec.n_generators + 1)))
    return (ones, gspec.n_generators - ones)


def _fits(need, sizes) -> bool:
    return all(s is None or x <= s for x, s in zip(need, sizes))


def parity_patterns(gspec: GrassmannSpec, sig, limit: bool = False) -> list:
    """Parity patterns, each position's monomial length parity, of the fast
    rows of E_N or matrices over it at a validated signature. A position of
    degree d (0 over the trivial group) and parity p costs d degree-1
    generators and (p - d) mod 2 degree-0 ones; a pattern is used when its
    total cost fits the pools. With limit, patterns no N realizes are
    dropped, and one needing more generators than this N raises
    TruncationError."""
    now_sizes = _pool_sizes(gspec, limit=False)
    lim_sizes = _pool_sizes(gspec, limit=True)
    degs = [d[0] if d else 0 for d in sig]
    used = []
    for pattern in itertools.product((0, 1), repeat=len(sig)):
        need = (sum(degs), sum((p - d) % 2 for d, p in zip(degs, pattern)))
        if limit and not _fits(need, lim_sizes):
            continue
        if not _fits(need, now_sizes):
            if limit:
                raise TruncationError(
                    f"signature {sig}, parity pattern {pattern} needs {need[0]} "
                    f"degree-1 and {need[1]} degree-0 generators; rebuild the "
                    f"algebra with a larger truncation than {gspec.n_generators}"
                )
            continue
        used.append(pattern)
    return used


def _unit_chain_columns(positions, perms, guard: GuardLimits) -> list:
    """Column sets of the matrix-unit rows, in unit-tuple sweep order.

    A monomial evaluated at matrix units is nonzero exactly when the units,
    read in the monomial's order, form a composable walk. Each (monomial,
    walk) pair fixes the unit tuple, so the columns of one (unit tuple,
    start row, end column) are found from the walks alone. Sorted by
    (unit-index tuple, first column): the order of a lexicographic sweep
    over unit tuples with columns bucketed by first appearance.
    """
    n = len(perms[0])
    ends = {p: 1 for p in positions}  # walks of the current length, by last unit
    for _ in range(n - 1):
        ends = {q: sum(c for p, c in ends.items() if p[1] == q[0]) for q in positions}
    cells_guard(sum(ends.values()), len(perms), guard, "unit walks by monomials")
    index = {p: i for i, p in enumerate(positions)}
    walks = [(p,) for p in positions]
    for _ in range(n - 1):
        walks = [w + (q,) for w in walks for q in positions if q[0] == w[-1][1]]
    walks = [
        (tuple(index[p] for p in w), w[0][0], w[-1][1]) for w in walks
    ]
    groups = {}
    for col, perm in enumerate(perms):
        slot = [0] * n  # slot[v-1]: where variable v sits in the monomial
        for t, v in enumerate(perm):
            slot[v - 1] = t
        for units, start, end in walks:
            key = (tuple(units[t] for t in slot), start, end)
            groups.setdefault(key, []).append(col)
    return [
        cols
        for _, cols in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[1][0]))
    ]


def grassmann_fast_rows(
    gspec: GrassmannSpec,
    shape: BlockShape,
    sig,
    limit: bool = False,
    guard: GuardLimits = DEFAULT_GUARD,
):
    """Reduced evaluation row set for block matrices of a shape over E_N,
    with E_N itself as shape (1,), read off the exterior spec and the shape
    alone: no algebra is built, and the group is gspec.group().

    Substituting pairwise-disjoint-support monomials is enough: a tuple
    with overlapping supports evaluates every monomial to zero, and for
    disjoint supports the scalar row depends only on the tuple's
    length-parity pattern (and, over matrices, the tuple of matrix units
    and the start-row/end-column of the composed chain), up to one global
    sign that does not move the kernel. One row per achievable combination
    therefore cuts the same kernel as the full enumeration.

    Only composable unit chains contribute (E_N counts as 1 x 1 matrices
    over itself, with one chain through all n! columns), and a row's
    column set does not depend on the pattern, which only sets the signs.
    The column sets are found once per signature from the composable walks
    of n matrix units, at cost O(walks * n!); each used pattern then signs
    them, at cost O(patterns * rows). The guard bounds the n x n! column
    basis and walks x n! before the first row; the rows, repeats included,
    stream lazily into a reducer that bounds the rows it keeps.

    With limit=True the rows describe the untruncated algebra, with the
    patterns parity_patterns selects for it.
    """
    sig = validate_signature(sig, gspec.group())
    perms = _multilinear_basis(len(sig), guard)
    column_sets = _unit_chain_columns(shape.positions(), perms, guard)
    used = parity_patterns(gspec, sig, limit)
    # per used pattern, each column's sign of sorting the odd-parity blocks
    # back to ascending order: the parity of the column's inversions among
    # pairs of odd variables, one bit per variable pair; then one row per
    # column set
    pairs = itertools.combinations(range(1, len(sig) + 1), 2)
    pair_bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    inversions = [
        sum(pair_bit[b, a] for t, a in enumerate(perm) for b in perm[t + 1 :] if b < a)
        for perm in perms
    ]
    odd_pairs = (
        sum(bit for (a, b), bit in pair_bit.items() if p[a - 1] and p[b - 1]) for p in used
    )
    signs = (
        [-1 if (inv & mask).bit_count() & 1 else 1 for inv in inversions] for mask in odd_pairs
    )
    rows = (tuple((col, s[col]) for col in cols) for s in signs for cols in column_sets)
    return rows, {"semantics": "limit" if limit else "truncated"}


def _evaluation_component(
    rows, info: dict, sig, spec: GroupSpec, method: str, guard: GuardLimits
) -> IdentitySubspace:
    """The kernel of an evaluation row stream, as the component at sig.

    The distinct rows stream into kernel_basis, one elimination; a row
    whose negation was fed before spans nothing new and is not fed. The
    rows meta counts the distinct signed rows.
    """
    meta = {"route": "evaluation", "method": method}

    def distinct():
        seen = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                if tuple([(c, -v) for c, v in row]) not in seen:
                    yield row
        meta["rows"] = len(seen)

    space = kernel_basis(distinct(), math.factorial(len(sig)), guard)
    return IdentitySubspace(sig, spec, space, {**meta, **info})


def identities_by_evaluation(
    algebra: StructureConstantAlgebra,
    sig,
    method: str = "auto",
    guard: GuardLimits = DEFAULT_GUARD,
) -> IdentitySubspace:
    """Multilinear identity component of an algebra at a signature, by
    EvaluationProvider's rows for the method (see there)."""
    return EvaluationProvider(algebra, method, guard=guard).component(sig)


# -- consequence route -------------------------------------------------------


def triple_commutator_generators(spec: GroupSpec) -> list:
    """[[x1,x2],x3] in every degree assignment over the group."""
    out = []
    for degs in itertools.product(spec.elements(), repeat=3):
        factors = [NcPolynomial.variable(i + 1, degs[i]) for i in range(3)]
        out.append(left_normed_commutator(factors))
    return out


def presentation_trivial_grassmann() -> TIdealPresentation:
    """Ungraded exterior-algebra identities: the triple commutator."""
    return TIdealPresentation(
        tuple(triple_commutator_generators(TRIVIAL_GROUP)),
        TRIVIAL_GROUP,
        name="triple-commutator",
    )


def presentation_for_mode(mode) -> TIdealPresentation:
    """The identities of the exterior algebra graded as the mode says.

    natural: supercommutativity, even variables central and odd ones
    anticommuting. infty: the Z2 triple commutators. kstar:k: those plus
    the product of k + 1 odd variables.
    """
    if mode.kind == "natural":
        gens = [
            left_normed_commutator([yvar(1), yvar(2)]),
            left_normed_commutator([yvar(1), zvar(2)]),
            zvar(1) * zvar(2) + zvar(2) * zvar(1),
        ]
    else:
        gens = triple_commutator_generators(Z2)
    if mode.kind == "kstar":
        odd = range(1, mode.k + 2)
        gens.append(NcPolynomial.word(tuple(odd), {i: (1,) for i in odd}))
    return TIdealPresentation(gens, Z2, name=mode.token())


def _disjoint_subset_tuples(pool: tuple, m: int):
    """Ordered tuples of m disjoint nonempty subsets of pool, plus the rest."""
    if m == 0:
        yield (), pool
        return
    for size in range(1, len(pool) - m + 2):
        for comb in itertools.combinations(pool, size):
            rest = tuple(v for v in pool if v not in comb)
            for tail, remaining in _disjoint_subset_tuples(rest, m - 1):
                yield (comb,) + tail, remaining


def _generator_terms(presentation: TIdealPresentation) -> dict:
    """Per arity, each generator as its variables' degrees and its terms as
    (variable slots, coefficient), an int when integral."""
    by_arity = {}
    for f in presentation.generators:
        fvars = sorted(f.universe)
        slot = {v: j for j, v in enumerate(fvars)}
        fterms = [(tuple(slot[v] for v in w), integral(c)) for w, c in f.terms.items()]
        fdegs = tuple(tuple(f.universe[v]) for v in fvars)
        by_arity.setdefault(len(fvars), []).append((fdegs, fterms))
    return by_arity


def _subset_degrees(spec: GroupSpec, sig) -> dict:
    """The degree of every nonempty position subset, keyed as
    _disjoint_subset_tuples yields the subsets (ascending tuples)."""
    positions = range(1, len(sig) + 1)
    return {
        s: spec.sum(sig[p - 1] for p in s)
        for size in range(1, len(sig) + 1)
        for s in itertools.combinations(positions, size)
    }


def _spanning_row_count(by_arity: dict, spec: GroupSpec, sig) -> int:
    """The rows u0 f(m) u1 of the whole spanning set at sig: per ordered
    tuple of blocks and matching generator, prod |b_i|! monomial orders,
    each with (|rest| + 1)! border placements. No f(m) vanishes, since a
    generator's words share their variables and the blocks are disjoint."""
    degree = _subset_degrees(spec, sig)
    positions = tuple(range(1, len(sig) + 1))
    n_rows = 0
    for k, gens in by_arity.items():
        matching = Counter(fdegs for fdegs, _ in gens)
        for blocks, rest in _disjoint_subset_tuples(positions, k):
            count = matching[tuple(degree[b] for b in blocks)]
            if count:
                orders = math.prod(math.factorial(len(b)) for b in blocks)
                n_rows += count * orders * math.factorial(len(rest) + 1)
    return n_rows


def _placed_words(positions) -> list:
    """The words of multilinear_monomials(len(positions)), by column, with
    variable v put at positions[v - 1]; the empty word for no positions."""
    if not positions:
        return [()]
    return [tuple(positions[v - 1] for v in w) for w in multilinear_monomials(len(positions))]


def _consequence_reducer(
    by_arity: dict, spec: GroupSpec, sig, guard: GuardLimits, memo: dict
) -> RowReducer:
    """Elimination of the component at sig. For every position x it feeds
    the stored primitive rows of I(P\\x)'s elimination with x put after
    them, then before them; memo maps each sorted degree sequence to those
    rows, computed on first use, and the component on P\\x is renamed
    from it by matching positions in (degree, position) order. The rows
    f(m) whose monomials cover every position come last, each g = f(m)
    once up to sign: the bordered rows bring most of the rank, so fewer
    covering rows need clearing."""
    n = len(sig)
    idx = monomial_index(n)
    reducer = RowReducer(len(idx), guard)
    positions = tuple(range(1, n + 1))
    for x in positions:
        # variable j of the sorted shorter signature is position order[j - 1]
        order = sorted((p for p in positions if p != x), key=lambda p: (sig[p - 1], p))
        sub = tuple(sig[p - 1] for p in order)
        rows = memo.get(sub)
        if rows is None:
            sub_reducer = _consequence_reducer(by_arity, spec, sub, guard, memo)
            rows = memo[sub] = tuple(sub_reducer.pivot_rows.values())
        if not rows:
            continue
        words = _placed_words(order)
        for cols in ([idx[w + (x,)] for w in words], [idx[(x,) + w] for w in words]):
            for row in rows:
                reducer.add({cols[c]: v for c, v in row})
    degree = _subset_degrees(spec, sig)
    seen = set()  # each covering g fed, its first coefficient positive
    for k, gens in by_arity.items():
        if not k:
            continue  # a constant covers no position; it enters through memo[()]
        # the last block of a covering family is what the first k - 1 leave
        for head, last in _disjoint_subset_tuples(positions, k - 1):
            if not last:
                continue
            blocks = head + (last,)
            degs = tuple(degree[b] for b in blocks)
            for fdegs, fterms in gens:
                if degs != fdegs:
                    continue
                for orders in itertools.product(*(itertools.permutations(b) for b in blocks)):
                    # distinct words of f stay distinct: the blocks are disjoint
                    row = sorted(
                        (idx[sum((orders[j] for j in slots), ())], c) for slots, c in fterms
                    )
                    if row[0][1] < 0:
                        row = [(col, -c) for col, c in row]
                    row = tuple(row)
                    if row not in seen:
                        seen.add(row)
                        reducer.add(row)
    return reducer


def identities_by_consequences(
    presentation: TIdealPresentation, sig, guard: GuardLimits = DEFAULT_GUARD
) -> IdentitySubspace:
    """Span of the multilinear consequences u0 f(m_1..m_k) u1 at sig.

    m_i runs over monomials in disjoint nonempty variable subsets whose
    degrees match f's variables; u0, u1 over the two halves of every
    ordering of the remaining variables. A T-ideal is a two-sided ideal
    closed under degree-preserving renaming of variables, so with P the
    positions of sig

        I(P) = span{f(m) : the m_i cover P} + sum over x of (I(P\\x) x + x I(P\\x)):

    a row whose u1 ends in x lies in I(P\\x) x, and one with u1 empty and
    u0 starting with x in x I(P\\x). So only the covering substitutions
    are built at sig, and the shorter components give the rest (see
    _consequence_reducer). meta "rows" counts the whole spanning set
    u0 g u1, in closed form. The guard bounds n x n! before any shorter
    component is computed; each elimination, at sig or shorter, bounds
    the rows it keeps.
    """
    spec = presentation.spec
    sig = validate_signature(sig, spec)
    guard_column_basis(len(sig), guard)  # before any shorter level
    by_arity = _generator_terms(presentation)
    # the length-0 component: the constant generators, if there are any
    memo = {(): (((0, 1),),) if 0 in by_arity else ()}
    space = _consequence_reducer(by_arity, spec, sig, guard, memo).finish()
    meta = {
        "route": "consequences",
        "rows": _spanning_row_count(by_arity, spec, sig),
        "presentation": presentation.name,
    }
    return IdentitySubspace(sig, spec, space, meta)


# -- providers and T-ideal products ------------------------------------------


class _ComponentCache:
    """component(sig): a subclass's _compute(sig), run once per signature."""

    def __init__(self, spec: GroupSpec, guard: GuardLimits):
        self.spec = spec
        self.guard = guard
        self._cache = {}

    def component(self, sig) -> IdentitySubspace:
        key = validate_signature(sig, self.spec)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._compute(key)
        return out


class EvaluationProvider(_ComponentCache):
    """Identity components of one algebra by evaluation, cached per signature.

    source is a built algebra or a canonical descriptor; a built algebra's
    descriptor is its meta. fast_rows_kind of the descriptor settles whether
    the fast rows apply: to E_N and block matrices over E_N, not to an
    algebra made by the constructor alone (meta {}). method is resolved once,
    into self.method: "full" enumerates all homogeneous basis tuples; "fast"
    uses the reduced Grassmann row set (same kernel, same algebra); "limit"
    the reduced rows with untruncated semantics, i.e. the identities of the
    infinite-generator algebra this one truncates; "auto" is fast where the
    fast rows apply, else full. Fast and limit rows are read off the exterior
    spec and the block shape, with nothing built. Full rows from a
    descriptor are bounded by guard_construction when the provider is made,
    and the algebra is built once, on the first component.
    """

    def __init__(self, source, method: str = "auto", *, guard: GuardLimits = DEFAULT_GUARD):
        built = isinstance(source, StructureConstantAlgebra)
        desc = source.meta if built else source
        super().__init__(source.group if built else descriptor_group(desc), guard)
        self._fast = fast_rows_kind(desc)
        if method == "auto":
            method = "full" if self._fast is None else "fast"
        if method in ("fast", "limit"):
            if self._fast is None:
                raise UnsupportedFeatureError(
                    "fast evaluation rows need an exterior algebra or matrices over one"
                )
        elif method != "full":
            raise MalformedElementError(f"unknown evaluation method {method!r}")
        elif not built:
            guard_construction(desc, guard)
        self.method = method
        self._source = source

    def _compute(self, sig) -> IdentitySubspace:
        if self.method == "full":
            if not isinstance(self._source, StructureConstantAlgebra):
                self._source = algebra_from_descriptor(self._source)
            rows, info = _full_rows(self._source, sig, self.guard)
        else:
            rows, info = grassmann_fast_rows(
                *self._fast, sig, self.method == "limit", self.guard
            )
        return _evaluation_component(rows, info, sig, self.spec, self.method, self.guard)


class ConsequenceProvider(_ComponentCache):
    """Components of a finitely generated T-ideal, cached per signature."""

    def __init__(self, presentation: TIdealPresentation, guard: GuardLimits = DEFAULT_GUARD):
        super().__init__(presentation.spec, guard)
        self.presentation = presentation

    def _compute(self, sig) -> IdentitySubspace:
        return identities_by_consequences(self.presentation, sig, self.guard)


def _shared_group(providers) -> GroupSpec:
    """The one group that every provider is graded by."""
    specs = {p.spec for p in providers}
    if len(specs) != 1:
        raise AmbientMismatchError(
            f"providers over different groups: {sorted(s.orders for s in specs)}"
        )
    return specs.pop()


def _component_terms(provider, positions, sig):
    """Basis of the provider's component on a position subset: per row, its
    (word over those positions, coefficient) pairs."""
    rows = provider.component(tuple(sig[p - 1] for p in positions)).space.rows
    words = _placed_words(positions)
    return [[(words[col], c) for col, c in row] for row in rows]


def tideal_product(
    left, right, sig, *, bordered: bool = False, guard: GuardLimits = DEFAULT_GUARD
) -> IdentitySubspace:
    """Multilinear component of the ideal product T1*T2 at a signature,
    over the group the two providers share.

    In characteristic zero this is the sum over nonempty proper position
    subsets S of (T1's component on S)*(T2's component on the complement);
    plain two-sided products suffice since T1 is a right ideal and T2 a
    left one. bordered=True recomputes the same space from the redundant
    spanning set f*(middle monomial)*g as a cross-check. Each row is built
    by concatenating words: f, the middle and g sit on disjoint positions,
    so no two terms of a product share a word.
    """
    spec = _shared_group((left, right))
    sig = validate_signature(sig, spec)
    n = len(sig)
    reducer = RowReducer(len(_multilinear_basis(n, guard)), guard)
    idx = monomial_index(n)
    positions = tuple(range(1, n + 1))
    n_rows = 0
    for size in range(1, n):
        for s in itertools.combinations(positions, size):
            rows_l = _component_terms(left, s, sig)
            if not rows_l:
                continue
            rest = tuple(p for p in positions if p not in s)
            # plain: g on all the rest; bordered: g on any nonempty part of
            # it, the other positions in every order between f and g
            for size_r in range(1, len(rest) + 1) if bordered else (len(rest),):
                for s2 in itertools.combinations(rest, size_r):
                    rows_r = _component_terms(right, s2, sig)
                    if not rows_r:
                        continue
                    middles = list(itertools.permutations(p for p in rest if p not in s2))
                    for f, g, m in itertools.product(rows_l, rows_r, middles):
                        n_rows += 1
                        reducer.add({idx[wf + m + wg]: cf * cg for wf, cf in f for wg, cg in g})
    space = reducer.finish()
    meta = {"route": "product", "bordered": bordered, "rows": n_rows}
    return IdentitySubspace(sig, spec, space, meta)


class ProductProvider(_ComponentCache):
    """Left-associated iterated T-ideal product of component providers
    over one group."""

    def __init__(self, factors, *, bordered: bool = False, guard: GuardLimits = DEFAULT_GUARD):
        factors = list(factors)
        if len(factors) < 2:
            raise MalformedElementError("a product needs at least two factors")
        super().__init__(_shared_group(factors), guard)
        self.bordered = bordered
        if len(factors) == 2:
            self.left, self.right = factors
        else:
            self.left = ProductProvider(factors[:-1], bordered=bordered, guard=guard)
            self.right = factors[-1]

    def _compute(self, sig) -> IdentitySubspace:
        return tideal_product(
            self.left, self.right, sig, bordered=self.bordered, guard=self.guard
        )


# -- factoring ----------------------------------------------------------------


@dataclass
class FactoringVerdict:
    signature: tuple
    dim_identities: int
    dim_product: int
    relation: str  # "equal" | "product_strictly_inside"
    witness: NcPolynomial | None = None
    meta: dict = field(default_factory=dict)

    @property
    def factors(self) -> bool:
        return self.relation == "equal"


def check_factoring(
    target,
    factor_providers,
    sig,
    bordered_crosscheck: bool = False,
    guard: GuardLimits = DEFAULT_GUARD,
) -> FactoringVerdict:
    """Compare the identity component of a block-triangular algebra with
    its diagonal factors' T-ideal product.

    target and the factors are component providers over one group, e.g.
    EvaluationProvider(R) for R built or named by its descriptor, which
    builds nothing for fast or limit rows; guard bounds the product. The
    product is always contained in the identities, so a violation is
    reported as an internal inconsistency, not a verdict.
    """
    factor_providers = list(factor_providers)
    spec = _shared_group([target, *factor_providers])
    sig = validate_signature(sig, spec)
    product = ProductProvider(factor_providers, guard=guard)
    t_comp = target.component(sig)
    p_comp = product.component(sig)
    # canonical RREF is unique: equal spaces have equal rows
    equal = p_comp.space.rows == t_comp.space.rows
    if not equal and not all(contains(t_comp.space, dict(r)) for r in p_comp.space.rows):
        raise InternalInconsistencyError(
            f"factor product is not contained in the identity component at {sig}; "
            "one of the routes is computing the wrong space"
        )
    if bordered_crosscheck:
        p2 = ProductProvider(factor_providers, bordered=True, guard=guard).component(sig)
        if p2.space.rows != p_comp.space.rows:
            raise InternalInconsistencyError(
                f"bordered product span disagrees with the plain span at {sig}"
            )
    if equal:
        return FactoringVerdict(
            sig, t_comp.dim, p_comp.dim, "equal", None, {"target": t_comp.meta}
        )
    witness = None
    for row in t_comp.space.rows:
        if not contains(p_comp.space, dict(row)):
            witness = poly_from_coordinates(dict(row), sig, spec)
            break
    if witness is None:
        raise InternalInconsistencyError(
            f"strict inclusion reported at {sig} but no witness row found"
        )
    return FactoringVerdict(
        sig,
        t_comp.dim,
        p_comp.dim,
        "product_strictly_inside",
        witness,
        {"target": t_comp.meta},
    )


def membership(f: NcPolynomial, component: IdentitySubspace) -> bool:
    """Whether a multilinear polynomial lies in the component's space."""
    coords = multilinear_coordinates(f, component.signature, component.spec)
    return contains(component.space, coords)


# -- congruence modulo identities (truncated quotient) ------------------------


def _multidegree(w) -> tuple:
    """((vid, multiplicity)...) of a word, ascending in vid."""
    return tuple(sorted(Counter(w).items()))


def multidegree_components(f: NcPolynomial) -> dict:
    """Split into multihomogeneous parts, keyed by ((vid, multiplicity)...)."""
    parts = {}
    for w, c in f.terms.items():
        parts.setdefault(_multidegree(w), {})[w] = c
    return {
        key: NcPolynomial(terms, {v: f.universe[v] for v, _ in key})
        for key, terms in parts.items()
    }


def full_multilinearization(f: NcPolynomial, spec: GroupSpec):
    """Polarize a multihomogeneous polynomial to a multilinear one.

    Each variable of multiplicity d is split into d fresh consecutive
    variables; every word contributes all bijective assignments of copies
    to its occurrence slots. Returns (polynomial on variables 1..n, sig).
    In characteristic zero the input is an identity iff the output is.
    """
    if f.is_zero():
        raise MalformedElementError("cannot polarize the zero polynomial")
    keys = {_multidegree(w) for w in f.terms}
    if len(keys) > 1:
        raise MalformedElementError("polarization needs a multihomogeneous input")
    (base,) = keys
    if base == ():
        raise MalformedElementError("cannot polarize a constant")
    blocks = {}
    sig = []
    nxt = 1
    for vid, mult in base:
        blocks[vid] = list(range(nxt, nxt + mult))
        sig.extend([tuple(f.universe[vid])] * mult)
        nxt += mult
    ordered_vars = [vid for vid, _ in base]
    terms = {}
    for w, c in f.terms.items():
        occ = {v: [] for v in blocks}
        for slot, v in enumerate(w):
            occ[v].append(slot)
        for assignment in itertools.product(
            *(itertools.permutations(blocks[v]) for v in ordered_vars)
        ):
            new_w = [0] * len(w)
            for v, perm in zip(ordered_vars, assignment):
                for slot, nid in zip(occ[v], perm):
                    new_w[slot] = nid
            add_scaled(terms, {tuple(new_w): c})
    universe = {i + 1: sig[i] for i in range(len(sig))}
    return NcPolynomial(terms, universe), tuple(sig)


class TruncatedQuotientBackend:
    """Congruence modulo the graded identities of a finite-dimensional
    algebra, exact for total degrees up to the stated bound.

    Residues are computed per multihomogeneous component: polarize, take
    coordinates at the polarized signature, reduce against the evaluation
    kernel. A component is an identity iff its residue vanishes.
    """

    def __init__(
        self,
        algebra: StructureConstantAlgebra,
        max_degree: int,
        guard: GuardLimits = DEFAULT_GUARD,
    ):
        if max_degree < 1:
            raise MalformedElementError("degree bound must be >= 1")
        self.algebra = algebra
        self.spec = algebra.group
        self.max_degree = max_degree
        self._identities = EvaluationProvider(algebra, guard=guard)

    def residue(self, f: NcPolynomial) -> dict:
        """Canonical residue profile {multidegree key: reduced coordinates}."""
        out = {}
        for key, part in multidegree_components(f).items():
            if key == ():
                coeff = part.terms.get((), Fraction(0))
                if coeff:
                    out[()] = ((0, coeff),)
                continue
            total = sum(m for _, m in key)
            if total > self.max_degree:
                raise TruncationError(
                    f"component of total degree {total} exceeds the backend "
                    f"bound {self.max_degree}"
                )
            lin, sig = full_multilinearization(part, self.spec)
            coords = multilinear_coordinates(lin, sig, self.spec)
            res = reduce_vector(coords, self._identities.component(sig).space)
            if res:
                out[key] = tuple(sorted(res.items()))
        return out

    def is_zero(self, f: NcPolynomial) -> bool:
        return not self.residue(f)

    def congruent(self, f: NcPolynomial, g: NcPolynomial) -> bool:
        return self.is_zero(f - g)
