"""Exact normal forms in relatively free Z2-graded algebras of exterior type.

Three grading modes are supported, each with a straightening rewrite onto
the normal-form words  (evens, nondecreasing)(odds, nondecreasing)
[a1,b1][a2,b2]...  with the commutator ids strictly increasing:

  natural - every generator of the model algebra is odd: evens are central,
            odds anticommute pairwise, squares of odd variables vanish, no
            commutator tail survives. Each input word straightens to a
            single signed word or zero.
  infty   - rewrite rules: (i) swap an out-of-order adjacent pair u v into
            v u + [u,v]; (ii) commutators are central; (iii) the commutator
            tail is alternating in its ids (any transposition flips the
            sign, a repeated id kills the word).
  kstar   - the infty rules plus: a word whose total count of odd-variable
            occurrences (commutator slots included) exceeds k is zero.

Termination: rule (i) either keeps the prefix length and strictly lowers
its inversion count, or shortens the prefix by two; the pair
(prefix length, inversions) drops lexicographically at every step, and the
tail normalization is a single sort. The zero rule of kstar is stable
because every rewrite preserves the multiset of variable ids of a word.

Letters are (parity, id) pairs internally, so memoized results are
self-contained and shared across calls. The memo holds finished words with
int coefficients (every rule has coefficient +-1). Input is checked once,
by the public RelFreeElement constructor; sums, scales, products and normal
forms are built from checked elements and skip that check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .algebras import GrassmannSpec, build_grassmann, evaluate, homogeneous_indices
from .errors import (
    DegreeConflictError,
    MalformedElementError,
    ParseError,
    UnsupportedFeatureError,
)
from .freealg import NcPolynomial, format_signed_sum, sort_sign, validate_signature
from .groups import Z2
from .linalg import add_scaled, kernel_basis, row_space


@dataclass(frozen=True)
class GradingMode:
    kind: str  # "natural" | "infty" | "kstar"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("natural", "infty", "kstar"):
            raise UnsupportedFeatureError(f"unknown grading mode {self.kind!r}")
        if self.kind == "kstar" and (self.k is None or self.k < 0):
            raise MalformedElementError("kstar mode needs k >= 0")
        if self.kind != "kstar" and self.k is not None:
            raise MalformedElementError(f"mode {self.kind} takes no k")

    @staticmethod
    def natural() -> "GradingMode":
        return GradingMode("natural")

    @staticmethod
    def infty() -> "GradingMode":
        return GradingMode("infty")

    @staticmethod
    def kstar(k: int) -> "GradingMode":
        return GradingMode("kstar", k)

    @staticmethod
    def parse(text: str) -> "GradingMode":
        text = text.strip()
        if text == "natural":
            return GradingMode.natural()
        if text == "infty":
            return GradingMode.infty()
        if text.startswith("kstar:"):
            level = text.split(":", 1)[1]
            try:
                k = int(level)
            except ValueError:
                raise ParseError(f"kstar level must be an integer, got {level!r}") from None
            return GradingMode.kstar(k)
        if text == "degk" or text.startswith("degk:"):
            raise UnsupportedFeatureError(
                "unsupported mode 'degk': its defining generator polynomials "
                "are not in the supported catalogue"
            )
        raise UnsupportedFeatureError(f"unknown grading mode {text!r}")

    def token(self) -> str:
        return f"kstar:{self.k}" if self.kind == "kstar" else self.kind

    def grassmann_spec(self, n_generators: int) -> GrassmannSpec:
        if self.kind == "kstar":
            return GrassmannSpec(n_generators, "kstar", k=self.k)
        return GrassmannSpec(n_generators, self.kind)


@dataclass(frozen=True, slots=True)
class RelFreeWord:
    """Normal-form word: even prefix, odd prefix, commutator tail ids."""

    evens: tuple
    odds: tuple
    comms: tuple

    def __post_init__(self):
        if list(self.evens) != sorted(self.evens) or list(self.odds) != sorted(self.odds):
            raise MalformedElementError("prefix ids must be nondecreasing")
        if len(self.comms) % 2 or list(self.comms) != sorted(set(self.comms)):
            raise MalformedElementError("commutator ids must be strictly increasing, even count")

    @property
    def length(self) -> int:
        return len(self.evens) + len(self.odds) + len(self.comms)

    def sort_key(self):
        return (self.length, self.evens, self.odds, self.comms)

    def comm_pairs(self):
        return [(self.comms[i], self.comms[i + 1]) for i in range(0, len(self.comms), 2)]


# memo shared by infty and kstar: the rules preserve the letter multiset,
# so the kstar cutoff can be applied at entry and the core reused. It is
# emptied when it reaches _NF_MEMO_MAX entries, well above what one batch of
# evaluations fills, so a long-lived process stays bounded.
_NF_MEMO: dict = {}
_NF_MEMO_MAX = 1 << 18


def _sorted_tail(tail):
    """(sign, tail sorted by id) for letter tuples; sign 0 on a repeated id."""
    return sort_sign(l[1] for l in tail), tuple(sorted(tail, key=itemgetter(1)))


def _nf_core(prefix, tail):
    """Straighten (prefix letters, sorted tail letters) -> {RelFreeWord: int}.

    The result is the memo's own dict: callers read it and never change it.
    """
    key = (prefix, tail)
    hit = _NF_MEMO.get(key)
    if hit is not None:
        return hit
    pos = -1
    for idx in range(len(prefix) - 1):
        if prefix[idx] > prefix[idx + 1]:  # letter order = (parity, id)
            pos = idx
            break
    if pos < 0:
        evens = tuple(l[1] for l in prefix if l[0] == 0)
        odds = tuple(l[1] for l in prefix if l[0] == 1)
        # an id keeps one parity within a straightening: distinct tails stay distinct
        out = {RelFreeWord(evens, odds, tuple(l[1] for l in tail)): 1}
    else:
        u, v = prefix[pos], prefix[pos + 1]
        out = dict(_nf_core(prefix[:pos] + (v, u) + prefix[pos + 2 :], tail))
        sign, tail2 = _sorted_tail(tail + (u, v))
        if sign:
            add_scaled(out, _nf_core(prefix[:pos] + prefix[pos + 2 :], tail2), sign)
    if len(_NF_MEMO) >= _NF_MEMO_MAX:
        _NF_MEMO.clear()
    _NF_MEMO[key] = out
    return out


def _odd_count(prefix, tail) -> int:
    return sum(1 for l in prefix if l[0] == 1) + sum(1 for l in tail if l[0] == 1)


def _straighten(prefix, tail, mode: GradingMode):
    """Shared entry: mode cutoffs, then the core; returns {RelFreeWord: int}."""
    if mode.kind == "kstar" and _odd_count(prefix, tail) > mode.k:
        return {}
    if mode.kind == "natural":
        # supercommutative: evens central, odds anticommute
        if tail:
            raise MalformedElementError("natural mode words carry no commutator tail")
        evens = tuple(sorted(l[1] for l in prefix if l[0] == 0))
        odds = [l[1] for l in prefix if l[0] == 1]
        sign = sort_sign(odds)
        return {RelFreeWord(evens, tuple(sorted(odds)), ()): sign} if sign else {}
    return _nf_core(prefix, tail)


def _letters(word: RelFreeWord, parities: dict):
    """(prefix letters, tail letters) of a normal-form word."""
    prefix = tuple((0, v) for v in word.evens) + tuple((1, v) for v in word.odds)
    return prefix, tuple((parities[v], v) for v in word.comms)


def _used_parities(terms: dict, parities: dict) -> dict:
    """The declared parities of the ids the words of terms use."""
    used = set()
    for w in terms:
        used.update(w.evens)
        used.update(w.odds)
        used.update(w.comms)
    return {v: parities[v] for v in used}


class RelFreeElement:
    """Linear combination of normal-form words plus the parity declaration."""

    __slots__ = ("mode", "terms", "parities")

    def __init__(self, mode: GradingMode, terms: dict, parities: dict):
        clean = {}
        for w, c in terms.items():
            c = Fraction(c)
            if c:
                clean[w] = c
        for w in clean:
            for vid in w.evens + w.odds + w.comms:
                if vid not in parities:
                    raise MalformedElementError(f"x{vid} has no declared parity")
            for vid in w.evens:
                if parities[vid] != 0:
                    raise DegreeConflictError(f"x{vid} used as even but declared odd")
            for vid in w.odds:
                if parities[vid] != 1:
                    raise DegreeConflictError(f"x{vid} used as odd but declared even")
        self.mode = mode
        self.terms = clean
        self.parities = _used_parities(clean, parities)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RelFreeElement):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.terms == other.terms
            and self.parities == other.parities
        )

    def __hash__(self):
        return hash((self.mode, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            return self
        if self.mode != other.mode:
            raise MalformedElementError("cannot add elements of different modes")
        terms = add_scaled(dict(self.terms), other.terms)
        return _element(self.mode, terms, _merged_parities(self, other))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "RelFreeElement":
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator  # int memo coefficients stay int
        terms = {w: c * x for w, x in self.terms.items()} if c else {}
        return _element(self.mode, terms, self.parities)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return relfree_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __repr__(self):
        return f"RelFreeElement({format_relfree(self)})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())


def _element(mode: GradingMode, terms: dict, parities: dict) -> RelFreeElement:
    """An arithmetic result: its nonzero terms come from checked elements or
    from straightening, so only parities is trimmed to the ids in use."""
    el = object.__new__(RelFreeElement)
    el.mode = mode
    el.terms = terms
    el.parities = _used_parities(terms, parities)
    return el


def zero_element(mode: GradingMode) -> RelFreeElement:
    return RelFreeElement(mode, {}, {})


def _parities_of_poly(f: NcPolynomial) -> dict:
    out = {}
    for vid, deg in f.universe.items():
        if deg not in ((0,), (1,)):
            raise MalformedElementError(
                f"relfree engine works over the group of order 2; x{vid} has degree {deg}"
            )
        out[vid] = deg[0]
    return out


def _merged_parities(a: RelFreeElement, b: RelFreeElement) -> dict:
    parities = dict(a.parities)
    for v, p in b.parities.items():
        if parities.setdefault(v, p) != p:
            raise DegreeConflictError(f"x{v} declared with both parities")
    return parities


def normal_form(f: NcPolynomial, mode: GradingMode) -> RelFreeElement:
    """Class of a free polynomial in the relatively free algebra of the mode."""
    parities = _parities_of_poly(f)
    terms = {}
    for w, coeff in f.terms.items():
        prefix = tuple((parities[v], v) for v in w)
        add_scaled(terms, _straighten(prefix, (), mode), coeff)
    return _element(mode, terms, parities)


def relfree_mul(a: RelFreeElement, b: RelFreeElement) -> RelFreeElement:
    """Product of two normal-form elements, renormalized.

    Word by word: commutator factors are central, so the product of two
    words is (prefix_a prefix_b) with the merged tail, then straightening.
    """
    if a.mode != b.mode:
        raise MalformedElementError("cannot multiply elements of different modes")
    mode = a.mode
    parities = _merged_parities(a, b)
    terms = {}
    right = [(_letters(wb, parities), cb) for wb, cb in b.terms.items()]
    for wa, ca in a.terms.items():
        prefix_a, tail_a = _letters(wa, parities)
        for (prefix_b, tail_b), cb in right:
            sign, tail = _sorted_tail(tail_a + tail_b)
            if sign:
                add_scaled(terms, _straighten(prefix_a + prefix_b, tail, mode), ca * cb * sign)
    return _element(mode, terms, parities)


def expand(el: RelFreeElement) -> NcPolynomial:
    """Rewrite a normal-form element as a free polynomial (basis words expanded)."""
    universe = {v: (p,) for v, p in el.parities.items()}
    out = NcPolynomial.zero()
    for w, c in el.terms.items():
        piece = NcPolynomial({tuple(w.evens) + tuple(w.odds): c}, universe)
        for a, b in w.comm_pairs():
            xa = NcPolynomial.variable(a, (el.parities[a],))
            xb = NcPolynomial.variable(b, (el.parities[b],))
            piece = piece * (xa * xb - xb * xa)
        out = out + piece
    return out


def format_relfree(el: RelFreeElement) -> str:
    """Printer: y<id> for even letters, z<id> for odd, [x<a>,x<b>] tail factors."""
    return format_signed_sum((c, _format_word(w)) for w, c in el.sorted_terms())


def _format_word(w: RelFreeWord) -> str:
    letters = [f"y{v}" for v in w.evens] + [f"z{v}" for v in w.odds]
    letters += [f"[x{a},x{b}]" for a, b in w.comm_pairs()]
    return "*".join(letters)


# -- basis words ------------------------------------------------------------


def is_basis_word(word: RelFreeWord, parities: dict, mode: GradingMode) -> bool:
    """Mode validity of a normal-form word."""
    if mode.kind == "natural":
        if word.comms:
            return False
        return list(word.odds) == sorted(set(word.odds))
    if mode.kind == "kstar":
        odd = len(word.odds) + sum(1 for v in word.comms if parities[v] == 1)
        if odd > mode.k:
            return False
    return True


def multilinear_basis_words(mode: GradingMode, sig) -> list:
    """All normal-form words of the multilinear multidegree sig (ids 1..n)."""
    sig = validate_signature(sig, Z2)
    n = len(sig)
    parities = {i + 1: sig[i][0] for i in range(n)}
    ids = list(range(1, n + 1))
    out = []
    for tail_size in range(0, n + 1, 2):
        for tail in itertools.combinations(ids, tail_size):
            rest = [v for v in ids if v not in tail]
            evens = tuple(v for v in rest if parities[v] == 0)
            odds = tuple(v for v in rest if parities[v] == 1)
            word = RelFreeWord(evens, odds, tail)
            if is_basis_word(word, parities, mode):
                out.append(word)
    return out


def count_multilinear_basis_words(mode: GradingMode, sig) -> int:
    return len(multilinear_basis_words(mode, sig))


# -- randomized checks -------------------------------------------------------


def random_basis_word(mode: GradingMode, ids, parities, rng: random.Random, max_len: int):
    """A uniform-ish random normal-form word on the given alphabet."""
    for _ in range(200):
        length = rng.randint(1, max_len)
        tail_size = rng.choice([s for s in range(0, length + 1, 2) if s <= len(ids)])
        if mode.kind == "natural":
            tail_size = 0
        tail = tuple(sorted(rng.sample(ids, tail_size)))
        k_prefix = length - tail_size
        evens_pool = [v for v in ids if parities[v] == 0]
        odds_pool = [v for v in ids if parities[v] == 1]
        n_even = rng.randint(0, k_prefix) if evens_pool else 0
        if not odds_pool:
            n_even = k_prefix
        evens = sorted(rng.choice(evens_pool) for _ in range(n_even))
        odds = sorted(rng.choice(odds_pool) for _ in range(k_prefix - n_even))
        if mode.kind == "natural" and len(set(odds)) < len(odds):
            continue
        word = RelFreeWord(tuple(evens), tuple(odds), tail)
        if not (word.evens or word.odds or word.comms):
            continue
        if is_basis_word(word, parities, mode):
            return word
    raise MalformedElementError("could not sample a basis word under the mode constraints")


@dataclass
class ProbeReport:
    trials: int
    failures: int
    first_witness: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def soundness_probe(
    f: NcPolynomial,
    mode: GradingMode,
    n_generators: int,
    trials: int,
    seed: int,
    normal_form_fn=None,
) -> ProbeReport:
    """Check f - expand(normal_form(f)) vanishes on random graded substitutions.

    Substitutions go into the truncated exterior algebra on n_generators
    generators carrying the mode's grading; every variable receives a random
    homogeneous element of its degree (two basis terms, small coefficients).
    """
    nf = (normal_form_fn or normal_form)(f, mode)
    g = f - expand(nf)
    if g.is_zero():
        # syntactic equality: nothing to evaluate
        return ProbeReport(trials, 0, None)
    algebra = build_grassmann(mode.grassmann_spec(n_generators))
    rng = random.Random(seed)
    failures = 0
    witness = None
    by_degree = {
        (0,): homogeneous_indices(algebra, (0,)),
        (1,): homogeneous_indices(algebra, (1,)),
    }
    for t in range(trials):
        assignment = {}
        for vid, deg in g.universe.items():
            pool = by_degree[tuple(deg)]
            vec = {}
            for _ in range(2):
                idx = rng.choice(pool)
                add_scaled(vec, {idx: Fraction(rng.choice([-2, -1, 1, 2]))})
            assignment[vid] = vec
        value = evaluate(g, assignment, algebra)
        if value:
            failures += 1
            if witness is None:
                parts = []
                for vid in sorted(assignment):
                    terms = " + ".join(
                        f"{c}*{''.join(f'e{i}' for i in algebra.labels[idx]) or '1'}"
                        for idx, c in sorted(assignment[vid].items())
                    )
                    parts.append(f"x{vid} -> {terms}")
                witness = f"trial {t}: " + "; ".join(parts)
    return ProbeReport(trials, failures, witness)


@dataclass
class MultiplicativityReport:
    mode: GradingMode
    samples: int
    verdict: str  # "holds-on-samples" | "fails"
    witness: str | None


def products_of_word_sets(set1, set2, mode: GradingMode, parities) -> list:
    """All pairwise products, in (set1 index, set2 index) row-major order."""
    out = []
    for w1 in set1:
        e1 = RelFreeElement(mode, {w1: Fraction(1)}, parities)
        for w2 in set2:
            e2 = RelFreeElement(mode, {w2: Fraction(1)}, parities)
            out.append(relfree_mul(e1, e2))
    return out


def _product_label(pair, mode: GradingMode, parities) -> str:
    """(w1)*(w2) for a pair of basis words, as witnesses print it."""
    return "*".join(
        f"({format_relfree(RelFreeElement(mode, {w: Fraction(1)}, parities))})" for w in pair
    )


def partial_multiplicativity_check(
    mode: GradingMode, degree_bound: int, sample_count: int, seed: int
) -> MultiplicativityReport:
    """Sample pairs of basis-word sets in disjoint alphabets and test whether
    all pairwise products stay linearly independent.

    On failure the witness is an explicit vanishing linear combination of
    products (a single zero product when one exists).
    """
    if degree_bound < 1 or sample_count < 1:
        raise MalformedElementError("degree bound and sample count must be >= 1")
    rng = random.Random(seed)
    alphabet1 = list(range(1, 9))
    alphabet2 = list(range(9, 17))
    parities = {v: v % 2 for v in alphabet1 + alphabet2}
    for sample in range(sample_count):
        s1 = rng.randint(1, 3)
        s2 = rng.randint(1, 3)
        set1, set2 = [], []
        for target, source in ((set1, alphabet1), (set2, alphabet2)):
            want = s1 if target is set1 else s2
            seen = set()
            guard = 0
            while len(target) < want and guard < 500:
                guard += 1
                w = random_basis_word(mode, source, parities, rng, degree_bound)
                if w not in seen:
                    seen.add(w)
                    target.append(w)
        products = products_of_word_sets(set1, set2, mode, parities)
        pairs = list(itertools.product(set1, set2))  # the order of products
        for el, pair in zip(products, pairs):
            if el.is_zero():
                label = _product_label(pair, mode, parities)
                return MultiplicativityReport(
                    mode, sample + 1, "fails", f"{label} = 0 in the relatively free algebra"
                )
        # one row per word, over the products: row rank equals column rank,
        # and the kernel of these rows is the space of vanishing combinations
        cols = {}
        for i, el in enumerate(products):
            for w, c in el.terms.items():
                cols.setdefault(w, {})[i] = c
        space = row_space(cols.values(), len(products))
        if space.dim < len(products):
            combo = kernel_basis(space)
            coeffs = dict(combo.rows[0])
            terms = " + ".join(
                f"{c}*{_product_label(pairs[i], mode, parities)}" for i, c in sorted(coeffs.items())
            )
            return MultiplicativityReport(mode, sample + 1, "fails", f"{terms} = 0")
    return MultiplicativityReport(mode, sample_count, "holds-on-samples", None)
