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

Straightening is direct insertion. A letter x moves into a normal word W
from the left by the closed form

  x*W = (W with x inserted) + sum over the letters v < x of W of (W - v)*[x,v]

which is rule (i) applied until x reaches its place, with rules (ii) and
(iii) on every commutator it leaves behind. The letter order is
(parity, id), so an odd x passes every even letter. A product of two
normal words starts from the right one, already normal, and the letters of
the left one's prefix move in, right to left. A free polynomial is
straightened as a whole, from its words' longest prefixes down, so words
that share a beginning share the insertions of its letters. Every rule has
coefficient +-1, so straightening multiplies ints unless the input has a
non-integral coefficient. Which rule is applied first cannot change the
result: every rule is an identity of the relatively free algebra, and the
normal words are a basis of it (a codimension check against the
consequence route and a leftmost-pair oracle in the tests pin this).
Every mode straightens by one letter step, letter_step, which adds its
product, times a scale, straight into the dict its caller is building.
Every rule preserves the multiset of ids of a word, so letter_step drops
a word at the odd letter that would take it past the kstar cutoff, and
relfree_mul drops the pairs whose combined odd count already crosses it.

While a word straightens it is an (evens, odds, comms) tuple of ids; each
output RelFreeWord is built once, at the end. Input is checked once, by the
public RelFreeElement constructor, which checks the declared parities and
the mode's basis-word rules; sums, scales, products and normal forms are
built from checked elements and skip that check.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .algebras import GrassmannSpec, build_grassmann, evaluate, homogeneous_indices
from .errors import (
    DegreeConflictError,
    GuardExceededError,
    MalformedElementError,
    ParseError,
    UnsupportedFeatureError,
)
from .freealg import NcPolynomial, format_signed_sum, merge_universes, sort_sign, validate_signature
from .groups import Z2
from .linalg import add_scaled, integral, kernel_basis


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
    def parse(text: str) -> "GradingMode":
        text = text.strip()
        if text in ("natural", "infty"):
            return GradingMode(text)
        if text.startswith("kstar:"):
            level = text.split(":", 1)[1]
            try:
                k = int(level)
            except ValueError:
                raise ParseError(f"kstar level must be an integer, got {level!r}") from None
            return GradingMode("kstar", k)
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


_SET_EVENS = RelFreeWord.evens.__set__
_SET_ODDS = RelFreeWord.odds.__set__
_SET_COMMS = RelFreeWord.comms.__set__


def _word(evens: tuple, odds: tuple, comms: tuple) -> RelFreeWord:
    """A RelFreeWord from id tuples that straightening left in normal form,
    built without the public constructor's check (which would add about a
    fifth to the hardest model evaluation)."""
    word = object.__new__(RelFreeWord)
    _SET_EVENS(word, evens)
    _SET_ODDS(word, odds)
    _SET_COMMS(word, comms)
    return word


def letter_step(
    mode: GradingMode, a: int, terms: dict, parities: dict, out: dict, scale
) -> None:
    """Add scale * x_a * sum(c * W) in the mode into out, in place, over
    normal words W as id tuples; scale is nonzero, and no zero coefficient
    is in terms or is left in out. parities declares a. The one per-mode
    insertion: normal_form, relfree_mul and the generic model's evaluation
    all move their letters in through it, each straight into the dict it
    builds.

    x*W = (W with x inserted) + sum over the letters v < x of W of
    (W - v)*[x, v]: x moves right past each smaller letter by
    x v = v x + [x, v], and commutators are central. In the letter order
    (parity, id), an odd x passes every even letter. natural inserts x_a
    with the sign of the odds it passes, or drops W when x_a repeats an odd
    id; kstar drops the words that x_a would take past k odd occurrences,
    then inserts as infty does.
    """
    parity = parities[a]
    natural = mode.kind == "natural"
    room = mode.k - parity if mode.kind == "kstar" else None
    get = out.get
    for (evens, odds, comms), c in terms.items():
        if room is not None and len(odds) + _odd_count(comms, parities) > room:
            continue
        c *= scale
        if parity:
            i = bisect_left(odds, a)
            if natural:
                if i < len(odds) and odds[i] == a:
                    continue
                if i & 1:
                    c = -c
            key = (evens, odds[:i] + (a,) + odds[i:], comms)
        else:
            i = bisect_left(evens, a)
            key = (evens[:i] + (a,) + evens[i:], odds, comms)
        total = get(key, 0) + c
        if total:
            out[key] = total
        else:
            del out[key]
        if natural:
            continue
        ia = bisect_left(comms, a)
        n_comms = len(comms)
        if ia < n_comms and comms[ia] == a:
            continue  # every [x, v] repeats the id of x in the tail
        # the tail of (W - v)*[x, v] sorts comms + (a, v): a passes the
        # n_comms - ia ids above it, v the n_comms - ib above it, and v
        # passes a if a > v, so the sign is (-1)^(ia + ib + (a > v)); an id
        # of v that repeats in comms kills the word
        n_even = len(evens)
        for k, v in enumerate(evens + odds[:i] if parity else evens[:i]):
            ib = bisect_left(comms, v)
            if ib < n_comms and comms[ib] == v:
                continue
            if a < v:
                tail = comms[:ia] + (a,) + comms[ia:ib] + (v,) + comms[ib:]
            else:
                tail = comms[:ib] + (v,) + comms[ib:ia] + (a,) + comms[ia:]
            if k < n_even:
                key = (evens[:k] + evens[k + 1 :], odds, tail)
            else:
                key = (evens, odds[: k - n_even] + odds[k - n_even + 1 :], tail)
            total = get(key, 0) + (-c if (ia + ib + (a > v)) & 1 else c)
            if total:
                out[key] = total
            else:
                del out[key]


def _insert_prefixes(mode: GradingMode, nodes: dict, parities: dict) -> dict:
    """Straighten the sum over p of p * nodes[p] in the mode, where p is a
    tuple of ids and nodes[p] a combination of normal words; returns
    {(evens, odds, comms): c} with no zero coefficient.

    Longest prefixes first, the last letter x of p = q x moves into nodes[p]
    by letter_step, which adds the result straight into nodes[q]. Prefixes
    that share their beginning share the insertions of its letters, and
    terms cancel before more letters move in. No recursion: words may be
    long.
    """
    for n in range(max(map(len, nodes), default=0), 0, -1):
        for p in [p for p in nodes if len(p) == n]:
            letter_step(mode, p[-1], nodes.pop(p), parities, nodes.setdefault(p[:-1], {}), 1)
    return nodes.get((), {})


def _odd_count(ids, parities: dict) -> int:
    return sum(parities[v] for v in ids)


def from_straightened(mode: GradingMode, terms: dict, parities: dict) -> "RelFreeElement":
    """The element of straightened {(evens, odds, comms): c}, with no zero
    coefficient; parities declares at least the ids in use."""
    return _element(mode, {_word(*key): c for key, c in terms.items()}, parities)


def _used_parities(terms: dict, parities: dict) -> dict:
    """The declared parities of the ids the words of terms use."""
    used = set()
    for w in terms:
        used.update(w.evens, w.odds, w.comms)
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
            if not is_basis_word(w, parities, mode):
                raise MalformedElementError(
                    f"{_format_word(w)} is not a normal-form word of mode {mode.token()}"
                )
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
        return _element(self.mode, terms, merge_universes(self.parities, other.parities))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "RelFreeElement":
        c = integral(Fraction(c))  # straightening's int coefficients stay int
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


def normal_form(f: NcPolynomial, mode: GradingMode) -> RelFreeElement:
    """Class of a free polynomial in the relatively free algebra of the mode.

    f straightens as a whole: each word w is w * 1, and _insert_prefixes
    moves the letters of all words in together.
    """
    parities = _parities_of_poly(f)
    nodes = {w: {((), (), ()): integral(c)} for w, c in f.terms.items()}
    return from_straightened(mode, _insert_prefixes(mode, nodes, parities), parities)


def relfree_mul(a: RelFreeElement, b: RelFreeElement) -> RelFreeElement:
    """Product of two normal-form elements, renormalized.

    Commutators are central, so a word wa times a word wb is the prefix of
    wa times wb with the two tails merged. wb is already a normal word:
    only the letters of wa's prefix move in. A pair past the kstar cutoff
    is dropped here, since a wa with no prefix meets no letter step.
    """
    if a.mode != b.mode:
        raise MalformedElementError("cannot multiply elements of different modes")
    mode = a.mode
    parities = merge_universes(a.parities, b.parities)
    nodes = {}
    right = [
        (wb, _odd_count(wb.odds + wb.comms, parities), integral(cb))
        for wb, cb in b.terms.items()
    ]
    for wa, ca in a.terms.items():
        ca = integral(ca)
        odd_a = _odd_count(wa.odds + wa.comms, parities)
        node = nodes.setdefault(wa.evens + wa.odds, {})
        for wb, odd_b, cb in right:
            if mode.kind == "kstar" and odd_a + odd_b > mode.k:
                continue
            tail = wa.comms + wb.comms
            sign = sort_sign(tail)
            if sign:
                key = (wb.evens, wb.odds, tuple(sorted(tail)))
                total = node.get(key, 0) + ca * cb * sign
                if total:
                    node[key] = total
                else:
                    del node[key]
    return from_straightened(mode, _insert_prefixes(mode, nodes, parities), parities)


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


# One sample costs about bound^3 + 2^14 units of 15 ns: in the infty mode,
# the costliest, 0.26 ms at bound 1, 4.3 ms at 64, 29 ms at 128 and 236 ms
# at 256 (means over many seeds, one core of a 2-core x86-64 machine). The
# limit admits about a second of mean sampling time.
MULTBASIS_WORK_LIMIT = 2**26


@dataclass
class MultiplicativityReport:
    mode: GradingMode
    samples: int
    verdict: str  # "holds-on-samples" | "fails"
    witness: str | None


def products_of_word_sets(set1, set2, mode: GradingMode, parities) -> list:
    """All pairwise products, in (set1 index, set2 index) row-major order."""
    left, right = (
        [RelFreeElement(mode, {w: Fraction(1)}, parities) for w in words] for words in (set1, set2)
    )
    return [relfree_mul(a, b) for a in left for b in right]


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
    products (a single zero product when one exists). Before the first
    sample, samples x (bound^3 + 2^14) must fit MULTBASIS_WORK_LIMIT.
    """
    if degree_bound < 1 or sample_count < 1:
        raise MalformedElementError("degree bound and sample count must be >= 1")
    work = sample_count * (degree_bound**3 + 2**14)
    if work > MULTBASIS_WORK_LIMIT:
        raise GuardExceededError(
            f"multiplicativity probe: {sample_count} samples at degree bound {degree_bound} "
            f"measure {work} (samples x (bound^3 + 2^14)), past the limit of "
            f"{MULTBASIS_WORK_LIMIT}"
        )
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
            for _ in range(500):
                if len(target) == want:
                    break
                w = random_basis_word(mode, source, parities, rng, degree_bound)
                if w not in target:
                    target.append(w)
        products = products_of_word_sets(set1, set2, mode, parities)
        pairs = list(itertools.product(set1, set2))  # the order of products
        for el, pair in zip(products, pairs):
            if el.is_zero():
                label = _product_label(pair, mode, parities)
                return MultiplicativityReport(
                    mode, sample + 1, "fails", f"{label} = 0 in the relatively free algebra"
                )
        # one row per word, over the products: the kernel of these rows is
        # the space of vanishing combinations
        cols = {}
        for i, el in enumerate(products):
            for w, c in el.terms.items():
                cols.setdefault(w, {})[i] = c
        combo = kernel_basis(cols.values(), len(products))
        if combo.dim:
            coeffs = dict(combo.rows[0])
            terms = " + ".join(
                f"{c}*{_product_label(pairs[i], mode, parities)}" for i, c in sorted(coeffs.items())
            )
            return MultiplicativityReport(mode, sample + 1, "fails", f"{terms} = 0")
    return MultiplicativityReport(mode, sample_count, "holds-on-samples", None)
