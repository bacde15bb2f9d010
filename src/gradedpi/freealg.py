"""Free associative algebra over Q on graded variables.

Variables are positive integer ids, each carrying a degree in a finite
abelian group. A word is a tuple of ids; a polynomial is a finite map
word -> Fraction together with the degree declaration of the variables
it uses. Canonical word order is (length, then lexicographic on ids).
"""

from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_left
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    DegreeConflictError,
    MalformedElementError,
    ParseError,
)
from .groups import Z2, GroupSpec
from .linalg import add_scaled

Signature = tuple  # one group element per variable 1..n


def merge_universes(a: dict, b: dict) -> dict:
    """Union of two id -> degree maps; conflicting degrees are an error."""
    out = dict(a)
    for vid, deg in b.items():
        if vid in out and out[vid] != deg:
            raise DegreeConflictError(f"variable x{vid} declared with degrees {out[vid]} and {deg}")
        out[vid] = deg
    return out


def sort_sign(keys) -> int:
    """Sign of the permutation that sorts keys ascending; 0 if a key repeats."""
    seen = []  # keys so far, ascending
    inversions = 0
    for i, k in enumerate(keys):
        pos = bisect_left(seen, k)
        if pos < i and seen[pos] == k:
            return 0
        inversions += i - pos  # keys seen so far that are larger than k
        seen.insert(pos, k)
    return -1 if inversions & 1 else 1


class NcPolynomial:
    """Noncommutative polynomial with exact rational coefficients.

    Instances are treated as immutable. `terms` maps words to nonzero
    Fractions; `universe` maps every id appearing in `terms` to its degree.
    """

    __slots__ = ("terms", "universe")

    def __init__(self, terms: dict, universe: dict):
        clean = {}
        for w, c in terms.items():
            c = Fraction(c)
            if c:
                clean[tuple(w)] = c
        used = set()
        for w in clean:
            used.update(w)
        uni = {}
        for vid in used:
            if vid not in universe:
                raise MalformedElementError(f"word uses x{vid} with no declared degree")
            if not isinstance(vid, int) or vid < 1:
                raise MalformedElementError(f"variable id must be a positive int: {vid!r}")
            uni[vid] = tuple(universe[vid])
        self.terms = clean
        self.universe = uni

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "NcPolynomial":
        return NcPolynomial({}, {})

    @staticmethod
    def constant(c) -> "NcPolynomial":
        return NcPolynomial({(): Fraction(c)}, {})

    @staticmethod
    def variable(vid: int, degree) -> "NcPolynomial":
        return NcPolynomial({(vid,): Fraction(1)}, {vid: tuple(degree)})

    @staticmethod
    def word(ids, universe) -> "NcPolynomial":
        return NcPolynomial({tuple(ids): Fraction(1)}, universe)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPolynomial.constant(other)
        uni = merge_universes(self.universe, other.universe)
        return NcPolynomial(add_scaled(dict(self.terms), other.terms), uni)

    __radd__ = __add__

    def __neg__(self):
        return NcPolynomial({w: -c for w, c in self.terms.items()}, self.universe)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NcPolynomial({w: c * other for w, c in self.terms.items()}, self.universe)
        uni = merge_universes(self.universe, other.universe)
        terms = {}
        for w1, c1 in self.terms.items():
            add_scaled(terms, ((w1 + w2, c2) for w2, c2 in other.terms.items()), c1)
        return NcPolynomial(terms, uni)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPolynomial.constant(other)
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.terms == other.terms and self.universe == other.universe

    def __hash__(self):
        return hash((frozenset(self.terms.items()), frozenset(self.universe.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"NcPolynomial({format_poly(self)})"

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def homogeneous_degree(self, spec: GroupSpec):
        """Common degree of all words, or None if mixed. Zero returns None."""
        degs = {spec.sum(self.universe[v] for v in w) for w in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def rename_variables(self, id_map: dict) -> "NcPolynomial":
        """Relabel variable ids; the map must be injective on used ids."""
        used = set(self.universe)
        targets = [id_map.get(v, v) for v in used]
        if len(set(targets)) != len(targets):
            raise MalformedElementError("variable relabeling is not injective")
        uni = {id_map.get(v, v): d for v, d in self.universe.items()}
        terms = {tuple(id_map.get(v, v) for v in w): c for w, c in self.terms.items()}
        return NcPolynomial(terms, uni)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))


def commutator(f: NcPolynomial, g: NcPolynomial) -> NcPolynomial:
    return f * g - g * f


def left_normed_commutator(factors) -> NcPolynomial:
    factors = list(factors)
    if len(factors) < 2:
        raise MalformedElementError("a commutator needs at least two factors")
    out = commutator(factors[0], factors[1])
    for f in factors[2:]:
        out = commutator(out, f)
    return out


def yvar(i: int) -> NcPolynomial:
    """Degree-0 variable over Z2."""
    return NcPolynomial.variable(i, (0,))


def zvar(i: int) -> NcPolynomial:
    """Degree-1 variable over Z2."""
    return NcPolynomial.variable(i, (1,))


# -- multilinear structure ----------------------------------------------


@functools.cache
def multilinear_monomials(n: int) -> tuple:
    """The n! words x_{s(1)}...x_{s(n)}, lexicographic on s as a sequence.

    Built once per n and shared, hence a tuple."""
    if n < 1:
        raise MalformedElementError("need at least one variable")
    return tuple(itertools.permutations(range(1, n + 1)))


@functools.cache
def monomial_index(n: int) -> MappingProxyType:
    """Column of each word of multilinear_monomials(n); built once per n,
    shared read-only."""
    return MappingProxyType({w: i for i, w in enumerate(multilinear_monomials(n))})


def validate_signature(sig, spec: GroupSpec) -> Signature:
    sig = tuple(tuple(g) for g in sig)
    if not sig:
        raise MalformedElementError("signature must have at least one position")
    for g in sig:
        spec.validate(g)
    return sig


def multilinear_coordinates(f: NcPolynomial, sig, spec: GroupSpec) -> dict:
    """Coordinates of f in the n! monomial basis at the given signature.

    Errors if f is not multilinear on variables 1..n or a variable degree
    disagrees with the signature.
    """
    sig = validate_signature(sig, spec)
    n = len(sig)
    expected = set(range(1, n + 1))
    for vid, deg in f.universe.items():
        if vid not in expected:
            raise MalformedElementError(f"variable x{vid} outside positions 1..{n}")
        if deg != tuple(sig[vid - 1]):
            raise MalformedElementError(
                f"x{vid} has degree {deg}, signature expects {tuple(sig[vid - 1])}"
            )
    index = monomial_index(n)
    out = {}
    for w, c in f.terms.items():
        if w not in index:
            raise MalformedElementError(f"word {w!r} is not multilinear on 1..{n}")
        out[index[w]] = c
    return out


def poly_from_coordinates(coords, sig, spec: GroupSpec) -> NcPolynomial:
    """Inverse of multilinear_coordinates; coords maps column -> coefficient."""
    sig = validate_signature(sig, spec)
    mons = multilinear_monomials(len(sig))
    universe = {i + 1: tuple(sig[i]) for i in range(len(sig))}
    terms = {}
    for col, c in dict(coords).items():
        terms[mons[col]] = Fraction(c)
    return NcPolynomial(terms, universe)


# -- text format ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<var>[xyz]\d+(?:\^\(\s*[\d,\s]*\))?)"
    r"|(?P<op>[-+*\[\],]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected input at {text[pos:pos + 16]!r}")
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", m.group("num")))
        elif m.group("var") is not None:
            out.append(("var", m.group("var")))
        else:
            out.append((m.group("op"), m.group("op")))
    return out


_VAR_RE = re.compile(r"([xyz])(\d+)(?:\^\(\s*([\d,\s]*)\))?$")


class _Parser:
    def __init__(self, tokens, spec: GroupSpec):
        self.toks = tokens
        self.i = 0
        self.spec = spec

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_poly(self, stop=()) -> NcPolynomial:
        out = NcPolynomial.zero()
        sign = 1
        kind, _ = self.peek()
        if kind in ("+", "-"):
            if kind == "-":
                sign = -1
            self.take()
        out = out + self.parse_term() * sign
        while True:
            kind, _ = self.peek()
            if kind in stop or kind is None:
                return out
            if kind not in ("+", "-"):
                raise ParseError(f"expected + or - between terms, got {kind!r}")
            self.take()
            term = self.parse_term()
            out = out + (term if kind == "+" else -term)

    def parse_term(self) -> NcPolynomial:
        factors = [self.parse_factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.parse_factor())
        out = NcPolynomial.constant(1)
        for f in factors:
            out = out * f
        return out

    def parse_factor(self) -> NcPolynomial:
        kind, val = self.peek()
        if kind == "num":
            self.take()
            try:
                return NcPolynomial.constant(Fraction(val))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}") from None
        if kind == "var":
            self.take()
            return self._variable(val)
        if kind == "[":
            self.take()
            items = [self.parse_poly(stop=(",", "]"))]
            while self.peek()[0] == ",":
                self.take()
                items.append(self.parse_poly(stop=(",", "]")))
            if self.peek()[0] != "]":
                raise ParseError("unterminated commutator bracket")
            self.take()
            if len(items) < 2:
                raise ParseError("a commutator needs at least two arguments")
            return left_normed_commutator(items)
        raise ParseError(f"expected a factor, got {val!r}")

    def _variable(self, text: str) -> NcPolynomial:
        m = _VAR_RE.match(text)
        letter, vid, residues = m.group(1), int(m.group(2)), m.group(3)
        if residues is not None:
            parts = [p for p in residues.replace(",", " ").split() if p]
            degree = self.spec.validate(int(p) for p in parts)
        elif letter == "y":
            if self.spec != Z2:
                raise ParseError("y/z shorthand needs the group of order 2")
            degree = (0,)
        elif letter == "z":
            if self.spec != Z2:
                raise ParseError("y/z shorthand needs the group of order 2")
            degree = (1,)
        else:
            degree = self.spec.identity()
        if letter == "y" and degree != (0,):
            raise ParseError(f"y{vid} annotated with non-zero degree")
        if letter == "z" and degree != (1,):
            raise ParseError(f"z{vid} annotated with degree {degree}")
        return NcPolynomial.variable(vid, degree)


def parse_poly(text: str, spec: GroupSpec) -> NcPolynomial:
    """Parse the polynomial text format.

    Grammar: terms joined by + or -, each a * -joined product of rational
    coefficients, variables, and bracket commutators [a,b,...] (left-normed).
    Variables: x<id>^(r1,r2,...) with explicit residues, bare x<id> for the
    identity degree, and y<id>/z<id> shorthand for degrees (0)/(1) over the
    group of order 2.
    """
    text = text.strip()
    if text == "0":
        return NcPolynomial.zero()
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens, spec)
    try:
        out = parser.parse_poly()
    except RecursionError:
        raise ParseError("brackets nested too deeply to parse") from None
    if parser.i != len(tokens):
        raise ParseError("trailing input after polynomial")
    return out


def _format_letter(vid: int, degree: tuple, style: str) -> str:
    if style == "yz" and degree in ((0,), (1,)):
        return f"{'y' if degree == (0,) else 'z'}{vid}"
    if degree == ():
        return f"x{vid}"
    return f"x{vid}^({','.join(map(str, degree))})"


def format_poly(f: NcPolynomial, style: str = "explicit") -> str:
    """Canonical printer; parse(format(f)) == f.

    style "explicit" writes x<id>^(residues) (bare x<id> for the identity
    degree); style "yz" writes y/z shorthand for Z2 degrees.
    """
    return format_signed_sum(
        (c, "*".join(_format_letter(v, f.universe[v], style) for v in w))
        for w, c in f.sorted_terms()
    )


def format_signed_sum(terms) -> str:
    """Print (coefficient, word) pairs, "" the word of a constant, as
    mag*word / word / mag bodies joined by " + " and " - "; "0" if empty."""
    out = ""
    for c, word in terms:
        mag = abs(c)
        if not word:
            body = str(mag)
        else:
            body = word if mag == 1 else f"{mag}*{word}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def parse_signature(text: str, spec: GroupSpec) -> Signature:
    """Parse e.g. "0,1,1" (rank-1 groups) or "0.1,1.0" (dots inside tuples).
    Over the rank-0 group every entry is 0, its only degree. No entry may
    be empty."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ParseError("empty signature")
    out = []
    for p in parts:
        if not p:
            raise ParseError(f"empty entry in signature {text!r}")
        if not spec.orders:
            if p != "0":
                raise ParseError(f"the trivial group has only degree 0, got {p!r}")
            out.append(())
            continue
        try:
            residues = [int(q) for q in p.split(".")]
        except ValueError as exc:
            raise ParseError(f"bad signature entry {p!r}") from exc
        out.append(spec.validate(residues))
    return tuple(out)
