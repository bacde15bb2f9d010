"""Generic block-triangular matrices over a relatively free backend.

A model of shape (d_1,...,d_m) is the algebra generated by the generic
matrices whose (i,j) entries are fresh backend variables at the positions
on or above the diagonal blocks. Two backends are supported: the exact
normal-form engine for exterior-type Z2 gradings, and the truncated
congruence backend for any finite-dimensional graded algebra.

Entry variables are flat integer ids through a pairing of
(row, column, generator index, degree index); the inverse is exposed for
printing and for the shift substitution x_{i,j,k} -> x_{i+1,j+1,k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import BlockShape
from .errors import MalformedElementError, UnsupportedFeatureError
from .freealg import NcPolynomial, format_poly
from .groups import Z2, GroupSpec
from .linalg import DEFAULT_GUARD, GuardLimits, RowReducer, add_scaled, integral
from .relfree import (
    GradingMode,
    RelFreeWord,
    RelFreeElement,
    expand,
    format_relfree,
    from_straightened,
    letter_step,
    normal_form,
    zero_element,
)
from .spaces import TruncatedQuotientBackend


class _RelfreeAdapter:
    """Entry arithmetic through the exact normal-form engine."""

    kind = "relfree"

    def __init__(self, mode: GradingMode):
        self.mode = mode

    def zero(self):
        return zero_element(self.mode)

    def one(self):
        return RelFreeElement(
            self.mode, {RelFreeWord((), (), ()): Fraction(1)}, {}
        )

    def variable(self, vid: int, degree):
        return normal_form(NcPolynomial.variable(vid, tuple(degree)), self.mode)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def rename(self, a, id_map: dict):
        return normal_form(expand(a).rename_variables(id_map), self.mode)

    def keyed_vector(self, a) -> dict:
        return dict(a.terms)

    def raw_arithmetic(self, universe: dict):
        """(empty word, times, raw entry -> element) over the entry
        variables of universe; raw entries are straightened
        {(evens, odds, comms): c} id tuples, and times(vid, raw, out, c)
        adds c * x_vid * raw into the raw entry out, in place."""
        mode = self.mode
        parities = {vid: deg[0] for vid, deg in universe.items()}

        def times(vid, raw, out, c):
            letter_step(mode, vid, raw, parities, out, c)

        return ((), (), ()), times, lambda raw: from_straightened(mode, raw, parities)

    def format(self, a) -> str:
        return format_relfree(a)


class _TruncatedAdapter:
    """Entry arithmetic on free polynomials, observed modulo the identities
    of the backend's algebra (exact up to its degree bound)."""

    kind = "truncated"

    def __init__(self, backend: TruncatedQuotientBackend):
        self.backend = backend

    def zero(self):
        return NcPolynomial.zero()

    def one(self):
        return NcPolynomial.constant(1)

    def variable(self, vid: int, degree):
        return NcPolynomial.variable(vid, tuple(degree))

    def is_zero(self, a) -> bool:
        return self.backend.is_zero(a)

    def rename(self, a, id_map: dict):
        return a.rename_variables(id_map)

    def keyed_vector(self, a) -> dict:
        out = {}
        for mkey, items in self.backend.residue(a).items():
            for col, val in items:
                out[(mkey, col)] = val
        return out

    def raw_arithmetic(self, universe: dict):
        """(empty word, times, raw entry -> polynomial) over the entry
        variables of universe; raw entries are {word: c} terms, and
        times(vid, raw, out, c) adds c * x_vid * raw into out, in place."""

        def times(vid, raw, out, c):
            add_scaled(out, (((vid,) + w, x) for w, x in raw.items()), c)

        return (), times, lambda raw: NcPolynomial(raw, universe)

    def format(self, a) -> str:
        return format_poly(a, style="yz")


@dataclass(frozen=True)
class ModelConfig:
    """A model's shape, group and backend; equal configs are one model.
    The backend's entry arithmetic, its adapter, is built once, here."""

    shape: BlockShape
    group: GroupSpec
    backend: object  # GradingMode or TruncatedQuotientBackend

    def __post_init__(self):
        if isinstance(self.backend, GradingMode):
            if self.group != Z2:
                raise MalformedElementError(
                    "the normal-form backend carries the group of order 2"
                )
            adapter = _RelfreeAdapter(self.backend)
        elif isinstance(self.backend, TruncatedQuotientBackend):
            if self.backend.spec != self.group:
                raise MalformedElementError("backend group differs from the model group")
            adapter = _TruncatedAdapter(self.backend)
        else:
            raise MalformedElementError(f"unsupported backend {self.backend!r}")
        object.__setattr__(self, "_adapter", adapter)

    @property
    def n(self) -> int:
        return self.shape.n

    def adapter(self):
        return self._adapter


def encode_entry_variable(i: int, j: int, k: int, degree, cfg: ModelConfig) -> int:
    """Flat id of the entry variable x_{i,j,k} of the given degree."""
    n = cfg.n
    degree = cfg.group.validate(tuple(degree))
    els = cfg.group.elements()
    g_idx = els.index(degree)
    r = len(els)
    if not (1 <= i <= n and 1 <= j <= n):
        raise MalformedElementError(f"position ({i},{j}) outside 1..{n}")
    if k < 1:
        raise MalformedElementError("generator index must be >= 1")
    return 1 + (j - 1) + n * ((i - 1) + n * (g_idx + r * (k - 1)))


def decode_entry_variable(vid: int, cfg: ModelConfig):
    """(i, j, k, degree) of a flat entry-variable id."""
    if vid < 1:
        raise MalformedElementError(f"bad variable id {vid}")
    n = cfg.n
    els = cfg.group.elements()
    r = len(els)
    rest, j = divmod(vid - 1, n)
    rest, i = divmod(rest, n)
    k, g_idx = divmod(rest, r)
    return i + 1, j + 1, k + 1, els[g_idx]


class GenericMatrix:
    """Block-triangular matrix of backend elements."""

    __slots__ = ("cfg", "entries")

    def __init__(self, cfg: ModelConfig, entries: dict):
        self.cfg = cfg
        clean = {}
        for (i, j), el in entries.items():
            if not cfg.shape.allowed(i, j):
                raise MalformedElementError(
                    f"entry at ({i},{j}) lies below the diagonal blocks"
                )
            clean[(i, j)] = el
        self.entries = clean

    def entry(self, i: int, j: int):
        el = self.entries.get((i, j))
        return self.cfg.adapter().zero() if el is None else el

    def same_model(self, other: "GenericMatrix") -> bool:
        return self.cfg == other.cfg

    def _require_same(self, other):
        if not isinstance(other, GenericMatrix) or not self.same_model(other):
            raise MalformedElementError("matrices come from different models")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.entries)
        for pos, el in other.entries.items():
            out[pos] = out[pos] + el if pos in out else el
        return GenericMatrix(self.cfg, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GenericMatrix":
        return GenericMatrix(self.cfg, {pos: el * c for pos, el in self.entries.items()})

    def __mul__(self, other):
        self._require_same(other)
        out = {}
        for (i, l), a in self.entries.items():
            for (l2, j), b in other.entries.items():
                if l != l2:
                    continue
                prod = a * b
                pos = (i, j)
                out[pos] = out[pos] + prod if pos in out else prod
        return GenericMatrix(self.cfg, out)

    def is_zero(self) -> bool:
        ad = self.cfg.adapter()
        return all(ad.is_zero(el) for el in self.entries.values())

    def equal(self, other) -> bool:
        self._require_same(other)
        ad = self.cfg.adapter()
        positions = set(self.entries) | set(other.entries)
        return all(ad.is_zero(self.entry(i, j) - other.entry(i, j)) for i, j in positions)

    def entry_strings(self) -> dict:
        """Printable entries keyed "i,j" over the allowed positions."""
        ad = self.cfg.adapter()
        return {
            f"{i},{j}": ad.format(self.entry(i, j))
            for i, j in self.cfg.shape.positions()
        }


def zero_matrix(cfg: ModelConfig) -> GenericMatrix:
    return GenericMatrix(cfg, {})

def identity_matrix(cfg: ModelConfig) -> GenericMatrix:
    ad = cfg.adapter()
    return GenericMatrix(cfg, {(i, i): ad.one() for i in range(1, cfg.n + 1)})


def make_generator(k: int, degree, cfg: ModelConfig) -> GenericMatrix:
    """Generic matrix of fresh degree-g entry variables at the allowed
    positions; distinct k never share variables."""
    ad = cfg.adapter()
    degree = cfg.group.validate(tuple(degree))
    entries = {}
    for i, j in cfg.shape.positions():
        vid = encode_entry_variable(i, j, k, degree, cfg)
        entries[(i, j)] = ad.variable(vid, degree)
    return GenericMatrix(cfg, entries)


def model_eval(f: NcPolynomial, cfg: ModelConfig) -> GenericMatrix:
    """Evaluate a graded polynomial at the generic matrices x_i -> xi_i.

    The result is the zero matrix exactly when f is a graded identity of
    the block-triangular matrices over the backend's algebra (for the
    normal-form backend; the truncated backend is exact up to its bound).

    Horner over left quotients: f = c + sum_x x*q_x gives
    eval(f) = c*1 + sum_x xi_x*eval(q_x), and each q_x splits again. A
    memo local to the call keys every quotient by its sorted terms divided
    by the leading coefficient; that coefficient is put back on the
    letter. So the call does one Horner step per distinct quotient (up to
    a scalar) and letter, not one matrix product per letter of every
    word: in a product of commutators most quotients repeat up to sign.

    A step moves the entry letters of the generator into the quotient's
    entries: entry (i,j) gains c * x_{i,l} * eval(q)_{l,j} for every l,
    each term one letter step that adds its product, times c, straight
    into the raw entry (i,j), with no product dict and no generic matrix
    of the generator built. The entries become backend elements once, at
    the end; zero entries are left out. A step forms at most
    cfg.shape.n_entry_products() letter products: the `model eval` guard
    bounds that count per step, not for the whole evaluation.
    """
    if not f.terms:
        return zero_matrix(cfg)
    # column l of generator x: the rows i and ids of its entry letters x_{i,l}
    columns, universe = {}, {}
    for x, deg in f.universe.items():
        col = columns[x] = {}
        for i, l in cfg.shape.positions():
            vid = encode_entry_variable(i, l, x, deg, cfg)
            universe[vid] = deg
            col.setdefault(l, []).append((i, vid))
    empty, times, finish = cfg.adapter().raw_arithmetic(universe)

    def normalized(terms: dict):
        """(leading coefficient, sorted terms divided by it), integral
        coefficients as ints so that insertions multiply ints."""
        items = sorted(terms.items())
        lead = Fraction(items[0][1])
        return integral(lead), tuple((w, integral(c / lead)) for w, c in items)

    def split(key):
        """Constant term, and the normalized left quotient by each first letter."""
        const, quotients = 0, {}
        for w, c in key:
            if w:
                quotients.setdefault(w[0], {})[w[1:]] = c
            else:
                const = c
        return const, {x: normalized(q) for x, q in quotients.items()}

    memo = {}  # normalized quotient -> its raw entries {(i, j): raw}
    lead, root = normalized(f.terms)
    stack = [root]  # depth first without recursion: words may be long
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        const, quotients = split(key)
        todo = [q for _, q in quotients.values() if q not in memo]
        if todo:
            stack.extend(todo)
            continue
        acc = {(i, i): {empty: const} for i in range(1, cfg.n + 1)} if const else {}
        for x, (c, q) in quotients.items():
            col = columns[x]
            for (l, j), raw in memo[q].items():
                for i, vid in col[l]:
                    times(vid, raw, acc.setdefault((i, j), {}), c)
        memo[stack.pop()] = {pos: raw for pos, raw in acc.items() if raw}
    raws = memo.pop(root)
    memo.clear()  # the quotients' entries go before the root's are finished
    entries = {
        pos: finish(raw if lead == 1 else {w: lead * c for w, c in raw.items()})
        for pos, raw in raws.items()
    }
    return GenericMatrix(cfg, entries)


def shift_automorphism(M: GenericMatrix, cfg: ModelConfig) -> GenericMatrix:
    """Substitute x_{i,j,k} -> x_{i+1,j+1,k} (mod n) inside every entry.

    Defined on single-block models only; on elements of the model the
    substituted entry at (i,j) coincides with the original entry at
    (i+1,j+1), wrapping modulo n.
    """
    if len(cfg.shape.sizes) != 1:
        raise UnsupportedFeatureError(
            "the shift substitution is defined on single-block models only"
        )
    n = cfg.n
    ad = M.cfg.adapter()
    out = {}
    for pos, el in M.entries.items():
        # both element types declare exactly the ids they use
        used = el.universe if ad.kind == "truncated" else el.parities
        id_map = {}
        for vid in used:
            i, j, k, deg = decode_entry_variable(vid, cfg)
            id_map[vid] = encode_entry_variable(i % n + 1, j % n + 1, k, deg, cfg)
        out[pos] = ad.rename(el, id_map)
    return GenericMatrix(cfg, out)


def _independent(matrices, positions, guard: GuardLimits) -> bool:
    """Linear independence over the rationals of matrices of one model,
    decided on the entries at positions(n) for the model's size n."""
    matrices = list(matrices)
    if not matrices:
        return True
    first = matrices[0]
    for m in matrices[1:]:
        first._require_same(m)
    ad = first.cfg.adapter()
    cells = positions(first.cfg.n)
    vectors = [
        {
            (i, j, key): val
            for i, j in cells
            for key, val in ad.keyed_vector(m.entry(i, j)).items()
        }
        for m in matrices
    ]
    # rank does not depend on column order: number keys as first seen
    index = {}
    for vec in vectors:
        for k in vec:
            index.setdefault(k, len(index))
    red = RowReducer(max(len(index), 1), guard)
    for vec in vectors:
        red.add({index[k]: v for k, v in vec.items()})
    return red.rank == len(matrices)


def independent_by_columns(
    matrices, k: int, guard: GuardLimits = DEFAULT_GUARD
) -> bool:
    """Linear independence over the rationals of the k-th columns."""

    def column(n):
        if not (1 <= k <= n):
            raise MalformedElementError(f"column {k} outside 1..{n}")
        return [(i, k) for i in range(1, n + 1)]

    return _independent(matrices, column, guard)


def independent_full(matrices, guard: GuardLimits = DEFAULT_GUARD) -> bool:
    """Independence decided on all matrix entries at once."""
    return _independent(
        matrices, lambda n: [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)], guard
    )


@dataclass(frozen=True)
class RectangularStrip:
    """Off-diagonal rectangle: rows of the leading blocks, columns of the
    last block, entries kept under their original variable ids."""

    n_rows: int
    n_cols: int
    entries: dict  # (relative i, relative j) -> backend element


def extract_blocks(M: GenericMatrix, cfg: ModelConfig):
    """(leading, corner, strip) views of the last-block decomposition.

    leading is the model over the first m-1 diagonal blocks, corner the
    last diagonal block, strip the rectangle joining them. Entry ids are
    kept verbatim, so the views reassemble to M exactly.
    """
    sizes = cfg.shape.sizes
    if len(sizes) < 2:
        raise MalformedElementError("block extraction needs at least two blocks")
    d_last = sizes[-1]
    nl = cfg.n - d_last
    lead_cfg = ModelConfig(BlockShape(sizes[:-1]), cfg.group, cfg.backend)
    corner_cfg = ModelConfig(BlockShape((d_last,)), cfg.group, cfg.backend)
    lead, corner, strip = {}, {}, {}
    for (i, j), el in M.entries.items():
        if i <= nl and j <= nl:
            lead[(i, j)] = el
        elif i > nl and j > nl:
            corner[(i - nl, j - nl)] = el
        else:
            strip[(i, j - nl)] = el
    return (
        GenericMatrix(lead_cfg, lead),
        GenericMatrix(corner_cfg, corner),
        RectangularStrip(nl, d_last, strip),
    )


def reassemble(
    leading: GenericMatrix,
    corner: GenericMatrix,
    strip: RectangularStrip,
    cfg: ModelConfig,
) -> GenericMatrix:
    nl = strip.n_rows
    if leading.cfg.n != nl or corner.cfg.n != strip.n_cols:
        raise MalformedElementError("pieces do not fit the stated strip size")
    entries = {}
    for (i, j), el in leading.entries.items():
        entries[(i, j)] = el
    for (i, j), el in corner.entries.items():
        entries[(i + nl, j + nl)] = el
    for (i, j), el in strip.entries.items():
        entries[(i, j + nl)] = el
    return GenericMatrix(cfg, entries)
