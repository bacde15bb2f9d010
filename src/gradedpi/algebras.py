"""Finite-dimensional graded algebras by structure constants.

Covers matrix algebras with elementary gradings, truncated exterior
algebras with several gradings on the generators, block-triangular matrix
algebras, and (block-triangular) matrices over another graded algebra with
the entry-degree grading. Elements are sparse coordinate vectors
(index -> exact int or Fraction) over the basis labels; structure constants
stay int wherever the product rule yields integers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    GradedEvaluationError,
    GuardExceededError,
    MalformedElementError,
    ParseError,
    UnsupportedFeatureError,
)
from .freealg import NcPolynomial
from .groups import TRIVIAL_GROUP, Z2, GroupElement, GroupSpec
from .linalg import GuardLimits, add_scaled

CHECK_ASSOC_EXHAUSTIVE_DIM = 32
CHECK_PAIR_EXHAUSTIVE_DIM = 300
CHECK_SAMPLES = 10_000
# far beyond any buildable truncation; keeps size estimates (2^n) printable
MAX_GENERATORS = 4096


@dataclass(frozen=True)
class BlockShape:
    """Sizes of the diagonal blocks of a block-triangular matrix pattern."""

    sizes: tuple

    def __post_init__(self):
        if not self.sizes or any((not isinstance(d, int)) or d < 1 for d in self.sizes):
            raise MalformedElementError(f"block sizes must be positive ints: {self.sizes!r}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def block_of(self, i: int) -> int:
        """Index of the diagonal block containing row/column i (1-based)."""
        upto = 0
        for b, d in enumerate(self.sizes):
            upto += d
            if i <= upto:
                return b
        raise MalformedElementError(f"index {i} outside 1..{self.n}")

    def allowed(self, i: int, j: int) -> bool:
        return self.block_of(i) <= self.block_of(j)

    def n_positions(self) -> int:
        """len(positions()), the sum of s_a * s_b over blocks a <= b."""
        return sum(d * sum(self.sizes[a:]) for a, d in enumerate(self.sizes))

    def n_entry_products(self) -> int:
        """Entry products a_{il} * b_{lj} in one product of two matrices of
        this pattern: the sum of s_a * s_b * s_c over blocks a <= b <= c.
        One Horner step of model_eval forms at most this many letter
        products x_{il} * e_{lj}."""
        return sum(
            sum(self.sizes[: b + 1]) * d * sum(self.sizes[b:]) for b, d in enumerate(self.sizes)
        )

    def positions(self) -> list:
        """Allowed (i,j), row-major order."""
        n = self.n
        return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if self.allowed(i, j)]


@dataclass(frozen=True)
class GrassmannSpec:
    """Truncated exterior algebra on n_generators anticommuting generators.

    deg kinds (generators are 1-based):
      natural  - every generator has degree 1 (group Z2)
      infty    - odd-indexed generators have degree 1 (group Z2)
      kstar    - generators 1..k have degree 1, the rest 0 (group Z2)
      explicit - per-generator degree list over Z2
      trivial  - trivial group, everything degree ()
    """

    n_generators: int
    deg_kind: str
    k: int | None = None
    explicit: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.n_generators <= MAX_GENERATORS:
            raise MalformedElementError(f"n_generators must lie in 0..{MAX_GENERATORS}")
        if self.deg_kind not in ("natural", "infty", "kstar", "explicit", "trivial"):
            raise UnsupportedFeatureError(f"unknown Grassmann deg kind {self.deg_kind!r}")
        if self.deg_kind == "kstar" and (self.k is None or self.k < 0):
            raise MalformedElementError("kstar grading needs k >= 0")
        if self.deg_kind == "explicit":
            if self.explicit is None or len(self.explicit) != self.n_generators:
                raise MalformedElementError("explicit grading needs one degree per generator")
            if any(d not in (0, 1) for d in self.explicit):
                raise MalformedElementError("explicit degrees must be 0 or 1")

    def group(self) -> GroupSpec:
        return TRIVIAL_GROUP if self.deg_kind == "trivial" else Z2

    def generator_parity(self, i: int) -> int:
        """Z2 degree of generator i; 0 for the trivial kind."""
        if self.deg_kind == "natural":
            return 1
        if self.deg_kind == "infty":
            return i % 2
        if self.deg_kind == "kstar":
            return 1 if i <= self.k else 0
        if self.deg_kind == "explicit":
            return self.explicit[i - 1]
        return 0

    def monomial_degree(self, label: tuple) -> GroupElement:
        if self.deg_kind == "trivial":
            return ()
        return (sum(self.generator_parity(i) for i in label) % 2,)


class StructureConstantAlgebra:
    """Unital graded algebra given by basis labels and a product rule.

    The product rule maps a pair of basis indices to a sparse linear
    combination {index: int or Fraction}; product_basis calls it on every
    use and keeps nothing. Construction checks unit laws everywhere, degree
    compatibility and associativity exhaustively for small dimensions and
    on 10^4 seeded samples above the bounds. Every build runs these three
    passes in this order on the same seeded draws (check_indices), calling
    the product rule once per term.
    """

    def __init__(self, labels, degrees, group: GroupSpec, product_fn, unit, meta=None):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise MalformedElementError("duplicate basis labels")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        degrees = [tuple(d) for d in degrees]
        valid = {d: group.validate(d) for d in dict.fromkeys(degrees)}  # once each
        self.degrees = tuple(valid[d] for d in degrees)
        if len(self.degrees) != self.dim:
            raise MalformedElementError("need one degree per basis label")
        self.group = group
        self._product_fn = product_fn
        self.unit = {i: c for i, c in unit.items() if c != 0}
        self.meta = dict(meta or {})
        self._check()

    def product_basis(self, i: int, j: int) -> dict:
        out = self._product_fn(i, j)
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c != 0}
        return out

    def mul_vectors(self, u: dict, v: dict) -> dict:
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                add_scaled(out, self.product_basis(i, j), a * b)
        return out

    def times_basis(self, vec: dict, k: int, left: bool = False) -> dict:
        """vec * e_k, or e_k * vec if left: one product-rule call per nonzero
        term of vec, as mul_vectors(vec, {k: 1}) computes it."""
        product = self._product_fn
        out = {}
        for t, c in vec.items():
            if c:
                add_scaled(out, product(k, t) if left else product(t, k), c)
        if 0 in out.values():  # a rule may list zero coefficients
            out = {t: c for t, c in out.items() if c}
        return out

    def basis_vector(self, i: int) -> dict:
        return {i: 1}

    def is_homogeneous(self, vec: dict, degree) -> bool:
        degree = tuple(degree)
        return all(self.degrees[i] == degree for i, c in vec.items() if c != 0)

    def _check(self):
        n = self.dim
        product = self._product_fn
        times_basis = self.times_basis
        unit = self.unit
        draws = check_indices(n)
        # unit laws on every basis element
        for i in range(n):
            e = {i: 1}
            if times_basis(unit, i) != e or times_basis(unit, i, left=True) != e:
                raise MalformedElementError(f"unit law fails at basis element {self.labels[i]!r}")
        # degree compatibility of all (sampled) products; the expected degree
        # is computed once per pair of degrees
        distinct = sorted(set(self.degrees))
        deg_id = {d: t for t, d in enumerate(distinct)}
        ids = [deg_id[d] for d in self.degrees]
        want_id = [[deg_id.get(self.group.op(a, b)) for b in distinct] for a in distinct]
        if n <= CHECK_PAIR_EXHAUSTIVE_DIM:
            pairs = itertools.product(range(n), repeat=2)
        else:
            pairs = itertools.islice(zip(draws, draws), CHECK_SAMPLES)
        for i, j in pairs:
            want = want_id[ids[i]][ids[j]]
            for k, c in product(i, j).items():
                if c and ids[k] != want:
                    raise MalformedElementError(
                        f"product {self.labels[i]!r}*{self.labels[j]!r} leaves its degree"
                    )
        # associativity on basis triples
        if n <= CHECK_ASSOC_EXHAUSTIVE_DIM:
            triples = itertools.product(range(n), repeat=3)
        else:
            triples = itertools.islice(zip(draws, draws, draws), CHECK_SAMPLES)
        for i, j, k in triples:
            if times_basis(product(i, j), k) != times_basis(product(j, k), i, left=True):
                raise MalformedElementError(
                    f"associativity fails on ({self.labels[i]!r},{self.labels[j]!r},{self.labels[k]!r})"
                )


def check_indices(n: int):
    """The self-check's endless stream of basis indices below n: the values
    random.Random(0xA11CE).randrange(n) draws, by the same rejection loop
    over getrandbits(n.bit_length()), without its call layers."""
    getrandbits = random.Random(0xA11CE).getrandbits
    bits = n.bit_length()
    while True:
        r = getrandbits(bits)
        if r < n:
            yield r


def homogeneous_indices(algebra: StructureConstantAlgebra, degree) -> list:
    degree = algebra.group.validate(tuple(degree))
    return [i for i, d in enumerate(algebra.degrees) if d == degree]


def evaluate(f: NcPolynomial, assignment: dict, algebra: StructureConstantAlgebra) -> dict:
    """Evaluate a polynomial at algebra elements; graded substitution rules.

    assignment maps variable id -> coordinate vector, which must be
    homogeneous of the variable's declared degree.
    """
    for vid, deg in f.universe.items():
        if vid not in assignment:
            raise GradedEvaluationError(f"no value assigned to x{vid}")
        if not algebra.is_homogeneous(assignment[vid], deg):
            raise GradedEvaluationError(f"value of x{vid} is not homogeneous of degree {deg}")
    out = {}
    for w, coeff in f.terms.items():
        cur = dict(algebra.unit)
        for vid in w:
            cur = algebra.mul_vectors(cur, assignment[vid])
        add_scaled(out, cur, coeff)
    return out


def is_g_regular(targets, spec: GroupSpec):
    """Whether the elementary grading by row degrees targets (position
    (i,j) of degree targets[j] - targets[i]) is surjective with equipotent
    fibers; returns (bool, report)."""
    fibers = {g: 0 for g in spec.elements()}
    for t in targets:
        fibers[spec.validate(tuple(t))] += 1
    counts = set(fibers.values())
    surjective = 0 not in counts
    regular = surjective and len(counts) == 1
    report = {
        "surjective": surjective,
        "equipotent": len(counts) == 1,
        "fibers": {",".join(map(str, g)): c for g, c in sorted(fibers.items())},
        "regular": regular,
    }
    return regular, report


# -- constructions --------------------------------------------------------


def build_matrix_algebra(
    targets, spec: GroupSpec, shape: BlockShape | None = None
) -> StructureConstantAlgebra:
    """(Block-triangular) matrix algebra over the field, elementary grading.

    Position (i,j) is a basis label "e_i_j" of degree targets[j]-targets[i];
    with a shape, only positions inside or above the diagonal blocks exist.
    """
    targets = tuple(spec.validate(tuple(t)) for t in targets)
    n = len(targets)
    if shape is None:
        shape = BlockShape((n,))
    if shape.n != n:
        raise MalformedElementError(f"shape covers {shape.n} rows, targets cover {n}")
    positions = shape.positions()
    labels = [f"e_{i}_{j}" for i, j in positions]
    pos_of = {lab: ij for lab, ij in zip(labels, positions)}
    index_of_pos = {ij: idx for idx, ij in enumerate(positions)}
    degrees = [spec.op(targets[j - 1], spec.inverse(targets[i - 1])) for i, j in positions]

    def product(a: int, b: int) -> dict:
        i, j = positions[a]
        k, l = positions[b]
        if j != k:
            return {}
        return {index_of_pos[(i, l)]: 1}

    unit = {index_of_pos[(i, i)]: 1 for i in range(1, n + 1)}
    kind = "matrix" if len(shape.sizes) == 1 else "block_triangular"
    meta = {
        "kind": kind,
        "targets": targets,
        "shape": shape.sizes,
        "group": spec,
    }
    return StructureConstantAlgebra(labels, degrees, spec, product, unit, meta)


def build_field(spec: GroupSpec = TRIVIAL_GROUP) -> StructureConstantAlgebra:
    """The ground field as a one-dimensional algebra in degree 0."""
    return StructureConstantAlgebra(
        ("1",),
        (spec.identity(),),
        spec,
        lambda i, j: {0: 1},
        {0: 1},
        meta={"kind": "field", "group": spec},
    )


def build_grassmann(gspec: GrassmannSpec) -> StructureConstantAlgebra:
    """Exterior algebra on gspec.n_generators generators, graded per gspec.

    Basis labels are ascending generator tuples ordered by (length, lex);
    products carry the sign of the interleaving merge.
    """
    n = gspec.n_generators
    labels = []
    for size in range(n + 1):
        labels.extend(itertools.combinations(range(1, n + 1), size))
    spec = gspec.group()
    # generator g is bit g-1. Moving b's generators past a's larger ones
    # takes sum over g in b of popcount(mask_a >> g) swaps; its parity is
    # popcount(mask_a & above[b]), where above[b] holds the bits lying above
    # an odd number of b's generators.
    full = (1 << n) - 1
    masks = []
    above = []
    for lab in labels:
        mask = flips = 0
        for g in lab:
            mask |= 1 << (g - 1)
            flips ^= full & ~((1 << g) - 1)
        masks.append(mask)
        above.append(flips)
    if gspec.deg_kind == "trivial":
        degrees = [()] * len(labels)
    else:
        odd = sum(1 << (g - 1) for g in range(1, n + 1) if gspec.generator_parity(g))
        degrees = [((mask & odd).bit_count() & 1,) for mask in masks]
    index_of_mask = [0] * (1 << n)
    for i, mask in enumerate(masks):
        index_of_mask[mask] = i

    def product(a: int, b: int) -> dict:
        ma, mb = masks[a], masks[b]
        if ma & mb:
            return {}
        return {index_of_mask[ma | mb]: -1 if (ma & above[b]).bit_count() & 1 else 1}

    unit = {0: 1}
    meta = {"kind": "grassmann", "gspec": gspec, "group": spec}
    return StructureConstantAlgebra(labels, degrees, spec, product, unit, meta)


def build_matrix_over(
    entries: StructureConstantAlgebra, shape: BlockShape
) -> StructureConstantAlgebra:
    """(Block-triangular) matrices over a graded algebra, entry-degree grading.

    Matrix positions carry no degree of their own: (i,j,b) has the degree of
    the entry basis element b. Label (i,j,b) has index p*dim_E + b, where p
    is the index of position (i,j).
    """
    positions = shape.positions()
    dim_e = entries.dim
    labels = [(i, j, lab) for i, j in positions for lab in entries.labels]
    degrees = entries.degrees * len(positions)
    pos_index = {ij: p for p, ij in enumerate(positions)}
    # compose[p][q]: the position of unit(p) * unit(q), or None if it is zero
    compose = [
        [pos_index[(i, l)] if j == k else None for k, l in positions]
        for i, j in positions
    ]
    # the raw rule: product_basis drops this algebra's zeros
    entry_product = entries._product_fn

    def product(a: int, b: int) -> dict:
        r = compose[a // dim_e][b // dim_e]
        if r is None:
            return {}
        base = r * dim_e
        return {base + t: c for t, c in entry_product(a % dim_e, b % dim_e).items()}

    unit = {
        pos_index[(i, i)] * dim_e + t: c
        for i in range(1, shape.n + 1)
        for t, c in entries.unit.items()
    }
    meta = {
        "kind": "matrix_over",
        "shape": shape.sizes,
        "entries": entries,
        "group": entries.group,
    }
    return StructureConstantAlgebra(labels, degrees, entries.group, product, unit, meta)


# -- descriptors -----------------------------------------------------------
#
# Every descriptor, JSON or inline, takes one path: _resolve checks it and
# returns its canonical form, its grading group, the exterior algebra at its
# core and a builder. Kinds: field, matrix, block_triangular (elementary
# grading over the field), grassmann, matrix_over (entry-degree grading over
# a nested "entries" descriptor).


class _Resolved(NamedTuple):
    desc: dict  # canonical form
    group: GroupSpec
    exterior: GrassmannSpec | None  # the exterior algebra at the core, if any
    build: Callable[[], StructureConstantAlgebra]
    dim: int  # of the algebra the builder makes
    unit_terms: int  # basis elements in its unit


def _int(value, what: str) -> int:
    """An integer field: an int or integer text (bool is not an int here)."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _ints(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int(x, what) for x in value)


def _required(desc: dict, key: str):
    if key not in desc:
        raise ParseError(f"{desc['kind']} descriptor needs {key!r}")
    return desc[key]


def _known_keys(obj: dict, allowed: tuple, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed), key=str)
    if unknown:
        raise ParseError(
            f"{what} has unknown key {unknown[0]!r}; allowed: {', '.join(sorted(allowed))}"
        )


def _grading(desc: dict, key: str) -> dict:
    """The descriptor's grading object, whose only key may be key."""
    grading = desc.get("grading", {})
    if not isinstance(grading, dict):
        raise ParseError(f"'grading' must be an object, got {grading!r}")
    _known_keys(grading, (key,), f"{desc['kind']} grading")
    return grading


def _group(desc: dict, derived: GroupSpec | None = None) -> GroupSpec:
    """The stated group (trivial if none); where the grading fixes the group,
    a stated one must agree with it."""
    if "group" not in desc:
        return TRIVIAL_GROUP if derived is None else derived
    spec = GroupSpec(_ints(desc["group"], "group orders"))
    if derived is not None and spec != derived:
        raise ParseError(
            f"{desc['kind']} descriptor states group {list(spec.orders)}, "
            f"its grading gives {list(derived.orders)}"
        )
    return spec


def _grassmann_spec(deg, n: int) -> GrassmannSpec:
    """The one table from a grading ("deg") to its GrassmannSpec: "natural",
    "infty", "trivial", {"kstar": k} or {"explicit": [degrees]}."""
    if isinstance(deg, dict) and len(deg) == 1:
        ((name, arg),) = deg.items()
        if name == "kstar":
            return GrassmannSpec(n, "kstar", k=_int(arg, "kstar k"))
        if name == "explicit":
            return GrassmannSpec(n, "explicit", explicit=_ints(arg, "explicit degrees"))
    elif deg in ("natural", "infty", "trivial"):
        return GrassmannSpec(n, deg)
    elif deg == "kstar":
        raise ParseError('the kstar grading needs k: {"kstar": k}, inline k=<k>')
    elif deg == "degk":
        raise UnsupportedFeatureError(
            "unsupported grading 'degk': its defining generator polynomials "
            "are not in the supported catalogue"
        )
    raise ParseError(f"unknown grassmann grading {deg!r}")


def _grassmann_descriptor(g: GrassmannSpec) -> dict:
    if g.deg_kind == "kstar":
        deg = {"kstar": g.k}
    elif g.deg_kind == "explicit":
        deg = {"explicit": list(g.explicit)}
    else:
        deg = g.deg_kind
    return {
        "kind": "grassmann",
        "generators": g.n_generators,
        "group": list(g.group().orders),
        "grading": {"deg": deg},
    }


# the keys each kind may have
_KEYS = {
    "field": ("kind", "group"),
    "matrix": ("kind", "group", "grading"),
    "block_triangular": ("kind", "group", "grading", "shape"),
    "grassmann": ("kind", "generators", "group", "grading"),
    "matrix_over": ("kind", "shape", "entries", "group"),
}


def _resolve(desc) -> _Resolved:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParseError("descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in _KEYS:
        raise ParseError(f"unknown algebra kind {kind!r}")
    _known_keys(desc, _KEYS[kind], f"{kind} descriptor")
    if kind == "field":
        spec = _group(desc)
        return _Resolved(
            {"kind": kind, "group": list(spec.orders)}, spec, None, lambda: build_field(spec), 1, 1
        )
    if kind in ("matrix", "block_triangular"):
        spec = _group(desc)
        raw = _grading(desc, "targets").get("targets")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ParseError(f"{kind} descriptor needs grading.targets")
        targets = [spec.validate(_ints(t, "grading targets")) for t in raw]
        canon = {
            "kind": kind,
            "group": list(spec.orders),
            "grading": {"targets": [list(t) for t in targets]},
        }
        shape = BlockShape((len(targets),))
        if kind == "block_triangular":
            shape = BlockShape(_ints(_required(desc, "shape"), "block sizes"))
            canon["shape"] = list(shape.sizes)
        return _Resolved(
            canon,
            spec,
            None,
            lambda: build_matrix_algebra(targets, spec, shape),
            shape.n_positions(),
            shape.n,
        )
    if kind == "grassmann":
        stated = "generators" in desc
        n = _int(desc["generators"], "generators") if stated else 0
        gspec = _grassmann_spec(_grading(desc, "deg").get("deg", "natural"), n)
        spec = _group(desc, gspec.group())
        canon = _grassmann_descriptor(gspec)
        if not stated:
            del canon["generators"]
        return _Resolved(canon, spec, gspec, lambda: build_grassmann(gspec), 2**n, 1)
    # kind == "matrix_over"
    shape = BlockShape(_ints(_required(desc, "shape"), "block sizes"))
    inner = _resolve(_required(desc, "entries"))
    spec = _group(desc, inner.group)
    canon = {"kind": kind, "shape": list(shape.sizes), "entries": inner.desc}
    return _Resolved(
        canon,
        spec,
        inner.exterior,
        lambda: build_matrix_over(inner.build(), shape),
        inner.dim * shape.n_positions(),
        inner.unit_terms * shape.n,
    )


def normalize_descriptor(desc) -> dict:
    """Check a descriptor and return its canonical form: integer fields as
    ints, the group stated wherever the kind has one of its own."""
    return _resolve(desc).desc


def descriptor_group(desc) -> GroupSpec:
    """The grading group of the algebra a descriptor names."""
    return _resolve(desc).group


def exterior_spec(desc) -> GrassmannSpec | None:
    """The exterior algebra at the core of a grassmann descriptor or of a
    matrix_over one; None for every other kind. Its n_generators is 0 when
    the descriptor leaves the truncation to the caller."""
    return _resolve(desc).exterior


def with_generators(desc, n: int) -> dict:
    """The canonical descriptor with its exterior algebra at n generators."""
    canon = normalize_descriptor(desc)
    if canon["kind"] == "matrix_over":
        return dict(canon, entries=with_generators(canon["entries"], n))
    if canon["kind"] != "grassmann":
        raise ParseError(f"a {canon['kind']} descriptor has no exterior algebra")
    return dict(canon, generators=n)


def guard_construction(desc, guard: GuardLimits) -> int:
    """Bound the construction of the algebra a descriptor names, before any
    of it runs: the unit-law pass of its self-check computes
    2 x dim x |unit| basis products, read from the descriptor alone. Returns
    that estimate; raises GuardExceededError if it exceeds max_cells."""
    r = _resolve(desc)
    products = 2 * r.dim * r.unit_terms
    if products > guard.max_cells:
        raise GuardExceededError(
            f"building the {r.dim}-dimensional {r.desc['kind']} algebra: its unit-law "
            f"check computes {products} basis products, which exceeds the guard of "
            f"{guard.max_cells} cells",
            cells=products,
        )
    return products


def algebra_from_descriptor(desc) -> StructureConstantAlgebra:
    """Build an algebra from its JSON descriptor object."""
    return _resolve(desc).build()


def descriptor_of(algebra: StructureConstantAlgebra) -> dict:
    """Reconstruct the JSON descriptor of a constructed algebra."""
    meta = algebra.meta
    kind = meta.get("kind")
    if kind == "field":
        return {"kind": "field", "group": list(meta["group"].orders)}
    if kind in ("matrix", "block_triangular"):
        out = {
            "kind": kind,
            "group": list(meta["group"].orders),
            "grading": {"targets": [list(t) for t in meta["targets"]]},
        }
        if kind == "block_triangular":
            out["shape"] = list(meta["shape"])
        return out
    if kind == "grassmann":
        return _grassmann_descriptor(meta["gspec"])
    if kind == "matrix_over":
        inner = descriptor_of(meta["entries"])
        return {"kind": "matrix_over", "shape": list(meta["shape"]), "entries": inner}
    raise UnsupportedFeatureError(f"no descriptor for algebra kind {kind!r}")


def parse_inline_descriptor(text: str) -> dict:
    """Compact command-line form, e.g. "grassmann:N=6,deg=natural" or "field".

    field | grassmann:[N=<n>][,deg=<natural|infty|trivial|kstar|degk>][,k=<k>]

    The text only becomes the JSON shape (N= is "generators"; deg= is
    grading.deg, and k= makes it {deg: k}) and is then checked like any JSON
    descriptor. Omitting N= leaves the truncation to the caller.
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    params = {}
    for piece in rest.split(","):
        if not piece.strip():
            continue
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq or key not in ("N", "deg", "k") or key in params:
            raise ParseError(f"bad descriptor parameter {piece!r}")
        params[key] = val.strip()
    if kind == "field" and not params:
        return normalize_descriptor({"kind": "field"})
    if kind != "grassmann":
        raise ParseError(
            f"unknown inline algebra {text.strip()!r} (inline forms are field and "
            "grassmann:...; use a JSON descriptor otherwise)"
        )
    deg = params.get("deg", "natural")
    desc = {"kind": kind, "grading": {"deg": {deg: params["k"]} if "k" in params else deg}}
    if "N" in params:
        desc["generators"] = params["N"]
    return normalize_descriptor(desc)
