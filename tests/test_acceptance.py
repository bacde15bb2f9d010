"""End-to-end acceptance checks, one test per shipped guarantee.

Every comparison here is exact (Fraction arithmetic, zero tolerance).
Each test registers a PASS/FAIL line that conftest prints in the
terminal summary, and the tests with a stated runtime budget enforce it.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gradedpi import Z2
from gradedpi.algebras import (
    BlockShape,
    GrassmannSpec,
    build_grassmann,
    build_matrix_algebra,
    build_matrix_over,
    is_g_regular,
)
from gradedpi.cli import main
from gradedpi.freealg import left_normed_commutator, parse_poly, yvar, zvar
from gradedpi.linalg import kernel_basis, row_space
from gradedpi.model import (
    ModelConfig,
    independent_by_columns,
    independent_full,
    make_generator,
    model_eval,
    shift_automorphism,
    zero_matrix,
)
from gradedpi.relfree import (
    GradingMode,
    count_multilinear_basis_words,
    expand,
    normal_form,
    partial_multiplicativity_check,
    soundness_probe,
)
from gradedpi.spaces import (
    EvaluationProvider,
    ProductProvider,
    check_factoring,
    identities_by_consequences,
    identities_by_evaluation,
    membership,
    presentation_for_mode,
    presentation_trivial_grassmann,
)

from _support import (
    ACCEPTANCE_GENERATORS,
    acceptance_commands,
    acceptance_pass,
    acceptance_start,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def E(n, kind, k=None):
    return build_grassmann(GrassmannSpec(n, kind, k=k))


def z2_sigs_up_to(total):
    out = []
    for n in range(1, total + 1):
        out.extend(itertools.product(((0,), (1,)), repeat=n))
    return out


def test_criterion_01_route_agreement_exterior_gradings():
    label = "consequence route == evaluation route (infty, kstar:1, kstar:2)"
    acceptance_start(1, label)
    t0 = time.monotonic()
    built = {}  # each distinct E_N built once, keyed by (kind, k, N)
    for name in ("infty", "kstar:1", "kstar:2"):
        mode = GradingMode.parse(name)
        pres = presentation_for_mode(mode)
        for sig in z2_sigs_up_to(4):
            co = identities_by_consequences(pres, sig)
            key = (mode.kind, mode.k, 2 * len(sig) + 4)
            if key not in built:
                built[key] = E(key[2], mode.kind, k=mode.k)
            ev = identities_by_evaluation(built[key], sig, method="limit")
            # exact equality of the canonical reduced bases
            assert ev.space.rows == co.space.rows, (name, sig)
            assert ev.space.pivots == co.space.pivots, (name, sig)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    acceptance_pass(1, label, elapsed, 300)


def test_criterion_02_ungraded_grassmann_dimensions():
    label = "dim(P_n cap T(E)) for n=2..5 matches the golden file on both routes"
    acceptance_start(2, label)
    t0 = time.monotonic()
    golden = json.loads((GOLDEN / "ungraded_grassmann_dims.json").read_text())["dims"]
    pres = presentation_trivial_grassmann()
    for n in range(2, 6):
        sig = ((),) * n
        co = identities_by_consequences(pres, sig)
        ev = identities_by_evaluation(E(2 * n, "trivial"), sig, method="limit")
        assert co.space == ev.space, n
        assert co.dim == ev.dim == golden[str(n)], n
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    acceptance_pass(2, label, elapsed, 600)


def test_criterion_03_factoring_ut11_exterior():
    label = "UT(1,1;E) factors as T(E)T(E) (natural and infty, sigs up to length 4)"
    acceptance_start(3, label)
    t0 = time.monotonic()
    built = {}  # each distinct E_N and its M(E_N) built once, keyed by (kind, N)
    for kind in ("natural", "infty"):
        for sig in z2_sigs_up_to(4):
            n = len(sig)
            dims = []
            # two consecutive truncations confirm the dimensions stabilized
            for N in (2 * n + 2, 2 * n + 3):
                if (kind, N) not in built:
                    A = E(N, kind)
                    built[kind, N] = A, build_matrix_over(A, BlockShape((1, 1)))
                A, R = built[kind, N]
                v = check_factoring(
                    EvaluationProvider(R), [EvaluationProvider(A), EvaluationProvider(A)], sig
                )
                assert v.relation == "equal", (kind, sig, N)
                dims.append((v.dim_identities, v.dim_product))
            assert dims[0] == dims[1], (kind, sig, dims)
    elapsed = time.monotonic() - t0
    assert elapsed < 900
    acceptance_pass(3, label, elapsed, 900)


@pytest.mark.slow
def test_factoring_ut11_infty_at_length_6(capsys):
    """The first non-zero infty factoring: at each of the 7 length-6
    signatures the identities of UT(1,1;E) and T(E)T(E) have dimension 80."""
    code = main(["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=infty",
                 "--sweep", "6"])
    out = capsys.readouterr().out
    assert code == 0
    cert = json.loads(out[out.index('{\n  "certificate_version"'):])
    length_6 = [v for v in cert["result"]["verdicts"] if len(v["signature"]) == 6]
    assert len(length_6) == 7
    for v in length_6:
        assert (v["dim_identities"], v["dim_product"], v["relation"]) == (80, 80, "equal"), v
    assert cert["result"]["all_equal"] is True


def test_criterion_04_factoring_fails_for_kstar():
    label = "UT(1,1;E) with kstar:k entries: product strictly inside, witness z1..z(k+1)"
    acceptance_start(4, label)
    t0 = time.monotonic()
    for k in (1, 2):
        sig = ((1,),) * (k + 1)
        A = E(k + 5, "kstar", k=k)
        R = build_matrix_over(A, BlockShape((1, 1)))
        factors = [EvaluationProvider(A), EvaluationProvider(A)]
        v = check_factoring(EvaluationProvider(R), factors, sig)
        assert v.relation == "product_strictly_inside", k
        zword = parse_poly("*".join(f"z{i}" for i in range(1, k + 2)), Z2)
        assert (v.witness - zword).is_zero(), k
        assert membership(zword, EvaluationProvider(R).component(sig)), k
        assert not membership(zword, ProductProvider(factors).component(sig)), k
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    acceptance_pass(4, label, elapsed, 60)


def test_criterion_05_factoring_two_m2_blocks():
    label = "two M_2 blocks with targets (0,1,0,1): factoring holds at sigs up to length 3"
    acceptance_start(5, label)
    t0 = time.monotonic()
    ok, _report = is_g_regular(((0,), (1,)), Z2)
    assert ok  # each diagonal block carries a regular grading
    R = build_matrix_algebra(((0,), (1,), (0,), (1,)), Z2, BlockShape((2, 2)))
    blk = build_matrix_algebra(((0,), (1,)), Z2)
    factors = [EvaluationProvider(blk), EvaluationProvider(blk)]
    for sig in z2_sigs_up_to(3):
        v = check_factoring(EvaluationProvider(R), factors, sig)
        assert v.relation == "equal", sig
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    acceptance_pass(5, label, elapsed, 600)


def test_criterion_06_model_corpus_equivalence():
    label = "model_eval(f) == 0 iff f is an identity, on the shipped corpus"
    acceptance_start(6, label)
    t0 = time.monotonic()
    corpus = json.loads((DATA / "model_corpus.json").read_text())
    assert len(corpus) >= 30
    built = {}  # each distinct M(E_N) built once, keyed by (kind, k, N, shape)
    for entry in corpus:
        mode = GradingMode.parse(entry["mode"])
        shape = BlockShape(tuple(entry["shape"]))
        f = parse_poly(entry["poly"], Z2)
        model_zero = model_eval(f, ModelConfig(shape, Z2, mode)).is_zero()
        n = len(f.universe)
        sig = tuple(tuple(f.universe[v]) for v in sorted(f.universe))
        key = (mode.kind, mode.k, 2 * n + 4, shape)
        if key not in built:
            built[key] = build_matrix_over(E(key[2], mode.kind, k=mode.k), shape)
        eval_zero = membership(
            f, identities_by_evaluation(built[key], sig, method="limit")
        )
        assert model_zero == eval_zero == entry["model_zero"], entry
    elapsed = time.monotonic() - t0
    acceptance_pass(6, label, elapsed)


def test_criterion_07_rewrite_soundness_and_word_counts():
    label = "normal forms sound on 500+ substitutions per mode; basis counts = n! - dim"
    acceptance_start(7, label)
    t0 = time.monotonic()
    probes = [
        left_normed_commutator([yvar(1), yvar(2), yvar(3)]),
        left_normed_commutator([zvar(1), zvar(2), zvar(3)]),
        left_normed_commutator([yvar(1), zvar(2), yvar(3)]),
        left_normed_commutator([yvar(1), yvar(2)])
        * left_normed_commutator([yvar(1), yvar(3)]),
        left_normed_commutator([zvar(1), zvar(2)])
        * left_normed_commutator([zvar(1), zvar(3)]),
        parse_poly("z3*z2*z1", Z2),
        parse_poly("z4*z3*z2*z1", Z2),
        parse_poly("y1*z2*y3*z4 - z4*y3*z2*y1", Z2),
    ]
    modes = [GradingMode.parse(m) for m in ("natural", "infty", "kstar:1", "kstar:2")]
    for mode in modes:
        # only count probes the engine actually rewrites: those force real
        # substitutions instead of the syntactic shortcut
        evaluated = [
            f for f in probes if not (f - expand(normal_form(f, mode))).is_zero()
        ]
        per = 500 // len(evaluated) + 1
        substitutions = failures = 0
        for i, f in enumerate(evaluated):
            rep = soundness_probe(f, mode, 10, per, seed=1000 + i)
            substitutions += rep.trials
            failures += rep.failures
        assert substitutions >= 500, mode.kind
        assert failures == 0, mode.kind
    for mode in modes:
        pres = presentation_for_mode(mode)
        for sig in z2_sigs_up_to(4):
            dim = identities_by_consequences(pres, sig).dim
            want = math.factorial(len(sig)) - dim
            assert count_multilinear_basis_words(mode, sig) == want, (mode.kind, sig)
    elapsed = time.monotonic() - t0
    acceptance_pass(7, label, elapsed)


def test_criterion_08_partial_multiplicativity():
    label = "basis multiplicativity holds for natural/infty, fails for kstar:1"
    acceptance_start(8, label)
    t0 = time.monotonic()
    for name in ("natural", "infty"):
        rep = partial_multiplicativity_check(GradingMode.parse(name), 4, 200, 20260818)
        assert rep.verdict == "holds-on-samples", name
        assert rep.samples >= 200 and rep.witness is None, name
    rep = partial_multiplicativity_check(GradingMode.parse("kstar:1"), 4, 200, 20260818)
    assert rep.verdict == "fails"
    assert rep.witness is not None and "= 0" in rep.witness
    elapsed = time.monotonic() - t0
    acceptance_pass(8, label, elapsed)


def test_criterion_09_column_independence_and_shift():
    label = "column test decides independence in U(2), U(3); shift law and order n"
    acceptance_start(9, label)
    t0 = time.monotonic()
    NAT = GradingMode.parse("natural")
    for n in (2, 3):
        cfg = ModelConfig(BlockShape((n,)), Z2, NAT)
        gens = [make_generator(k, (d,), cfg) for k in (1, 2, 3) for d in (0, 1)]
        pool = gens + [gens[0] * gens[3], gens[1] * gens[2]]
        rng = random.Random(20260818 + n)
        sampled = 0
        for _ in range(30):
            chosen = rng.sample(pool, rng.randint(2, 4))
            coeffs = [rng.randint(-2, 2) for _ in chosen]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            combo = zero_matrix(cfg)
            for c, m in zip(coeffs, chosen):
                combo = combo + m.scale(c)
            for mset in (list(chosen), list(chosen) + [combo]):
                for k in range(1, n + 1):
                    assert independent_by_columns(mset, k) == independent_full(mset)
                sampled += 1
        assert sampled >= 50  # 100+ sets across both models
        for k in (1, 2):
            for d in ((0,), (1,)):
                M = make_generator(k, d, cfg)
                S = shift_automorphism(M, cfg)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert S.entry(i, j) == M.entry(i % n + 1, j % n + 1)
                P = M
                for _ in range(n):
                    P = shift_automorphism(P, cfg)
                assert P.equal(M)
    elapsed = time.monotonic() - t0
    acceptance_pass(9, label, elapsed)


def test_criterion_10_invariant_suites_exhaustive():
    label = "rank-nullity/canonicity and algebra axioms exhaustive at small sizes"
    acceptance_start(10, label)
    t0 = time.monotonic()
    for n_rows, n_cols in ((2, 2), (2, 3)):
        for values in itertools.product((-1, 0, 1), repeat=n_rows * n_cols):
            rows = [
                {
                    j: Fraction(values[i * n_cols + j])
                    for j in range(n_cols)
                    if values[i * n_cols + j]
                }
                for i in range(n_rows)
            ]
            space = row_space(rows, n_cols)
            ker = kernel_basis(rows[::-1], n_cols)
            assert space.dim + ker.dim == n_cols
            # canonicity: swapping rows and adding one row to the other
            # must leave the reduced basis unchanged
            swapped = [dict(rows[1]), dict(rows[0])]
            for col, v in rows[1].items():
                nv = swapped[1].get(col, Fraction(0)) + 2 * v
                if nv:
                    swapped[1][col] = nv
                else:
                    swapped[1].pop(col, None)
            assert row_space(swapped, n_cols) == space

    def vec_eq(u, v):
        return {i: c for i, c in u.items() if c} == {i: c for i, c in v.items() if c}

    algebras = [
        E(3, "natural"),
        E(3, "infty"),
        E(3, "kstar", k=1),
        E(3, "trivial"),
        build_matrix_algebra(((0,), (1,)), Z2),
        build_matrix_algebra(((0,), (1,), (0,)), Z2, BlockShape((2, 1))),
    ]
    for A in algebras:
        one = A.unit
        for i in range(A.dim):
            v = A.basis_vector(i)
            assert vec_eq(A.mul_vectors(one, v), v)
            assert vec_eq(A.mul_vectors(v, one), v)
        for i, j in itertools.product(range(A.dim), repeat=2):
            p = A.product_basis(i, j)
            if p:
                want = A.group.op(A.degrees[i], A.degrees[j])
                assert all(A.degrees[k] == want for k in p)
        for i, j, k in itertools.product(range(A.dim), repeat=3):
            left = A.mul_vectors(A.product_basis(i, j), A.basis_vector(k))
            right = A.mul_vectors(A.basis_vector(i), A.product_basis(j, k))
            assert vec_eq(left, right), (i, j, k)
    elapsed = time.monotonic() - t0
    acceptance_pass(10, label, elapsed)


def test_criterion_11_certificates_are_deterministic(tmp_path, capsys):
    label = "every acceptance command yields byte-identical certificates on rerun"
    acceptance_start(11, label)
    t0 = time.monotonic()
    gens = tmp_path / "gens.txt"
    gens.write_text(ACCEPTANCE_GENERATORS, encoding="utf-8")
    commands = acceptance_commands(str(gens))
    for idx, argv in enumerate(commands):
        p1 = tmp_path / f"cert_{idx}_a.json"
        p2 = tmp_path / f"cert_{idx}_b.json"
        assert main(argv + ["--out", str(p1)]) == 0, argv
        assert main(argv + ["--out", str(p2)]) == 0, argv
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes(), argv
    elapsed = time.monotonic() - t0
    acceptance_pass(11, label, elapsed)
