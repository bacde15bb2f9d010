"""The three workloads: inputs made from the seed, one round's jobs, and
the check on every answer.

A job returns (answer_text, problems). answer_text is hashed into the
round's digest, which must be identical for every round of a run (same
seed, same inputs), traced or not. problems lists every check the answer
failed. Checks use an independent route or a property the method must
have, never a stored copy of earlier output.

Library calls go through module attributes (sp.identities_by_evaluation,
not an imported name) so that the traced run's rebinding sees them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


class Job:
    def __init__(self, name, fn, hardest=False):
        self.name = name
        self.fn = fn
        self.hardest = hardest


def _permuted(entries, rng):
    out = list(entries)
    rng.shuffle(out)
    return out


def _sig_text(sig):
    return ",".join(str(d[0]) if d else "0" for d in sig)


def _z2(entries):
    return tuple((d,) for d in entries)


# -- factor-cli ------------------------------------------------------------------


def _cli_argv(args, traced):
    if traced:
        return [sys.executable, os.path.join(HERE, "traced_cli.py")] + args
    return [sys.executable, "-m", "gradedpi"] + args


def run_cli(args, traced, env, timeout):
    """Run one gradedpi command in a fresh process.

    Returns (exit code, stdout text, raw trace or None).
    """
    proc = subprocess.run(
        _cli_argv(args, traced), capture_output=True, text=True, env=env, timeout=timeout
    )
    raw = None
    if traced and proc.returncode == 0:
        last = proc.stderr.strip().splitlines()[-1]
        raw = json.loads(last)
    return proc.returncode, proc.stdout, raw


def _certificate(stdout):
    lines = stdout.splitlines()
    start = lines.index("{")
    return json.loads("\n".join(lines[start:]))


def _verdict_problems(cert, expect_equal, kstar_k):
    problems = []
    rows = cert["result"]["verdicts"]
    for row in rows:
        n = len(row["signature"])
        if not row["dim_product"] <= row["dim_identities"] <= math.factorial(n):
            problems.append(f"dims out of order at {row['signature']}")
        if (row["relation"] == "equal") != (row["dim_product"] == row["dim_identities"]):
            problems.append(f"relation disagrees with dims at {row['signature']}")
    if expect_equal and not cert["result"]["all_equal"]:
        problems.append("factoring expected to hold at every signature")
    if kstar_k is not None:
        odd = [[1]] * (kstar_k + 1)
        hits = [r for r in rows if r["signature"] == odd]
        want = "*".join(f"z{i}" for i in range(1, kstar_k + 2))
        if not hits:
            problems.append("all-odd length-(k+1) signature missing")
        elif hits[0]["relation"] != "product_strictly_inside" or hits[0]["witness"] != want:
            problems.append(f"kstar:{kstar_k} verdict {hits[0]['relation']} witness {hits[0]['witness']}")
    return problems


def factor_cli_jobs(seed, ctx):
    rng = random.Random(seed)
    # the hardest job runs twice per round, at two orders of its signature,
    # so that hardest_s covers more of the run
    sig5s = [",".join(map(str, _permuted((0, 0, 1, 1, 1), rng))) for _ in range(2)]
    sig3 = ",".join(map(str, _permuted((0, 1, 1), rng)))
    ut11 = ["factor-check", "--shape", "1,1", "--entries"]
    specs = [
        (f"infty-sig5-{i}", ut11 + ["grassmann:deg=infty", "--sig", sig5], True, None, True)
        for i, sig5 in enumerate(sig5s)
    ]
    specs += [
        ("natural-sweep4", ut11 + ["grassmann:deg=natural", "--sweep", "4"], True, None, False),
        ("kstar1-sweep3", ut11 + ["grassmann:deg=kstar,k=1", "--sweep", "3"], False, 1, False),
        ("kstar2-sweep3", ut11 + ["grassmann:deg=kstar,k=2", "--sweep", "3"], False, 2, False),
        (
            "field-0101-sweep3",
            ["factor-check", "--shape", "2,2", "--entries", "field",
             "--targets", "0,1,0,1", "--group", "2", "--sweep", "3"],
            True, None, False,
        ),
        (
            "infty-3blocks-sig3",
            ["factor-check", "--shape", "1,1,1", "--entries", "grassmann:deg=infty", "--sig", sig3],
            True, None, False,
        ),
    ]
    rng.shuffle(specs)

    def make(args, expect_equal, kstar_k):
        def run():
            code, out, raw = run_cli(args, ctx.traced, ctx.env, ctx.timeout())
            if raw is not None:
                ctx.raws.append(raw)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return out, _verdict_problems(_certificate(out), expect_equal, kstar_k)

        return run

    return [Job(name, make(args, eq, k), hardest) for name, args, eq, k, hardest in specs]


SETUP_COMMAND = ["regularity", "--group", "2", "--targets", "0,1"]


# -- routes ----------------------------------------------------------------------

# length-5 multisets per grading; the seed permutes each signature's order
ROUTE_SIGS5 = {
    "trivial": [None],
    "natural": [(0, 0, 1, 1, 1)],
    "infty": [(0, 0, 0, 1, 1)],
    "kstar:1": [(0, 0, 1, 1, 1)],
    "kstar:2": [(0, 1, 1, 1, 1)],
}
# streamed consequence rows at length 6 exceed the default cell guard
LENGTH6_GUARD_CELLS = 50_000_000


def _min_generators(kind, k, n):
    """Smallest truncation whose limit rows cover every length-n pattern."""
    if kind == "infty":
        return 2 * n
    if kind == "kstar":
        return n + k
    return n


def routes_jobs(seed, ctx):
    from gradedpi import algebras as al
    from gradedpi import linalg as la
    from gradedpi import relfree as rf
    from gradedpi import spaces as sp

    rng = random.Random(seed)
    algebras = {}

    def algebra(name, n):
        # built once per round at the largest length it serves, then reused
        if name not in algebras:
            if name == "trivial":
                spec = al.GrassmannSpec(n, "trivial")
            else:
                mode = rf.GradingMode.parse(name)
                spec = al.GrassmannSpec(_min_generators(mode.kind, mode.k, n), mode.kind, k=mode.k)
            algebras[name] = al.build_grassmann(spec)
        return algebras[name]

    def presentation(name):
        if name == "trivial":
            return sp.presentation_trivial_grassmann()
        return sp.presentation_for_mode(rf.GradingMode.parse(name))

    def expected_codim(name, sig):
        n = len(sig)
        if name == "trivial":
            return 2 ** (n - 1)  # c_n(E), Krakowski-Regev
        return rf.count_multilinear_basis_words(rf.GradingMode.parse(name), sig)

    def both_routes(name, sig, n_alg, guard):
        def run():
            co = sp.identities_by_consequences(presentation(name), sig, guard)
            ev = sp.identities_by_evaluation(algebra(name, n_alg), sig, "limit")
            problems = []
            if co.space.rows != ev.space.rows or co.space.pivots != ev.space.pivots:
                problems.append(f"routes disagree at {name} {_sig_text(sig)}")
            codim = expected_codim(name, sig)
            if math.factorial(len(sig)) - ev.dim != codim:
                problems.append(f"{name} {_sig_text(sig)}: dim {ev.dim}, codim should be {codim}")
            return repr(ev.space.rows), problems

        return run

    def evaluation_only(name, sig, n_alg):
        def run():
            ev = sp.identities_by_evaluation(algebra(name, n_alg), sig, "limit")
            codim = expected_codim(name, sig)
            problems = []
            if math.factorial(len(sig)) - ev.dim != codim:
                problems.append(f"{name} {_sig_text(sig)}: dim {ev.dim}, codim should be {codim}")
            return repr(ev.space.rows), problems

        return run

    big = la.GuardLimits(max_cells=LENGTH6_GUARD_CELLS)
    jobs = []
    for name, multisets in ROUTE_SIGS5.items():
        n_alg = 6 if name in ("natural", "infty") else 5
        for ms in multisets:
            sig = ((),) * 5 if ms is None else _z2(_permuted(ms, rng))
            jobs.append(Job(f"{name}-{_sig_text(sig)}", both_routes(name, sig, n_alg, la.DEFAULT_GUARD)))
    # the hardest job runs twice per round, at two orders of its signature,
    # so that hardest_s covers more of the run
    for i in range(2):
        sig6 = _z2(_permuted((0, 0, 0, 1, 1, 1), rng))
        jobs.append(Job(f"natural-{i}-{_sig_text(sig6)}", both_routes("natural", sig6, 6, big), hardest=True))
    sig6e = _z2(_permuted((0, 0, 0, 1, 1, 1), rng))
    jobs.append(Job(f"infty-eval-{_sig_text(sig6e)}", evaluation_only("infty", sig6e, 6)))
    # fixed order: each algebra is built by its length-5 job, so no
    # length-6 job, the hardest included, pays for a construction
    return jobs


# -- model -----------------------------------------------------------------------

# (mode, shape, polynomial, vanishes by theorem or None, hardest). A
# product of m identities of E vanishes on UT(1,...,1;E) with m diagonal
# blocks. Every evaluation is also checked entrywise: a 1x1 diagonal entry
# is zero exactly when the relfree normal form of the polynomial is.
MODEL_EVALS = [
    ("infty", (1, 1, 1), "[[z1,z2],z3,z4]*[[y5,y6],y7]", None, True),
    ("infty", (1, 1, 1), "[z1,z2,z3]*[y4,z5]*[y6,y7]", None, False),
    ("infty", (1, 1), "[[z1,z2],z3,z4]*[[y5,y6],y7]", True, False),
    ("infty", (1, 1), "[[y1,y2],y3]*[[y4,y5],y6]", True, False),
    ("infty", (1, 1, 1), "[[z1,z2],z3]*[[y4,y5],y6]", None, False),
    ("infty", (2, 1), "[[y1,y2],y3]", None, False),
    ("infty", (1, 1), "[[z1,y2],z3]*[y4,z5]", None, False),
    ("natural", (1, 1, 1), "[y1,y2]*[y3,y4]*[y5,y6]", True, False),
    ("natural", (1, 1, 1), "[y1,z2]*[z3,z4]*[y5,y6]*z7", None, False),
    ("natural", (2, 1), "[[y1,y2],y3]*z4", None, False),
    ("natural", (1, 1), "z1*z2*y3", None, False),
    ("kstar:1", (1, 1, 1), "z1*z2*[y3,y4]*z5*z6", None, False),
    ("kstar:1", (2, 1), "[[y1,y2],z3]*[y4,y5]*z6", None, False),
    ("kstar:2", (1, 1, 1), "[[y1,y2],y3]*[[y4,z5],y6]*z7", None, False),
    ("kstar:2", (2, 1), "[y1,z2]*z3", None, False),
    ("kstar:2", (1, 1), "z1*z2*z3*z4*z5*z6", True, False),
]
# model_eval(f*g) == model_eval(f)*model_eval(g)
MODEL_PRODUCTS = [
    ("infty", (1, 1, 1), "[[z1,z2],z3]", "[[y4,y5],y6]"),
    ("natural", (2, 1), "[[y1,y2],y3]", "z4"),
    ("kstar:2", (2, 1), "[y1,z2]", "[z3,y4]"),
]
# normal_form(f*g) == relfree_mul(normal_form(f), normal_form(g)), and the
# normal form of an identity of E is zero
MODEL_NORMAL_FORMS = [
    ("infty", "[[z1,y2],z3]*y4*z5", "[y6,z7]*z8", "[[z1,y2],z3]"),
    ("kstar:2", "[y1,z2]*y3", "[y4,y5]*z6", "z1*z2*z3"),
    ("natural", "z1*y2*z3", "y4*z5*y6", "[y1,z2]"),
]
# partial multiplicativity holds for natural and infty whatever the
# sample; kstar:1 has a vanishing product of basis words
MULTBASIS = [("natural", None, "holds-on-samples"), ("infty", None, "holds-on-samples"),
             ("kstar:1", 0, "fails")]


def model_jobs(seed, ctx):
    from gradedpi import Z2
    from gradedpi import algebras as al
    from gradedpi import freealg as fa
    from gradedpi import model as md
    from gradedpi import relfree as rf

    def cfg(mode, shape):
        return md.ModelConfig(al.BlockShape(shape), Z2, rf.GradingMode.parse(mode))

    def text(matrix):
        return json.dumps(matrix.entry_strings(), sort_keys=True)

    def evaluate(mode, shape, poly, expect):
        f = fa.parse_poly(poly, Z2)

        def run():
            m = md.model_eval(f, cfg(mode, shape))
            zero = m.is_zero()
            ctx.model_verdicts.append((mode, shape, poly, zero))
            problems = []
            if expect is not None and zero != expect:
                problems.append(f"{mode} {shape} {poly}: vanishes={zero}, expected {expect}")
            in_te = rf.normal_form(f, rf.GradingMode.parse(mode)).is_zero()
            first = 1
            for size in shape:
                if size == 1 and m.entry(first, first).is_zero() != in_te:
                    problems.append(f"{mode} {shape} {poly}: entry ({first},{first}) disagrees with nf")
                first += size
            return text(m), problems

        return run

    def homomorphism(mode, shape, p, q):
        f, g = fa.parse_poly(p, Z2), fa.parse_poly(q, Z2)

        def run():
            c = cfg(mode, shape)
            whole = md.model_eval(f * g, c)
            parts = md.model_eval(f, c) * md.model_eval(g, c)
            problems = [] if whole.equal(parts) else [f"{mode} {shape}: eval({p}*{q}) != eval({p})*eval({q})"]
            return text(whole), problems

        return run

    def normal_forms(mode, p, q, ident):
        f, g, h = (fa.parse_poly(x, Z2) for x in (p, q, ident))
        gm = rf.GradingMode.parse(mode)

        def run():
            whole = rf.normal_form(f * g, gm)
            parts = rf.relfree_mul(rf.normal_form(f, gm), rf.normal_form(g, gm))
            problems = []
            if whole != parts:
                problems.append(f"{mode}: nf({p}*{q}) != nf({p})*nf({q})")
            if not rf.normal_form(h, gm).is_zero():
                problems.append(f"{mode}: nf({ident}) should vanish")
            return rf.format_relfree(whole), problems

        return run

    def multbasis(mode, fixed_seed, want):
        s = seed if fixed_seed is None else fixed_seed

        def run():
            rep = rf.partial_multiplicativity_check(rf.GradingMode.parse(mode), 4, 200, s)
            problems = [] if rep.verdict == want else [f"{mode}: multiplicativity {rep.verdict}"]
            return f"{rep.verdict} {rep.witness}", problems

        return run

    jobs = [Job(f"eval {m} {s} {p}", evaluate(m, s, p, e), h) for m, s, p, e, h in MODEL_EVALS]
    jobs += [Job(f"hom {m} {s} {p}*{q}", homomorphism(m, s, p, q)) for m, s, p, q in MODEL_PRODUCTS]
    jobs += [Job(f"nf {m} {p}*{q}", normal_forms(m, p, q, i)) for m, p, q, i in MODEL_NORMAL_FORMS]
    jobs += [Job(f"multbasis {m}", multbasis(m, s, w)) for m, s, w in MULTBASIS]
    # fixed order: the normal-form memo is shared by every job of a round,
    # so the order would move each job's time
    return jobs


def model_crosscheck(verdicts):
    """Evaluation-route membership for every model verdict on at most five
    variables (four beyond shape (1,1), where evaluation rows cost
    |positions|^n * n!); run outside the timed part. Returns the problems
    found."""
    from gradedpi import Z2
    from gradedpi import algebras as al
    from gradedpi import freealg as fa
    from gradedpi import relfree as rf
    from gradedpi import spaces as sp

    problems = []
    seen = set()
    for mode, shape, poly, zero in verdicts:
        f = fa.parse_poly(poly, Z2)
        n = len(f.universe)
        if n > (5 if shape == (1, 1) else 4) or (mode, shape, poly) in seen:
            continue
        seen.add((mode, shape, poly))
        gm = rf.GradingMode.parse(mode)
        entries = al.build_grassmann(
            al.GrassmannSpec(_min_generators(gm.kind, gm.k, n), gm.kind, k=gm.k)
        )
        alg = al.build_matrix_over(entries, al.BlockShape(shape))
        sig = tuple(tuple(f.universe[v]) for v in sorted(f.universe))
        member = sp.membership(f, sp.identities_by_evaluation(alg, sig, "limit"))
        if member != zero:
            problems.append(f"{mode} {shape} {poly}: model says {zero}, evaluation route {member}")
    return problems


BUILDERS = {
    "factor-cli": factor_cli_jobs,
    "routes": routes_jobs,
    "model": model_jobs,
}
WORKLOADS = tuple(BUILDERS)
