"""Compare the CLI of the working tree with the CLI at a git revision.

    python scripts/compare_cli.py REV

Unpacks src/ at REV (git archive) into a temporary directory, then runs a
fixed list of gradedpi commands once on that copy and once on the working
tree's src/, each in a fresh process. Every difference in stdout, stderr or
exit code is reported. Exit status: 0 if every command matches, 1 if any
differs, 2 on a usage or git error.

The list is criterion 11's acceptance commands (tests/_support.py), the
factor-check command shapes of the benchmark's factor-cli workload, one
factor-check over the non-square shape (2,1), one over (2,2) with infty
entries, whose two equal diagonal blocks share one M_2(E), one length-5 natural
factor-check, whose T-ideal product multiplies evaluation components, one
graded length-5 identities command that runs both the evaluation and the
consequence route on the natural grading's presentation, two model
evaluations of products of commutators, in (1,1,1) infty and (2,1)
kstar:1, whose left quotients repeat up to a scalar, and two bordered
factor-checks: (1,1) natural up to length 4, and (1,1,1) over the field
with targets 0,1,0, whose three-factor product nests a ProductProvider and
is non-zero. Three more commands cover straightening branches the rest
miss: a kstar:2 normal form whose rewrites cross the odd-letter cutoff, a
natural normal form (the supercommutative branch), and a natural model
evaluation in (1,1,1). Two multiplicativity probes, natural and infty,
run the rank of the products on every sample; the acceptance kstar:1
probe stops early at a zero product. One identities command takes a nested
matrix_over descriptor, (2,1) over (1,1) over E_5: entry dimension 96, not
a power of two, and dimension 672 (2,688 at the second truncation), so the
construction self-check samples its pairs and triples and the matrix-over
product splits indices by // and %. Two identities commands take --method
full: E_4 infty at (1,1), whose rows reach full rank with rows left over,
and M(E_N) over (1,1) infty at (1,0,1), with no rows at N=2 and 40 rows
past full rank at N=4. One length-6 infty factor-check has non-zero
components, 80 = 80. One length-6 identities command over (1,1) infty
writes the fast route's distinct-row count over matrices (3,878 rows,
dim 80). One three-factor kstar:1 sweep to length 4 runs the limit rows
where sub-signatures have patterns no truncation realizes. Two more cover
edge cases of straightening by insertion: an infty normal form of a
non-multilinear polynomial with repeated odd ids, whose commutators meet a
tail that already holds one of their ids, and a kstar:0 model evaluation,
where no odd letter survives. One kstar:2 model evaluation in (1,2), with
the square block last, has a word with three odd letters, which falls past
the cutoff and drops, beside one whose value is non-zero. One length-6
infty identities command takes the eight Z2 triple commutators as its
generators; they repeat one another up to sign under substitution, so the
consequence route's dedupe across generators and its row count are
covered. Two normal forms straighten whole polynomials by the letter step:
a natural one with a repeated odd id, a Fraction coefficient and words that
share a beginning, and a kstar:1 one whose words lie past the cutoff
before any letter moves in. One length-6 identities command takes
generators of arities 3 and 2, one with Fraction coefficients, at an
unsorted signature: the consequence route renames the shorter components
it computes at sorted degree sequences into every order that signature
needs. One length-6 infty identities command exits 3: E's component keeps
688 rows of 720 columns, more than its --max-cells allows, and the guard
trips before the kernel is built. Two commands read signatures over the
rank-0 group, whose only degree is 0: an identities command over the
trivially graded exterior algebra, and a factor-check sweep over the field
with no --targets. Two factor-check sweeps to length 3 pin the truncation:
(1,1) over E_4 with an explicit grading, and (2,1) over E_5 with kstar:1;
they run the fast rows at that N rather than the limit rows. Five
identities commands cover the stabilization scan: E_2 natural at 1,1,1,
whose two levels use different parity patterns (dims [6, 5]); E_3 infty
under --method limit, which exits 3 on a pattern E_3 cannot realize; the
nested matrix_over descriptor under --method fast, which exits 4; E_4 with
an explicit grading, evaluated once; and (2,1) over kstar:1 E at 1,0,1,1,
N unpinned. Four more run letter steps that add into an entry or a node
already holding words they cancel: model evaluations with Fraction
coefficients and repeated letters in (1,1) infty, (2,1) natural and
(1,1,1) kstar:1, and a kstar:2 normal form of a difference of two words
in reverse order. 55 commands in all.
"""

from __future__ import annotations

import difflib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from _support import ACCEPTANCE_GENERATORS, acceptance_commands  # noqa: E402

GENERATORS_FILE = "gens.txt"  # relative to the working directory of every run
# the natural grading's presentation (spaces.presentation_for_mode)
NATURAL_GENERATORS_FILE = "natural.txt"
NATURAL_GENERATORS = "[y1, y2]\n[y1, z2]\nz1*z2 + z2*z1\n"
# generators of mixed arities, one of them with Fraction coefficients
MIXED_GENERATORS_FILE = "mixed.txt"
MIXED_GENERATORS = "[[z1,y2],z3]\n1/2*y1*y2 - 1/2*y2*y1\n"
# the eight Z2 triple commutators (spaces.presentation_for_mode, infty)
TRIPLE_COMMUTATORS_FILE = "triples.txt"
TRIPLE_COMMUTATORS = "".join(
    f"[[{a}1, {b}2], {c}3]\n" for a, b, c in itertools.product("yz", repeat=3)
)
# (2,1) over (1,1) over E_5 with the natural grading
NESTED_MATRIX_OVER = json.dumps({
    "kind": "matrix_over", "shape": [2, 1],
    "entries": {"kind": "matrix_over", "shape": [1, 1],
                "entries": {"kind": "grassmann", "generators": 5, "grading": {"deg": "natural"}}},
})
# (1,1) over E_2 with the infty grading
UT11_OVER_E2 = json.dumps({
    "kind": "matrix_over", "shape": [1, 1],
    "entries": {"kind": "grassmann", "generators": 2, "grading": {"deg": "infty"}},
})
# (1,1) over E with the infty grading, truncation left to the command
UT11_OVER_E = json.dumps({
    "kind": "matrix_over", "shape": [1, 1],
    "entries": {"kind": "grassmann", "grading": {"deg": "infty"}},
})
# E_4 with generators of degrees 1, 0, 1, 1
EXPLICIT_E4 = json.dumps(
    {"kind": "grassmann", "generators": 4, "grading": {"deg": {"explicit": [1, 0, 1, 1]}}},
    separators=(",", ":"),
)
# (2,1) over E with the kstar:1 grading, truncation left to the command
UT21_OVER_KSTAR1 = json.dumps({
    "kind": "matrix_over", "shape": [2, 1],
    "entries": {"kind": "grassmann", "grading": {"deg": {"kstar": 1}}},
})

_UT11 = ["factor-check", "--shape", "1,1", "--entries"]
FACTOR_CLI_COMMANDS = [
    _UT11 + ["grassmann:deg=natural", "--sweep", "4"],
    _UT11 + ["grassmann:deg=kstar,k=1", "--sweep", "3"],
    _UT11 + ["grassmann:deg=kstar,k=2", "--sweep", "3"],
    ["factor-check", "--shape", "2,2", "--entries", "field",
     "--targets", "0,1,0,1", "--group", "2", "--sweep", "3"],
    _UT11 + ["grassmann:deg=infty", "--sig", "0,1,0,1,1"],
    ["factor-check", "--shape", "1,1,1", "--entries", "grassmann:deg=infty", "--sig", "1,0,1"],
    # a non-square shape: index arithmetic over unequal blocks
    ["factor-check", "--shape", "2,1", "--entries", "grassmann:deg=infty", "--sig", "0,1,1"],
    # a repeated block of size 2: both diagonal blocks share one M_2(E) provider
    ["factor-check", "--shape", "2,2", "--entries", "grassmann:deg=infty", "--sig", "0,1,1"],
    # a length-5 T-ideal product of evaluation components
    _UT11 + ["grassmann:deg=natural", "--sig", "0,0,1,1,1"],
    # a non-zero infty factoring, 80 = 80
    _UT11 + ["grassmann:deg=infty", "--sig", "0,1,0,1,1,0"],
    # graded consequence rows against the evaluation route, at length 5
    ["identities", "--algebra", "grassmann:deg=natural",
     "--generators", NATURAL_GENERATORS_FILE, "--sig", "0,1,0,1,1"],
    # generic-model evaluations whose left quotients repeat up to a scalar
    ["model", "eval", "--shape", "1,1,1", "--mode", "infty",
     "--poly", "[[z1,z2],z3]*[[y4,y5],y6]"],
    ["model", "eval", "--shape", "2,1", "--mode", "kstar:1",
     "--poly", "[[y1,y2],z3]*[y4,y5]*z6"],
    # bordered T-ideal products, two factors and a nested three-factor one
    _UT11 + ["grassmann:deg=natural", "--sweep", "4", "--bordered"],
    ["factor-check", "--shape", "1,1,1", "--entries", "field",
     "--targets", "0,1,0", "--group", "2", "--sweep", "4", "--bordered"],
    # straightening branches: the kstar cutoff, natural normal forms and evaluations
    ["relfree", "nf", "--mode", "kstar:2", "--poly", "z3*y2*z1 + [z1,y2]*z3*[y4,z5]"],
    ["relfree", "nf", "--mode", "natural", "--poly", "z3*y2*z1*y4 - y4*z1*z3"],
    ["model", "eval", "--shape", "1,1,1", "--mode", "natural",
     "--poly", "[y1,z2]*[z3,z4]*[y5,y6]*z7"],
    # multiplicativity probes whose every sample reaches the rank of the products
    ["relfree", "multbasis", "--mode", "natural", "--seed", "3"],
    ["relfree", "multbasis", "--mode", "infty", "--seed", "3"],
    # sampled self-checks of a matrix-over table whose entry dimension is 96
    ["identities", "--algebra", NESTED_MATRIX_OVER, "--sig", "1"],
    # the full evaluation route, with rows left over after full rank
    ["identities", "--algebra", "grassmann:N=4,deg=infty", "--sig", "1,1", "--method", "full"],
    ["identities", "--algebra", UT11_OVER_E2, "--sig", "1,0,1", "--method", "full"],
    # distinct fast rows over matrices, counted in the certificate
    ["identities", "--algebra", UT11_OVER_E, "--sig", "0,1,0,1,1,0"],
    # three kstar:1 factors: the limit rows drop patterns no truncation realizes
    ["factor-check", "--shape", "1,1,1", "--entries", "grassmann:deg=kstar,k=1", "--sweep", "4"],
    # insertion edge cases: repeated odd ids and tails that repeat an id; kstar:0
    ["relfree", "nf", "--mode", "infty",
     "--poly", "z3*z1*y2*z1*z3 + [z1,z3]*z3*y2*z1*y4 - z1*y4*z3*z1"],
    ["model", "eval", "--shape", "2,1", "--mode", "kstar:0", "--poly", "[y1,y2]*y3*[y4,y5]"],
    # the square block last; the second word passes the kstar:2 cutoff
    ["model", "eval", "--shape", "1,2", "--mode", "kstar:2",
     "--poly", "[z1,y2]*z3*y4 + z1*z5*z3*y4"],
    # consequence rows of generators that repeat one another up to sign, at length 6
    ["identities", "--algebra", "grassmann:deg=infty",
     "--generators", TRIPLE_COMMUTATORS_FILE, "--sig", "0,1,0,1,1,0"],
    # whole polynomials through the letter step: natural signs, and kstar:1 words past the cutoff
    ["relfree", "nf", "--mode", "natural",
     "--poly", "z1*y2*z1*y3 + 1/2*z4*y3*z1 - 3*z4*z1*y3*y3 + z5*y2*z4"],
    ["relfree", "nf", "--mode", "kstar:1",
     "--poly", "[z1,z4]*y3 + z1*y2*z4 - y2*[y3,z4] + 2*z4*y3*y2"],
    # consequence rows of shorter components renamed into an unsorted signature
    ["identities", "--generators", MIXED_GENERATORS_FILE, "--sig", "0,1,1,0,0,1"],
    # the evaluation route's kernel past --max-cells, bounded before it is built
    ["identities", "--algebra", "grassmann:deg=infty", "--sig", "0,1,0,1,1,0",
     "--max-cells", "400000"],
    # signatures over the rank-0 group
    ["identities", "--algebra", "grassmann:deg=trivial", "--sig", "0,0,0,0"],
    ["factor-check", "--shape", "1,1", "--entries", "field", "--sweep", "3"],
    # pinned truncations: the fast rows at that N
    _UT11 + [EXPLICIT_E4, "--sweep", "3"],
    ["factor-check", "--shape", "2,1", "--entries", "grassmann:N=5,deg=kstar,k=1",
     "--sweep", "3"],
    # the stabilization scan: levels with different patterns, a limit past
    # the truncation, no fast rows, an explicit grading, (2,1) unpinned
    ["identities", "--algebra", "grassmann:N=2,deg=natural", "--sig", "1,1,1"],
    ["identities", "--algebra", "grassmann:N=3,deg=infty", "--sig", "1,0,1,1",
     "--method", "limit"],
    ["identities", "--algebra", NESTED_MATRIX_OVER, "--sig", "1", "--method", "fast"],
    ["identities", "--algebra", EXPLICIT_E4, "--sig", "1,0,1"],
    ["identities", "--algebra", UT21_OVER_KSTAR1, "--sig", "1,0,1,1"],
    # letter steps that add into an entry or node already holding the words
    # they cancel: Fraction coefficients, repeated letters, both tail orders
    ["model", "eval", "--shape", "1,1", "--mode", "infty",
     "--poly", "1/2*z1*y2*z3-1/2*z3*y2*z1+[z1,z3]*y2"],
    ["model", "eval", "--shape", "2,1", "--mode", "natural",
     "--poly", "z1*y2*z1+y2*y2-1/3*y2*z1*z1"],
    ["model", "eval", "--shape", "1,1,1", "--mode", "kstar:1",
     "--poly", "2/3*z1*z2*y3-z2*z1*y3+[y3,z1]*z2"],
    ["relfree", "nf", "--mode", "kstar:2", "--poly", "1/2*z1*z2*z3*y4-1/2*y4*z3*z2*z1"],
]


def commands() -> list:
    return acceptance_commands(GENERATORS_FILE) + FACTOR_CLI_COMMANDS


def _unpack_src(rev: str, dest: str) -> str:
    """src/ of the revision, unpacked under dest; returns its path."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def _run(src: str, argv: list, cwd: str):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gradedpi"] + argv,
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _report(name: str, old, new) -> None:
    if name == "exit code":
        print(f"  exit code: {old} at REV, {new} here")
        return
    diff = difflib.unified_diff(
        old.splitlines(), new.splitlines(), f"{name} at REV", f"{name} here", lineterm="", n=1
    )
    for line in list(diff)[:40]:
        print(f"  {line}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python scripts/compare_cli.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = _unpack_src(rev, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"git archive failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        for name, text in [
            (GENERATORS_FILE, ACCEPTANCE_GENERATORS),
            (NATURAL_GENERATORS_FILE, NATURAL_GENERATORS),
            (TRIPLE_COMMUTATORS_FILE, TRIPLE_COMMUTATORS),
            (MIXED_GENERATORS_FILE, MIXED_GENERATORS),
        ]:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        new_src = os.path.join(ROOT, "src")
        differing = 0
        cmds = commands()
        for cmd in cmds:
            old, new = _run(old_src, cmd, tmp), _run(new_src, cmd, tmp)
            changed = [name for name in old if old[name] != new[name]]
            print(f"{'DIFFERS' if changed else 'same   '} gradedpi {' '.join(cmd)}", flush=True)
            for name in changed:
                _report(name, old[name], new[name])
            differing += bool(changed)
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
