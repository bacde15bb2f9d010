import contextlib
import functools
import io
import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi import spaces
from gradedpi.algebras import (
    BlockShape,
    GrassmannSpec,
    build_grassmann,
    build_matrix_over,
)
from gradedpi.cli import main
from gradedpi.freealg import format_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cert_from(out: str) -> dict:
    """Certificate JSON is the trailing block of stdout."""
    start = out.index('{\n  "certificate_version"')
    return json.loads(out[start:])


def test_regularity_regular(capsys):
    code, out, err = run_cli(capsys, "regularity", "--group", "2", "--targets", "0,1")
    assert code == 0
    cert = cert_from(out)
    assert cert["certificate_version"] == 1
    assert cert["command"] == "regularity"
    assert cert["result"]["regular"] is True
    assert cert["result"]["fibers"] == {"0": 1, "1": 1}


def test_regularity_negative_still_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "regularity", "--group", "2", "--targets", "0,0,1")
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["regular"] is False
    assert cert["result"]["equipotent"] is False
    code, out, _ = run_cli(capsys, "regularity", "--group", "2,2", "--targets", "0.0,1.1")
    assert code == 0
    assert cert_from(out)["result"]["surjective"] is False


def test_identities_evaluation_route(capsys):
    code, out, _ = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=natural",
        "--sig", "1,1",
        "--basis",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["dim"] == 1
    assert cert["result"]["basis"] == ["z1*z2 + z2*z1"]
    assert cert["result"]["stabilization"]["stabilized"] is True
    assert cert["config"]["signature"] == [[1], [1]]


def test_identities_builds_each_truncation_once(capsys, monkeypatch):
    """--method full builds each level of the scan once: n0 = 2 x 2 + 2,
    then n0 + 2."""
    built = []
    real = spaces.algebra_from_descriptor
    monkeypatch.setattr(
        spaces, "algebra_from_descriptor", lambda d: built.append(d) or real(d)
    )
    code, out, _ = run_cli(
        capsys, "identities", "--algebra", "grassmann:deg=kstar,k=2", "--sig", "1,1",
        "--method", "full",
    )
    assert code == 0
    assert [d["generators"] for d in built] == [6, 8]
    cert = cert_from(out)
    assert cert["result"]["stabilization"]["dims"][0] == cert["result"]["dim"]
    assert cert["config"]["algebra"]["generators"] == 6


# (1,1) over E with the infty grading, truncation left to the command
UT11_OVER_E = json.dumps({
    "kind": "matrix_over", "shape": [1, 1],
    "entries": {"kind": "grassmann", "grading": {"deg": "infty"}},
})


@pytest.mark.parametrize("method", ["auto", "fast", "limit"])
@pytest.mark.parametrize("algebra", ["grassmann:deg=infty", UT11_OVER_E], ids=["E", "UT11"])
def test_identities_over_e_builds_nothing(capsys, monkeypatch, method, algebra):
    """auto, fast and limit over E and M(E) read the rows off the exterior
    spec and the block shape: no algebra is constructed, and an unpinned
    scan evaluates once, since n0 and n0 + 2 use the same parity patterns."""
    built = _count_constructions(monkeypatch)
    calls = _count_fast_rows(monkeypatch)
    code, out, _ = run_cli(
        capsys, "identities", "--algebra", algebra, "--sig", "1,0,1", "--method", method
    )
    assert code == 0 and built == [] and len(calls) == 1
    assert cert_from(out)["result"]["stabilization"]["n_values"] == [6, 8]


def test_identities_evaluates_both_levels_when_their_patterns_differ(capsys, monkeypatch):
    """A pinned E_2 at 1,1,1 uses fewer parity patterns than E_4, so the scan
    evaluates both levels, still with nothing built."""
    built = _count_constructions(monkeypatch)
    calls = _count_fast_rows(monkeypatch)
    code, out, _ = run_cli(
        capsys, "identities", "--algebra", "grassmann:N=2,deg=natural", "--sig", "1,1,1"
    )
    assert code == 0 and built == [] and len(calls) == 2
    assert cert_from(out)["result"]["stabilization"]["dims"] == [6, 5]


def _count_fast_rows(monkeypatch) -> list:
    """Record every call of spaces.grassmann_fast_rows from now on."""
    calls = []
    real = spaces.grassmann_fast_rows
    monkeypatch.setattr(
        spaces, "grassmann_fast_rows", lambda *a: calls.append(a) or real(*a)
    )
    return calls


@pytest.mark.slow
def test_identities_scan_matches_evaluation_on_built_algebras(capsys):
    """Each scan's dims equal identities_by_evaluation on the built n0 and
    n0 + 2 algebras, at every Z2 signature up to length 4, over E and the
    shapes (1,1) and (2,1), for natural, infty and kstar:1, with N unpinned
    and pinned at 3, where the two levels can differ."""
    built = functools.lru_cache(maxsize=None)(
        lambda gspec, sizes: build_grassmann(gspec)
        if sizes == (1,)
        else build_matrix_over(build_grassmann(gspec), BlockShape(sizes))
    )
    gradings = [("natural", {}), ("infty", {}), ("kstar", {"k": 1})]
    differ = 0
    for (deg, kw), sizes, pinned in itertools.product(
        gradings, [(1,), (1, 1), (2, 1)], [None, 3]
    ):
        entries = {"kind": "grassmann", "grading": {"deg": {deg: kw["k"]} if kw else deg}}
        if pinned:
            entries["generators"] = pinned
        desc = entries if sizes == (1,) else {
            "kind": "matrix_over", "shape": list(sizes), "entries": entries,
        }
        for n in range(1, 5):
            for sig in itertools.product("01", repeat=n):
                code, out, _ = run_cli(
                    capsys, "identities", "--algebra", json.dumps(desc), "--sig", ",".join(sig)
                )
                assert code == 0
                scan = cert_from(out)["result"]["stabilization"]
                want = [
                    spaces.identities_by_evaluation(
                        built(GrassmannSpec(level, deg, **kw), sizes), [(int(d),) for d in sig]
                    ).dim
                    for level in scan["n_values"]
                ]
                assert scan["dims"] == want, (desc, sig)
                differ += want[0] != want[1]
    assert differ


def test_identities_generators_route(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("# generating identities\n[[x1, x2], x3]\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "identities",
        "--generators", str(gens),
        "--group", "1",
        "--sig", "0,0,0",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["dim"] == 2
    assert cert["result"]["routes"] == {"consequences": {"dim": 2, "meta": cert["result"]["routes"]["consequences"]["meta"]}}
    gens_echo = cert["config"]["generator_polynomials"]
    assert len(gens_echo) == 1 and "y1*y2*y3" in gens_echo[0]


def test_identities_both_routes_agree(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("z1*z2 + z2*z1\n[y1, y2]\n[y1, z2]\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=natural",
        "--generators", str(gens),
        "--sig", "1,1,0",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["routes_agree"] is True
    routes = cert["result"]["routes"]
    assert routes["evaluation"]["dim"] == routes["consequences"]["dim"] == cert["result"]["dim"]


def test_identities_route_disagreement_exits_2(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("[y1, y2]\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=natural",
        "--generators", str(gens),
        "--sig", "1,1",
    )
    assert code == 2
    assert "disagree" in (out + err).lower()


def test_identities_unstabilized_truncation_exits_2(capsys, tmp_path):
    # a pinned N=2 is too small at this signature: levels 2 and 4 disagree
    gens = tmp_path / "natural.txt"
    gens.write_text("[y1, y2]\n[y1, z2]\nz1*z2 + z2*z1\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:N=2,deg=natural",
        "--generators", str(gens),
        "--sig", "1,1,1",
    )
    assert code == 2
    result = cert_from(out)["result"]
    assert result["stabilization"] == {
        "n_values": [2, 4],
        "dims": [6, 5],
        "stabilized": False,
        "stabilized_at": None,
    }
    assert result["disagreement"]["reason"] == (
        "the truncation did not stabilize; rerun with a larger generator count"
    )
    assert "truncations [2, 4] give dimensions [6, 5] (NOT stabilized)" in out.splitlines()


def test_identities_needs_some_input(capsys):
    code, _, err = run_cli(capsys, "identities", "--sig", "1,1")
    assert code == 1


def test_identities_degk_exits_4(capsys):
    code, _, err = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=degk",
        "--sig", "1,1",
    )
    assert code == 4
    assert "unsupported" in err.lower()


def test_identities_guard_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=natural",
        "--sig", "1,1,1,1",
        "--max-cells", "10",
    )
    assert code == 3
    assert "guard" in err.lower()
    assert "guard of 10 cells" in err and "max_cells 10" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--algebra", "grassmann:deg=infty", "--sig", "0,1", "--max-cells", "-1"],
        ["identities", "--algebra", "grassmann:deg=infty", "--sig", "0,1", "--max-cells", "0"],
        ["identities", "--algebra", "grassmann:deg=infty", "--sig", "0,1", "--max-bits", "0"],
        ["factor-check", "--shape", "1,1", "--sig", "0,1", "--max-bits", "-5"],
        ["model", "eval", "--shape", "1,1", "--mode", "infty", "--poly", "z1*z2",
         "--max-cells", "-1"],
    ],
)
def test_non_positive_guard_limits_exit_1(capsys, argv):
    """A guard limit below 1 is malformed input, as --max-cells abc is: it
    exits 1 from argparse and names the flag, and trips no guard."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 1
    *usage, last = capsys.readouterr().err.splitlines()
    assert usage[0].startswith("usage:") and not any("error" in ln for ln in usage)
    assert last.endswith(f"error: argument {argv[-2]}: must be a positive integer, got '{argv[-1]}'")


def test_consequence_guard_exits_3_where_the_component_does_not_fit(capsys, tmp_path):
    """The consequence route exits 3 exactly when the component's dim x n!
    exceeds --max-cells: dim I(P) >= dim I(P minus x), so a shorter
    component trips only where the full one would. The message names the
    elimination that tripped first, here the one at length 5."""
    gens = tmp_path / "natural.txt"
    gens.write_text("[y1, y2]\n[y1, z2]\nz1*z2 + z2*z1\n", encoding="utf-8")
    argv = ["identities", "--generators", str(gens), "--sig", "0,1,0,1,1,0", "--max-cells"]
    code, out, err = run_cli(capsys, *argv, "4500")
    assert code == 3 and out == ""
    assert err == (
        "resource guard: elimination, kept: 38 rows of 120 columns (4560 cells) exceeds "
        "the guard of 4500 cells [cells 4560 > max_cells 4500]\n"
    )
    # the component keeps 719 rows of 720 columns
    code, out, err = run_cli(capsys, *argv, str(719 * 720 - 1))
    assert code == 3 and out == ""
    assert err.startswith("resource guard: elimination, kept: 719 rows of 720 columns")
    code, out, _ = run_cli(capsys, *argv, str(719 * 720))
    assert code == 0 and cert_from(out)["result"]["dim"] == 719


def test_kernel_guard_exits_3_before_the_kernel_is_built(capsys):
    """The evaluation route bounds its kernel, (n! - rank) x n!, by
    --max-cells before building it, and the message names that kernel. E's
    own rows have rank 32 at this signature, so the component keeps 688
    rows of 720."""
    argv = ["identities", "--algebra", "grassmann:deg=infty", "--sig", "0,1,0,1,1,0"]
    code, out, err = run_cli(capsys, *argv, "--max-cells", "400000")
    assert code == 3 and out == ""
    assert err == (
        "resource guard: kernel: 688 rows of 720 columns (495360 cells) exceeds "
        "the guard of 400000 cells [cells 495360 > max_cells 400000]\n"
    )
    code, out, err = run_cli(capsys, *argv, "--max-cells", str(688 * 720 - 1))
    assert code == 3 and out == ""
    assert err.startswith("resource guard: kernel: 688 rows of 720 columns")
    code, out, _ = run_cli(capsys, *argv, "--max-cells", str(688 * 720))
    assert code == 0 and cert_from(out)["result"]["dim"] == 688


def test_evaluation_guard_exits_3(capsys):
    # the field builds within any guard, so the evaluation guard trips first
    code, out, err = run_cli(
        capsys, "identities", "--algebra", "field", "--sig", "0,0,0,0", "--max-cells", "10"
    )
    assert code == 3 and out == ""
    assert err.startswith("resource guard: evaluation kernel") and err.count("\n") == 1
    assert "cells 24 > max_cells 10" in err


_ODD_11, _EVEN_11 = ",".join("1" * 11), ",".join("0" * 11)
# (argv, cells of the guard that trips): the n x n! cells of the column
# basis, except for the field, whose estimated evaluation rows trip first
_LENGTH_11 = [
    (["identities", "--algebra", "grassmann:N=2,deg=natural", "--sig", _ODD_11], 11 * 39916800),
    (["factor-check", "--shape", "1,1", "--entries", "grassmann:N=2,deg=natural",
      "--sig", _ODD_11], 11 * 39916800),
    (["identities", "--algebra", "field", "--sig", _EVEN_11], 39916800),
    (["identities", "--generators", "GENS", "--sig", _EVEN_11], 11 * 39916800),
    # length 10: one row of 10! cells fits the guard, the basis does not
    (["identities", "--generators", "GENS", "--sig", ",".join("0" * 10)], 10 * 3628800),
]


@pytest.mark.parametrize(
    "argv, cells", _LENGTH_11, ids=[f"argv{i}" for i in range(len(_LENGTH_11))]
)
def test_length_11_exits_3_before_the_column_basis_is_built(
    capsys, tmp_path, monkeypatch, argv, cells
):
    """The guard trips before the n! monomials or their index exist."""
    n = argv[-1].count(",") + 1

    def unbuilt(real):
        def build(k):
            assert k < n, "the n! basis was built before its guard"
            return real(k)

        return build

    monkeypatch.setattr(spaces, "multilinear_monomials", unbuilt(spaces.multilinear_monomials))
    monkeypatch.setattr(spaces, "monomial_index", unbuilt(spaces.monomial_index))
    gens = tmp_path / "gens.txt"
    gens.write_text("z1*z2*z3\n")
    code, out, err = run_cli(capsys, *[str(gens) if a == "GENS" else a for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("resource guard: ") and err.count("\n") == 1
    assert err.endswith(f"[cells {cells} > max_cells 8000000]\n")


UT11_OVER_E40 = json.dumps(
    {"kind": "matrix_over", "shape": [1, 1], "entries": {"kind": "grassmann", "generators": 40}}
)


@pytest.mark.parametrize(
    "argv, cells",
    [
        (["identities", "--algebra", "grassmann:N=40"], 2 * 2**40),
        (["identities", "--algebra", UT11_OVER_E40], 2 * 3 * 2**40 * 2),
    ],
)
def test_construction_guard_exits_3_before_building(capsys, argv, cells):
    """The estimate 2 x dim x |unit| is read from the descriptor: E_40 and
    the matrices over it are never enumerated. Only --method full builds
    them; the other methods read their rows off the exterior spec."""
    code, out, err = run_cli(capsys, *argv, "--sig", "1,1", "--method", "full")
    assert code == 3 and out == ""
    assert err.startswith("resource guard: building") and err.count("\n") == 1
    assert f"[cells {cells} > max_cells 8000000]" in err


def test_identities_pinned_large_truncation_answers_as_unpinned(capsys):
    """A pinned E_40 is never built, so no construction guard stops it: at
    every signature of length 3 it answers as the unpinned command does,
    up to the truncations the scan names."""
    for sig in itertools.product("01", repeat=3):
        results = []
        for algebra in ("grassmann:N=40,deg=infty", "grassmann:deg=infty"):
            code, out, err = run_cli(
                capsys, "identities", "--algebra", algebra, "--sig", ",".join(sig)
            )
            assert code == 0 and err == ""
            result = cert_from(out)["result"]
            results.append((result, result.pop("stabilization")))
        (pinned, pinned_scan), (unpinned, unpinned_scan) = results
        assert pinned == unpinned
        assert pinned_scan["n_values"] == [40, 42] and unpinned_scan["n_values"] == [6, 8]
        assert pinned_scan["dims"] == unpinned_scan["dims"]


@pytest.mark.parametrize("n", [4095, 4096])
def test_identities_scan_past_the_generator_limit_exits_3(capsys, n):
    """Level N + 2 would pass MAX_GENERATORS: one guard line names it and
    the limit, not a descriptor error about a value the user never wrote."""
    code, out, err = run_cli(capsys, "identities", "--algebra", f"grassmann:N={n}", "--sig", "1,1")
    assert code == 3 and out == ""
    assert err == (
        f"resource guard: the stabilization scan needs N + 2 = {n + 2} generators, "
        "past the limit of 4096\n"
    )


def test_identities_scan_up_to_the_generator_limit(capsys):
    """N = 4094 scans up to E_4096, the largest exterior algebra; --method
    full still stops at the construction guard of level N."""
    code, out, _ = run_cli(capsys, "identities", "--algebra", "grassmann:N=4094", "--sig", "1,1")
    assert code == 0
    assert cert_from(out)["result"]["stabilization"]["n_values"] == [4094, 4096]
    code, out, err = run_cli(
        capsys, "identities", "--algebra", "grassmann:N=4096", "--sig", "1,1", "--method", "full"
    )
    assert code == 3 and out == ""
    assert err.startswith("resource guard: building the ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, need",
    [
        (["identities", "--algebra", "grassmann:deg=kstar,k=4095"], 4099),
        (["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=kstar,k=4093"], 4097),
    ],
)
def test_unpinned_truncation_past_the_generator_limit_exits_3(capsys, argv, need):
    """An unpinned truncation n0 = 2 + k is read with n0 + 2: past
    MAX_GENERATORS one guard line names it and the limit, not a descriptor
    error about a value the user never wrote, nor a level that cannot be
    built recorded as if it were."""
    code, out, err = run_cli(capsys, *argv, "--sig", "1")
    assert code == 3 and out == ""
    assert err == (
        f"resource guard: the stabilization scan needs N + 2 = {need} generators, "
        "past the limit of 4096\n"
    )


def test_unpinned_truncation_up_to_the_generator_limit(capsys):
    """k = 4092 gives n0 = 4094, whose level n0 + 2 is E_4096, the largest
    exterior algebra: both commands answer and name the two levels."""
    entries = "grassmann:deg=kstar,k=4092"
    code, out, _ = run_cli(capsys, "identities", "--algebra", entries, "--sig", "1")
    assert code == 0
    assert cert_from(out)["result"]["stabilization"]["n_values"] == [4094, 4096]
    code, out, _ = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", entries, "--sig", "1"
    )
    assert code == 0
    assert cert_from(out)["config"]["truncations"] == [4094, 4096]


MALFORMED_DESCRIPTORS = [
    ("grassmann:N=x", 1),
    ('{"kind":"grassmann","group":[2],"generators":"abc"}', 1),
    ('{"kind":"matrix_over","group":[2],"shape":[1,1]}', 1),
    ('{"kind":"grassmann","group":[3]}', 1),
    ("grassmann:deg=kstar,k=y", 1),
    ('{"kind":"grassmann","group":2}', 1),
    ('{"kind":"grassmann","grading":{"deg":{"kstar":"two"}}}', 1),
    ('{"kind":"grassmann","grading":{"deg":{"kstar":1.5}}}', 1),
    ('{"kind":"matrix_over","entries":{"kind":"grassmann"}}', 1),
    ('{"kind":"grassmann",', 1),
    ("grassmann:N=2,size=3", 1),
    ("grassmann:deg=degk", 4),
    ('{"kind":"matrix","group":[2],"grading":{"targets":[[0],[7]]}}', 1),
]


@pytest.mark.parametrize("desc, want", MALFORMED_DESCRIPTORS)
def test_malformed_descriptor_exits_with_one_line(capsys, desc, want):
    for argv in (
        ["identities", "--algebra", desc, "--sig", "1,1"],
        ["factor-check", "--shape", "1,1", "--entries", desc, "--sig", "1,1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == want, (argv, err)
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "desc, message",
    [
        ('{"kind":"grassmann","generators":2,"gradng":{"deg":"infty"}}',
         "grassmann descriptor has unknown key 'gradng'; allowed: generators, grading, group, kind"),
        ('{"kind":"grassmann","generators":2,"grading":{"explicit":[1,0]}}',
         "grassmann grading has unknown key 'explicit'; allowed: deg"),
        ('{"kind":"field","shape":[3]}', "field descriptor has unknown key 'shape'; allowed: group, kind"),
        ('{"kind":"matrix_over","shape":[1,1],"entries":{"kind":"field","grading":{}}}',
         "field descriptor has unknown key 'grading'; allowed: group, kind"),
    ],
    ids=["misspelt-grading", "grading-without-deg", "field-with-shape", "nested-entries"],
)
def test_unknown_descriptor_keys_exit_1_naming_the_allowed_ones(capsys, desc, message):
    for argv in (
        ["identities", "--algebra", desc, "--sig", "0"],
        ["factor-check", "--shape", "1,1", "--entries", desc, "--sig", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("over", [None, (1, 1)])
def test_identities_evaluates_an_explicit_grading_once(capsys, over):
    """An explicit grading lists one degree per generator, so it fixes its
    algebra: identities evaluates that algebra, alone or inside a
    matrix_over, and writes no stabilization scan."""
    algebra = build_grassmann(GrassmannSpec(3, "explicit", explicit=(1, 0, 1)))
    desc = {"kind": "grassmann", "generators": 3, "grading": {"deg": {"explicit": [1, 0, 1]}}}
    if over:
        algebra = build_matrix_over(algebra, BlockShape(over))
        desc = {"kind": "matrix_over", "shape": list(over), "entries": desc}
    for method in ("auto", "full"):
        code, out, err = run_cli(
            capsys, "identities", "--algebra", json.dumps(desc), "--sig", "1,1",
            "--method", method, "--basis",
        )
        assert code == 0, err
        want = spaces.identities_by_evaluation(algebra, ((1,), (1,)), method)
        result = cert_from(out)["result"]
        assert result["stabilization"] is None
        assert result["dim"] == want.dim
        assert result["basis"] == [format_poly(p, style="yz") for p in want.basis_polynomials()]


def test_identities_accepts_descriptor_of_matrix_over(capsys):
    M = build_matrix_over(build_grassmann(GrassmannSpec(2, "natural")), BlockShape((1, 1)))
    desc = json.dumps(M.meta)
    code, out, err = run_cli(capsys, "identities", "--algebra", desc, "--sig", "1,1")
    assert code == 0, err
    cert = cert_from(out)
    assert cert["config"]["group"] == [2]
    assert cert["config"]["algebra"] == M.meta
    assert cert["result"]["stabilization"]["n_values"] == [2, 4]


# descriptors within three generators, so every run stays cheap
_ints = st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", True, 1.5, None, [1]]))
_degs = st.one_of(
    st.sampled_from(["natural", "infty", "trivial", "kstar", "degk", "other", 1]),
    st.fixed_dictionaries({"kstar": _ints}),
    st.fixed_dictionaries({"explicit": st.lists(_ints, max_size=3)}),
)
_grassmann = st.fixed_dictionaries(
    {
        "kind": st.just("grassmann"),
        "generators": st.one_of(st.integers(1, 3), _ints.filter(lambda v: v not in (0, "0"))),
    },
    optional={
        "grading": st.one_of(st.fixed_dictionaries({"deg": _degs}), st.just("natural")),
        "group": st.one_of(st.lists(_ints, max_size=2), _ints),
    },
)
_shapes = st.one_of(st.lists(st.integers(0, 2), max_size=2), _ints)
_descriptors = st.one_of(
    _grassmann,
    st.fixed_dictionaries(
        {"kind": st.just("matrix_over")},
        optional={"shape": _shapes, "entries": _grassmann, "group": st.lists(_ints, max_size=2)},
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["field", "matrix", "block_triangular", "bogus"])},
        optional={
            "group": st.lists(st.integers(0, 3), max_size=2),
            "grading": st.fixed_dictionaries(
                {"targets": st.lists(st.lists(_ints, max_size=2), max_size=3)}
            ),
            "shape": _shapes,
        },
    ),
)
_inline = st.builds(
    lambda kind, pieces: kind + ":" + ",".join(pieces),
    st.sampled_from(["grassmann", "field", "bogus"]),
    st.lists(
        st.sampled_from(
            ["N=1", "N=3", "N=x", "N=-1", "deg=natural", "deg=infty", "deg=kstar",
             "deg=trivial", "deg=degk", "k=1", "k=y", "junk"]
        ),
        max_size=3,
    ),
    # grassmann text without a valid N= would scan larger truncations
).filter(lambda text: "N=1" in text or "N=3" in text or not text.startswith("grassmann"))
_sigs = st.lists(
    st.sampled_from(["0", "1", "0", "1", "2", "a", "0.1", ""]), min_size=1, max_size=2
).map(",".join)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    desc=st.one_of(_descriptors.map(json.dumps), _inline),
    sig=_sigs,
    command=st.sampled_from(["identities", "factor-check"]),
    shape=st.sampled_from(["1,1", "1", "1,a", "0,1"]),
)
def test_fuzzed_input_never_escapes(desc, sig, command, shape):
    """Generated descriptors and signatures end in an exit code, never in
    an exception."""
    if command == "identities":
        argv = ["identities", "--algebra", desc, "--sig", sig]
    else:
        argv = ["factor-check", "--shape", shape, "--entries", desc, "--sig", sig]
    _assert_exit_code_and_one_line(argv)


def _assert_exit_code_and_one_line(argv):
    """main(argv) ends in an exit code from 0 to 4. A nonzero exit that is
    not an argparse usage error writes exactly one stderr line, and no
    traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code  # argparse usage: a usage line and an error line
        else:
            if code:
                assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
                assert err.getvalue().endswith("\n"), argv
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv


_MODE_TEXTS = ["natural", "infty", "kstar:1", "kstar:x", "kstar:", "degk", "bogus"]
_POLY_TEXTS = ["[y1, y2]", "z1*z2 + z2*z1", "3", "0", "", "[y1", "y1*z1", "x1^(3)", "2*[z1,y2]*z3"]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(["model", "relfree"]),
    mode=st.sampled_from(_MODE_TEXTS),
    poly=st.sampled_from(_POLY_TEXTS),
    shape=st.sampled_from(["1,1", "2,1", "1", "1,a", "0,1"]),
)
def test_fuzzed_mode_and_poly_never_escape(command, mode, poly, shape):
    """Generated --mode and --poly texts for model eval and relfree nf end
    in an exit code, never in an exception."""
    if command == "model":
        argv = ["model", "eval", "--shape", shape, "--mode", mode, "--poly", poly]
    else:
        argv = ["relfree", "nf", "--mode", mode, "--poly", poly]
    _assert_exit_code_and_one_line(argv)


_HUGE = ["100000000", str(10**30)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(["regularity", "multbasis"]),
    group=st.sampled_from(["2", "3", "2,2", "1", "0", "-2", "x", "", "65537", "256,257"] + _HUGE),
    targets=st.sampled_from(["0,1", "0", "1,2", "0.1,1.0", "-1", "a", ""] + _HUGE),
    mode=st.sampled_from(["natural", "infty", "kstar:1", "kstar:x", "degk"]),
    bound=st.sampled_from(["1", "3", "0", "-2", "b"] + _HUGE),
    samples=st.sampled_from(["1", "3", "0", "-4", "y"] + _HUGE),
    seed=st.sampled_from(["0", "-1", "z"] + _HUGE),
)
def test_fuzzed_regularity_and_multbasis_values_never_escape(
    command, group, targets, mode, bound, samples, seed
):
    """Generated --group and --targets values for regularity, and --bound,
    --samples and --seed values for relfree multbasis, huge ones included,
    end in an exit code, with one stderr line on an error: huge groups,
    bounds and sample counts trip a guard before any work."""
    if command == "regularity":
        argv = ["regularity", "--group", group, "--targets", targets]
    else:
        argv = ["relfree", "multbasis", "--mode", mode, "--bound", bound,
                "--samples", samples, "--seed", seed]
    _assert_exit_code_and_one_line(argv)


def test_bad_kstar_level_exits_1(capsys):
    for level in ["kstar:x", "kstar:", "kstar:1.5"]:
        for argv in (
            ["model", "eval", "--shape", "1,1", "--mode", level, "--poly", "z1"],
            ["relfree", "nf", "--mode", level, "--poly", "z1"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error:") and err.count("\n") == 1, err


def test_zero_denominator_exits_1(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("1/0*y1*y2\n", encoding="utf-8")
    for argv in (
        ["relfree", "nf", "--mode", "infty", "--poly", "1/0*z1"],
        ["identities", "--generators", str(gens), "--sig", "0,0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err, err
        assert "zero denominator in '1/0'" in err, err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["identities", "--algebra", "grassmann:deg=natural"])  # no --sig
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 1
    assert main([]) == 1
    capsys.readouterr()


def test_bad_signature_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        "identities", "--algebra", "grassmann:deg=natural", "--sig", "1,a",
    )
    assert code == 1
    for argv in (
        ["factor-check", "--shape", "1,1", "--sig", ""],
        ["factor-check", "--shape", "1,a", "--sig", "0"],
        ["regularity", "--group", "x", "--targets", "0"],
        # residues must lie in 0..n-1; none is reduced
        ["identities", "--algebra", "grassmann:deg=natural", "--sig", "3,1"],
        ["model", "eval", "--shape", "1,1", "--mode", "natural", "--poly", "x1^(3)*y2"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--algebra", "grassmann:deg=natural", "--sig", "0,,1"],
        ["identities", "--algebra", "grassmann:deg=natural", "--sig", "0,1,"],
        ["identities", "--algebra", "grassmann:deg=trivial", "--sig", "0,,0"],
        ["regularity", "--group", "2", "--targets", "0,,1"],
        ["regularity", "--group", "2,,2", "--targets", "0.0"],
        ["factor-check", "--shape", "1,,1", "--sig", "0"],
        ["factor-check", "--shape", "1,1", "--targets", "0,1,", "--sig", "0"],
    ],
)
def test_empty_entries_in_comma_separated_values_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_factor_check_field_takes_the_descriptor_group(capsys):
    field_z2 = '{"kind":"field","group":[2]}'
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", field_z2, "--sig", "1,1"
    )
    assert code == 0, err
    cert = cert_from(out)
    assert cert["config"]["group"] == [2]
    assert cert["config"]["targets"] == [[0], [0]]
    # a --group that agrees is accepted; one that disagrees is one error line
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", field_z2,
        "--group", "2", "--sig", "1,1",
    )
    assert code == 0, err
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", field_z2,
        "--group", "3", "--sig", "1,1",
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_group_must_agree_with_the_algebras_own(capsys):
    for argv in (
        ["identities", "--algebra", "grassmann:deg=natural"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=natural"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=trivial"],
    ):
        code, out, err = run_cli(capsys, *argv, "--group", "3", "--sig", "0,0")
        assert code == 1 and out == "", argv
        assert err.startswith("error: --group 3 disagrees") and err.count("\n") == 1
    for argv in (
        ["identities", "--algebra", "grassmann:deg=natural"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=natural"],
    ):
        code, out, err = run_cli(capsys, *argv, "--group", "2", "--sig", "1,1")
        assert code == 0, (argv, err)
        assert cert_from(out)["config"]["group"] == [2]


def test_factor_check_kstar_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor-check",
        "--shape", "1,1",
        "--entries", "grassmann:deg=kstar,k=1",
        "--sig", "1,1",
    )
    assert code == 0
    cert = cert_from(out)
    row = cert["result"]["verdicts"][0]
    assert row["relation"] == "product_strictly_inside"
    assert row["witness"] == "z1*z2"
    assert cert["result"]["all_equal"] is False


def test_factor_check_natural_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor-check",
        "--shape", "1,1",
        "--entries", "grassmann:deg=natural",
        "--sweep", "2",
        "--bordered",
    )
    assert code == 0
    cert = cert_from(out)
    rows = cert["result"]["verdicts"]
    # sweep covers nondecreasing signatures of every length up to the bound:
    # (0), (1), (0,0), (0,1), (1,1)
    assert len(rows) == 5
    assert all(r["relation"] == "equal" for r in rows)
    assert cert["result"]["all_equal"] is True


def test_factor_check_field_targets(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor-check",
        "--shape", "1,1",
        "--targets", "0,1",
        "--group", "2",
        "--sweep", "2",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["verdicts"]
    for row in cert["result"]["verdicts"]:
        assert row["relation"] in ("equal", "product_strictly_inside")


def test_factor_check_ungraded_field(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor-check", "--shape", "1,1", "--sig", "0,0",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["verdicts"][0]["relation"] == "equal"


def _count_constructions(monkeypatch) -> list:
    """Record every StructureConstantAlgebra construction from now on."""
    from gradedpi.algebras import StructureConstantAlgebra

    built = []
    init = StructureConstantAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(StructureConstantAlgebra, "__init__", counting_init)
    return built


def test_factor_check_builds_each_distinct_block_once(capsys, monkeypatch):
    """Over the field: the target and one algebra for the repeated block
    targets (0,1)."""
    built = _count_constructions(monkeypatch)
    code, _, _ = run_cli(
        capsys, "factor-check", "--shape", "2,2", "--entries", "field",
        "--targets", "0,1,0,1", "--group", "2", "--sig", "0,1",
    )
    assert code == 0 and len(built) == 2


def test_factor_check_over_e_builds_nothing(capsys, monkeypatch):
    """Over E the rows are read off the exterior spec and the block shapes:
    no algebra is constructed, and truncations still records n0 = 2 x 2
    and n0 + 2. A fresh process imports neither the model nor relfree."""
    built = _count_constructions(monkeypatch)
    code, out, _ = run_cli(
        capsys, "factor-check", "--shape", "2,2", "--entries", "grassmann:deg=infty",
        "--sig", "0,1",
    )
    assert code == 0 and built == []
    assert cert_from(out)["config"]["truncations"] == [4, 6]
    script = (
        "import sys; from gradedpi.cli import main; "
        "code = main(['factor-check', '--shape', '1,1', '--entries', 'grassmann:deg=infty', "
        "'--sig', '0,1,1']); "
        "print(code, sorted(m for m in ('gradedpi.model', 'gradedpi.relfree') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 []"


def test_factor_check_pinned_large_truncation_answers_as_unpinned(capsys):
    """A pinned E_40 is never built, so no construction guard stops it: its
    fast rows answer every signature up to length 3 as the untruncated rows
    of the unpinned command do."""
    argv = ["factor-check", "--shape", "1,1", "--sweep", "3", "--entries"]
    code, out, err = run_cli(capsys, *argv, "grassmann:N=40,deg=infty")
    assert code == 0 and err == ""
    pinned = cert_from(out)
    code, out, _ = run_cli(capsys, *argv, "grassmann:deg=infty")
    assert code == 0
    unpinned = cert_from(out)
    assert pinned["config"]["truncations"] == [40]
    assert pinned["result"] == unpinned["result"]


def test_factor_check_takes_n_from_an_explicit_grading_of_no_generators(capsys):
    """An explicit grading fixes N, even N = 0: factor-check evaluates
    UT(1,1; E_0) with its own rows, as identities does."""
    entries = '{"kind":"grassmann","generators":0,"grading":{"deg":{"explicit":[]}}}'
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", entries, "--sig", "0,0"
    )
    assert code == 0 and err == ""
    cert = cert_from(out)
    assert cert["config"]["truncations"] == [0]
    target = f'{{"kind":"matrix_over","shape":[1,1],"entries":{entries}}}'
    code, out, _ = run_cli(capsys, "identities", "--algebra", target, "--sig", "0,0")
    assert code == 0
    assert cert["result"]["verdicts"][0]["dim_identities"] == cert_from(out)["result"]["dim"]


def test_factor_check_exits_3_when_the_default_truncation_is_too_small(capsys, monkeypatch):
    """At N = 2 the pattern (0, 0, 0) of 1,1,1 needs six generators. The
    limit rows raise on it at the first evaluation, which reads the
    exterior spec at N = 2 and builds no algebra, and the command stops
    with one line."""
    import gradedpi.cli as cli

    monkeypatch.setattr(cli, "default_truncation", lambda n, gspec: 2)
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", "grassmann:deg=infty",
        "--sig", "1,1,1",
    )
    assert code == 3 and out == ""
    assert err == (
        "resource guard: signature ((1,), (1,), (1,)), parity pattern (0, 0, 0) needs "
        "3 degree-1 and 3 degree-0 generators; rebuild the algebra with a larger "
        "truncation than 2\n"
    )


def test_factor_check_guards_field_entries_before_building(capsys, monkeypatch):
    """The (150,150) target over the field is 67500-dimensional: its
    block_triangular estimate trips the guard before anything is built."""
    monkeypatch.setattr(spaces, "algebra_from_descriptor", lambda *a: pytest.fail("built"))
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "150,150", "--entries", "field", "--sig", "0"
    )
    assert code == 3 and out == ""
    assert err == (
        "resource guard: building the 67500-dimensional block_triangular algebra: its "
        "unit-law check computes 40500000 basis products, which exceeds the guard of "
        "8000000 cells [cells 40500000 > max_cells 8000000]\n"
    )


def test_unsupported_method_is_refused_before_the_construction_estimate(capsys):
    """--method fast on M_300 over the field has no fast rows to use: it
    exits 4 on that, not 3 on the construction guard of an algebra the
    command would never build."""
    targets = ",".join(["[0]"] * 300)
    desc = f'{{"kind":"matrix","group":[2],"grading":{{"targets":[{targets}]}}}}'
    code, out, err = run_cli(
        capsys, "identities", "--algebra", desc, "--method", "fast", "--sig", "0"
    )
    assert (code, out) == (4, "")
    assert err == (
        "unsupported: fast evaluation rows need an exterior algebra or matrices over one\n"
    )


def test_construction_guard_counts_positions_without_listing_them(capsys, monkeypatch):
    """The (20000,20000) matrix_over estimate comes from the block sizes:
    its 1.2e9 positions are never listed."""
    positions = BlockShape.positions

    def small_only(self):
        assert self.n <= 100, "positions listed for a large shape"
        return positions(self)

    monkeypatch.setattr(BlockShape, "positions", small_only)
    desc = '{"kind":"matrix_over","shape":[20000,20000],"entries":{"kind":"field"}}'
    code, out, err = run_cli(capsys, "identities", "--algebra", desc, "--sig", "0")
    assert code == 3 and out == ""
    assert err == (
        "resource guard: building the 1200000000-dimensional matrix_over algebra: its "
        "unit-law check computes 96000000000000 basis products, which exceeds the guard "
        "of 8000000 cells [cells 96000000000000 > max_cells 8000000]\n"
    )


@pytest.mark.parametrize(
    "entries", [["grassmann:deg=infty"], ["field", "--targets", "0,1", "--group", "2"]]
)
def test_factor_check_sweep_stops_at_the_first_length_past_the_guard(
    capsys, monkeypatch, entries
):
    """Length 10's column basis, 10 x 10! cells, exceeds the default guard:
    the sweep exits 3 before it lists that length or builds any algebra,
    however far its bound reaches."""
    import gradedpi.cli as cli

    listed = []
    real = cli.itertools.combinations_with_replacement

    def listing(els, n):
        listed.append(n)
        return real(els, n)

    monkeypatch.setattr(cli.itertools, "combinations_with_replacement", listing)
    monkeypatch.setattr(spaces, "algebra_from_descriptor", lambda *a: pytest.fail("built"))
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", *entries, "--sweep", "300"
    )
    assert code == 3 and out == "" and listed == list(range(1, 10))
    assert err == (
        "resource guard: multilinear column basis: 10 rows of 3628800 columns "
        "(36288000 cells) exceeds the guard of 8000000 cells "
        "[cells 36288000 > max_cells 8000000]\n"
    )


def test_factor_check_sweep_bounds_its_listing(capsys, monkeypatch):
    """Over Z_1000 the sweep to length 3 lists 1000 + 2 x 500500 +
    3 x 167167000 degrees, past the guard: it exits 3 before listing
    length 3, with the measured cells beside the limit."""
    import gradedpi.cli as cli

    listed = []
    real = cli.itertools.combinations_with_replacement

    def listing(els, n):
        if n > 2:
            pytest.fail(f"length {n} listed")
        listed.append(n)
        return real(els, n)

    monkeypatch.setattr(cli.itertools, "combinations_with_replacement", listing)
    code, out, err = run_cli(
        capsys, "factor-check", "--shape", "1,1", "--entries", "field", "--targets", "0,1",
        "--group", "1000", "--sweep", "3",
    )
    assert code == 3 and out == "" and listed == [1, 2]
    assert err == (
        "resource guard: signature sweep: the signatures up to length 3 take 502503000 "
        "cells, which exceeds the guard of 8000000 cells "
        "[cells 502503000 > max_cells 8000000]\n"
    )


def test_factor_check_needs_sig_or_sweep(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["factor-check", "--shape", "1,1"])
    assert ei.value.code == 1
    capsys.readouterr()


def test_model_eval_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "eval",
        "--shape", "1,1",
        "--mode", "natural",
        "--poly", "[y1, y2]*[y3, y4]",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["is_identity"] is True
    assert set(cert["result"]["entries"]) == {"1,1", "1,2", "2,2"}
    assert all(v == "0" for v in cert["result"]["entries"].values())


def test_model_eval_non_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "eval",
        "--shape", "1,1",
        "--mode", "natural",
        "--poly", "[y1, y2]",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["is_identity"] is False
    assert cert["result"]["entries"]["1,1"] == "0"
    assert cert["result"]["entries"]["1,2"] != "0"


def test_model_eval_guard_bounds_one_product(capsys):
    """model eval bounds sum s_a*s_b*s_c over blocks a <= b <= c before
    any generic matrix is built: 15 for (2,1), 32,000,000 for (200,200).
    It takes no --max-bits, which nothing in the evaluation would read."""
    argv = ["model", "eval", "--mode", "infty", "--poly", "z1*z2"]
    code, _, err = run_cli(capsys, *argv, "--shape", "200,200")
    assert code == 3
    assert err == (
        "resource guard: model: one product of generic matrices of shape [200, 200] forms "
        "32000000 entry products, which exceeds the guard of 8000000 cells "
        "[cells 32000000 > max_cells 8000000]\n"
    )
    code, _, err = run_cli(capsys, *argv, "--shape", "2,1", "--max-cells", "14")
    assert code == 3 and "forms 15 entry products" in err and err.count("\n") == 1
    code, out, _ = run_cli(capsys, *argv, "--shape", "2,1", "--max-cells", "15")
    assert code == 0
    assert "guard" not in cert_from(out)["config"]
    with pytest.raises(SystemExit):
        main([*argv, "--shape", "2,1", "--max-bits", "1"])


def test_model_eval_degk_exits_4(capsys):
    code, _, err = run_cli(
        capsys,
        "model", "eval", "--shape", "1,1", "--mode", "degk:1", "--poly", "[y1, y2]",
    )
    assert code == 4
    assert "catalogue" in err


def test_relfree_nf(capsys):
    code, out, _ = run_cli(
        capsys, "relfree", "nf", "--mode", "natural", "--poly", "z2*z1",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["normal_form"] == "-z1*z2"
    code, out, _ = run_cli(
        capsys, "relfree", "nf", "--mode", "kstar:1", "--poly", "z1*z2",
    )
    assert cert_from(out)["result"]["normal_form"] == "0"


def test_relfree_multbasis(capsys):
    code, out, _ = run_cli(
        capsys,
        "relfree", "multbasis", "--mode", "kstar:1",
        "--bound", "3", "--samples", "50", "--seed", "0",
    )
    assert code == 0
    cert = cert_from(out)
    assert cert["result"]["verdict"] == "fails"
    assert cert["result"]["witness"]
    code, out, _ = run_cli(
        capsys,
        "relfree", "multbasis", "--mode", "natural",
        "--bound", "3", "--samples", "50", "--seed", "0",
    )
    assert cert_from(out)["result"]["verdict"] == "holds-on-samples"


@pytest.mark.parametrize("flag, value", [("--bound", "0"), ("--samples", "0"), ("--samples", "-3")])
def test_relfree_multbasis_needs_a_positive_bound_and_sample_count(capsys, flag, value):
    code, out, err = run_cli(capsys, "relfree", "multbasis", "--mode", "infty", flag, value)
    assert code == 1 and out == ""
    assert err == "error: degree bound and sample count must be >= 1\n"


@pytest.mark.parametrize(
    "argv", [["--samples", "100000000"], ["--bound", "100000000", "--samples", "1"]]
)
def test_relfree_multbasis_bounds_its_work_before_the_first_sample(capsys, argv):
    """samples x (bound^3 + 2^14) is bounded before any sample is drawn."""
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "relfree", "multbasis", "--mode", "infty", *argv)
    assert time.monotonic() - t0 < 1
    assert code == 3 and out == ""
    assert err.startswith("resource guard: multiplicativity probe: ")
    assert err.endswith(f"past the limit of {2**26}\n") and err.count("\n") == 1


def test_certificates_byte_identical(capsys, tmp_path):
    for args in [
        ["identities", "--algebra", "grassmann:deg=natural", "--sig", "1,1", "--basis"],
        ["factor-check", "--shape", "1,1", "--entries", "grassmann:deg=kstar,k=1", "--sig", "1,1"],
        ["relfree", "multbasis", "--mode", "infty", "--bound", "3", "--samples", "40", "--seed", "5"],
        ["regularity", "--group", "2", "--targets", "0,1"],
    ]:
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def test_certificate_echoes_config_for_rerun(capsys, tmp_path):
    p = tmp_path / "c.json"
    code, out, _ = run_cli(
        capsys,
        "identities",
        "--algebra", "grassmann:deg=natural",
        "--sig", "0,1",
        "--out", str(p),
    )
    assert code == 0
    assert "certificate written" in out
    cert = json.loads(p.read_text())
    cfg = cert["config"]
    assert cfg["signature"] == [[0], [1]]
    assert cfg["method"] == "auto"
    assert cfg["algebra"]["kind"] == "grassmann"
    assert "generators" in cfg["algebra"]  # resolved truncation is echoed
    assert cfg["guard"] == {"max_cells": 8000000, "max_bits": 20000}


def test_out_path_unwritable_exits_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "regularity", "--group", "2", "--targets", "0,1",
        "--out", str(tmp_path / "missing-dir" / "c.json"),
    )
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "argv, what",
    [
        (["identities", "--generators", "FILE", "--sig", "0,1"], "generator"),
        (["relfree", "nf", "--mode", "infty", "--poly", "FILE"], "polynomial"),
        (["model", "eval", "--shape", "1,1", "--mode", "infty", "--poly", "FILE"], "polynomial"),
        (["identities", "--algebra", "FILE", "--sig", "0,1"], "descriptor"),
    ],
)
def test_undecodable_input_file_exits_1(capsys, tmp_path, argv, what):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {what} file: ") and err.count("\n") == 1


def test_out_naming_a_directory_leaves_no_temporary_file(capsys, tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    code, _, err = run_cli(
        capsys, "regularity", "--group", "2", "--targets", "0,1", "--out", str(target)
    )
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


def test_descriptor_and_poly_files_give_the_inline_certificate(capsys, tmp_path):
    desc = tmp_path / "entries.json"
    desc.write_text('{"kind": "grassmann", "grading": {"deg": "infty"}}\n')
    poly = tmp_path / "poly.txt"
    poly.write_text("[z1, z2]\n  * y3\n")
    names = {"DESC": ("grassmann:deg=infty", str(desc)), "POLY": ("[z1, z2] * y3", str(poly))}
    for argv in (
        ["identities", "--algebra", "DESC", "--sig", "0,1,1"],
        ["factor-check", "--shape", "1,1", "--entries", "DESC", "--sig", "0,1,1"],
        ["model", "eval", "--shape", "1,1", "--mode", "infty", "--poly", "POLY"],
        ["relfree", "nf", "--mode", "infty", "--poly", "POLY"],
    ):
        inline = run_cli(capsys, *[names[a][0] if a in names else a for a in argv])
        from_file = run_cli(capsys, *[names[a][1] if a in names else a for a in argv])
        assert inline[0] == 0 and from_file == inline, argv


def test_deep_bracket_nesting_exits_with_one_line(tmp_path):
    """Polynomial text 330 brackets deep passes Python's recursion limit
    while it is parsed: the three commands that read polynomial text exit 1
    with one line, not a traceback. 300 brackets still parse."""
    deep = tmp_path / "deep.txt"
    deep.write_text("[" * 330 + "y1,y2" + "]" * 330 + "\n")
    for argv in (
        ["relfree", "nf", "--mode", "infty", "--poly", deep.read_text().strip()],
        ["model", "eval", "--shape", "1,1", "--mode", "infty", "--poly", str(deep)],
        ["identities", "--generators", str(deep), "--sig", "0,0"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "gradedpi", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: brackets nested too deeply to parse\n"
        ), argv[:2]
    text = "[" * 300 + "y1,y2" + ",y3]" * 300
    proc = subprocess.run(
        [sys.executable, "-m", "gradedpi", "relfree", "nf", "--mode", "infty", "--poly", text],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("0\n") and proc.stderr == ""


def test_deeply_nested_descriptor_json_exits_with_one_line(capsys, tmp_path):
    """A descriptor file whose JSON nests 100,000 arrays is bad descriptor
    JSON: exit 1 and one line."""
    path = tmp_path / "deep.json"
    path.write_text('{"kind":' + "[" * 100_000)
    code, out, err = run_cli(capsys, "identities", "--algebra", str(path), "--sig", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: bad descriptor JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gradedpi", "relfree", "nf", "--mode", "infty", "--poly", "z2*z1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "-[x1,x2] + z1*z2" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "gradedpi", "identities", "--algebra", "grassmann:deg=degk", "--sig", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
