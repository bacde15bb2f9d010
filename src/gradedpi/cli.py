"""Batch command-line front end.

Subcommands build algebras from descriptors, compute identity components
and factoring verdicts, probe the normal-form engine, and evaluate the
generic matrix model. Every successful run can emit a JSON certificate
that echoes enough of the configuration to reproduce it; certificates are
byte-stable for a fixed configuration (seeds included, no timestamps).

Exit codes: 0 computed (verdicts live in the output, never in the code),
1 usage or malformed input, 2 internal inconsistency (two routes that must
agree did not), 3 resource guard tripped, 4 unsupported feature.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

from .algebras import (
    MAX_GENERATORS,
    BlockShape,
    algebra_from_descriptor,
    build_matrix_algebra,
    descriptor_group,
    exterior_spec,
    guard_construction,
    is_g_regular,
    normalize_descriptor,
    parse_inline_descriptor,
    with_generators,
)
from .errors import (
    GradedPIError,
    GuardExceededError,
    InternalInconsistencyError,
    ParseError,
    TruncationError,
    UnsupportedFeatureError,
)
from .freealg import format_poly, parse_poly, parse_signature
from .groups import TRIVIAL_GROUP, GroupSpec, Z2
from .linalg import GuardLimits
from .spaces import (
    EvaluationProvider,
    GrassmannRowsProvider,
    TIdealPresentation,
    check_factoring,
    default_truncation,
    guard_column_basis,
    identities_by_consequences,
    identities_by_evaluation,
    parity_patterns,
)

CERTIFICATE_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _guard(args) -> GuardLimits:
    return GuardLimits(max_cells=args.max_cells, max_bits=args.max_bits)


def _positive_int(text: str) -> int:
    """A guard limit: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_group(text: str) -> GroupSpec:
    return GroupSpec(_parse_ints(text, "group orders"))


def _own_group(args, spec: GroupSpec, whose: str) -> GroupSpec:
    """The group an algebra fixes for itself; a --group that disagrees with
    it is an error, not ignored."""
    if args.group is not None and _parse_group(args.group) != spec:
        raise ParseError(f"--group {args.group} disagrees with {whose} group {list(spec.orders)}")
    return spec


def _parse_shape(text: str) -> BlockShape:
    return BlockShape(_parse_ints(text, "block sizes"))


def _sig_json(sig) -> list:
    return [list(t) for t in sig]


def _sig_text(sig) -> str:
    return ",".join(".".join(map(str, t)) if t else "0" for t in sig)


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or
    decoded is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} file: {exc}") from exc


def _load_descriptor(text: str) -> dict:
    """Canonical descriptor from a JSON file, JSON text or the inline form."""
    text = text.strip()
    if os.path.isfile(text):
        text = _read_text(text, "descriptor")
    elif not text.startswith("{"):
        return parse_inline_descriptor(text)
    try:
        return normalize_descriptor(json.loads(text))
    except ValueError as exc:
        raise ParseError(f"bad descriptor JSON: {exc}") from exc


def _poly_text(arg: str) -> str:
    if os.path.isfile(arg):
        return " ".join(_read_text(arg, "polynomial").split())
    return arg


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


def _emit(command: str, config: dict, result: dict, lines, out_path) -> None:
    for ln in lines:
        print(ln)
    cert = {
        "certificate_version": CERTIFICATE_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
    text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
    if out_path:
        _atomic_write(out_path, text)
        print(f"certificate written to {out_path}")
    else:
        sys.stdout.write(text)


def _json_meta(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if isinstance(v, (int, str, bool))}


# -- regularity ---------------------------------------------------------------


# the report lists one fiber per group element: an order of 2^16 took 0.4 s,
# one of 10^6 took 4.5 s and 466 MB (one core of a 2-core x86-64 machine)
REGULARITY_MAX_ORDER = 2**16


def cmd_regularity(args) -> int:
    spec = _parse_group(args.group)
    if spec.order() > REGULARITY_MAX_ORDER:
        raise GuardExceededError(
            f"regularity: the report lists a fiber for each of the {spec.order()} group "
            f"elements, past the limit of {REGULARITY_MAX_ORDER}"
        )
    targets = parse_signature(args.targets, spec)
    regular, report = is_g_regular(targets, spec)
    lines = [f"regular: {'yes' if regular else 'no'}"]
    lines.append(f"surjective: {'yes' if report['surjective'] else 'no'}")
    lines.append(f"equipotent fibers: {'yes' if report['equipotent'] else 'no'}")
    for g, count in sorted(report["fibers"].items()):
        lines.append(f"  fiber of degree ({g}): {count}")
    config = {"group": list(spec.orders), "targets": _sig_json(targets)}
    _emit("regularity", config, report, lines, args.out)
    return 0


# -- identities ---------------------------------------------------------------


def _read_generators(path: str, spec: GroupSpec):
    gens = []
    for line in _read_text(path, "generator").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        gens.append(parse_poly(line, spec))
    if not gens:
        raise ParseError(f"no generators found in {path}")
    return gens


def _scan_levels(n0: int) -> list:
    """[n0, n0 + 2], the truncations a stabilization scan reads, or a
    guard error naming N + 2 when it passes MAX_GENERATORS."""
    if n0 + 2 > MAX_GENERATORS:
        raise GuardExceededError(
            f"the stabilization scan needs N + 2 = {n0 + 2} generators, "
            f"past the limit of {MAX_GENERATORS}"
        )
    return [n0, n0 + 2]


def _truncation(gspec, length: int):
    """(the exterior algebra evaluated first, whether its N is pinned): an
    explicit grading fixes N, else a stated N pins it, else N is the
    default truncation n0 at the signature length, which is scanned with
    n0 + 2, so both must lie within MAX_GENERATORS."""
    if gspec.deg_kind == "explicit" or gspec.n_generators:
        return gspec, True
    n0 = default_truncation(length, gspec)
    _scan_levels(n0)
    return dataclasses.replace(gspec, n_generators=n0), False


def cmd_identities(args) -> int:
    guard = _guard(args)
    if args.algebra is None and args.generators is None:
        raise ParseError("need --algebra and/or --generators")
    desc = _load_descriptor(args.algebra) if args.algebra else None
    if desc is not None:
        spec = _own_group(args, descriptor_group(desc), "the algebra's")
    else:
        spec = _parse_group("2" if args.group is None else args.group)
    sig = parse_signature(args.sig, spec)

    comp_eval = scan = None
    if desc is not None:
        # E and M(E) have fast rows, read off the exterior spec and the block
        # shape (E_N as (1,)) with nothing built; every other algebra is built
        entries = desc["entries"] if desc["kind"] == "matrix_over" else desc
        fast = args.method != "full" and entries["kind"] == "grassmann"
        shape = BlockShape(tuple(desc.get("shape", (1,)))) if fast else None
        limit = args.method == "limit"

        def evaluate(gspec):
            if shape is not None:
                return GrassmannRowsProvider(gspec, shape, limit, guard).component(sig)
            level = desc if gspec is None else with_generators(desc, gspec.n_generators)
            guard_construction(level, guard)
            return identities_by_evaluation(algebra_from_descriptor(level), sig, args.method, guard)

        gspec = exterior_spec(desc)
        if gspec is not None:
            gspec, _ = _truncation(gspec, len(sig))
            desc = with_generators(desc, gspec.n_generators)
        comp_eval = evaluate(gspec)
        # an explicit grading lists one degree per generator: it fixes its
        # algebra, so there is no truncation to scan
        if gspec is not None and gspec.deg_kind != "explicit":
            n_values = _scan_levels(gspec.n_generators)
            up = dataclasses.replace(gspec, n_generators=n_values[1])
            # the fast rows read a truncation only through its parity patterns
            same = shape is not None and (
                parity_patterns(gspec, sig, limit) == parity_patterns(up, sig, limit)
            )
            dims = [comp_eval.dim, comp_eval.dim if same else evaluate(up).dim]
            stabilized = dims[0] == dims[1]
            scan = {
                "n_values": n_values,
                "dims": dims,
                "stabilized": stabilized,
                "stabilized_at": n_values[0] if stabilized else None,
            }

    comp_cons = None
    gen_texts = None
    if args.generators is not None:
        gens = _read_generators(args.generators, spec)
        gen_texts = [format_poly(g, style="yz") for g in gens]
        pres = TIdealPresentation(tuple(gens), spec, os.path.basename(args.generators))
        comp_cons = identities_by_consequences(pres, sig, guard)

    config = {
        "algebra": desc,
        "generator_polynomials": gen_texts,
        "group": list(spec.orders),
        "guard": {"max_cells": guard.max_cells, "max_bits": guard.max_bits},
        "method": args.method,
        "signature": _sig_json(sig),
    }

    comp = comp_eval if comp_eval is not None else comp_cons
    routes = {}
    if comp_eval is not None:
        routes["evaluation"] = {"dim": comp_eval.dim, "meta": _json_meta(comp_eval.meta)}
    if comp_cons is not None:
        routes["consequences"] = {
            "dim": comp_cons.dim,
            "meta": _json_meta(comp_cons.meta),
        }
    result = {
        "ambient_dim": math.factorial(len(sig)),
        "dim": comp.dim,
        "routes": routes,
        "signature": _sig_json(sig),
        "stabilization": scan,
    }
    lines = [
        f"signature: {_sig_text(sig)}",
        f"ambient dimension: {result['ambient_dim']}",
        f"identity dimension: {comp.dim}",
    ]
    if scan is not None:
        lines.append(
            f"truncations {scan['n_values']} give dimensions {scan['dims']}"
            f" ({'stabilized' if scan['stabilized'] else 'NOT stabilized'})"
        )

    if comp_eval is not None and comp_cons is not None:
        agree = comp_eval.space.rows == comp_cons.space.rows
        result["routes_agree"] = agree
        if not agree:
            if scan is not None and not scan["stabilized"]:
                reason = (
                    "the truncation did not stabilize; rerun with a larger "
                    "generator count"
                )
            else:
                reason = (
                    "evaluation and consequence routes disagree on a stabilized "
                    "computation; this indicates an implementation fault"
                )
            result["disagreement"] = {
                "consequences_dim": comp_cons.dim,
                "evaluation_dim": comp_eval.dim,
                "reason": reason,
            }
            lines.append(f"ROUTE DISAGREEMENT: {reason}")
            _emit("identities", config, result, lines, args.out)
            return 2
        lines.append("routes agree")

    if args.basis:
        result["basis"] = [
            format_poly(p, style="yz") for p in comp.basis_polynomials()
        ]
        lines.append("basis:")
        lines.extend(f"  {text}" for text in result["basis"])
    _emit("identities", config, result, lines, args.out)
    return 0


# -- factor-check ---------------------------------------------------------------


def _signatures(args, spec: GroupSpec):
    """The --sig signature, or every --sweep signature up to its bound."""
    if args.sig is not None:
        return [parse_signature(args.sig, spec)]
    if args.sweep < 1:
        raise ParseError("sweep bound must be at least 1")
    guard = _guard(args)
    order = spec.order()
    out = []
    cells = 0
    for n in range(1, args.sweep + 1):
        # a length no column basis fits ends the sweep before it is listed,
        # and so does a listing past the guard: n cells per multiset of n
        # group elements
        guard_column_basis(n, guard)
        cells += math.comb(order + n - 1, n) * n
        if cells > guard.max_cells:
            raise GuardExceededError(
                f"signature sweep: the signatures up to length {n} take {cells} cells, "
                f"which exceeds the guard of {guard.max_cells} cells",
                cells=cells,
            )
        out.extend(itertools.combinations_with_replacement(spec.elements(), n))
    return out


def _field_setup(args, desc, shape: BlockShape, guard: GuardLimits):
    """Elementary grading over the field, with no truncation. The group is
    --group if given, else the descriptor's group if it is non-trivial,
    else the group of order 2 with --targets and the trivial group without.
    """
    stated = descriptor_group(desc)
    if not stated.is_trivial():
        spec = _own_group(args, stated, "the entries'")
    elif args.group:
        spec = _parse_group(args.group)
    else:
        spec = Z2 if args.targets else TRIVIAL_GROUP
    if args.targets:
        targets = parse_signature(args.targets, spec)
        if len(targets) != shape.n:
            raise ParseError(
                f"{len(targets)} grading targets for {shape.n} matrix rows"
            )
    else:
        targets = tuple(spec.identity() for _ in range(shape.n))
    # the target's construction bounds each block's
    guard_construction(
        {
            "kind": "block_triangular",
            "group": list(spec.orders),
            "grading": {"targets": _sig_json(targets)},
            "shape": list(shape.sizes),
        },
        guard,
    )
    target_alg = build_matrix_algebra(targets, spec, shape)
    blocks = []
    offset = 0
    for d in shape.sizes:
        blocks.append(targets[offset : offset + d])
        offset += d
    providers = {
        block: EvaluationProvider(build_matrix_algebra(block, spec), guard)
        for block in dict.fromkeys(blocks)
    }
    factors = [providers[block] for block in blocks]
    config = {"targets": _sig_json(targets)}
    return spec, EvaluationProvider(target_alg, guard), factors, config


def _grassmann_setup(desc, shape: BlockShape, sigs, guard: GuardLimits):
    """Matrices over the exterior algebra, by the fast rows read off its
    spec and the block shapes: no algebra is built, so no construction
    guard applies, and the column-basis, unit-walk, elimination and kernel
    guards bound the work. An unpinned level n0 is evaluated with the
    untruncated algebra's rows (method "limit"), which raise TruncationError
    unless every parity pattern some N realizes fits n0; so its answers hold
    at every N >= n0, and truncations records n0 and n0 + 2."""
    gspec, pinned = _truncation(exterior_spec(desc), max(len(s) for s in sigs))
    n0, limit = gspec.n_generators, not pinned
    truncations = [n0] if pinned else _scan_levels(n0)
    providers = {
        d: GrassmannRowsProvider(gspec, BlockShape((d,)), limit, guard)
        for d in dict.fromkeys(shape.sizes)
    }
    factors = [providers[d] for d in shape.sizes]
    target = GrassmannRowsProvider(gspec, shape, limit, guard)
    return target, factors, {"truncations": truncations}


def cmd_factor_check(args) -> int:
    guard = _guard(args)
    shape = _parse_shape(args.shape)
    if len(shape.sizes) < 2:
        raise ParseError("factor checking needs at least two diagonal blocks")
    desc = _load_descriptor(args.entries)
    if args.targets and desc["kind"] != "field":
        raise ParseError("--targets applies to field entries only")

    if desc["kind"] == "field":
        spec, target, factors, extra = _field_setup(args, desc, shape, guard)
        sigs = _signatures(args, spec)
    elif desc["kind"] == "grassmann":
        spec = _own_group(args, descriptor_group(desc), "the entries'")
        sigs = _signatures(args, spec)
        target, factors, extra = _grassmann_setup(desc, shape, sigs, guard)
    else:
        raise ParseError(
            f"entry algebra kind {desc['kind']!r} is not supported by factor-check"
        )

    config = {
        "bordered": args.bordered,
        "entries": desc,
        "group": list(spec.orders),
        "guard": {"max_cells": guard.max_cells, "max_bits": guard.max_bits},
        "shape": list(shape.sizes),
        "signatures": [_sig_json(s) for s in sigs],
    }
    config.update(extra)

    rows = []
    lines = []
    for sig in sigs:
        v = check_factoring(target, factors, sig, args.bordered, guard)
        witness = format_poly(v.witness, style="yz") if v.witness else None
        rows.append(
            {
                "dim_identities": v.dim_identities,
                "dim_product": v.dim_product,
                "relation": v.relation,
                "signature": _sig_json(sig),
                "witness": witness,
            }
        )
        msg = (
            f"sig {_sig_text(sig)}: identities {v.dim_identities}, "
            f"product {v.dim_product}, {v.relation}"
        )
        if witness:
            msg += f", witness {witness}"
        lines.append(msg)

    all_equal = all(r["relation"] == "equal" for r in rows)
    result = {"all_equal": all_equal, "verdicts": rows}
    lines.append(
        "summary: factoring holds at every signature"
        if all_equal
        else "summary: the product is strictly smaller at some signature"
    )
    _emit("factor-check", config, result, lines, args.out)
    return 0


# -- model ---------------------------------------------------------------------


def cmd_model(args) -> int:
    from .model import ModelConfig, model_eval
    from .relfree import GradingMode

    mode = GradingMode.parse(args.mode)
    shape = _parse_shape(args.shape)
    cfg = ModelConfig(shape, Z2, mode)
    f = parse_poly(_poly_text(args.poly), Z2)
    products = shape.n_entry_products()
    if products > args.max_cells:
        raise GuardExceededError(
            f"model: one product of generic matrices of shape {list(shape.sizes)} forms "
            f"{products} entry products, which exceeds the guard of {args.max_cells} cells",
            cells=products,
        )
    matrix = model_eval(f, cfg)
    zero = matrix.is_zero()
    entries = matrix.entry_strings()
    config = {
        "mode": mode.token(),
        "poly": format_poly(f, style="yz"),
        "shape": list(shape.sizes),
    }
    result = {"entries": entries, "is_identity": zero}
    lines = [f"identity of the model: {'yes' if zero else 'no'}"]
    for key in sorted(entries):
        lines.append(f"  ({key}) = {entries[key]}")
    _emit("model-eval", config, result, lines, args.out)
    return 0


# -- relfree -------------------------------------------------------------------


def cmd_relfree(args) -> int:
    from .relfree import (
        GradingMode,
        format_relfree,
        normal_form,
        partial_multiplicativity_check,
    )

    mode = GradingMode.parse(args.mode)
    if args.relfree_cmd == "nf":
        f = parse_poly(_poly_text(args.poly), Z2)
        nf = format_relfree(normal_form(f, mode))
        config = {"mode": mode.token(), "poly": format_poly(f, style="yz")}
        _emit("relfree-nf", config, {"normal_form": nf}, [nf], args.out)
        return 0
    report = partial_multiplicativity_check(mode, args.bound, args.samples, args.seed)
    config = {
        "bound": args.bound,
        "mode": mode.token(),
        "samples": args.samples,
        "seed": args.seed,
    }
    result = {"verdict": report.verdict, "witness": report.witness}
    lines = [report.verdict]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit("relfree-multbasis", config, result, lines, args.out)
    return 0


# -- wiring --------------------------------------------------------------------


def _add_guard_flags(p):
    p.add_argument("--max-cells", type=_positive_int, default=GuardLimits().max_cells)
    p.add_argument("--max-bits", type=_positive_int, default=GuardLimits().max_bits)


def _add_out_flag(p):
    p.add_argument("--out", help="write the JSON certificate to this path")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gradedpi", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("regularity", help="elementary grading regularity check")
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2 or 2,2")
    p.add_argument("--targets", required=True, help="row degrees, e.g. 0,1")
    _add_out_flag(p)
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("identities", help="multilinear identity component")
    p.add_argument("--algebra", help="inline descriptor or JSON file")
    p.add_argument("--generators", help="file of T-ideal generator polynomials")
    p.add_argument("--sig", required=True, help="signature, e.g. 0,1,1")
    p.add_argument("--group", help="orders for --generators input (default 2)")
    p.add_argument(
        "--method", default="auto", choices=["auto", "fast", "full", "limit"]
    )
    p.add_argument("--basis", action="store_true", help="include a basis")
    _add_guard_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("factor-check", help="identity factoring over the blocks")
    p.add_argument("--shape", required=True, help="block sizes, e.g. 1,1")
    p.add_argument("--entries", default="field", help="entry algebra descriptor")
    p.add_argument("--targets", help="elementary grading targets (field entries)")
    p.add_argument("--group", help="orders for --targets")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--sig", help="one signature")
    grp.add_argument(
        "--sweep",
        type=int,
        help="all signatures (nondecreasing degree order) up to this length",
    )
    p.add_argument("--bordered", action="store_true", help="bordered cross-check")
    _add_guard_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_factor_check)

    p = sub.add_parser("model", help="generic matrix model")
    msub = p.add_subparsers(dest="model_cmd", required=True)
    pe = msub.add_parser("eval", help="evaluate a polynomial at generic matrices")
    pe.add_argument("--shape", required=True, help="block sizes, e.g. 1,1")
    pe.add_argument("--mode", required=True, help="natural | infty | kstar:<k>")
    pe.add_argument("--poly", required=True, help="polynomial text or file")
    pe.add_argument("--max-cells", type=_positive_int, default=GuardLimits().max_cells)
    _add_out_flag(pe)
    pe.set_defaults(func=cmd_model)

    p = sub.add_parser("relfree", help="relatively free algebra utilities")
    rsub = p.add_subparsers(dest="relfree_cmd", required=True)
    pn = rsub.add_parser("nf", help="normal form of a polynomial")
    pn.add_argument("--mode", required=True)
    pn.add_argument("--poly", required=True)
    _add_out_flag(pn)
    pn.set_defaults(func=cmd_relfree)
    pm = rsub.add_parser("multbasis", help="partial multiplicativity probe")
    pm.add_argument("--mode", required=True)
    pm.add_argument("--bound", type=int, default=4)
    pm.add_argument("--samples", type=int, default=200)
    pm.add_argument("--seed", type=int, default=0)
    _add_out_flag(pm)
    pm.set_defaults(func=cmd_relfree)

    return top


def _guard_measure(exc, args) -> str:
    """The cells/bits a guard error measured, next to the limits in force."""
    default = GuardLimits()
    parts = [
        f"{name} {getattr(exc, name)} > max_{name} "
        f"{getattr(args, 'max_' + name, getattr(default, 'max_' + name))}"
        for name in ("cells", "bits")
        if getattr(exc, name, None) is not None
    ]
    return f" [{'; '.join(parts)}]" if parts else ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("gradedpi: error: a command is required\n")
        return 1
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 2
    except (GuardExceededError, TruncationError) as exc:
        sys.stderr.write(f"resource guard: {exc}{_guard_measure(exc, args)}\n")
        return 3
    except UnsupportedFeatureError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return 4
    except GradedPIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
