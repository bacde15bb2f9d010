"""Per-layer spans for the traced benchmark run.

The tracer wraps public entry points of the gradedpi modules from the
outside: functions are rebound in every gradedpi module that holds them,
methods are replaced on their class. Each call records a span
(parent, name, start, end); self time is a span's duration minus the time
covered by its child spans. Work the tracer itself does inside a span
(peak-bit scans, algebra keys) is recorded as a hidden child span, so it
is charged to no layer.

Nothing under src/ changes: uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

_PERF = time.perf_counter

# span name -> layer group used for inclusive times
BUILD = "algebras.build"
INIT = "algebras.init"
EVAL = "spaces.eval"
CONS = "spaces.cons"
PRODUCT = "spaces.product"
COMPARE = "spaces.compare"
ADD = "linalg.add"
FINISH = "linalg.finish"
KERNEL = "linalg.kernel"
SUBST = "freealg.substitute"
COORDS = "freealg.coords"
MUL = "relfree.mul"
NF = "relfree.nf"
MODEL = "model.eval"
CLI = "cli.main"
HIDDEN = "_tracer"

# (module, attribute path, span name)
TARGETS = (
    ("gradedpi.algebras", "StructureConstantAlgebra.__init__", INIT),
    ("gradedpi.algebras", "build_grassmann", BUILD),
    ("gradedpi.algebras", "build_matrix_over", BUILD),
    ("gradedpi.algebras", "build_matrix_algebra", BUILD),
    ("gradedpi.algebras", "build_field", BUILD),
    ("gradedpi.algebras", "algebra_from_descriptor", BUILD),
    ("gradedpi.spaces", "identities_by_evaluation", EVAL),
    ("gradedpi.spaces", "identities_by_consequences", CONS),
    ("gradedpi.spaces", "tideal_product", PRODUCT),
    ("gradedpi.spaces", "check_factoring", COMPARE),
    ("gradedpi.linalg", "RowReducer.add", ADD),
    ("gradedpi.linalg", "RowReducer.finish", FINISH),
    ("gradedpi.linalg", "kernel_basis", KERNEL),
    ("gradedpi.freealg", "NcPolynomial.substitute", SUBST),
    ("gradedpi.freealg", "multilinear_coordinates", COORDS),
    ("gradedpi.relfree", "relfree_mul", MUL),
    ("gradedpi.relfree", "normal_form", NF),
    ("gradedpi.model", "model_eval", MODEL),
    ("gradedpi.model", "GenericMatrix.__mul__", MODEL),
    ("gradedpi.model", "GenericMatrix.__add__", MODEL),
    ("gradedpi.cli", "main", CLI),
)

# per-layer metric -> (kind, span names); "incl" counts the outermost span
# of the group, "self" sums self times
TIMES = {
    "algebras.build_s": ("incl", (BUILD, INIT)),
    "spaces.eval_rows_s": ("self", (EVAL,)),
    "spaces.cons_rows_s": ("self", (CONS,)),
    "spaces.product_s": ("self", (PRODUCT,)),
    "spaces.compare_s": ("self", (COMPARE,)),
    "linalg.reduce_s": ("incl", (ADD,)),
    "linalg.backsub_s": ("incl", (FINISH,)),
    "linalg.kernel_s": ("self", (KERNEL,)),
    "freealg.substitute_s": ("incl", (SUBST,)),
    "freealg.coords_s": ("incl", (COORDS,)),
    "relfree.mul_s": ("incl", (MUL,)),
    "relfree.nf_s": ("incl", (NF,)),
    "model.eval_s": ("self", (MODEL,)),
    "cli.self_s": ("self", (CLI,)),
}

COUNTS = (
    "algebras.builds",
    "spaces.eval_rows",
    "spaces.eval_rank",
    "spaces.cons_rows",
    "spaces.cons_dim",
    "spaces.product_rows",
    "linalg.rows_in",
    "linalg.rank_raised",
    "relfree.mul_calls",
)

# name, unit of every per-layer metric the benchmark reports
LAYER_METRICS = (
    ("algebras.build_s", "s"),
    ("algebras.builds", "count"),
    ("algebras.rebuild_ratio", "ratio"),
    ("spaces.eval_rows_s", "s"),
    ("spaces.eval_rows", "count"),
    ("spaces.eval_row_yield", "ratio"),
    ("spaces.cons_rows_s", "s"),
    ("spaces.cons_rows", "count"),
    ("spaces.cons_row_yield", "ratio"),
    ("spaces.product_s", "s"),
    ("spaces.product_rows", "count"),
    ("spaces.compare_s", "s"),
    ("linalg.reduce_s", "s"),
    ("linalg.rows_in", "count"),
    ("linalg.reduce_yield", "ratio"),
    ("linalg.backsub_s", "s"),
    ("linalg.kernel_s", "s"),
    ("linalg.peak_bits", "bits"),
    ("freealg.substitute_s", "s"),
    ("freealg.coords_s", "s"),
    ("relfree.mul_s", "s"),
    ("relfree.mul_calls", "count"),
    ("relfree.nf_s", "s"),
    ("model.eval_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the target does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if fn is None:
        return None
    return owner, attr, fn


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []  # [parent index, name, start, end]
        self._stack = []
        self.counts = {name: 0 for name in COUNTS}
        self.peak_bits = 0
        self.algebra_keys = set()
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [parent, name, _PERF(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = _PERF()
        self._stack.pop()

    def _wrap(self, name, fn):
        before = after = None
        if name == FINISH:
            before = self._scan_bits
        elif name == INIT:
            after = self._note_algebra
        elif name in (EVAL, CONS, PRODUCT, ADD, MUL):
            after = self._count_result

        def traced(*args, **kwargs):
            if before is not None:
                hidden = self._open(HIDDEN)
                before(args)
                self._close(hidden)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                hidden = self._open(HIDDEN)
                after(name, args, out)
                self._close(hidden)
            return out

        return functools.wraps(fn)(traced)

    # -- counters --------------------------------------------------------------

    def _scan_bits(self, args):
        rows = getattr(args[0], "pivot_rows", None) or {}
        for row in rows.values():
            for _, v in row:
                b = abs(v).bit_length() if isinstance(v, int) else max(
                    abs(v.numerator).bit_length(), v.denominator.bit_length()
                )
                if b > self.peak_bits:
                    self.peak_bits = b

    def _note_algebra(self, name, args, out):
        alg = args[0]
        self.counts["algebras.builds"] += 1
        kind = alg.meta.get("kind") if isinstance(getattr(alg, "meta", None), dict) else None
        self.algebra_keys.add(str(hash((kind, alg.labels, alg.degrees))))

    def _count_result(self, name, args, out):
        c = self.counts
        if name == ADD:
            c["linalg.rows_in"] += 1
            c["linalg.rank_raised"] += 1 if out else 0
        elif name == MUL:
            c["relfree.mul_calls"] += 1
        elif name == EVAL:
            c["spaces.eval_rows"] += out.meta.get("rows", 0)
            c["spaces.eval_rank"] += math.factorial(len(out.signature)) - out.dim
        elif name == CONS:
            c["spaces.cons_rows"] += out.meta.get("rows", 0)
            c["spaces.cons_dim"] += out.dim
        elif name == PRODUCT:
            c["spaces.product_rows"] += out.meta.get("rows", 0)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target that exists; rebind functions in each gradedpi
        module that imported them."""
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, fn = found
            wrapped = self._wrap(name, fn)
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gradedpi" or mod_name.startswith("gradedpi.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def raw(self) -> dict:
        """Summed span times and counters, mergeable across processes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        group_of = {}
        for metric, (_, names) in TIMES.items():
            for n in names:
                group_of.setdefault(n, []).append(metric)
        times = {metric: 0.0 for metric in TIMES}
        for i, (parent, name, start, end) in enumerate(spans):
            metrics = group_of.get(name)
            if not metrics:
                continue
            dur = end - start
            for metric in metrics:
                kind, names = TIMES[metric]
                if kind == "self":
                    times[metric] += dur - child[i]
                    continue
                p = parent
                while p >= 0 and spans[p][1] not in names:
                    p = spans[p][0]
                if p < 0:
                    times[metric] += dur
        return {
            "times": times,
            "counts": dict(self.counts),
            "peak_bits": self.peak_bits,
            "algebra_keys": sorted(self.algebra_keys),
        }


def merge(raws) -> dict:
    """Sum raw summaries from several traced processes."""
    out = {"times": {m: 0.0 for m in TIMES}, "counts": {c: 0 for c in COUNTS},
           "peak_bits": 0, "algebra_keys": set()}
    for raw in raws:
        for k, v in raw["times"].items():
            out["times"][k] = out["times"].get(k, 0.0) + v
        for k, v in raw["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["peak_bits"] = max(out["peak_bits"], raw["peak_bits"])
        out["algebra_keys"].update(raw["algebra_keys"])
    out["algebra_keys"] = sorted(out["algebra_keys"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw) -> dict:
    """Per-layer metric values from one round's merged raw summary.

    A layer that does not run on a workload reads 0.
    """
    t, c = raw["times"], raw["counts"]
    values = dict(t)
    values.update(
        {
            "algebras.builds": c["algebras.builds"],
            "algebras.rebuild_ratio": _ratio(c["algebras.builds"], len(raw["algebra_keys"])),
            "spaces.eval_rows": c["spaces.eval_rows"],
            "spaces.eval_row_yield": _ratio(c["spaces.eval_rank"], c["spaces.eval_rows"]),
            "spaces.cons_rows": c["spaces.cons_rows"],
            "spaces.cons_row_yield": _ratio(c["spaces.cons_dim"], c["spaces.cons_rows"]),
            "spaces.product_rows": c["spaces.product_rows"],
            "linalg.rows_in": c["linalg.rows_in"],
            "linalg.reduce_yield": _ratio(c["linalg.rank_raised"], c["linalg.rows_in"]),
            "linalg.peak_bits": raw["peak_bits"],
            "relfree.mul_calls": c["relfree.mul_calls"],
        }
    )
    return values
