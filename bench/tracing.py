"""Spans and counters around the calls into each gradus module.

`Tracer.install()` replaces every module attribute of a loaded `gradus`
module that is bound to one of the TARGETS functions with a recording
wrapper, and `uninstall()` puts the originals back.  A function is often
bound in several modules (`compute_embeddings` in `gradus.grading`,
`gradus.embeddings`, `gradus.cli` and the package itself), and the pipeline
calls it through whichever binding its module holds, so every binding is
wrapped.  Nothing under `src/` changes, and an untraced run installs nothing.

A span holds the name, start, end, parent span and op id, plus whether the
call raised and a per-target value read off the result.  Functions called
up to millions of times per op (`mul`, `element_order`) are counted and
timed without spans, so their time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, function, mode)
TARGETS = (
    ("gradus.orders", "validate", SPAN),
    ("gradus.orders", "is_reduced", SPAN),
    ("gradus.orders", "mul", COUNT),
    ("gradus.embeddings", "compute_embeddings", SPAN),
    ("gradus.embeddings", "gram", SPAN),
    ("gradus.embeddings", "with_gram", SPAN),
    ("gradus.lattices", "lll_reduce", SPAN),
    ("gradus.lattices", "enumerate_up_to", SPAN),
    ("gradus.lattices", "is_indecomposable", SPAN),
    ("gradus.lattices", "universal_s_decomposition", SPAN),
    ("gradus.intlinalg", "solve_left", SPAN),
    ("gradus.intlinalg", "hnf", SPAN),
    ("gradus.intlinalg", "snf", SPAN),
    ("gradus.grading", "universal_grading", SPAN),
    ("gradus.grading", "verify_grading", SPAN),
    ("gradus.units", "element_order", COUNT),
    ("gradus.units", "roots_of_unity", SPAN),
    ("gradus.units", "idempotents", SPAN),
    ("gradus.units", "is_connected", SPAN),
)

# value kept on the span: what each function returned that a metric needs
_VALUE = {
    "compute_embeddings": lambda r: r.precision,
    "enumerate_up_to": len,
    "is_indecomposable": bool,
}

# span fields
NAME, START, END, PARENT, OP, OK, VALUE = range(7)


def gradus_bindings():
    """Every (module, attribute, function) of the loaded gradus modules whose
    value is one of the TARGETS functions."""
    wanted = {}
    for mod, name, mode in TARGETS:
        fn = getattr(importlib.import_module(mod), name)
        wanted[id(fn)] = (fn, name, mode)
    out = []
    for modname, module in sorted(sys.modules.items()):
        if modname != "gradus" and not modname.startswith("gradus."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wanted.get(id(value))
            if hit is not None and hit[0] is value:
                out.append((module, attr, hit))
    return out


class Tracer:
    """Records spans and counters while `recording` is set.

    `op` is the id of the running op, or None during set-up.  Counters only
    accumulate inside ops.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self.stack: list[int] = []
        self.op: int | None = None
        self.recording = False
        self._installed: list = []

    def reset(self):
        self.spans, self.counts, self.stack = [], {}, []

    def install(self):
        wrappers = {}
        for module, attr, (fn, name, mode) in gradus_bindings():
            if id(fn) not in wrappers:
                make = self._span_wrapper if mode == SPAN else self._count_wrapper
                wrappers[id(fn)] = make(name, fn)
            setattr(module, attr, wrappers[id(fn)])
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def _span_wrapper(self, name, fn):
        value_of = _VALUE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, True, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[OK], rec[VALUE] = False, type(exc).__name__
                raise
            finally:
                self.stack.pop()
            rec[END] = perf_counter()
            if value_of is not None:
                rec[VALUE] = value_of(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or self.op is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                c = self.counts.setdefault(name, [0, 0.0, 0])
                c[0] += 1
                c[1] += perf_counter() - t0
            if result is not None:
                c[2] += 1
            return result

        return wrapper

    def dump(self, path, batch: int):
        """Append this batch's spans to `path`, one JSON list per line."""
        with open(path, "a") as fh:
            for rec in self.spans:
                fh.write(json.dumps([batch] + rec) + "\n")


def _self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its child spans; the
    code is single-threaded, so children never overlap."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-layer metrics of one batch of ops; set-up spans (op None) are
    left out."""
    in_op = [i for i, rec in enumerate(spans) if rec[OP] is not None]
    by_name: dict[str, list[int]] = {}
    for i in in_op:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def outermost(name):
        # a span nested in a span of the same function is already counted
        out = []
        for i in by_name.get(name, ()):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def secs(name):
        return sum(spans[i][END] - spans[i][START] for i in outermost(name))

    own = _self_times(spans)

    def self_secs(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def values(name):
        return [spans[i][VALUE] for i in by_name.get(name, ()) if spans[i][OK]]

    def ratio(a, b):
        return a / b if b else 0.0

    # decomposition attempts per universal_grading call
    attempts: dict[int, int] = {}
    for i in by_name.get("universal_s_decomposition", ()):
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != "universal_grading":
            p = spans[p][PARENT]
        if p >= 0:
            attempts[p] = attempts.get(p, 0) + 1
    escalations = sum(k - 1 for k in attempts.values())

    mul = counts.get("mul", [0, 0.0, 0])
    eo = counts.get("element_order", [0, 0.0, 0])
    indec = values("is_indecomposable")
    emb_calls = calls("compute_embeddings")
    return {
        "orders.is_reduced_calls": calls("is_reduced"),
        "orders.is_reduced_s": secs("is_reduced"),
        "orders.mul_calls": mul[0],
        "orders.mul_s": mul[1],
        "embeddings.calls": emb_calls,
        "embeddings.calls_per_op": ratio(emb_calls, ops),
        "embeddings.s": secs("compute_embeddings"),
        "embeddings.gram_s": secs("gram"),
        "embeddings.with_gram_calls": calls("with_gram"),
        "embeddings.precision_max_bits": max(values("compute_embeddings"), default=0),
        "lattices.lll_calls": calls("lll_reduce"),
        "lattices.lll_s": secs("lll_reduce"),
        "lattices.enum_calls": calls("enumerate_up_to"),
        "lattices.enum_s": secs("enumerate_up_to"),
        "lattices.pool_vectors": sum(values("enumerate_up_to")),
        "lattices.indec_tests": len(indec),
        "lattices.indec_found": sum(indec),
        "lattices.indec_yield": ratio(sum(indec), len(indec)),
        "lattices.decompose_s": secs("universal_s_decomposition"),
        "lattices.decompose_self_s": self_secs("universal_s_decomposition"),
        "lattices.budget_exceeded": sum(
            1 for i in by_name.get("enumerate_up_to", ())
            if spans[i][VALUE] == "EnumerationBudgetExceeded"
        ),
        "intlinalg.solve_left_calls": calls("solve_left"),
        "intlinalg.solve_left_s": secs("solve_left"),
        "intlinalg.hnf_calls": calls("hnf"),
        "intlinalg.hnf_s": secs("hnf"),
        "intlinalg.snf_s": secs("snf"),
        "grading.calls": calls("universal_grading"),
        "grading.s": secs("universal_grading"),
        "grading.self_s": self_secs("universal_grading"),
        "grading.escalations": escalations,
        "grading.verify_calls": calls("verify_grading"),
        "grading.verify_s": secs("verify_grading"),
        "units.candidates": eo[0],
        "units.roots_found": eo[2],
        "units.root_yield": ratio(eo[2], eo[0]),
        "units.element_order_s": eo[1],
        "units.roots_s": secs("roots_of_unity"),
        "units.idempotents_s": secs("idempotents"),
        "units.connected_s": secs("is_connected"),
    }


def setup_validate_s(spans) -> float:
    """Time spent in `validate` while the orders were generated."""
    return sum(
        rec[END] - rec[START]
        for rec in spans
        if rec[OP] is None and rec[NAME] == "validate"
    )


def combine(per_batch: list[dict]) -> dict[str, float]:
    """Counts and ratios of the first batch, which a seed fixes exactly;
    times as the median over all traced batches."""
    out = dict(per_batch[0])
    for key in out:
        if _unit(key) == "s":
            out[key] = statistics.median(m[key] for m in per_batch)
    return out


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_yield", "_per_op")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# every per-layer metric with its unit and which direction is better
_HIGHER = {"lattices.indec_yield", "units.roots_found", "units.root_yield"}
PER_LAYER = {
    name: (_unit(name), "higher" if name in _HIGHER else "lower")
    for name in (
        ["setup.import_s", "orders.validate_s"]
        + list(layer_metrics([], {}, 1))
        + ["trace.overhead_s"]
    )
}
