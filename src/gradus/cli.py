"""Command-line interface.

Subcommands: validate, analyze, grade, units, idempotents, decompose,
example.  Orders travel as JSON files; Gram matrices use decimal strings so
output is identical across platforms, read and printed exactly by
`embeddings.gram_from_strings` and `embeddings.grid_str`.  Exit codes: 0
success, 2 input or validation failure, 3 precision exhausted, 4
enumeration budget exceeded.  Errors are reported on stderr as a single
JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig
from .embeddings import gram_from_strings, grid_str, with_gram
from .errors import (
    DegenerateSplitting,
    EnumerationBudgetExceeded,
    EscalationNeeded,
    GradusError,
    PrecisionExhausted,
    ValidationError,
)
from .examples import EXAMPLE_SUMMARIES, example_names, example_order
from .grading import grading_to_json, universal_grading
from .lattices import universal_s_decomposition
from .orders import (
    Order,
    nilradical,
    order_from_json,
    order_to_json,
    quotient_order,
)
from .units import connected_on, idempotents, roots_of_unity


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _emit(data: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_order(path: str) -> Order:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return order_from_json(data)


def _config(args) -> RunConfig:
    return RunConfig(
        precision=args.precision,
        enumeration_cap=args.cap,
        seed=args.seed,
    )


def _maybe_mod_nilradical(a: Order, args) -> tuple[Order, str | None]:
    if not getattr(args, "mod_nilradical", False):
        return a, None
    rad = nilradical(a)
    if rad.rank == 0:
        return a, None
    b, _ = quotient_order(a, rad.vectors())
    note = (
        "input had nilradical rank "
        f"{rad.rank}; results are for the quotient by it, whose idempotents "
        "correspond bijectively to those of the input"
    )
    return b, note


def _gram_digits(g) -> int:
    # stay well inside the certified accuracy so noise digits never print
    return max(8, int(g.precision * 0.301) - 8)


def _gram_json(g) -> dict:
    digits = _gram_digits(g)

    def fmt(x):
        # entries below the tolerance are zero by definition of the form
        return "0.0" if abs(x) <= g.tolerance else grid_str(g, x, digits)

    return {
        "n": g.n,
        "gram": [[fmt(x) for x in row] for row in g.entries],
        "tolerance": grid_str(g, g.tolerance, 8),
        "precision": g.precision,
    }


def cmd_validate(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    _emit(
        {"ok": True, "rank": a.rank},
        args,
        [f"ok: valid order of rank {a.rank}"],
    )
    return 0


def cmd_analyze(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    rad = nilradical(a)
    reduced = rad.rank == 0
    data = {"rank": a.rank, "reduced": reduced, "nilradical_rank": rad.rank}
    lines = [
        f"rank:            {a.rank}",
        f"reduced:         {'yes' if reduced else 'no'}",
        f"nilradical rank: {rad.rank}",
    ]
    if reduced and a.rank > 0:
        connected, g = with_gram(a, config, lambda g: (connected_on(a, g), g))
        data["connected"] = connected
        data["gram"] = _gram_json(g)
        lines.append(f"connected:       {'yes' if connected else 'no'}")
        lines.append(f"gram tolerance:  {data['gram']['tolerance']}")
        lines.append("gram matrix:")
        for row in data["gram"]["gram"]:
            lines.append("  [" + ", ".join(row) + "]")
    _emit(data, args, lines)
    return 0


def cmd_grade(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    a, note = _maybe_mod_nilradical(a, args)
    graded = universal_grading(a, config)
    data = grading_to_json(graded.grading, graded.component_images)
    if note:
        data["note"] = note
    factors = list(graded.grading.group.invariant_factors)
    lines = [f"grading group invariant factors: {factors or 'trivial'}"]
    for elem, basis in graded.grading.pieces:
        lines.append(f"piece at {list(elem)}: rank {basis.rank}")
        for v in basis.vectors():
            lines.append(f"    {list(v)}")
    if note:
        lines.append(f"note: {note}")
    _emit(data, args, lines)
    return 0


def cmd_units(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    a, note = _maybe_mod_nilradical(a, args)
    report = roots_of_unity(a, config)
    data = {
        "count": report.count,
        "roots": [list(r) for r in report.roots],
        "orders": list(report.orders),
    }
    if note:
        data["note"] = note
    lines = [f"roots of unity: {report.count}"]
    for r, k in zip(report.roots, report.orders):
        lines.append(f"  {list(r)}  order {k}")
    if note:
        lines.append(f"note: {note}")
    _emit(data, args, lines)
    return 0


def cmd_idempotents(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    a, note = _maybe_mod_nilradical(a, args)
    idem = idempotents(a, config)
    data = {"count": len(idem), "idempotents": [list(x) for x in idem]}
    if note:
        data["note"] = note
    lines = [f"idempotents: {len(idem)}"] + [f"  {list(x)}" for x in idem]
    if note:
        lines.append(f"note: {note}")
    _emit(data, args, lines)
    return 0


def cmd_decompose(args, config: RunConfig) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValidationError("gram document must be an object with a 'gram' key")
    rows = doc["gram"]
    if "n" in doc:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValidationError("declared size 'n' must be an integer")
        if isinstance(rows, list) and n != len(rows):
            raise ValidationError("declared size does not match the matrix")
    g = gram_from_strings(rows, precision=config.precision)
    try:
        dec = universal_s_decomposition(g, config.enumeration_cap)
    except EscalationNeeded as exc:
        # a raw Gram matrix cannot be recomputed at higher precision
        raise PrecisionExhausted(str(exc)) from exc
    data = {
        "ambient_rank": dec.ambient_rank,
        "components": [
            {"basis": [list(v) for v in c.vectors()]} for c in dec.components
        ],
        "precision": g.precision,
    }
    lines = [f"components: {len(dec.components)}"]
    for c in dec.components:
        lines.append(f"  rank {c.rank}: {[list(v) for v in c.vectors()]}")
    _emit(data, args, lines)
    return 0


def cmd_example(args, config: RunConfig) -> int:
    if args.list or args.name is None:
        data = {"examples": {n: EXAMPLE_SUMMARIES[n] for n in example_names()}}
        lines = [f"{n:10s} {EXAMPLE_SUMMARIES[n]}" for n in example_names()]
        _emit(data, args, lines)
        return 0
    a = example_order(args.name)
    print(json.dumps(order_to_json(a), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Universal gradings, idempotents, and torsion units of orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mod=False):
        p.add_argument("--precision", type=int, default=192, help="working precision in bits")
        p.add_argument("--seed", type=int, default=0, help="seed for splitting elements")
        p.add_argument("--cap", type=int, default=10**6, help="short-vector enumeration cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_mod:
            p.add_argument(
                "--mod-nilradical",
                action="store_true",
                help="quotient by the nilradical before running",
            )

    p = sub.add_parser("validate", help="check the ring axioms of an order file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="rank, reducedness, connectedness, Gram form")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("grade", help="universal grading of a reduced order")
    p.add_argument("path")
    common(p, with_mod=True)
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("units", help="all roots of unity of a reduced order")
    p.add_argument("path")
    common(p, with_mod=True)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("idempotents", help="all idempotents of a reduced order")
    p.add_argument("path")
    common(p, with_mod=True)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("decompose", help="finest orthogonal splitting of a Gram matrix")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("example", help="emit a named example order as JSON")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true", help="list available examples")
    common(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _config(args))
    except (EnumerationBudgetExceeded,) as exc:
        return _fail(4, type(exc).__name__, str(exc))
    except (PrecisionExhausted, DegenerateSplitting) as exc:
        return _fail(3, type(exc).__name__, str(exc))
    except (ValidationError, json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        return _fail(2, type(exc).__name__, str(exc))
    except GradusError as exc:
        return _fail(2, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
