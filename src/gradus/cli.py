"""Command-line interface.

Subcommands: validate, analyze, grade, units, idempotents, decompose,
example.  Orders travel as JSON files, Gram matrices as decimal strings
that `lattices.gram_from_strings` reads exactly and `lattices.grid_str`
prints rounded to the digits the precision certifies.  Every subcommand
with --precision, decompose included, starts there and doubles the
precision on an ambiguous verdict in `embeddings.escalate`.  Exit codes: 0
success, 2 input or validation failure, 3 precision exhausted or a
degenerate splitting, 4 enumeration budget exceeded.  Errors are reported
on stderr as a single JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import DEFAULT_CONFIG, RunConfig
from .embeddings import escalate, with_gram
from .errors import (
    DegenerateSplitting,
    EnumerationBudgetExceeded,
    GradusError,
    PrecisionExhausted,
    ValidationError,
)
from .examples import EXAMPLES, example_names, example_order
from .grading import graded_on, grading_to_json, universal_grading
from .lattices import gram_from_strings, grid_str, universal_s_decomposition
from .orders import (
    Order,
    nilradical,
    order_from_json,
    order_to_json,
    quotient_order,
)
from .units import idempotents, roots_of_unity


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _emit(data: dict, args, text_lines, note: str | None = None) -> None:
    if note:
        data["note"] = note
        text_lines.append(f"note: {note}")
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
    # a subcommand has the flags of the fields it reads; the rest keep their
    # defaults
    fields = (f.name for f in dataclasses.fields(RunConfig))
    return RunConfig(**{f: getattr(args, f) for f in fields if hasattr(args, f)})


def _maybe_mod_nilradical(a: Order, args) -> tuple[Order, str | None]:
    if not args.mod_nilradical:
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
    if not g.tolerance:
        # an exact form has integer entries: print all their digits
        biggest = max((abs(x) for row in g.entries for x in row), default=0)
        return max(8, int(biggest.bit_length() * 0.30103) + 1)
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
        connected, g = with_gram(a, config, lambda g: (len(graded_on(a, g).atoms) == 1, g))
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
    factors = list(graded.grading.group.invariant_factors)
    lines = [f"grading group invariant factors: {factors or 'trivial'}"]
    for elem, basis in graded.grading.pieces:
        lines.append(f"piece at {list(elem)}: rank {basis.rank}")
        for v in basis.vectors():
            lines.append(f"    {list(v)}")
    _emit(data, args, lines, note)
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
    lines = [f"roots of unity: {report.count}"]
    for r, k in zip(report.roots, report.orders):
        lines.append(f"  {list(r)}  order {k}")
    _emit(data, args, lines, note)
    return 0


def cmd_idempotents(args, config: RunConfig) -> int:
    a = _load_order(args.path)
    a, note = _maybe_mod_nilradical(a, args)
    idem = idempotents(a, config)
    data = {"count": len(idem), "idempotents": [list(x) for x in idem]}
    lines = [f"idempotents: {len(idem)}"] + [f"  {list(x)}" for x in idem]
    _emit(data, args, lines, note)
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
    g, dec = escalate(
        config.precision,
        lambda p: gram_from_strings(rows, p),
        lambda g: (g, universal_s_decomposition(g)),
    )
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
        data = {"examples": {n: EXAMPLES[n][0] for n in example_names()}}
        lines = [f"{n:10s} {EXAMPLES[n][0]}" for n in example_names()]
        _emit(data, args, lines)
        return 0
    a = example_order(args.name)
    print(json.dumps(order_to_json(a), indent=2))
    return 0


# every flag of a subcommand; precision, seed and cap set the RunConfig
# fields precision, seed and enumeration_cap (only the roots of unity
# enumerate, one search per factor, so only units reads the cap)
FLAGS = {
    "precision": dict(
        type=int, default=DEFAULT_CONFIG.precision, help="starting precision in bits"
    ),
    "seed": dict(type=int, default=DEFAULT_CONFIG.seed, help="seed for splitting elements"),
    "cap": dict(
        dest="enumeration_cap",
        metavar="CAP",
        type=int,
        default=DEFAULT_CONFIG.enumeration_cap,
        help="short-vector cap of each factor's roots-of-unity search",
    ),
    "mod-nilradical": dict(
        action="store_true", help="quotient by the nilradical before running"
    ),
    "list": dict(action="store_true", help="list available examples"),
    "format": dict(choices=("text", "json"), default="text"),
}

# (name, handler, help, flags besides --format): each subcommand takes only
# the flags it reads, and every one but example reads a file
QUERY_FLAGS = ("precision", "seed", "mod-nilradical")
COMMANDS = (
    ("validate", cmd_validate, "check the ring axioms of an order file", ()),
    ("analyze", cmd_analyze, "rank, reducedness, connectedness, Gram form", ("precision", "seed")),
    ("grade", cmd_grade, "universal grading of a reduced order", QUERY_FLAGS),
    ("units", cmd_units, "all roots of unity of a reduced order", (*QUERY_FLAGS, "cap")),
    ("idempotents", cmd_idempotents, "all idempotents of a reduced order", QUERY_FLAGS),
    (
        "decompose",
        cmd_decompose,
        "finest orthogonal splitting of a Gram matrix",
        ("precision",),
    ),
    ("example", cmd_example, "emit a named example order as JSON", ("list",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Universal gradings, idempotents, and torsion units of orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name == "example":
            p.add_argument("name", nargs="?")
        else:
            p.add_argument("path")
        for flag in (*flags, "format"):
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _config(args))
    except EnumerationBudgetExceeded as exc:
        return _fail(4, type(exc).__name__, str(exc))
    except (PrecisionExhausted, DegenerateSplitting) as exc:
        return _fail(3, type(exc).__name__, str(exc))
    except (GradusError, KeyError, ValueError, OSError) as exc:
        return _fail(2, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
