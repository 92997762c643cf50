"""Golden CLI outputs: `grade`, `units` and `idempotents --format json`,
and `analyze` as text and as JSON, on every named example at default flags
must reproduce, byte for byte, the stdout, stderr and exit code recorded in
`tests/golden/cli.json`; so must `decompose --format json` of the Gram
document that the recorded `analyze --format json` printed for each reduced
example.

The grade, units and idempotents entries were written from commit b2e513b,
before the embeddings were read off left eigenvectors and before LLL
carried its own Gram matrix; the analyze and decompose entries from commit
42caf6b, before the Gram form moved onto an integer grid, except the
analyze entries of the eight totally real examples, whose tolerance and
precision read 0 since they answer on their exact trace form, and those of
the six examples of CM type (zc3, zc4, zc5, zc6, zeta5, zsqrtm1), which
read 0 since they answer on their certified integer form.  All by

    PYTHONPATH=src python tests/test_golden.py --write

Regenerate it the same way only for a change that is meant to alter the
output, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from gradus.cli import main
from gradus.examples import example_names, example_order
from gradus.orders import is_reduced, order_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
JSON = ("--format", "json")
COMMANDS = {
    "grade": ("grade", *JSON),
    "units": ("units", *JSON),
    "idempotents": ("idempotents", *JSON),
    "analyze": ("analyze",),
    "analyze json": ("analyze", *JSON),
}
# the examples whose analyze output holds a Gram document
GRAM_EXAMPLES = [n for n in example_names() if is_reduced(example_order(n))]


def run_cli(path, argv):
    """The CLI's (stdout, stderr, exit code) for one command on `path`.  The
    CLI reads the order (or the Gram document) from the file, so every run
    computes its own numeric context."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def run(directory, name, command):
    path = pathlib.Path(directory) / f"{name}.json"
    path.write_text(json.dumps(order_to_json(example_order(name))))
    return run_cli(path, COMMANDS[command])


def run_decompose(directory, name, analyzed):
    """decompose of the Gram document in an analyze --format json result."""
    path = pathlib.Path(directory) / f"{name}.gram.json"
    path.write_text(json.dumps(json.loads(analyzed["stdout"])["gram"]))
    return run_cli(path, ("decompose", *JSON))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", example_names())
def test_cli_output_matches_golden(golden, tmp_path, name, command):
    assert run(tmp_path, name, command) == golden[f"{name} {command}"]


@pytest.mark.parametrize("name", GRAM_EXAMPLES)
def test_decompose_of_analyze_gram_matches_golden(golden, tmp_path, name):
    analyzed = golden[f"{name} analyze json"]
    assert run_decompose(tmp_path, name, analyzed) == golden[f"{name} decompose"]


def test_golden_covers_every_example(golden):
    keys = [f"{n} {c}" for n in example_names() for c in COMMANDS]
    keys += [f"{n} decompose" for n in GRAM_EXAMPLES]
    assert sorted(golden) == sorted(keys)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{n} {c}": run(tmp, n, c) for n in example_names() for c in COMMANDS}
        for n in GRAM_EXAMPLES:
            table[f"{n} decompose"] = run_decompose(tmp, n, table[f"{n} analyze json"])
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
