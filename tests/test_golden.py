"""Golden CLI outputs: `grade`, `units` and `idempotents --format json` on
every named example at default flags must reproduce, byte for byte, the
stdout, stderr and exit code recorded in `tests/golden/cli.json`.

The file was written from commit b2e513b, before the embeddings were read
off left eigenvectors and before LLL carried its own Gram matrix, by

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

import gradus.embeddings as embeddings
import gradus.lattices as lattices
from gradus.cli import main
from gradus.examples import example_names, example_order
from gradus.orders import order_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
COMMANDS = ("grade", "units", "idempotents")


def run(directory, name, command):
    """The CLI's (stdout, stderr, exit code) for one command on a fresh
    numeric context."""
    path = pathlib.Path(directory) / f"{name}.json"
    path.write_text(json.dumps(order_to_json(example_order(name))))
    embeddings.numeric_context.cache_clear()
    lattices._reduction.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--format", "json"])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", example_names())
def test_cli_output_matches_golden(golden, tmp_path, name, command):
    assert run(tmp_path, name, command) == golden[f"{name} {command}"]


def test_golden_covers_every_example(golden):
    assert sorted(golden) == sorted(f"{n} {c}" for n in example_names() for c in COMMANDS)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{n} {c}": run(tmp, n, c) for n in example_names() for c in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
