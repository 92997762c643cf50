import json
import pathlib
import subprocess
import sys
import zipfile

import pytest

from gradus.cli import main
from gradus.examples import example_names, example_order
from gradus.grading import grading_from_json, verify_grading
from gradus.lattices import MAX_DECIMAL_EXPONENT
from gradus.orders import monogenic_order, order_from_json, order_to_json


def write_order(tmp_path, name, fname="order.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(order_to_json(example_order(name))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(tmp_path, capsys):
    path = write_order(tmp_path, "zc2")
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 0
    assert "rank 2" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"


@pytest.mark.parametrize(
    "doc",
    [
        {"rank": 1, "one": 1, "table": [[[1]]]},
        {"rank": 1, "one": [1], "table": [[1]]},
        {"rank": 1, "one": [1.5], "table": [[[1]]]},
        {"rank": 1, "one": [1], "table": [[[1]]], "labels": ["1", "x"]},
        {"rank": 1, "one": [1], "table": [[[1]]], "labels": "1"},
        {"rank": 1, "one": [1], "table": [[[True]]]},
        {"rank": True, "one": [1], "table": [[[1]]]},
        {"rank": 1.0, "one": [1], "table": [[[1]]]},
    ],
    ids=[
        "bare-one",
        "bare-cell",
        "float-one",
        "label-count",
        "label-string",
        "bool-cell",
        "rank-bool",
        "rank-float",
    ],
)
def test_validate_rejects_malformed_order(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_validate_nonassociative_table(tmp_path, capsys):
    doc = {
        "rank": 3,
        "one": [1, 0, 0],
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 1, 0]],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "NotAssociative"
    assert "(1, 1, 2)" in diag["message"]


def test_analyze_reduced_connected(tmp_path, capsys):
    path = write_order(tmp_path, "zsqrt2")
    code, out, err = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["reduced"] is True
    assert data["connected"] is True
    assert data["gram"]["gram"][1][1] == "4.0"


def test_analyze_non_reduced(tmp_path, capsys):
    path = write_order(tmp_path, "dual")
    code, out, err = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] is False
    assert data["nilradical_rank"] == 1
    assert "connected" not in data


def test_analyze_disconnected(tmp_path, capsys):
    path = write_order(tmp_path, "zxz")
    code, out, err = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] is True
    assert data["connected"] is False


def test_grade_zsqrt2_json_round_trip(tmp_path, capsys):
    path = write_order(tmp_path, "zsqrt2")
    code, out, err = run_cli(capsys, "grade", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["invariant_factors"] == [2]
    grading = grading_from_json(example_order("zsqrt2"), data)
    assert verify_grading(example_order("zsqrt2"), grading).ok


def test_grade_group_ring(tmp_path, capsys):
    path = write_order(tmp_path, "zc3")
    code, out, err = run_cli(capsys, "grade", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["invariant_factors"] == [3]
    assert len(data["pieces"]) == 3
    assert len(data["generator_map"]) == 3


def test_grade_rejects_non_reduced(tmp_path, capsys):
    path = write_order(tmp_path, "dual")
    code, out, err = run_cli(capsys, "grade", path)
    assert code == 2
    assert json.loads(err)["error"] == "NotReduced"


def test_grade_mod_nilradical(tmp_path, capsys):
    path = write_order(tmp_path, "dual")
    code, out, err = run_cli(capsys, "grade", path, "--mod-nilradical", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["invariant_factors"] == []
    assert "note" in data


def test_units_zc4(tmp_path, capsys):
    path = write_order(tmp_path, "zc4")
    code, out, err = run_cli(capsys, "units", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert sorted(data["orders"]) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_units_mod_nilradical_note(tmp_path, capsys):
    path = write_order(tmp_path, "dual")
    code, out, err = run_cli(capsys, "units", path, "--mod-nilradical", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert "bijectively" in data["note"]
    code, out, err = run_cli(capsys, "units", path, "--mod-nilradical")
    assert code == 0
    assert out.splitlines()[0] == "roots of unity: 2"
    assert out.splitlines()[-1] == f"note: {data['note']}"


def test_units_of_the_zero_ring(tmp_path, capsys):
    # rank 0: 0 = 1, the one root, of order 1
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "one": [], "table": []}))
    assert run_cli(capsys, "units", str(path)) == (0, "roots of unity: 1\n  []  order 1\n", "")
    code, out, err = run_cli(capsys, "units", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"count": 1, "roots": [[]], "orders": [1]}


def test_idempotents_product(tmp_path, capsys):
    path = write_order(tmp_path, "zxz")
    code, out, err = run_cli(capsys, "idempotents", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_decompose(tmp_path, capsys):
    doc = {"n": 2, "gram": [["2.0", "0.0"], ["0.0", "4.0"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 2


def budget_error(bound):
    message = f"more than 3 short vectors below bound {bound}"
    return json.dumps({"error": "EnumerationBudgetExceeded", "message": message}) + "\n"


def test_enumeration_budget_exits_4(tmp_path, capsys):
    # only the roots of unity enumerate a pool: parity5 has more than 3
    # pairs of norm <= 5
    path = write_order(tmp_path, "parity5")
    assert run_cli(capsys, "units", path, "--cap", "3") == (4, "", budget_error("5.0"))


def test_units_cap_counts_pairs_of_the_rank_norm_ball(tmp_path, capsys):
    # kummer6 has exactly 3 pairs of norm <= 6, its 6 roots of unity, so a
    # cap of 3 passes; parity5 has more than 3 pairs of norm <= 5
    path = write_order(tmp_path, "kummer6")
    code, out, err = run_cli(capsys, "units", path, "--cap", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 6
    path = write_order(tmp_path, "parity5")
    assert run_cli(capsys, "units", path, "--cap", "3") == (4, "", budget_error("5.0"))


def test_decompose_bad_size(tmp_path, capsys):
    doc = {"n": 3, "gram": [["1.0"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2


def test_decompose_escalates_past_an_ambiguous_entry(tmp_path, capsys):
    # the off-diagonal 2^-32 is inside the ambiguous zero band at 128 bits
    # ([2^-42, 2^-26]) and a clear nonzero at 256, where the document is read
    # again: one component
    tiny = "2.3283064365386962890625e-10"
    doc = {"n": 2, "gram": [["1.0", tiny], [tiny, "1.0"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    argv = ("decompose", str(path), "--precision", "128", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["components"] == [{"basis": [[1, 0], [0, 1]]}]
    assert data["precision"] == 256


def test_decompose_escalates_past_a_tiny_pivot_against_a_huge_entry(tmp_path, capsys):
    # [[2, 1], [1, 2e30 + 1]] is positive definite, but at 192 bits its first
    # pivot, 2, is below the zero tolerance 2**(-p/3) max|entry| of the form;
    # at 384 bits it is not.  The form is indecomposable: its minimum is 2, at
    # e1, and its odd determinant rules out an orthogonal basis diag(2, b)
    doc = {"gram": [["2", "1"], ["1", "2000000000000000000000000000001"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["components"] == [{"basis": [[1, 0], [0, 1]]}]
    assert data["precision"] == 384


def test_decompose_exhausts_the_escalation_budget(tmp_path, capsys):
    # the tolerance of [[2, 1], [1, 1e1000]] stays above the pivot 2 up to
    # 192 * 16 bits
    doc = {"gram": [["2", "1"], ["1", "1e1000"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "PrecisionExhausted"
    assert "up to 3072 bits" in error["message"]


# a declared size must be an integer (not a bool, float, string or null)
MALFORMED_SIZE = [
    {"n": None, "gram": [["1"]]},
    {"n": 1.5, "gram": [["1"]]},
    {"n": 1.0, "gram": [["1"]]},
    {"n": True, "gram": [["1"]]},
    {"n": "1", "gram": [["1"]]},
    {"n": [1], "gram": [["1"]]},
]


@pytest.mark.parametrize(
    "doc",
    [
        {"gram": [["1", None], [None, "1"]]},
        {"gram": [["1", ["0"]], [["0"], "1"]]},
        {"gram": 5},
        {"n": 1, "gram": 5},
        {"gram": ["12"]},
        {"gram": [[True]]},
        {"gram": [["inf"]]},
        {"gram": [["nan"]]},
        {"gram": [[float("inf")]]},
        *MALFORMED_SIZE,
        {"gram": [["abc"]]},
        {"gram": [["1/3"]]},
        {"gram": [[""]]},
        [["1"]],
    ],
)
def test_decompose_rejects_malformed_gram(tmp_path, capsys, doc):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    # a bare matrix is no Gram document
    invalid = doc in MALFORMED_SIZE or isinstance(doc, list)
    want = "ValidationError" if invalid else "ValueError"
    assert json.loads(err)["error"] == want
    assert out == ""


def test_decompose_bounds_the_decimal_exponent_of_an_entry(tmp_path, capsys):
    # 10**(10**7) would be a 33M-bit grid value; past MAX_DECIMAL_EXPONENT
    # the entry is refused before any power of ten is built
    path = tmp_path / "gram.json"
    for entry in ("1e10000000", "-1e10000000", f"1e{MAX_DECIMAL_EXPONENT + 1}"):
        path.write_text(json.dumps({"gram": [[entry]]}))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out, json.loads(err)["error"]) == (2, "", "ValueError")
    path.write_text(json.dumps({"gram": [[f"1e{MAX_DECIMAL_EXPONENT}"]]}))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["components"] == [{"basis": [[1]]}]


def monogenic_file(tmp_path, coefficients):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(monogenic_order(coefficients))))
    return str(path)


def test_huge_coefficients_end_with_a_typed_error(tmp_path, capsys):
    # x^3 - 10^200 has embeddings, grades to C3 and its roots of unity are
    # +-1; x^2 - 10^310 has no positive definite numeric form at any level
    # of the precision budget, but it is totally real, and its exact trace
    # form grades it to C2 with the roots +-1
    path = monogenic_file(tmp_path, [-(10**200), 0, 0, 1])
    code, out, err = run_cli(capsys, "grade", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["group"]["invariant_factors"] == [3]
    code, out, err = run_cli(capsys, "units", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["roots"] == [[-1, 0, 0], [1, 0, 0]]
    path = monogenic_file(tmp_path, [-(10**310), 0, 1])
    code, out, err = run_cli(capsys, "grade", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["group"]["invariant_factors"] == [2]
    code, out, err = run_cli(capsys, "units", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["roots"] == [[-1, 0], [1, 0]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("grade", "--precision", "63"), "precision must be at least 64 bits"),
        (("units", "--cap", "0"), "enumeration cap must be at least 1"),
    ],
)
def test_a_config_out_of_range_exits_2(tmp_path, capsys, argv, message):
    path = write_order(tmp_path, "zc2")
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


# each subcommand takes only the flags it reads
UNREAD_FLAGS = [
    ("validate", "--precision"),
    ("validate", "--seed"),
    ("validate", "--cap"),
    ("example", "--precision"),
    ("example", "--seed"),
    ("example", "--cap"),
    ("decompose", "--seed"),
    ("decompose", "--cap"),
    ("grade", "--cap"),
    ("analyze", "--cap"),
    ("idempotents", "--cap"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_a_flag_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    path = write_order(tmp_path, "zc2")
    with pytest.raises(SystemExit) as exc:
        main([command, path, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_runs_without_mpmath(tmp_path):
    # numbers are read and printed with the standard library alone: in a
    # fresh interpreter no subcommand imports mpmath
    import gradus

    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gradus.cli import main
order, gram = sys.argv[2], sys.argv[3]
codes = [main([cmd, order]) for cmd in ("grade", "units", "idempotents")]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(main(["analyze", order, "--format", "json"]))
with open(gram, "w") as fh:
    json.dump(json.loads(out.getvalue())["gram"], fh)
codes.append(main(["decompose", gram]))
assert codes == [0, 0, 0, 0, 0], codes
assert "mpmath" not in sys.modules
"""
    src = str(pathlib.Path(gradus.__file__).parent.parent)
    order = write_order(tmp_path, "kummer6")
    done = subprocess.run(
        [sys.executable, "-c", code, src, order, str(tmp_path / "gram.json")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_example_list_and_emit(tmp_path, capsys):
    code, out, err = run_cli(capsys, "example", "--list")
    assert code == 0
    assert "parity5" in out
    code, out, err = run_cli(capsys, "example", "parity5")
    assert code == 0
    a = order_from_json(json.loads(out))
    assert a.rank == 5


def test_examples_load_from_a_zipped_package(tmp_path):
    # every example is built in code, so the modules alone serve them all,
    # also where gradus is not a directory on disk
    import gradus

    src = pathlib.Path(gradus.__file__).parent
    archive = tmp_path / "gradus.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in src.glob("*.py"):
            zf.write(f, f"gradus/{f.name}")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gradus; "
        "assert gradus.__file__.startswith(sys.argv[1]); "
        "print(sum(gradus.example_order(n).rank for n in gradus.example_names()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(archive)],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(sum(example_order(n).rank for n in example_names()))


def test_example_unknown_name(capsys):
    code, out, err = run_cli(capsys, "example", "nope")
    assert code == 2


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "/nonexistent/file.json")
    assert code == 2


def test_deterministic_output(tmp_path, capsys):
    path = write_order(tmp_path, "zc2c2")
    code1, out1, _ = run_cli(capsys, "grade", path, "--format", "json")
    code2, out2, _ = run_cli(capsys, "grade", path, "--format", "json")
    assert (code1, out1) == (code2, out2)


def test_module_entry_point(tmp_path):
    path = write_order(tmp_path, "zc2")
    proc = subprocess.run(
        [sys.executable, "-m", "gradus.cli", "validate", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rank 2" in proc.stdout
