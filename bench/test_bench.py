"""Self-test of the benchmark:  python3 -m pytest bench/test_bench.py"""

import dataclasses
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import run

run.import_gradus()

import gradus  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def traced_batch(name, seed):
    """Answers and per-layer counts of batch 0 of a workload, traced."""
    w = workloads.WORKLOADS[name]
    config = gradus.RunConfig(enumeration_cap=w.enumeration_cap)
    insts = workloads.make_batch(w, seed, 0)
    tracer = tracing.Tracer()
    tracer.install()
    answers = []
    try:
        for i, inst in enumerate(insts):
            tracer.op, tracer.recording = i, True
            answers.append(workloads.run_queries(inst, w.queries, config))
            tracer.op, tracer.recording = None, False
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, len(insts))
    counts = {k: v for k, v in metrics.items() if tracing.PER_LAYER[k][0] != "s"}
    return answers, counts


def test_traced_runs_repeat_counts_and_answers():
    first = traced_batch("fixtures", 7)
    second = traced_batch("fixtures", 7)
    assert first[1] == second[1]
    assert first[0] == second[0]
    assert first[1]["embeddings.calls"] > 0
    # Z^5 sends non-roots through the exact torsion filter
    assert 0 < first[1]["units.roots_found"] < first[1]["units.candidates"]


def bindings():
    return [(module, attr, fn) for module, attr, (fn, _, _) in tracing.gradus_bindings()]


def test_runs_leave_gradus_attributes_untouched(capsys):
    before = bindings()
    assert len(before) > len(tracing.TARGETS)
    for flag in ("0", "1"):
        code = run.main(["--workload", "fixtures", "--seed", "3", "--seconds", "0", "--trace", flag])
        assert code == 0
        for module, attr, fn in before:
            assert getattr(module, attr) is fn, f"{module.__name__}.{attr} still wrapped"
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.PER_LAYER)


def test_typed_errors_and_overruns_are_counted():
    r = run.Run("radical")
    hard = workloads._radical_case(2, 10**20)
    r.op(workloads.present(hard, random.Random(0)))
    assert r.failures == {"EnumerationBudgetExceeded": 1}
    r.w = dataclasses.replace(r.w, op_budget_s=0.01)
    r.op(workloads.present(workloads._radical_case(3, 300), random.Random(0)))
    assert r.failures == {"EnumerationBudgetExceeded": 1, "timeout": 1}
    assert r.attempted == 2 and r.failed == 2 and not r.wrong


def test_wrong_answers_are_caught():
    w = workloads.WORKLOADS["radical"]
    inst = workloads.make_batch(w, 0, 0)[0]
    answers = workloads.run_queries(inst, w.queries, gradus.RunConfig())
    workloads.check(inst, answers)
    liar = dataclasses.replace(inst, case=workloads._radical_case(4, 30))
    try:
        workloads.check(liar, answers)
    except workloads.WrongAnswer:
        return
    raise AssertionError("a C3 grading passed as C4")


def test_tail_percentile():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90)
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50)
    assert run.tail([1.0, 2.0]) == (2.0, 100)


def test_times_are_scaled_by_the_probes_around_them():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale_series([1.0, 2.0], [ref, ref], [[], []], [ref, ref]) == [1.0, 2.0]
    # a host at half speed: both the op and the probes take twice as long
    assert hostspeed.scale_series([2.0], [2 * ref], [[2 * ref]], [2 * ref]) == [1.0]
    # one disturbed probe among four does not move the op it brackets
    assert hostspeed.scale_series([1.0] * 3, [ref] * 3, [[]] * 3, [ref, 9 * ref, ref])[1] == 1.0
    # a long op is scaled by the probes taken inside it too
    assert hostspeed.scale_series([1.0], [ref], [[2 * ref] * 3], [ref]) == [0.5]


def test_sampler_probes_during_cpu_work():
    with hostspeed.Sampler() as inside:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.35:
            pass
    assert len(inside.probes) >= 2
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
