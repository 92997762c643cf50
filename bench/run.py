#!/usr/bin/env python3
"""The gradus benchmark: one closed-loop, single-threaded run of a workload.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 36 --trace 0

One op is one generated order run through the workload's queries; the next
op starts when the previous one returns.  A batch presents every base order
of the workload once, in fresh random bases, and the run repeats batches
until --seconds have passed; before each batch it times the set-up of two
fresh interpreters.  Every op and set-up is bracketed by host-speed probes
and reported at a fixed reference speed (see hostspeed.py).  Every answer
is checked exactly; a wrong answer makes the command exit 1.  An op that
raises a typed `GradusError` or overruns the workload's per-op budget
counts as failed.

With --trace 0 nothing is wrapped and the end-to-end metrics are printed.
With --trace 1 the run alternates traced and untraced batches and prints
the per-layer metrics (see tracing.py).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up is timed in this many fresh interpreters before each batch, and
# the median over the run reported: a shared host's speed can shift up to
# twofold for tens of seconds at a time, so the samples are spread over the run
# like the batches are
SETUP_SAMPLES_PER_BATCH = 2
# a batch in progress is cut this long after --seconds, so a run ends within
# about two and a half minutes even when every op hits its budget
GRACE_S = 60.0

END_TO_END_UNITS = {
    "batch_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def die(message: str):
    """Stop without a result: the benchmark itself cannot run."""
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


class OpTimeout(Exception):
    """An op overran the workload's per-op budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_gradus() -> float:
    """Import gradus from the checkout's own src/; returns the import time.
    Exits 2 when the sources are not there."""
    if not (SRC / "gradus" / "__init__.py").is_file():
        die(f"no gradus sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import gradus

    dt = perf_counter() - t0
    if Path(gradus.__file__).resolve().parent != SRC / "gradus":
        die(f"imported gradus from {gradus.__file__}, not from {SRC}")
    return dt


def setup_only(workload: str, seed: int, first_probe: float):
    """The set-up a fresh interpreter needs before its first op.  Prints
    `ready` and the probes it took, the first before importing gradus."""
    import workloads

    with hostspeed.Sampler() as inside:
        workloads.make_batch(workloads.WORKLOADS[workload], seed, 0)
    probes = [first_probe, *inside.probes, hostspeed.probe()]
    print("ready", *probes, flush=True)


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Wall times, `count` of them, from starting a fresh interpreter until
    it has imported gradus and generated and validated the first batch,
    each at the reference speed."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            dt = perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        word, *probes = line.split() or [""]
        if code != 0 or word != "ready":
            die(f"set-up child failed with exit code {code}")
        # the child's probes measure the core it ran on
        probes = [float(p) for p in probes]
        samples.append(hostspeed.scale(dt - sum(probes), probes))
    return samples


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile p with at least 10 ops beyond the
    nearest-rank p-th percentile, and that percentile's value."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100
    p = max(q for q in range(1, 100) if n - math.ceil(q * n / 100) >= 10)
    return xs[math.ceil(p * n / 100) - 1], p


class Run:
    """The ops of one run of a workload: their wall times and the probes
    around them, failures and wrong answers."""

    def __init__(self, workload: str):
        import gradus
        import workloads

        self.gradus = gradus
        self.wl = workloads
        self.w = workloads.WORKLOADS[workload]
        signal.signal(signal.SIGALRM, _on_alarm)
        self.config = gradus.RunConfig(enumeration_cap=self.w.enumeration_cap)
        self.op_times: list[float] = []
        self.probes_before: list[float] = []
        self.probes_inside: list[list[float]] = []
        self.probes_after: list[float] = []
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.next_op = 0
        # whether the last probe was taken right after the previous op, so
        # it serves as the next op's probe before
        self._chained = False

    def op(self, inst, tracer=None):
        """Run one op under the per-op budget and check its answers."""
        answers, kind = None, None
        self.probes_before.append(self.probes_after[-1] if self._chained else hostspeed.probe())
        if tracer is not None:
            tracer.op, tracer.recording = self.next_op, True
        # no probes inside a traced op: they would add to its spans
        with hostspeed.Sampler(active=tracer is None) as inside:
            t0 = perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, self.w.op_budget_s)
                    answers = self.wl.run_queries(inst, self.w.queries, self.config)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                kind = "timeout"
            except self.gradus.GradusError as exc:
                kind = type(exc).__name__
            dt = perf_counter() - t0
        dt -= sum(inside.probes)
        self.probes_inside.append(inside.probes)
        if tracer is not None:
            tracer.op, tracer.recording = None, False
        self.next_op += 1
        self.op_times.append(dt)
        self.probes_after.append(hostspeed.probe())
        self._chained = True
        if kind is not None:
            self.failures[kind] = self.failures.get(kind, 0) + 1
            print(f"failed op: {inst.case.label}: {kind}", file=sys.stderr)
        else:
            try:
                self.wl.check(inst, answers)
            except self.wl.WrongAnswer as exc:
                self.wrong.append(str(exc))
                print(f"WRONG ANSWER: {exc}", file=sys.stderr)

    def batch(self, insts, deadline, tracer=None) -> tuple[float, bool]:
        """Run the ops of one batch; returns its wall time and whether it
        completed before the hard deadline."""
        self._chained = False
        t0 = perf_counter()
        for inst in insts:
            if self.wrong or perf_counter() > deadline:
                return perf_counter() - t0, False
            self.op(inst, tracer)
        return perf_counter() - t0, True

    def scaled_times(self) -> list[float]:
        """The op times at the reference host speed."""
        return hostspeed.scale_series(self.op_times, self.probes_before,
                                      self.probes_inside, self.probes_after)

    @property
    def attempted(self) -> int:
        return len(self.op_times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    first_probe = hostspeed.probe() if args.setup_only else None
    import_s = import_gradus()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        setup_only(args.workload, args.seed, first_probe)
        return 0

    start = perf_counter()
    setup = []
    run = Run(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    batch0 = workloads.make_batch(run.w, args.seed, 0)
    if tracer is not None:
        tracer.recording = False
        validate_s = tracing.setup_validate_s(tracer.spans)
        tracer.uninstall()
        span_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        span_path.parent.mkdir(exist_ok=True)
        span_path.unlink(missing_ok=True)
        tracer.dump(span_path, -1)

    deadline = start + args.seconds
    hard_deadline = deadline + GRACE_S
    # a traced run alternates traced (even) and untraced (odd) batches
    min_batches = 2 if tracer is not None else 1
    ranges = {True: [], False: []}
    wall = []
    per_batch = []
    r = 0
    while not run.wrong and (r < min_batches or perf_counter() < deadline):
        setup += measure_setup(args.workload, args.seed, SETUP_SAMPLES_PER_BATCH)
        insts = batch0 if r == 0 else workloads.make_batch(run.w, args.seed, r)
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        first = run.next_op
        dt, complete = run.batch(insts, hard_deadline, tracer if traced else None)
        ranges[traced].append((first, run.next_op))
        wall.append(dt)
        r += 1
        if traced:
            tracer.uninstall()
            tracer.dump(span_path, r - 1)
            per_batch.append(tracing.layer_metrics(tracer.spans, tracer.counts, run.next_op - first))
        if not complete:
            print(f"batch {r - 1} cut after {dt:.1f} s", file=sys.stderr)
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scaled = run.scaled_times()
    batch_times = {t: [sum(scaled[i:j]) for i, j in rs] for t, rs in ranges.items()}
    p50 = statistics.median(scaled)
    tail_s, tail_p = tail(scaled)
    untraced = batch_times[False]
    e2e = {
        "batch_s": statistics.median(untraced or batch_times[True]),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {run.attempted}  "
          f"batches {r}  ({len(batch0)} orders each)  budget {run.w.op_budget_s:g} s/op  "
          f"enumeration_cap {run.w.enumeration_cap}")
    if tracer is None:
        for name, value in e2e.items():
            print(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"  op_tail_s is p{tail_p} of {run.attempted} ops; "
              f"setup_s is the median of {len(setup)} samples")
        print("  batch times  " + " ".join(f"{t:.3f}" for t in untraced))
        print(f"  times are at the reference host speed; measured: batch wall "
              f"{statistics.median(wall):.6g} s (median), op p50 "
              f"{statistics.median(run.op_times):.6g} s, probe "
              f"{statistics.median(run.probes_before):.6g} s against "
              f"{hostspeed.REFERENCE_PROBE_S:g} s")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(run.failures.items())) or "none"
    print(f"  fail_ratio   {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted; {kinds})")
    print(f"  wrong answers {len(run.wrong)}")

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        layer = tracing.combine(per_batch)
        layer["setup.import_s"] = import_s
        layer["orders.validate_s"] = validate_s
        traced_s = statistics.median(batch_times[True])
        layer["trace.overhead_s"] = traced_s - e2e["batch_s"] if untraced else 0.0
        print(f"  traced batch_s {traced_s:.6g} s over {len(batch_times[True])} batches, "
              f"untraced {e2e['batch_s']:.6g} s over {len(untraced)}; spans in {span_path}")
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in sorted(layer.items())}
        for k, m in metrics.items():
            print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    correct = not run.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
