"""kgamma benchmark: one process, one thread, closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; kgamma is imported from ./src.  With
--trace 0 the run repeats whole rounds of seeded operations for --seconds
seconds and prints the end-to-end metrics; with --trace 1 it runs a fixed
set of rounds, untraced and then traced, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
same object is written under .perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy/scipy (the reference values) must not add worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
import types
from time import perf_counter, thread_time

import tracer as tracing
from workloads import WORKLOADS

#: the calibration loop's time at the reference host speed, at which every
#: time is reported (the loop's median is 1.1-1.2 ms on a 2-core KVM guest
#: with Python 3.11); it fixes the unit, so compared commits share it
REFERENCE_CALIBRATION_S = 1.0e-3
SETUP_REPEATS = 15
#: the traced operations come from this seed whatever --seed is, so that
#: their call, panel and argument counts repeat exactly from run to run
TRACE_SEED = 0
OUTPUT_DIR = ".perfbench"
PROGRAM_MODULES = ("cli", "functions", "harness", "kernels", "oracle", "policy")


def calibration_loop(iterations: int = 2000) -> float:
    """CPU seconds taken by a fixed pure-Python loop that shares no kgamma code."""
    start = thread_time()
    total = 0.0
    window: list[float] = []
    for i in range(1, iterations):
        v = (i * 0.6180339887498949) % 1.0
        total += math.sqrt(v) * math.exp(-v) / (1.0 + v * v)
        window.append(total)
        if len(window) > 32:
            window.pop(0)
    return thread_time() - start


def load_program(src: str) -> types.SimpleNamespace:
    """Import kgamma afresh from `src` (its modules are dropped first)."""
    for name in [m for m in sys.modules if m == "kgamma" or m.startswith("kgamma.")]:
        del sys.modules[name]
    importlib.import_module("kgamma.cli")
    program = types.SimpleNamespace(
        **{name: sys.modules[f"kgamma.{name}"] for name in PROGRAM_MODULES}
    )
    if not os.path.abspath(program.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"kgamma was imported from {program.cli.__file__}, not {src}")
    return program


class Clock:
    """Host-speed adjustment from calibration samples around each interval.

    Intervals are thread CPU time, which leaves out the time the host lets
    other guests run in place of this one.  What remains still moves with
    the host's speed, in plateaus that last from milliseconds to seconds,
    within one process as much as between processes, so a calibration
    sample is taken after every timed interval and each interval is scaled
    by the mean of the samples on either side of it.
    """

    def __init__(self) -> None:
        self.samples = [calibration_loop()]
        self.raw: list[float] = []

    def add(self, raw: float) -> None:
        """Record one timed interval and take the sample that follows it."""
        self.raw.append(raw)
        self.samples.append(calibration_loop())

    def adjusted(self) -> list[float]:
        """Each interval at the reference host speed."""
        return [
            raw * 2.0 * REFERENCE_CALIBRATION_S / (before + after)
            for raw, before, after in zip(self.raw, self.samples, self.samples[1:])
        ]


class Tally:
    """Verdicts of the operations run so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.results = 0

    def run_round(self, workload, program, ops, clock: Clock, tracer=None) -> None:
        """Run and time one round, then check it with the tracer (if any) removed."""
        outputs = []
        if tracer is not None:
            tracer.install(program)
        try:
            for op in ops:
                start = thread_time()
                try:
                    output = workload.run(program, op)
                except Exception:  # the program failed this operation
                    output = traceback.format_exc()
                clock.add(thread_time() - start)
                outputs.append(output)
                if tracer is not None and isinstance(output, tuple):
                    # (exit code, stdout, stderr) of cli.main
                    tracer.add("cli.main.report_bytes", len(output[1].encode()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            passed = workload.check_round(program, ops, outputs)
        except Exception:  # malformed output: every operation of the round fails
            traceback.print_exc()
            passed = [False] * len(ops)
        for op, ok, output in zip(ops, passed, outputs):
            self.attempted += 1
            if ok:
                self.results += op.results
                continue
            self.failed += 1
            if op.expected_failure is None:
                self.unexpected += 1
                detail = output if isinstance(output, str) else ""
                print(f"perfbench: operation failed its check: {op.inputs!r:.300}\n"
                      f"{detail[-2000:]}", file=sys.stderr)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _summary(times: list[float], results: int, setup: float, pct: float) -> dict:
    times = sorted(times)
    return {
        "setup_s": setup,
        "results_per_s": results / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": percentile(times, pct) * 1e3,
    }


def measure(workload, program, seed: int, seconds: float, first_round,
            setup_clock: Clock) -> tuple[dict, Tally, Clock]:
    clock = Clock()
    tally = Tally()
    start = perf_counter()
    round_index = 0
    ops = first_round
    while True:
        tally.run_round(workload, program, ops, clock)
        round_index += 1
        if perf_counter() - start >= seconds:
            break
        ops = workload.make_round(program, seed, round_index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct = workload.tail_percentile
    adjusted = _summary(clock.adjusted(), tally.results,
                        statistics.median(setup_clock.adjusted()), pct)
    raw = _summary(clock.raw, tally.results, statistics.median(setup_clock.raw), pct)
    tail = percentile(sorted(clock.raw), pct)
    beyond = sum(1 for t in clock.raw if t > tail)
    print(
        f"perfbench: {workload.name} seed={seed} ops={len(clock.raw)} "
        f"rounds={round_index} tail=p{pct} ({beyond} ops beyond) "
        f"calibration_ms={statistics.median(clock.samples) * 1e3:.4f}\n"
        f"perfbench: raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
        file=sys.stderr,
    )
    if beyond < 10:
        print(f"perfbench: only {beyond} operations beyond p{pct}", file=sys.stderr)
    units = {"setup_s": "s", "results_per_s": "results/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in adjusted.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, tally, clock


def measure_traced(workload, program) -> tuple[dict, Tally, Clock, list]:
    clock = Clock()
    tally = Tally()
    rounds = [workload.make_round(program, TRACE_SEED, r)
              for r in range(workload.trace_rounds)]
    for ops in rounds:
        tally.run_round(workload, program, ops, clock)
    tracer = tracing.Tracer()
    for ops in rounds:
        tally.run_round(workload, program, ops, clock, tracer)
    traced_ops = len(clock.raw) // 2
    adjusted = clock.adjusted()
    untraced, traced = sum(adjusted[:traced_ops]), sum(adjusted[traced_ops:])
    factor = traced / sum(clock.raw[traced_ops:])
    metrics = {name: (value, _unit(name))
               for name, value in tracer.metrics(factor).items()}
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    print(f"perfbench: {workload.name} traced {traced_ops} ops: "
          f"untraced {untraced:.4f} s, traced {traced:.4f} s (adjusted)", file=sys.stderr)
    return metrics, tally, clock, tracer.spans()


def _unit(metric: str) -> str:
    field = metric.rpartition(".")[2]
    return {"self_ms": "ms", "report_bytes": "bytes"}.get(field, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgamma benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "kgamma", "__init__.py")):
        print("perfbench: ./src/kgamma not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]

    setup_clock = Clock()
    for _ in range(SETUP_REPEATS):
        start = thread_time()
        program = load_program(src)
        first_round = workload.make_round(program, args.seed, 0)
        setup_clock.add(thread_time() - start)

    # the benchmark's own imports (mpmath, numpy, scipy) hold most live
    # objects; freezing them keeps full collections from scanning them
    gc.freeze()
    if args.trace:
        metrics, tally, clock, spans = measure_traced(workload, program)
    else:
        metrics, tally, clock = measure(workload, program, args.seed, args.seconds,
                                        first_round, setup_clock)
        spans = None
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUTPUT_DIR, stem + ".json"), "w") as handle:
        json.dump({**result, "spans": spans, "op_seconds": clock.raw,
                   "calibration_seconds": clock.samples}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
