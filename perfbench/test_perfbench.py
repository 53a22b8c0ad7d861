"""Self-tests of the benchmark: its checks pass on kgamma as it is, and
fail when an output is perturbed.

    python3 -m pytest perfbench/test_perfbench.py -q

(run from the repository root; the repository's own suite does not collect
this file).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return run.load_program(SRC)


def verdicts(name: str, program, ops) -> list[bool]:
    workload = WORKLOADS[name]
    return workload.check_round(program, ops, [workload.run(program, op) for op in ops])


def test_admissible_rows_match_the_standard_grid_and_the_sweep_bands():
    grid = dict(n_p=4, ms=(1, 2, 3, 4), ns=(1, 2, 3, 4), ls=(0, 2),
                holder_ps=(2.0, 3.0, 1.5))
    # `kgamma verify --default-grid`: 5 x, k = 0.5, 1, 2, 3 (k = 2 and 3
    # sit on T2/T3 admissibility edges)
    assert sum(reference.admissible_rows(5, (0.5, 1.0, 2.0, 3.0), **grid).values()) == 1545
    # the sweep workload: 6 x, three k in [0.5, 2), one in (2, 3]
    assert sum(reference.admissible_rows(6, (0.7, 1.1, 1.9, 2.5), **grid).values()) == 1867


def test_unperturbed_operations_pass_and_counted_failures_fail(program):
    sweep = WORKLOADS["sweep"].make_round(program, 11, 0)
    assert verdicts("sweep", program, sweep) == [True]
    assert sweep[0].results == 1867

    cross = WORKLOADS["crosscheck"].make_round(program, 11, 0)
    picked = cross[:6] + cross[-2:]  # one block (its last op has x < 0.2), then x = 0.001, 0.01
    assert picked[5].inputs["x"] < 0.2
    assert verdicts("crosscheck", program, picked) == [True] * 6 + [False] * 2
    assert all(op.expected_failure for op in picked[-2:])

    ev = WORKLOADS["eval"].make_round(program, 11, 0)
    assert verdicts("eval", program, ev) == [True] * 13 + [False]
    assert ev[-1].expected_failure and not any(op.expected_failure for op in ev[:-1])


def test_flipped_slack_sign_fails_the_sweep(program, monkeypatch):
    for name in ("check_holder_polygamma", "check_holder_zeta", "check_turan_gamma_deriv",
                 "check_midpoint_gamma_deriv", "check_midpoint_polygamma"):
        original = getattr(program.harness, name)

        def flipped(*args, _original=original, **kwargs):
            check = _original(*args, **kwargs)
            return dataclasses.replace(check, slack=-check.slack)

        monkeypatch.setattr(program.harness, name, flipped)
    ops = WORKLOADS["sweep"].make_round(program, 12, 0)
    assert verdicts("sweep", program, ops) == [False]


def test_oracle_value_off_by_one_part_in_a_million_fails_the_crosscheck(program, monkeypatch):
    original = program.oracle.integrate_k_gamma

    def scaled(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, value=result.value * (1 + 1e-6))

    monkeypatch.setattr(program.oracle, "integrate_k_gamma", scaled)
    ops = WORKLOADS["crosscheck"].make_round(program, 13, 0)[:3]
    assert verdicts("crosscheck", program, ops) == [False] * 3


def test_derivative_off_by_one_part_in_a_billion_fails_eval(program, monkeypatch):
    original = program.functions.k_gamma_deriv
    monkeypatch.setattr(program.functions, "k_gamma_deriv",
                        lambda *args: original(*args) * (1 + 1e-9))
    ops = WORKLOADS["eval"].make_round(program, 14, 0)
    assert not any(verdicts("eval", program, ops))


def test_traced_counts_repeat_and_self_times_add_up(program):
    workload = WORKLOADS["sweep"]
    op = workload.make_round(program, 15, 0)[0]
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        trace.install(program)
        try:
            start = run.perf_counter()
            workload.run(program, op)
            elapsed = run.perf_counter() - start
        finally:
            trace.uninstall()
        metrics = trace.metrics(1.0)
        assert set(metrics) == set(tracer.metric_names())
        self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
        assert 0.5 * elapsed * 1e3 < self_ms <= elapsed * 1e3
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".self_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.gamma_deriv_sequence.calls"] == 2880
    assert counts[0]["kernels.gamma_deriv_sequence.distinct_args"] == 24
    assert counts[0]["harness.scan_grid.calls"] == 1
    # the wrappers are gone again
    assert program.kernels.hurwitz_zeta.__module__ == "kgamma.kernels"


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_json_result(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] * 14 == result["attempted"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_refuses_a_tree_without_kgamma(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_crosscheck_points_are_moved_off_derivative_zeros():
    # pGamma_k''' is -2.4e-4 here against a scale of 10.8; `crosscheck`
    # reports pk_gamma_deriv EXCEEDS (1.01e-8) on values that agree to 2e-13
    x, k, p = 1.0597702202694022, 1.0978725227110262, 3.0727313410050314
    assert reference.derivative_zero_mask(np.array([x]), np.array([k]), np.array([p]))[0]
