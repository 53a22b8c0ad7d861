"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload builds its inputs a round at a time.  A round is a fixed list
of operations, the same in every run; only the seeded values change.  The
counted-failure operations sit in every round, so that failed / attempted
is the same in every run.

An operation's output is checked after it, outside its timed region,
against references from `reference` (which never imports kgamma).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import reference as ref


@dataclass
class Op:
    """One timed operation.  `expected_failure` names the fault it waits on."""

    inputs: object
    expected_failure: str | None = None
    results: int = 0  # filled in by the check, for an operation that passes


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _run_cli(program, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _strata(rng: random.Random, n: int, lo: float, hi: float, transform=None) -> list:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    values = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(values)
    return values if transform is None else [transform(v) for v in values]


def _csv_list(values) -> str:
    return ",".join(repr(v) for v in values)


# --------------------------------------------------------------------------
# sweep: in-process `kgamma verify` over seeded (x, k) grids


class Sweep:
    """All eight theorems on a 6 x 4 (x, k) grid per operation.

    Three k are drawn from [0.5, 2) and one from (2, 3]: T2/T3 admit an
    (m, n) pair only when m + 1, n + 1 and s + 1 exceed k, so keeping each k
    inside one band between whole numbers fixes the row count (1,867).
    """

    name = "sweep"
    tail_percentile = 85
    trace_rounds = 2
    P_PARAMS = (0.5, 1.0, 2.0, 5.0)
    MS = NS = (1, 2, 3, 4)
    LS = (0, 2)
    HOLDER_PS = (2.0, 3.0, 1.5)
    SLACK_TOL = 1e-9
    #: rows per theorem checked against 30-digit mpmath, per operation
    SAMPLED_ROWS = 1

    def make_round(self, program, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        xs = sorted(rng.uniform(0.5, 10.0) for _ in range(6))
        ks = sorted([rng.uniform(0.5, 2.0) for _ in range(3)] + [rng.uniform(2.0, 3.0)])
        argv = [
            "verify", "--theorems", ",".join(ref.THEOREMS),
            "--x", _csv_list(xs), "--k", _csv_list(ks),
            "--p-param", _csv_list(self.P_PARAMS), "--m", _csv_list(self.MS),
            "--n", _csv_list(self.NS), "--l", _csv_list(self.LS),
            "--holder-p", _csv_list(self.HOLDER_PS), "--slack-tol", repr(self.SLACK_TOL),
        ]
        return [Op({"argv": argv, "xs": xs, "ks": ks, "sample_seed": rng.random()})]

    def run(self, program, op: Op):
        return _run_cli(program, op.inputs["argv"])

    def check_round(self, program, ops: list[Op], outputs: list) -> list[bool]:
        return [self._check(op, output) for op, output in zip(ops, outputs)]

    def _check(self, op: Op, output) -> bool:
        code, text, err = output
        xs, ks = op.inputs["xs"], op.inputs["ks"]
        rows = [_parse_row(r) for r in csv.DictReader(
            line for line in text.splitlines() if not line.startswith("#")
        )]
        expected = ref.admissible_rows(
            len(xs), ks, len(self.P_PARAMS), self.MS, self.NS, self.LS, self.HOLDER_PS
        )
        if Counter(r["theorem_id"] for r in rows) != Counter(expected) or err.count(
            "evaluation error"
        ):
            return False
        grid_x, grid_k = set(xs), set(ks)
        if any(r["k"] not in grid_k or (r["x"] is not None and r["x"] not in grid_x)
               for r in rows):
            return False
        if any(r["theorem_id"] in ("T4K", "T4PK") and r["n"] % 2 == 1
               and r["verdict"] == "FAIL" for r in rows):
            return False
        any_fail = any(r["verdict"] == "FAIL" for r in rows)
        if code != (1 if any_fail else 0):
            return False
        by_theorem = defaultdict(list)
        for row in rows:
            by_theorem[row["theorem_id"]].append(row)
        rng = random.Random(op.inputs["sample_seed"])
        for theorem in ref.THEOREMS:
            for row in rng.sample(by_theorem[theorem], self.SAMPLED_ROWS):
                if not _row_matches(row, ref.mp_sweep_slack(row), self.SLACK_TOL):
                    return False
        op.results = len(rows)
        return True


_INT_COLUMNS = ("m", "n", "l")
_FLOAT_COLUMNS = ("x", "k", "p_param", "holder_p", "holder_q", "lhs", "rhs",
                  "slack", "margin")


def _parse_row(raw: dict) -> dict:
    row = {"theorem_id": raw["theorem_id"], "verdict": raw["verdict"]}
    for col in _INT_COLUMNS:
        row[col] = int(raw[col]) if raw[col] else None
    for col in _FLOAT_COLUMNS:
        row[col] = float(raw[col]) if raw[col] else None
    return row


def _row_matches(row: dict, ref_slack, slack_tol: float) -> bool:
    """Slack within margin + slack_tol of the reference, verdict of its sign."""
    allowance = row["margin"] + slack_tol
    if not abs(row["slack"] - ref_slack) <= allowance:
        return False
    should_pass = ref_slack >= -allowance
    return (row["verdict"] == "PASS") == should_pass


# --------------------------------------------------------------------------
# crosscheck: in-process `kgamma crosscheck`, one (x, k, p) point per operation


class Crosscheck:
    """Closed forms against the quadrature oracle at one seeded point.

    k stays in [0.5, 1.5]: from about k = 1.95, `integrate_bose` for m = 1
    raises ZeroDivisionError once t^k / c underflows to 0 near t = 0.  Four
    points in 24 have x in [0.05, 0.2],
    where the oracle's graded endpoint panels dominate the cost.
    """

    name = "crosscheck"
    tail_percentile = 95
    trace_rounds = 1
    MS = (1, 2)
    THRESHOLD = 1e-8
    #: x = 0.001 and 0.01 (k = p = 1, m = 1): the oracle's downward panel
    #: loop stops at 1e-280 short of its tail bound and still reports
    #: converged, 52% and 0.16% off Gamma(x)
    FAILURES = (0.001, 0.01)
    FAULT = "oracle tail loop stops at lo < 1e-280 and reports converged"

    def make_round(self, program, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        # Latin-hypercube draws: one value from each equal stratum, so every
        # round holds the same spread of costs and the run-to-run spread
        # stays small; log-spaced x strata, as the oracle's cost follows log x
        xs = _strata(rng, 20, math.log(0.2), math.log(10.0), math.exp)
        small = _strata(rng, 4, math.log(0.05), math.log(0.2), math.exp)
        ks = _strata(rng, 24, 0.5, 1.5)
        ps = _strata(rng, 24, 0.5, 5.0)
        points = np.array(
            [x for block in range(4) for x in xs[5 * block:5 * block + 5] + [small[block]]]
        )
        ks, ps = np.array(ks), np.array(ps)
        # `crosscheck` compares |oracle - closed| / |closed|, so where an odd
        # derivative crosses zero it reports EXCEEDS on values that agree to
        # 1e-13 of the derivative's scale; such points are moved off the zero
        while (near_zero := ref.derivative_zero_mask(points, ks, ps)).any():
            points[near_zero] *= 1.01
        ops = [self._op(float(x), float(k), float(p), self.MS)
               for x, k, p in zip(points, ks, ps)]
        for x in self.FAILURES:
            ops.append(self._op(x, 1.0, 1.0, (1,), self.FAULT))
        return ops

    @staticmethod
    def _op(x, k, p, ms, fault=None) -> Op:
        argv = ["crosscheck", "--x", repr(x), "--k", repr(k), "--p-param", repr(p),
                "--m", _csv_list(ms)]
        return Op({"argv": argv, "x": x, "k": k, "p": p, "ms": ms}, fault)

    def run(self, program, op: Op):
        return _run_cli(program, op.inputs["argv"])

    def check_round(self, program, ops: list[Op], outputs: list) -> list[bool]:
        return [self._check(program, op, output) for op, output in zip(ops, outputs)]

    def _expected(self, k: float, ms) -> dict[str, int]:
        """Comparisons `crosscheck` makes at one (x, k, p) point, per family."""
        bose = sum(1 for m in ms if m + 1.0 > k and m - k > -1.0)
        return {"k_gamma": 1, "k_polygamma": len(ms), "k_gamma_deriv": 5,
                "pk_gamma": 1, "pk_gamma_deriv": 5,
                "bose_k_zeta": bose, "bose_pk_zeta": bose}

    def _check(self, program, op: Op, output) -> bool:
        code, text, _ = output
        inp = op.inputs
        expected = {f: n for f, n in self._expected(inp["k"], inp["ms"]).items() if n}
        seen = {}
        for line in text.splitlines():
            family, value, status = line.split()
            seen[family] = (float(value.partition("=")[2]), status)
        if code != 0 or set(seen) != set(expected):
            return False
        if any(not value <= self.THRESHOLD or status != "ok"
               for value, status in seen.values()):
            return False
        fn, oracle = program.functions, program.oracle
        policy = program.policy.AccuracyPolicy()
        oracle_policy = program.policy.AccuracyPolicy(rel_tol=1e-10, max_subdivisions=4000)
        pt = fn.EvalPoint(inp["x"], inp["k"])
        ppt = fn.EvalPoint(inp["x"], inp["k"], inp["p"])
        for closed, quad, want in (
            (fn.k_gamma(pt, policy), oracle.integrate_k_gamma(pt, oracle_policy),
             ref.mp_gamma_k(inp["x"], inp["k"])),
            (fn.pk_gamma(ppt, policy), oracle.integrate_pk_gamma(ppt, oracle_policy),
             ref.mp_gamma_k(inp["x"], inp["k"], inp["p"])),
        ):
            for value in (closed, quad.value):
                if not abs(value - want) <= self.THRESHOLD * abs(want):
                    return False
        op.results = sum(expected.values())
        return True


# --------------------------------------------------------------------------
# eval: library point evaluations, every call at a fresh seeded point


def _eval_mix() -> tuple:
    mix = [("k_gamma", None)] * 6 + [("pk_gamma", None)] * 6
    mix += [("k_polygamma", m) for m in range(1, 9)] * 2
    mix += [("k_polygamma_magnitude_fractional", None)] * 12
    mix += [("k_zeta", None)] * 12 + [("pk_zeta", None)] * 12
    mix += [("k_gamma_deriv", n) for n in (0, 2, 4, 6, 8)]
    mix += [("pk_gamma_deriv", n) for n in (1, 3, 5, 7)]
    return tuple(mix)


@dataclass
class _Call:
    name: str
    args: tuple
    x: float
    k: float
    p: float | None
    order: float | None = None  # derivative / polygamma order, or fractional s


class Eval:
    """A fixed mix of every public `kgamma.functions` call, 210 calls in all.

    The zeta/polygamma calls and the derivative calls take about the same
    time, so a gain on one path that costs the other shows.
    """

    name = "eval"
    ops_per_round = 14
    tail_percentile = 99
    trace_rounds = 2
    #: three times over, so an operation takes about 4 ms
    MIX = _eval_mix() * 3
    REL_TOL = 1e-10
    #: calls per round also checked against 30-digit mpmath
    MP_SAMPLES = 3
    #: k_gamma_deriv(8, x ~ 1, k = 0.01): the Leibniz expansion in
    #: functions._deriv_sum cancels to ~3e-3 relative error
    FAULT = "Leibniz expansion in functions._deriv_sum loses digits at small k"
    FAILURE_CALLS = 24

    def make_round(self, program, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        ept = program.functions.EvalPoint
        ops = []
        for _ in range(self.ops_per_round - 1):
            calls = [self._call(ept, rng, name, order) for name, order in self.MIX]
            ops.append(Op(calls))
        # counted failures: fixed, seed-independent x that never repeat in a run
        calls = []
        for i in range(self.FAILURE_CALLS):
            x = 1.0 + (round_index * self.FAILURE_CALLS + i) * 1e-6
            calls.append(_Call("k_gamma_deriv", (8, ept(x, 0.01)), x, 0.01, None, 8))
        ops.append(Op(calls, self.FAULT))
        return ops

    @staticmethod
    def _call(ept, rng, name: str, order) -> _Call:
        k = rng.uniform(0.5, 3.0)
        if name in ("k_zeta", "pk_zeta"):
            x, p = k * rng.uniform(1.5, 12.0), rng.uniform(0.5, 5.0)
            args = (x, k) if name == "k_zeta" else (x, k, p)
            return _Call(name, args, x, k, p)
        x = rng.uniform(0.5, 10.0)
        if name in ("pk_gamma", "pk_gamma_deriv"):
            p = rng.uniform(0.5, 5.0)
            pt = ept(x, k, p)
        else:
            p = None
            pt = ept(x, k)
        if name == "k_polygamma_magnitude_fractional":
            order = rng.uniform(1.0, 6.0)
        args = (pt,) if order is None else (order, pt)
        return _Call(name, args, x, k, p, order)

    def run(self, program, op: Op):
        fn = program.functions
        return [getattr(fn, call.name)(*call.args) for call in op.inputs]

    def check_round(self, program, ops: list[Op], outputs: list) -> list[bool]:
        ok = [isinstance(out, list) for out in outputs]
        groups = defaultdict(list)  # (name, order) -> [(op index, call, value)]
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if ok[i]:
                for call, value in zip(op.inputs, out):
                    key = (call.name, None if call.name.endswith("fractional")
                           else call.order)
                    groups[key].append((i, call, value))
        for (name, order), items in groups.items():
            calls = [c for _, c, _ in items]
            if name.endswith("fractional"):
                order = np.array([c.order for c in calls])
            want, scale = self._reference(
                "sp", name, order, np.array([c.x for c in calls]),
                np.array([c.k for c in calls]),
                np.array([np.nan if c.p is None else c.p for c in calls]),
            )
            got = np.array([v for _, _, v in items])
            bad = ~(np.abs(got - want) <= self.REL_TOL * scale)
            for (i, _, _), is_bad in zip(items, bad):
                if is_bad:
                    ok[i] = False
        rng = random.Random(ops[0].inputs[0].x)
        seeded = [i for i, op in enumerate(ops) if op.expected_failure is None]
        sample = [(i, rng.randrange(len(self.MIX))) for i in rng.sample(seeded, self.MP_SAMPLES)]
        sample += [(i, 0) for i, op in enumerate(ops) if op.expected_failure]
        for i, j in sample:
            if ok[i]:
                call = ops[i].inputs[j]
                want, scale = self._reference("mp", call.name, call.order,
                                              call.x, call.k, call.p)
                ok[i] = abs(outputs[i][j] - want) <= self.REL_TOL * scale
        for op, passed in zip(ops, ok):
            if passed:
                op.results = len(op.inputs)
        return ok

    @staticmethod
    def _reference(lib: str, name: str, order, x, k, p):
        """Value and error scale of a call, from `ref.sp_*` (arrays of
        calls) or `ref.mp_*` (one call), as `lib` is "sp" or "mp"."""
        def f(base):
            return getattr(ref, f"{lib}_{base}")

        if name in ("k_gamma", "pk_gamma"):
            want = f("gamma_k")(x, k, p if name == "pk_gamma" else None)
        elif name == "k_polygamma":
            want = f("polygamma_k")(order, x, k)
        elif name == "k_polygamma_magnitude_fractional":
            want = f("polygamma_k_abs")(order, x, k)
        elif name in ("k_zeta", "pk_zeta"):
            want = f("zeta_k")(x, k)
        else:
            derivs = f("gamma_k_derivs")(
                order + order % 2, x, k, p if name == "pk_gamma_deriv" else None
            )
            return derivs[order], ref.deriv_scale(derivs, order)
        return want, abs(want)


WORKLOADS = {w.name: w for w in (Sweep(), Crosscheck(), Eval())}
