"""CLI tests: exit codes, output formats, determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgamma
from kgamma import cli, harness, kernels
from kgamma import functions as fn


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(argv, capsys):
    # argparse exits itself: 2 on an input its parser refuses, 0 after --help
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestEval:
    def test_k_gamma(self, capsys):
        code, out, _ = run(["eval", "k_gamma", "--x", "5", "--k", "1"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(24.0, rel=1e-12)

    def test_k_zeta(self, capsys):
        code, out, _ = run(["eval", "k_zeta", "--x", "4", "--k", "2"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_domain_error_names_precondition(self, capsys):
        code, _, err = run(["eval", "k_gamma", "--x", "-1", "--k", "1"], capsys)
        assert code == 3
        assert "x" in err

    @pytest.mark.parametrize("argv, message", [
        (["k_gamma_deriv", "--n", "9"], "derivative order 9 exceeds supported cap 8"),
        (["k_polygamma", "--m", "13"], "k_polygamma order 13 exceeds supported cap 12"),
        (["oracle_k_gamma_deriv", "--n", "9"],
         "derivative order 9 exceeds supported cap 8"),
    ])
    def test_order_above_the_cap_is_domain_error(self, capsys, argv, message):
        code, out, err = run(["eval", *argv, "--x", "1", "--k", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == f"domain error: {message}\n"

    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run([], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: kgamma")

    def test_unknown_function_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "nope", "--x", "1"])
        assert exc.value.code == 2

    def test_missing_argument(self, capsys):
        code, out, err = refused(["eval", "k_gamma", "--x", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(
            "kgamma eval k_gamma: error: the following arguments are required: --k\n")

    @pytest.mark.parametrize("argv, counterpart", [
        (["k_gamma", "--x", "3", "--k", "1"], "pk_gamma"),
        (["k_gamma_deriv", "--n", "1", "--x", "3", "--k", "1"], "pk_gamma_deriv"),
        (["k_polygamma", "--m", "1", "--x", "3", "--k", "1"], None),
        (["k_zeta", "--x", "3", "--k", "1"], "pk_zeta"),
        (["oracle_k_gamma", "--x", "3", "--k", "1"], "oracle_pk_gamma"),
        (["oracle_k_polygamma", "--m", "1", "--x", "3", "--k", "1"], None),
        (["oracle_bose", "--s", "1", "--k", "1", "--c", "1"], None),
    ])
    def test_p_is_refused_by_a_function_without_p(self, capsys, argv, counterpart):
        # k_gamma at x = 3, k = 1 is 2; with p = 2 the p-k value is 16
        code, out, err = refused(["eval", *argv, "--p", "2"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("kgamma: error: unrecognized arguments: --p 2\n")
        # the p-k counterpart is named in the function's help
        _, out, _ = refused(["eval", argv[0], "--help"], capsys)
        hint = f"use {counterpart} for the p-k family"
        assert (hint in " ".join(out.split())) == (counterpart is not None)

    def test_p_switches_oracle_k_gamma_deriv_to_the_p_k_family(self, capsys):
        point = ["eval", "oracle_k_gamma_deriv", "--n", "0", "--x", "3", "--k", "1"]
        code, out, _ = run(point, capsys)
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(2.0, rel=1e-10)
        code, out, _ = run(point + ["--p", "2"], capsys)
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(16.0, rel=1e-10)

    def test_oracle_converged_near_a_zero_of_an_odd_order(self, capsys):
        # D^(3) of pGamma_k is -2.4e-4 here, against an integral of
        # |t^(x-1) e^(-t^k/p) log^3 t| of 9.34
        code, out, _ = run(
            ["eval", "oracle_k_gamma_deriv", "--n", "3", "--x", "1.0597702202694022",
             "--k", "1.0978725227110262", "--p", "3.0727313410050314"],
            capsys,
        )
        assert code == 0
        assert out.split()[2] == "converged=True"

    @pytest.mark.parametrize("k, c", [("1", "inf"), ("inf", "1")])
    def test_oracle_bose_refuses_an_infinite_scale(self, capsys, k, c):
        code, out, err = run(
            ["eval", "oracle_bose", "--s", "2", "--k", k, "--c", c], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("domain error: bose integral requires k > 0 and c > 0")

    def test_oracle_below_the_absolute_floor_is_not_converged(self, capsys):
        # pGamma_k(1) = p = 1e-320, a subnormal that holds about 11 bits
        code, out, _ = run(["eval", "oracle_pk_gamma", "--x", "1", "--k", "1",
                            "--p", "1e-320"], capsys)
        assert code == 1
        assert out.split()[2] == "converged=False"

    def test_oracle_variant_reports_error_estimate(self, capsys):
        code, out, _ = run(
            ["eval", "oracle_k_gamma", "--x", "1", "--k", "2"], capsys
        )
        assert code == 0
        assert "error_estimate=" in out
        assert float(out.split()[0]) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-8
        )


#: every `eval` function and the flags it takes; --p of oracle_k_gamma_deriv
#: is the one that may be left out
EVAL_FLAGS = {
    "k_gamma": "x k", "pk_gamma": "x k p", "k_polygamma": "m x k",
    "k_zeta": "x k", "pk_zeta": "x k p", "k_gamma_deriv": "n x k",
    "pk_gamma_deriv": "n x k p", "oracle_k_gamma": "x k rel-tol",
    "oracle_pk_gamma": "x k p rel-tol", "oracle_k_polygamma": "m x k rel-tol",
    "oracle_bose": "s k c rel-tol", "oracle_k_gamma_deriv": "n x k p rel-tol",
}
#: a value for each flag that any `eval` function takes
EVAL_VALUES = {"x": "3", "k": "1", "p": "2", "m": "1", "n": "1", "s": "1", "c": "1",
               "rel-tol": "1e-9"}


class TestEvalFlags:
    """Each `eval` function is a subcommand that takes exactly its flags."""

    COUNTERPARTS = {"k_gamma": "pk_gamma", "k_zeta": "pk_zeta",
                    "k_gamma_deriv": "pk_gamma_deriv",
                    "oracle_k_gamma": "oracle_pk_gamma"}

    @staticmethod
    def argv(function):
        return ["eval", function, *(item for flag in EVAL_FLAGS[function].split()
                                    for item in (f"--{flag}", EVAL_VALUES[flag]))]

    @pytest.mark.parametrize("function, flag", [
        (function, flag) for function, flags in EVAL_FLAGS.items()
        for flag in EVAL_VALUES if flag not in flags.split()
    ])
    def test_any_other_flag_is_refused(self, capsys, function, flag):
        code, out, err = run(self.argv(function), capsys)
        assert (code, err) == (0, "") and out
        code, out, err = refused(self.argv(function) + [f"--{flag}", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"kgamma: error: unrecognized arguments: --{flag} 1\n")

    @pytest.mark.parametrize("function", sorted(EVAL_FLAGS))
    def test_help_lists_exactly_its_flags(self, capsys, function):
        assert set(EVAL_FLAGS) == set(cli._EVAL)
        code, out, _ = refused(["eval", function, "--help"], capsys)
        assert code == 0
        flags = {f"--{flag}" for flag in EVAL_FLAGS[function].split()}
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *flags}
        hint = f"takes no p; use {self.COUNTERPARTS.get(function)} for the p-k family"
        assert (hint in " ".join(out.split())) == (function in self.COUNTERPARTS)


#: SHA-256 of the `verify --default-grid` CSV body (all but the timestamp line)
DEFAULT_GRID_SHA256 = "300234144d8b1f5996db7199c68946e7bf60e619d26103a21f8d212a814465f0"
#: SHA-256 of the `verify --default-grid --format json` report without its
#: timestamp line
DEFAULT_GRID_JSON_SHA256 = (
    "911192c48824065cbed0423c4bf524953904191bdb4cf7d3cd572c4eacb81456"
)

#: A 40 x 20 sweep of every theorem down to k = 0.01, where Gamma_k and the
#: high derivative orders overflow: SHA-256 of its CSV body and of its
#: stderr, eight summary lines and 1,300 evaluation errors
GRID_40X20 = ["verify", "--x", "0.5:10:40", "--k", "0.01:3:20",
              "--theorems", "T1,T2,T3,T4K,T4PK,T5,T6,T7"]
GRID_40X20_SHA256 = "4c6b1d474bdd1c3bb3540683abc83558bb652436b55638a7791e88b491d40cdc"
GRID_40X20_STDERR_SHA256 = (
    "160ea3bc3a6c62489c5dec135834ce0d93ea17994f990ffb57bd63b83b31c15f"
)

#: SHA-256 of the stdout of `crosscheck --x 0.1,1,5 --k 0.5,1,2`: seven
#: family lines, every discrepancy to the last digit
CROSSCHECK_SHA256 = "923f9c8eb4b0d0df50ce5ddd69fa5c7410dda5bdc082b6c13429af145e0b1f60"


class TestEvalLargeOrder:
    def test_k_zeta_far_above_the_em_coefficient_range(self, capsys):
        # s = 1e25: K(s) overflows, and zeta(s) is 1.0 in double precision;
        # so it is at s = 1e308, where lgamma(s + 15) overflows
        for x in ("1e25", "1e308"):
            code, out, err = run(["eval", "k_zeta", "--x", x, "--k", "1"], capsys)
            assert (code, out, err) == (0, "1.0\n", "")

    def test_k_zeta_whose_ratio_overflows(self, capsys):
        # x/k = 2/1e-320 is inf: zeta is 1.0 there, not a domain error
        code, out, err = run(["eval", "k_zeta", "--x", "2", "--k", "1e-320"], capsys)
        assert (code, out, err) == (0, "1.0\n", "")
        code, out, err = run(["eval", "pk_zeta", "--x", "2", "--k", "1e-320",
                              "--p", "3"], capsys)
        assert (code, out, err) == (0, "1.0\n", "")


class TestVerify:
    def test_small_t4_grid_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, err = run(
            ["verify", "--theorems", "T4K", "--x", "1,2", "--k", "1,2",
             "--n", "1,2", "--format", "csv", "--output", str(out_path)],
            capsys,
        )
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2 + 8
        # even-n Turán points genuinely reverse at k <= 1, so the sweep
        # reports a mathematical FAIL
        assert code == 1
        assert "T4K" in err

    def test_no_theorems_is_usage_error(self, capsys):
        code, _, err = run(["verify"], capsys)
        assert code == 2

    def test_t7_orders_stop_below_the_polygamma_cap(self, capsys):
        # T7 at n reads psi_k^(n + 1): n = 12 is no point of the grid (no
        # row, no error, exit 0), and n = 11 is one, reading psi_k^(12)
        code, out, err = run(["verify", "--theorems", "T7", "--x", "1", "--k", "1",
                              "--n", "12"], capsys)
        assert (code, len(out.splitlines())) == (0, 2)
        assert err == "T7: 0 checks, 0 pass, 0 fail, 0 not evaluated\n"
        code, out, _ = run(["verify", "--theorems", "T7", "--x", "1", "--k", "1",
                            "--n", "11"], capsys)
        row = dict(zip(cli.CSV_COLUMNS, out.splitlines()[2].split(",")))
        pt = fn.EvalPoint(1.0, 1.0)
        assert code == 0 and row["n"] == "11"
        assert float(row["rhs"]) == 0.5 * (fn.k_polygamma(12, pt) + fn.k_polygamma(10, pt))

    def test_default_grid_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(["verify", "--default-grid", "--output", str(path)], capsys)
        bodies = [p.read_text().split("\n", 1)[1] for p in paths]
        assert bodies[0] == bodies[1]

    def test_default_grid_golden(self, capsys, tmp_path):
        # pins the report body: a change that moves a value must update this
        # digest and say which rows moved and why
        out_path = tmp_path / "default.csv"
        code, _, _ = run(["verify", "--default-grid", "--output", str(out_path)],
                         capsys)
        body = out_path.read_text().split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_GRID_SHA256
        rows = list(csv.DictReader(io.StringIO(body)))
        assert len(rows) == 1545
        assert Counter((r["theorem_id"], r["verdict"]) for r in rows) == {
            ("T1", "PASS"): 400, ("T2", "PASS"): 57, ("T3", "PASS"): 228,
            ("T4K", "PASS"): 68, ("T4K", "FAIL"): 12,
            ("T4PK", "PASS"): 275, ("T4PK", "FAIL"): 45,
            ("T5", "PASS"): 80, ("T6", "PASS"): 320, ("T7", "PASS"): 60,
        }
        # the 57 FAILs are the even-n Turán reversal
        assert code == 1

    def test_default_grid_json_golden(self, capsys, tmp_path):
        # pins the JSON report as the test above pins the CSV body
        out_path = tmp_path / "default.json"
        code, _, _ = run(["verify", "--default-grid", "--format", "json",
                          "--output", str(out_path)], capsys)
        text = "".join(line for line in out_path.read_text().splitlines(True)
                       if '"timestamp"' not in line)
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_GRID_JSON_SHA256
        assert code == 1

    def test_40_by_20_grid_golden(self, capsys):
        # pins a sweep whose rows share each point's values with many others
        # and whose errors come from every layer, as the default grid's do not
        code, out, err = run(GRID_40X20, capsys)
        body = out.split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == GRID_40X20_SHA256
        assert hashlib.sha256(err.encode()).hexdigest() == GRID_40X20_STDERR_SHA256
        assert sum(line.startswith("evaluation error: ")
                   for line in err.splitlines()) == 1300
        assert code == 1

    def test_t1_default_grid_passes(self, capsys, tmp_path):
        out_path = tmp_path / "t1.csv"
        code, _, _ = run(
            ["verify", "--theorems", "T1", "--default-grid",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        for line in out_path.read_text().splitlines()[2:]:
            slack = float(line.split(",")[11])
            assert slack >= -1e-9

    def test_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            ["verify", "--theorems", "T5", "--x", "1", "--k", "1,2",
             "--format", "json", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert isinstance(payload, list)
        assert "run_metadata" in payload[0]
        records = payload[1:]
        assert all(r["theorem_id"] == "T5" for r in records)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("flag, value", [
        ("--x", "1"), ("--k", "1"), ("--p-param", "1"), ("--m", "1"), ("--n", "1"),
        ("--l", "0"), ("--holder-p", "2"),
    ])
    def test_default_grid_takes_no_axis_flag(self, capsys, tmp_path, flag, value):
        report = tmp_path / "report.csv"
        code, out, err = run(["verify", "--default-grid", flag, value,
                              "--output", str(report)], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: --default-grid takes no grid axis, got {flag}\n"
        assert not report.exists()

    def test_unknown_theorem(self, capsys):
        code, _, err = run(["verify", "--theorems", "T9"], capsys)
        assert code == 2

    def test_unwritable_output(self, capsys):
        code, _, err = run(
            ["verify", "--theorems", "T5", "--x", "1", "--k", "1",
             "--output", "/nonexistent-dir/report.csv"],
            capsys,
        )
        assert code == 4

    def test_bad_grid_axis(self, capsys):
        code, _, err = run(
            ["verify", "--theorems", "T5", "--x", "1:2"], capsys
        )
        assert code == 2

    def test_theorem_without_rows_gets_a_summary_line(self, capsys):
        # no T2 point is admissible at k = 5: zeta_k(2) needs 2/5 > 1
        code, out, err = run(
            ["verify", "--theorems", "T2,T5", "--x", "1", "--k", "5",
             "--m", "1", "--n", "2"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 2 + 2
        # one format for every theorem; no min-slack clause without rows
        counts = "0 fail, 0 not evaluated"
        assert f"T2: 0 checks, 0 pass, {counts}\n" in err
        assert f"T5: 2 checks, 2 pass, {counts}, min slack " in err


class TestRelTol:
    """Only `eval oracle_*` takes --rel-tol; a closed form, `verify` and
    `crosscheck` do not know the flag."""

    POINT = {
        "eval": ["eval", "k_gamma", "--x", "1", "--k", "1"],
        "eval_oracle": ["eval", "oracle_k_gamma", "--x", "1", "--k", "1"],
        "verify": ["verify", "--theorems", "T1", "--x", "1", "--k", "1"],
        "crosscheck": ["crosscheck", "--x", "1", "--k", "1", "--p-param", "1",
                       "--m", "1"],
    }
    SWEEPS = ("crosscheck", "verify")

    @staticmethod
    def exit_code(argv, capsys):
        # argparse exits 2 itself on a flag the command does not know
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(POINT))
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_non_positive_is_usage_error(self, capsys, command, value):
        code, err = self.exit_code(self.POINT[command] + ["--rel-tol", value], capsys)
        assert code == 2
        if command != "eval_oracle":
            # refused as an unknown flag, before its value is looked at
            assert f"unrecognized arguments: --rel-tol {value}" in err
        else:
            assert "usage error" in err and "--rel-tol" in err

    @pytest.mark.parametrize("command", ["eval", "eval_oracle"])
    def test_positive_is_accepted(self, capsys, command):
        code, err = self.exit_code(self.POINT[command] + ["--rel-tol", "1e-9"], capsys)
        if command == "eval":  # a closed form takes no tolerance
            assert code == 2
            assert err.endswith("kgamma: error: unrecognized arguments: --rel-tol 1e-9\n")
        else:
            assert code == 0

    @pytest.mark.parametrize("command", SWEEPS)
    def test_sweeps_refuse_it(self, capsys, command):
        code, err = self.exit_code(self.POINT[command] + ["--rel-tol", "1e-9"], capsys)
        assert code == 2
        assert "unrecognized arguments: --rel-tol 1e-9" in err

    def test_closed_form_refuses_a_finer_value(self, capsys):
        code, out, err = refused(self.POINT["eval"] + ["--rel-tol", "1e-17"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("kgamma: error: unrecognized arguments: --rel-tol 1e-17\n")
        # the reason is in the help
        code, out, _ = refused(["eval", "--help"], capsys)
        assert code == 0 and "2^-56" in out


def _check(theorem_id, inputs, lhs, rhs, slack, margin, verdict="PASS"):
    # an input left out of `inputs` is None, as in the harness's records
    inputs = dict.fromkeys(cli.CSV_COLUMNS[1:9]) | inputs
    return harness.InequalityCheck(theorem_id, **inputs, lhs=lhs, rhs=rhs,
                                   slack=slack, margin=margin, verdict=verdict)


#: Records whose fields are equal as dict keys but print differently: 2 (an
#: order) and 2.0 (an exponent), 0.0 and -0.0; plus None, nan and infinities.
TRICKY_CHECKS = [
    _check("T1", {"x": 2.0, "k": 2.0, "m": 2, "n": 1, "holder_p": 2.0,
                  "holder_q": 2.0}, 2.0, 2, 0.0, -0.0),
    _check("T2", {"k": 1.0, "m": 1, "n": 1, "holder_p": 1.5, "holder_q": 3.0},
           -0.0, 0.0, 1e-300, 5e-324),
    _check("T4PK", {"x": 0.1, "k": 1.0, "p_param": 2.0, "n": 2}, math.nan,
           math.inf, -math.inf, math.nan, "FAIL"),
    _check("T5", {"x": 1, "k": 1.0, "n": 2, "l": 0},
           0.1 + 0.2, 0.3, (0.1 + 0.2) - 0.3, 1.0, "PASS"),
    _check("T7", {"x": 1.0, "k": 2.0, "n": 3}, 1.0, 1, -0.0, 0.0, "FAIL"),
    _check("T1", {"x": 2.0, "k": 2, "m": 2, "n": 2, "holder_p": 2.0,
                  "holder_q": 2.0}, math.inf, -math.inf, 2.0, 2),
]

METADATA = {"artifact_version": "test", "timestamp": "2000-01-01T00:00:00+0000"}


def _csv_writer_report(checks, metadata):
    """The reference: every row through csv.writer, as the report once was."""
    buf = io.StringIO()
    buf.write(f"# kgamma verify {metadata['artifact_version']} "
              f"generated {metadata['timestamp']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_COLUMNS)
    writer.writerows(dataclasses.astuple(check) for check in checks)
    return buf.getvalue()


def _printed_fields(check):
    return {col: cli._fmt(getattr(check, col)) for col in cli.CSV_COLUMNS}


_INTS = st.integers(-2, 2)
#: per column kind, its values: None aside, ints, the floats equal to them,
#: both zeros, nan, infinities and subnormals, or all of them mixed
_FLOATS = st.one_of(
    _INTS.map(float), st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310]))
_COLUMN_VALUES = {"int": _INTS, "float": _FLOATS, "mixed": st.one_of(_INTS, _FLOATS)}


@st.composite
def _records(draw):
    rows = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=rows, max_size=rows))

    ids = column(st.sampled_from(harness.THEOREM_IDS))
    inputs = [column(st.one_of(st.none(), _COLUMN_VALUES[draw(st.sampled_from(
        sorted(_COLUMN_VALUES)))])) for _ in cli.CSV_COLUMNS[1:-1]]
    verdicts = column(st.sampled_from(("PASS", "FAIL")))
    return [harness.InequalityCheck(*fields)
            for fields in zip(ids, *inputs, verdicts)]


class TestCsvRenderer:
    @settings(max_examples=100, deadline=None)
    @given(_records())
    def test_matches_csv_writer_on_random_records(self, checks):
        # equal keys that print differently, within a column and across
        # the float columns' shared table
        assert (cli._render_csv(checks, METADATA)
                == _csv_writer_report(checks, METADATA))

    def test_matches_csv_writer(self):
        assert (cli._render_csv(TRICKY_CHECKS, METADATA)
                == _csv_writer_report(TRICKY_CHECKS, METADATA))

    def test_matches_csv_writer_on_a_sweep(self):
        checks, _ = harness.scan_grid(harness.GridSpec(), harness.THEOREM_IDS)
        assert (cli._render_csv(checks, METADATA)
                == _csv_writer_report(checks, METADATA))

    def test_dict_reader_reads_back_the_fields(self):
        text = cli._render_csv(TRICKY_CHECKS, METADATA)
        rows = list(csv.DictReader(
            line for line in text.splitlines() if not line.startswith("#")))
        assert rows == [_printed_fields(check) for check in TRICKY_CHECKS]
        assert rows[0]["m"] == "2" and rows[0]["holder_p"] == "2.0"
        assert rows[0]["slack"] == "0.0" and rows[0]["margin"] == "-0.0"

    def test_one_repr_per_distinct_nonzero_float(self, monkeypatch):
        calls = Counter()

        def counting(value):
            if value.__class__ is float and value:
                calls[value] += 1
            return repr(value)

        # cli's global `repr` shadows the builtin for the renderer
        monkeypatch.setattr(cli, "repr", counting, raising=False)
        checks, _ = harness.scan_grid(harness.GridSpec(), harness.THEOREM_IDS)
        text = cli._render_csv(checks, METADATA)
        monkeypatch.undo()
        assert text == _csv_writer_report(checks, METADATA)
        assert calls and max(calls.values()) == 1



class TestRecordIsTheRow:
    """A check record's fields are the report's columns, in order."""

    def test_columns_are_the_record_fields(self):
        assert cli.CSV_COLUMNS == (
            "theorem_id", "x", "k", "p_param", "m", "n", "l",
            "holder_p", "holder_q", "lhs", "rhs", "slack", "margin", "verdict",
        )
        assert cli.CSV_COLUMNS == tuple(
            f.name for f in dataclasses.fields(harness.InequalityCheck))

    def test_default_grid_rows_and_objects_are_the_fields(self):
        checks, _ = harness.scan_grid(harness.GridSpec(), harness.THEOREM_IDS)
        assert {c.theorem_id for c in checks} == set(harness.THEOREM_IDS)
        text = cli._render_csv(checks, METADATA)
        rows = list(csv.DictReader(
            line for line in text.splitlines() if not line.startswith("#")))
        objects = json.loads(cli._render_json(checks, METADATA))
        assert objects[0] == {"run_metadata": METADATA}
        assert len(rows) == len(objects) - 1 == len(checks)
        for check, row, obj in zip(checks, rows, objects[1:]):
            assert row == _printed_fields(check)
            # JSON round-trips floats exactly and keeps ints and None
            assert list(obj.items()) == [
                (col, getattr(check, col)) for col in cli.CSV_COLUMNS]
            assert all(type(obj[col]) is type(getattr(check, col))
                       for col in cli.CSV_COLUMNS)


class TestVerdictTolerances:
    """--slack-tol and --threshold decide verdicts: a NaN or out-of-range
    value would turn them meaningless, so it is refused."""

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
    def test_bad_slack_tol_is_usage_error(self, capsys, value):
        code, out, err = run(["verify", "--theorems", "T1", "--x", "1", "--k", "1",
                              f"--slack-tol={value}"], capsys)
        assert code == 2 and out == ""
        assert "usage error" in err and "--slack-tol" in err

    @pytest.mark.parametrize("value", ["0", "1e-9"])
    def test_slack_tol_zero_or_positive_is_accepted(self, capsys, value):
        code, _, _ = run(["verify", "--theorems", "T1", "--x", "1", "--k", "1",
                          "--slack-tol", value], capsys)
        assert code == 0

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    def test_bad_threshold_is_usage_error(self, capsys, value):
        code, out, err = run(["crosscheck", "--x", "1", "--k", "1", "--p-param", "1",
                              "--m", "1", f"--threshold={value}"], capsys)
        assert code == 2 and out == ""
        assert "usage error" in err and "--threshold" in err


class TestCrosscheck:
    def test_single_point(self, capsys):
        code, out, _ = run(
            ["crosscheck", "--x", "1", "--k", "1", "--p-param", "1",
             "--m", "1", "--n", "1"],
            capsys,
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert line.endswith("ok")
        k_gamma_line = next(l for l in out.splitlines() if l.startswith("k_gamma "))
        assert float(k_gamma_line.split("=")[1].split()[0]) <= 1e-10

    def test_invalid_grid(self, capsys):
        code, _, err = run(["crosscheck", "--k", "0,1"], capsys)
        assert code == 2

    def test_golden(self, capsys):
        # pins every discrepancy: a change that moves a closed value or an
        # integral must update this digest and say which families moved
        code, out, err = run(["crosscheck", "--x", "0.1,1,5", "--k", "0.5,1,2"],
                             capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == CROSSCHECK_SHA256
        assert len(out.splitlines()) == 7

    @staticmethod
    def _families(out):
        return dict(line.split()[:2] for line in out.strip().splitlines())

    def test_derivative_orders_follow_n(self, capsys):
        point = ["crosscheck", "--x", "1", "--k", "1", "--p-param", "1", "--m", "1"]
        _, default, _ = run(point, capsys)
        _, all_orders, _ = run(point + ["--n", "0,1,2,3,4"], capsys)
        code, first, _ = run(point + ["--n", "1"], capsys)
        assert code == 0
        default, all_orders, first = map(self._families, (default, all_orders, first))
        # without --n the orders are 0..4
        assert default == all_orders
        assert first["k_gamma_deriv"] != all_orders["k_gamma_deriv"]
        others = set(first) - {"k_gamma_deriv", "pk_gamma_deriv"}
        assert all(first[f] == all_orders[f] for f in others)

    def _count_integrals(self, monkeypatch):
        calls = Counter()
        original = cli.oracle.integrate_k_gamma_derivs

        def counting(orders, pt, policy):
            calls[tuple(orders), pt.p] += 1
            return original(orders, pt, policy)

        monkeypatch.setattr(cli.oracle, "integrate_k_gamma_derivs", counting)
        for name in ("integrate_k_gamma", "integrate_pk_gamma",
                     "integrate_k_gamma_deriv"):
            monkeypatch.delattr(cli.oracle, name)
        return calls

    def test_order_zero_reuses_the_value_integral(self, capsys, monkeypatch):
        calls = self._count_integrals(monkeypatch)
        code, _, _ = run(["crosscheck", "--x", "1,2", "--k", "1", "--p-param", "3",
                          "--m", "1"], capsys)
        assert code == 0
        # orders 0..4 on one node set, once per point and family: the value
        # family reads the order-0 integral, and no integral of its own
        assert calls == {(tuple(range(5)), p): 2 for p in (None, 3.0)}

    def test_integral_orders_follow_n(self, capsys, monkeypatch):
        # --n 1 asks the oracle for the value's order 0 and order 1 only,
        # although the closed forms read up to order 2 for the scale of D^(1)
        calls = self._count_integrals(monkeypatch)
        code, _, _ = run(["crosscheck", "--x", "1,2", "--k", "1", "--p-param", "3",
                          "--m", "1", "--n", "1"], capsys)
        assert code == 0
        assert calls == {((0, 1), p): 2 for p in (None, 3.0)}

    def test_library_orders_are_the_grid_ns(self, monkeypatch):
        calls = self._count_integrals(monkeypatch)
        grid = harness.GridSpec(xs=(1.0,), ks=(1.0,), ns=(0, 3))
        worst, uncertified, errors = cli.crosscheck_families(grid)
        assert (uncertified, errors) == ({}, [])
        assert {"k_gamma_deriv", "pk_gamma_deriv"} <= set(worst)
        # one integral call per point and family, at the grid's orders
        assert calls == {((0, 3), p): 1 for p in (None, *grid.p_params)}

    def test_library_order_past_the_cap_is_one_error_per_point(self):
        # the CLI refuses n = 9 first; a library call reports one error per
        # (x, k) point, naming the order it reads, D^(10), and keeps its
        # Bose comparisons, inside a block or not
        grid = harness.GridSpec(xs=(1.0, 2.0), ks=(1.0,), p_params=(2.0,), ms=(1,),
                                ns=(9,))
        for block in (contextlib.nullcontext, kernels.memoised):
            with block():
                worst, _, errors = cli.crosscheck_families(grid)
            assert errors == [f"x={x}, k=1.0: derivative order 10 exceeds supported cap 8"
                              for x in (1.0, 2.0)]
            assert set(worst) == {"bose_k_zeta", "bose_pk_zeta"}

    @pytest.mark.parametrize("orders", ["9", "0,9", "-1"])
    def test_orders_outside_cap_are_usage_errors(self, capsys, orders):
        code, _, err = run(["crosscheck", "--x", "1", "--k", "1", "--n", orders],
                           capsys)
        assert code == 2
        # the order rule's message; -1 is refused by the grid first
        assert err == "usage error: " + {
            "9": "--n order 9 exceeds supported cap 8",
            "0,9": "--n order 9 exceeds supported cap 8",
            "-1": "grid order must be a non-negative integer, got -1",
        }[orders] + "\n"

    def test_odd_order_zero_crossing_is_ok(self, capsys):
        # the third derivative of pGamma_k is -2.4e-4 here, against a scale
        # sqrt(D2 D4) = 10.8; relative to |D3| the agreement would read 1e-8
        code, out, _ = run(
            ["crosscheck", "--x", "1.0597702202694022", "--k", "1.0978725227110262",
             "--p-param", "3.0727313410050314", "--m", "1,2"],
            capsys,
        )
        assert code == 0
        families = self._families(out)
        assert len(families) == 7
        assert float(families["pk_gamma_deriv"].split("=")[1]) <= 1e-11
        assert all(line.endswith(" ok") for line in out.strip().splitlines())

    def test_polygamma_orders_above_four(self, capsys):
        point = ["crosscheck", "--x", "1", "--k", "1", "--p-param", "1"]
        _, low, _ = run(point + ["--m", "1"], capsys)
        code, high, _ = run(point + ["--m", "5,12"], capsys)
        assert code == 0
        assert all(line.endswith(" ok") for line in high.strip().splitlines())
        low, high = self._families(low), self._families(high)
        for family in ("k_polygamma", "bose_k_zeta", "bose_pk_zeta"):
            assert family in high and high[family] != low[family]

    @pytest.mark.parametrize("orders", ["13", "1,13"])
    def test_polygamma_orders_above_cap_are_usage_errors(self, capsys, orders):
        code, out, err = run(["crosscheck", "--x", "1", "--k", "1", "--m", orders],
                             capsys)
        assert code == 2
        assert out == "" and "usage error" in err and "--m" in err
        assert err == "usage error: --m order 13 exceeds supported cap 12\n"

    @pytest.mark.parametrize("orders", ["0", "0,1"])
    def test_polygamma_order_zero_is_a_usage_error(self, capsys, orders):
        # refused before any integral, not as a domain error after the first
        code, out, err = run(["crosscheck", "--x", "1", "--k", "1", "--m", orders],
                             capsys)
        assert code == 2
        assert out == "" and "usage error" in err and "--m" in err
        assert err == "usage error: --m order must be an integer >= 1, got 0\n"

    def test_bose_underflow_near_zero(self, capsys):
        # t^k / c underflows to 0 near t = 0 for k close to 2
        code, out, _ = run(
            ["crosscheck", "--x", "1", "--k", "1.95", "--p-param", "1", "--m", "1"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7
        assert all(line.endswith(" ok") for line in out.strip().splitlines())


    def test_point_that_overflows_is_an_evaluation_error(self, capsys):
        # D^(6..8) of Gamma_k overflow at x = 170: that point adds no
        # comparison and one error line, and the rest of the grid is reported
        point = ["crosscheck", "--k", "1", "--n", "8", "--m", "1"]
        _, alone, _ = run(point + ["--x", "2"], capsys)
        code, out, err = run(point + ["--x", "2,170"], capsys)
        assert code == 3
        assert out == alone and len(out.splitlines()) == 7
        assert err.splitlines() == [
            "evaluation error: x=170.0, k=1.0: Gamma_k^(6) at EvalPoint(x=170.0, "
            "k=1.0, p=None) overflows double precision"]
        # a family that is not ok still exits 1, as in `verify`
        code, out, err = run(point + ["--x", "2,170", "--threshold", "1e-30"], capsys)
        assert code == 1 and "EXCEEDS" in out and err.count("evaluation error") == 1

    def test_nonconverged_oracle_is_uncertified(self, capsys):
        # at x = 1e-6 the tail e^(x v) of the gamma integrals reaches past
        # the end of the oracle's walk down v = log t; at m = 2 the other
        # three families have a nonzero discrepancy
        point = ["crosscheck", "--x", "1e-6", "--k", "1", "--p-param", "1",
                 "--m", "2"]
        code, out, _ = run(point, capsys)
        assert code == 1
        statuses = {line.split()[0]: line.split()[2] for line in out.splitlines()}
        uncertified = {"k_gamma", "pk_gamma", "k_gamma_deriv", "pk_gamma_deriv"}
        assert statuses == {family: "UNCERTIFIED" if family in uncertified else "ok"
                            for family in statuses}
        assert len(statuses) == 7
        # a converged value beyond --threshold is EXCEEDS; the others stay
        # UNCERTIFIED whatever their discrepancy
        code, out, _ = run(point + ["--threshold", "1e-30"], capsys)
        assert code == 1
        statuses = {line.split()[0]: line.split()[2] for line in out.splitlines()}
        assert statuses == {family: "UNCERTIFIED" if family in uncertified
                            else "EXCEEDS" for family in statuses}

    def test_oracle_below_the_absolute_floor_blames_no_closed_form(self, capsys):
        # the oracle's pGamma_k(1) at p = 1e-320 is subnormal and not
        # converged: UNCERTIFIED, never EXCEEDS of the closed form
        code, out, _ = run(["crosscheck", "--x", "1", "--k", "1", "--p-param",
                            "1e-320", "--m", "2", "--n", "0"], capsys)
        assert code == 1
        statuses = {line.split()[0]: line.split()[2] for line in out.splitlines()}
        assert statuses["pk_gamma"] == statuses["pk_gamma_deriv"] == "UNCERTIFIED"
        assert "EXCEEDS" not in statuses.values()


class TestCacheScope:
    """Only a `verify` sweep evaluates inside a `kernels.memoised()` block."""

    @pytest.mark.parametrize("argv, memoised", [
        (["eval", "k_polygamma", "--m", "2", "--x", "1", "--k", "1"], False),
        (["crosscheck", "--x", "1", "--k", "1", "--m", "1", "--n", "1"], False),
        (["verify", "--theorems", "T7", "--x", "1", "--k", "1", "--n", "2"], True),
    ])
    def test_zeta_calls_see_a_cache_only_in_verify(self, capsys, monkeypatch,
                                                   argv, memoised):
        seen = set()
        zeta = kernels.hurwitz_zeta

        def recording(s, a):
            seen.add(kernels.active_cache() is not None)
            return zeta(s, a)

        monkeypatch.setattr(kernels, "hurwitz_zeta", recording)
        run(argv, capsys)
        assert seen == {memoised}
        assert kernels.active_cache() is None


class TestNoAbbreviation:
    """A flag is taken only as spelled in full: a prefix of one is an
    unrecognized argument, at every level of the parser."""

    @pytest.mark.parametrize("argv, prefix", [
        # once the p of T4PK, read as --p-param
        (["verify", "--theorems", "T4PK", "--x", "1", "--k", "1", "--n", "1"],
         ["--p", "7"]),
        (["verify", "--theorems", "T4K", "--x", "1", "--k", "1"], ["--default"]),
        # once --threshold
        (["crosscheck", "--x", "1", "--k", "1"], ["--t", "1e-30"]),
        (["eval", "oracle_k_gamma", "--x", "1", "--k", "1"], ["--rel", "1e-8"]),
        ([], ["--vers"]),
    ])
    def test_a_prefix_is_refused(self, capsys, argv, prefix):
        code, out, err = refused(argv + prefix, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "kgamma: error: unrecognized arguments: " + " ".join(prefix))


class TestParserReuse:
    ARGVS = (
        ["verify", "--theorems", "T4K,T7", "--x", "1,2", "--k", "1", "--n", "1,2",
         "--format", "json"],
        ["verify", "--theorems", "T4PK", "--x", "1", "--k", "1,2", "--n", "2"],
        ["crosscheck", "--x", "1", "--k", "1", "--p-param", "2", "--m", "1",
         "--n", "1"],
        ["verify", "--theorems", "T4K,T7", "--x", "1,2", "--k", "1", "--n", "1,2",
         "--format", "json"],
        ["eval", "oracle_k_gamma", "--x", "1", "--k", "1", "--rel-tol", "0"],
    )

    def test_repeated_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        # the JSON metadata carries a timestamp; fix it
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "2000-01-01T00:00:00")
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        cli._build_parser.cache_clear()
        reused = [run(argv, capsys) for argv in self.ARGVS]
        assert reused == fresh
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused] == [1, 1, 0, 1, 2]


class TestSharedCrosscheckBase:
    """`crosscheck` starts every call from one base grid, built once per
    process: a call replaces its axes in a copy and never changes the base."""

    ARGV = ["crosscheck", "--x", "0.137,0.07", "--k", "0.83", "--p-param", "2.7",
            "--m", "1,2"]

    def test_a_second_call_prints_the_same_bytes(self, capsys):
        first = run(self.ARGV, capsys)
        # a call with other orders in between reads its own copy
        assert run(self.ARGV + ["--n", "1,3"], capsys)[0] == 0
        assert run(self.ARGV, capsys) == first
        assert first[0] == 0 and len(first[1].splitlines()) == 7

    @pytest.mark.parametrize("orders", [["--n", "9"], ["--m", "0"], ["--m", "13"]])
    def test_refused_orders_leave_the_base_unchanged(self, capsys, orders):
        base = cli._CROSSCHECK_BASE
        first = run(self.ARGV, capsys)
        code, out, err = run(["crosscheck", "--x", "1", "--k", "1"] + orders, capsys)
        assert (code, out) == (2, "") and err.startswith("usage error: ")
        assert cli._CROSSCHECK_BASE is base
        assert base == harness.GridSpec(ns=(0, 1, 2, 3, 4))
        assert run(self.ARGV, capsys) == first


class TestGridCap:
    """A grid whose point count, the product of the lengths of the axes the
    command takes, passes `MAX_GRID_POINTS` is a usage error, raised before
    any point is evaluated."""

    # every grid CI runs, the benchmark-shaped ones, and the 40 x 20 grid
    ACCEPTED = (
        ["verify", "--default-grid"],
        ["verify", "--theorems", "T1,T2,T3,T4K,T4PK,T5,T6,T7", "--x", "0.5:10:40",
         "--k", "0.01:3:20"],
        ["verify", "--theorems", "T1,T2,T3,T4K,T4PK,T5,T6,T7",
         "--x", "0.6,1.7,2.9,4.4,7.1,9.8", "--k", "0.7,1.1,1.9,2.5"],
        ["verify", "--theorems", "T5,T6", "--x", "169.07650971061716", "--k", "1",
         "--p-param", "1", "--n", "4", "--l", "4"],
        ["crosscheck", "--x", "0.1,1,5", "--k", "0.5,1,2"],
        ["crosscheck", "--x", "0.137,0.07", "--k", "0.83", "--p-param", "2.7",
         "--m", "1,2"],
        ["crosscheck", "--x", "0.001,0.01", "--k", "0.5,1", "--p-param", "1",
         "--m", "1", "--n", "0,1,2,3,4,5,6,7,8"],
        ["crosscheck", "--x", "2,170", "--k", "1", "--n", "8", "--m", "1"],
    )

    @staticmethod
    def grid(argv):
        args = cli._build_parser().parse_args(argv)
        base = cli._CROSSCHECK_BASE if args.command == "crosscheck" else harness.GridSpec()
        return cli._grid_from_args(args, base)

    def test_documented_grids_are_accepted(self):
        for argv in self.ACCEPTED:
            self.grid(argv)
        # the 40 x 20 grid's 800 (x, k) points times the default p, m, n, l
        # and Hölder axes
        assert math.prod(map(len, dataclasses.astuple(self.grid(self.ACCEPTED[1])))) == (
            307_200)

    def test_a_grid_past_the_cap_is_refused(self, capsys, monkeypatch):
        # 10^12 (x, k) points: once accepted, and a run that never ended
        argv = ["verify", "--theorems", "T7", "--x", "1:2:1000000",
                "--k", "1:2:1000000", "--n", "2"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"usage error: the grid has {96 * 10**12} points; a grid "
                       f"takes at most {cli.MAX_GRID_POINTS}\n")
        # crosscheck counts its own axes, which have no l or Hölder exponent
        code, out, err = run(["crosscheck", "--x", "1:2:1000", "--k", "1:2:1000"],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: the grid has {80 * 10**6} points;")

        # the cap itself is accepted, one more point is not
        def evaluated(*args):
            raise AssertionError("a refused grid evaluated a point")

        # x 2, k 1, p 4, m 4, n 1, l 2, Hölder 3
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 2 * 4 * 4 * 2 * 3)
        assert run(["verify", "--theorems", "T7", "--x", "1,2", "--k", "1",
                    "--n", "2"], capsys)[0] == 0
        monkeypatch.setattr(harness, "scan_grid", evaluated)
        monkeypatch.setattr(cli, "crosscheck_families", evaluated)
        code, out, err = run(["verify", "--theorems", "T7", "--x", "1,2,3", "--k", "1",
                              "--n", "2"], capsys)
        assert (code, out) == (2, "") and "a grid takes at most 192" in err
        code, _, err = run(["crosscheck", "--x", "1,2", "--k", "1:2:3"], capsys)
        assert code == 2 and err.startswith("usage error: the grid has 480 points;")


class TestVerifyOverflow:
    def test_overflowed_turan_products_are_not_a_fail(self, capsys):
        # every point failed to evaluate: exit 3, not a FAIL and not success
        code, out, err = run(
            ["verify", "--theorems", "T4PK", "--x", "5", "--k", "0.05",
             "--p-param", "1", "--n", "1"],
            capsys,
        )
        assert code == 3
        assert out.splitlines()[2:] == []
        assert err.splitlines()[0] == (
            "T4PK: 0 checks, 0 pass, 0 fail, 1 not evaluated"
        )
        assert "evaluation error: T4PK: Turán products of order 1" in err
        assert "FAIL" not in out and "nan" not in out

    def test_fail_outranks_evaluation_errors(self, capsys):
        # x = k = 1, n = 2 is the even-n Turán reversal; x = 5, k = 0.05
        # overflows for T4PK
        code, _, err = run(
            ["verify", "--theorems", "T4K,T4PK", "--x", "1,5", "--k", "0.05,1",
             "--p-param", "1", "--n", "1,2"],
            capsys,
        )
        assert code == 1
        assert err.count("evaluation error: T4PK") == 2

    def test_midpoint_of_two_finite_orders_near_the_largest_double(self, capsys):
        # D^0 ~ 3.7e302 and D^8 ~ 1.8e308 are finite, but their sum is not:
        # the midpoint halves each before adding
        x = 169.07650971061716
        code, out, err = run(
            ["verify", "--theorems", "T5,T6", "--x", repr(x), "--k", "1",
             "--p-param", "1", "--n", "4", "--l", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert "Infinity" not in out and "inf" not in err
        records = json.loads(out)[1:]
        assert [r["theorem_id"] for r in records] == ["T5", "T6"]
        for record, pt, deriv in zip(
            records,
            (fn.EvalPoint(x, 1.0), fn.EvalPoint(x, 1.0, 1.0)),
            (fn.k_gamma_deriv, fn.pk_gamma_deriv),
        ):
            lo, hi = deriv(0, pt), deriv(8, pt)
            assert math.isinf(lo + hi)
            assert record["lhs"] == 0.5 * lo + 0.5 * hi
            assert math.isfinite(record["slack"])
            assert record["verdict"] == "PASS"

    def test_underflowed_gamma_ratio_names_the_point(self, capsys):
        # Gamma_k(2; k=1e-4) underflows to 0 in the denominator of T2's
        # gamma ratio
        code, out, err = run(
            ["verify", "--theorems", "T2", "--k", "1e-4", "--m", "1", "--n", "1",
             "--holder-p", "2"],
            capsys,
        )
        assert code == 3
        assert out.splitlines()[2:] == []
        assert err.splitlines() == [
            "T2: 0 checks, 0 pass, 0 fail, 1 not evaluated",
            "evaluation error: T2: gamma ratio denominator of orders m=1, n=1 "
            "at k=0.0001 underflows to 0 in double precision",
        ]

    def test_theorem_with_rows_counts_its_unevaluated_points(self, capsys):
        # Gamma_k and its derivatives overflow at x = 10, k = 0.01 for the 4
        # T4K orders; the other 36 points are rows, and T4K's one summary
        # line counts both
        code, _, err = run(["verify", "--theorems", "T4K", "--k", "0.01,0.5"], capsys)
        assert code == 1  # the even-n Turán reversal at k = 0.5
        lines = err.splitlines()
        assert lines[0].startswith(
            "T4K: 36 checks, 32 pass, 4 fail, 4 not evaluated, min slack "
        )
        assert lines[1:] == [
            f"evaluation error: T4K: Gamma_k^({n}) at EvalPoint(x=10.0, k=0.01, "
            "p=None) overflows double precision" for n in range(4)
        ]


class TestGridValues:
    """Every grid the CLI accepts enumerates without an error of its own."""

    T1 = ["verify", "--theorems", "T1", "--x", "1", "--k", "1"]

    @pytest.mark.parametrize("flag, value", [
        ("--holder-p", "inf"),  # q = inf / inf is NaN
        ("--holder-p", "1e300"),  # q = p / (p - 1) rounds to 1.0
        ("--x", "inf"),
        ("--m", "nan"),
        ("--l", "nan"),
        ("--m", "1e400"),  # parses as inf
        ("--n", "inf"),
        ("--n", "2.0000000001"),  # once rounded to 2
    ])
    def test_value_without_a_point_is_usage_error(self, capsys, flag, value):
        code, out, err = run(self.T1 + [flag, value], capsys)
        assert code == 2
        assert out == "" and "usage error" in err

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_crosscheck_non_finite_order_is_usage_error(self, capsys, flag, value):
        code, out, err = run(["crosscheck", "--x", "1", "--k", "1", flag, value],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: axis requires integers, got {value}\n"

    def test_hoelder_orders_start_at_one(self, capsys):
        # m = 0 and n = 0 are outside T1's hypothesis m, n >= 1: no point
        for extra in (["--m", "0"], ["--m", "0,1", "--n", "0,1"]):
            code, out, err = run(self.T1 + extra, capsys)
            assert code == 0
            assert "evaluation error" not in err and "0 not evaluated" in err
        assert len(out.splitlines()) == 2 + 3  # (1, 1) at p = 2, 3, 1.5

    def test_rounded_exponent_sum_keeps_its_row(self, capsys):
        # at p = 1.843, s = 1/p + 1/q rounds to 0.9999999999999999 for
        # m = n = 1; T1 reports that row as T2 does
        argv = ["--x", "1", "--k", "0.5", "--m", "1,2", "--n", "1,2",
                "--holder-p", "1.843"]
        for theorem_id in ("T1", "T2"):
            code, out, err = run(["verify", "--theorems", theorem_id] + argv,
                                 capsys)
            assert code == 0 and "0 not evaluated" in err
            rows = out.splitlines()[2:]
            assert [row.split(",")[4:6] for row in rows] == [["1", "1"], ["2", "2"]]


class TestGridParsing:
    def test_comma_list(self):
        assert cli.parse_grid_axis("1,2.5,5") == (1.0, 2.5, 5.0)

    def test_linear_range(self):
        assert cli.parse_grid_axis("0:1:3") == (0.0, 0.5, 1.0)

    def test_log_range(self):
        values = cli.parse_grid_axis("0.1:10:3:log")
        assert values == pytest.approx((0.1, 1.0, 10.0))

    def test_integer_axis(self):
        assert cli.parse_grid_axis("1,2,4", integer=True) == (1, 2, 4)
        assert cli.parse_grid_axis("2.0", integer=True) == (2,)
        assert cli.parse_grid_axis("3:5:3", integer=True) == (3, 4, 5)
        # only an exact integer: one within 1e-9 of 2 was once taken as 2
        for text in ("1.5", "2.0000000001"):
            with pytest.raises(cli.UsageError) as refused:
                cli.parse_grid_axis(text, integer=True)
            assert str(refused.value) == f"axis requires integers, got {text}"

    def test_bad_spec(self):
        with pytest.raises(cli.UsageError):
            cli.parse_grid_axis("1:2")
        with pytest.raises(cli.UsageError):
            cli.parse_grid_axis("")

    def test_count_past_the_cap_is_refused_before_any_value_is_built(
            self, capsys, monkeypatch):
        # 10^12 floats would exhaust memory: the refusal must come first
        spec = "1:2:1000000000000"
        with pytest.raises(cli.UsageError) as refused:
            cli.parse_grid_axis(spec)
        message = (f"range spec {spec!r} asks for 1000000000000 values; "
                   f"an axis takes at most {cli.MAX_AXIS_COUNT}")
        assert str(refused.value) == message
        for argv in (["verify", "--theorems", "T1", "--x", spec, "--k", "1"],
                     ["crosscheck", "--x", "1", "--k", spec + ":log"]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("usage error: range spec ")
        # the cap itself is accepted, one more is not
        monkeypatch.setattr(cli, "MAX_AXIS_COUNT", 3)
        assert cli.parse_grid_axis("0:1:3") == (0.0, 0.5, 1.0)
        with pytest.raises(cli.UsageError):
            cli.parse_grid_axis("0:1:4", integer=True)

    def test_count_one_is_the_lower_end(self, capsys):
        assert cli.parse_grid_axis("1:5:1") == (1.0,)
        code, out, _ = run(["verify", "--theorems", "T7", "--x", "1:5:1",
                            "--k", "1", "--n", "2"], capsys)
        assert code == 0
        assert out.splitlines()[2].startswith("T7,1.0,1.0,")
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("spec, message", [
        ("0:5:3:log", "log spacing requires positive endpoints"),
        ("5:1:3", "bad range spec '5:1:3'"),
        ("a:2:3", "bad range spec 'a:2:3'"),
        ("1,a", "bad list spec '1,a'"),
    ])
    def test_bad_range_is_usage_error(self, capsys, spec, message):
        code, out, err = run(["verify", "--theorems", "T7", "--x", spec,
                              "--k", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"


class TestOverflowIsAnEvaluationError:
    """Closed forms beyond the double range raise typed errors (exit 3)
    instead of returning infinities that a report would print."""

    @pytest.mark.parametrize("argv, order", [
        (["--theorems", "T1", "--x", "1e-26", "--k", "1e-23", "--m", "11",
          "--n", "11", "--holder-p", "2"], 11),
        (["--theorems", "T7", "--x", "5e-24", "--k", "1e-23", "--n", "11"], 12),
    ])
    def test_verify(self, capsys, argv, order):
        code, out, err = run(["verify"] + argv, capsys)
        assert code == 3
        assert len(out.splitlines()) == 2  # the header lines only
        assert "inf" not in err and "min slack" not in err
        assert f"evaluation error: {argv[1]}: psi_k^({order})(" in err

    def test_eval_k_polygamma(self, capsys):
        code, out, err = run(["eval", "k_polygamma", "--m", "12", "--x", "5e-24",
                              "--k", "1e-23"], capsys)
        assert (code, out) == (3, "")
        assert err == ("overflow: psi_k^(12)(5e-24; k=1e-23) overflows "
                       "double precision\n")

    def test_eval_k_gamma_deriv_whose_k_power_overflows(self, capsys):
        # k^-8 at k = 1e-40 is beyond the double range, but Gamma_k^(8) is
        # about 3.2e-3469: an underflow is the value 0.0, exit 0.  With
        # p = 1 the derivative itself overflows: exit 3
        code, out, err = run(["eval", "k_gamma_deriv", "--n", "8", "--x", "1e-38",
                              "--k", "1e-40"], capsys)
        assert (code, out, err) == (0, "0.0\n", "")
        code, out, err = run(["eval", "pk_gamma_deriv", "--n", "8", "--x", "1e-38",
                              "--k", "1e-40", "--p", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == ("overflow: pGamma_k^(8) at EvalPoint(x=1e-38, k=1e-40, "
                       "p=1.0) overflows double precision\n")

    def test_verify_t4k_names_the_point_whose_k_power_overflows(self, capsys):
        # T4K at n = 7 reads D^(6..8), and k^-8 overflows, yet each of the
        # three underflows: a row of zeros, exit 0
        code, out, err = run(["verify", "--theorems", "T4K", "--x", "1e-38",
                              "--k", "1e-40", "--n", "7"], capsys)
        assert code == 0
        assert out.splitlines()[2:] == [
            "T4K,1e-38,1e-40,,,7,,,,0.0,0.0,0.0,0.0,PASS"]
        assert err.splitlines() == [
            "T4K: 1 checks, 1 pass, 0 fail, 0 not evaluated, min slack 0.0 at "
            "{'x': 1e-38, 'k': 1e-40, 'n': 7}",
        ]


#: Runs `verify --default-grid` and one `crosscheck` with numpy, scipy and
#: mpmath unimportable, and prints what they returned as JSON.
NO_DEPENDENCIES = """
import contextlib, hashlib, io, json, sys
for name in ("numpy", "scipy", "mpmath"):
    sys.modules[name] = None  # `import name` now raises ImportError
from kgamma import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()

code, text = run(["verify", "--default-grid"])
body = text.split("\\n", 1)[1]
json.dump({
    "verify": [code, hashlib.sha256(body.encode()).hexdigest()],
    "crosscheck": run(sys.argv[1:]),
    "blocked": [name for name in ("mpmath", "numpy", "scipy")
                if name in sys.modules and sys.modules[name] is None],
}, sys.stdout)
"""


class TestNoDependencies:
    CROSSCHECK = ["crosscheck", "--x", "0.7", "--k", "1.3", "--p-param", "2",
                  "--m", "1,2"]

    def test_runs_with_the_standard_library_alone(self, capsys):
        src = os.path.dirname(os.path.dirname(kgamma.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", NO_DEPENDENCIES, *self.CROSSCHECK],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["blocked"] == ["mpmath", "numpy", "scipy"]
        assert result["verify"] == [1, DEFAULT_GRID_SHA256]
        code, out, _ = run(self.CROSSCHECK, capsys)
        assert result["crosscheck"] == [code, out] and code == 0
