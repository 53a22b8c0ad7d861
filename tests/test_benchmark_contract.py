"""What the benchmark in perfbench/ takes from kgamma, held by tier-1 tests.

perfbench/tracer.py wraps kgamma's public functions by module attribute,
the workloads build `AccuracyPolicy` directly, and a `sweep` operation
fails when `verify` prints `evaluation error` on stderr.  A rename or a new
wording would make every benchmark operation fail, which no other test sees.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

from kgamma import cli, harness
from kgamma import functions as fn
from kgamma.policy import AccuracyPolicy

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # by path: perfbench/ is not a package, and the tracer imports only the
    # standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = load_tracer().LAYERS
    assert layers
    for module_name, functions in layers.values():
        module = importlib.import_module(f"kgamma.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_the_workload_policies_construct():
    # the crosscheck workload builds both by keyword
    AccuracyPolicy()
    AccuracyPolicy(rel_tol=1e-10, max_subdivisions=4000)


def test_closed_forms_take_the_crosscheck_policy_positionally():
    # the crosscheck workload checks fn.k_gamma(pt, AccuracyPolicy()) and
    # fn.pk_gamma(ppt, AccuracyPolicy()): the same bits as without a policy
    for x, k, p in ((0.15, 0.5, 2.0), (1.0, 1.0, 1.0), (7.3, 1.4, 0.6)):
        pt, ppt = fn.EvalPoint(x, k), fn.EvalPoint(x, k, p)
        assert fn.k_gamma(pt, AccuracyPolicy()) == fn.k_gamma(pt)
        assert fn.pk_gamma(ppt, AccuracyPolicy()) == fn.pk_gamma(ppt)


def test_default_grid_stderr_never_says_evaluation_error(capsys):
    assert cli.main(["verify", "--default-grid"]) == 1
    assert "evaluation error" not in capsys.readouterr().err


def test_each_sweep_row_is_the_record_of_one_check_call(monkeypatch):
    # the benchmark's flipped-sign self-test wraps each harness.check_* by
    # module attribute and flips the slack of the record it returns, and the
    # tracer counts those calls: every row must be one such call's record
    records = []
    for name in ("check_holder_polygamma", "check_holder_zeta", "check_turan_gamma_deriv",
                 "check_midpoint_gamma_deriv", "check_midpoint_polygamma"):
        original = getattr(harness, name)

        def flipped(*args, _original=original, **kwargs):
            check = _original(*args, **kwargs)
            records.append(check)
            return dataclasses.replace(check, slack=-check.slack)

        monkeypatch.setattr(harness, name, flipped)
    # the benchmark's sweep grid: 6 x, three k in [0.5, 2) and one in (2, 3]
    spec = harness.GridSpec(xs=(0.6, 1.7, 2.9, 4.4, 7.1, 9.8), ks=(0.7, 1.1, 1.9, 2.5))
    rows, summary = harness.scan_grid(spec, harness.THEOREM_IDS)
    assert len(rows) == len(records) == 1867 and summary.errors == []
    assert [repr(-row.slack) for row in rows] == [repr(r.slack) for r in records]
    monkeypatch.undo()
    plain, _ = harness.scan_grid(spec, harness.THEOREM_IDS)
    assert [repr(row.slack) for row in plain] == [repr(r.slack) for r in records]
