"""Command-line interface: point evaluation, verification sweeps, crosschecks.

Exit codes: 0 success, 1 mathematical FAIL, 2 usage error, 3 domain error,
4 I/O error.  Code 1 also means that an oracle value was not certified:
`eval oracle_*` on a result that did not converge, and `crosscheck` when a
family is EXCEEDS (a converged oracle value disagrees by more than
--threshold) or UNCERTIFIED (some oracle value did not converge).
`verify` exits 1 if any check is FAIL, and `crosscheck` if any family is
not ok; otherwise 3 if any grid point failed to evaluate (an `evaluation
error` line on stderr); otherwise 0.
`verify` prints one summary line per selected theorem to stderr: its checks,
its PASS and FAIL counts, its points not evaluated and, if it has rows, its
least slack (a NaN first) `at` that row's input columns that are not empty.
An `eval` function takes exactly its flags; argparse refuses any other
(exit 2): --p where the function takes no p, and --rel-tol, the quadrature
tolerance of the oracle_* functions, for a closed form, accurate to one
fixed 2^-56 Hurwitz truncation.  `verify --default-grid` takes no grid
axis flag (exit 2), and `crosscheck` compares the derivative orders 0..4
of its grid unless --n gives others.  A flag is never abbreviated (`--p` is
not --p-param), an order axis takes exact integers, a range axis at most
`MAX_AXIS_COUNT` values, and a `verify` or `crosscheck` grid at most
`MAX_GRID_POINTS` points, the product of the lengths of the axes the
command takes: else exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import sys
import time

from . import __version__, harness, kernels, oracle
from . import functions as fn
from .policy import ABS_TOL, ORACLE_POLICY, AccuracyPolicy, DomainError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

#: The report's columns: the fields of a check record, in order.
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(harness.InequalityCheck))

# a check record's column values, as a tuple in column order
_row = operator.attrgetter(*CSV_COLUMNS)


class UsageError(Exception):
    pass


#: The most values a `min:max:count` axis may ask for.  A count is refused
#: before any value is built, so a mistyped one is a usage error and not a
#: run that exhausts memory.  No documented grid has more than 40 values on
#: an axis.
MAX_AXIS_COUNT = 10**6

#: The most points a `verify` or `crosscheck` grid may have: the product of
#: the lengths of the axes the command takes, defaults included (the 40 x 20
#: `verify` grid has 307,200).  A grid past it is refused before it is built.
MAX_GRID_POINTS = 10**7


def _fmt(value) -> str:
    # shortest round-trip representation: diff-able regression files
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_grid_axis(text: str, integer: bool = False) -> tuple:
    """Parse a grid axis: either 'v1,v2,v3' or 'min:max:count[:log]'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise UsageError(f"bad range spec {text!r}; want min:max:count[:log]")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad range spec {text!r}") from exc
        if count < 1 or hi < lo:
            raise UsageError(f"bad range spec {text!r}")
        if count > MAX_AXIS_COUNT:
            raise UsageError(f"range spec {text!r} asks for {count} values; "
                             f"an axis takes at most {MAX_AXIS_COUNT}")
        if count == 1:
            values = [lo]
        elif len(parts) == 4:
            if lo <= 0:
                raise UsageError("log spacing requires positive endpoints")
            ratio = (hi / lo) ** (1.0 / (count - 1))
            values = [lo * ratio**i for i in range(count)]
        else:
            step = (hi - lo) / (count - 1)
            values = [lo + step * i for i in range(count)]
    else:
        try:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad list spec {text!r}") from exc
        if not values:
            raise UsageError(f"empty grid axis {text!r}")
    if integer:
        for v in values:
            if not v.is_integer():  # nor nan or inf
                raise UsageError(f"axis requires integers, got {v}")
        return tuple(map(int, values))
    return tuple(values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: parsing does not change the parser
    parser = argparse.ArgumentParser(
        prog="kgamma", allow_abbrev=False,
        description="Generalized gamma/polygamma/zeta functions and "
                    "inequality verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    about = ("evaluate one function at one point; only oracle_* take --rel-tol, "
             "as a closed form has one fixed 2^-56 accuracy")
    p_eval = sub.add_parser("eval", help=about, description=about, allow_abbrev=False)
    functions = p_eval.add_subparsers(dest="function", required=True)
    for name, (flags, _) in _EVAL.items():
        counterpart = name.replace("k_", "pk_", 1)
        p_function = functions.add_parser(name, allow_abbrev=False, description=(
            f"takes no p; use {counterpart} for the p-k family"
            if counterpart != name and counterpart in _EVAL else None))
        if name.startswith("oracle_"):
            flags += " [rel-tol]"
        for flag in flags.split():
            option = flag.strip("[]")
            p_function.add_argument("--" + option, required=option == flag,
                                    type=int if option in ("m", "n") else float)

    # the grid axes both sweeps take
    axes = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for flag in ("--x", "--k", "--p-param", "--m", "--n"):
        axes.add_argument(flag)

    p_verify = sub.add_parser("verify", parents=[axes], allow_abbrev=False,
                              help="run an inequality sweep")
    p_verify.add_argument("--theorems", default=None,
                          help="comma list from " + ",".join(harness.THEOREM_IDS))
    p_verify.add_argument("--default-grid", action="store_true",
                          help="use the standard verification grid")
    p_verify.add_argument("--l", default=None)
    p_verify.add_argument("--holder-p", default=None)
    p_verify.add_argument("--slack-tol", type=float,
                          default=harness.DEFAULT_SLACK_TOL)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--output", default=None)

    p_cross = sub.add_parser("crosscheck", parents=[axes], allow_abbrev=False,
                             help="closed forms vs the quadrature oracle")
    p_cross.add_argument("--threshold", type=float, default=1e-8)
    return parser


# --------------------------------------------------------------------------
# eval


def _point(args) -> fn.EvalPoint:
    return fn.EvalPoint(args.x, args.k, getattr(args, "p", None))


def _policy(args) -> AccuracyPolicy:
    if args.rel_tol is None:
        return ORACLE_POLICY
    if not 0 < args.rel_tol < math.inf:
        raise UsageError(f"--rel-tol must be finite and positive, got {args.rel_tol!r}")
    return dataclasses.replace(ORACLE_POLICY, rel_tol=args.rel_tol)


#: eval function -> (flags, evaluate), one subcommand each.  It takes exactly
#: these flags, and an oracle_* one --rel-tol too; a bracketed flag may be
#: left out: oracle_k_gamma_deriv takes the p-k family exactly when --p is
#: given.  `evaluate(args)` returns a closed value or a QuadratureResult.
_EVAL = {
    "k_gamma": ("x k", lambda a: fn.k_gamma(_point(a))),
    "pk_gamma": ("x k p", lambda a: fn.pk_gamma(_point(a))),
    "k_polygamma": ("m x k", lambda a: fn.k_polygamma(a.m, _point(a))),
    "k_zeta": ("x k", lambda a: fn.k_zeta(a.x, a.k)),
    "pk_zeta": ("x k p", lambda a: fn.pk_zeta(a.x, a.k, a.p)),
    "k_gamma_deriv": ("n x k", lambda a: fn.k_gamma_deriv(a.n, _point(a))),
    "pk_gamma_deriv": ("n x k p", lambda a: fn.pk_gamma_deriv(a.n, _point(a))),
    "oracle_k_gamma": ("x k", lambda a: oracle.integrate_k_gamma(
        _point(a), _policy(a))),
    "oracle_pk_gamma": ("x k p", lambda a: oracle.integrate_pk_gamma(
        _point(a), _policy(a))),
    "oracle_k_polygamma": ("m x k", lambda a: oracle.integrate_k_polygamma(
        a.m, _point(a), _policy(a))),
    "oracle_bose": ("s k c", lambda a: oracle.integrate_bose(
        a.s, a.k, a.c, _policy(a))),
    "oracle_k_gamma_deriv": ("n x k [p]", lambda a: oracle.integrate_k_gamma_deriv(
        a.n, _point(a), _policy(a))),
}


def cmd_eval(args) -> int:
    result = _EVAL[args.function][1](args)
    if not isinstance(result, oracle.QuadratureResult):
        print(_fmt(result))
        return EXIT_OK
    print(f"{_fmt(result.value)} error_estimate={_fmt(result.error_estimate)} "
          f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_FAIL


# --------------------------------------------------------------------------
# verify

#: grid flag (as its argparse dest) -> GridSpec field, in report order
_GRID_AXES = {"x": "xs", "k": "ks", "p_param": "p_params", "m": "ms", "n": "ns",
              "l": "ls", "holder_p": "holder_ps"}


def _grid_from_args(args, base: harness.GridSpec) -> harness.GridSpec:
    """`base` with each axis that a flag gives; --default-grid takes none,
    and a grid takes at most `MAX_GRID_POINTS` points."""
    # the axes this command takes: crosscheck has no --l, --holder-p
    taken = [dest for dest in _GRID_AXES if hasattr(args, dest)]
    given = {dest: text for dest in taken if (text := getattr(args, dest)) is not None}
    if given and getattr(args, "default_grid", False):
        raise UsageError("--default-grid takes no grid axis, got "
                         + ", ".join("--" + dest.replace("_", "-") for dest in given))
    kwargs = {_GRID_AXES[dest]: parse_grid_axis(text, integer=dest in ("m", "n", "l"))
              for dest, text in given.items()}
    points = math.prod(len(kwargs.get(name, getattr(base, name)))
                       for name in map(_GRID_AXES.get, taken))
    if points > MAX_GRID_POINTS:
        raise UsageError(f"the grid has {points} points; a grid takes at most "
                         f"{MAX_GRID_POINTS}")
    try:
        return dataclasses.replace(base, **kwargs)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _run_metadata(args, grid: harness.GridSpec) -> dict:
    return {
        "artifact_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "slack_tol": args.slack_tol,
        "grid": {dest: list(getattr(grid, name)) for dest, name in _GRID_AXES.items()},
    }


def _column_texts(values: list, texts: dict) -> list[str]:
    # One column's printed fields.  Equal keys can print differently, so a
    # value is looked up by key only where that cannot happen: in a column
    # of floats (None aside) each distinct nonzero float is repr'd once into
    # `texts`, which every float column shares, and the zeros are printed
    # one by one (0.0 == -0.0, and T7 writes -d); a column of ints or of
    # strs prints each distinct value once.  A mixed column (2 == 2.0) goes
    # value by value.
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if kinds == {float}:
        distinct = set(values)
        new = distinct.difference(texts)
        new.discard(0.0)  # either zero
        texts.update(zip(new, map(repr, new)))
        if 0.0 in distinct:
            return [texts[value] if value else _fmt(value) for value in values]
        return list(map(texts.__getitem__, values))
    if kinds == {int} or kinds == {str}:
        return list(map({v: _fmt(v) for v in set(values)}.__getitem__, values))
    return list(map(_fmt, values))


def _render_csv(checks, metadata) -> str:
    # Built a column at a time.  No field ever needs quoting: ids and
    # verdicts are fixed tokens, and a repr holds no comma, quote or line
    # break.
    texts: dict = {None: ""}  # float -> repr for every float column; None
    columns = [_column_texts(list(map(column, checks)), texts)
               for column in map(operator.attrgetter, CSV_COLUMNS)]
    # timestamp lives only in this comment line; the body below is
    # byte-identical across runs with the same grid and tolerances
    lines = [f"# kgamma verify {metadata['artifact_version']} "
             f"generated {metadata['timestamp']}", ",".join(CSV_COLUMNS),
             *map(",".join, zip(*columns)), ""]
    return "\n".join(lines)


def _render_json(checks, metadata) -> str:
    # a single array: one run-metadata header object, then one object per record
    payload = [{"run_metadata": metadata}]
    for check in checks:
        payload.append(dict(zip(CSV_COLUMNS, _row(check))))
    return json.dumps(payload, indent=2) + "\n"


def cmd_verify(args) -> int:
    if args.theorems:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    elif args.default_grid:
        theorems = harness.THEOREM_IDS
    else:
        theorems = ()
    if not theorems:
        raise UsageError("no theorems selected; pass --theorems or --default-grid")
    unknown = set(theorems) - set(harness.THEOREM_IDS)
    if unknown:
        raise UsageError(f"unknown theorem ids: {sorted(unknown)}")

    if not 0 <= args.slack_tol < math.inf:
        raise UsageError(
            f"--slack-tol must be finite and non-negative, got {args.slack_tol!r}"
        )
    grid = _grid_from_args(args, harness.GridSpec())
    checks, summary = harness.scan_grid(grid, theorems, args.slack_tol)

    metadata = _run_metadata(args, grid)
    text = (_render_csv if args.format == "csv" else _render_json)(checks, metadata)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)

    for theorem_id, entry in summary.per_theorem.items():
        line = (
            f"{theorem_id}: {entry['count']} checks, {entry['PASS']} pass, "
            f"{entry['FAIL']} fail, {entry['not_evaluated']} not evaluated"
        )
        if entry["count"]:
            line += f", min slack {_fmt(entry['min_slack'])} at {entry['min_slack_at']}"
        print(line, file=sys.stderr)
    for message in summary.errors:
        print(f"evaluation error: {message}", file=sys.stderr)
    if any(entry["FAIL"] for entry in summary.per_theorem.values()):
        return EXIT_FAIL
    return EXIT_DOMAIN if summary.errors else EXIT_OK


# --------------------------------------------------------------------------
# crosscheck


def crosscheck_families(grid: harness.GridSpec) -> tuple[dict, dict, list]:
    """Max relative discrepancy, closed form vs defining integral, per family.

    Returns (certified, uncertified) maxima per family and the errors: the
    oracle runs under `ORACLE_POLICY`, and a value that did not converge
    certifies nothing, so its discrepancy goes to the uncertified maxima.
    A grid point with a comparison that raises adds none of its
    comparisons, and one message, naming the point, to the errors.

    The point picks the family, as in `functions`: each (x, k) and each Bose
    integral is checked without p, the k family, then at each p of the grid.
    Derivatives are compared at the orders `grid.ns`.  An even order D^(n) is
    positive and is the scale of its own discrepancy; an odd order crosses
    zero, so its scale is the Cauchy-Schwarz bound sqrt(D^(n-1) D^(n+1)) on
    |D^(n)|.  The closed-form orders 0 up to the even order at or above the
    largest requested one are read once per point, from one Bell sequence.
    The integrals of order 0, which is the value, and of the requested
    orders are one `oracle.integrate_k_gamma_derivs` call per point and
    family, on one node set.  Both Bose families read one zeta_k(m + 1) per
    (k, m).
    """
    worst: dict[str, float] = {}
    uncertified: dict[str, float] = {}
    errors: list[str] = []
    top = max(n + n % 2 for n in grid.ns)
    quad_orders = sorted({0, *grid.ns})

    def at_point(x, k):
        # (family, closed, quad, scale) per comparison at (x, k) and its p;
        # an order past 8 is one error per point, inside a block or not
        kernels.check_deriv_order(top)
        for p in (None, *grid.p_params):
            pt = fn.EvalPoint(x, k, p)
            family = "k_gamma" if p is None else "pk_gamma"
            closed = fn._gamma_derivatives(tuple(range(top + 1)), pt)
            quad = dict(zip(quad_orders, oracle.integrate_k_gamma_derivs(
                quad_orders, pt, ORACLE_POLICY)))
            yield family, closed[0], quad[0], abs(closed[0])
            if p is None:  # psi_k has no p-k variant
                for m in grid.ms:
                    value = abs(fn.k_polygamma(m, pt))
                    yield ("k_polygamma", value,
                           oracle.integrate_k_polygamma(m, pt, ORACLE_POLICY), value)
            for n in grid.ns:
                scale = (math.sqrt(abs(closed[n - 1])) * math.sqrt(abs(closed[n + 1]))
                         if n % 2 else abs(closed[n]))
                yield family + "_deriv", closed[n], quad[n], scale

    def bose(k, m):
        zeta = fn.k_zeta(m + 1.0, k)  # pzeta_k is zeta_k for every p
        for p in (None, *grid.p_params):
            # the kernel scale c is p or k
            closed = zeta * fn._gamma_value(fn.EvalPoint(m + 1.0, k, p))
            yield ("bose_k_zeta" if p is None else "bose_pk_zeta", closed,
                   oracle.integrate_bose(m, k, k if p is None else p, ORACLE_POLICY),
                   abs(closed))

    points = [(f"x={x!r}, k={k!r}", at_point(x, k)) for x in grid.xs for k in grid.ks]
    points += [(f"Bose m={m}, k={k!r}", bose(k, m))
               for k in grid.ks for m in grid.ms if m - k > -1.0]
    for name, comparisons in points:
        try:
            found = list(comparisons)
        except (ArithmeticError, ValueError) as exc:
            errors.append(f"{name}: {exc}")
            continue
        for family, closed, quad, scale in found:
            rel = abs(quad.value - closed) / max(scale, ABS_TOL)
            table = worst if quad.converged else uncertified
            table[family] = max(table.get(family, 0.0), rel)
    return worst, uncertified, errors


#: The frozen grid every `crosscheck` call copies with its axes: the verify
#: defaults, with the derivative orders 0..4.
_CROSSCHECK_BASE = harness.GridSpec(ns=tuple(range(5)))


def cmd_crosscheck(args) -> int:
    if not 0 < args.threshold < math.inf:
        raise UsageError(
            f"--threshold must be finite and positive, got {args.threshold!r}"
        )
    grid = _grid_from_args(args, _CROSSCHECK_BASE)
    # refused before any integral, as usage errors
    try:
        for n in grid.ns:
            kernels.check_order(n, 0, kernels.GAMMA_DERIV_MAX_ORDER, "--n")
        for m in grid.ms:
            kernels.check_order(m, 1, kernels.POLYGAMMA_MAX_ORDER, "--m")
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    worst, uncertified, errors = crosscheck_families(grid)
    ok = True
    for family in sorted(worst.keys() | uncertified.keys()):
        certified = worst.get(family, 0.0)
        if not certified <= args.threshold:
            status = "EXCEEDS"
        elif family in uncertified:
            status = "UNCERTIFIED"
        else:
            status = "ok"
        value = max(certified, uncertified.get(family, 0.0))
        print(f"{family:16s} max_rel_discrepancy={_fmt(value)} {status}")
        ok = ok and status == "ok"
    for message in errors:
        print(f"evaluation error: {message}", file=sys.stderr)
    if not ok:
        return EXIT_FAIL
    return EXIT_DOMAIN if errors else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_crosscheck(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
