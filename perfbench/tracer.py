"""Per-layer tracing by wrapping kgamma's public functions in place.

Every call into and within kgamma goes through a module attribute
(`kernels.hurwitz_zeta`, `fn.k_gamma`, `harness.scan_grid`, ...), so
replacing those attributes with timing wrappers sees every call.  A
`verify` operation makes about 10^5 kernel calls, so spans are not kept one
by one: each call adds its duration to the aggregate of its (function,
parent) pair, and a layer's self time is its total minus the total of the
spans it is the parent of.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

#: layer -> (module attribute of the program namespace, public functions)
LAYERS = {
    "kernels": ("kernels", (
        "log_gamma", "polygamma", "hurwitz_zeta", "riemann_zeta",
        "gamma_deriv_sequence",
    )),
    "functions": ("functions", (
        "k_gamma", "pk_gamma", "k_polygamma", "k_polygamma_magnitude_fractional",
        "k_zeta", "pk_zeta", "k_gamma_deriv", "pk_gamma_deriv",
    )),
    "harness": ("harness", (
        "check_holder_polygamma", "check_holder_zeta", "check_turan_gamma_deriv",
        "check_midpoint_gamma_deriv", "check_midpoint_polygamma", "scan_grid",
    )),
    "oracle": ("oracle", (
        "integrate_k_gamma", "integrate_pk_gamma", "integrate_k_polygamma",
        "integrate_bose", "integrate_k_gamma_deriv",
    )),
    "cli": ("cli", ("main", "crosscheck_families")),
}

#: functions whose distinct arguments are counted: the key a cache would use
DISTINCT_ARGS = {
    "kernels.gamma_deriv_sequence": lambda args: args[1],
    "kernels.hurwitz_zeta": lambda args: (args[0], args[1]),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, (_, functions) in LAYERS.items():
        for func in functions:
            span = f"{layer}.{func}"
            names += [f"{span}.calls", f"{span}.self_ms"]
            if span in DISTINCT_ARGS:
                names.append(f"{span}.distinct_args")
            if layer == "oracle":
                names += [f"{span}.panels", f"{span}.nonconverged"]
    names += ["harness.scan_grid.errors", "oracle.panels_max", "cli.main.report_bytes"]
    return names


class Tracer:
    """Installs wrappers on a loaded program and aggregates their spans."""

    def __init__(self) -> None:
        self.calls: dict[tuple, int] = defaultdict(int)
        self.seconds: dict[tuple, float] = defaultdict(float)
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[str | None] = [None]
        self._installed: list[tuple] = []

    def install(self, program) -> None:
        for layer, (module_name, functions) in LAYERS.items():
            module = getattr(program, module_name)
            for func in functions:
                original = getattr(module, func)
                setattr(module, func, self._wrap(f"{layer}.{func}", original))
                self._installed.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._installed):
            setattr(module, func, original)
        self._installed.clear()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def _wrap(self, span: str, original):
        stack = self._stack
        calls, seconds = self.calls, self.seconds
        distinct_key = DISTINCT_ARGS.get(span)
        distinct = self.distinct.get(span)
        on_result = self._result_hook(span)

        def wrapper(*args, **kwargs):
            key = (span, stack[-1])
            stack.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start
                calls[key] += 1
                stack.pop()
            if distinct is not None:
                distinct.add(distinct_key(args))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _result_hook(self, span: str):
        counters = self.counters
        if span == "harness.scan_grid":
            def hook(result):
                counters["harness.scan_grid.errors"] += len(result[1].errors)
            return hook
        if span.startswith("oracle."):
            def hook(result):
                counters[f"{span}.panels"] += result.subdivisions_used
                counters[f"{span}.nonconverged"] += not result.converged
                counters["oracle.panels_max"] = max(
                    counters["oracle.panels_max"], result.subdivisions_used
                )
            return hook
        return None

    def metrics(self, time_factor: float) -> dict[str, float]:
        """Per-layer metrics; times are scaled by `time_factor`."""
        total_calls: dict[str, int] = defaultdict(int)
        self_seconds: dict[str, float] = defaultdict(float)
        for (span, parent), secs in self.seconds.items():
            total_calls[span] += self.calls[(span, parent)]
            self_seconds[span] += secs
            if parent is not None:
                self_seconds[parent] -= secs
        out = {}
        for name in metric_names():
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = total_calls[span]
            elif field == "self_ms":
                out[name] = self_seconds[span] * 1e3 * time_factor
            elif field == "distinct_args":
                out[name] = len(self.distinct[span])
            else:
                out[name] = self.counters[name]
        return out

    def spans(self) -> list[dict]:
        """The aggregated (function, parent) table, for the trace file."""
        return [
            {"name": span, "parent": parent, "calls": self.calls[(span, parent)],
             "seconds": secs}
            for (span, parent), secs in sorted(
                self.seconds.items(), key=lambda item: (item[0][0], str(item[0][1]))
            )
        ]
