"""Per-layer tracing from outside the package.

Every public function of every `tplab` module is wrapped by rebinding it in
each `tplab` module namespace that holds it: `from .energy import
carre_table` copies the binding into `bounds`, so rebinding only
`energy.carre_table` would miss the calls made from `bounds`.  Classes are
left alone, because wrapping `FiniteChain` would break the `isinstance`
checks in `cli.build_model`.

Each wrapped call is a span.  Spans nest through a per-thread stack, so a
function's self time is its inclusive time minus the time of the spans it
caused on the same thread.  Spans on Monte Carlo worker threads have no
parent; their time is not subtracted from the caller's self time.  A
recursive call adds to the call count but not again to inclusive time.
Totals are kept in memory, not individual spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# Layer functions reported by the benchmark, as "<module>.<function>".
REPORTED = (
    "cli.run_experiment",
    "cli.build_model",
    "cli.build_fields",
    "models.product_chain",
    "energy.carre_table",
    "energy.bivariate_symmetrized",
    "energy.dirichlet_form",
    "energy.matrix_variance",
    "energy.energy_report",
    "energy.variance_proxy",
    "energy.chaos_gamma_batch",
    "poincare.poincare_constant",
    "poincare.equivalence_probe",
    "bounds.check_chain_rule",
    "bounds.check_exp_moment",
    "bounds.check_tail_empirical",
    "bounds.check_poly_moment",
    "bounds.check_intdim_variant",
    "bounds.check_subadditivity",
    "bounds.check_bivariate_poincare",
    "bounds.check_mean_value_trace",
    "bounds.check_chaos_matrix",
    "bounds.check_chaos_scalar",
    "montecarlo.estimate_statistic",
    "montecarlo.estimate_trace_moment",
    "montecarlo.estimate_tail",
    "montecarlo.draw_standard_normal",
    "spectral.eigh",
    "spectral.op_norm",
    "reports.rows_to_csv",
    "reports.rows_to_json",
)


def _carre_pairs(a):
    return "energy.carre_table.state_pairs", a["chain"].n_states ** 2 * a["f"].dim ** 3


def _dense_bytes(a):
    n = a["base"].n_states ** a["n"] if a["n"] > 1 else 0
    return "models.product_chain.dense_bytes", 8 * n * n


def _eig_n3(a):
    return "poincare.poincare_constant.eig_n3", a["chain"].n_states ** 3


def _samples(a):
    return "montecarlo.samples", a["spec"].n


# Work counts computed from the arguments of a call; they repeat exactly.
ARG_COUNTERS = {
    "energy.carre_table": _carre_pairs,
    "models.product_chain": _dense_bytes,
    "poincare.poincare_constant": _eig_n3,
    "montecarlo.estimate_statistic": _samples,
    "montecarlo.estimate_tail": _samples,
}

# Work counts computed from the result of a call.
RESULT_COUNTERS = {
    "reports.rows_to_csv": lambda text: ("reports.rows_to_csv.bytes", len(text.encode())),
    "reports.rows_to_json": lambda text: ("reports.rows_to_json.bytes", len(text.encode())),
}

COUNTERS = (
    ("energy.carre_table.state_pairs", "count"),
    ("models.product_chain.dense_bytes", "bytes"),
    ("poincare.poincare_constant.eig_n3", "count"),
    ("montecarlo.samples", "count"),
    ("reports.rows_to_csv.bytes", "bytes"),
    ("reports.rows_to_json.bytes", "bytes"),
)


class Tracer:
    """Accumulates inclusive time, self time and calls per wrapped function,
    plus the work counters above."""

    def __init__(self):
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
        return local

    def _add(self, table, key, value):
        table[key] = table.get(key, 0) + value

    def wrap(self, name: str, fn):
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        signature = inspect.signature(fn) if arg_counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            outermost = local.active.get(name, 0) == 0
            local.active[name] = local.active.get(name, 0) + 1
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                local.active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self._add(self.calls, name, 1)
                    self._add(self.self_time, name, elapsed - child[0])
                    if outermost:
                        self._add(self.inclusive, name, elapsed)
            extra = []
            if arg_counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra.append(arg_counter(bound.arguments))
            if result_counter:
                extra.append(result_counter(result))
            if extra:
                with self._lock:
                    for key, value in extra:
                        self._add(self.counts, key, value)
            return result

        return traced

    def install(self, package: str = "tplab"):
        """Wrap every public function of the package; returns the undo list
        for `uninstall`."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrappers = {}
        undo = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if obj not in wrappers:
                    key = obj.__module__[len(package) + 1:] + "." + obj.__name__
                    wrappers[obj] = self.wrap(key, obj)
                setattr(module, attr, wrappers[obj])
                undo.append((module, attr, obj))
        return undo

    @staticmethod
    def uninstall(undo):
        for module, attr, obj in undo:
            setattr(module, attr, obj)

    def per_run(self, runs: int) -> dict:
        """Per-layer metrics averaged over `runs` traced experiments."""
        out = {}
        for name in REPORTED:
            out[f"{name}.s"] = (self.inclusive.get(name, 0.0) / runs, "s")
            out[f"{name}.self_s"] = (self.self_time.get(name, 0.0) / runs, "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0) / runs, "count")
        for key, unit in COUNTERS:
            out[key] = (self.counts.get(key, 0) / runs, unit)
        return out
