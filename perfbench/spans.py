"""In-memory spans around the calls into each httq layer.

`Tracer.install` replaces each layer's public function at the name its
caller binds (for example `httq.validation.simulate`), so the wrapped
call is the one the CLI really makes; `uninstall` puts the originals
back.  A span is (name, start, end, parent, op); the layer is the part
of the name before the first dot.  Observations on a call's result
(event counts, Picard sweeps, correctness checks) run inside a
`trace.observe` span, which the metrics subtract so that they charge
neither the layer nor the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

from httq import maps

LAYERS = ("cli", "validation", "simulator", "scaling", "limits", "maps", "renewal")
# Run only inside simulate/scale, so no caller-bound name reaches them.
UNMEASURED = ("paths", "streams", "distributions", "patience")
OBSERVE = "trace.observe"


def _on_simulate(tr, record, args, kwargs):
    tr.count("events", record.event_times.size)
    tr.count("customers", record.customers)
    gap = record.balance_gap()
    if gap != 0.0:
        tr.problems.append(f"balance_gap {gap!r} in replication {record.replication}")


def _on_paths(key):
    def observe(tr, paths, args, kwargs):
        tr.count(key, paths.shape[0])
    return observe


def _on_phi_mg(tr, sol, args, kwargs):
    tr.count("phi_Mg_solves", 1)
    tr.count("phi_Mg_iterations", sol.iterations)
    tr.closure = max(tr.closure, sol.residual)
    bound = inspect.signature(maps.solve_phi_Mg).bind(*args, **kwargs)
    bound.apply_defaults()
    if not sol.residual < 10.0 * bound.arguments["tol"]:
        tr.problems.append(f"phi_Mg closure {sol.residual!r} >= 10 * tol")


def _on_renewal(tr, table, args, kwargs):
    tr.count("table_points", table.times.size)


def _on_cholesky(tr, result, args, kwargs):
    tr.jitter = max(tr.jitter, result[1])


def _on_covariance(tr, result, args, kwargs):
    tr.count("covariance_builds", 1)


# (module or module:class, attribute, span name, observer)
WRAPS = (
    ("httq.cli", "convergence_sweep", "validation.convergence_sweep", None),
    ("httq.cli", "compute_renewal_function", "renewal.compute_renewal_function", _on_renewal),
    ("httq.cli", "sample_noise", "limits.sample_noise", None),
    ("httq.validation", "simulate", "simulator.simulate", _on_simulate),
    ("httq.validation", "scale", "scaling.scale", None),
    ("httq.scaling", "virtual_wait_path", "simulator.virtual_wait_path", None),
    ("httq.validation", "coupling_gap", "validation.gaps", None),
    ("httq.validation", "little_gap", "validation.gaps", None),
    ("httq.validation", "neg_part_sup", "validation.gaps", None),
    ("httq.validation", "ks_two_sample", "validation.ks_two_sample", None),
    ("httq.validation", "compute_renewal_function", "renewal.compute_renewal_function", _on_renewal),
    ("httq.validation", "sample_case_i_paths", "limits.case_i_batch", _on_paths("case_i_paths")),
    ("httq.validation", "sample_case_ii_paths", "limits.case_ii_batch", _on_paths("case_ii_paths")),
    ("httq.limits", "solve_phi_Mg", "maps.solve_phi_Mg", _on_phi_mg),
    ("httq.limits:ServiceCovariance", "__init__", "limits.covariance_build", _on_covariance),
    ("httq.limits:ServiceCovariance", "cholesky", "limits.cholesky", _on_cholesky),
    ("scipy.linalg", "cholesky", "limits.cholesky_factor", None),
)


def _target(where: str):
    module, _, cls = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.problems: list[str] = []
        self.closure = 0.0
        self.jitter = 0.0
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value) -> None:
        self.counters[self.op][key] += float(value)

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                idx = self.open(OBSERVE)
                try:
                    observe(self, result, args, kwargs)
                finally:
                    self.close(idx)
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for where, attr, name, observe in WRAPS:
            target = _target(where)
            fn = getattr(target, attr)
            self._saved.append((target, attr, fn))
            setattr(target, attr, self._wrap(fn, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, fn = self._saved.pop()
            setattr(target, attr, fn)
        self.op = None

    # -- derived metrics ---------------------------------------------------

    def op_times(self) -> dict:
        """Per op: total and self seconds by span name, and seconds by layer."""
        covered = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        ops: dict = defaultdict(lambda: {"total": defaultdict(float),
                                         "self": defaultdict(float),
                                         "busy": defaultdict(float),
                                         "layer_self": defaultdict(float)})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            d = ops[op]
            layer = name.split(".")[0]
            d["total"][name] += end - start
            d["self"][name] += end - start - covered[i]
            d["layer_self"][layer] += end - start - covered[i]
            if parent is None or self.spans[parent][0].split(".")[0] != layer:
                d["busy"][layer] += end - start
        return ops

    def layer_metrics(self, overhead: float) -> dict:
        """The per-layer metrics of BENCHMARK.json, as (value, unit) pairs."""
        ops = self.op_times()
        keys = sorted(ops)
        sums = defaultdict(float)
        for op in keys:
            for key, v in self.counters[op].items():
                sums[key] += v
            for name, v in ops[op]["total"].items():
                sums[name] += v

        def med_total(name):
            return statistics.median(ops[op]["total"][name] for op in keys)

        def med_self(name):
            return statistics.median(ops[op]["self"][name] for op in keys)

        def med_count(key):
            return statistics.median(self.counters[op][key] for op in keys)

        def per(num, den, scale):
            return scale * num / den if den else 0.0

        return {
            "simulator.simulate_s": (med_total("simulator.simulate"), "s"),
            "simulator.events": (med_count("events"), "count"),
            "simulator.customers": (med_count("customers"), "count"),
            "simulator.us_per_event": (
                per(sums["simulator.simulate"], sums["events"], 1e6), "us/event"),
            "scaling.scale_s": (med_total("scaling.scale"), "s"),
            "simulator.virtual_wait_path_s": (med_total("simulator.virtual_wait_path"), "s"),
            "validation.gaps_s": (med_total("validation.gaps"), "s"),
            "validation.ks_two_sample_s": (med_total("validation.ks_two_sample"), "s"),
            "validation.self_s": (med_self("validation.convergence_sweep"), "s"),
            "limits.case_ii_batch_s": (med_total("limits.case_ii_batch"), "s"),
            "limits.case_ii_ms_per_path": (
                per(sums["limits.case_ii_batch"], sums["case_ii_paths"], 1e3), "ms/path"),
            "limits.case_i_ms_per_path": (
                per(sums["limits.case_i_batch"], sums["case_i_paths"], 1e3), "ms/path"),
            "limits.sample_noise_s": (med_total("limits.sample_noise"), "s"),
            "maps.solve_phi_Mg_s": (med_total("maps.solve_phi_Mg"), "s"),
            "maps.phi_Mg_ms_per_path": (
                per(sums["maps.solve_phi_Mg"], sums["phi_Mg_solves"], 1e3), "ms/path"),
            "maps.phi_Mg_iterations": (
                per(sums["phi_Mg_iterations"], sums["phi_Mg_solves"], 1.0), "sweeps/path"),
            "maps.phi_Mg_closure": (self.closure, "sup-norm"),
            "renewal.compute_renewal_function_s": (
                med_total("renewal.compute_renewal_function"), "s"),
            "renewal.table_points": (med_count("table_points"), "count"),
            "limits.covariance_builds": (sums["covariance_builds"], "count"),
            "limits.covariance_build_s": (sums["limits.covariance_build"], "s"),
            "limits.cholesky_s": (sums["limits.cholesky_factor"], "s"),
            "limits.cholesky_jitter": (self.jitter, "diag-shift"),
            "cli.self_s": (med_self("cli.main"), "s"),
            "trace.overhead": (overhead, "ratio"),
        }

    def layer_table(self) -> dict:
        """Median busy and self seconds per op of every measured layer."""
        ops = self.op_times()
        return {layer: {kind: statistics.median(ops[op][key][layer] for op in ops)
                        for kind, key in (("busy_s", "busy"), ("self_s", "layer_self"))}
                for layer in LAYERS}

    def observe_seconds(self, op: int) -> float:
        return sum(end - start for name, start, end, _, o in self.spans
                   if o == op and name == OBSERVE)

