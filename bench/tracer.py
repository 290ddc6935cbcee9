"""Span tracer that wraps rfharvest's public functions from outside.

Each traced function is looked up by its home module and rebound, under
every name that holds the same object, in every ``rfharvest.*`` module
namespace (and the package itself).  A call from one module into
another therefore passes through the span even though it was bound by
``from .x import y`` at import time.  Spans (name, start, end, parent,
failed) stay in memory; :meth:`Tracer.write` dumps them at the end.

A name missing from its module is skipped and reported as absent, so
the benchmark keeps running when a later change deletes a function.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Public functions traced, by home module.  Each can move an end-to-end
# metric; bench/README.md says which, on which workload.
LAYERS = (
    "scheduling.solve",
    "scheduling.find_candidates",
    "scheduling.propagate",
    "scheduling.terminal_residual",
    "scheduling.check_feasibility",
    "simulator.replay",
    "simulator.evaluate_strategy",
    "simulator.generate_scenario",
    "simulator.monte_carlo",
    "simulator.future_impact_probe",
    "simulator.optimal_schedule",
    "charge.harvested_energy",
    "charge.packet_length_for",
    "strategies.predict_next",
    "strategies.online_step",
    "strategies.max_harvest_schedule",
    "strategies.classic_tunnel",
    "strategies.tight_string_schedule",
    "oracle.brute_force_optimize",
    "config.load_config",
    "cli.main",
)

# Layers whose calls can fail, by raising (or, for cli.main, by
# returning a non-zero exit code).
FALLIBLE = (
    "scheduling.solve",
    "simulator.optimal_schedule",
    "simulator.generate_scenario",
    "simulator.monte_carlo",
    "simulator.future_impact_probe",
    "charge.packet_length_for",
    "strategies.classic_tunnel",
    "oracle.brute_force_optimize",
    "config.load_config",
    "cli.main",
)

STRATEGY_NAMES = ("optimal", "max_harvest", "tight_string", "online")


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "rfharvest" or name.startswith("rfharvest."))]


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.layers = LAYERS
        self.spans = []          # (layer index, start, end, parent span, failed)
        self.absent = []
        self.candidates = 0      # SolveReport.candidates_examined, summed
        self.harvest_evals = 0   # residual elements passed to harvested_energy
        self.oracle_tuples = 0   # OracleResult.evaluated, summed
        self.strategy_ms = {name: [] for name in STRATEGY_NAMES}
        self._stack = []
        self._bindings = []      # (module, attribute, original) to restore

    def install(self):
        """Wrap every present layer; returns the names found absent."""
        modules = _package_modules()
        for index, layer in enumerate(self.layers):
            home_name, attr = layer.split(".")
            home = sys.modules.get(f"rfharvest.{home_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(index, layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._bindings.append((module, name, original))
        return list(self.absent)

    def uninstall(self):
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()

    def _wrap(self, index, layer, fn):
        spans, stack = self.spans, self._stack
        observe = self._observer(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                if observe is not None and not failed:
                    failed = observe(args, kwargs, result, end - start)
                spans[span] = (index, start, end, parent, failed)

        return traced

    def _observer(self, layer):
        """Per-layer counter hook; returns True when the call counts as failed."""
        if layer == "scheduling.solve":
            def observe(args, kwargs, result, elapsed):
                self.candidates += getattr(result, "candidates_examined", 0)
                return False
        elif layer == "charge.harvested_energy":
            def observe(args, kwargs, result, elapsed):
                self.harvest_evals += int(np.size(args[0] if args else kwargs["residual"]))
                return False
        elif layer == "oracle.brute_force_optimize":
            def observe(args, kwargs, result, elapsed):
                self.oracle_tuples += int(result.evaluated)
                return False
        elif layer == "simulator.evaluate_strategy":
            def observe(args, kwargs, result, elapsed):
                name = args[0] if args else kwargs["name"]
                if name in self.strategy_ms:
                    self.strategy_ms[name].append(1e3 * elapsed)
                return False
        elif layer == "cli.main":
            def observe(args, kwargs, result, elapsed):
                return result != 0
        else:
            return None
        return observe

    def metrics(self):
        """Per-layer metrics: calls, self time, failures and derived rates."""
        n = len(self.layers)
        calls = np.zeros(n, dtype=np.int64)
        fails = np.zeros(n, dtype=np.int64)
        self_s = np.zeros(n)
        if self.spans:
            layer = np.array([s[0] for s in self.spans])
            duration = np.array([s[2] - s[1] for s in self.spans])
            parent = np.array([s[3] for s in self.spans])
            failed = np.array([s[4] for s in self.spans], dtype=bool)
            child_time = np.zeros(len(self.spans))
            has_parent = parent >= 0
            np.add.at(child_time, parent[has_parent], duration[has_parent])
            calls = np.bincount(layer, minlength=n)
            fails = np.bincount(layer, weights=failed, minlength=n).astype(np.int64)
            self_s = np.bincount(layer, weights=duration - child_time, minlength=n)
            total_s = np.bincount(layer, weights=duration, minlength=n)
        else:
            total_s = np.zeros(n)
        idx = {name: i for i, name in enumerate(self.layers)}

        out = {}
        for i, name in enumerate(self.layers):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            if name in FALLIBLE:
                out[f"{name}.fail"] = (int(fails[i]), "count")

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        solve = idx["scheduling.solve"]
        ok_solves = calls[solve] - fails[solve]
        out["scheduling.solve.candidates_per_call"] = (ratio(self.candidates, ok_solves), "count")
        out["charge.harvested_energy.evals_per_s"] = (
            ratio(self.harvest_evals, self_s[idx["charge.harvested_energy"]]), "1/s")
        out["oracle.brute_force_optimize.tuples_per_s"] = (
            ratio(self.oracle_tuples, total_s[idx["oracle.brute_force_optimize"]]), "1/s")
        generate, tunnel = idx["simulator.generate_scenario"], idx["strategies.classic_tunnel"]
        attempts = sum(1 for s in self.spans
                       if s[0] == tunnel and s[3] >= 0 and self.spans[s[3]][0] == generate)
        out["simulator.generate_scenario.attempts_per_call"] = (ratio(attempts, calls[generate]),
                                                                "count")
        for name, samples in self.strategy_ms.items():
            value = float(np.median(samples)) if samples else 0.0
            out[f"simulator.evaluate_strategy.{name}.p50_ms"] = (value, "ms")
        return out

    def write(self, path):
        """Dump every span as CSV: layer, start, end, parent, failed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,layer,start_s,end_s,parent,failed\n")
            for i, (layer, start, end, parent, failed) in enumerate(self.spans):
                fh.write(f"{i},{self.layers[layer]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{int(failed)}\n")
