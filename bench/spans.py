"""Span tracer for the qminority package, installed from outside it.

``Tracer.install`` replaces every public function of the five package
modules with a wrapper that records one span per call: name, start, end,
parent span and trace id (the index of the CLI invocation it belongs to).
Every cross-module call in the package goes through a module attribute
(``channels.build_channel(...)``, ``linalg.apply_kraus(...)``), and calls
inside a module look the name up in the same namespace, so replacing the
attribute catches both. Nothing inside ``src/`` is edited.

Spans are kept in flat arrays while the pass runs, so a million spans cost
about 24 MB, and are summarised and written out only after it ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "formulas", "game", "channels", "linalg")

# Functions that get their own calls / self_s / errors metrics. Every other
# public function is still wrapped; its time counts in its layer's self_s.
CATALOGUE = (
    "cli.main", "cli.cmd_sweep", "cli.cmd_validate", "cli.cmd_compare",
    "cli.cmd_best_response",
    "formulas.compare", "formulas.formula_payoff",
    "game.run_game", "game.payoff_curve", "game.best_response_search",
    "game.strategy_unitary", "game.entangler",
    "channels.build_channel", "channels.pauli_memory_kraus",
    "channels.ad_uncorrelated_kraus",
    "linalg.apply_kraus", "linalg.conjugate", "linalg.validate_density",
    "linalg.tensor", "linalg.pauli", "linalg.completeness_residual",
)

COMPLEX_BYTES = 16


def _layer_metric_units() -> dict:
    units = {}
    for name in CATALOGUE:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units.update({
        "channels.build_channel.total_s": "s",
        "channels.build_channel.hits": "count",
        "channels.build_channel.misses": "count",
        "channels.build_channel.hit_ratio": "ratio",
        "channels.kraus_ops_built": "count",
        "linalg.apply_kraus.ops": "count",
        "linalg.apply_kraus.flops_computed": "flop",
        "linalg.apply_kraus.bytes_computed": "B",
    })
    for parent in ("channels", "game"):
        units[f"linalg.tensor.in_{parent}.calls"] = "count"
        units[f"linalg.tensor.in_{parent}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.output_bytes": "B",
        "trace.spans": "count",
        "trace.self_coverage": "ratio",
        "trace_overhead_ratio": "ratio",
    })
    return units


# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = _layer_metric_units()


class Tracer:
    """Records spans around the public functions of the package modules."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trace = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[str, int] = {}
        self.counts = dict.fromkeys(
            ("kraus_ops_built", "apply_kraus_ops", "apply_kraus_flops",
             "apply_kraus_bytes"), 0)
        self.trace_id = [-1]
        self._stack = [-1]
        self._originals: list[tuple] = []
        self._cache_owner = None

    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                target = obj
                if name == "channels.build_channel":
                    self._cache_owner = obj
                    target = self._count_built(obj)
                elif name == "linalg.apply_kraus":
                    target = self._count_applied(obj)
                self._originals.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, target))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.errors[name] = 0
        stack, trace_id, errors = self._stack, self.trace_id, self.errors
        names, parents, traces = self.span_name, self.span_parent, self.span_trace
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            traces.append(trace_id[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _count_built(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["kraus_ops_built"] += len(result)
            return result

        return counted

    def _count_applied(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(rho, kraus, *args, **kwargs):
            ops, dim = len(kraus), rho.shape[0]
            counts["apply_kraus_ops"] += ops
            # A_k rho for every k, then the contraction against A_k*: two
            # K x d^3 complex multiply-add passes over a K x d x d stack
            counts["apply_kraus_flops"] += 2 * ops * dim ** 3
            counts["apply_kraus_bytes"] += ops * dim * dim * COMPLEX_BYTES
            return fn(rho, kraus, *args, **kwargs)

        return counted

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "trace": np.frombuffer(self.span_trace, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Spans as one .npz: per-span arrays plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, run_s: float, output_bytes: int) -> dict:
        """Per-layer metrics of the pass; ``run_s`` is its traced wall time."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total_s = np.bincount(name, weights=duration, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        index = {n: i for i, n in enumerate(self.names)}

        metrics = {}
        for fn in CATALOGUE:
            i = index.get(fn)
            metrics[f"{fn}.calls"] = int(calls[i]) if i is not None else 0
            metrics[f"{fn}.self_s"] = float(self_s[i]) if i is not None else 0.0
            metrics[f"{fn}.errors"] = self.errors.get(fn, 0)

        build = index.get("channels.build_channel")
        build_calls = int(calls[build]) if build is not None else 0
        info = getattr(self._cache_owner, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, build_calls)
        metrics["channels.build_channel.total_s"] = (
            float(total_s[build]) if build is not None else 0.0)
        metrics["channels.build_channel.hits"] = hits
        metrics["channels.build_channel.misses"] = misses
        metrics["channels.build_channel.hit_ratio"] = (
            hits / build_calls if build_calls else 0.0)
        metrics["channels.kraus_ops_built"] = self.counts["kraus_ops_built"]
        metrics["linalg.apply_kraus.ops"] = self.counts["apply_kraus_ops"]
        metrics["linalg.apply_kraus.flops_computed"] = self.counts["apply_kraus_flops"]
        metrics["linalg.apply_kraus.bytes_computed"] = self.counts["apply_kraus_bytes"]

        layer_of = np.array([n.split(".")[0] for n in self.names] + ["none"])
        parent_layer = layer_of[np.where(has_parent, name[np.maximum(parent, 0)], -1)]
        tensor = index.get("linalg.tensor", -2)
        for layer in ("channels", "game"):
            mask = (name == tensor) & (parent_layer == layer)
            metrics[f"linalg.tensor.in_{layer}.calls"] = int(mask.sum())
            metrics[f"linalg.tensor.in_{layer}.self_s"] = float(self_time[mask].sum())

        span_layer = layer_of[name]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
        metrics["cli.output_bytes"] = output_bytes
        metrics["trace.spans"] = int(len(duration))
        metrics["trace.self_coverage"] = float(self_time.sum()) / run_s
        return metrics
