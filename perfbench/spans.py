"""Per-layer spans recorded from outside the program.

Each layer's public functions are wrapped under the names its callers look
up (``gaussian_block`` as ``hoytmimo.montecarlo`` imported it, for
instance), so a call from any module lands in the same span.  A span's
self time is its duration minus the durations of the spans it encloses.
Spans live in memory; ``Tracer.metrics`` sums them when the round ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer) for every name a caller looks a layer up by.
SPAN_TARGETS = (
    ("hoytmimo.cli", "main", "cli"),
    ("hoytmimo.capacity", "ergodic_capacity", "capacity.ergodic_capacity"),
    ("hoytmimo.capacity", "adaptive_gauss_kronrod", "quadrature"),
    ("hoytmimo.validation", "adaptive_gauss_kronrod", "quadrature"),
    ("hoytmimo.capacity", "level_density", "ensemble.level_density"),
    ("hoytmimo.cli", "level_density", "ensemble.level_density"),
    ("hoytmimo.ensemble", "kernel_s", "ensemble.kernel_s"),
    ("hoytmimo.validation", "kernel_s", "ensemble.kernel_s"),
    ("hoytmimo.ensemble", "jpd", "ensemble.jpd"),
    ("hoytmimo.validation", "jpd", "ensemble.jpd"),
    ("hoytmimo.cli", "correlation_fn", "ensemble.correlation_fn"),
    ("hoytmimo.validation", "correlation_fn", "ensemble.correlation_fn"),
    ("hoytmimo.ensemble", "g_tau", "ensemble.g_tau"),
    ("hoytmimo.ensemble", "weighted_laguerre_table", "specfun.laguerre_table"),
    ("hoytmimo.montecarlo", "gaussian_block", "rng.gaussian_block"),
    ("hoytmimo.montecarlo", "hermitian_eigenvalues_batch", "linalg.eigvalsh"),
    ("hoytmimo.linalg", "pfaffian", "linalg.pfaffian"),
    ("hoytmimo.linalg", "pfaffian_signed_log", "linalg.pfaffian"),
    ("hoytmimo.linalg", "determinant", "linalg.determinant"),
    ("hoytmimo.linalg", "determinant_signed_log", "linalg.determinant"),
    ("hoytmimo.cli", "empirical_density", "montecarlo"),
    ("hoytmimo.montecarlo", "empirical_density", "montecarlo"),
    ("hoytmimo.montecarlo", "mc_capacity", "montecarlo"),
    ("hoytmimo.cli", "run_checks", "validation"),
)

# (module, attribute, counter): calls counted without a span of their own.
COUNT_TARGETS = (("hoytmimo.ensemble", "log_gamma", "specfun.log_gamma.calls"),)

SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPAN_TARGETS))
COUNTERS = (
    "capacity.segments",
    "quadrature.integrand_evals",
    "rng.gaussians",
    "linalg.eigvalsh.matrices",
    "specfun.log_gamma.calls",
)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [layer, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def install(self) -> None:
        """Replace every target that exists; record the ones that do not."""
        for module_name, attr, layer in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self._span(layer, getattr(module, attr)))
            else:
                self.missing.append(f"{module_name}.{attr}")
        for module_name, attr, name in COUNT_TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self._counter(name, getattr(module, attr)))
            else:
                self.missing.append(f"{module_name}.{attr}")

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_enter(self, layer: str, args: tuple) -> tuple:
        """Layer-specific counts taken at the call; may wrap an argument.

        The counted arguments are the positional ones today's callers pass.
        """
        if layer == "quadrature" and self._stack and self._stack[-1][0] == "capacity.ergodic_capacity":
            self.counts["capacity.segments"] += 1
        if layer == "quadrature" and args:
            f = args[0]
            counts = self.counts

            def integrand(x):
                counts["quadrature.integrand_evals"] += 1
                return f(x)

            return (integrand,) + args[1:]
        if layer == "rng.gaussian_block" and len(args) > 1:
            self.counts["rng.gaussians"] += int(args[1])
        elif layer == "linalg.eigvalsh" and args:
            shape = getattr(args[0], "shape", ())
            self.counts["linalg.eigvalsh.matrices"] += int(shape[0]) if len(shape) > 2 else 1
        return args

    def _span(self, layer: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                # the same layer re-entered through another of its names
                return fn(*args, **kwargs)
            args = self._on_enter(layer, args)
            self.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def metrics(self, table_cache_entries: int, time_scale: float) -> dict:
        """Counts, and self times multiplied by `time_scale`."""
        out = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer] * time_scale
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["ensemble.table_cache_entries"] = table_cache_entries
        return out


def table_cache_entries() -> int:
    """Entries in the per-point weighted-Laguerre table cache; 0 once it is gone."""
    ensemble = importlib.import_module("hoytmimo.ensemble")
    cached = getattr(ensemble, "_wt_cached", None)
    info = getattr(cached, "cache_info", None)
    return int(info().currsize) if info is not None else 0
