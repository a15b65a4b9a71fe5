"""Span tracer for the benchmark's traced pass.

The tracer wraps every public function of the fracspace layer modules from
outside the package: the wrapper replaces the function on its own module and
on every fracspace module that imported the name, so calls through either
path are recorded.  ``uninstall`` puts every original back.

Each call records one span ``(name, start, end, parent, n)``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``n`` the grid size of
the first argument that carries a grid (0 if none).  Spans stay in memory
and are summarised after the pass.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so
children never overlap and the self times of all spans add up to the
duration of the top-level spans.

The private ``_fd`` module is not wrapped; its time folds into its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import workloads

PACKAGE = "fracspace"

LAYERS = ("grid", "fourier", "kernels", "singular", "halfline", "opcalc",
          "harness", "cli")

#: Functions reported one by one; every other public function still counts
#: towards its layer's totals.
LISTED = {
    "opcalc": ("fractional_power", "riemann_liouville", "resolvent",
               "sectoriality_probe", "domain_norm_ratio"),
    "singular": ("fractional_laplacian_singular", "c_sigma"),
    "fourier": ("apply_multiplier", "hsp_norm"),
    "kernels": ("bessel_kernel", "hardy_hilbert_apply", "schur_constant"),
    "halfline": ("reflect_extend", "reflect_extend_dual", "trace", "project_H0"),
    "grid": ("weighted_lp_norm",),
    "harness": ("generate_test_family", "run_suite"),
    "cli": ("main",),
}

#: Functions whose mean inclusive time per call is reported at each grid
#: size the workloads call them with.
PER_CALL_SIZES = {
    "opcalc.fractional_power": tuple(sorted({workloads.FP_N, *workloads.BAND_NS})),
    "singular.fractional_laplacian_singular": workloads.LAP_NS,
    "opcalc.resolvent": (workloads.ODE_N,),
}

#: Name prefix of the spans the benchmark opens around its own code.
BENCH = "bench"


def _grid_size(args, kwargs) -> int:
    for a in (*args, *kwargs.values()):
        grid = getattr(a, "grid", None)
        if grid is not None:
            return grid.n_points
    return 0


class Tracer:
    """Records spans around the public functions of the fracspace layers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, _grid_size(args, kwargs))

        wrapper.__traced__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every layer first: a module imported after patching would
        # bind wrappers that uninstall does not know about
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        package_modules = [m for k, m in list(sys.modules.items())
                           if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in package_modules:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, bound, fn))
                            setattr(holder, bound, wrapper)

    def uninstall(self) -> None:
        """Restore every original function the tracer replaced."""
        while self._patches:
            holder, bound, fn = self._patches.pop()
            setattr(holder, bound, fn)

    def remaining_wrappers(self) -> list[str]:
        """``module.attr`` of every fracspace binding that is still a wrapper."""
        left = []
        for key, module in list(sys.modules.items()):
            if module is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__traced__", False):
                    left.append(f"{key}.{attr}")
        return left

    @contextmanager
    def span(self, name: str):
        """Open a span around benchmark code (named ``bench.<name>``)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (f"{BENCH}.{name}", start, end, parent, 0)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: self seconds, calls, and inclusive seconds by grid size."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, n) in enumerate(self.spans):
            rec = out.setdefault(name, {"self_s": 0.0, "calls": 0, "by_n": {}})
            rec["self_s"] += (end - start) - child[i]
            rec["calls"] += 1
            total, calls = rec["by_n"].get(n, (0.0, 0))
            rec["by_n"][n] = (total + (end - start), calls + 1)
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metric values; functions never called report 0."""
        per_name = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            recs = [r for name, r in per_name.items() if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(r["self_s"] for r in recs)
            out[f"{layer}.calls"] = sum(r["calls"] for r in recs)
            for fn in LISTED[layer]:
                rec = per_name.get(f"{layer}.{fn}", {"self_s": 0.0, "calls": 0})
                out[f"{layer}.{fn}.self_s"] = rec["self_s"]
                out[f"{layer}.{fn}.calls"] = rec["calls"]
        out[f"{BENCH}.self_s"] = sum(r["self_s"] for name, r in per_name.items()
                                     if name.split(".", 1)[0] == BENCH)
        for name, sizes in PER_CALL_SIZES.items():
            by_n = per_name.get(name, {"by_n": {}})["by_n"]
            for n in sizes:
                total, calls = by_n.get(n, (0.0, 0))
                out[f"{name}.ms_per_call.n{n}"] = 1e3 * total / calls if calls else 0.0
        return out


def metric_names() -> list[str]:
    """Names of every metric ``Tracer.metrics`` returns, in order."""
    return list(Tracer().metrics())
