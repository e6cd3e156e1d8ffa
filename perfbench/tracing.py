"""Per-layer spans for toriq, patched in from the benchmark's side.

``Tracer.install`` replaces each traced public function, in every module
namespace that holds it (``from .fans import walls`` copies the name into
the importing module), with a wrapper that records one span per call:
function, parent span, start and end.  Spans stay in flat in-memory arrays
until ``write_spans``.  Call counts, total time (outermost calls only) and
self time (duration minus the time covered by child spans) are summed as
the spans close.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from math import comb
from time import perf_counter

LAYERS = {
    "linalg": ("solve_linear", "matrix_rank", "det", "kernel_basis", "smith_normal_form",
               "lp_min", "lp_standard", "nonneg_solve", "hull_facets"),
    "fans": ("validate", "walls", "primitive_collections", "fan_from_primitive_data",
             "face_fan", "star_quotient"),
    "polytopes": ("vertices", "remove_redundant", "adjoint", "effective_threshold",
                  "nef_threshold_tracking", "normal_fan", "core_and_projection",
                  "cayley_mori_detect"),
    "intersection": ("ch2_dot_surface", "curve_number", "wall_curve_number", "is_fano",
                     "is_2fano", "is_ample", "nef_threshold"),
    "mmp": ("run_mmp_scaling", "contract", "flip", "mori_fiber_data"),
    "fano_table": ("verify_row", "reconstruct_fan"),
    "formats": ("emit_report",),
}
CACHED = (("fans", "validate"), ("fans", "walls"), ("fans", "primitive_collections"),
          ("polytopes", "vertices"))
# A leaf: its total time equals its self time, so only self_s is reported
# (this keeps the per-layer set at 128 metrics with the tracing overhead).
NO_TOTAL = {"formats.emit_report"}


def toriq_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "toriq" or name.startswith("toriq.")]


def lru_caches() -> dict[str, object]:
    """Every functools cache in the loaded toriq modules, by qualified name."""
    found = {}
    for mod in toriq_modules():
        for val in vars(mod).values():
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                found.setdefault(f"{val.__module__}.{val.__qualname__}", val)
    return found


class CacheCounter:
    """Hit and miss counts of the cached layers, kept across cache clears."""

    def __init__(self):
        self.funcs = {
            f"{mod}.{name}": getattr(importlib.import_module(f"toriq.{mod}"), name)
            for mod, name in CACHED
        }
        self.totals = {key: [0, 0] for key in self.funcs}

    def collect(self):
        """Add the counts since the last clear; call before each clear."""
        for key, fn in self.funcs.items():
            info = fn.cache_info()
            self.totals[key][0] += info.hits
            self.totals[key][1] += info.misses

    def metrics(self) -> dict:
        out = {}
        for key, (hits, misses) in self.totals.items():
            out[f"{key}.cache_hits"] = hits
            out[f"{key}.cache_misses"] = misses
        return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.depth: list[int] = []
        self.stack: list[list] = []          # open spans: [span id, child time]
        self.vertices_tried = 0
        self.vertices_found = 0
        self.facets_tested = 0
        self.facets_removed = 0

    def install(self):
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"toriq.{layer}")
            for name in names:
                orig = getattr(mod, name)
                fn = orig
                if (layer, name) == ("polytopes", "vertices"):
                    fn = self._observe_vertices(orig)
                elif (layer, name) == ("polytopes", "remove_redundant"):
                    fn = self._observe_remove_redundant(orig)
                wrapper = self._wrap(f"{layer}.{name}", fn)
                self._patch(orig, wrapper)

    @staticmethod
    def _patch(orig, wrapper):
        for mod in toriq_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.depth.append(0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, calls, total, self_time, depth = (
            self.stack, self.calls, self.total, self.self_time, self.depth)

        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(idx)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            depth[idx] += 1
            span_end.append(0.0)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_end[sid] = t1
                d = t1 - t0
                calls[idx] += 1
                self_time[idx] += d - frame[1]
                depth[idx] -= 1
                if depth[idx] == 0:
                    total[idx] += d
                if stack:
                    stack[-1][1] += d

        return wrapper

    def _observe_vertices(self, fn):
        info = fn.cache_info

        def observed(P, *args, **kwargs):
            misses = info().misses
            vs = fn(P, *args, **kwargs)
            if info().misses != misses:
                self.vertices_tried += comb(P.nfacets, P.dim)
                self.vertices_found += len(vs.vertices)
            return vs

        return observed

    def _observe_remove_redundant(self, fn):
        def observed(P):
            result = fn(P)
            self.facets_tested += P.nfacets
            self.facets_removed += len(result[1])
            return result

        return observed

    def metrics(self) -> dict:
        out = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_time[i]
            if name not in NO_TOTAL:
                out[f"{name}.total_s"] = self.total[i]
            layer_self[name.split(".")[0]] += self.self_time[i]
        for layer, t in layer_self.items():
            out[f"{layer}.self_s"] = t
        out["polytopes.vertices.yield"] = (
            self.vertices_found / self.vertices_tried if self.vertices_tried else 0.0)
        out["polytopes.remove_redundant.yield"] = (
            self.facets_removed / self.facets_tested if self.facets_tested else 0.0)
        return out

    def write_spans(self, path, t_origin: float) -> int:
        """One tab-separated line per span: id, parent id (-1 at the top),
        function, start and end in seconds from ``t_origin``."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("id\tparent\tfunction\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - t_origin:.7f}\t"
                         f"{self.span_end[sid] - t_origin:.7f}\n")
        return len(self.span_start)
