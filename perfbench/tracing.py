"""Per-layer tracing for the benchmark's traced run.

Public functions of the package are wrapped in place: the wrapper replaces
the function in its own module and in every package module that imported
it by name, so calls from inside the package are seen too.  Each call
records a span (name, start, end, parent); spans stay in memory and are
written out when the run ends.  The `rings` methods run millions of times,
so they get aggregated counters instead of spans.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from pathlib import Path

import cechmf
from cechmf import cech, forms, hochschild, linalg, rings

# (module, function) pairs that get spans.
SPANNED = (
    ("scene", "scene_from_dict"),
    ("scene", "validate_scene"),
    ("diagrams", "trace_route"),
    ("diagrams", "residue_route"),
    ("trace", "phi"),
    ("trace", "hq_basis"),
    ("trace", "sh_shuffle_cech"),
    ("trace", "supertrace"),
    ("cdg", "build_P"),
    ("cdg", "end_algebra"),
    ("cdg", "can_map"),
    ("cech", "todd_inverse"),
    ("cech", "cech_total_d"),
    ("ses", "cone_delta"),
    ("linalg", "rank_kernel"),
    ("homology", "homology_dims"),
    ("hochschild", "cech_hoch_d"),
    ("hkr", "hkr_xf"),
    ("hkr", "hkr_A"),
    ("hkr", "hkr_y"),
    ("lax", "cech_lax_map"),
    ("lax", "strict_vs_lax_homotopy"),
    ("lax", "iso_homotopy"),
    ("lax", "restriction_htilde"),
)

# (class, method, timed) triples that get counters.
COUNTED = (
    (rings.RingMap, "__call__", True),
    (rings.LocPoly, "__mul__", False),
    (rings.LocPoly, "__add__", False),
)

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = {
    "bench.item.calls": "count",
    "bench.item.busy_s": "s",
    "trace.phi.calls": "count",
    "trace.phi.busy_s": "s",
    "trace.phi.self_s": "s",
    "trace.phi.terms_out": "count",
    "trace.hq_basis.calls": "count",
    "trace.hq_basis.busy_s": "s",
    "trace.hq_basis.terms_out": "count",
    "trace.sh_shuffle_cech.busy_s": "s",
    "trace.sh_shuffle_cech.terms_out": "count",
    "trace.supertrace.busy_s": "s",
    "diagrams.trace_route.busy_s": "s",
    "diagrams.residue_route.busy_s": "s",
    "cdg.build_P.calls": "count",
    "cdg.end_algebra.calls": "count",
    "cdg.end_algebra.busy_s": "s",
    "cdg.can_map.calls": "count",
    "cech.todd_inverse.calls": "count",
    "cech.todd_inverse.busy_s": "s",
    "linalg.rank_kernel.calls": "count",
    "linalg.rank_kernel.busy_s": "s",
    "linalg.rank_kernel.cells": "count",
    "linalg.rank_kernel.distinct_ratio": "ratio",
    "homology.homology_dims.busy_s": "s",
    "homology.homology_dims.self_s": "s",
    "cech.cech_total_d.calls": "count",
    "cech.cech_total_d.busy_s": "s",
    "cech.cech_total_d.self_s": "s",
    "cech.cech_total_d.terms_out": "count",
    "hochschild.cech_hoch_d.calls": "count",
    "hochschild.cech_hoch_d.busy_s": "s",
    "hochschild.cech_hoch_d.terms_out": "count",
    "hkr.hkr_xf.busy_s": "s",
    "hkr.hkr_A.busy_s": "s",
    "hkr.hkr_y.busy_s": "s",
    "lax.cech_lax_map.busy_s": "s",
    "lax.strict_vs_lax_homotopy.busy_s": "s",
    "lax.iso_homotopy.busy_s": "s",
    "lax.restriction_htilde.busy_s": "s",
    "ses.cone_delta.busy_s": "s",
    "rings.RingMap.__call__.calls": "count",
    "rings.RingMap.__call__.busy_s": "s",
    "rings.LocPoly.__mul__.calls": "count",
    "rings.LocPoly.__add__.calls": "count",
    "scene.scene_from_dict.busy_s": "s",
    "scene.validate_scene.busy_s": "s",
}


def _section_terms(s) -> int:
    if isinstance(s, forms.Form):
        return sum(len(c.num.terms) for c in s.terms.values())
    if isinstance(s, forms.LogForm):
        return _section_terms(s.regular) + _section_terms(s.residue)
    if isinstance(s, forms.ConeForm):
        return _section_terms(s.reg) + _section_terms(s.log)
    return 0


def terms_out(x) -> int:
    """Terms in a chain or cochain: basis tensors, or (form index, monomial)."""
    if isinstance(x, hochschild.CechHochChain):
        return sum(len(ch.terms) for ch in x.entries.values())
    if isinstance(x, cech.Cochain):
        return sum(_section_terms(s) for s in x.entries.values())
    return 0


def _matrix_key(m: linalg.QMatrix) -> int:
    return hash((m.rows, m.cols, tuple(tuple(row) for row in m.entries)))


class Tracer:
    """Spans and counters for one traced run; `install` wraps, `uninstall`
    restores the original functions."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.terms: dict = {}  # span name -> sum of terms_out
        self.cells = 0
        self.matrices: set = set()
        self.counters: dict = {}  # "rings.X.m" -> [calls, busy_s, depth]
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span; the benchmark's own root spans use this."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = t0
            self.spans[idx][2] = t1

    def _spanned(self, name: str, fn):
        tracer = self
        is_rank = fn is linalg.rank_kernel

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_rank:
                m = args[0]
                tracer.cells += m.rows * m.cols
                tracer.matrices.add(_matrix_key(m))
            out = tracer.span(name, fn, *args, **kwargs)
            tracer.terms[name] = tracer.terms.get(name, 0) + terms_out(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn, timed: bool):
        slot = self.counters.setdefault(name, [0, 0.0, 0])
        tracer = self

        if not timed:
            def wrapper(*args):
                if tracer.enabled:
                    slot[0] += 1
                return fn(*args)
            return wrapper

        def timed_wrapper(*args):
            if not tracer.enabled:
                return fn(*args)
            slot[0] += 1
            if slot[2]:
                return fn(*args)
            slot[2] = 1
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                slot[1] += time.perf_counter() - t0
                slot[2] = 0
        return timed_wrapper

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        """Rebind every SPANNED function wherever the package (or one of
        `extra_modules`) bound it by name, and wrap the COUNTED methods."""
        for info in pkgutil.iter_modules(cechmf.__path__):
            importlib.import_module(f"cechmf.{info.name}")
        holders = [m for n, m in sys.modules.items() if n == "cechmf" or n.startswith("cechmf.")]
        holders.extend(extra_modules)
        for modname, attr in SPANNED:
            orig = getattr(sys.modules[f"cechmf.{modname}"], attr)
            wrapper = self._spanned(f"{modname}.{attr}", orig)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))
        for cls, meth, timed in COUNTED:
            orig = cls.__dict__[meth]
            name = f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{meth}"
            setattr(cls, meth, self._counted(name, orig, timed))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        """{span name: {calls, busy_s, self_s, terms_out}} plus counters.

        busy_s counts each span once even when the same function nests in
        itself; self_s is a span's duration minus its child spans.
        """
        out: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "terms_out": 0})
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                st["busy_s"] += t1 - t0
        for name, total in self.terms.items():
            out[name]["terms_out"] = total
        for name, (calls, busy, _) in self.counters.items():
            out[name] = {"calls": calls, "busy_s": busy}
        rank = out.setdefault("linalg.rank_kernel", {"calls": 0, "busy_s": 0.0})
        rank["cells"] = self.cells
        rank["distinct_ratio"] = len(self.matrices) / rank["calls"] if rank["calls"] else 0.0
        return out

    def write(self, path: Path, header: dict, stats: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "stats": stats, "spans": self.spans}, fh, separators=(",", ":"))


def per_layer(stats: dict) -> dict:
    """The PER_LAYER metrics from Tracer.stats(); a layer that never ran reports 0."""
    metrics = {}
    for metric, unit in PER_LAYER.items():
        layer, _, stat = metric.rpartition(".")
        metrics[metric] = {"value": stats.get(layer, {}).get(stat, 0), "unit": unit}
    return metrics
