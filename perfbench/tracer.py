"""Timed spans around floquetlab's layer functions, recorded from outside.

The tracer rebinds module attributes of the library to timing wrappers
and restores them afterwards; no library file changes.  The library
calls its own functions through module globals (``construct.*`` ->
``dirac.*``/``cmv.*``/``su11.*``, and ``bands_of_groups`` ->
``grouped_discriminant_profile``), so the wrappers see those internal
calls as well.

Each span records (id, layer, function, start, end, parent, ok) plus
work counts computed from the call's arguments and result.  Spans stay
in memory; ``write_jsonl`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, Optional

import numpy as np

# Bytes of one batched 2x2 complex128 monodromy per energy.
M_BYTES_PER_POINT = 4 * 16


def _n_points(x) -> int:
    return int(np.atleast_1d(np.asarray(x)).size)


def _dirac_grid(period: float, sup: float, R: float, oversample: float) -> int:
    # the scan grid that dirac._scan_bands evaluates before bisecting
    spacing = math.pi / (8.0 * period * (1.0 + sup) * max(oversample, 1.0))
    return max(int(math.ceil(2.0 * R / spacing)) + 1, 9)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _dirac_grouped_work(args, kwargs, result):
    groups, lams = args[0], args[1]
    n = _n_points(lams)
    return {"points": n, "steps": n * sum(len(b.segments) for b, _ in groups)}


def _dirac_scan_work(args, kwargs, result):
    first, R = args[0], args[1]
    oversample = _arg(args, kwargs, 3, "oversample", 1.0)
    if isinstance(first, (list, tuple)):            # bands_of_groups
        period = sum(b.period * reps for b, reps in first)
        sup = max(b.sup_norm for b, _ in first)
    else:                                           # bands
        period, sup = first.period, first.sup_norm
    return {"grid": _dirac_grid(period, sup, R, oversample),
            "bands": result.count if result is not None else 0}


def _dirac_profile_work(args, kwargs, result):
    n = _n_points(args[1])
    return {"points": n, "steps": n * len(args[0].segments)}


def _cmv_profile_work(args, kwargs, result):
    n = _n_points(args[1])
    return {"points": n, "steps": n * args[0].q}


def _dirac_monodromy_work(args, kwargs, result):
    return {"steps": len(args[0].segments)}


def _cmv_monodromy_work(args, kwargs, result):
    return {"steps": args[0].q}


def _cover_work(args, kwargs, result):
    return {"members": len(result) if result is not None else 0}


# layer -> (module, function names, work counter or None)
LAYERS: dict[str, tuple[str, tuple[str, ...], Optional[Callable]]] = {
    "construct.thin": ("construct", ("thin_spectrum",), None),
    "construct.cover": ("construct", ("resolvent_cover", "cmv_resolvent_cover"),
                        _cover_work),
    "construct.open_gap": ("construct", ("open_gap", "cmv_open_gap"), None),
    "construct.kappa": ("construct", ("cover_kappa",), None),
    "su11.word_search": ("su11", ("hyperbolic_in_semigroup",), None),
    "dirac.scan": ("dirac", ("bands", "bands_of_groups"), _dirac_scan_work),
    "dirac.grouped": ("dirac", ("grouped_discriminant_profile",),
                      _dirac_grouped_work),
    "dirac.lyapunov": ("dirac", ("lyapunov_profile",), _dirac_profile_work),
    "dirac.discriminant": ("dirac", ("discriminant",), None),
    "dirac.scalar": ("dirac", ("monodromy", "transfer"), _dirac_monodromy_work),
    "cmv.lyapunov": ("cmv", ("cmv_lyapunov_profile",), _cmv_profile_work),
    "cmv.discriminant": ("cmv", ("cmv_discriminant",), None),
    "cmv.scalar": ("cmv", ("cmv_monodromy",), _cmv_monodromy_work),
    "analysis": ("analysis", ("lebesgue_measure", "hausdorff_distance",
                              "covering_count", "box_counting",
                              "gordon_defect", "step_bound", "build_schedule"),
                 None),
}

# Only the cover calls are timed in untraced runs: one wrapper call per
# cover, so the end-to-end numbers carry no tracing cost.
COVER_ONLY = ("construct.cover",)

_SCALAR_MONODROMY = {("dirac.scalar", "monodromy"), ("cmv.scalar", "cmv_monodromy")}


class Span:
    __slots__ = ("id", "layer", "fn", "start", "end", "parent", "outer", "ok",
                 "work")

    def __init__(self, id, layer, fn, parent, outer):
        self.id = id
        self.layer = layer
        self.fn = fn
        self.start = self.end = 0.0
        self.parent = parent
        self.outer = outer       # no enclosing span of the same layer
        self.ok = True
        self.work = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the chosen layers while installed."""

    def __init__(self, package, layers=tuple(LAYERS)):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in self.layers}
        self._saved: list[tuple[object, str, Callable]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            modname, names, work = LAYERS[layer]
            module = getattr(self.package, modname)
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn, work))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer, name, fn, work):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(len(spans), layer, name,
                        stack[-1] if stack else -1, depth[layer] == 0)
            spans.append(span)
            stack.append(span.id)
            depth[layer] += 1
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = clock()
                depth[layer] -= 1
                stack.pop()
                if work is not None:
                    span.work = work(args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- derived numbers --------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans recorded after it belong to
        whatever the caller runs next."""
        return len(self.spans)

    def cover_calls(self, since: int = 0) -> list[tuple[str, float, int]]:
        """(function, seconds, members) of every finished cover call."""
        return [(s.fn, s.duration, s.work["members"] if s.work else 0)
                for s in self.spans[since:]
                if s.layer == "construct.cover" and s.outer]

    def root_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent == -1)

    def _ancestor(self, span: Span, layer: str) -> Optional[Span]:
        p = span.parent
        while p != -1:
            s = self.spans[p]
            if s.layer == layer:
                return s
            p = s.parent
        return None

    def layer_metrics(self, units: int, unit_wall: float) -> dict[str, float]:
        """Per-layer numbers, averaged per workload unit.

        busy_s sums the outermost spans of a layer; self_s subtracts the
        time of child spans.  Work counts are computed from call
        arguments, not measured.  unit_wall is the total traced wall
        time of the units, for the shares.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        monodromies_under_gap: dict[int, int] = {}
        for s in spans:
            if s.parent != -1:
                child[s.parent] += s.duration
        agg = {layer: {"calls": 0, "busy": 0.0, "self": 0.0, "ok": 0,
                       "points": 0, "steps": 0, "grid": 0, "bands": 0,
                       "members": 0, "m_max": 0, "samples": 0, "attempts": 0,
                       "scan_points": 0}
               for layer in LAYERS}
        for s in spans:
            a = agg[s.layer]
            a["calls"] += 1
            a["self"] += s.duration - child[s.id]
            if s.outer:
                a["busy"] += s.duration
            a["ok"] += s.ok
            w = s.work or {}
            for key in ("points", "steps", "grid", "bands", "members"):
                a[key] += w.get(key, 0)
            if s.layer == "dirac.grouped":
                a["m_max"] = max(a["m_max"], w["points"] * M_BYTES_PER_POINT)
                parent = spans[s.parent] if s.parent != -1 else None
                if parent is not None and parent.layer == "dirac.scan":
                    agg[parent.layer]["scan_points"] += w["points"]
            if (s.layer, s.fn) in _SCALAR_MONODROMY:
                gap = self._ancestor(s, "construct.open_gap")
                if gap is not None:
                    monodromies_under_gap[gap.id] = (
                        monodromies_under_gap.get(gap.id, 0) + 1)
            if s.layer == "construct.open_gap" and self._ancestor(
                    s, "construct.cover") is not None:
                agg["construct.cover"]["attempts"] += 1
        # the first monodromy under a gap search is the base M0; every
        # further one is a sampled partner
        agg["construct.open_gap"]["samples"] = sum(
            n - 1 for n in monodromies_under_gap.values())

        u = max(units, 1)

        def per_unit(x):
            return x / u

        def rate(num, den):
            return num / den if den > 0 else 0.0

        out: dict[str, float] = {}
        g = agg["dirac.grouped"]
        out["dirac.grouped.calls"] = per_unit(g["calls"])
        out["dirac.grouped.energies"] = per_unit(g["points"])
        out["dirac.grouped.steps"] = per_unit(g["steps"])
        out["dirac.grouped.busy_s"] = per_unit(g["busy"])
        out["dirac.grouped.steps_per_s"] = rate(g["steps"], g["busy"])
        out["dirac.grouped.m_bytes_max"] = float(g["m_max"])
        out["dirac.grouped.share"] = rate(g["busy"], unit_wall)
        g = agg["dirac.scan"]
        out["dirac.scan.busy_s"] = per_unit(g["busy"])
        out["dirac.scan.evals_per_band"] = rate(g["scan_points"],
                                                max(g["bands"], 1))
        out["dirac.scan.bisect_frac"] = rate(g["scan_points"] - g["grid"],
                                             g["scan_points"])
        g = agg["dirac.lyapunov"]
        out["dirac.lyapunov.calls"] = per_unit(g["calls"])
        out["dirac.lyapunov.energies"] = per_unit(g["points"])
        out["dirac.lyapunov.busy_s"] = per_unit(g["busy"])
        out["dirac.lyapunov.steps_per_s"] = rate(g["steps"], g["busy"])
        g = agg["dirac.scalar"]
        out["dirac.scalar.calls"] = per_unit(g["calls"])
        out["dirac.scalar.busy_s"] = per_unit(g["busy"])
        out["dirac.scalar.steps_per_s"] = rate(g["steps"], g["busy"])
        out["cmv.lyapunov.busy_s"] = per_unit(agg["cmv.lyapunov"]["busy"])
        for name in ("cmv.scalar", "dirac.discriminant", "cmv.discriminant"):
            out[f"{name}.calls"] = per_unit(agg[name]["calls"])
            out[f"{name}.busy_s"] = per_unit(agg[name]["busy"])
        g = agg["su11.word_search"]
        out["su11.word_search.calls"] = per_unit(g["calls"])
        out["su11.word_search.busy_s"] = per_unit(g["busy"])
        out["su11.word_search.found_frac"] = rate(g["ok"], g["calls"])
        g = agg["construct.open_gap"]
        out["construct.open_gap.calls"] = per_unit(g["calls"])
        out["construct.open_gap.busy_s"] = per_unit(g["busy"])
        out["construct.open_gap.self_s"] = per_unit(g["self"])
        out["construct.open_gap.ok_frac"] = rate(g["ok"], g["calls"])
        out["construct.open_gap.samples"] = per_unit(g["samples"])
        out["construct.open_gap.samples_per_s"] = rate(g["samples"], g["busy"])
        g = agg["construct.cover"]
        out["construct.cover.busy_s"] = per_unit(g["busy"])
        out["construct.cover.attempts_per_member"] = rate(g["attempts"],
                                                          g["members"])
        out["construct.kappa.calls"] = per_unit(agg["construct.kappa"]["calls"])
        out["construct.kappa.busy_s"] = per_unit(agg["construct.kappa"]["busy"])
        out["construct.thin.self_s"] = per_unit(agg["construct.thin"]["self"])
        out["analysis.busy_s"] = per_unit(agg["analysis"]["busy"])
        out["trace.spans"] = per_unit(len(spans))
        out["trace.outside_s"] = per_unit(unit_wall - self.root_time())
        return out

    def computed_counts(self) -> dict[str, int]:
        """Call and work counts per layer: they depend only on the inputs."""
        counts: dict[str, int] = {}
        for s in self.spans:
            key = f"{s.layer}:{s.fn}"
            counts[key + ".calls"] = counts.get(key + ".calls", 0) + 1
            for k, v in (s.work or {}).items():
                counts[f"{key}.{k}"] = counts.get(f"{key}.{k}", 0) + v
        return counts

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": f"{s.layer}:{s.fn}",
                       "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "ok": s.ok}
                if s.work:
                    rec.update(s.work)
                fh.write(json.dumps(rec) + "\n")
