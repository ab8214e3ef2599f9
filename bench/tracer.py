"""Span tracing of one ``segtta`` command, from outside the package.

The tracer replaces public callables at the names the program looks them
up by (``segtta.pipeline.fuse``, ``segtta.metrics.hd95``, ...) with
wrappers that record one span per call: name, start, end, parent span and
thread. The parent comes from a per-thread stack, so spans stay correctly
nested under the worker pool. Spans are kept in memory and written out
once, when the command ends. Only the traced run imports this module.

A layer's self time is the duration of its spans minus the time covered by
their child spans. A target that no longer exists, or whose arguments no
longer have the shape an attribute recorder reads, is reported by name and
every metric that depends on its span is null.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


def _fuse_attrs(args, kwargs, result):
    maps = args[0].maps
    nx, ny, nz, c = maps[0].probs.shape
    return {"maps": len(maps), "stack_mb": len(maps) * nx * ny * nz * c * 8 / 1e6}


def _edt_attrs(args, kwargs, result):
    return {"mvox": args[0].size / 1e6}


def _file_attrs(index):
    """Recorder of the size of the file named by positional argument ``index``."""
    return lambda args, kwargs, result: {"mb": _file_mb(args[index])}


def _get_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _put_attrs(args, kwargs, result):
    return {"mb": args[2].probs.nbytes / 1e6}


# (dotted target, span name, attribute recorder). A span name may cover
# several targets; the CLI and the pipeline each hold their own reference
# to run_segtta, so both are wrapped.
TARGETS = (
    ("segtta.cli.main", "cli.main", None),
    ("segtta.cli.run_segtta", "pipeline.run_segtta", None),
    ("segtta.pipeline.run_segtta", "pipeline.run_segtta", None),
    ("segtta.cli.run_ablation", "pipeline.run_ablation", None),
    ("segtta.pipeline.PredictionCache.key", "pipeline.cache_key", None),
    ("segtta.pipeline.PredictionCache.get", "pipeline.cache_get", _get_attrs),
    ("segtta.pipeline.PredictionCache.put", "pipeline.cache_put", _put_attrs),
    ("segtta.pipeline.EventLog.emit", "pipeline.log", None),
    ("segtta.pipeline.normalize_intensity", "core.normalize", None),
    ("segtta.core.ProbabilityMap.__post_init__", "core.map_validate", None),
    ("segtta.augment.apply", "augment.apply", None),
    ("segtta.backends.predict", "backends.predict", None),
    ("segtta.pipeline.FusionInput", "fusion.input", None),
    ("segtta.pipeline.fuse", "fusion.fuse", _fuse_attrs),
    ("segtta.pipeline.evaluate", "metrics.evaluate", None),
    ("segtta.metrics.overlap_metrics", "metrics.overlap", None),
    ("segtta.metrics.hd95", "metrics.hd95", None),
    ("segtta.metrics.distance_transform", "metrics.edt", _edt_attrs),
    ("segtta.nifti.read_volume", "nifti.read", _file_attrs(0)),
    ("segtta.nifti.read_label_mask", "nifti.read", _file_attrs(0)),
    ("segtta.nifti.read_probability_map", "nifti.read", _file_attrs(0)),
    ("segtta.nifti.write_volume", "nifti.write", _file_attrs(1)),
    ("segtta.nifti.write_label_mask", "nifti.write", _file_attrs(2)),
    ("segtta.nifti.write_probability_map", "nifti.write", _file_attrs(1)),
    ("segtta.cli.emit_report", "report.emit", None),
)


def _resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None if any part is gone."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans of wrapped callables; safe across threads."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []  # [dotted target, span name]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, targets=TARGETS):
        for dotted, name, attrs in targets:
            found = _resolve(dotted)
            if found is None:
                self.missing.append([dotted, name])
                continue
            owner, attr = found
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, attrs))

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = [name, start, end, parent,
                                       threading.get_ident(), None]
            if attrs is not None:
                try:
                    tracer.spans[index][5] = attrs(args, kwargs, result)
                except Exception as e:  # the traced command must not fail
                    entry = [f"attributes of {fn.__qualname__}: {type(e).__name__}", name]
                    with tracer._lock:
                        if entry not in tracer.missing:
                            tracer.missing.append(entry)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


def self_times(spans: list) -> list[float]:
    """Self time of every span: its duration minus its children's.

    A span still open when the spans were written is None and has none.
    """
    own = [0.0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is not None and span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def _count(name):
    return lambda agg: agg["calls"].get(name, 0)


def _self(name):
    return lambda agg: agg["self"].get(name, 0.0)


def _attr(name, key):
    return lambda agg: agg["attrs"].get((name, key), 0.0)


def _hit_ratio(agg):
    calls = agg["calls"].get("pipeline.cache_get", 0)
    return agg["attrs"].get(("pipeline.cache_get", "hit"), 0) / calls if calls else 0.0


# Per-layer metrics: (metric, unit, span names it needs, how to compute).
METRICS = (
    ("metrics.hd95_s", "s", ("metrics.hd95",), _self("metrics.hd95")),
    ("metrics.hd95_calls", "count", ("metrics.hd95",), _count("metrics.hd95")),
    ("metrics.edt_s", "s", ("metrics.edt",), _self("metrics.edt")),
    ("metrics.edt_calls", "count", ("metrics.edt",), _count("metrics.edt")),
    ("metrics.edt_mvox", "Mvox", ("metrics.edt",), _attr("metrics.edt", "mvox")),
    ("metrics.overlap_s", "s", ("metrics.overlap",), _self("metrics.overlap")),
    ("fusion.input_s", "s", ("fusion.input",), _self("fusion.input")),
    ("fusion.fuse_s", "s", ("fusion.fuse",), _self("fusion.fuse")),
    ("fusion.fuse_calls", "count", ("fusion.fuse",), _count("fusion.fuse")),
    ("fusion.maps_fused", "count", ("fusion.fuse",), _attr("fusion.fuse", "maps")),
    ("fusion.stack_mb", "MB-computed", ("fusion.fuse",),
     _attr("fusion.fuse", "stack_mb")),
    ("pipeline.cache_hits", "count", ("pipeline.cache_get",),
     _attr("pipeline.cache_get", "hit")),
    ("pipeline.cache_misses", "count", ("pipeline.cache_get",),
     lambda agg: agg["calls"].get("pipeline.cache_get", 0)
     - agg["attrs"].get(("pipeline.cache_get", "hit"), 0)),
    ("pipeline.cache_hit_ratio", "ratio", ("pipeline.cache_get",), _hit_ratio),
    ("pipeline.cache_mb", "MB", ("pipeline.cache_put",),
     _attr("pipeline.cache_put", "mb")),
    ("pipeline.cache_key_s", "s", ("pipeline.cache_key",), _self("pipeline.cache_key")),
    ("pipeline.run_calls", "count", ("pipeline.run_segtta",),
     _count("pipeline.run_segtta")),
    ("augment.apply_s", "s", ("augment.apply",), _self("augment.apply")),
    ("augment.apply_calls", "count", ("augment.apply",), _count("augment.apply")),
    ("backends.predict_s", "s", ("backends.predict",), _self("backends.predict")),
    ("backends.predict_calls", "count", ("backends.predict",),
     _count("backends.predict")),
    ("core.map_validate_s", "s", ("core.map_validate",), _self("core.map_validate")),
    ("core.map_validate_calls", "count", ("core.map_validate",),
     _count("core.map_validate")),
    ("core.normalize_s", "s", ("core.normalize",), _self("core.normalize")),
    ("nifti.read_s", "s", ("nifti.read",), _self("nifti.read")),
    ("nifti.read_calls", "count", ("nifti.read",), _count("nifti.read")),
    ("nifti.read_mb", "MB", ("nifti.read",), _attr("nifti.read", "mb")),
    ("nifti.write_s", "s", ("nifti.write",), _self("nifti.write")),
    ("nifti.write_calls", "count", ("nifti.write",), _count("nifti.write")),
    ("nifti.write_mb", "MB", ("nifti.write",), _attr("nifti.write", "mb")),
    ("pipeline.log_s", "s", ("pipeline.log",), _self("pipeline.log")),
    ("pipeline.log_events", "count", ("pipeline.log",), _count("pipeline.log")),
    ("report.emit_s", "s", ("report.emit",), _self("report.emit")),
)


def aggregate(trace: dict) -> dict:
    """Totals per span name: calls, self seconds and summed attributes."""
    spans = trace["spans"]
    agg = {"calls": {}, "self": {}, "attrs": {}, "layers": {}}
    for span, own in zip(spans, self_times(spans)):
        if span is None:
            continue
        name, attrs = span[0], span[5]
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
        agg["self"][name] = agg["self"].get(name, 0.0) + own
        layer = name.split(".")[0]
        agg["layers"][layer] = agg["layers"].get(layer, 0.0) + own
        for key, value in (attrs or {}).items():
            agg["attrs"][(name, key)] = agg["attrs"].get((name, key), 0) + value
    return agg


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric as {"value", "unit"}; null where a span is gone."""
    agg = aggregate(trace)
    gone = {name for _, name in trace["missing"]}
    out = {}
    for metric, unit, needs, compute in METRICS:
        value = None if gone.intersection(needs) else compute(agg)
        out[metric] = {"value": value, "unit": unit}
    return out
