"""End-to-end orchestration: one variant engine behind every experiment.

An experiment is a list of variants. A variant is a named result row: the
views it fuses and its threshold tau. Every experiment runs the same engine
once:

1. prepare: every case is loaded, normalized and augmented once, and every
   backend predicts every view of it once;
2. score: each case fuses and scores each variant once, and the masks of
   the variants that have an output directory are written.

``run_segtta`` is the per-view rows plus ``fused``; ``run_ablation`` is
``baseline``, ``full`` and one ``w/o <aug>`` row per augmentation;
``run_threshold_sweep`` is one ``tau=<t>`` row per threshold. A case whose
load or any prediction fails is recorded once and skipped, so one corrupt
scan cannot void a long run. All randomness is stream-keyed by content
(seed, case id, augmentation label, backend name), so a row equals the
fused row of a from-scratch run of the same views, whatever the worker
count; the prediction cache reuses predictions across calls.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import hashlib
import json
import logging
import threading
import time
from pathlib import Path

import numpy as np

from . import augment, backends, nifti
from .config import DatasetManifest, RunConfig
from .core import LabelMask, ProbabilityMap, Volume, normalize_intensity
from .errors import InsufficientAugmentations, SegTTAError
from .fusion import FusionInput, fuse, foreground_volume, _check_tau
from .metrics import MetricReport, evaluate
from .rng import SeededRng

BASELINE_VIEW = "baseline"
FUSED_VARIANT = "fused"


def augmentation_rng(seed: int, case_id: str, aug_label: str) -> SeededRng:
    """Stream for generating one augmented view of one volume."""
    return SeededRng(seed, "augment", case_id, aug_label)


def prediction_rng(seed: int, case_id: str, backend_name: str, view: str) -> SeededRng:
    """Stream for one backend's prediction on one view of one volume."""
    return SeededRng(seed, "predict", case_id, backend_name, view)


def source_tag(backend_name: str, view: str) -> str:
    return f"{backend_name}|{view}"


class EventLog:
    """Append-only line-delimited JSON event log, safe across threads.

    The file stays open; every line is flushed as it is written, so the
    log is readable up to the last event even if the process dies.
    """

    def __init__(self, path=None):
        self._file = None
        self._lock = threading.Lock()
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "w")

    def emit(self, event: str, **fields):
        if self._file is None:
            return
        record = {"t": time.time(), "event": event, **fields}
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._file is not None:
                self._file.write(line + "\n")
                self._file.flush()

    def close(self):
        """Close the file; later events are dropped."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class _EventLogHandler(logging.Handler):
    """Routes backend log records (external process output) into the run log."""

    def __init__(self, log: EventLog):
        super().__init__()
        self._log = log

    def emit(self, record):
        self._log.emit(
            "log",
            logger=record.name,
            message=record.getMessage(),
            child_stdout=getattr(record, "child_stdout", None),
            child_stderr=getattr(record, "child_stderr", None),
        )


class PredictionCache:
    """Thread-safe map from prediction identity to probability map.

    The key covers everything a prediction depends on: backend descriptor,
    view (augmentation content label), volume content, seed, and class
    count. One experiment predicts each (case, backend, view) once anyway;
    experiments that share a cache reuse each other's predictions exactly.
    """

    def __init__(self):
        self._store: dict[str, ProbabilityMap] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _volume_hash(v: Volume) -> str:
        h = hashlib.sha256()
        h.update(v.vol_id.encode())
        h.update(repr((v.dims, v.spacing.as_tuple())).encode())
        h.update(v.data.tobytes())
        return h.hexdigest()

    def key(self, backend_dict: dict, view: str, volume: Volume, seed: int,
            num_classes: int) -> str:
        payload = json.dumps(
            [backend_dict, view, self._volume_hash(volume), seed, num_classes],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def get(self, key: str) -> ProbabilityMap | None:
        with self._lock:
            m = self._store.get(key)
            if m is None:
                self.misses += 1
            else:
                self.hits += 1
            return m

    def put(self, key: str, value: ProbabilityMap):
        with self._lock:
            self._store[key] = value


@dataclass(frozen=True)
class RunResult:
    """Everything a run produced, shaped like the result tables.

    ``per_case[case][variant]`` holds a MetricReport (None when the case
    has no ground truth); ``fg_volume`` the fused-mask foreground volume in
    mm^3 per variant. Aggregates are plain means over cases with defined
    values; undefined HD95 entries are excluded and counted.
    """

    dataset: str
    num_classes: int
    variants: tuple[str, ...]
    reference: str | None
    per_case: dict
    fg_volume: dict
    aggregates: dict
    failures: tuple
    config: dict
    timings: dict

    def to_dict(self) -> dict:
        per_case = {
            case: {
                variant: (report.to_dict() if report is not None else None)
                for variant, report in variants.items()
            }
            for case, variants in self.per_case.items()
        }
        return {
            "dataset": self.dataset,
            "num_classes": self.num_classes,
            "variants": list(self.variants),
            "reference": self.reference,
            "per_case": per_case,
            "fg_volume": self.fg_volume,
            "aggregates": self.aggregates,
            "failures": [list(f) for f in self.failures],
            "config": self.config,
            "timings": self.timings,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        per_case = {
            case: {
                variant: (MetricReport.from_dict(r) if r is not None else None)
                for variant, r in variants.items()
            }
            for case, variants in d["per_case"].items()
        }
        return cls(
            dataset=d["dataset"],
            num_classes=d["num_classes"],
            variants=tuple(d["variants"]),
            reference=d["reference"],
            per_case=per_case,
            fg_volume=d["fg_volume"],
            aggregates=d["aggregates"],
            failures=tuple(tuple(f) for f in d["failures"]),
            config=d["config"],
            timings=d["timings"],
        )

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunResult":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _aggregate(per_case: dict, fg_volume: dict, variants) -> dict:
    """Mean of each metric over cases where it is defined, per variant."""
    aggregates = {}
    for variant in variants:
        reports = [
            row[variant]
            for row in per_case.values()
            if row.get(variant) is not None
        ]
        fgs = [
            row[variant] for row in fg_volume.values() if variant in row
        ]
        agg: dict = {}
        if fgs:
            agg["fg_mm3"] = float(np.mean(fgs))
        if reports:
            for field in ("miou", "mdice", "aiou", "adice"):
                agg[field] = float(np.mean([getattr(r, field) for r in reports]))
            defined = [r.hd95_mm for r in reports if r.hd95_mm is not None]
            agg["hd95"] = float(np.mean(defined)) if defined else None
            agg["hd95_undefined"] = len(reports) - len(defined)
            agg["n_cases"] = len(reports)
        if agg:
            aggregates[variant] = agg
    return aggregates


# --- case loading and prediction ---------------------------------------------


@dataclass
class _Case:
    case_id: str
    volume: Volume  # normalized to [0, 1]
    gt: LabelMask | None
    views: dict  # view label -> Volume, insertion order fixed by config


def _load_cases(config: RunConfig, manifest: DatasetManifest, log: EventLog):
    cases: list[_Case] = []
    failures: list[tuple[str, str]] = []
    for entry in manifest.entries:
        try:
            volume = nifti.read_volume(entry.image)
            volume = Volume(volume.data, volume.spacing, vol_id=entry.case_id)
            gt = (
                nifti.read_label_mask(entry.label, entry.num_classes)
                if entry.label
                else None
            )
            if gt is not None and gt.dims != volume.dims:
                raise SegTTAError(
                    f"label dims {gt.dims} != image dims {volume.dims}"
                )
            normalized, _, _ = normalize_intensity(volume)
            views = {}
            if config.include_baseline:
                views[BASELINE_VIEW] = normalized
            for spec in config.augmentations:
                label = spec.label()
                if label in views:
                    continue  # identical specs would produce identical views
                rng = augmentation_rng(config.seed, entry.case_id, label)
                views[label] = augment.apply(spec, normalized, rng)
            cases.append(_Case(entry.case_id, normalized, gt, views))
            log.emit("case_loaded", case=entry.case_id, views=list(views))
        except (SegTTAError, ValueError, OSError) as e:
            failures.append((entry.case_id, f"load: {e}"))
            log.emit("case_failed", case=entry.case_id, error=str(e))
    return cases, failures


def _predict_all(config: RunConfig, cases: list, num_classes: int,
                 cache: PredictionCache, log: EventLog):
    """Run the backend x view cross product, bounded by the worker pool.

    Returns ``(maps, failures)`` where ``maps[case_id][tag]`` holds every
    prediction of the surviving cases.
    """
    allowed = set(config.subset) if config.subset is not None else None
    tasks = []
    for case in cases:
        for backend in config.backends:
            for view in case.views:
                if allowed is not None and (backend.name, view) not in allowed:
                    continue
                tasks.append((case, backend, view))

    maps: dict[str, dict[str, ProbabilityMap]] = {c.case_id: {} for c in cases}
    failed: dict[str, str] = {}
    lock = threading.Lock()
    process_slots = threading.Semaphore(config.process_jobs)

    def run_task(task):
        case, backend, view = task
        tag = source_tag(backend.name, view)
        volume = case.views[view]
        key = cache.key(backend.to_dict(), view, volume, config.seed, num_classes)
        cached = cache.get(key)
        try:
            if cached is None:
                rng = prediction_rng(config.seed, case.case_id, backend.name, view)
                started = time.monotonic()
                if backend.kind == "external":
                    with process_slots:
                        pmap = backends.predict(
                            backend, volume, num_classes, rng,
                            ground_truth=case.gt, source_tag=tag,
                        )
                else:
                    pmap = backends.predict(
                        backend, volume, num_classes, rng,
                        ground_truth=case.gt, source_tag=tag,
                    )
                cache.put(key, pmap)
                log.emit(
                    "prediction", case=case.case_id, backend=backend.name,
                    view=view, elapsed_s=round(time.monotonic() - started, 4),
                    cached=False,
                )
            else:
                pmap = cached.retagged(tag)
                log.emit(
                    "prediction", case=case.case_id, backend=backend.name,
                    view=view, cached=True,
                )
            with lock:
                maps[case.case_id][tag] = pmap
        except (SegTTAError, ValueError) as e:
            with lock:
                failed.setdefault(case.case_id, f"{tag}: {e}")
            log.emit(
                "case_failed", case=case.case_id, backend=backend.name,
                view=view, error=str(e),
            )

    if config.jobs == 1:
        for task in tasks:
            run_task(task)
    else:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            list(pool.map(run_task, tasks))

    failures = [(case_id, failed[case_id]) for case_id in sorted(failed)]
    for case_id in failed:
        maps.pop(case_id, None)
    return maps, failures


def _prepare(config: RunConfig, manifest: DatasetManifest,
             cache: PredictionCache, log: EventLog):
    """Load every case and collect every prediction, each exactly once."""
    t0 = time.monotonic()
    cases, load_failures = _load_cases(config, manifest, log)
    t1 = time.monotonic()
    maps, predict_failures = _predict_all(
        config, cases, manifest.num_classes, cache, log
    )
    t2 = time.monotonic()
    surviving = [c for c in cases if c.case_id in maps]
    timings = {"load_s": t1 - t0, "predict_s": t2 - t1}
    return surviving, maps, load_failures + predict_failures, timings


# --- the variant engine --------------------------------------------------------


def _view_names(config: RunConfig, drop: int | None = None) -> tuple[str, ...]:
    """The views a config fuses, in config order; ``drop`` leaves out the
    augmentation at that index (a view another spec shares stays)."""
    names = [BASELINE_VIEW] if config.include_baseline else []
    for i, spec in enumerate(config.augmentations):
        if i != drop and spec.label() not in names:
            names.append(spec.label())
    return tuple(names)


def _score_variants(config: RunConfig, cases: list, maps: dict, variants,
                    mask_dirs: dict, log: EventLog):
    """Fuse and score each ``(name, views, tau)`` variant once per case.

    A variant with no prediction in a case is left out of that case's row.
    Masks of the variants named in ``mask_dirs`` are written there. Returns
    ``(per_case, fg_volume, timings)``; reports are None without ground
    truth.
    """
    per_case: dict = {}
    fg_volume: dict = {}
    timings = {"fuse_s": 0.0, "score_s": 0.0, "write_s": 0.0}
    for case in cases:
        case_maps = maps[case.case_id]
        reports = per_case[case.case_id] = {}
        fg = fg_volume[case.case_id] = {}
        for name, views, tau in variants:
            tags = [
                tag
                for backend in config.backends
                for view in views
                if (tag := source_tag(backend.name, view)) in case_maps
            ]
            if not tags:
                continue
            t0 = time.monotonic()
            mask = fuse(FusionInput(
                tuple(case_maps[t] for t in tags), mode=config.voting, tau=tau
            ))
            t1 = time.monotonic()
            fg[name] = foreground_volume(mask, case.volume.spacing)
            reports[name] = (
                evaluate(mask, case.gt, case.volume.spacing)
                if case.gt is not None
                else None
            )
            t2 = time.monotonic()
            if name in mask_dirs:
                directory = mask_dirs[name]
                directory.mkdir(parents=True, exist_ok=True)
                nifti.write_label_mask(
                    mask, case.volume.spacing,
                    directory / f"{case.case_id}.nii.gz",
                )
            timings["fuse_s"] += t1 - t0
            timings["score_s"] += t2 - t1
            timings["write_s"] += time.monotonic() - t2
        log.emit("case_done", case=case.case_id)
    return per_case, fg_volume, timings


def _run_variants(config: RunConfig, manifest: DatasetManifest, variants,
                  reference, result_config: dict, out_dir, masks: dict,
                  cache: PredictionCache | None, log: EventLog | None) -> RunResult:
    """Prepare once, score every variant, and shape the result.

    ``masks`` maps a variant name to the directory under ``out_dir`` that
    receives its masks; nothing is written without an output directory.
    """
    mask_dirs = (
        {name: Path(out_dir) / sub for name, sub in masks.items()}
        if out_dir is not None else {}
    )
    cache = cache if cache is not None else PredictionCache()
    log = log if log is not None else EventLog(None)
    log.emit("run_start", dataset=manifest.name, config=result_config)
    cases, maps, failures, timings = _prepare(config, manifest, cache, log)
    per_case, fg_volume, score_timings = _score_variants(
        config, cases, maps, variants, mask_dirs, log
    )
    timings.update(score_timings)
    for stage, seconds in timings.items():
        log.emit("stage", stage=stage, seconds=round(seconds, 6))
    names = [name for name, _, _ in variants]
    log.emit("run_done", dataset=manifest.name, cases=len(per_case),
             failures=len(failures))
    return RunResult(
        dataset=manifest.name,
        num_classes=manifest.num_classes,
        variants=tuple(names),
        reference=reference,
        per_case=per_case,
        fg_volume=fg_volume,
        aggregates=_aggregate(per_case, fg_volume, names),
        failures=tuple(failures),
        config=result_config,
        timings=timings,
    )


def run_segtta(config: RunConfig, manifest: DatasetManifest, out_dir=None,
               cache: PredictionCache | None = None,
               log: EventLog | None = None) -> RunResult:
    """One full pass: predict on baseline and augmented views, fuse, score.

    Rows are one per view plus ``fused``, which fuses them all. Fused masks
    are written under ``out_dir/masks`` when an output directory is given;
    metrics are computed for cases with ground truth.
    """
    views = _view_names(config)
    variants = [(view, (view,), config.tau) for view in views]
    variants.append((FUSED_VARIANT, views, config.tau))
    return _run_variants(
        config, manifest, variants,
        reference=BASELINE_VIEW if config.include_baseline else None,
        result_config=config.to_dict(),
        out_dir=out_dir, masks={FUSED_VARIANT: "masks"}, cache=cache, log=log,
    )


def run_ablation(config: RunConfig, manifest: DatasetManifest, out_dir=None,
                 cache: PredictionCache | None = None,
                 log: EventLog | None = None) -> RunResult:
    """Leave-one-augmentation-out comparison against the full set.

    Each ``w/o <aug>`` row fuses the views of the config without that
    augmentation, so it equals the fused row of a from-scratch run of the
    reduced config. Deltas in the report are taken against ``full``, whose
    masks are written under ``out_dir/masks``.
    """
    if len(config.augmentations) < 2:
        raise InsufficientAugmentations(
            f"ablation needs >= 2 augmentations, got {len(config.augmentations)}"
        )
    variants = [("full", _view_names(config), config.tau)]
    if config.include_baseline:
        variants.insert(0, (BASELINE_VIEW, (BASELINE_VIEW,), config.tau))
    variants += [
        (f"w/o {spec.label()}", _view_names(config, drop=i), config.tau)
        for i, spec in enumerate(config.augmentations)
    ]
    return _run_variants(
        config, manifest, variants, reference="full",
        result_config={**config.to_dict(), "experiment": "ablation"},
        out_dir=out_dir, masks={"full": "masks"}, cache=cache, log=log,
    )


def run_threshold_sweep(config: RunConfig, manifest: DatasetManifest, taus,
                        out_dir=None, cache: PredictionCache | None = None,
                        log: EventLog | None = None) -> RunResult:
    """Fuse one shared prediction set at each threshold in ``taus``.

    Reports metrics and fused foreground volume per threshold, and writes
    each threshold's masks under ``out_dir/masks/tau=<t>``; the reference
    row for deltas is tau=0.6 when present, else the first.
    """
    taus = [_check_tau(t) for t in taus]
    if not taus:
        raise SegTTAError("sweep needs at least one tau")
    views = _view_names(config)
    variants = [(f"tau={t:g}", views, t) for t in taus]
    reference = next(
        (name for name, _, t in variants if abs(t - 0.6) < 1e-12),
        variants[0][0],
    )
    return _run_variants(
        config, manifest, variants, reference=reference,
        result_config={**config.to_dict(), "experiment": "sweep", "taus": taus},
        out_dir=out_dir, masks={name: f"masks/{name}" for name, _, _ in variants},
        cache=cache, log=log,
    )


def attach_run_log(log: EventLog):
    """Route backend logging (external process output) into the event log.

    Returns the handler; pass it to :func:`detach_run_log` when done.
    """
    handler = _EventLogHandler(log)
    backends.logger.addHandler(handler)
    backends.logger.setLevel(logging.INFO)
    return handler


def detach_run_log(handler):
    backends.logger.removeHandler(handler)
