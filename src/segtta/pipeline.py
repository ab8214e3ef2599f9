"""End-to-end orchestration: one pass per case behind every experiment.

An experiment is a list of variants. A variant is a named result row: the
views it fuses and its threshold tau. :func:`_run_variants` plans an
experiment once from its config (each view's backends in source-tag
order, and the variants that have a prediction to fuse), then runs every
case of the manifest through :func:`_run_case` in the worker pool and
assembles the result in manifest order. ``_run_case``'s docstring states
the pass a case goes through, its failure rule and what it holds in
memory.

``run_segtta`` is the per-view rows plus ``fused``; ``run_ablation`` is
``baseline``, ``full`` and one ``w/o <aug>`` row per augmentation;
``run_threshold_sweep`` is one ``tau=<t>`` row per threshold, all deciding
from one set of vote sums. A failed case is recorded once, with its reason,
and skipped, so one corrupt scan cannot void a long run. A case fails
only on a ``SegTTAError``, the one class of rejected input; any other
exception is a bug and propagates out of the run. All randomness is
stream-keyed by content (seed, case id, augmentation label, backend
name), so a row equals the fused row of a from-scratch run of the same
views, whatever the worker count. A ``PredictionCache`` passed in reuses
predictions across calls: it keys each by its case's normalized volume,
hashed once per case, and the view's label, so no view is built for the
cache's sake. Without one nothing is hashed or kept.

The ``EventLog`` passed in is the run's one event channel: the pass logs
each load, prediction and failure, each finished case with its stage
seconds, and each stage total there, and an external backend logs its
child's exit status, stdout and stderr there too. A case collects its
own events and the run writes them case by case in manifest order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import dataclass
import functools
import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import augment, backends, nifti
from .config import BASELINE_VIEW, DatasetManifest, RunConfig, _read_json
from .core import (
    ProbabilityMap, Volume, _check_fields, _check_json, _check_spacing,
    _check_writable, normalize_intensity, writing,
)
from .errors import (
    ConfigError, DimensionMismatch, InsufficientAugmentations, SegTTAError,
)
from .fusion import DEFAULT_TAU, foreground_volume, fuse_groups, _check_tau
# The benchmark's span tracer (bench/tracer.py) wraps these three names
# here; the pipeline itself fuses through fuse_groups and scores a case's
# rows together through CaseScorer.evaluate.
from .fusion import FusionInput, fuse  # noqa: F401
from .metrics import evaluate  # noqa: F401
from .metrics import CaseScorer, MetricReport
from .rng import SeededRng

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

    Each line is one event: ``t``, its time in seconds since the epoch,
    ``event``, its name, and its fields. An experiment writes these:

    * ``run_start``: ``dataset``, ``config`` (as result.json holds it);
    * ``case_loaded``: ``case``, ``views`` (in config order);
    * ``prediction``: ``case``, ``backend``, ``view``, ``cached``, and
      ``elapsed_s`` when not cached;
    * ``log``: ``logger``, ``message`` (an external backend's exit
      status and seconds), ``child_stdout`` and ``child_stderr`` (the
      tails of its child's output);
    * ``case_failed``: ``case``, ``error``, ``error_type``, and for a
      failing prediction its ``backend`` and ``view``;
    * ``case_done``: ``case``, ``views_built`` and each stage's seconds
      (``load_s``, ``predict_s``, ``fuse_s``, ``score_s``, ``write_s``);
    * ``stage``: ``stage``, ``seconds``, one per stage, summed over cases;
    * ``run_done``: ``dataset``, ``cases``, ``failures``, ``wall_s``,
      ``peak_rss_mb`` (the process's peak resident memory so far, in MiB).

    The log is in manifest order: ``run_start``, then each case's events
    in the order they happened, written together once that case and every
    case before it are done, then the stage totals and ``run_done``. So
    the lines are the same, but for clock readings, whatever the worker
    count, and a log cut short holds every event of each case up to the
    last finished one.

    The file (and its directory) is created at the first event, through
    :func:`~segtta.core.writing`, so an experiment that rejects its
    arguments before it starts leaves the directory as it was. The file
    then stays open until :meth:`close`; every line is flushed as it is
    written, so the log is readable up to the last event even if the
    process dies.
    """

    def __init__(self, path=None):
        self._path = path or None
        self._file = None
        self._files = contextlib.ExitStack()
        self._lock = threading.Lock()

    def emit(self, event: str, t: float | None = None, **fields):
        """Write one event, at time ``t`` (by default, now)."""
        if self._path is None:
            return
        record = {"t": time.time() if t is None else t, "event": event, **fields}
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._path is None:
                return
            if self._file is None:
                self._file = self._files.enter_context(writing(self._path))
            self._file.write((line + "\n").encode())
            self._file.flush()

    def close(self):
        """Close the file; later events are dropped."""
        with self._lock:
            self._files.close()
            self._path = self._file = None


class _CaseEvents(list):
    """One case's events, as ``(t, event, fields)`` in the order they
    happen, for :func:`_run_variants` to write to the run's log in
    manifest order. It takes events as :meth:`EventLog.emit` does, so an
    external backend logs its child into it too."""

    def emit(self, event: str, **fields):
        self.append((time.time(), event, fields))


class PredictionCache:
    """Thread-safe map from prediction identity to probability map.

    The key covers everything a prediction depends on: backend descriptor,
    view (augmentation content label), the case's normalized volume, seed,
    and class count. A view is a function of its spec, that volume, the
    seed and the case id, so equal keys mean equal predictions without the
    view's own voxels being hashed, or the view built. One experiment
    predicts each (case, backend, view) once anyway; experiments that share
    a cache reuse each other's predictions exactly.
    """

    def __init__(self):
        self._store: dict[str, ProbabilityMap] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _volume_hash(v: Volume) -> str:
        """The digest of a case's normalized volume that :meth:`key` takes:
        id, geometry and voxels, read in place (``v.data`` is C-ordered);
        worked out once per case, whatever its views and backends."""
        h = hashlib.sha256()
        h.update(v.vol_id.encode())
        h.update(repr((v.dims, v.spacing.as_tuple())).encode())
        h.update(memoryview(v.data))
        return h.hexdigest()

    def key(self, backend_dict: dict, view: str, volume_hash: str, seed: int,
            num_classes: int) -> str:
        payload = json.dumps(
            [backend_dict, view, volume_hash, seed, num_classes],
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


#: Every field of RunResult, in order, with its JSON type in result.json.
_RESULT_FIELDS = {
    "dataset": "string", "num_classes": "integer", "variants": "list",
    "reference": "string or null", "per_case": "object", "fg_volume": "object",
    "aggregates": "object", "failures": "list", "config": "object",
    "timings": "object",
}


@dataclass(frozen=True)
class RunResult:
    """Everything a run produced, shaped like the result tables.

    ``per_case[case][variant]`` holds a MetricReport (None when the case
    has no ground truth); ``fg_volume`` the fused-mask foreground volume in
    mm^3 per variant. Aggregates are plain means over cases with defined
    values; undefined HD95 entries are excluded and counted. ``failures``
    lists ``(case, reason)`` in manifest order. ``timings`` holds the
    seconds of each stage summed over cases, so with several workers it
    counts worker time, not wall time. ``load_s`` counts reading the
    image and label, checking and normalizing them, building the views a
    member reads and hashing the normalized volume for a cache;
    ``predict_s`` counts each prediction whole, cache lookups included:
    for an external member that is waiting for a process slot, the
    child's run, and reading and checking the map it writes; ``fuse_s``
    counts both adding the maps' votes into the sums and deciding;
    ``score_s`` the metrics and foreground volumes of every row;
    ``write_s`` writing the masks. It also holds ``wall_s``, the
    experiment's wall seconds, and ``peak_rss_mb``, the peak resident
    memory in MiB (2**20 bytes) of the whole process so far at its end
    (``VmHWM`` where the system has it, else ``ru_maxrss``), not of this
    experiment alone. What a case holds while it runs is stated in
    :func:`_run_case`.

    ``reference``, when not None, names a variant, and each failure is a
    ``(case, reason)`` pair of strings. Every row of ``per_case``,
    ``fg_volume`` and ``aggregates`` names a variant, and ``per_case`` and
    ``fg_volume`` hold the same cases; else a ConfigError names the field.
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

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        if self.reference is not None and self.reference not in self.variants:
            raise ConfigError(f"result field 'reference' {self.reference!r}"
                              f" names no variant of {list(self.variants)}")
        for failure in self.failures:
            if not (isinstance(failure, (list, tuple)) and len(failure) == 2
                    and all(isinstance(part, str) for part in failure)):
                raise ConfigError(f"result failure {failure!r} is not [case, reason] strings")
        object.__setattr__(self, "failures", tuple(map(tuple, self.failures)))
        rows = {f"{table}[{case!r}]": row for table in ("per_case", "fg_volume")
                for case, row in getattr(self, table).items()}
        for where, row in {**rows, "aggregates": self.aggregates}.items():
            unknown = [variant for variant in row if variant not in self.variants]
            if unknown:
                raise ConfigError(f"result {where} has rows {unknown} that name"
                                  f" no variant of {list(self.variants)}")
        if self.per_case.keys() != self.fg_volume.keys():
            raise ConfigError(
                f"result per_case and fg_volume hold different cases: "
                f"{sorted(self.per_case.keys() ^ self.fg_volume.keys())}")

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _RESULT_FIELDS},
            "variants": list(self.variants),
            "per_case": {
                case: {variant: None if report is None else report.to_dict()
                       for variant, report in row.items()}
                for case, row in self.per_case.items()
            },
            "failures": [list(f) for f in self.failures],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`. This checks the document's JSON
        shape: a missing or mistyped field, or a key that names no field,
        raises ConfigError naming it. The constructor checks the rules."""
        _check_fields(d, _RESULT_FIELDS, "result")
        for variant in d["variants"]:
            _check_json(variant, "string", "result variant")
        for failure in d["failures"]:
            _check_json(failure, "list", "result failure")
        for table, kind in (("fg_volume", "number"), ("aggregates", "number or null")):
            for key, row in d[table].items():
                where = f"result {table}[{key!r}]"
                for name, value in _check_json(row, "object", where).items():
                    _check_json(value, kind, f"{where}[{name!r}]")
        per_case = {}
        for case, row in d["per_case"].items():
            where = f"result per_case[{case!r}]"
            per_case[case] = {
                variant: None if r is None else MetricReport.from_dict(
                    r, f"{where}[{variant!r}]")
                for variant, r in _check_json(row, "object", where).items()
            }
        return cls(**{**{name: d[name] for name in _RESULT_FIELDS},
                      "per_case": per_case})

    def save(self, path):
        """Write the result as JSON, through :func:`~segtta.core.writing`."""
        with writing(path) as f:
            f.write((json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n").encode())

    @classmethod
    def load(cls, path) -> "RunResult":
        return cls.from_dict(_read_json(path))


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


# --- the per-case engine -------------------------------------------------------

_STAGES = ("load_s", "predict_s", "fuse_s", "score_s", "write_s")


def _run_case(entry, *, config: RunConfig, pairs: dict, read_views: frozenset,
              variants, num_classes: int, mask_dirs: dict,
              cache: PredictionCache | None, process_slots: threading.Semaphore):
    """Load, predict, fuse, score and write one case.

    ``pairs`` maps each view, in config order, to its ``(source tag,
    backend)`` pairs in tag order, ``read_views`` holds the views that a
    member among their pairs reads the voxels of, and ``variants`` lists
    the ``(name, view set, tau)`` of the variants that have a prediction,
    as :func:`_run_variants` plans them.

    The case is loaded (each file read once), its label checked against
    the image's dims and spacing, and normalized. Each view is built in
    turn, predicted by its backends and dropped before the next is built;
    a view outside ``read_views`` is not built: its members read only its
    dims and id, which the normalized volume shares, so they predict from
    that. The case keeps each map and its view in prediction order. Then
    :func:`fuse_groups` sorts the maps by source tag and fuses them slab by
    slab into one set of sums per distinct view set, and each variant
    decides at its own tau; the masks equal ``fuse`` of the same maps, so
    the order predictions run in changes no sum. The maps are dropped
    before the rows are scored, all in one call of
    :meth:`CaseScorer.evaluate`, and the masks of the variants in
    ``mask_dirs`` are written.

    Failure rule: a case fails with the reason it would have if every view
    were built first and the pairs then predicted in source-tag order. A
    view that a member reads and that cannot be built is a ``load:``
    failure; otherwise the failing
    pair with the smallest tag is reported. So after a failure every later
    view is still built, and only its pairs whose tag is smaller than the
    failing one are predicted. A map file that cannot be read back while
    the maps are fused is a ``fuse:`` failure.

    Memory: a case in flight holds its normalized volume, at most one
    augmented view, and that only of a view in ``read_views`` (after a
    failure too), its maps and one slab of sums
    per distinct view set, of at most ``core.SLAB_VOXELS`` voxels: one
    uint16 plane of interned states when every map is a row-table map,
    as synthetic members' maps are, else C + 1 float64 planes (see
    :mod:`segtta.fusion`). A map is held compactly: a synthetic map as
    its uint8 labels (1 byte per voxel, none of its own when it reuses
    the ground truth's or a jitter's), and a map from an external
    backend, as any map read from a file, as a file of its float32
    values under ``SEGTTA_TMPDIR`` (else the system's temporary
    directory), made as the map is checked, which fusion reads a slab at
    a time. So B external members over V
    views take B x V x C x 4 bytes per voxel of disk while the case runs,
    not of memory. Reading a map makes no staging copy of its values: it
    holds the child's file bytes and one slab, once per process slot. A
    noisy oracle also keeps its jittered labels with the case's mask (one
    volume of uint8 per jitter direction). Once the last prediction is
    done the case keeps only the volume's spacing; a map, and its file,
    outlives its case only if ``cache`` keeps it: a failed case drops its
    maps as it returns. While its rows are scored, a case holds its masks,
    the ground-truth side of its :class:`~segtta.metrics.CaseScorer`, and
    one stack of rows at a time: each row's surface (1 byte per voxel of
    the volume) and the transform of their stacked crops, at most
    ``metrics._PASS_VOXELS`` voxels of float64 unless a single row's crop
    is larger, as on large volumes, where each row is a stack of its own.

    Returns ``(reports, fg, seconds, None, events)``: per variant of
    ``variants`` the metric report (None without ground truth) and the
    fused foreground volume, the case's seconds per stage (building the
    views, and hashing the normalized volume for ``cache``, counts as
    loading), and the case's events, in the order they happened, each
    stamped with its time (see :class:`EventLog`), an external child's
    ``log`` events among them; the last is ``case_done``, which carries
    the stage seconds and ``views_built``: the augmented views the case
    built, in config order. A case that fails with a SegTTAError returns
    ``(None, None, seconds, reason, events)``, its events ending in
    ``case_failed``. The case writes nothing to the run's log itself.
    """
    case_id = entry.case_id
    seconds = dict.fromkeys(_STAGES, 0.0)
    events = _CaseEvents()

    def failure(stage: str, e: SegTTAError, **where):
        events.emit("case_failed", case=case_id, **where, error=str(e),
                    error_type=type(e).__name__)
        return None, None, seconds, f"{stage}: {e}", events

    @contextlib.contextmanager
    def clock(stage: str):
        """Add the block's seconds to ``seconds[stage]``, however it ends."""
        t = time.monotonic()
        try:
            yield
        finally:
            seconds[stage] += time.monotonic() - t

    try:
        with clock("load_s"):
            volume = nifti.read_volume(entry.image)
            volume = Volume(volume.data, volume.spacing, vol_id=case_id)
            gt = None
            if entry.label:
                header, gt = nifti._read_label_mask(entry.label, entry.num_classes)
                if gt.dims != volume.dims:
                    raise DimensionMismatch(
                        f"label dims {gt.dims} != image dims {volume.dims}")
                _check_spacing(header.spacing, volume.spacing, "label", "image")
            volume = normalize_intensity(volume)
            digest = cache._volume_hash(volume) if cache is not None else None
    except SegTTAError as e:
        return failure("load", e)
    events.emit("case_loaded", case=case_id, views=list(pairs))
    specs = {spec.label(): spec for spec in config.augmentations}
    views_built = []

    def build(view: str) -> Volume:
        if view == BASELINE_VIEW or view not in read_views:
            return volume
        views_built.append(view)
        with clock("load_s"):
            return augment.apply(
                specs[view], volume, augmentation_rng(config.seed, case_id, view))

    def predict(tag: str, backend, view: str, image: Volume) -> ProbabilityMap:
        t = time.monotonic()
        with clock("predict_s"):
            if cache is not None:
                key = cache.key(backend.to_dict(), view, digest, config.seed,
                                num_classes)
                cached = cache.get(key)
                if cached is not None:
                    events.emit("prediction", case=case_id, backend=backend.name,
                                view=view, cached=True)
                    return cached.retagged(tag)
            rng = prediction_rng(config.seed, case_id, backend.name, view)
            with (process_slots if backend.kind == "external"
                  else contextlib.nullcontext()):
                pmap = backends.predict(
                    backend, image, num_classes, rng,
                    ground_truth=gt, source_tag=tag, log=events,
                )
            if cache is not None:
                cache.put(key, pmap)
            events.emit("prediction", case=case_id, backend=backend.name,
                        view=view, cached=False,
                        elapsed_s=round(time.monotonic() - t, 4))
            return pmap

    maps, views = [], []  # in prediction order, each map beside its view
    failed = None  # (tag, backend, view, error) of the smallest failing tag
    try:
        for view, view_pairs in pairs.items():
            image = build(view)
            for tag, backend in view_pairs:
                if failed is not None and tag > failed[0]:
                    break
                try:
                    maps.append(predict(tag, backend, view, image))
                    views.append(view)
                except SegTTAError as e:
                    # Without its traceback, which holds this frame, the
                    # error keeps no map alive once the case returns.
                    failed = tag, backend, view, e.with_traceback(None)
            image = None  # at most one view of the case is alive
    except SegTTAError as e:  # a view that cannot be built
        return failure("load", e)
    if failed is not None:
        tag, backend, view, e = failed
        return failure(tag, e, backend=backend.name, view=view)
    spacing = volume.spacing
    volume = None  # only prediction reads the views

    try:
        with clock("fuse_s"):
            masks = fuse_groups(
                config.voting, maps, views,
                [(view_set, tau) for _, view_set, tau in variants],
            ) if variants else []
            maps = None  # the case holds its masks, not its maps, while it is scored
    except SegTTAError as e:  # a map file that cannot be read
        return failure("fuse", e)

    with clock("score_s"):
        names = [name for name, _, _ in variants]
        fg = {name: foreground_volume(mask, spacing) for name, mask in zip(names, masks)}
        scored = (CaseScorer(gt, spacing).evaluate(masks) if gt is not None
                  else [None] * len(masks))
        reports = dict(zip(names, scored))
    with clock("write_s"):
        for (name, _, _), mask in zip(variants, masks):
            if name in mask_dirs:
                nifti.write_label_mask(
                    mask, spacing, mask_dirs[name] / f"{case_id}.nii.gz")
    events.emit("case_done", case=case_id, views_built=views_built,
                **{stage: round(s, 6) for stage, s in seconds.items()})
    return reports, fg, seconds, None, events


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MiB (2**20 bytes):
    ``VmHWM`` of ``/proc/self/status`` where that file exists, else
    ``ru_maxrss``, which is in bytes on macOS and in KiB elsewhere.
    ``ru_maxrss`` also counts, across exec, the peak of the process that
    launched this one; ``VmHWM`` counts this process alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # its "kB" are KiB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024 ** (2 if sys.platform == "darwin" else 1)


def _run_variants(config: RunConfig, manifest: DatasetManifest, variants,
                  reference, result_config: dict, out_dir, masks: dict,
                  cache: PredictionCache | None, log: EventLog | None) -> RunResult:
    """Plan the experiment once, run every case through :func:`_run_case`
    with that plan, and shape the result.

    ``masks`` maps a variant name to the directory under ``out_dir`` that
    receives its masks; nothing is written without an output directory.
    Every case's mask path in every such directory is checked writable
    before anything is logged or read. Each case's events go to ``log``
    as the pool hands back that case, so the log is in manifest order.
    Without a cache nothing is hashed or kept across cases.
    """
    mask_dirs = (
        {name: Path(out_dir) / sub for name, sub in masks.items()}
        if out_dir is not None else {}
    )
    for mask_dir in mask_dirs.values():
        for entry in manifest.entries:
            _check_writable(mask_dir / f"{entry.case_id}.nii.gz")
    started = time.monotonic()
    log = log if log is not None else EventLog(None)
    log.emit("run_start", dataset=manifest.name, config=result_config)
    pairs = {
        view: sorted(((source_tag(backend.name, view), backend)
                      for backend in config.backends
                      if config.subset is None or (backend.name, view) in config.subset),
                     key=lambda pair: pair[0])
        for view in config.views
    }
    read_views = frozenset(
        view for view, view_pairs in pairs.items()
        if any(backends.reads_voxels(backend) for _, backend in view_pairs))
    run_case = functools.partial(
        _run_case, config=config, pairs=pairs, read_views=read_views,
        variants=[(name, frozenset(views), tau) for name, views, tau in variants
                  if any(pairs[view] for view in views)],
        num_classes=manifest.num_classes, mask_dirs=mask_dirs, cache=cache,
        process_slots=threading.Semaphore(config.process_jobs),
    )
    per_case: dict = {}
    fg_volume: dict = {}
    failures = []
    timings = dict.fromkeys(_STAGES, 0.0)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        outcomes = pool.map(run_case, manifest.entries)
        for entry, (reports, fg, seconds, failure, events) in zip(
                manifest.entries, outcomes):
            for t, event, fields in events:
                log.emit(event, t=t, **fields)
            for stage in _STAGES:
                timings[stage] += seconds[stage]
            if failure is not None:
                failures.append((entry.case_id, failure))
            else:
                per_case[entry.case_id] = reports
                fg_volume[entry.case_id] = fg
    for stage, total in timings.items():
        log.emit("stage", stage=stage, seconds=round(total, 6))
    names = [name for name, _, _ in variants]
    timings["wall_s"] = time.monotonic() - started
    timings["peak_rss_mb"] = _peak_rss_mb()
    log.emit("run_done", dataset=manifest.name, cases=len(per_case),
             failures=len(failures), wall_s=round(timings["wall_s"], 6),
             peak_rss_mb=timings["peak_rss_mb"])
    return RunResult(
        dataset=manifest.name,
        num_classes=manifest.num_classes,
        variants=names,
        reference=reference,
        per_case=per_case,
        fg_volume=fg_volume,
        aggregates=_aggregate(per_case, fg_volume, names),
        failures=failures,
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
    views = config.views
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
    views = config.views
    variants = [("full", views, config.tau)]
    if config.include_baseline:
        variants.insert(0, (BASELINE_VIEW, (BASELINE_VIEW,), config.tau))
    variants += [
        (f"w/o {spec.label()}",
         tuple(view for view in views if view != spec.label()), config.tau)
        for spec in config.augmentations
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
    row for deltas is tau=DEFAULT_TAU when present, else the first. Thresholds
    whose ``tau=<t>`` row names coincide raise ConfigError.
    """
    taus = [_check_tau(t) for t in taus]
    if not taus:
        raise ConfigError(f"sweep taus {taus} hold no threshold")
    variants = [(f"tau={t:g}", config.views, t) for t in taus]
    names = [name for name, _, _ in variants]
    if len(set(names)) != len(names):
        raise ConfigError(f"sweep taus {taus} must name distinct rows, got {names}")
    reference = next(
        (name for name, _, t in variants if abs(t - DEFAULT_TAU) < 1e-12),
        variants[0][0],
    )
    return _run_variants(
        config, manifest, variants, reference=reference,
        result_config={**config.to_dict(), "experiment": "sweep", "taus": taus},
        out_dir=out_dir, masks={name: f"masks/{name}" for name, _, _ in variants},
        cache=cache, log=log,
    )
