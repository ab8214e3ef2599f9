"""Experiment configuration: backend descriptors, run configs, manifests.

A run is fully described by a JSON config document plus a JSON dataset
manifest, so experiments are archivable and diffable. CLI flags override
individual config fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import json
import math
from pathlib import Path

from .core import AugmentationSpec, default_augmentations
from .errors import SegTTAError
from .fusion import VOTING_MODES, _check_tau

BACKEND_KINDS = ("oracle", "noisy_oracle", "constant", "external")

DEFAULT_SEED = 2024
DEFAULT_TAU = 0.6


@dataclass(frozen=True)
class BackendDescriptor:
    """One segmentation backend: a synthetic stand-in or an external process.

    kinds and their parameters:

    * ``oracle``: softened one-of the ground truth; ``confidence`` is the
      probability assigned to the true class (the rest is shared evenly).
    * ``noisy_oracle``: the oracle after jittering the foreground boundary
      by ``jitter`` voxels (dilate or erode, seeded direction) and flipping
      each voxel's class with probability ``flip_prob``.
    * ``constant``: one-hot of ``constant_class`` everywhere.
    * ``external``: runs ``command`` with ``{input}``/``{output}``/
      ``{classes}`` substituted, exchanging float32 NIfTI files.

    ``ground_truth`` optionally points oracle kinds at a fixed label file;
    otherwise the pipeline supplies the case's own label mask. ``name``
    identifies the backend in source tags and RNG stream keys and must be
    unique within a run config.
    """

    kind: str
    name: str = ""
    ground_truth: str | None = None
    confidence: float = 1.0
    jitter: int = 0
    flip_prob: float = 0.0
    constant_class: int = 0
    command: str | None = None
    timeout: float = 60.0

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError(f"flip_prob={self.flip_prob!r} outside [0, 1]")
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence={self.confidence!r} outside (0, 1]")
        if self.jitter < 0:
            raise ValueError(f"jitter={self.jitter!r} must be >= 0")
        if self.constant_class < 0:
            raise ValueError(f"constant_class={self.constant_class!r} must be >= 0")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout={self.timeout!r} must be finite and > 0")
        if self.kind == "external" and not self.command:
            raise ValueError("external backend needs a command template")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "name": self.name}
        if self.kind in ("oracle", "noisy_oracle"):
            d["confidence"] = self.confidence
            if self.ground_truth is not None:
                d["ground_truth"] = self.ground_truth
        if self.kind == "noisy_oracle":
            d["jitter"] = self.jitter
            d["flip_prob"] = self.flip_prob
        if self.kind == "constant":
            d["constant_class"] = self.constant_class
        if self.kind == "external":
            d["command"] = self.command
            d["timeout"] = self.timeout
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BackendDescriptor":
        known = {
            "kind", "name", "ground_truth", "confidence", "jitter",
            "flip_prob", "constant_class", "command", "timeout",
        }
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown backend fields {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class RunConfig:
    """The complete experiment description.

    ``subset`` optionally restricts the backend x view cross product to the
    listed ``(backend name, view label)`` pairs; views are "baseline" or an
    augmentation's canonical label. ``jobs`` bounds the prediction worker
    pool and ``process_jobs`` additionally bounds concurrent external
    processes; neither affects results.
    """

    backends: tuple[BackendDescriptor, ...]
    augmentations: tuple[AugmentationSpec, ...] = ()
    voting: str = "threshold_weighted"
    tau: float = DEFAULT_TAU
    seed: int = DEFAULT_SEED
    include_baseline: bool = True
    jobs: int = 1
    process_jobs: int = 1
    subset: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        backends = tuple(self.backends)
        if not backends:
            raise ValueError("config needs at least one backend")
        named = tuple(
            b if b.name else replace(b, name=f"b{i}") for i, b in enumerate(backends)
        )
        names = [b.name for b in named]
        if len(set(names)) != len(names):
            raise ValueError(f"backend names must be unique, got {names}")
        object.__setattr__(self, "backends", named)
        object.__setattr__(self, "augmentations", tuple(self.augmentations))
        if self.voting not in VOTING_MODES:
            raise ValueError(f"voting={self.voting!r} not in {VOTING_MODES}")
        _check_tau(self.tau)
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")
        if self.jobs < 1 or self.process_jobs < 1:
            raise ValueError("jobs and process_jobs must be >= 1")
        if self.subset is not None:
            object.__setattr__(
                self, "subset", tuple((str(b), str(v)) for b, v in self.subset)
            )

    def to_dict(self) -> dict:
        d = {
            "backends": [b.to_dict() for b in self.backends],
            "augmentations": [a.to_dict() for a in self.augmentations],
            "voting": self.voting,
            "tau": self.tau,
            "seed": self.seed,
            "include_baseline": self.include_baseline,
            "jobs": self.jobs,
            "process_jobs": self.process_jobs,
        }
        if self.subset is not None:
            d["subset"] = [list(pair) for pair in self.subset]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {
            "backends", "augmentations", "voting", "tau", "seed",
            "include_baseline", "jobs", "process_jobs", "subset",
        }
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config fields {sorted(extra)}")
        if "backends" not in d:
            raise ValueError("config needs a 'backends' list")
        kwargs = dict(d)
        kwargs["backends"] = tuple(
            BackendDescriptor.from_dict(b) for b in d["backends"]
        )
        if "augmentations" in d:
            kwargs["augmentations"] = tuple(
                AugmentationSpec.from_dict(a) for a in d["augmentations"]
            )
        else:
            kwargs["augmentations"] = default_augmentations()
        if "subset" in d and d["subset"] is not None:
            kwargs["subset"] = tuple((p[0], p[1]) for p in d["subset"])
        return cls(**kwargs)


def load_config(path) -> RunConfig:
    with open(path) as f:
        return RunConfig.from_dict(json.load(f))


def save_config(config: RunConfig, path):
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass(frozen=True)
class ManifestEntry:
    case_id: str
    image: str
    num_classes: int
    label: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Points the pipeline at local volumes: one entry per case."""

    name: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("manifest has no cases")
        ids = [e.case_id for e in entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate case ids in manifest: {dupes}")
        classes = {e.num_classes for e in entries}
        if len(classes) != 1:
            raise ValueError(f"num_classes differs across entries: {sorted(classes)}")
        if entries[0].num_classes < 2:
            raise ValueError(f"num_classes={entries[0].num_classes} must be >= 2")
        object.__setattr__(self, "entries", entries)

    @property
    def num_classes(self) -> int:
        return self.entries[0].num_classes


def load_manifest(path) -> DatasetManifest:
    """Load a manifest: a JSON list of {id, image, label?, classes}.

    Relative image/label paths are resolved against the manifest's
    directory. The dataset name is the manifest file's stem.
    """
    path = Path(path)
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise SegTTAError(f"{path}: manifest must be a JSON list of cases")
    base = path.parent
    entries = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SegTTAError(
                f"{path}: case {i} must be a JSON object, got {type(item).__name__}"
            )
        extra = set(item) - {"id", "image", "label", "classes"}
        if extra:
            raise SegTTAError(f"{path}: case {i} has unknown fields {sorted(extra)}")
        missing = [f for f in ("id", "image", "classes") if f not in item]
        if missing:
            raise SegTTAError(f"{path}: case {i} is missing field {missing[0]!r}")
        for field in ("id", "image", "label"):
            value = item.get(field)
            if not isinstance(value, str) and not (field == "label" and value is None):
                raise SegTTAError(
                    f"{path}: case {i} field {field!r} must be a string, "
                    f"got {type(value).__name__}"
                )
        try:
            num_classes = int(item["classes"])
        except (TypeError, ValueError) as e:
            raise SegTTAError(
                f"{path}: case {i} field 'classes' must be an integer: {e}"
            ) from e
        label = item.get("label")
        entries.append(
            ManifestEntry(
                case_id=item["id"],
                image=str(base / item["image"]),
                num_classes=num_classes,
                label=str(base / label) if label else None,
            )
        )
    return DatasetManifest(name=path.stem, entries=tuple(entries))
