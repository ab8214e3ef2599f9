"""Experiment configuration: backend descriptors, run configs, manifests.

A run is fully described by a JSON config document plus a JSON dataset
manifest, so experiments are archivable and diffable. CLI flags override
individual config fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
import json
import re
from pathlib import Path

from .core import (
    MAX_CLASSES, AugmentationSpec, _check_field_types, _check_fields,
    _check_json, _check_kind, default_augmentations,
)
from .errors import ConfigError, IoFailure
from .fusion import DEFAULT_TAU, DEFAULT_VOTING, _check_mode, _check_tau

#: The fields each backend kind uses besides ``kind`` and ``name``.
_KIND_FIELDS = {
    "oracle": ("confidence",),
    "noisy_oracle": ("confidence", "jitter", "flip_prob"),
    "constant": ("constant_class",),
    "external": ("command", "timeout"),
}
BACKEND_KINDS = tuple(_KIND_FIELDS)

DEFAULT_SEED = 2024

#: The largest external ``timeout``, in seconds (about 24.8 days): the
#: child's pipes are waited on by ``poll``, which takes whole milliseconds
#: in a C int.
MAX_TIMEOUT = (2 ** 31 - 1) / 1000

#: The view label of the un-augmented volume.
BASELINE_VIEW = "baseline"


@dataclass(frozen=True)
class BackendDescriptor:
    """One segmentation backend: a synthetic stand-in or an external process.

    kinds and their parameters:

    * ``oracle``: softened one-hot of the case's own label mask, which the
      pipeline passes to :func:`backends.predict`; ``confidence`` is the
      probability assigned to the true class (the rest is shared evenly).
    * ``noisy_oracle``: the oracle after jittering the foreground boundary
      by ``jitter`` voxels (dilate or erode, seeded direction) and flipping
      each voxel's class with probability ``flip_prob``.
    * ``constant``: one-hot of ``constant_class`` everywhere.
    * ``external``: runs ``command`` with ``{input}``/``{output}``/
      ``{classes}`` substituted, exchanging float32 NIfTI files.

    ``name`` identifies the backend in source tags and RNG stream keys and
    must be unique within a run config. ``timeout`` is in seconds, in
    ``(0, MAX_TIMEOUT]``. A field the kind does not use must keep its
    default; any other value is rejected.
    """

    kind: str
    name: str = ""
    confidence: float = 1.0
    jitter: int = 0
    flip_prob: float = 0.0
    constant_class: int = 0
    command: str | None = None
    timeout: float = 60.0

    def __post_init__(self):
        _check_kind(self, "backend", _KIND_FIELDS, always=("name",))
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError(f"flip_prob={self.flip_prob!r} outside [0, 1]")
        if not (0.0 < self.confidence <= 1.0):
            raise ConfigError(f"confidence={self.confidence!r} outside (0, 1]")
        if self.jitter < 0:
            raise ConfigError(f"jitter={self.jitter!r} must be >= 0")
        if self.constant_class < 0:
            raise ConfigError(f"constant_class={self.constant_class!r} must be >= 0")
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ConfigError(
                f"timeout={self.timeout!r} must be in (0, {MAX_TIMEOUT}] seconds")
        if self.kind == "external" and not self.command:
            raise ConfigError("external backend needs a command template")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                **{field: getattr(self, field) for field in _KIND_FIELDS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict) -> "BackendDescriptor":
        return cls(**_check_fields(d, {"kind": "string"}, "backend",
                                   optional=[f.name for f in fields(cls)]))


@dataclass(frozen=True)
class RunConfig:
    """The complete experiment description.

    ``subset`` optionally restricts the backend x view cross product to the
    listed ``(backend name, view label)`` pairs, each naming a backend and
    one of :attr:`views`; augmentation labels must be unique. ``jobs`` is
    the number of cases in flight: each worker loads, predicts, fuses and
    scores one case at a time. ``process_jobs`` bounds the external model processes running at
    once across those workers. Neither affects results. A config must
    predict something: it needs a view (the baseline or an augmentation),
    and a ``subset``, when given, at least one pair. Each external
    backend's ``command`` must hold ``{output}`` and no placeholder
    ``backends`` does not fill: a ``{name}`` of letters, digits and
    underscores, not after a ``$`` and not inside single quotes, other
    than ``{input}``, ``{output}`` and ``{classes}``. Either is a
    ConfigError naming the backend (unnamed ones are named ``b0``,
    ``b1``, ... by position) and the placeholder.
    """

    backends: tuple[BackendDescriptor, ...]
    augmentations: tuple[AugmentationSpec, ...] = ()
    voting: str = DEFAULT_VOTING
    tau: float = DEFAULT_TAU
    seed: int = DEFAULT_SEED
    include_baseline: bool = True
    jobs: int = 1
    process_jobs: int = 1
    subset: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        _check_field_types(self)
        for field, cls in (("backends", BackendDescriptor),
                           ("augmentations", AugmentationSpec)):
            items = getattr(self, field)
            if not isinstance(items, (list, tuple)):
                raise ConfigError(f"config field {field!r} must be a tuple of "
                                  f"{cls.__name__}, got {type(items).__name__}")
            for i, item in enumerate(items):
                if not isinstance(item, cls):
                    raise ConfigError(f"config field {field!r} item {i} must be "
                                      f"{cls.__name__}, got {type(item).__name__}")
            object.__setattr__(self, field, tuple(items))
        if not self.backends:
            raise ConfigError("config needs at least one backend")
        named = tuple(
            b if b.name else replace(b, name=f"b{i}") for i, b in enumerate(self.backends)
        )
        names = [b.name for b in named]
        if len(set(names)) != len(names):
            raise ConfigError(f"backend names must be unique, got {names}")
        for b in named:
            if b.kind == "external":
                _check_placeholders(b)
        object.__setattr__(self, "backends", named)
        labels = [spec.label() for spec in self.augmentations]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"augmentation labels must be unique, got {labels}")
        if not self.views:
            raise ConfigError("config has no view: 'include_baseline' is false "
                              "and 'augmentations' is empty")
        _check_mode(self.voting)
        _check_tau(self.tau)
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be non-negative")
        if self.jobs < 1 or self.process_jobs < 1:
            raise ConfigError("jobs and process_jobs must be >= 1")
        if self.subset is not None:
            if not (isinstance(self.subset, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)
                for pair in self.subset
            )):
                raise ConfigError(
                    f"config field 'subset' must be a list of [backend, view] "
                    f"string pairs, got {self.subset!r}"
                )
            object.__setattr__(self, "subset", tuple(map(tuple, self.subset)))
            if not self.subset:
                raise ConfigError("config field 'subset' holds no pair; leave it "
                                  "out to predict every backend on every view")
            unknown = [[b, v] for b, v in self.subset
                       if b not in names or v not in self.views]
            if unknown:
                raise ConfigError(f"config field 'subset' has pairs that name no "
                                  f"backend or view of the config: {json.dumps(unknown)}")

    @property
    def views(self) -> tuple[str, ...]:
        """The views the config fuses, in config order: ``BASELINE_VIEW``
        when included, then each augmentation's label."""
        return ((BASELINE_VIEW,) if self.include_baseline else ()) + tuple(
            spec.label() for spec in self.augmentations)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["backends"] = [b.to_dict() for b in self.backends]
        d["augmentations"] = [a.to_dict() for a in self.augmentations]
        if d.pop("subset") is not None:  # left out when None
            d["subset"] = [list(pair) for pair in self.subset]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config of a JSON document, whose ``augmentations`` are
        :func:`default_augmentations` when it leaves them out. This checks
        the document's keys, and that ``backends`` and ``augmentations``
        are lists of objects; the constructors check every value."""
        kwargs = dict(_check_fields(d, {"backends": "list"}, "config",
                                    optional=[f.name for f in fields(cls)]))
        kwargs["backends"] = _objects(d, "backends", BackendDescriptor)
        kwargs["augmentations"] = (
            _objects(d, "augmentations", AugmentationSpec)
            if "augmentations" in d else default_augmentations()
        )
        return cls(**kwargs)


#: The placeholders an external command may hold, which ``backends``
#: fills; a shell's ``${name}``, and single-quoted text such as an awk,
#: sed or jq program's ``'{print}'``, is not one.
_COMMAND_PLACEHOLDERS = ("{input}", "{output}", "{classes}")
_PLACEHOLDER = re.compile(r"(?<!\$)\{\w+\}")
_SINGLE_QUOTED = re.compile(r"'[^']*'")


def _check_placeholders(backend: BackendDescriptor) -> None:
    """Raise ConfigError naming ``backend`` and the placeholder unless its
    command holds ``{output}`` and no placeholder outside
    _COMMAND_PLACEHOLDERS."""
    unquoted = _SINGLE_QUOTED.sub("''", backend.command)
    unknown = [p for p in _PLACEHOLDER.findall(unquoted)
               if p not in _COMMAND_PLACEHOLDERS]
    if unknown:
        raise ConfigError(f"external backend {backend.name!r} command has "
                          f"unknown placeholder {unknown[0]}; it may use "
                          f"{', '.join(_COMMAND_PLACEHOLDERS)}")
    if "{output}" not in backend.command:
        raise ConfigError(f"external backend {backend.name!r} command has no "
                          f"{{output}} placeholder, so its map cannot be read")


def _objects(d: dict, field: str, cls) -> tuple:
    """Config field ``field``, a JSON list of objects, each made a ``cls``."""
    where = f"config field {field!r}"
    return tuple(cls.from_dict(_check_json(value, "object", f"{where} item"))
                 for value in _check_json(d[field], "list", where))


def _read_json(path):
    """The JSON document at ``path``; a missing or unreadable file raises
    IoFailure and malformed JSON, or a string that is not Unicode text (a
    lone surrogate escape), a ConfigError, each naming the path."""
    try:
        with open(path) as f:
            doc = json.load(f)
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError/EncodeError
        raise ConfigError(f"{path}: malformed JSON: {e}") from e


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_check_json(_read_json(path), "object", f"config {path}"))


@dataclass(frozen=True)
class ManifestEntry:
    """One case: its id, image path, class count and label path, if any.
    The id names the case's mask file, so it must be a plain file name,
    which keeps that file inside the run's output directory. An empty
    ``image`` or ``label`` path is a ConfigError: an empty label read as
    "no label" would leave the case unscored."""

    case_id: str
    image: str
    num_classes: int
    label: str | None = None

    def __post_init__(self):
        _check_field_types(self)
        if self.case_id in ("", ".", "..") or any(c in self.case_id for c in "/\\\0"):
            raise ConfigError(f"case {self.case_id!r} field 'id' is not a plain file name")
        for name in ("image", "label"):
            if getattr(self, name) == "":
                raise ConfigError(f"case {self.case_id!r} field {name!r} is an empty path")


@dataclass(frozen=True)
class DatasetManifest:
    """Points the pipeline at local volumes: one entry per case."""

    name: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ConfigError("manifest has no cases")
        ids = [e.case_id for e in entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate case ids in manifest: {dupes}")
        classes = {e.num_classes for e in entries}
        if len(classes) != 1:
            raise ConfigError(f"num_classes differs across entries: {sorted(classes)}")
        if not 2 <= entries[0].num_classes <= MAX_CLASSES:
            raise ConfigError(f"num_classes={entries[0].num_classes} outside "
                              f"[2, {MAX_CLASSES}]")
        object.__setattr__(self, "entries", entries)

    @property
    def num_classes(self) -> int:
        return self.entries[0].num_classes


#: The JSON type of each field of a manifest case; "label" is optional.
_CASE_FIELDS = {"id": "string", "image": "string", "classes": "integer"}


def load_manifest(path) -> DatasetManifest:
    """Load a manifest: a JSON list of {id, image, label?, classes}.

    Relative image/label paths are resolved against the manifest's
    directory. The dataset name is the manifest file's stem. A case
    without a label omits ``label`` or sets it to null. This checks the
    document's keys and JSON types; the constructors check the rules, and
    their errors here also name the manifest (and the case's index, for a
    case's own rules).
    """
    path = Path(path)
    base = path.parent
    entries = []
    for i, item in enumerate(_check_json(_read_json(path), "list", f"manifest {path}")):
        where = f"{path}: case {i}"
        if not isinstance(item, dict):
            raise ConfigError(f"{where} must be a JSON object, got {type(item).__name__}")
        _check_fields(item, _CASE_FIELDS, where, optional={"label"})
        label = _check_json(item.get("label"), "string or null",
                            f"{where} field 'label'")
        # Built on the paths as written, so that an empty one is seen.
        try:
            entry = ManifestEntry(item["id"], item["image"], item["classes"], label)
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from e
        entries.append(replace(entry, image=str(base / entry.image),
                               label=entry.label and str(base / entry.label)))
    try:
        return DatasetManifest(name=path.stem, entries=tuple(entries))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
