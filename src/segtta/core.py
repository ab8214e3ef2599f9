"""Shared domain objects: volumes, masks, probability maps, and specs.

All types are immutable after construction (frozen dataclasses over
read-only numpy arrays), so they are safe to share across worker threads.
One rule decides what an array-holding type holds (:func:`_held`): the
array it is handed when that array is read-only, owns its memory, is
C-ordered and has the type's dtype, else one read-only C-ordered copy,
so no view of a caller's writable memory is ever held. Code in this
package hands over the arrays it makes frozen (:func:`_freeze`), so they
are not copied. The array-holding types compare and hash by identity.
A probability map is held in a compact form: a table of class rows and
uint8 labels, its values in its own float width, or those values in a
file on disk, which is how a map read from a file is held: in a file
made as it is checked. It yields float64 values a slab of first-axis
rows at a time (:func:`slabs`), so no float64 copy of a whole map need
exist.
Arrays are indexed ``[x, y, z]`` throughout; file readers convert whatever
layout is on disk into this convention.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import KW_ONLY, InitVar, dataclass, fields
import math
import numbers
import os
from pathlib import Path
import tempfile
import threading
import weakref

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidAlpha,
    InvalidGamma,
    InvalidLabels,
    InvalidSigma,
    InvalidVolume,
    IoFailure,
    MapFileFailure,
    NotProbabilistic,
)

#: Tolerance accepted from backends before a map is rejected as
#: non-probabilistic. Values within this band are clamped/renormalized.
PROB_TOL = 1e-3

#: Renormalization skips voxels already summing to 1 within this bound,
#: which makes renormalization exactly idempotent.
RENORM_TOL = 1e-12

#: Most classes a map, mask or dataset may have: labels are stored as uint8.
MAX_CLASSES = 256

#: Widest blur kernel, as its radius ceil(3*sigma) in voxels. A kernel of
#: 2*256+1 weights already spans a 512-voxel axis; a wider one only grows
#: the padded copy the blur makes of each axis it smooths.
MAX_BLUR_RADIUS = 256


_SCALAR_TYPES = {
    "bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str,
}


def _check_field_types(obj) -> None:
    """Raise ConfigError naming the first field of dataclass ``obj`` whose
    value does not match its scalar annotation (``bool``, ``int``,
    ``float`` or ``str``, optionally ``| None``). A bool is not a number.
    A numpy scalar is accepted and stored as the Python value ``.item()``
    gives, so labels and JSON see what a config file's number gives.
    Fields of other types are left to their own checks.
    """
    for f in fields(obj):
        kind, _, rest = f.type.partition(" | ")
        if kind not in _SCALAR_TYPES:
            continue
        value = getattr(obj, f.name)
        if value is None and rest == "None":
            continue
        if (isinstance(value, bool) != (kind == "bool")
                or not isinstance(value, _SCALAR_TYPES[kind])):
            raise ConfigError(
                f"{type(obj).__name__} field {f.name!r} must be {kind}"
                f"{' or null' if rest else ''}, got {value!r}"
            )
        if isinstance(value, np.generic):
            object.__setattr__(obj, f.name, value.item())


#: JSON type names of the Python types ``json.load`` returns; an
#: "integer" is also a "number".
_JSON_TYPES = {
    dict: "object", list: "list", str: "string", int: "integer",
    float: "number", bool: "boolean", type(None): "null",
}


def _check_kind(obj, what: str, kinds: dict, always=()) -> None:
    """Raise ConfigError unless dataclass ``obj`` has fields of their
    scalar types (:func:`_check_field_types`) and a ``kind`` among
    ``kinds``, and keeps at their defaults the fields that its kind does
    not use: those outside ``kind``, ``always`` and ``kinds[obj.kind]``.
    ``what`` names the object in the message."""
    _check_field_types(obj)
    if obj.kind not in kinds:
        raise ConfigError(f"unknown {what} kind {obj.kind!r}")
    used = ("kind", *always, *kinds[obj.kind])
    unused = [f.name for f in fields(obj)
              if f.name not in used and getattr(obj, f.name) != f.default]
    if unused:
        raise ConfigError(f"{what} kind {obj.kind!r} does not use {unused}")


def _check_json(value, kind: str, where: str):
    """``value``, after checking that its JSON type is one of ``kind``
    (say ``"string or null"``); else a ConfigError naming ``where``."""
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    if got == "integer" and abs(value) > 2 ** 53:  # not exact as a float
        got = "integer beyond 2**53"
    if got not in kind.split(" or ") and not (got == "integer" and "number" in kind):
        raise ConfigError(f"{where} must be {kind}, got {got}")
    return value


def _check_fields(d, kinds: dict, where: str, optional=()) -> dict:
    """JSON object ``d``, after checking that it holds every key of
    ``kinds`` with a value of that JSON type and no key outside ``kinds``
    and ``optional``; else a ConfigError naming ``where`` and the first key
    missing or mistyped, or the unknown keys."""
    _check_json(d, "object", where)
    for key, kind in kinds.items():
        if key not in d:
            raise ConfigError(f"{where} has no {key!r} field")
        _check_json(d[key], kind, f"{where} field {key!r}")
    extra = set(d) - {*kinds, *optional}
    if extra:
        raise ConfigError(f"{where} has unknown fields {sorted(extra)}")
    return d


#: Voxels per slab: a map is checked and fused this many voxels at a time,
#: in whole planes of its first axis, so the float64 values and the votes
#: of one slab stay small whatever the volume.
SLAB_VOXELS = 2 ** 15


def slabs(dims) -> list[tuple[int, int]]:
    """The ``(a, b)`` row ranges that cut a volume of ``dims`` along its
    first axis into slabs of at most SLAB_VOXELS voxels (at least one
    plane each); the last one may be shorter."""
    step = max(1, SLAB_VOXELS // max(1, dims[1] * dims[2]))
    return [(a, min(a + step, dims[0])) for a in range(0, dims[0], step)]


def _plane_sum(arr: np.ndarray) -> np.ndarray:
    """Sum over the last (class) axis, adding one class plane after another."""
    out = arr[..., 0] + arr[..., 1]
    for c in range(2, arr.shape[-1]):
        out += arr[..., c]
    return out


def scaled(arr: np.ndarray, scale: tuple[float, float]) -> np.ndarray:
    """``arr`` times ``scale[0]`` plus ``scale[1]`` in a new C-ordered
    float64 array: how a NIfTI file's scl_slope and scl_inter apply."""
    # Widened first: float32 times a Python float stays float32.
    out = arr.astype(np.float64, order="C")
    out *= scale[0]
    out += scale[1]
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr``, an array the caller made and gives up, read-only and
    C-ordered: itself, made read-only in place, when it is C-ordered, else
    a copy."""
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _held(data, dtype) -> np.ndarray:
    """``data`` as a core type holds it: itself when it is a read-only
    array that owns its memory, is C-ordered and has ``dtype``; else one
    read-only C-ordered copy of it in ``dtype``."""
    if (isinstance(data, np.ndarray) and data.dtype == dtype
            and not data.flags.writeable and data.flags.owndata
            and data.flags.c_contiguous):
        return data
    out = np.array(data, dtype, order="C")
    out.setflags(write=False)
    return out


def _label_volume(labels, bound: int, what: str, rows: str = "") -> np.ndarray:
    """``labels``, a 3D volume (else DimensionMismatch naming ``what``) of
    integers in ``[0, bound)`` (else InvalidLabels; ``rows`` names that
    range), held as uint8 by :func:`_held`. ``bound`` is at most
    MAX_CLASSES."""
    arr = np.asarray(labels)
    if arr.ndim != 3:
        raise DimensionMismatch(f"{what} must be 3D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InvalidLabels(f"labels must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise InvalidLabels(f"labels range [{arr.min()}, {arr.max()}] outside "
                            f"{rows}[0, {bound})")
    return _held(arr, np.uint8)


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in millimeters along each axis."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidVolume(f"spacing {name}={v!r} must be finite and > 0")

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in mm^3."""
        return self.dx * self.dy * self.dz

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)


#: Relative tolerance between two spacings that must agree, such as a
#: label's and its image's; both come from float32 pixdim fields.
SPACING_RTOL = 1e-5


def _check_spacing(spacing: Spacing, reference: Spacing, what: str, against: str):
    """Raise DimensionMismatch naming both spacings unless ``spacing`` (of
    ``what``) equals ``reference`` (of ``against``) within SPACING_RTOL."""
    a, b = spacing.as_tuple(), reference.as_tuple()
    if not all(math.isclose(x, y, rel_tol=SPACING_RTOL) for x, y in zip(a, b)):
        raise DimensionMismatch(f"{what} spacing {a} != {against} spacing {b}")


@dataclass(frozen=True, eq=False)
class Volume:
    """A 3D scalar intensity grid with physical voxel spacing.

    ``data`` has shape ``(nx, ny, nz)`` and dtype float64; every element
    must be finite. It is held by :func:`_held`: a read-only C-ordered
    float64 array that owns its memory as is, anything else as a copy.
    ``vol_id`` identifies the volume in RNG stream keys and run logs, so
    two volumes with equal data but different ids are distinct for
    reproducibility purposes.
    """

    data: np.ndarray
    spacing: Spacing
    vol_id: str = ""

    def __post_init__(self):
        arr = _held(self.data, np.float64)
        if arr.ndim != 3:
            raise DimensionMismatch(f"volume data must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise DimensionMismatch(f"volume dims must be >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidVolume(f"volume {self.vol_id!r} contains NaN or Inf values")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume":
        """New volume with the same spacing and id but different voxels:
        ``data`` is held as the constructor holds it, so it is copied unless
        the caller handed it over frozen (:func:`_freeze`)."""
        return Volume(data, self.spacing, self.vol_id)


def temp_dir() -> str:
    """Where the package makes its files while it runs (the files of maps
    read from NIfTI files, external models' exchange directories):
    ``SEGTTA_TMPDIR`` when set, else the system's temporary directory."""
    return os.environ.get("SEGTTA_TMPDIR") or tempfile.gettempdir()


@contextlib.contextmanager
def writing(path):
    """The one way the package writes a named file: ``path`` opened for
    writing bytes, its directory made first. An OSError while it is made,
    opened or written raises IoFailure naming the path. Callers write text
    as UTF-8. The one exception is a map file, which
    :class:`ProbabilityMap` makes with ``tempfile.mkstemp`` and whose
    failures are MapFileFailure."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as f:
            yield f
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def _check_writable(path) -> None:
    """Raise IoFailure naming ``path`` when :func:`writing` could not write
    it: it is a directory, or its nearest existing ancestor is not one.
    Each command checks every file it will write this way before it runs
    a case or reads a volume, map or result: the CLI its log, result and
    report, or its one output, and each experiment every case's mask in
    each of its mask directories."""
    path = Path(path)
    if path.is_dir():
        raise IoFailure(f"cannot write {path}: is a directory")
    parent = next(p for p in path.parents if p.exists())
    if not parent.is_dir():
        raise IoFailure(f"cannot write {path}: {parent} is not a directory")


def _remove_file(path: str) -> None:
    with contextlib.suppress(OSError):
        os.remove(path)


class _MapFile:
    """A map's values on disk: raw little-endian floats of its C-ordered
    ``(nx, ny, nz, C)`` array, read a slab of rows at a time as
    ``held[a:b]``. The maps that hold one file share this object; the file
    is removed when the last of them is collected, or at interpreter exit.
    """

    __slots__ = ("path", "shape", "dtype", "remove", "__weakref__")

    def __init__(self, path: str, shape: tuple, dtype: np.dtype):
        self.path, self.shape, self.dtype = path, shape, dtype
        self.remove = weakref.finalize(self, _remove_file, path)

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows ``rows.start:rows.stop`` (a step-1 slice within the map),
        read with one ``np.fromfile``: C order makes them contiguous. A
        missing or short file is an IoFailure naming it."""
        a, b = rows.start, rows.stop
        row = math.prod(self.shape[1:])
        try:
            values = np.fromfile(self.path, self.dtype, (b - a) * row,
                                 offset=a * row * self.dtype.itemsize)
        except OSError as e:
            raise IoFailure(f"cannot read map file {self.path}: {e}") from e
        if values.size != (b - a) * row:
            raise IoFailure(f"map file {self.path} is short: rows {a}:{b} "
                            f"need {(b - a) * row} values, found {values.size}")
        return values.reshape(b - a, *self.shape[1:])


class Memo:
    """A bounded memo keyed by content, shared by threads: at most ``kept``
    entries, the oldest going first, each lookup and store under one lock.
    Keys must be values (bytes, numbers, tuples of them), never object ids,
    which a collected object hands on to the next."""

    def __init__(self, kept: int):
        self.kept, self._entries, self._lock = kept, {}, threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, make):
        """The value kept for ``key``; else ``make()``'s, made outside the
        lock and then kept. Threads that make one key at once each get the
        value kept first. A ``make`` that raises keeps nothing."""
        with self._lock:
            if key in self._entries:
                return self._entries[key]
        value = make()
        with self._lock:
            value = self._entries.setdefault(key, value)
            if len(self._entries) > self.kept:
                del self._entries[next(iter(self._entries))]
        return value


#: Checked row tables of :meth:`ProbabilityMap.from_rows`, keyed by the
#: float table's content: {(dtype, shape, bytes): read-only float64 rows}.
#: A synthetic backend's table is one entry, shared by all its maps; past
#: ROW_TABLES_KEPT entries the oldest goes, so the memo holds at most
#: 16 MB even of 256-class tables (key and rows, 512 KB each).
ROW_TABLES_KEPT = 16
_checked_rows = Memo(ROW_TABLES_KEPT)


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Per-voxel class probabilities produced by one backend on one view.

    A map has shape ``(nx, ny, nz, C)`` with 2 <= C <= ``MAX_CLASSES``
    classes (class 0 is background). Per voxel the probabilities must sum to
    1 within ``PROB_TOL``; they are clamped to [0, 1] and renormalized to
    sum exactly, by the sum of the class planes added one after another,
    whatever the input's memory layout. Values further out than the
    tolerance are an error, not silently fixed, because they indicate a
    broken backend. The whole map
    is checked when it is built, so every rejection happens then.

    ``source_tag`` records (backend, view) provenance and defines the
    deterministic fusion order.

    A map is held in one of three compact forms, and its float64 values
    are formed a slab of rows at a time by :meth:`slab`:

    * the constructor holds the array it is handed, little-endian in the
      array's own float width, by :func:`_held`: as is when it is a
      read-only C-ordered array that owns its memory, else as one
      read-only C-ordered copy, so a writable caller's array is always
      copied. A scaled map holds its new float64 values. It holds too the
      decision whether to renormalize;
    * with ``directory``, it writes those values to a new file there
      instead, a slab at a time as it checks them, so no whole-map copy is
      made, and holds the file: a few hundred bytes of memory whatever the
      volume. Every map read from a NIfTI file is held so. A slab read
      from the file goes through the same clip and renormalization as
      values in memory, so its bytes are the same. The file goes with the
      last map sharing it (this one, its :meth:`retagged` copies), and
      with a map that fails its check; one that cannot be created or
      written is a MapFileFailure naming it;
    * :meth:`from_rows` holds a checked table of C-row class vectors, one
      shared by every map built from an equal table, and a read-only uint8
      volume of row indices, 1 byte per voxel.

    ``scale``, a ``(slope, inter)`` pair, makes the values ``probs`` times
    slope plus inter, formed in float64 a slab at a time as they are
    checked (and written, with ``directory``): how a NIfTI file's
    scl_slope and scl_inter apply, without a whole scaled copy.
    """

    probs: InitVar[np.ndarray]
    source_tag: str = ""
    _: KW_ONLY
    directory: InitVar[str | None] = None
    scale: InitVar[tuple[float, float] | None] = None

    # The held form: ``_values`` (a checked array, or the ``_MapFile`` of
    # one) and ``_renorm``, or ``_table`` and ``_labels`` (a from_rows map).
    _values = _table = _labels = None
    _renorm = False

    def __post_init__(self, probs, directory, scale):
        src = np.asarray(probs)
        if src.dtype.kind != "f":
            src = src.astype(np.float64)
        if src.ndim != 4:
            raise DimensionMismatch(f"probability map must be 4D, got shape {src.shape}")
        if not 2 <= src.shape[3] <= MAX_CLASSES:
            raise DimensionMismatch(
                f"num_classes={src.shape[3]} outside [2, {MAX_CLASSES}]")
        dtype = np.dtype(f"<f{8 if scale is not None else src.dtype.itemsize}")

        def values(rows):
            """``rows`` of ``src`` as held: scaled in float64, or C-ordered
            in ``dtype``."""
            if scale is None:
                return np.ascontiguousarray(rows, dtype)
            return scaled(rows, scale)

        if directory is None:
            held = _freeze(values(src)) if scale is not None else _held(src, dtype)
            sink = contextlib.nullcontext()
        else:
            try:
                fd, path = tempfile.mkstemp(prefix="segtta-", suffix=".map",
                                            dir=directory)
            except OSError as e:
                raise MapFileFailure(
                    f"cannot create a map file in {directory}: {e}") from e
            held, sink = _MapFile(path, src.shape, dtype), open(fd, "wb")
        # Exact in any float dtype: widening to float64 keeps the order.
        lo, hi, dev = math.inf, -math.inf, 0.0
        try:
            with sink as f:
                for a, b in slabs(src.shape):
                    if f is None:
                        rows = held[a:b]
                    else:
                        rows = values(src[a:b])
                        f.write(rows)
                    lo, hi = np.minimum(lo, rows.min()), np.maximum(hi, rows.max())
                    # Adding whole class planes is ~18x faster than a reduction
                    # along the strided class axis; one buffer serves the sum
                    # and its deviation.
                    sums = _plane_sum(np.clip(rows, 0.0, 1.0, out=np.empty(rows.shape)))
                    sums -= 1.0
                    dev = max(dev, float(np.abs(sums, out=sums).max()))
        except OSError as e:
            held.remove()
            raise MapFileFailure(f"cannot write map file {held.path}: {e}") from e
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN propagates into both
            problem = "probs contain NaN or Inf"
        elif lo < -PROB_TOL or hi > 1.0 + PROB_TOL:
            problem = (f"probs range [{lo:g}, {hi:g}] outside [0, 1] by more than "
                       f"{PROB_TOL:g}")
        elif dev > PROB_TOL:
            problem = f"per-voxel sum deviates from 1 by {dev:g} > {PROB_TOL:g}"
        else:
            object.__setattr__(self, "_values", held)
            object.__setattr__(self, "_renorm", dev > RENORM_TOL)
            return
        if directory is not None:
            held.remove()
        raise NotProbabilistic(f"map {self.source_tag!r}: {problem}")

    @classmethod
    def from_rows(cls, table: np.ndarray, labels: np.ndarray,
                  source_tag: str = "") -> "ProbabilityMap":
        """The map whose voxel ``[x, y, z]`` is row ``labels[x, y, z]`` of
        ``table``, an ``(R, C)`` array of class probabilities.

        The table must be 2D with at most ``MAX_CLASSES`` rows, as the
        labels are held as uint8; then the labels must be a 3D volume of
        integers indexing the rows; then the rows are checked as the
        constructor checks a map: clipped, summed and renormalized by the
        same rules, every row whether a label picks it or not. The map
        holds the checked rows and the labels, as
        :class:`LabelMask` holds its labels, so its slabs equal those of
        ``ProbabilityMap(np.take(table, labels, axis=0))`` whenever
        no row needs renormalizing (true of every table this package
        builds) or every row is picked.

        The labels are checked on every call; the rows once per distinct
        content. A table that passed is kept, read-only, and shared by
        every map built from a table of the same dtype, shape and bytes,
        so the many maps of one backend hold one table. A table that
        fails is never kept: it raises NotProbabilistic naming this
        call's ``source_tag`` every time.

        :attr:`row_table` hands fusion the checked rows and the labels.
        When every map it fuses is held so, it votes once per row, not
        per voxel, and steps a uint16 state per voxel through interned
        sums (see :mod:`segtta.fusion`): the masks are the bytes the same
        maps held as values give, a few times faster.
        """
        rows = np.asarray(table)
        if rows.ndim != 2:
            raise DimensionMismatch(f"row table must be 2D, got shape {rows.shape}")
        if len(rows) > MAX_CLASSES:
            raise DimensionMismatch(
                f"row table has {len(rows)} rows; uint8 labels index at most "
                f"{MAX_CLASSES}")
        labels = _label_volume(labels, len(rows), "labels", "the table's rows ")
        if rows.dtype.kind != "f":  # as the constructor would, so the key
            rows = rows.astype(np.float64)  # holds values, not object pointers
        checked = _checked_rows.get(
            (rows.dtype.str, rows.shape, rows.tobytes()),
            lambda: _freeze(cls(rows[:, None, None, :], source_tag)
                            .slab(0, len(rows))[:, 0, 0, :]))
        m = object.__new__(cls)
        for name, value in (("source_tag", source_tag), ("_table", checked),
                            ("_labels", labels)):
            object.__setattr__(m, name, value)
        return m

    @property
    def row_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(table, labels)`` of a :meth:`from_rows` map, its checked
        read-only ``(R, C)`` float64 rows and its read-only uint8 volume of
        row indices, so that voxel ``[x, y, z]`` is ``table[labels[x, y,
        z]]``; None for a map held as values."""
        return None if self._table is None else (self._table, self._labels)

    def slab(self, a: int, b: int) -> np.ndarray:
        """Rows ``a:b`` of the map, ``(b - a, ny, nz, C)`` float64, C-ordered:
        clipped to [0, 1] and renormalized when the map needs it."""
        if self._table is not None:
            return np.take(self._table, self._labels[a:b], axis=0)
        out = np.empty((b - a, *self._values.shape[1:]))
        np.clip(self._values[a:b], 0.0, 1.0, out=out)
        if self._renorm:
            # The division is in place, so a slab costs one plane of scratch.
            out /= _plane_sum(out)[..., None]
        return out

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self._labels if self._table is not None else self._values).shape[:3]

    @property
    def num_classes(self) -> int:
        return (self._table if self._table is not None else self._values).shape[-1]

    def retagged(self, source_tag: str) -> "ProbabilityMap":
        """The same map, sharing its held arrays or file, under another tag."""
        m = copy.copy(self)
        object.__setattr__(m, "source_tag", source_tag)
        return m


@dataclass(frozen=True, eq=False)
class LabelMask:
    """Per-voxel integer class assignment, 0 = background.

    ``num_classes`` is checked first, then ``labels``, which is held as a
    read-only C-ordered uint8 array: the array passed in when it is one
    already, else a copy.
    """

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ConfigError(
                f"num_classes={self.num_classes} outside [2, {MAX_CLASSES}]")
        object.__setattr__(self, "labels", _label_volume(
            self.labels, self.num_classes, "label mask"))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


#: The parameters each augmentation kind uses, in the order its label
#: names them.
_KIND_PARAMS = {
    "identity": (),
    "gaussian_blur": ("sigma", "slice_axis"),
    "gaussian_noise": ("sigma",),
    "gamma_correction": ("gamma",),
    "contrast_enhancement": ("alpha", "beta"),
}
AUGMENTATION_KINDS = tuple(_KIND_PARAMS)


@dataclass(frozen=True)
class AugmentationSpec:
    """A tagged, parameterized description of one intensity transform.

    Parameters are kind-specific: ``sigma`` for blur (voxels) and noise
    (normalized intensity units), ``gamma`` for gamma correction, ``alpha``
    and ``beta`` for contrast enhancement; a parameter the kind does not
    use must be None. ``slice_axis`` selects per-slice 2D application for
    the blur (slices perpendicular to that axis); None requests full 3D
    smoothing.
    """

    kind: str
    sigma: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None
    slice_axis: int | None = 2

    def __post_init__(self):
        _check_kind(self, "augmentation", _KIND_PARAMS)
        if self.slice_axis is not None and self.slice_axis not in (0, 1, 2):
            raise ConfigError(f"slice_axis={self.slice_axis!r} not in (0, 1, 2) or None")
        if self.kind == "gaussian_blur":
            if self.sigma is None or not (math.isfinite(self.sigma) and self.sigma > 0):
                raise InvalidSigma(f"blur sigma={self.sigma!r} must be finite and > 0")
            if 3.0 * self.sigma > MAX_BLUR_RADIUS:
                raise InvalidSigma(f"blur sigma={self.sigma!r} needs a kernel radius "
                                   f"ceil(3*sigma) above {MAX_BLUR_RADIUS} voxels")
        elif self.kind == "gaussian_noise":
            if self.sigma is None or not (math.isfinite(self.sigma) and self.sigma >= 0):
                raise InvalidSigma(f"noise sigma={self.sigma!r} must be finite and >= 0")
        elif self.kind == "gamma_correction":
            if self.gamma is None or not (math.isfinite(self.gamma) and self.gamma > 0):
                raise InvalidGamma(f"gamma={self.gamma!r} must be finite and > 0")
        elif self.kind == "contrast_enhancement":
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
                raise InvalidAlpha(f"alpha={self.alpha!r} must be finite and > 0")
            if self.beta is None:
                object.__setattr__(self, "beta", 0.0)
            elif not math.isfinite(self.beta):
                raise ConfigError(f"beta={self.beta!r} must be finite")

    def label(self) -> str:
        """Canonical content-derived name, used for source tags and RNG keys:
        the kind, then each parameter it uses (``slice_axis`` as ``axis``)."""
        params = ",".join(
            f"{'axis' if p == 'slice_axis' else p}={getattr(self, p)!r}"
            for p in _KIND_PARAMS[self.kind]
        )
        return f"{self.kind}({params})" if params else self.kind

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                **{p: getattr(self, p) for p in _KIND_PARAMS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentationSpec":
        return cls(**_check_fields(d, {"kind": "string"}, "augmentation",
                                   optional=[f.name for f in fields(cls)]))


def default_augmentations() -> tuple[AugmentationSpec, ...]:
    """The standard four-transform set with mild default magnitudes.

    The magnitudes are configurable placeholders, chosen to perturb
    without destroying anatomy; a config's ``augmentations`` list replaces
    them.
    """
    return (
        AugmentationSpec("gamma_correction", gamma=0.8),
        AugmentationSpec("contrast_enhancement", alpha=1.3, beta=0.0),
        AugmentationSpec("gaussian_blur", sigma=1.0),
        AugmentationSpec("gaussian_noise", sigma=0.05),
    )


def normalize_intensity(v: Volume) -> Volume:
    """Affinely map a volume's intensities onto [0, 1], its minimum to 0 and
    its maximum to 1; a constant volume maps to all zeros."""
    mn = float(v.data.min())
    mx = float(v.data.max())
    if mx == mn:
        return v.with_data(_freeze(np.zeros_like(v.data)))
    return v.with_data(_freeze((v.data - mn) / (mx - mn)))
