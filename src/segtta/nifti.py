"""Reader and writer for the NIfTI-1 single-file format (.nii / .nii.gz).

Only the single-file variant (magic ``n+1\\0``) is supported, with datatype
codes 2 (uint8), 4 (int16), 16 (float32), and 64 (float64). Both byte
orders are handled; endianness is detected from dim[0], which must land in
[1, 7] for exactly one of the two orders. Orientation (qform/sform) is
neither read nor written (files are written with both codes 0); only the
pixdim voxel spacing is honored, since nothing in this pipeline resamples.
Every reader applies scl_slope/scl_inter when the slope is nonzero, so
the scaled values of a label mask are its labels.

Each reader reads its file once: the header is parsed from the bytes
read, and the data size the header claims is checked against the bytes
present before any array is built, so a short file or an oversized claim
is reported as truncated. ``read_header`` alone reads just the header.
A probability map read from a file is held in a file made as it is
checked, slab by slab, under ``SEGTTA_TMPDIR`` (else the system's
temporary directory; :func:`~segtta.core.temp_dir`), so besides the
file's bytes a read holds a slab at a time and no copy of the map; a
scaled map is scaled a slab at a time in that loop. A scaled volume or
mask is one C-ordered float64 array, scaled in place.

The header is read and written by ten fields: sizeof_hdr, regular, dim,
datatype, bitpix, pixdim, vox_offset, scl_slope, scl_inter and magic, each
at its NIfTI-1 byte offset. No other header byte is read, and every
other header byte is written as zero.

Written files are canonical: vox_offset=352, scl_slope=1, scl_inter=0,
little-endian (a volume may ask for big-endian), and gzip members carry
mtime=0 so identical volumes produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import gzip
import math
from pathlib import Path
import zlib

import numpy as np

from .core import (
    LabelMask, ProbabilityMap, Spacing, Volume, _freeze, scaled, slabs, temp_dir,
    writing,
)
from .errors import (
    CorruptHeader,
    DimensionMismatch,
    IoFailure,
    InvalidLabels,
    UnsupportedDatatype,
)

HEADER_SIZE = 348
MIN_VOX_OFFSET = 352
#: Exclusive upper bound on vox_offset; any real data offset is far below it.
VOX_OFFSET_LIMIT = 2**31
MAGIC_SINGLE = b"n+1\x00"

DTYPE_FOR_CODE = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}
BITPIX_FOR_CODE = {code: 8 * np.dtype(t).itemsize for code, t in DTYPE_FOR_CODE.items()}

#: ``(name, format, byte offset)`` of each header field the package reads
#: or writes; every other header byte is written as zero and never read.
_FIELDS = (
    ("sizeof_hdr", "i4", 0), ("regular", "S1", 38), ("dim", "(8,)i2", 40),
    ("datatype", "i2", 70), ("bitpix", "i2", 72), ("pixdim", "(8,)f4", 76),
    ("vox_offset", "f4", 108), ("scl_slope", "f4", 112), ("scl_inter", "f4", 116),
    ("magic", "S4", 344),
)


@functools.cache
def _header_dtype(byteorder: str) -> np.dtype:
    """The header's structured dtype in byte order ``byteorder``, built
    once per order: every header read and write looks it up."""
    names, formats, offsets = zip(*_FIELDS)
    return np.dtype({"names": names, "formats": formats, "offsets": offsets,
                     "itemsize": HEADER_SIZE}).newbyteorder(byteorder)


@dataclass(frozen=True)
class NiftiHeader:
    """The header fields this pipeline actually consumes."""

    dim: tuple[int, ...]
    datatype: int
    pixdim: tuple[float, ...]
    vox_offset: int
    scl_slope: float
    scl_inter: float
    byteorder: str  # "<" or ">"

    @property
    def ndim(self) -> int:
        return self.dim[0]

    def shape(self) -> tuple[int, ...]:
        return tuple(self.dim[1 : 1 + self.ndim])

    @property
    def spacing(self) -> Spacing:
        """Voxel size in mm: pixdim[1:4]."""
        return Spacing(*self.pixdim[1:4])

    @property
    def scale(self) -> tuple[float, float] | None:
        """``(scl_slope, scl_inter)`` when they change the stored values:
        a nonzero slope, other than slope 1 with intercept 0; else None."""
        pair = (self.scl_slope, self.scl_inter)
        return None if self.scl_slope == 0.0 or pair == (1.0, 0.0) else pair


def _is_gzip(path) -> bool:
    return str(path).endswith(".gz")


def _read_bytes(path, size: int = -1) -> bytes:
    """Up to ``size`` bytes (all with -1) of the file, gunzipped for .gz;
    a missing file or a broken gzip stream raises IoFailure naming it."""
    try:
        with (gzip.open if _is_gzip(path) else open)(path, "rb") as f:
            return f.read(size)
    except (OSError, EOFError, zlib.error) as e:  # gzip.BadGzipFile is an OSError
        raise IoFailure(f"cannot read {path}: {e}") from e


def _parse_header(raw: bytes, path) -> NiftiHeader:
    if len(raw) < HEADER_SIZE:
        raise CorruptHeader(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    byteorder = None
    for candidate in ("<", ">"):
        rec = np.frombuffer(raw[:HEADER_SIZE], dtype=_header_dtype(candidate))[0]
        if 1 <= int(rec["dim"][0]) <= 7:
            byteorder = candidate
            break
    if byteorder is None:
        raise CorruptHeader(f"{path}: dim[0] not in [1, 7] for either byte order")
    # numpy S-typed fields strip trailing nulls; restore the fixed width.
    magic = bytes(rec["magic"]).ljust(4, b"\x00")
    if magic != MAGIC_SINGLE:
        raise CorruptHeader(
            f"{path}: magic {magic!r} is not the single-file form {MAGIC_SINGLE!r}"
        )
    datatype = int(rec["datatype"])
    if datatype not in DTYPE_FOR_CODE:
        raise UnsupportedDatatype(
            f"{path}: datatype={datatype} not in supported codes "
            f"{sorted(DTYPE_FOR_CODE)}"
        )
    bitpix = int(rec["bitpix"])
    if bitpix != BITPIX_FOR_CODE[datatype]:
        raise CorruptHeader(
            f"{path}: bitpix={bitpix} inconsistent with datatype={datatype} "
            f"(expected {BITPIX_FOR_CODE[datatype]})"
        )
    ndim = int(rec["dim"][0])
    if ndim not in (3, 4):
        raise CorruptHeader(f"{path}: dim[0]={ndim} not in {{3, 4}}")
    dim = tuple(int(d) for d in rec["dim"])
    for i in range(1, ndim + 1):
        if dim[i] < 1:
            raise CorruptHeader(f"{path}: dim[{i}]={dim[i]} must be >= 1")
    vox_offset = float(rec["vox_offset"])
    if not (MIN_VOX_OFFSET <= vox_offset < VOX_OFFSET_LIMIT
            and vox_offset.is_integer()):
        raise CorruptHeader(
            f"{path}: vox_offset={vox_offset} must be an integer in "
            f"[{MIN_VOX_OFFSET}, {VOX_OFFSET_LIMIT})"
        )
    for name in ("scl_slope", "scl_inter"):
        if not np.isfinite(rec[name]):
            raise CorruptHeader(f"{path}: {name}={float(rec[name])} must be finite")
    pixdim = tuple(float(p) for p in rec["pixdim"])
    for i in (1, 2, 3):
        if not (np.isfinite(pixdim[i]) and pixdim[i] > 0):
            raise CorruptHeader(f"{path}: pixdim[{i}]={pixdim[i]} must be finite and > 0")
    return NiftiHeader(
        dim=dim,
        datatype=datatype,
        pixdim=pixdim,
        vox_offset=int(vox_offset),
        scl_slope=float(rec["scl_slope"]),
        scl_inter=float(rec["scl_inter"]),
        byteorder=byteorder,
    )


def read_header(path) -> NiftiHeader:
    """Parse and validate the 348-byte header of a .nii or .nii.gz file."""
    return _parse_header(_read_bytes(path, HEADER_SIZE), path)


def _read(path, ndim: int, what: str) -> tuple[NiftiHeader, np.ndarray]:
    """Read the file once; return its header and its data section, checked
    against the size the header claims, shaped [x, y, z(, c)] as a
    read-only array view of the bytes read, not yet scaled."""
    raw = _read_bytes(path)
    header = _parse_header(raw, path)
    if header.ndim != ndim:
        raise DimensionMismatch(f"{path}: dim[0]={header.ndim}, expected a {what}")
    shape = header.shape()
    dtype = np.dtype(DTYPE_FOR_CODE[header.datatype]).newbyteorder(header.byteorder)
    nbytes = math.prod(shape) * dtype.itemsize
    data = memoryview(raw)[header.vox_offset : header.vox_offset + nbytes]
    if len(data) < nbytes:
        raise IoFailure(
            f"{path}: data section truncated ({len(data)} of {nbytes} bytes)"
        )
    # File order is x fastest; reshape with Fortran order to index [x, y, z].
    return header, np.frombuffer(data, dtype=dtype).reshape(shape, order="F")


def _read_3d(path, what: str) -> tuple[NiftiHeader, np.ndarray]:
    """:func:`_read` of a 3D file, its values scaled when the header says
    so: times scl_slope plus scl_inter in float64, in one new array."""
    header, arr = _read(path, 3, what)
    # scaled() gives a new C-ordered array; frozen, Volume holds it as is.
    return header, arr if header.scale is None else _freeze(scaled(arr, header.scale))


def read_volume(path) -> Volume:
    """Read a 3D volume as float64."""
    header, arr = _read_3d(path, "3D volume")
    return Volume(arr, header.spacing, vol_id=_stem(path))


def read_label_mask(path, num_classes: int) -> LabelMask:
    """Read an integer label mask stored as any supported datatype."""
    return _read_label_mask(path, num_classes)[1]


def _read_label_mask(path, num_classes: int) -> tuple[NiftiHeader, LabelMask]:
    """:func:`read_label_mask` with the header of the same read."""
    header, arr = _read_3d(path, "3D mask")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise InvalidLabels(f"{path}: mask voxels are not integral")
        arr = rounded.astype(np.int64)
    # An integer array goes to LabelMask as read: it checks the range and
    # makes the one uint8 copy.
    return header, LabelMask(arr, num_classes)


def read_probability_map(path) -> ProbabilityMap:
    """Read a 4D float32 probability map with dim[4] = num_classes, held
    in a file of its values made as they are checked (see the module)."""
    header, arr = _read(path, 4, "4D map")
    if header.datatype != 16:
        raise UnsupportedDatatype(
            f"{path}: probability maps must be float32 (datatype=16), "
            f"got {header.datatype}"
        )
    return ProbabilityMap(arr, _stem(path), directory=temp_dir(),
                          scale=header.scale)


def _stem(path) -> str:
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _build_header(
    dim: tuple[int, ...], pixdim: tuple[float, ...], datatype: int, byteorder: str
) -> bytes:
    rec = np.zeros((), dtype=_header_dtype(byteorder))
    rec["sizeof_hdr"] = HEADER_SIZE
    rec["regular"] = b"r"
    full_dim = [1] * 8
    full_dim[0] = len(dim)
    full_dim[1 : 1 + len(dim)] = dim
    rec["dim"] = full_dim
    rec["datatype"] = datatype
    rec["bitpix"] = BITPIX_FOR_CODE[datatype]
    full_pix = [0.0] * 8
    full_pix[0] = 1.0
    full_pix[1 : 1 + len(pixdim)] = pixdim
    rec["pixdim"] = full_pix
    rec["vox_offset"] = MIN_VOX_OFFSET
    rec["scl_slope"] = 1.0
    rec["scl_inter"] = 0.0
    rec["magic"] = MAGIC_SINGLE
    return rec.tobytes()


#: Bytes of voxels handed to the compressor at a time.
_WRITE_CHUNK = 2 ** 18


def _write_file(path, header: bytes, data: np.ndarray):
    """Write one file through :func:`~segtta.core.writing`.

    The voxels go out in Fortran order straight from ``data`` when it is
    Fortran-contiguous, else from one reordered copy of it.
    """
    pad = b"\x00" * (MIN_VOX_OFFSET - HEADER_SIZE)  # no extensions
    voxels = data.reshape(-1, order="F").view(np.uint8)
    with writing(path) as raw:
        if _is_gzip(path):
            # mtime=0 keeps the compressed bytes identical across runs.
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as f:
                f.write(header + pad)
                # Chunks keep each compressed piece small; deflate's
                # output does not depend on how its input is cut.
                for start in range(0, len(voxels), _WRITE_CHUNK):
                    f.write(voxels[start:start + _WRITE_CHUNK])
        else:
            raw.write(header + pad)
            raw.write(voxels)


def write_volume(v: Volume, path, datatype: int = 16, byteorder: str = "<"):
    """Write a volume; integer datatypes round half-to-even then clamp."""
    if datatype not in DTYPE_FOR_CODE:
        raise UnsupportedDatatype(f"datatype={datatype} not in {sorted(DTYPE_FOR_CODE)}")
    dtype = np.dtype(DTYPE_FOR_CODE[datatype]).newbyteorder(byteorder)
    data = v.data
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        data = np.clip(np.rint(data), info.min, info.max)
    header = _build_header(v.dims, v.spacing.as_tuple(), datatype, byteorder)
    _write_file(path, header, data.astype(dtype))


def write_label_mask(mask: LabelMask, spacing: Spacing, path):
    """Write a label mask as a little-endian uint8 volume."""
    header = _build_header(mask.dims, spacing.as_tuple(), 2, "<")
    _write_file(path, header, mask.labels)


def write_probability_map(p: ProbabilityMap, path, spacing: Spacing):
    """Write a probability map as a little-endian 4D float32 file with
    dim[4]=num_classes and the voxel spacing of the scan it segments.

    The float32 values are filled in slab by slab, in the file's order, so
    besides the map the write holds them and one float64 slab.
    """
    dim = (*p.dims, p.num_classes)
    header = _build_header(dim, (*spacing.as_tuple(), 0.0), 16, "<")
    data = np.empty(dim, np.dtype("<f4"), order="F")
    for a, b in slabs(p.dims):
        data[a:b] = p.slab(a, b)
    _write_file(path, header, data)
