"""Minimal NIfTI-1 single-file reader and float32 writer.

The benchmark reads masks and labels, and the deploy model exchanges maps,
without going through ``segtta.nifti``, so that its output check does not
trust the code it checks. Only what those files use is supported: dim,
pixdim, datatype 2/4/16/64, vox_offset and scl_slope/scl_inter, in either
byte order, gzip or plain.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

HEADER_SIZE = 348
VOX_OFFSET = 352
DTYPES = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}


def _open(path):
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def read(path) -> tuple[np.ndarray, tuple[float, ...]]:
    """Return (array indexed [x, y, z(, c)], spacing) of a NIfTI-1 file."""
    with _open(path) as f:
        raw = f.read()
    if len(raw) < HEADER_SIZE:
        raise ValueError(f"{path}: shorter than a NIfTI-1 header")
    order = "<" if struct.unpack("<i", raw[:4])[0] == HEADER_SIZE else ">"
    if struct.unpack(order + "i", raw[:4])[0] != HEADER_SIZE:
        raise ValueError(f"{path}: sizeof_hdr is not {HEADER_SIZE}")
    dim = struct.unpack(order + "8h", raw[40:56])
    datatype = struct.unpack(order + "h", raw[70:72])[0]
    pixdim = struct.unpack(order + "8f", raw[76:108])
    vox_offset = int(struct.unpack(order + "f", raw[108:112])[0])
    slope, inter = struct.unpack(order + "2f", raw[112:120])
    if datatype not in DTYPES:
        raise ValueError(f"{path}: datatype {datatype} not supported")
    shape = tuple(dim[1 : 1 + dim[0]])
    dtype = np.dtype(DTYPES[datatype]).newbyteorder(order)
    count = int(np.prod(shape))
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=vox_offset)
    data = data.reshape(shape, order="F")
    if slope not in (0.0, 1.0) or inter != 0.0:
        data = data * slope + inter
    return data, tuple(float(p) for p in pixdim[1:4])


def write_float32(path, data: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    """Write ``data`` (3D or 4D) as an uncompressed little-endian float32 file."""
    header = bytearray(VOX_OFFSET)
    dim = [data.ndim, *data.shape] + [1] * (7 - data.ndim)
    pixdim = [1.0, *spacing] + [0.0] * 4
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, *dim)
    struct.pack_into("<2h", header, 70, 16, 32)
    struct.pack_into("<8f", header, 76, *pixdim)
    struct.pack_into("<3f", header, 108, float(VOX_OFFSET), 1.0, 0.0)
    header[344:348] = b"n+1\x00"
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(np.asarray(data, dtype="<f4").tobytes(order="F"))
