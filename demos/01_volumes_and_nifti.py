"""Volumes and NIfTI-1 files: create, save, reload, and inspect.

Run from the repository root after installing the package:

    python3 demos/01_volumes_and_nifti.py
"""

import tempfile
from pathlib import Path

import numpy as np

from segtta import (
    Spacing,
    make_phantom,
    normalize_intensity,
    read_header,
    read_volume,
    write_volume,
)

workdir = Path(tempfile.mkdtemp(prefix="segtta-demo-"))
print(f"working in {workdir}\n")

# A phantom is a procedurally generated scan with known ground truth.
volume, mask = make_phantom(dims=(48, 48, 32), spacing=(0.8, 0.8, 1.5),
                            num_classes=2, seed=7, vol_id="demo")
print(f"phantom dims={volume.dims}, spacing={volume.spacing.as_tuple()} mm")
print(f"intensity range [{volume.data.min():.3f}, {volume.data.max():.3f}]")
print(f"foreground voxels: {int(np.count_nonzero(mask.labels))}\n")

# Volumes round-trip through .nii and .nii.gz; float data is lossless.
plain = workdir / "demo.nii"
compressed = workdir / "demo.nii.gz"
write_volume(volume, plain, datatype=16)
write_volume(volume, compressed, datatype=16)
print(f"plain file:      {plain.stat().st_size:7d} bytes")
print(f"compressed file: {compressed.stat().st_size:7d} bytes")

reloaded = read_volume(compressed)
print(f"reload matches:  {np.array_equal(reloaded.data, volume.data.astype(np.float32))}\n")

# The header carries the voxel spacing used for millimeter metrics.
header = read_header(compressed)
print(f"header dim:    {header.dim}")
print(f"header pixdim: {tuple(round(p, 3) for p in header.pixdim[:4])}")
print(f"datatype={header.datatype} (float32), byte order {header.byteorder!r}\n")

# Big-endian files are detected and read transparently.
big = workdir / "demo_be.nii"
write_volume(volume, big, datatype=16, byteorder=">")
print(f"big-endian read matches: "
      f"{np.array_equal(read_volume(big).data, reloaded.data)}\n")

# Intensity normalization maps any dynamic range affinely onto [0, 1]
# (minimum to 0, maximum to 1); augmentations expect this range.
shifted = volume.with_data(volume.data * 400.0 - 100.0)
normalized = normalize_intensity(shifted)
print(f"normalized from [{shifted.data.min():.1f}, {shifted.data.max():.1f}] to "
      f"[{normalized.data.min():.1f}, {normalized.data.max():.1f}]")
