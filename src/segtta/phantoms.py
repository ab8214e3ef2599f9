"""Procedurally generated volumes with known ground truth.

Phantoms stand in for clinical scans at desk scale: ellipsoidal structures
on a noisy background, with per-class intensity plateaus so the intensity
augmentations have something to act on. Everything is deterministic in the
seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import LabelMask, Spacing, Volume, _freeze, writing
from . import nifti


def make_phantom(
    dims=(32, 32, 32),
    spacing=(1.0, 1.0, 1.0),
    num_classes: int = 2,
    seed: int = 0,
    vol_id: str = "phantom",
) -> tuple[Volume, LabelMask]:
    """One random multi-ellipsoid phantom and its label mask.

    Each foreground class is an ellipsoid with a random center and radii;
    later classes overwrite earlier ones where they overlap. Intensities
    are class plateaus plus background texture, in [0, 1].
    """
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    labels = np.zeros(dims, dtype=np.uint8)
    grids = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    for c in range(1, num_classes):
        center = [rng.uniform(0.3 * n, 0.7 * n) for n in dims]
        radii = [rng.uniform(0.15 * n, 0.3 * n) for n in dims]
        r2 = sum(((g - m) / r) ** 2 for g, m, r in zip(grids, center, radii))
        labels[r2 <= 1.0] = c
    intensity = 0.1 + 0.05 * rng.random(dims)
    for c in range(1, num_classes):
        plateau = 0.3 + 0.6 * c / max(num_classes - 1, 1)
        intensity[labels == c] = plateau + 0.05 * (rng.random(dims) - 0.5)[labels == c]
    intensity = _freeze(np.clip(intensity, 0.0, 1.0))
    volume = Volume(intensity, Spacing(*spacing), vol_id=vol_id)
    return volume, LabelMask(_freeze(labels), num_classes)


def make_blob_mask(dims=(24, 24, 24), seed: int = 0, threshold: float = 0.62,
                   num_classes: int = 2) -> LabelMask:
    """A random smooth blob mask: thresholded, box-smoothed noise.

    Useful for surface-distance tests where irregular shapes matter more
    than anatomy. May be empty for high thresholds.
    """
    rng = np.random.default_rng(seed)
    field = rng.random(dims)
    # Cheap smoothing: average the 6-neighborhood a few times.
    for _ in range(4):
        acc = field.copy()
        for axis in range(3):
            acc += np.roll(field, 1, axis=axis) + np.roll(field, -1, axis=axis)
        field = acc / 7.0
    return LabelMask(_freeze((field > threshold).astype(np.uint8)), num_classes)


def write_phantom_dataset(
    directory,
    n_cases: int = 5,
    dims=(24, 24, 24),
    spacing=(1.0, 1.0, 1.0),
    num_classes: int = 2,
    seed: int = 0,
    with_labels: bool = True,
) -> Path:
    """Write phantom volumes (+ labels) as NIfTI files plus a manifest.

    Returns the manifest path. Case ids are ``case000``, ``case001``, ...
    Every file goes through :func:`~segtta.core.writing`, which makes
    ``directory`` and raises IoFailure naming a file it cannot write.
    """
    directory = Path(directory)
    cases = []
    for i in range(n_cases):
        case_id = f"case{i:03d}"
        volume, mask = make_phantom(
            dims, spacing, num_classes, seed=seed + i, vol_id=case_id
        )
        image_name = f"{case_id}.nii.gz"
        nifti.write_volume(volume, directory / image_name, datatype=16)
        entry = {"id": case_id, "image": image_name, "classes": num_classes}
        if with_labels:
            label_name = f"{case_id}_label.nii.gz"
            nifti.write_label_mask(mask, volume.spacing, directory / label_name)
            entry["label"] = label_name
        cases.append(entry)
    manifest_path = directory / "manifest.json"
    with writing(manifest_path) as f:
        f.write((json.dumps(cases, indent=2) + "\n").encode())
    return manifest_path
