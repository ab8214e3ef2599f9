"""Segmentation evaluation: IoU, Dice, their class-agnostic and mean
variants, and the 95th percentile Hausdorff distance.

Overlap metrics follow the usual set definitions per foreground class,
    IoU_c  = |P_c & G_c| / |P_c | G_c|      Dice_c = 2 |P_c & G_c| / (|P_c| + |G_c|)
with classes empty in both masks excluded from the means and classes
empty in exactly one scoring 0. The agnostic variants merge all
foreground classes into one region first.

HD95 is computed on class-agnostic surfaces with the pooled symmetric
convention: directed nearest-surface distances from both surfaces are
pooled into one multiset and the 95th percentile (linear interpolation
between order statistics) is taken, in millimeters via the voxel spacing.
A surface voxel is a foreground voxel with at least one face-adjacent
(6-connectivity) neighbor outside the foreground; voxels on the volume
border count their out-of-bounds neighbors as outside.

The nearest-surface distances come from an exact Euclidean distance
transform that handles anisotropic spacing: two linear sweeps along the
first axis, then one min-plus pass per remaining axis over the squared
distances, out[i] = min_j f[j] + (delta*(i-j))^2, as whole-array numpy
operations per offset. A pass stops at the first offset whose cost
reaches the largest value left, which is exact since every later term is
larger still. A voxel with no seed in the volume is at distance inf. HD95
runs both transforms on the joint bounding box of the two surfaces only.
The quadratic all-pairs computation lives in the test suite as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMask, Spacing
from .errors import DimensionMismatch


@dataclass(frozen=True)
class MetricReport:
    """Scores for one (prediction, ground truth) pair.

    ``per_class_iou``/``per_class_dice`` cover foreground classes present
    in at least one mask. ``hd95_mm`` is None when exactly one surface is
    empty; ``undefined_reason`` says which.
    """

    per_class_iou: dict[int, float]
    per_class_dice: dict[int, float]
    miou: float
    mdice: float
    aiou: float
    adice: float
    hd95_mm: float | None = None
    undefined_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "per_class_iou": {str(c): v for c, v in self.per_class_iou.items()},
            "per_class_dice": {str(c): v for c, v in self.per_class_dice.items()},
            "miou": self.miou,
            "mdice": self.mdice,
            "aiou": self.aiou,
            "adice": self.adice,
            "hd95_mm": self.hd95_mm,
            "undefined_reason": self.undefined_reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        return cls(
            per_class_iou={int(c): v for c, v in d["per_class_iou"].items()},
            per_class_dice={int(c): v for c, v in d["per_class_dice"].items()},
            miou=d["miou"],
            mdice=d["mdice"],
            aiou=d["aiou"],
            adice=d["adice"],
            hd95_mm=d["hd95_mm"],
            undefined_reason=d["undefined_reason"],
        )


def _check_dims(pred: LabelMask, gt: LabelMask):
    if pred.dims != gt.dims:
        raise DimensionMismatch(f"pred dims {pred.dims} != gt dims {gt.dims}")


def _region_scores(p: np.ndarray, g: np.ndarray) -> tuple[float, float] | None:
    """(IoU, Dice) of two boolean regions, or None when both are empty."""
    inter = int(np.count_nonzero(p & g))
    psize = int(np.count_nonzero(p))
    gsize = int(np.count_nonzero(g))
    union = psize + gsize - inter
    if union == 0:
        return None
    return inter / union, 2.0 * inter / (psize + gsize)


def overlap_metrics(pred: LabelMask, gt: LabelMask) -> MetricReport:
    """Per-class, mean, and class-agnostic IoU/Dice (no surface distance).

    When every foreground class is empty in both masks there is nothing to
    average; the masks then agree vacuously and all overlap fields are 1.
    """
    _check_dims(pred, gt)
    num_classes = max(pred.num_classes, gt.num_classes)
    per_iou: dict[int, float] = {}
    per_dice: dict[int, float] = {}
    for c in range(1, num_classes):
        scores = _region_scores(pred.labels == c, gt.labels == c)
        if scores is not None:
            per_iou[c], per_dice[c] = scores
    if per_iou:
        miou = float(np.mean(list(per_iou.values())))
        mdice = float(np.mean(list(per_dice.values())))
    else:
        miou = mdice = 1.0
    agnostic = _region_scores(pred.labels > 0, gt.labels > 0)
    aiou, adice = agnostic if agnostic is not None else (1.0, 1.0)
    return MetricReport(per_iou, per_dice, miou, mdice, aiou, adice)


# --- surfaces and distances ---------------------------------------------------


def _foreground(mask: LabelMask, class_set=None) -> np.ndarray:
    if class_set is None:
        return mask.labels > 0
    fg = np.zeros(mask.dims, dtype=bool)
    for c in class_set:
        fg |= mask.labels == c
    return fg


def _surface(fg: np.ndarray) -> np.ndarray:
    """Foreground voxels with a 6-neighbor outside the set (or off-volume)."""
    interior = fg.copy()
    for axis in range(3):
        shifted = np.zeros_like(fg)
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        src[axis], dst[axis] = slice(1, None), slice(None, -1)
        shifted[tuple(dst)] = fg[tuple(src)]
        interior &= shifted
        shifted = np.zeros_like(fg)
        src[axis], dst[axis] = slice(None, -1), slice(1, None)
        shifted[tuple(dst)] = fg[tuple(src)]
        interior &= shifted
    return fg & ~interior


def surface_voxels(mask: LabelMask, class_set=None) -> np.ndarray:
    """Coordinates (K, 3) of the surface of the given classes (default: all
    foreground), in row-major order."""
    return np.argwhere(_surface(_foreground(mask, class_set)))


def _min_plus_pass(f2: np.ndarray, delta: float) -> None:
    """``out[i] = min_j f2[j] + (delta*(i-j))^2`` along axis 0, exactly.

    ``f2`` holds squared distances, shape (n, lines), inf where a line has
    no seed yet; it is overwritten with the result. Lines holding no finite
    value stay inf and are left out. Offsets stop at the first k whose cost
    reaches the largest value left: every later term is at least that large.
    """
    live = np.isfinite(f2).any(axis=0)
    f = np.compress(live, f2, axis=1)
    n = f.shape[0]
    out = f.copy()
    term = np.empty_like(f)
    for k in range(1, n):
        cost = delta * delta * k * k
        if cost >= out.max(initial=0.0):
            break
        shifted = term[k:]
        np.add(f[k:], cost, out=shifted)  # seeds k after each site
        np.minimum(out[:-k], shifted, out=out[:-k])
        np.add(f[:-k], cost, out=shifted)  # seeds k before each site
        np.minimum(out[k:], shifted, out=out[k:])
    f2[:, live] = out


def distance_transform(seeds: np.ndarray, spacing: Spacing) -> np.ndarray:
    """Exact Euclidean distance (mm) from every voxel to the nearest seed.

    Separable: the first axis is resolved with two linear sweeps on the
    binary input, then each remaining axis applies one min-plus pass over
    the squared distances (see ``_min_plus_pass``). A voxel with no seed
    anywhere in the volume, so every voxel of a seedless input, gets inf.
    """
    if seeds.ndim != 3:
        raise DimensionMismatch(f"seed mask must be 3D, got shape {seeds.shape}")
    deltas = spacing.as_tuple()

    # Axis 0: distance along x by forward/backward sweeps, then square.
    d = np.where(seeds, 0.0, np.inf)
    nx = seeds.shape[0]
    for i in range(1, nx):
        np.minimum(d[i], d[i - 1] + deltas[0], out=d[i])
    for i in range(nx - 2, -1, -1):
        np.minimum(d[i], d[i + 1] + deltas[0], out=d[i])
    d2 = d * d

    for axis in (1, 2):
        lines = np.ascontiguousarray(np.moveaxis(d2, axis, 0))
        _min_plus_pass(lines.reshape(lines.shape[0], -1), deltas[axis])
        d2 = np.moveaxis(lines, 0, axis)
    return np.sqrt(d2)


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """Slices of the smallest box holding every True voxel of ``mask``."""
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hit = np.flatnonzero(mask.any(axis=others))
        box.append(slice(hit[0], hit[-1] + 1))
    return tuple(box)


def hd95(pred: LabelMask, gt: LabelMask, spacing: Spacing) -> float | None:
    """95th percentile of pooled symmetric surface distances, in mm.

    Both surfaces empty gives 0 (nothing disagrees); exactly one empty is
    undefined and returns None so aggregation can exclude and count it.
    The distance transforms run on the joint bounding box of the two
    surfaces only, which holds every seed and every query voxel.
    """
    _check_dims(pred, gt)
    pred_surface = _surface(pred.labels > 0)
    gt_surface = _surface(gt.labels > 0)
    pred_any = bool(pred_surface.any())
    gt_any = bool(gt_surface.any())
    if not pred_any and not gt_any:
        return 0.0
    if not pred_any or not gt_any:
        return None
    box = _bounding_box(pred_surface | gt_surface)
    pred_surface, gt_surface = pred_surface[box], gt_surface[box]
    to_gt = distance_transform(gt_surface, spacing)
    to_pred = distance_transform(pred_surface, spacing)
    pooled = np.concatenate([to_gt[pred_surface], to_pred[gt_surface]])
    return float(np.percentile(pooled, 95))


def evaluate(pred: LabelMask, gt: LabelMask, spacing: Spacing) -> MetricReport:
    """Full metric suite for one case: overlap metrics plus HD95."""
    report = overlap_metrics(pred, gt)
    distance = hd95(pred, gt, spacing)
    reason = None
    if distance is None:
        empty = "prediction" if not pred.labels.any() else "ground truth"
        reason = f"{empty} has empty foreground"
    return MetricReport(
        report.per_class_iou,
        report.per_class_dice,
        report.miou,
        report.mdice,
        report.aiou,
        report.adice,
        hd95_mm=distance,
        undefined_reason=reason,
    )
