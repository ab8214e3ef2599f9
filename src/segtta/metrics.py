"""Segmentation evaluation: IoU, Dice, their class-agnostic and mean
variants, and the 95th percentile Hausdorff distance.

Overlap metrics follow the usual set definitions per foreground class,
    IoU_c  = |P_c & G_c| / |P_c | G_c|      Dice_c = 2 |P_c & G_c| / (|P_c| + |G_c|)
with classes empty in both masks excluded from the means and classes
empty in exactly one scoring 0. The agnostic variants merge all
foreground classes into one region first.

HD95 is computed on class-agnostic surfaces with the pooled symmetric
convention (Taha & Hanbury, BMC Medical Imaging 2015): directed
nearest-surface distances from both surfaces are pooled into one multiset
and the 95th percentile (linear interpolation between order statistics) is
taken, in millimeters via the voxel spacing. A surface voxel is a
foreground voxel with at least one face-adjacent (6-connectivity) neighbor
outside the foreground; voxels on the volume border count their
out-of-bounds neighbors as outside.

The nearest-surface distances come from an exact Euclidean distance
transform that handles anisotropic spacing: two linear sweeps along the
first axis, then one min-plus pass per remaining axis over the squared
distances, out[i] = min_j f[j] + (delta*(i-j))^2, as whole-array numpy
operations per offset. A pass goes over blocks of lines, and each block
stops at the first offset whose cost reaches the largest value left in
it, which is exact since every later term is larger still; lines are
independent and ``min`` is exact, so blocking changes no bit. The
squares and the passes work in place, so a transform holds its result
and either one copy of it, while an axis's lines are laid out, or the
scratch of one block. A voxel with no seed in the volume is at distance inf.

Every row of a case is scored against the same ground truth, so a
``CaseScorer`` prepares that side once, the first time a row needs it:
the ground-truth surface, its bounding box, the transform of that surface
cropped to the box, and the first axis's sweep of the box's (y, z)
columns over the whole x range, squared. A row's surface voxels inside
the box read the box's transform. A voxel outside it takes the minimum,
over those columns, of the swept value plus the second axis's cost and
then the third's: the adds the transform's two passes make, in their
order. That minimum is the whole transform's, bit for bit: a column
outside the box holds no seed, so it sweeps to inf, and so after the
second pass does every line off the box's z range; a pass stops early
only where no later term can win; and rounding commutes with the minimum.
Each row then needs a transform of its own surface, on the ground-truth
box grown by a margin. The margin doubles until every ground-truth
surface voxel's distance is certified, that is at most its distance to
the outside of the crop minus one voxel, or the crop is the whole volume.
Crops give the bits of the full-volume transforms: rounding is monotone,
so each transform value is the minimum over seeds of a per-seed value
that depends only on the offset, not on the crop; every ground-truth seed
lies in its box, and a certified voxel's nearest seed lies inside the
crop, since any seed outside is farther by at least the slack.

At one margin every row's crop is the same box, so the rows of a case
share transforms: their crops are stacked on a trailing axis, as many as
hold at most ``_PASS_VOXELS`` voxels (one when a crop alone is larger),
and go through one ``distance_transform``, whose sweeps and passes treat
everything after the swept axis as independent lines. So each row gets
the bits of its own transform: a line's values never meet another
line's, a pass's early stop skips only terms that cannot win, and
``min`` is exact. Each row is certified on its own; the rows that fail
go on together to the next margin. The 95th percentile is numpy's
linear rule, done directly on two order statistics. The quadratic
all-pairs computation lives in the test suite as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import LabelMask, Spacing, _check_fields, _check_json
from .errors import ConfigError, DimensionMismatch


#: Every field of MetricReport, in order, with its JSON type.
_REPORT_FIELDS = {
    "per_class_iou": "object", "per_class_dice": "object",
    "miou": "number", "mdice": "number", "aiou": "number", "adice": "number",
    "hd95_mm": "number or null", "undefined_reason": "string or null",
}
#: The fields from class numbers to scores, which JSON keys by string.
_CLASS_SCORES = ("per_class_iou", "per_class_dice")


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
        d = {name: getattr(self, name) for name in _REPORT_FIELDS}
        for name in _CLASS_SCORES:
            d[name] = {str(c): v for c, v in d[name].items()}
        return d

    @classmethod
    def from_dict(cls, d: dict, where: str = "metric report") -> "MetricReport":
        """Inverse of :meth:`to_dict`; a missing or mistyped field, or a
        key that names no field, raises ConfigError naming ``where`` and
        the key."""
        _check_fields(d, _REPORT_FIELDS, where)
        return cls(**{
            name: _class_scores(d, name, where) if name in _CLASS_SCORES else d[name]
            for name in _REPORT_FIELDS
        })


def _class_scores(d: dict, field: str, where: str) -> dict[int, float]:
    """Field ``field`` of ``d``, a JSON object from class numbers to
    scores, keyed by int."""
    table, where = d[field], f"{where} field {field!r}"
    if not all(c.isdecimal() for c in table):
        raise ConfigError(f"{where} keys {list(table)} are not all class numbers")
    return {int(c): _check_json(v, "number", f"{where}[{c!r}]")
            for c, v in table.items()}


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


_STEPS = (
    (slice(None, -1), slice(1, None), slice(-1, None)),  # neighbour at +1
    (slice(1, None), slice(None, -1), slice(None, 1)),  # neighbour at -1
)
#: The six face directions as (site, neighbour, edge) index triples:
#: ``a[site]`` and ``a[neighbour]`` pair every voxel with its neighbour in
#: that direction, and ``a[edge]`` holds the voxels whose neighbour in that
#: direction lies off the volume.
_FACES = tuple(
    tuple((slice(None),) * axis + (s,) + (slice(None),) * (2 - axis) for s in step)
    for axis in range(3)
    for step in _STEPS
)


def _surface(fg: np.ndarray) -> np.ndarray:
    """Foreground voxels with a 6-neighbor outside the set (or off-volume)."""
    interior = fg.copy()
    for site, neighbour, edge in _FACES:
        interior[site] &= fg[neighbour]
        interior[edge] = False
    return fg & ~interior


def _voxels(a: np.ndarray) -> np.ndarray:
    """Coordinates (K, 3) of the nonzero voxels of ``a``, in row-major
    order: ``np.argwhere``'s, several times faster."""
    return np.transpose(np.unravel_index(np.flatnonzero(a), a.shape))


def surface_voxels(mask: LabelMask) -> np.ndarray:
    """Coordinates (K, 3) of the surface of the foreground (every class but
    background), in row-major order."""
    return _voxels(_surface(mask.labels > 0))


#: Voxels per block of lines in a min-plus pass, of a scorer's columns
#: gathered for voxels outside the ground-truth box, or of a stack of rows'
#: crops transformed together (at least one row), whose scratch is a few
#: blocks whatever the volume. Stacked rows give each row's own bits, as
#: blocks of lines do, since lines are independent and ``min`` is exact.
#: Smaller blocks spend more interpreter time per voxel, which worker
#: threads cannot overlap.
_PASS_VOXELS = 2 ** 16


def _cost(delta: float, k):
    """The min-plus cost ``(delta*k)^2`` of offset ``k`` (an int or an int
    array) along an axis of spacing ``delta``, formed as every pass forms
    it."""
    return delta * delta * k * k


def _sweep(seeds: np.ndarray, delta: float) -> np.ndarray:
    """Squared distance along axis 0 from each voxel to the nearest seed of
    its line, inf on a line with none: a forward and a backward linear
    sweep, then the square, in a new float64 array."""
    d2 = np.where(seeds, 0.0, np.inf)
    for i in range(1, len(d2)):
        np.minimum(d2[i], d2[i - 1] + delta, out=d2[i])
    for i in range(len(d2) - 2, -1, -1):
        np.minimum(d2[i], d2[i + 1] + delta, out=d2[i])
    return np.multiply(d2, d2, out=d2)


def _min_plus_pass(f2: np.ndarray, delta: float) -> None:
    """``out[i] = min_j f2[j] + (delta*(i-j))^2`` along axis 0, exactly.

    ``f2`` holds squared distances, shape (n, lines), inf where a line has
    no seed yet; it is overwritten with the result. The lines go in blocks
    of at most _PASS_VOXELS voxels. In a block, lines holding no finite
    value stay inf and are left out, and offsets stop at the first k whose
    cost reaches the largest value left: every later term is at least that
    large. Lines are independent and ``min`` is exact, so the blocks give
    the bits of one pass over all lines.
    """
    n = f2.shape[0]
    step = max(1, _PASS_VOXELS // n)
    for start in range(0, f2.shape[1], step):
        block = f2[:, start:start + step]
        live = np.isfinite(block).any(axis=0)
        f = np.compress(live, block, axis=1)
        out = f.copy()
        term = np.empty_like(f)
        for k in range(1, n):
            cost = _cost(delta, k)
            if cost >= out.max(initial=0.0):
                break
            shifted = term[k:]
            np.add(f[k:], cost, out=shifted)  # seeds k after each site
            np.minimum(out[:-k], shifted, out=out[:-k])
            np.add(f[:-k], cost, out=shifted)  # seeds k before each site
            np.minimum(out[k:], shifted, out=out[k:])
        block[:, live] = out


def distance_transform(seeds: np.ndarray, spacing: Spacing) -> np.ndarray:
    """Exact Euclidean distance (mm) from every voxel to the nearest seed.

    ``seeds`` has 3 axes, or 3 and a trailing batch axis whose entries are
    independent volumes of the same shape: every pass already treats all
    that follows its axis as independent lines. Separable: the first axis
    is resolved with two linear sweeps on the binary input, then each
    remaining axis applies one min-plus pass over the squared distances
    (see ``_min_plus_pass``). A voxel with no seed anywhere in its volume,
    so every voxel of a seedless one, gets inf. The work is in place:
    besides the result, either one more copy of it (the copy that lays out
    an axis's lines) or the scratch of one block of a pass exists at a time.
    """
    if seeds.ndim not in (3, 4):
        raise DimensionMismatch(f"seed mask must be 3D, got shape {seeds.shape}"
                                " (a fourth, trailing axis may batch 3D masks)")
    deltas = spacing.as_tuple()
    d2 = _sweep(seeds, deltas[0])
    for axis in (1, 2):
        lines = np.ascontiguousarray(np.moveaxis(d2, axis, 0))
        d2 = None  # the pass needs only the copy
        _min_plus_pass(lines.reshape(lines.shape[0], -1), deltas[axis])
        d2 = np.moveaxis(lines, 0, axis)
    return np.sqrt(d2, out=d2)


def _percentile95(values: np.ndarray) -> float:
    """``np.percentile(values, 95)``, bit for bit, partitioning ``values``
    in place: numpy's linear rule, the virtual index ``(n-1)*0.95`` between
    its two order statistics and ``_lerp``'s two-sided formula, without the
    general function's set-up."""
    n = len(values)
    if n == 1:
        return float(values[0])
    at = (n - 1) * 0.95
    i = int(at)
    values.partition((i, i + 1))
    a, b, t = float(values[i]), float(values[i + 1]), at - i
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


#: First margin, in voxels, by which a row's transform grows the
#: ground-truth surface box; it doubles until the crop is certified.
_MARGIN = 2


class CaseScorer:
    """One case's ground truth, prepared once to score many predictions.

    :meth:`evaluate` scores a list of rows, the masks of one case, and
    returns their reports in order; the one-row :func:`evaluate` and
    :func:`hd95` build a scorer for their row and go through the same code.
    Once a row has needed it, a scorer keeps the transform of the
    ground-truth surface on that surface's box and the squared first-axis
    sweep of the box's (y, z) columns, nx x box_y x box_z float64, and
    should die with its case.

    Rows whose crops are transformed together form a stack: as many rows'
    crops, stacked on a trailing axis, as hold at most ``_PASS_VOXELS``
    voxels, and one row when a single crop is larger. While a stack is
    scored it holds the whole surface of each of its rows, besides its
    transform; the rows' masks are held by the caller.
    """

    def __init__(self, gt: LabelMask, spacing: Spacing):
        self.gt = gt
        self.spacing = spacing
        self.surface = _surface(gt.labels > 0)
        self.points = _voxels(self.surface)  # row-major, as surface[...]
        if len(self.points):  # the surface's box, [lo, hi) per axis
            self._lo, self._hi = self.points.min(axis=0), self.points.max(axis=0) + 1
        self._near = None

    def _prepare(self) -> None:
        """Keep the ground-truth side of :meth:`to_gt` (see the module)."""
        lo, hi = self._lo, self._hi
        self._crop = tuple(slice(a, b) for a, b in zip(lo, hi))
        dx, dy, dz = self.spacing.as_tuple()
        _, ny, nz = self.surface.shape
        self._columns = _sweep(self.surface[:, self._crop[1], self._crop[2]], dx)
        # The cost from each y (z) of the volume to each y (z) of the box.
        self._to_y = _cost(dy, abs(np.arange(ny)[:, None] - np.arange(lo[1], hi[1])))
        self._to_z = _cost(dz, abs(np.arange(nz)[:, None] - np.arange(lo[2], hi[2])))
        self._near = distance_transform(self.surface[self._crop], self.spacing)

    def to_gt(self, surface: np.ndarray) -> np.ndarray:
        """Distance (mm) from each voxel of ``surface``, in no set order, to
        the ground-truth surface, which is not empty.

        A voxel inside the ground-truth box reads the box's transform; one
        outside takes the minimum over the box's columns of the swept
        value plus the second axis's cost, and of that plus the third's.
        """
        if self._near is None:
            self._prepare()
        near = self._near[surface[self._crop]]
        outside = surface.copy()
        outside[self._crop] = False
        x, y, z = np.unravel_index(np.flatnonzero(outside), outside.shape)
        if not len(x):
            return near
        far = np.empty(len(x))
        step = max(1, _PASS_VOXELS // self._columns[0].size)
        for start in range(0, len(x), step):
            part = slice(start, start + step)
            sums = self._columns[x[part]]
            sums += self._to_y[y[part], :, None]  # the pass along the second axis
            lines = sums.min(axis=1)
            lines += self._to_z[z[part]]  # the pass along the third axis
            far[part] = lines.min(axis=1)
        return np.concatenate([near, np.sqrt(far, out=far)])

    def _grown(self, margin: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of the ground-truth box grown by ``margin`` voxels
        and clipped to the volume."""
        dims = np.array(self.surface.shape)
        return np.maximum(self._lo - margin, 0), np.minimum(self._hi + margin, dims)

    def _stack_rows(self, margin: int) -> int:
        """Rows per stack at ``margin``: at most _PASS_VOXELS voxels, at
        least one row."""
        lo, hi = self._grown(margin)
        return max(1, _PASS_VOXELS // int(np.prod(hi - lo)))

    def to_surfaces(self, surfaces: list[np.ndarray]) -> list[np.ndarray]:
        """Per surface of ``surfaces``, none empty, the distance (mm) from
        each ground-truth surface voxel, in row-major order, to the
        nearest voxel of that surface.

        A row's transform runs on the ground-truth box grown by a margin
        that doubles until each distance is at most the voxel's distance
        to the outside of the crop minus one voxel, or the crop is the
        volume. The rows at one margin go through ``distance_transform`` in
        stacks (see the class), a single row without the batch axis; each
        row is certified on its own, and those that fail go on together to
        the next margin.
        """
        dims = np.array(self.surface.shape)
        steps = np.array(self.spacing.as_tuple())
        dists = [None] * len(surfaces)
        todo = list(range(len(surfaces)))
        margin = _MARGIN
        while todo:
            lo, hi = self._grown(margin)
            crop = tuple(slice(a, b) for a, b in zip(lo, hi))
            at = tuple((self.points - lo).T)
            # Off the volume's edges there is no outside: inf room, so the
            # whole volume certifies every row.
            below = np.where(lo > 0, (self.points - lo + 1) * steps, np.inf)
            above = np.where(hi < dims, (hi - self.points) * steps, np.inf)
            bound = np.minimum(below, above).min(axis=1) - steps.min()
            per, failed = self._stack_rows(margin), []
            for start in range(0, len(todo), per):
                rows = todo[start:start + per]
                crops = [surfaces[i][crop] for i in rows]
                seeds = crops[0] if len(rows) == 1 else np.stack(crops, axis=-1)
                dist = distance_transform(seeds, self.spacing)[at]
                for i, d in zip(rows, dist.reshape(len(self.points), -1).T):
                    if (d <= bound).all():
                        dists[i] = d
                    else:
                        failed.append(i)
            todo = failed
            margin *= 2
        return dists

    def _hd95s(self, masks: list[LabelMask]) -> list[float | None]:
        """:func:`hd95` of each of ``masks`` against the ground truth, in
        order, one stack of rows at a time."""
        for pred in masks:
            _check_dims(pred, self.gt)
        if not len(self.points):  # no ground-truth surface to measure from
            return [None if pred.labels.any() else 0.0 for pred in masks]
        out = []
        per = self._stack_rows(_MARGIN)
        for start in range(0, len(masks), per):
            surfaces = [_surface(pred.labels > 0) for pred in masks[start:start + per]]
            live = [s for s in surfaces if s.any()]
            pooled = iter(zip([self.to_gt(s) for s in live], self.to_surfaces(live)))
            out += [_percentile95(np.concatenate(next(pooled))) if s.any() else None
                    for s in surfaces]
        return out

    def evaluate(self, masks: list[LabelMask]) -> list[MetricReport]:
        """The full metric suite, overlap metrics plus HD95, of each of
        ``masks`` against the ground truth, in order."""
        reports = []
        for pred, distance in zip(masks, self._hd95s(masks)):
            reason = None
            if distance is None:
                empty = "prediction" if not pred.labels.any() else "ground truth"
                reason = f"{empty} has empty foreground"
            reports.append(replace(overlap_metrics(pred, self.gt),
                                   hd95_mm=distance, undefined_reason=reason))
        return reports


def hd95(pred: LabelMask, gt: LabelMask, spacing: Spacing) -> float | None:
    """95th percentile of pooled symmetric surface distances, in mm.

    Both surfaces empty gives 0 (nothing disagrees); exactly one empty is
    undefined and returns None so aggregation can exclude and count it.
    This is :class:`CaseScorer`'s HD95 of one row; score the rows of a
    case through one scorer's :meth:`CaseScorer.evaluate` instead.
    """
    return CaseScorer(gt, spacing)._hd95s([pred])[0]


def evaluate(pred: LabelMask, gt: LabelMask, spacing: Spacing) -> MetricReport:
    """Full metric suite for one row: overlap metrics plus HD95.

    This is :meth:`CaseScorer.evaluate` of one row, with a scorer built for
    it; the rows of a case share one scorer there.
    """
    return CaseScorer(gt, spacing).evaluate([pred])[0]
