"""Voting fusion of probability maps into a single label mask.

Three per-voxel rules are provided:

* majority: each map casts one vote for its argmax class,
      y(x) = argmax_c  #{i : argmax_c' P_i(x, c') = c}
* confidence-weighted: class scores weighted by each map's confidence,
      y(x) = argmax_c  sum_i w_i(x) P_i(x, c),   w_i(x) = max_c P_i(x, c)
* threshold-weighted: the confidence-weighted score is normalized by the
  total weight, and a voxel is labeled only when the winning normalized
  score reaches the threshold tau; otherwise it falls back to background,
      S(x, c) = sum_k w_k(x) P_k(x, c)
      y(x)    = argmax_c S_hat(x, c)  if max_c S_hat >= tau else 0,
  with S_hat = S / sum_k w_k(x). The normalization keeps a fixed tau
  meaningful for any ensemble size.

Fusion streams: one pass over the maps in source-tag order adds each into
preallocated accumulators (S and W, or integer vote counts for majority),
and the decision reads them once. Nothing is stacked, so memory is
O(voxels x C) for any ensemble size; the fixed order makes the masks
independent of input order. Ties break toward the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .core import LabelMask, ProbabilityMap, Spacing
from .errors import InconsistentMaps, InvalidTau

VOTING_MODES = ("majority", "confidence_weighted", "threshold_weighted")


def _check_tau(tau) -> float:
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and 0 < tau <= 1):
        raise InvalidTau(f"tau={tau!r} must be in (0, 1]")
    return float(tau)


@dataclass(frozen=True)
class FusionInput:
    """A consistent, deterministically ordered set of maps to fuse."""

    maps: tuple[ProbabilityMap, ...]
    mode: str = "threshold_weighted"
    tau: float = 0.6

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise InconsistentMaps("fusion input needs at least one probability map")
        dims, classes = maps[0].dims, maps[0].num_classes
        for m in maps[1:]:
            if (m.dims, m.num_classes) != (dims, classes):
                raise InconsistentMaps(
                    f"map {m.source_tag!r} has dims {m.dims} and {m.num_classes} "
                    f"classes; {maps[0].source_tag!r} has {dims} and {classes}"
                )
        if self.mode not in VOTING_MODES:
            raise ValueError(f"voting mode {self.mode!r} not in {VOTING_MODES}")
        _check_tau(self.tau)
        object.__setattr__(self, "maps", tuple(sorted(maps, key=lambda m: m.source_tag)))

    @property
    def dims(self):
        return self.maps[0].dims

    @property
    def num_classes(self) -> int:
        return self.maps[0].num_classes


def _class_max(values: np.ndarray) -> np.ndarray:
    """max over the last (class) axis as pairwise maxima, one per class."""
    out = values[..., 0].copy()
    for c in range(1, values.shape[-1]):
        np.maximum(out, values[..., c], out=out)
    return out


def _weighted_scores(maps) -> tuple[np.ndarray, np.ndarray]:
    """S(x,c) = sum_k w_k(x) P_k(x,c) and W(x) = sum_k w_k(x), streamed."""
    scores = np.zeros_like(maps[0].probs)
    total_weight = np.zeros(scores.shape[:-1])
    weighted = np.empty_like(scores)
    for m in maps:
        weight = _class_max(m.probs)
        np.multiply(m.probs, weight[..., None], out=weighted)
        scores += weighted
        total_weight += weight
    return scores, total_weight


def _fuse(input: FusionInput, mode: str) -> LabelMask:
    """Accumulate the maps in tag order, then decide every voxel at once."""
    if input.mode != mode:
        raise ValueError(f"fusion input has mode {input.mode!r}, expected {mode!r}")
    if mode == "majority":
        counts = np.zeros(input.maps[0].probs.shape, dtype=np.int32)
        classes = np.arange(input.num_classes)
        for m in input.maps:  # lower index on per-map ties
            counts += np.argmax(m.probs, axis=-1)[..., None] == classes
        labels = np.argmax(counts, axis=-1)
    elif mode == "confidence_weighted":
        labels = np.argmax(_weighted_scores(input.maps)[0], axis=-1)
    else:
        scores, total_weight = _weighted_scores(input.maps)
        # W >= 1/C > 0 (a map's per-voxel max is >= 1/C), so S_hat is in [0, 1].
        scores /= total_weight[..., None]
        labels = np.argmax(scores, axis=-1)
        labels[_class_max(scores) < input.tau] = 0
    return LabelMask(labels, input.num_classes)


def majority_vote(input: FusionInput) -> LabelMask:
    """Most frequent per-map argmax wins; ties go to the lower class index."""
    return _fuse(input, "majority")


def confidence_weighted_vote(input: FusionInput) -> LabelMask:
    """Argmax of confidence-weighted class scores."""
    return _fuse(input, "confidence_weighted")


def threshold_weighted_vote(input: FusionInput) -> LabelMask:
    """Confidence-weighted vote gated by the normalized-score threshold."""
    return _fuse(input, "threshold_weighted")


def fuse(input: FusionInput) -> LabelMask:
    """Fuse with the voting rule selected by the input's mode."""
    return _fuse(input, input.mode)


def foreground_volume(mask: LabelMask, spacing: Spacing) -> float:
    """Physical volume of all non-background voxels, in mm^3."""
    return float(np.count_nonzero(mask.labels)) * spacing.voxel_volume
