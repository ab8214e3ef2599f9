"""Voting fusion of probability maps into a single label mask.

The three modes are one weighted vote. Map i gives class c the vote
w_i(x) P_i(x, c) at voxel x, and the votes are summed over the maps,

    S(x, c) = sum_i w_i(x) P_i(x, c),    W(x) = sum_i w_i(x);

each voxel takes the class of the largest score, ties to the lower class:

* majority: a map votes with the one-hot of its argmax class (lower class
  on ties) at weight 1, so S counts each class's votes, exactly in
  float64, and the score is S;
* confidence-weighted: w_i(x) = max_c P_i(x, c), and the score is S, with
  no normalization and no tau;
* threshold-weighted: the same w_i, and the score is S_hat = S / W; a
  voxel whose largest S_hat falls below the threshold tau is background.
  The normalization keeps a fixed tau meaningful for any ensemble size.

:func:`fuse_groups` fuses slab by slab along the first axis
(``core.slabs``: at most ``core.SLAB_VOXELS`` voxels each, in whole
planes), for the pipeline and for :func:`fuse` alike. Per slab it keeps C
planes of S and one of W for each group of maps. It forms each map's slab
of float64 values and its w once, in source-tag order, then adds
w * P(., c) from one scratch plane into every group that holds the map.
Each decision reads its group's sums without changing them, so several
thresholds decide from one set of sums, and writes its slab of the mask.
Nothing is stacked and no plane spans the volume: besides the maps, which
stay in the compact form they are held in, and the output masks, fusion
holds one slab of sums per group and one slab of one map at a time, for
any ensemble size. The fixed order makes the masks independent of input
order.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .core import LabelMask, ProbabilityMap, Spacing, slabs
from .errors import ConfigError, InconsistentMaps, InvalidTau

VOTING_MODES = ("majority", "confidence_weighted", "threshold_weighted")


def _check_tau(tau) -> float:
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and 0 < tau <= 1):
        raise InvalidTau(f"tau={tau!r} must be in (0, 1]")
    return float(tau)


def _check_mode(mode) -> str:
    if mode not in VOTING_MODES:
        raise ConfigError(f"voting mode {mode!r} not in {VOTING_MODES}")
    return mode


def _check_consistent(maps) -> None:
    """Raise InconsistentMaps, naming both maps, unless every map has the
    dims and class count of the first."""
    first = maps[0]
    for m in maps[1:]:
        if (m.dims, m.num_classes) != (first.dims, first.num_classes):
            raise InconsistentMaps(
                f"map {m.source_tag!r} has dims {m.dims} and {m.num_classes} "
                f"classes; map {first.source_tag!r} has {first.dims} and "
                f"{first.num_classes}"
            )


@dataclass(frozen=True)
class FusionInput:
    """A consistent set of maps to fuse, kept in the order given."""

    maps: tuple[ProbabilityMap, ...]
    mode: str = "threshold_weighted"
    tau: float = 0.6

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise InconsistentMaps("fusion input needs at least one probability map")
        _check_consistent(maps)
        _check_mode(self.mode)
        _check_tau(self.tau)
        object.__setattr__(self, "maps", maps)


def _decide(mode: str, sums, tau: float, out: np.ndarray) -> None:
    """Write into ``out`` (uint8, the slab's shape) the fused labels of one
    group's ``sums``, its C planes of S and then its plane of W: per voxel
    the class of the largest score, ties to the lower class; for
    threshold_weighted the scores are S / W and a voxel whose largest
    falls below ``tau`` is background. The sums are not changed."""
    *classes, weight = sums
    normalized = mode == "threshold_weighted"
    # W >= 1/C > 0 (a map's per-voxel max is >= 1/C), so S/W is in [0, 1].
    scores = (s / weight if normalized else s for s in classes)
    best = np.array(next(scores))  # a copy: the maxima go into it
    out[...] = 0
    for c, score in enumerate(scores, start=1):
        np.copyto(out, c, where=score > best)
        np.maximum(best, score, out=best)
    if normalized:
        out[best < tau] = 0


def fuse_groups(mode: str, maps, keys, decisions) -> list[LabelMask]:
    """One fused mask per decision, over consistent ``maps`` in source-tag
    order, fused slab by slab. The order is set here: the maps, each with
    its key, are sorted stably by tag, so the order given changes no mask.

    ``keys[i]`` is map i's key (in the pipeline, its view); a decision
    ``(group, tau)`` fuses at ``tau`` the maps whose key is in ``group``,
    a frozenset of keys (in the pipeline, a view set). The mode, the maps'
    consistency, the taus and that every group holds a map are checked
    once, up front. Per slab of :func:`~segtta.core.slabs`, each distinct
    group gets its sums, each map's slab is formed once and its votes added,
    in order, into the sums of every group that holds its key, and each
    decision writes its slab of labels. Only one slab of sums exists at a
    time.
    """
    _check_mode(mode)
    groups = list(dict.fromkeys(group for group, _ in decisions))
    for group in groups:
        if not any(key in group for key in keys):
            raise InconsistentMaps(
                f"group {sorted(group, key=str)} holds no probability map")
    if mode == "threshold_weighted":
        decisions = [(group, _check_tau(tau)) for group, tau in decisions]
    _check_consistent(maps)
    maps, keys = zip(*sorted(zip(maps, keys), key=lambda pair: pair[0].source_tag))
    dims, num_classes = maps[0].dims, maps[0].num_classes
    labels = [np.empty(dims, np.uint8) for _ in decisions]
    held = [[group for group in groups if key in group] for key in keys]
    for a, b in slabs(dims):
        shape = (b - a, *dims[1:])
        sums = {g: [np.zeros(shape) for _ in range(num_classes + 1)] for g in groups}
        for m, into in zip(maps, held):
            if not into:
                continue
            probs = m.slab(a, b)
            if mode == "majority":  # the one-hot of its argmax, in place
                np.equal(np.argmax(probs, axis=-1)[..., None],
                         np.arange(num_classes), out=probs)
            weight = probs[..., 0].copy()
            for c in range(1, num_classes):
                np.maximum(weight, probs[..., c], out=weight)
            scratch = np.empty(shape)
            for c in range(num_classes):
                np.multiply(probs[..., c], weight, out=scratch)
                for group in into:
                    sums[group][c] += scratch
            for group in into:
                sums[group][num_classes] += weight
            probs = weight = scratch = None  # freed before the next slab is formed
        for (group, tau), out in zip(decisions, labels):
            _decide(mode, sums[group], tau, out[a:b])
        sums = None  # gone before the next slab's sums are made
    for out in labels:
        out.setflags(write=False)  # so the mask holds it without a copy
    return [LabelMask(out, num_classes) for out in labels]


def fuse(input: FusionInput) -> LabelMask:
    """Fuse with the voting rule selected by the input's mode: the maps
    through :func:`fuse_groups` as one group."""
    return fuse_groups(input.mode, input.maps, [0] * len(input.maps),
                       [(frozenset({0}), input.tau)])[0]


def foreground_volume(mask: LabelMask, spacing: Spacing) -> float:
    """Physical volume of all non-background voxels, in mm^3."""
    return float(np.count_nonzero(mask.labels)) * spacing.voxel_volume
