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

Fusion goes slab by slab along the first axis (``core.slabs``: at most
``core.SLAB_VOXELS`` voxels each, in whole planes). Per slab it streams
through one accumulator per group of maps, :class:`Votes`, which keeps
one plane per class (S and W, or integer vote counts). Maps are counted in
source-tag order by ``count(map, votes)``, which checks a map, forms its
slab of float64 values, works out its w (or its argmax classes for
majority) once, then adds it one class at a time: w * P(., c) (or the
votes for c) goes into one scratch plane, which is added to every
accumulator that counts the map. The decision reads the planes without
changing them, so several thresholds decide from one accumulator, and
writes the slab of each mask. :func:`fuse_groups` is that loop, for the
pipeline and for :func:`fuse` alike. Nothing is stacked and no plane spans
the volume: besides the maps, which stay in the compact form they are held
in, and the output masks, fusion holds one slab of votes per group and one
slab of one map at a time, for any ensemble size. The fixed order makes
the masks independent of input order; ties break toward the lower class
index.
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


def _check_consistent(m: ProbabilityMap, ref, name: str) -> None:
    """Raise InconsistentMaps unless map ``m`` has the dims and class count
    of ``ref`` (a map or votes), called ``name`` in the message."""
    if (m.dims, m.num_classes) != (ref.dims, ref.num_classes):
        raise InconsistentMaps(
            f"map {m.source_tag!r} has dims {m.dims} and {m.num_classes} "
            f"classes; {name} has {ref.dims} and {ref.num_classes}"
        )


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
        for m in maps[1:]:
            _check_consistent(m, maps[0], repr(maps[0].source_tag))
        _check_mode(self.mode)
        _check_tau(self.tau)
        object.__setattr__(self, "maps", tuple(sorted(maps, key=lambda m: m.source_tag)))


class Votes:
    """Running vote sums of one set of maps over one slab of rows, kept as
    one plane per class.

    ``rows`` is the ``(a, b)`` range of first-axis rows the votes cover
    (all of ``dims`` by default). ``count(map, votes)`` adds a map's slab
    into the running sums ``S(., c)`` and ``W`` (int32 counts for majority)
    of one or several votes, so one map can feed the votes of several view
    sets. ``decide(tau, out)`` reads the sums without changing them, so
    every threshold of a sweep decides from one set of sums.
    """

    def __init__(self, mode: str, dims, num_classes: int, rows=None):
        self.mode = _check_mode(mode)
        self.dims = tuple(dims)
        self.num_classes = num_classes
        self.rows = (0, self.dims[0]) if rows is None else tuple(rows)
        shape = (self.rows[1] - self.rows[0], *self.dims[1:])
        dtype = np.int32 if mode == "majority" else np.float64
        self.scores = [np.zeros(shape, dtype) for _ in range(num_classes)]
        self.weight = None if mode == "majority" else np.zeros(shape)
        self.maps = 0  # maps counted

    def decide(self, tau: float, out: np.ndarray) -> None:
        """Write the fused labels of the slab into ``out`` (uint8, the
        slab's shape): per voxel the class of the largest score, ties to
        the lower class; for threshold_weighted the scores are S / W and a
        voxel whose largest falls below ``tau`` is background."""
        if not self.maps:
            raise InconsistentMaps("votes need at least one probability map")
        normalized = self.mode == "threshold_weighted"
        if normalized:
            tau = _check_tau(tau)
        # W >= 1/C > 0 (a map's per-voxel max is >= 1/C), so S/W is in [0, 1].
        scores = (s / self.weight if normalized else s for s in self.scores)
        best = np.array(next(scores))  # a copy: the maxima go into it
        out[...] = 0
        for c, score in enumerate(scores, start=1):
            np.copyto(out, c, where=score > best)
            np.maximum(best, score, out=best)
        if normalized:
            out[best < tau] = 0


def count(m: ProbabilityMap, votes) -> None:
    """Add map ``m``'s slab to each of ``votes``, which share one mode,
    dims, class count and rows; InconsistentMaps unless ``m`` has the same
    dims and class count. Its weight ``w = max_c P`` (for majority, its
    argmax class per voxel, lower index on ties) is worked out once; then,
    class by class, ``w * P(., c)`` (the votes for c) is formed in one
    scratch plane and added to every accumulator."""
    _check_consistent(m, votes[0], "the votes")
    majority = votes[0].mode == "majority"
    probs = m.slab(*votes[0].rows)
    if majority:
        top = np.argmax(probs, axis=-1)
    else:
        weight = probs[..., 0].copy()
        for c in range(1, m.num_classes):
            np.maximum(weight, probs[..., c], out=weight)
    scratch = np.empty(probs.shape[:3], bool if majority else np.float64)
    for c in range(m.num_classes):
        if majority:
            np.equal(top, c, out=scratch)
        else:
            np.multiply(probs[..., c], weight, out=scratch)
        for acc in votes:
            acc.scores[c] += scratch
    for acc in votes:
        if not majority:
            acc.weight += weight
        acc.maps += 1


def fuse_groups(mode: str, maps, keys, decisions) -> list[LabelMask]:
    """One fused mask per decision, over consistent ``maps`` in source-tag
    order, fused slab by slab.

    ``keys[i]`` is map i's key (in the pipeline, its view); a decision
    ``(group, tau)`` fuses at ``tau`` the maps whose key is in ``group``,
    a frozenset of keys (in the pipeline, a view set). Per slab of
    :func:`~segtta.core.slabs`, one :class:`Votes` is made per distinct
    group, each map is counted once, in order, into the votes of every
    group that holds its key, and each decision writes its slab of labels.
    Only one slab of votes exists at a time.
    """
    dims, num_classes = maps[0].dims, maps[0].num_classes
    groups = list(dict.fromkeys(group for group, _ in decisions))
    labels = [np.empty(dims, np.uint8) for _ in decisions]
    counted = [(m, [g for g in groups if key in g]) for m, key in zip(maps, keys)]
    for a, b in slabs(dims):
        votes = {g: Votes(mode, dims, num_classes, (a, b)) for g in groups}
        for m, into in counted:
            if into:
                count(m, [votes[g] for g in into])
        for (group, tau), out in zip(decisions, labels):
            votes[group].decide(tau, out[a:b])
        votes = None  # gone before the next slab's votes are made
    for out in labels:
        out.setflags(write=False)  # so the mask holds it without a copy
    return [LabelMask(out, num_classes) for out in labels]


def fuse(input: FusionInput) -> LabelMask:
    """Fuse with the voting rule selected by the input's mode: the maps,
    in source-tag order, through :func:`fuse_groups` as one group."""
    return fuse_groups(input.mode, input.maps, [0] * len(input.maps),
                       [(frozenset({0}), input.tau)])[0]


def foreground_volume(mask: LabelMask, spacing: Spacing) -> float:
    """Physical volume of all non-background voxels, in mm^3."""
    return float(np.count_nonzero(mask.labels)) * spacing.voxel_volume
