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

:func:`fuse_groups` is the one gate for fusion input, for the pipeline
and for :func:`fuse` alike: it checks the mode, that there is a map, every
tau, that every group holds a map and that the maps agree in dims and
class count. It fuses slab by slab along the first axis (``core.slabs``:
at most ``core.SLAB_VOXELS`` voxels each, in whole planes), adding the
maps in source-tag order, so the masks are independent of input order.
Each group of maps (in the pipeline, a view set) holds its running sums
(S_0..S_{C-1}, W) per voxel in one of two ways:

* as values, for any maps: per slab, C + 1 float64 planes per group. Each
  map's slab of float64 values and its w are formed once, and w * P(., c)
  is added from one scratch plane into every group that holds the map.
  Besides the maps, which stay in the compact form they are held in, and
  the output masks, fusion then holds one slab of sums per group and one
  slab of one map at a time, for any ensemble size;
* as interned states, when every map is a row-table map
  (``ProbabilityMap.from_rows``, how synthetic members are held). Such a
  map's vote at a voxel is one of its R table rows, so a group's sums
  take few distinct values: 102 after 25 two-class maps of one
  confidence, some thousands after 25 three-class ones. Once per group
  and list of tables (so once per experiment: the chains are kept, keyed
  by the mode and each step's table), each state the sums can reach
  after k maps is listed, as the states after k - 1 maps plus each row
  of map k's votes, with the same float64 add, deduplicated by value;
  step k's uint16 table sends (state, row) to the next state, and each
  final state is decided once per tau. Per slab, every group starts at
  the chain's one initial state 0, the empty sums; a map moves each of
  its groups' uint16 states one step (one add of its labels, one table
  lookup), and a decision is one lookup: one uint16 plane per group and
  no float64 plane. The states are the value path's sums, formed by the
  same adds in the same order, so the masks are the same bytes, with no
  tolerance. Tables of different content whose vote rows are equal, such
  as majority's at two confidences, get separate chains, with the same
  masks. A chain that would pass ``CHAIN_PAIRS`` (state, row) pairs at a
  step, or ``CHAIN_BYTES``, sends its call to the value path.

Each decision reads its group's sums without changing them, so several
thresholds decide from one set of sums, and writes its slab of the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

from .core import LabelMask, Memo, ProbabilityMap, Spacing, _freeze, slabs
from .errors import ConfigError, InconsistentMaps

VOTING_MODES = ("majority", "confidence_weighted", "threshold_weighted")

#: The voting mode when none is given.
DEFAULT_VOTING = "threshold_weighted"

#: The threshold of threshold_weighted voting when none is given.
DEFAULT_TAU = 0.6


def _check_tau(tau) -> float:
    """``tau`` as a float: a real number, not a bool, finite and in (0, 1];
    else ConfigError."""
    if not (isinstance(tau, numbers.Real) and not isinstance(tau, bool)
            and math.isfinite(tau) and 0 < tau <= 1):
        raise ConfigError(f"tau={tau!r} must be in (0, 1]")
    return float(tau)


def _check_mode(mode) -> str:
    if mode not in VOTING_MODES:
        raise ConfigError(f"voting mode {mode!r} not in {VOTING_MODES}")
    return mode


@dataclass(frozen=True)
class FusionInput:
    """Maps to fuse, as a tuple in the order given, with the voting mode
    and tau. It holds them unchecked: :func:`fuse` checks them, through
    :func:`fuse_groups`."""

    maps: tuple[ProbabilityMap, ...]
    mode: str = DEFAULT_VOTING
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))


def _decide(mode: str, sums, tau: float, out: np.ndarray) -> None:
    """Write into ``out`` (uint8, shaped as each plane of ``sums``) the
    fused labels of one group's ``sums``, its C planes of S and then its
    plane of W, for a slab's voxels or a chain's final states: per voxel
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


#: Bounds of one group's chain of interned sums: a step's (state, row)
#: pairs index a uint16 table, and the chain's tables, with the sums of the
#: step being interned, take at most CHAIN_BYTES.
CHAIN_PAIRS = 2 ** 16
CHAIN_BYTES = 2 ** 20

#: Chains of interned sums, keyed by the mode and each step's table, so the
#: cases of an experiment share them; at most CHAINS_KEPT x CHAIN_BYTES.
CHAINS_KEPT = 16
_chains = Memo(CHAINS_KEPT)


def _weigh(mode: str, probs: np.ndarray) -> np.ndarray:
    """The weight w of each voxel, or table row, of ``probs`` (float64, the
    classes last), after making ``probs`` the one-hot of its argmax in place
    for majority."""
    num_classes = probs.shape[-1]
    if mode == "majority":
        np.equal(np.argmax(probs, axis=-1)[..., None], np.arange(num_classes),
                 out=probs)
    weight = probs[..., 0].copy()
    for c in range(1, num_classes):
        np.maximum(weight, probs[..., c], out=weight)
    return weight


def _vote_rows(mode: str, table: np.ndarray) -> np.ndarray:
    """A row-table map's votes, one row (w P_0, .., w P_{C-1}, w) per row
    of its ``table``, formed by the value path's own ops."""
    probs = np.array(table)
    weight = _weigh(mode, probs)
    return np.column_stack([probs * weight[:, None], weight])


def _intern(steps) -> tuple[list[np.ndarray], np.ndarray] | None:
    """The chain of a group whose maps vote the rows ``steps``, in order:
    per step, a uint16 table from (state, row) to the next state, and the
    final states' sums as C + 1 rows (S_0..S_{C-1}, W); None past
    CHAIN_PAIRS or CHAIN_BYTES. Step k's table is indexed by the state
    times the step's row count plus the row, and holds the next state so
    premultiplied for step k + 1, so a step is one add and one lookup."""
    width = steps[0].shape[1]
    states, tables, size = np.zeros((1, width)), [], 0
    for votes in steps:
        pairs = len(states) * len(votes)
        size += 2 * pairs
        if pairs > CHAIN_PAIRS or size + 8 * width * pairs > CHAIN_BYTES:
            return None
        # The value path's add, sums += votes, for every pair at once.
        sums = (states[:, None, :] + votes[None, :, :]).reshape(pairs, width)
        states, index = np.unique(sums, axis=0, return_inverse=True)
        tables.append(index.reshape(-1))
    for k, votes in enumerate(steps[1:]):
        tables[k] = tables[k] * len(votes)
    return [_freeze(table.astype(np.uint16)) for table in tables], _freeze(states.T)


def _chains_of(mode: str, maps, held, groups) -> dict | None:
    """Each group's chain (see :func:`_intern`) when every map is a
    row-table map and every chain is within its bounds, else None."""
    tables = [m.row_table for m in maps]
    if any(table is None for table in tables):
        return None
    # One key part per distinct table object, so a kept key holds one
    # bytes copy of each table however many maps share it.
    distinct = {id(t): t for t, _ in tables}
    parts = {i: (t.shape, t.tobytes()) for i, t in distinct.items()}
    chains = {}
    for group in groups:
        steps = [table for (table, _), into in zip(tables, held) if group in into]
        chain = _chains.get((mode, tuple(parts[id(t)] for t in steps)),
                            lambda: _intern([_vote_rows(mode, t) for t in steps]))
        if chain is None:
            return None
        chains[group] = chain
    return chains


def fuse_groups(mode: str, maps, keys, decisions) -> list[LabelMask]:
    """One fused mask per decision, over consistent ``maps`` in source-tag
    order, fused slab by slab. The order is set here: the maps, each with
    its key, are sorted stably by tag, so the order given changes no mask.

    ``keys[i]`` is map i's key (in the pipeline, its view); a decision
    ``(group, tau)`` fuses at ``tau`` the maps whose key is in ``group``,
    a frozenset of keys (in the pipeline, a view set). This is the one
    gate for fusion input, checked once, up front: the mode, that there is
    a map (else InconsistentMaps), every tau in every mode, that every
    group holds a map, and that every map has the dims and class count of
    the first (else InconsistentMaps naming both). Per slab of
    :func:`~segtta.core.slabs`, each distinct group gets its sums, each
    map's slab is read once and its votes added, in order, into the sums
    of every group that holds its key, and each decision writes its slab
    of labels. The sums are interned states when every map is a row-table
    map and values otherwise (see the module); only one slab of them
    exists at a time.
    """
    _check_mode(mode)
    if not maps:
        raise InconsistentMaps("fusion input needs at least one probability map")
    decisions = [(group, _check_tau(tau)) for group, tau in decisions]
    groups = list(dict.fromkeys(group for group, _ in decisions))
    for group in groups:
        if not any(key in group for key in keys):
            raise InconsistentMaps(
                f"group {sorted(group, key=str)} holds no probability map")
    first = maps[0]
    for m in maps[1:]:
        if (m.dims, m.num_classes) != (first.dims, first.num_classes):
            raise InconsistentMaps(
                f"map {m.source_tag!r} has dims {m.dims} and {m.num_classes} "
                f"classes; map {first.source_tag!r} has {first.dims} and "
                f"{first.num_classes}"
            )
    maps, keys = zip(*sorted(zip(maps, keys), key=lambda pair: pair[0].source_tag))
    dims, num_classes = maps[0].dims, maps[0].num_classes
    labels = [np.empty(dims, np.uint8) for _ in decisions]
    held = [[group for group in groups if key in group] for key in keys]
    chains = _chains_of(mode, maps, held, groups)
    if chains is None:
        _fuse_values(mode, maps, held, groups, decisions, labels)
    else:
        _fuse_states(mode, maps, held, chains, decisions, labels)
    for out in labels:
        out.setflags(write=False)  # so the mask holds it without a copy
    return [LabelMask(out, num_classes) for out in labels]


def _fuse_values(mode: str, maps, held, groups, decisions, labels) -> None:
    """Fuse into ``labels`` with C + 1 float64 planes of sums per group."""
    dims, num_classes = maps[0].dims, maps[0].num_classes
    for a, b in slabs(dims):
        shape = (b - a, *dims[1:])
        sums = {g: [np.zeros(shape) for _ in range(num_classes + 1)] for g in groups}
        for m, into in zip(maps, held):
            if not into:
                continue
            probs = m.slab(a, b)
            weight = _weigh(mode, probs)
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


def _fuse_states(mode: str, maps, held, chains, decisions, labels) -> None:
    """Fuse into ``labels`` with one uint16 plane of interned states per
    group, stepped by ``chains`` (see :func:`_chains_of`)."""
    tables = {group: iter(chain[0]) for group, chain in chains.items()}
    # Per map, in order, the (group, table) of each group holding it.
    steps = [[(group, next(tables[group])) for group in into] for into in held]
    decided = []  # per decision, the label of each final state
    for group, tau in decisions:
        sums = chains[group][1]
        decided.append(np.empty(sums.shape[1], np.uint8))
        _decide(mode, sums, tau, decided[-1])
    # The lookups cannot leave their tables (a label is below its map's
    # row count), so "clip" only spares numpy a buffered copy.
    dims = maps[0].dims
    for a, b in slabs(dims):
        # Every group starts at its chain's initial state 0, the empty sums.
        states = {group: np.zeros((b - a, *dims[1:]), np.uint16) for group in chains}
        for m, step in zip(maps, steps):
            rows = m.row_table[1][a:b]
            for group, table in step:
                state = states[group]
                np.add(state, rows, out=state)
                table.take(state, out=state, mode="clip")
        for (group, _), table, out in zip(decisions, decided, labels):
            table.take(states[group], out=out[a:b], mode="clip")
        states = None  # gone before the next slab's states are made


def fuse(input: FusionInput) -> LabelMask:
    """Fuse with the voting rule selected by the input's mode: the maps
    through :func:`fuse_groups` as one group, which checks them."""
    return fuse_groups(input.mode, input.maps, [0] * len(input.maps),
                       [(frozenset({0}), input.tau)])[0]


def foreground_volume(mask: LabelMask, spacing: Spacing) -> float:
    """Physical volume of all non-background voxels, in mm^3."""
    return float(np.count_nonzero(mask.labels)) * spacing.voxel_volume
