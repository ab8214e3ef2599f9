"""Shared fixtures and independent oracle implementations.

The oracles here deliberately re-derive results from first principles
(plain loops, all-pairs distances, dense kernels) so the fast library
paths are checked against straightforward re-implementations rather than
against themselves.
"""

import math
import os
import shlex
import sys
import tempfile

import numpy as np
import pytest

import segtta
from segtta import LabelMask, ProbabilityMap, Spacing, Volume


# --- backend fields -----------------------------------------------------------


#: Per backend kind, a valid descriptor and each field the kind ignores,
#: with a value other than its default.
_IGNORED_FIELDS = {
    "oracle": ({}, {"jitter": 2, "flip_prob": 0.3, "constant_class": 1,
                    "command": "x", "timeout": 5.0}),
    "noisy_oracle": ({}, {"constant_class": 1, "command": "x", "timeout": 5.0}),
    "constant": ({}, {"confidence": 0.9, "jitter": 1, "flip_prob": 0.1,
                      "command": "x", "timeout": 5.0}),
    "external": ({"command": "x"}, {"confidence": 0.9, "jitter": 1,
                                    "flip_prob": 0.1, "constant_class": 1}),
}
IGNORED_FIELD_CASES = [
    (kind, {"kind": kind, **base, field: value}, field)
    for kind, (base, ignored) in _IGNORED_FIELDS.items()
    for field, value in ignored.items()
]


# --- randomized instances -----------------------------------------------------


def dense(m: ProbabilityMap) -> np.ndarray:
    """The whole of map ``m``, ``(nx, ny, nz, C)`` float64, as one slab."""
    return m.slab(0, m.dims[0])


def random_dims(rng, max_voxels=64):
    """Random small (nx, ny, nz) with at most ``max_voxels`` voxels."""
    while True:
        dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
        if dims[0] * dims[1] * dims[2] <= max_voxels:
            return dims


def dyadic_prob_maps(rng, n_maps, dims, num_classes, denominator=16):
    """Probability maps on the k/16 grid, so per-voxel sums are exactly 1
    and every fusion sum/product is exact in float64. Exactness makes
    'voxel-exact equality with an independent implementation' well posed
    even at ties."""
    maps = []
    for i in range(n_maps):
        counts = rng.multinomial(
            denominator, [1.0 / num_classes] * num_classes, size=dims
        )
        probs = counts.astype(np.float64) / denominator
        maps.append(ProbabilityMap(probs, source_tag=f"m{i}"))
    return maps


# --- independent fusion oracle -------------------------------------------------


def _argmax_lowest(values):
    best, best_v = 0, values[0]
    for i in range(1, len(values)):
        if values[i] > best_v:
            best, best_v = i, values[i]
    return best


def brute_force_vote(maps, mode, tau=0.6):
    """Per-voxel re-implementation of the three voting rules, plain loops."""
    arrays = [dense(m) for m in maps]
    dims = arrays[0].shape[:3]
    num_classes = arrays[0].shape[3]
    out = np.zeros(dims, dtype=np.int64)
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                vectors = [a[x, y, z].tolist() for a in arrays]
                if mode == "majority":
                    counts = [0] * num_classes
                    for vec in vectors:
                        counts[_argmax_lowest(vec)] += 1
                    out[x, y, z] = _argmax_lowest(counts)
                    continue
                weights = [max(vec) for vec in vectors]
                scores = [
                    sum(w * vec[c] for w, vec in zip(weights, vectors))
                    for c in range(num_classes)
                ]
                if mode == "confidence_weighted":
                    out[x, y, z] = _argmax_lowest(scores)
                else:
                    total = sum(weights)
                    normalized = [s / total for s in scores]
                    winner = _argmax_lowest(normalized)
                    out[x, y, z] = (
                        winner if normalized[winner] >= tau else 0
                    )
    return out


# --- independent blur kernel ----------------------------------------------------


def gaussian_weights(sigma):
    """The blur's 1D kernel, written out: ``exp(-x^2 / 2 sigma^2)`` at the
    integers ``|x| <= ceil(3 sigma)``, normalized to sum to 1."""
    x = np.arange(-math.ceil(3 * sigma), math.ceil(3 * sigma) + 1)
    w = np.exp(-x * x / (2.0 * sigma * sigma))
    return w / w.sum()


# --- independent surface-distance oracle ---------------------------------------


def oracle_surface(fg):
    """Surface voxels via zero padding, written independently of the
    library's shift-based implementation."""
    padded = np.pad(fg, 1)
    core = np.ones_like(fg)
    for axis in range(3):
        for step in (-1, 1):
            core = core & np.roll(padded, step, axis=axis)[1:-1, 1:-1, 1:-1]
    return fg & ~core


def face_neighbours(labels, x, y, z):
    """Labels of the six face neighbours of voxel (x, y, z), plain indexing;
    a neighbour off the volume counts as background (0)."""
    out = []
    for axis in range(3):
        for step in (-1, 1):
            at = [x, y, z]
            at[axis] += step
            inside = all(0 <= at[a] < labels.shape[a] for a in range(3))
            out.append(int(labels[tuple(at)]) if inside else 0)
    return out


def brute_force_neighbourhood_ops(labels):
    """(surface, dilated, eroded) of an integer label volume, voxel by voxel.

    surface: foreground voxels with a background face neighbour. dilated: a
    background voxel with a foreground neighbour takes the lowest class
    among them. eroded: surface voxels become background.
    """
    surface = np.zeros(labels.shape, dtype=bool)
    dilated = labels.copy()
    eroded = labels.copy()
    for x in range(labels.shape[0]):
        for y in range(labels.shape[1]):
            for z in range(labels.shape[2]):
                around = face_neighbours(labels, x, y, z)
                if labels[x, y, z] > 0:
                    if 0 in around:
                        surface[x, y, z] = True
                        eroded[x, y, z] = 0
                elif any(around):
                    dilated[x, y, z] = min(c for c in around if c > 0)
    return surface, dilated, eroded


def reference_noisy_oracle(labels, num_classes, confidence, jitter, flip_prob, gen):
    """The noisy oracle's float64 map from the draws the library makes, in
    its order: a jitter direction (when jitter > 0), then one uniform and
    one class offset in 1..C-1 per voxel (when flip_prob > 0). Jitter steps
    come from the voxel-loop neighbourhood oracle; flips are a whole-volume
    ``np.where`` over int64 sums, and the softening a broadcast one-hot."""
    labels = np.asarray(labels, dtype=np.int64)
    if jitter > 0:
        dilate = int(gen.integers(0, 2))
        for _ in range(jitter):
            _, dilated, eroded = brute_force_neighbourhood_ops(labels)
            labels = dilated if dilate else eroded
    if flip_prob > 0:
        flip = gen.random(labels.shape) < flip_prob
        offsets = gen.integers(1, num_classes, size=labels.shape)
        labels = np.where(flip, (labels + offsets) % num_classes, labels)
    rest = (1.0 - confidence) / (num_classes - 1)
    onehot = labels[..., None] == np.arange(num_classes)
    return np.where(onehot, confidence, rest)


def _percentile95(values):
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    h = (len(ordered) - 1) * 0.95
    lo = math.floor(h)
    if lo + 1 >= len(ordered):
        return float(ordered[-1])
    frac = h - lo
    return float(ordered[lo] + frac * (ordered[lo + 1] - ordered[lo]))


def brute_force_hd95(pred, gt, spacing):
    """Quadratic all-pairs pooled-symmetric HD95."""
    ps = np.argwhere(oracle_surface(np.asarray(pred.labels) > 0))
    gs = np.argwhere(oracle_surface(np.asarray(gt.labels) > 0))
    if len(ps) == 0 and len(gs) == 0:
        return 0.0
    if len(ps) == 0 or len(gs) == 0:
        return None
    scale = np.asarray(spacing.as_tuple(), dtype=np.float64)

    def directed(a, b):
        dists = np.empty(len(a))
        for start in range(0, len(a), 256):
            block = a[start : start + 256]
            diff = (block[:, None, :] - b[None, :, :]) * scale
            dists[start : start + len(block)] = np.sqrt(
                (diff * diff).sum(axis=2)
            ).min(axis=1)
        return dists

    pooled = np.concatenate([directed(ps, gs), directed(gs, ps)])
    return _percentile95(pooled)


# --- assorted helpers -----------------------------------------------------------


def random_volume(rng, dims=(16, 16, 16), spacing=(1.0, 1.0, 1.0), vol_id="v"):
    return Volume(rng.random(dims), Spacing(*spacing), vol_id=vol_id)


def random_mask(rng, dims, num_classes=2):
    return LabelMask(
        rng.integers(0, num_classes, size=dims).astype(np.uint8), num_classes
    )


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def read_only_map_files(monkeypatch):
    """Make every file ``tempfile.mkstemp`` creates open read-only, so that
    writing a map file fails; the list this returns collects their paths."""
    made, mkstemp = [], tempfile.mkstemp

    def read_only(**kwargs):
        fd, path = mkstemp(**kwargs)
        os.close(fd)
        made.append(path)
        return os.open(path, os.O_RDONLY), path

    monkeypatch.setattr(tempfile, "mkstemp", read_only)
    return made


@pytest.fixture
def child_imports_segtta(monkeypatch):
    """Model scripts run in child interpreters, which must import the same
    segtta as the tests, also when only pytest's own path setting finds it."""
    src = os.path.dirname(os.path.dirname(segtta.__file__))
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )


# An external model that reports on stdout the dims it was given.
_TALKING_MODEL = """
import sys
import numpy as np
from segtta import ProbabilityMap, read_volume, write_probability_map

volume = read_volume(sys.argv[1])
print("segmenting", volume.dims)
fg = (volume.data > 0.5)[..., None]
write_probability_map(ProbabilityMap(np.where(fg, [0.2, 0.8], [0.9, 0.1])), sys.argv[2],
                      volume.spacing)
"""


@pytest.fixture
def talking_model(tmp_path, child_imports_segtta):
    """Command template of an external backend running ``_TALKING_MODEL``."""
    script = tmp_path / "talking_model.py"
    script.write_text(_TALKING_MODEL)
    return f"{sys.executable} {script} {{input}} {{output}}"


# An external model of the standard library alone, so a child costs an
# interpreter's start and no import. It reads the float32 view it is
# handed (a .nii whose data start at byte 352), votes 3/4 for class 1
# where a voxel is above 0.5 and for class 0 elsewhere, spreads the rest
# over the other classes, and writes the map under the view's header made
# 4D (dim[0] = 4, dim[4] = the class count). Augmented views change its maps.
_THRESHOLD_MODEL = (
    "import array, sys; "
    "raw = open(sys.argv[1], 'rb').read(); c = int(sys.argv[3]); "
    "v = array.array('f', raw[352:]); "
    "p = array.array('f', [0.75 if k == (x > 0.5) else 0.25 / (c - 1) "
    "for k in range(c) for x in v]); "
    "h = bytearray(raw[:352]); "
    "h[40:42] = (4).to_bytes(2, 'little'); h[48:50] = c.to_bytes(2, 'little'); "
    "open(sys.argv[2], 'wb').write(bytes(h) + p.tobytes())"
)


def threshold_model(before: str = "") -> str:
    """Command template of an external backend that runs ``_THRESHOLD_MODEL``
    in ``sys.executable -S`` (no site packages), after the shell commands
    ``before``."""
    return (f"{before}{shlex.quote(sys.executable)} -S -c "
            f"{shlex.quote(_THRESHOLD_MODEL)} {{input}} {{output}} {{classes}}")
