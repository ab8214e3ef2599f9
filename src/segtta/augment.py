"""The four test-time intensity augmentations.

All transforms are deterministic functions ``Volume -> Volume`` (noise
takes an explicit seeded stream), preserve dims and spacing, and never
touch geometry, so ground-truth masks remain valid for augmented views.
Parameters are validated in one place, ``AugmentationSpec``: each function
checks its arguments by building the matching spec, so a bad value raises
the same error whether it comes from a config or a direct call.

Blur applies per 2D slice by default (slices perpendicular to z), matching
slice-wise segmentation backends; pass ``slice_axis=None`` for full 3D
smoothing.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AugmentationSpec, Volume, _freeze
from .errors import InvalidVolume
from .rng import SeededRng


def _kernel(sigma: float) -> np.ndarray:
    """Discrete Gaussian weights at integer offsets, truncated at 3 sigma.

    Truncation keeps |i| <= ceil(3*sigma), which bounds the discarded mass
    below 0.3%, and the remaining weights are renormalized to sum to 1 so
    convolution preserves constants exactly. ``sigma`` is a valid blur
    sigma (see ``AugmentationSpec``).
    """
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def _correlate1d(arr: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate along one axis with edge replication at the borders."""
    k = len(weights) // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (k, k)
    padded = np.pad(arr, pad, mode="edge")
    out = np.zeros(arr.shape, dtype=np.float64)
    window = [slice(None)] * arr.ndim
    for offset, w in enumerate(weights):
        window[axis] = slice(offset, offset + arr.shape[axis])
        out += w * padded[tuple(window)]
    return out


def gaussian_blur(v: Volume, sigma: float, slice_axis: int | None = 2) -> Volume:
    """Smooth with a separable Gaussian, simulating reduced resolution.

    With ``slice_axis`` set, each slice perpendicular to that axis is
    blurred independently in 2D; with ``slice_axis=None`` the blur is a
    full 3D separable convolution. Borders use edge replication and the
    output range is clipped to the input range (the normalized kernel only
    forms convex combinations, so this guards float round-off only).
    """
    AugmentationSpec("gaussian_blur", sigma=sigma, slice_axis=slice_axis)
    weights = _kernel(sigma)
    axes = (0, 1, 2) if slice_axis is None else tuple(a for a in (0, 1, 2) if a != slice_axis)
    out = v.data
    for axis in axes:
        out = _correlate1d(out, weights, axis)
    return v.with_data(_freeze(np.clip(out, v.data.min(), v.data.max())))


def gaussian_noise(v: Volume, sigma: float, rng: SeededRng) -> Volume:
    """Add i.i.d. zero-mean Gaussian noise, then clip back to [0, 1].

    The input is expected in normalized [0, 1] intensities so that sigma
    is comparable across datasets. ``sigma=0`` returns the input unchanged.
    Fully reproducible given the stream: the same (seed, key) always
    produces the same noise field.
    """
    AugmentationSpec("gaussian_noise", sigma=sigma)
    if sigma == 0:
        return v
    noise = rng.generator().normal(0.0, sigma, size=v.dims)
    return v.with_data(_freeze(np.clip(v.data + noise, 0.0, 1.0)))


def gamma_correction(v: Volume, gamma: float) -> Volume:
    """Nonlinear brightness shift: out = (I / I_max)^gamma * I_max.

    gamma > 1 darkens, gamma < 1 brightens. I_max is the per-volume
    maximum, so maximal voxels are fixed points. Requires non-negative
    intensities; all-zero volumes pass through unchanged.
    """
    AugmentationSpec("gamma_correction", gamma=gamma)
    if v.data.min() < 0:
        raise InvalidVolume("gamma correction requires non-negative intensities")
    if gamma == 1.0:
        return v
    imax = float(v.data.max())
    if imax == 0.0:
        return v
    return v.with_data(_freeze((v.data / imax) ** gamma * imax))


def contrast_enhancement(v: Volume, alpha: float, beta: float = 0.0) -> Volume:
    """Linear remap out = alpha * I + beta, clipped to the input's [0, I_max]."""
    AugmentationSpec("contrast_enhancement", alpha=alpha, beta=beta)
    if alpha == 1.0 and beta == 0.0:
        return v
    imax = max(float(v.data.max()), 0.0)
    return v.with_data(_freeze(np.clip(alpha * v.data + beta, 0.0, imax)))


def apply(spec: AugmentationSpec, v: Volume, rng: SeededRng) -> Volume:
    """Dispatch one augmentation spec onto a volume."""
    if spec.kind == "identity":
        return v
    if spec.kind == "gaussian_blur":
        return gaussian_blur(v, spec.sigma, spec.slice_axis)
    if spec.kind == "gaussian_noise":
        return gaussian_noise(v, spec.sigma, rng)
    if spec.kind == "gamma_correction":
        return gamma_correction(v, spec.gamma)
    return contrast_enhancement(v, spec.alpha, spec.beta)  # the one kind left
