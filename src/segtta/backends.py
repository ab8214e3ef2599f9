"""Backends map a volume to a probability map.

The synthetic kinds (oracle, noisy oracle, constant) make desk-scale
experiments controllable: the noisy oracle in particular is a stand-in for
checkpoint diversity, with tunable boundary jitter and label flips. The
external kind shells out to a real model wrapper via float32 NIfTI file
exchange, so hooking up an actual segmenter is one small script.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import time

import numpy as np

from .config import BackendDescriptor
from .core import LabelMask, ProbabilityMap, Volume
from .errors import (
    DimensionMismatch,
    GroundTruthMissing,
    NotProbabilistic,
    ProcessFailure,
    SegTTAError,
)
from . import nifti
from .rng import SeededRng

logger = logging.getLogger("segtta.backends")


def _soften(labels: np.ndarray, num_classes: int, confidence: float) -> np.ndarray:
    """One-hot of ``labels`` softened so the true class gets ``confidence``
    and the other classes share the remainder equally."""
    if not (1.0 / num_classes < confidence <= 1.0):
        raise ValueError(
            f"confidence={confidence!r} outside (1/{num_classes}, 1]; the "
            f"assigned class would not be the argmax"
        )
    rest = (1.0 - confidence) / (num_classes - 1)
    onehot = labels[..., None] == np.arange(num_classes, dtype=labels.dtype)
    return np.where(onehot, confidence, rest)


def _shift_labels(labels: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Labels shifted by one voxel along an axis, background past the edge."""
    out = np.zeros_like(labels)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if step > 0:
        src[axis], dst[axis] = slice(None, -1), slice(1, None)
    else:
        src[axis], dst[axis] = slice(1, None), slice(None, -1)
    out[tuple(dst)] = labels[tuple(src)]
    return out


def _dilate_step(labels: np.ndarray) -> np.ndarray:
    """Grow the foreground by one voxel (6-connectivity); a new voxel takes
    the lowest class among its labeled neighbors."""
    candidate = np.full(labels.shape, 256, dtype=np.int16)
    for axis in range(3):
        for step in (-1, 1):
            neighbor = _shift_labels(labels, axis, step).astype(np.int16)
            neighbor[neighbor == 0] = 256
            np.minimum(candidate, neighbor, out=candidate)
    out = labels.copy()
    grow = (labels == 0) & (candidate < 256)
    out[grow] = candidate[grow].astype(labels.dtype)
    return out


def _erode_step(labels: np.ndarray) -> np.ndarray:
    """Shrink the foreground by one voxel; out-of-bounds counts as background."""
    fg = labels > 0
    keep = fg.copy()
    for axis in range(3):
        for step in (-1, 1):
            keep &= _shift_labels(fg.astype(np.uint8), axis, step) > 0
    out = labels.copy()
    out[fg & ~keep] = 0
    return out


def _resolve_ground_truth(
    backend: BackendDescriptor, volume: Volume, num_classes: int,
    ground_truth: LabelMask | None,
) -> LabelMask:
    if backend.ground_truth is not None:
        gt = nifti.read_label_mask(backend.ground_truth, num_classes)
    elif ground_truth is not None:
        gt = ground_truth
    else:
        raise GroundTruthMissing(
            f"backend {backend.name!r} ({backend.kind}) has no ground truth for "
            f"volume {volume.vol_id!r}"
        )
    if gt.dims != volume.dims:
        raise DimensionMismatch(
            f"ground truth dims {gt.dims} != volume dims {volume.dims} "
            f"for {volume.vol_id!r}"
        )
    return gt


def _predict_noisy(
    backend: BackendDescriptor, gt: LabelMask, num_classes: int, rng: SeededRng
) -> np.ndarray:
    gen = rng.generator()
    labels = np.asarray(gt.labels).copy()
    if backend.jitter > 0:
        step = _dilate_step if int(gen.integers(0, 2)) else _erode_step
        for _ in range(backend.jitter):
            labels = step(labels)
    if backend.flip_prob > 0:
        flip = gen.random(labels.shape) < backend.flip_prob
        # Offset by 1..C-1 modulo C, so a flipped voxel always changes class.
        offsets = gen.integers(1, num_classes, size=labels.shape)
        labels = np.where(flip, (labels + offsets) % num_classes, labels)
    return _soften(labels.astype(np.uint8), num_classes, backend.confidence)


def _predict_external(
    backend: BackendDescriptor, volume: Volume, num_classes: int
) -> ProbabilityMap:
    base = os.environ.get("SEGTTA_TMPDIR") or None
    workdir = tempfile.mkdtemp(prefix="segtta-", dir=base)
    try:
        input_path = os.path.join(workdir, "input.nii")
        output_path = os.path.join(workdir, "output.nii")
        nifti.write_volume(volume, input_path, datatype=16)
        command = (
            backend.command
            .replace("{input}", shlex.quote(input_path))
            .replace("{output}", shlex.quote(output_path))
            .replace("{classes}", str(num_classes))
        )
        started = time.monotonic()
        # A session of its own makes the shell and everything it starts one
        # process group, so a timeout (or an interrupt) kills the model, not
        # just the shell.
        with subprocess.Popen(
            command, shell=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=backend.timeout)
            except BaseException as e:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(e, subprocess.TimeoutExpired):
                    raise ProcessFailure(
                        f"backend {backend.name!r} timed out after "
                        f"{backend.timeout}s: {command}"
                    ) from e
                raise
        logger.info(
            "external backend %s finished in %.2fs (exit %d)",
            backend.name, time.monotonic() - started, proc.returncode,
            extra={"child_stdout": stdout[-2000:],
                   "child_stderr": stderr[-2000:]},
        )
        if proc.returncode != 0:
            raise ProcessFailure(
                f"backend {backend.name!r} exited with {proc.returncode}; "
                f"stderr: {stderr[-500:]!r}"
            )
        if not os.path.exists(output_path):
            raise ProcessFailure(
                f"backend {backend.name!r} produced no output file"
            )
        try:
            pmap = nifti.read_probability_map(output_path)
        except NotProbabilistic:
            raise
        except SegTTAError as e:
            raise ProcessFailure(
                f"backend {backend.name!r} produced malformed output: {e}"
            ) from e
        if pmap.dims != volume.dims:
            raise DimensionMismatch(
                f"backend {backend.name!r} output dims {pmap.dims} != input "
                f"dims {volume.dims}"
            )
        if pmap.num_classes != num_classes:
            raise ProcessFailure(
                f"backend {backend.name!r} output has {pmap.num_classes} "
                f"classes, expected {num_classes}"
            )
        return pmap
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def predict(
    backend: BackendDescriptor,
    volume: Volume,
    num_classes: int,
    rng: SeededRng,
    ground_truth: LabelMask | None = None,
    source_tag: str | None = None,
) -> ProbabilityMap:
    """Run one backend on one volume and validate the result.

    Oracle kinds take the ground truth from the descriptor's fixed path or,
    failing that, from the ``ground_truth`` argument (the pipeline passes
    the case's own mask). ``source_tag`` defaults to the backend name.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes={num_classes} must be >= 2")
    tag = source_tag if source_tag is not None else backend.name
    if backend.kind == "oracle":
        gt = _resolve_ground_truth(backend, volume, num_classes, ground_truth)
        probs = _soften(np.asarray(gt.labels), num_classes, backend.confidence)
    elif backend.kind == "noisy_oracle":
        gt = _resolve_ground_truth(backend, volume, num_classes, ground_truth)
        probs = _predict_noisy(backend, gt, num_classes, rng)
    elif backend.kind == "constant":
        if backend.constant_class >= num_classes:
            raise ValueError(
                f"constant_class={backend.constant_class} >= num_classes={num_classes}"
            )
        labels = np.full(volume.dims, backend.constant_class, dtype=np.uint8)
        probs = (labels[..., None] == np.arange(num_classes)).astype(np.float64)
    elif backend.kind == "external":
        return _predict_external(backend, volume, num_classes).retagged(tag)
    else:
        raise ValueError(f"unknown backend kind {backend.kind!r}")
    return ProbabilityMap(probs, source_tag=tag)
