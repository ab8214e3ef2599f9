"""Backends map a volume to a probability map.

The synthetic kinds (oracle, noisy oracle, constant) make desk-scale
experiments controllable: the noisy oracle in particular is a stand-in for
checkpoint diversity, with tunable boundary jitter and label flips. Its
output is fixed by its random stream: a jitter direction when it
jitters; then, when it flips, one uniform per voxel and one class offset
in 1..C-1 per voxel, the stream's last draw. The shortcuts below change
its cost, not its bytes:

* a ground-truth mask is jittered at most once per direction and step
  count; the result is kept for as long as the mask is alive, so the
  members and views of a case share it;
* with two classes the only offset is 1, so the offsets are not drawn
  and a flip is one XOR of the labels with the voxels whose uniform is
  below the flip rate; with more, only the flipped voxels are rewritten;
* every synthetic kind builds its map with
  :meth:`ProbabilityMap.from_rows`, which checks the C-row table of
  softened one-hots instead of every voxel, once per distinct table, and
  holds the labels, one byte per voxel: the ground truth's own or a
  jitter's (read-only, so not copied) or the flipped copy. Each voxel's
  row is looked up a slab at a time when the map is fused; no dense
  float64 map is built.

A synthetic kind never reads a voxel: it takes only the volume's dims
and id, which every view of a case shares, so the pipeline builds an
augmented view only for a member that :func:`reads_voxels`.

The external kind shells out to a real
model wrapper via float32 NIfTI file exchange, so hooking up an actual
segmenter is one small script. Its map, like any map read from a file,
is held in a file made as it is checked, beside the exchange directory
(:func:`~segtta.nifti.read_probability_map`): 4 bytes per voxel and
class of disk instead of memory, which fusion reads a slab at a time;
the file goes with the last map holding it. Its exit status, run time
and the tail of its stdout and stderr go to the run's log as one ``log``
event.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import weakref

import numpy as np

from .config import BackendDescriptor
from .core import LabelMask, ProbabilityMap, Volume, _freeze, temp_dir
from .errors import (
    ConfigError,
    DimensionMismatch,
    GroundTruthMissing,
    InvalidLabels,
    IoFailure,
    MapFileFailure,
    NotProbabilistic,
    ProcessFailure,
    SegTTAError,
)
from . import nifti
from .metrics import _FACES, _surface
from .rng import SeededRng


def _soften(num_classes: int, confidence: float) -> np.ndarray:
    """The C x C table whose row c is the one-hot of class c, softened so
    class c gets ``confidence`` and the others share the remainder
    equally."""
    if not (1.0 / num_classes < confidence <= 1.0):
        raise ConfigError(
            f"confidence={confidence!r} outside (1/{num_classes}, 1]; the "
            f"assigned class would not be the argmax"
        )
    table = np.full((num_classes, num_classes), (1.0 - confidence) / (num_classes - 1))
    np.fill_diagonal(table, confidence)
    return table


def _dilate_step(labels: np.ndarray) -> np.ndarray:
    """Grow the foreground by one voxel (6-connectivity); a new voxel takes
    the lowest class among its labeled neighbors."""
    # int16 holds the sentinel 256 above every class; uint8 would wrap it to 0.
    keyed = labels.astype(np.int16)
    keyed[labels == 0] = 256
    candidate = np.full(labels.shape, 256, dtype=np.int16)
    for site, neighbour, _ in _FACES:
        np.minimum(candidate[site], keyed[neighbour], out=candidate[site])
    grow = (labels == 0) & (candidate < 256)
    return np.where(grow, candidate, labels).astype(labels.dtype)


def _erode_step(labels: np.ndarray) -> np.ndarray:
    """Shrink the foreground by one voxel; out-of-bounds counts as background."""
    return np.where(_surface(labels > 0), 0, labels)


#: Jittered labels per ground-truth mask: {(step, steps): labels}. Keyed
#: weakly, so an entry goes when its mask does; a mask compares and hashes
#: by identity.
_jittered: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_jittered_lock = threading.Lock()


def _jitter(gt: LabelMask, step, steps: int) -> np.ndarray:
    """``gt``'s labels after ``steps`` applications of ``step``, computed
    once per mask, step and count (read-only, shared by every caller)."""
    # After sum(dims) steps the labels no longer change: dilation has
    # reached every voxel it can reach, erosion has emptied the mask.
    steps = min(steps, sum(gt.dims))
    with _jittered_lock:
        memo = _jittered.setdefault(gt, {})
        labels = memo.get((step, steps))
    if labels is None:
        labels = np.asarray(gt.labels)
        for _ in range(steps):
            labels = step(labels)
        labels.setflags(write=False)
        with _jittered_lock:
            labels = memo.setdefault((step, steps), labels)
    return labels


def _resolve_ground_truth(
    backend: BackendDescriptor, volume: Volume, gt: LabelMask | None,
    num_classes: int,
) -> LabelMask:
    if gt is None:
        raise GroundTruthMissing(
            f"backend {backend.name!r} ({backend.kind}) has no ground truth for "
            f"volume {volume.vol_id!r}"
        )
    if gt.dims != volume.dims:
        raise DimensionMismatch(
            f"ground truth dims {gt.dims} != volume dims {volume.dims} "
            f"for {volume.vol_id!r}"
        )
    if gt.num_classes > num_classes:
        raise InvalidLabels(
            f"ground truth for {volume.vol_id!r} has {gt.num_classes} classes, "
            f"more than num_classes={num_classes}"
        )
    return gt


def _predict_noisy(
    backend: BackendDescriptor, gt: LabelMask, num_classes: int, rng: SeededRng
) -> np.ndarray:
    """The noisy oracle's labels: ``gt`` jittered, then flipped, as a
    read-only uint8 volume. ``gt`` has at most ``num_classes`` classes
    (:func:`predict` checks it), so with two its labels are 0 and 1 and a
    flip is an XOR."""
    gen = rng.generator()
    labels = np.asarray(gt.labels)
    if backend.jitter > 0:
        step = _dilate_step if int(gen.integers(0, 2)) else _erode_step
        labels = _jitter(gt, step, backend.jitter)
    if backend.flip_prob > 0:
        flip = gen.random(labels.shape) < backend.flip_prob
        if num_classes == 2:
            # The one offset in 1..1 turns 0 into 1 and 1 into 0. The offset
            # draw is the stream's last, so skipping it changes no byte.
            labels = labels ^ flip
        else:
            flipped = np.flatnonzero(flip)
            # Offset by 1..C-1 modulo C, so a flipped voxel always changes
            # class. The sum is int64: uint8 would wrap once C > 128.
            offsets = gen.integers(1, num_classes, size=labels.shape).ravel()[flipped]
            labels = labels.copy()
            flat = labels.reshape(-1)  # a view: its writes change labels
            flat[flipped] = (flat[flipped] + offsets) % num_classes
        labels.setflags(write=False)  # the map holds it without a copy
    return labels


def _predict_external(
    backend: BackendDescriptor, volume: Volume, num_classes: int, log
) -> ProbabilityMap:
    base = temp_dir()
    try:
        workdir = tempfile.mkdtemp(prefix="segtta-", dir=base)
    except OSError as e:  # the case fails, as a failed input write does
        raise IoFailure(f"cannot create a work directory in {base}: {e}") from e
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
        # process group, which is killed however the shell ends: on a
        # timeout or an interrupt it takes the model down, not just the
        # shell, and after a normal exit any helper left in the background.
        # The group id stays allocated while a member lives, so it names no
        # other group; an empty group is the usual case. The child's output
        # is only logged and quoted, so bytes that do not decode are
        # replaced rather than failing the run.
        with subprocess.Popen(
            command, shell=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, errors="replace", start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=backend.timeout)
            except subprocess.TimeoutExpired as e:
                raise ProcessFailure(
                    f"backend {backend.name!r} timed out after "
                    f"{backend.timeout}s: {command}"
                ) from e
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if log is not None:
            log.emit(
                "log", logger=__name__,
                message=f"external backend {backend.name} finished in "
                        f"{time.monotonic() - started:.2f}s (exit {proc.returncode})",
                child_stdout=stdout[-2000:], child_stderr=stderr[-2000:],
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
        except (NotProbabilistic, MapFileFailure):
            raise  # the values, or the machine, not the file's format
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


def reads_voxels(backend: BackendDescriptor) -> bool:
    """Whether :func:`predict` reads the voxels of the volume it is given:
    only an ``external`` backend does. A synthetic kind takes only the
    volume's ``dims`` and ``vol_id`` (through :func:`_resolve_ground_truth`,
    or ``dims`` alone for ``constant``), and every view of a case has the
    case's dims and id, so it predicts the same map from any of them."""
    return backend.kind == "external"


def predict(
    backend: BackendDescriptor,
    volume: Volume,
    num_classes: int,
    rng: SeededRng,
    ground_truth: LabelMask | None = None,
    source_tag: str | None = None,
    *,
    log=None,
) -> ProbabilityMap:
    """Run one backend on one volume and validate the result.

    Oracle kinds take the ground truth from the ``ground_truth`` argument
    (the pipeline passes the case's own mask); one declared with more
    classes than ``num_classes`` is InvalidLabels naming both counts.
    ``source_tag`` defaults to the backend name. ``log`` is the run's
    event log, any object with ``EventLog.emit``'s signature; without one
    no event is written.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes={num_classes} must be >= 2")
    tag = source_tag if source_tag is not None else backend.name
    confidence = backend.confidence
    if backend.kind == "oracle":
        labels = _resolve_ground_truth(
            backend, volume, ground_truth, num_classes).labels
    elif backend.kind == "noisy_oracle":
        gt = _resolve_ground_truth(backend, volume, ground_truth, num_classes)
        labels = _predict_noisy(backend, gt, num_classes, rng)
    elif backend.kind == "constant":
        if backend.constant_class >= num_classes:
            raise ConfigError(
                f"constant_class={backend.constant_class} >= num_classes={num_classes}"
            )
        labels = _freeze(np.full(volume.dims, backend.constant_class, dtype=np.uint8))
        confidence = 1.0
    elif backend.kind == "external":
        return _predict_external(backend, volume, num_classes, log).retagged(tag)
    else:
        raise ConfigError(f"unknown backend kind {backend.kind!r}")
    return ProbabilityMap.from_rows(_soften(num_classes, confidence), labels, tag)
