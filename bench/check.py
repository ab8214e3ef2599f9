"""Output check of one ``segtta run``/``ablate`` output directory.

Scores are recomputed from the written masks and the phantom labels with
numpy and ``scipy.ndimage``, independently of ``segtta.metrics``, and
compared with ``result.json`` at tolerances fixed from the acceptance
suite: 1e-12 for the overlap ratios (criterion 5) and 1e-9 mm for HD95
(criterion 4). Without labels the check compares each mask's dims with its
image and its foreground volume with the phantom's, which the model must
reproduce within FG_TOL. A case fails when the run reports it failed, it
is missing, or any comparison disagrees.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

import nii

OVERLAP_TOL = 1e-12
HD95_TOL = 1e-9
FG_TOL = 0.1
_FACES = ndimage.generate_binary_structure(3, 1)


def agnostic_overlap(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    p, g = pred > 0, gt > 0
    inter = int(np.count_nonzero(p & g))
    total = int(np.count_nonzero(p)) + int(np.count_nonzero(g))
    if total == 0:
        return 1.0, 1.0
    return inter / (total - inter), 2.0 * inter / total


def _surface(fg: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face neighbour outside it or off the volume."""
    return fg & ~ndimage.binary_erosion(fg, structure=_FACES, border_value=0)


def hd95(pred: np.ndarray, gt: np.ndarray, spacing) -> float | None:
    """Pooled symmetric 95th percentile surface distance in mm."""
    ps, gs = _surface(pred > 0), _surface(gt > 0)
    if not ps.any() and not gs.any():
        return 0.0
    if not ps.any() or not gs.any():
        return None
    to_gt = ndimage.distance_transform_edt(~gs, sampling=spacing)
    to_pred = ndimage.distance_transform_edt(~ps, sampling=spacing)
    return float(np.percentile(np.concatenate([to_gt[ps], to_pred[gs]]), 95))


def _close(got, want, tol) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= tol


def _case_problem(case: dict, out_dir: Path, result: dict, variant: str,
                  labelled: bool) -> str | None:
    case_id = case["id"]
    if case_id not in result["per_case"]:
        return "missing from result.json"
    mask_path = out_dir / "masks" / f"{case_id}.nii.gz"
    if not mask_path.exists():
        return "mask not written"
    mask, spacing = nii.read(mask_path)
    truth, truth_spacing = nii.read(case["label_path"])
    if mask.shape != truth.shape or not np.allclose(spacing, truth_spacing):
        return f"mask geometry {mask.shape} != image {truth.shape}"
    fg_mm3 = float(np.count_nonzero(mask)) * float(np.prod(spacing))
    reported_fg = result["fg_volume"][case_id].get(variant)
    if not _close(reported_fg, fg_mm3, 1e-9 * max(fg_mm3, 1.0)):
        return f"fg volume {reported_fg} != mask's {fg_mm3}"
    if not labelled:
        truth_fg = float(np.count_nonzero(truth)) * float(np.prod(spacing))
        if abs(fg_mm3 - truth_fg) > FG_TOL * truth_fg:
            return f"fg volume {fg_mm3} not within {FG_TOL} of phantom's {truth_fg}"
        return None
    report = result["per_case"][case_id].get(variant)
    if report is None:
        return f"no {variant} scores"
    aiou, adice = agnostic_overlap(mask, truth)
    distance = hd95(mask, truth, spacing)
    if not _close(report["aiou"], aiou, OVERLAP_TOL):
        return f"aIoU {report['aiou']} != recomputed {aiou}"
    if not _close(report["adice"], adice, OVERLAP_TOL):
        return f"aDice {report['adice']} != recomputed {adice}"
    if not _close(report["hd95_mm"], distance, HD95_TOL):
        return f"HD95 {report['hd95_mm']} != recomputed {distance}"
    return None


def check_output(out_dir, cases: list[dict], variant: str, labelled: bool) -> dict:
    """Check one output directory.

    ``cases`` are the manifest entries, each with the path of its phantom
    label under ``label_path``. Returns ``{"problems": {case: reason},
    "digests": {file: sha256}}``; the digests cover report.csv and every mask
    so that repeated commands can be compared byte for byte.
    """
    out_dir = Path(out_dir)
    problems: dict[str, str] = {}
    try:
        result = json.loads((out_dir / "result.json").read_text())
    except (OSError, ValueError) as e:
        return {"problems": {c["id"]: f"result.json: {e}" for c in cases}, "digests": {}}
    for case_id, message in result.get("failures", []):
        problems[case_id] = f"run failure: {message}"
    for case in cases:
        if case["id"] in problems:
            continue
        try:
            problem = _case_problem(case, out_dir, result, variant, labelled)
        except (OSError, ValueError, KeyError) as e:
            problem = f"{type(e).__name__}: {e}"
        if problem is not None:
            problems[case["id"]] = problem
    digests = {}
    for path in [out_dir / "report.csv", *sorted((out_dir / "masks").glob("*"))]:
        if path.is_file():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"problems": problems, "digests": digests}
