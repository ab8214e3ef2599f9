"""Digests of the pipeline's outputs on a fixed phantom dataset.

The noisy oracle stands in for a model ensemble, so a change that silently
alters its maps, the fusion or the scoring shows here as a changed digest.
Masks are hashed by their decoded label bytes, not their ``.nii.gz`` bytes,
because gzip output depends on the zlib version.
"""

import hashlib
from pathlib import Path

import pytest

from segtta import (
    BackendDescriptor,
    RunConfig,
    default_augmentations,
    emit_report,
    load_manifest,
    read_label_mask,
    run_ablation,
    run_segtta,
    write_phantom_dataset,
)

# A change that is meant to alter these outputs updates them and says why.
GOLDEN = {
    ("run", 2, "threshold_weighted"): {
        "masks/case000.nii.gz": "92646781dc21ff22de3652e8fbafd99ae62b19a0c6405ca372cac3203a097aab",
        "masks/case001.nii.gz": "5264f96c95ce3731d48ab9a12c970b44523f4941df6033e516cd5c78b60d8ea1",
        "masks/case002.nii.gz": "3c31e4455abce6d279cb1f898d66775680298b8affcd7d55138f69bbf85600a5",
        "report.csv": "4715b8491f66a221e9120dd71100ffea3af9001be319380ec1ff942c3fddb707",
    },
    ("ablate", 2, "threshold_weighted"): {
        "masks/case000.nii.gz": "92646781dc21ff22de3652e8fbafd99ae62b19a0c6405ca372cac3203a097aab",
        "masks/case001.nii.gz": "5264f96c95ce3731d48ab9a12c970b44523f4941df6033e516cd5c78b60d8ea1",
        "masks/case002.nii.gz": "3c31e4455abce6d279cb1f898d66775680298b8affcd7d55138f69bbf85600a5",
        "report.csv": "b9374a27ef725acc5300282193935e60c5eb3876f91641bc8137185217400c5e",
    },
    ("run", 3, "majority"): {
        "masks/case000.nii.gz": "4050a3807fa8d448c6f14adbde729606ced4e4e43ea8fbcee5931e95fcefd9ef",
        "masks/case001.nii.gz": "061e92a3fe360efa74cdce7ebd70482b79af4c8bbf816893594ca991ecf03232",
        "masks/case002.nii.gz": "3fa41fef570d48a1daabeff01cec77ef50ea714bf563c552ca8e5440d3394f78",
        "report.csv": "bf7133ac97f4dfe9713759df4884b152997c4ff2789b4fa28499cc41fe9a5713",
    },
    ("ablate", 3, "confidence_weighted"): {
        "masks/case000.nii.gz": "45fcde42cbb3c85cf1b1e728e526217b269e76706275942ce4e8f299d01bc959",
        "masks/case001.nii.gz": "91263bbaff41b900682f84f3e52c19820d316442c81dba7b3d370a4c5ca59de0",
        "masks/case002.nii.gz": "8dafe6048df4a70e11cae72b6f018b6966abfb907b42f33515f7273d1a556f97",
        "report.csv": "7fd092f04759862d42199b53dea5b517f4a0882379dd4f6dbb73701cc9544f39",
    },
}


def output_digests(experiment, num_classes, voting, root: Path) -> dict:
    """sha256 of ``report.csv`` and of every written mask's label bytes."""
    manifest = load_manifest(write_phantom_dataset(
        root / "data", n_cases=3, dims=(16, 16, 12), num_classes=num_classes, seed=77
    ))
    config = RunConfig(
        backends=tuple(
            BackendDescriptor("noisy_oracle", name=f"nb{i}", confidence=confidence,
                              jitter=i % 2 + 1, flip_prob=0.25)
            for i, confidence in enumerate((0.9, 0.7, 0.6))
        ),
        augmentations=default_augmentations(),
        voting=voting,
        tau=0.6,
        seed=2024,
        jobs=1,
    )
    run = run_segtta if experiment == "run" else run_ablation
    out = root / "out"
    result = run(config, manifest, out_dir=out)
    assert not result.failures
    emit_report(result, "csv", out / "report.csv")
    digests = {"report.csv": hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()}
    for path in sorted(out.rglob("*.nii.gz")):
        labels = read_label_mask(path, num_classes).labels
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(labels.tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("experiment, num_classes, voting", list(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, experiment, num_classes, voting):
    assert output_digests(experiment, num_classes, voting, tmp_path) == (
        GOLDEN[(experiment, num_classes, voting)]
    )
