"""Digests of the pipeline's outputs on a fixed phantom dataset.

The noisy oracle stands in for a model ensemble, so a change that silently
alters its maps, the fusion or the scoring shows here as a changed digest.
Masks are hashed by their decoded label bytes, not their ``.nii.gz`` bytes,
because gzip output depends on the zlib version.
"""

import hashlib
from pathlib import Path
import sys

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
    run_threshold_sweep,
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


def output_digests(experiment, num_classes, voting, root: Path, dims=(16, 16, 12),
                   n_cases=3, subset=None, external=None) -> dict:
    """sha256 of ``report.csv`` and of every written mask's label bytes.

    ``subset`` lists the (backend, view) pairs to predict; ``external`` is
    the command of one more backend, ``ext``."""
    manifest = load_manifest(write_phantom_dataset(
        root / "data", n_cases=n_cases, dims=dims, num_classes=num_classes, seed=77
    ))
    members = tuple(
        BackendDescriptor("noisy_oracle", name=f"nb{i}", confidence=confidence,
                          jitter=i % 2 + 1, flip_prob=0.25)
        for i, confidence in enumerate((0.9, 0.7, 0.6))
    )
    if external is not None:
        members += (BackendDescriptor("external", name="ext", command=external),)
    config = RunConfig(
        backends=members,
        augmentations=default_augmentations(),
        voting=voting,
        tau=0.6,
        seed=2024,
        jobs=1,
        subset=subset,
    )
    out = root / "out"
    if experiment == "sweep":
        result = run_threshold_sweep(config, manifest, SWEEP_TAUS, out_dir=out)
    else:
        run = run_segtta if experiment == "run" else run_ablation
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


# Phantoms of several fusion slabs, the last one partial: fusion counts and
# decides slab by slab along the first axis, so a slab edge that shifted or
# dropped a row of voxels changes these digests.
SWEEP_TAUS = (0.4, 0.6, 0.75)
SLAB_DIMS = {2: (70, 36, 30), 3: (66, 32, 32)}
VIEWS = ("baseline", *(spec.label() for spec in default_augmentations()))
SUBSET = tuple(
    (b, v) for b in ("nb0", "nb1", "nb2") for v in VIEWS
    if (b, v) not in {("nb1", VIEWS[2]), ("nb1", VIEWS[4]), ("nb2", "baseline")}
)

# An external model whose float32 maps need renormalizing: each voxel's
# class values, rounded to float32, no longer sum to 1 exactly.
_LOGISTIC_MODEL = """
import sys
import numpy as np
from segtta import ProbabilityMap, read_volume, write_probability_map

volume = read_volume(sys.argv[1])
fg = 1.0 / (1.0 + np.exp(-(volume.data - 0.5) / 0.05))
probs = np.stack([1.0 - fg, fg], axis=-1)
assert np.abs(probs.astype(np.float32).astype(np.float64).sum(axis=-1) - 1).max() > 1e-12
write_probability_map(ProbabilityMap(probs), sys.argv[2], volume.spacing)
"""

GOLDEN_SLABS = {
    ("run", 2, "threshold_weighted", "all"): {
        "masks/case000.nii.gz": "1a7ec65a25c27cfd233dd6f70d0a0d1e689c881d982108b842f9d6bf32563701",
        "masks/case001.nii.gz": "6ca0da4d25ecde3a55d41ba9da90ffe81e62f02bed1fe58c30925018f828bc43",
        "report.csv": "6a6236a8c748b62e9c8386ac1b4092183366aae21d4570df029e97bf3f35dfd9",
    },
    ("ablate", 3, "majority", "all"): {
        "masks/case000.nii.gz": "8c0ea87ac1aada03ede96a73469732d917296e3a44caaaeae5acfb3fe3cb498f",
        "masks/case001.nii.gz": "dbea4cce511a092bef0d6433ff88dfa59d861bf17f38fdf67c297511943ce367",
        "report.csv": "2543cf59a4490fc5a37fd118941ceb6ffff3eedd6ea6d69b41ce774a49f47015",
    },
    ("sweep", 3, "threshold_weighted", "all"): {
        "masks/tau=0.4/case000.nii.gz": "23ac274db4ebd4842e1218a04622b2d5530c3a107ff9b29c23f24ddf244c45c8",
        "masks/tau=0.4/case001.nii.gz": "48ab1edbf671d1147a94ca0f51833a0468e56d44aa65c43f6fdcb54727866eae",
        "masks/tau=0.6/case000.nii.gz": "de8c6269656420508421f7c815cf13b3fa80bbc910bc021eb0b787f6686b89dd",
        "masks/tau=0.6/case001.nii.gz": "3ecd13fc1f2a5b6e25d175f573102a14bd10dceca1b259644dc6632efda8c02e",
        "masks/tau=0.75/case000.nii.gz": "2cf9ea2254a3d8d54db3eb294d8594c8e4e1d3e4c63a25954c89a17dd678d823",
        "masks/tau=0.75/case001.nii.gz": "1da62b3541c2abc254f84ca92c4ab71cbcd312a3d33c80acc0421aa2ab8a2052",
        "report.csv": "783c29cac5ccb6ac5629be005728206265cd1161de50792f2767d9a05c2c4a73",
    },
    ("run", 3, "confidence_weighted", "subset"): {
        "masks/case000.nii.gz": "cdb6d7d20d6fa28ee367ea765496f6f753bbc4ab482ec6eee6fe537d32970633",
        "masks/case001.nii.gz": "b5c694a9731224a5825b482191948d0e108e28173605619de3ae21766095b92c",
        "report.csv": "3cc18a78879716c899229c2c7f7819acde064d1e1a6d408c9434cbcf1814f7ce",
    },
    ("run", 2, "threshold_weighted", "external"): {
        "masks/case000.nii.gz": "2b19e7d06276549bf32f008580629236199b88483c6e8cce14667851ffa69c61",
        "report.csv": "4043794b237dc74c2a11289618bf685840d88ba880b649075c1763b1a18c57cf",
    },
    ("ablate", 2, "threshold_weighted", "external"): {
        "masks/case000.nii.gz": "2b19e7d06276549bf32f008580629236199b88483c6e8cce14667851ffa69c61",
        "report.csv": "8bb8b0470672d47b85d3bae3d8383721cfb7270d6603be1968cc63b79515f6c2",
    },
}


@pytest.mark.parametrize("experiment, num_classes, voting, members", list(GOLDEN_SLABS))
def test_multi_slab_outputs_match_golden_digests(
        tmp_path, child_imports_segtta, experiment, num_classes, voting, members):
    external = None
    if members == "external":
        script = tmp_path / "logistic_model.py"
        script.write_text(_LOGISTIC_MODEL)
        external = f"{sys.executable} {script} {{input}} {{output}}"
    digests = output_digests(
        experiment, num_classes, voting, tmp_path, dims=SLAB_DIMS[num_classes],
        n_cases=1 if external else 2, external=external,
        subset=SUBSET if members == "subset" else None,
    )
    assert digests == GOLDEN_SLABS[(experiment, num_classes, voting, members)]
