"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines. These tests are the exit gate for the package: they
exercise oracle equivalence, the qualitative ensemble trends, determinism,
and the file-format round trips at their stated tolerances.
"""

from collections import Counter
import gzip
import json
import struct
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from segtta import (
    AugmentationSpec,
    BackendDescriptor,
    PredictionCache,
    RunConfig,
    SeededRng,
    Spacing,
    Volume,
    apply,
    contrast_enhancement,
    default_augmentations,
    foreground_volume,
    fuse,
    FusionInput,
    gamma_correction,
    gaussian_blur,
    gaussian_noise,
    hd95,
    load_manifest,
    make_blob_mask,
    overlap_metrics,
    read_label_mask,
    read_volume,
    run_ablation,
    run_segtta,
    run_threshold_sweep,
    write_phantom_dataset,
    write_volume,
)
from segtta.cli import main as cli_main
from segtta.errors import CorruptHeader, IoFailure, UnsupportedDatatype

from conftest import (
    brute_force_hd95,
    brute_force_vote,
    dyadic_prob_maps,
    gaussian_weights,
    random_dims,
    random_mask,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def noisy_members(n, confidence=0.9):
    return tuple(
        BackendDescriptor("noisy_oracle", name=f"nb{i}", confidence=confidence,
                          jitter=1, flip_prob=0.1)
        for i in range(n)
    )


def phantom_manifest(tmp_path, n_cases, seed, dims=(24, 24, 20)):
    path = write_phantom_dataset(
        tmp_path / f"ds-{seed}", n_cases=n_cases, dims=dims, seed=seed
    )
    return load_manifest(path)


def agnostic_counts(pred, gt):
    tp = int(np.count_nonzero((pred > 0) & (gt > 0)))
    fp = int(np.count_nonzero((pred > 0) & (gt == 0)))
    fn = int(np.count_nonzero((pred == 0) & (gt > 0)))
    return tp, fp, fn


def test_criterion_1_fusion_oracle_equivalence():
    with criterion(1, "fusion oracle equivalence, 10k instances < 60s"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(10_000):
            n_maps = int(rng.integers(1, 5))
            num_classes = int(rng.integers(2, 4))
            maps = dyadic_prob_maps(rng, n_maps, random_dims(rng, 64), num_classes)
            tau = float(rng.uniform(0.05, 1.0))
            for mode in ("majority", "confidence_weighted", "threshold_weighted"):
                got = fuse(FusionInput(tuple(maps), mode=mode, tau=tau))
                expected = brute_force_vote(maps, mode, tau)
                np.testing.assert_array_equal(got.labels, expected)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_threshold_monotonicity(tmp_path):
    with criterion(2, "threshold monotonicity and coverage-precision trend"):
        rng = np.random.default_rng(7)
        taus = (0.3, 0.6, 0.9)

        for _ in range(300):
            maps = tuple(
                dyadic_prob_maps(rng, int(rng.integers(1, 5)), random_dims(rng),
                                 int(rng.integers(2, 4)))
            )
            volumes = [
                foreground_volume(
                    fuse(FusionInput(maps, tau=t)),
                    Spacing(1, 1, 1),
                )
                for t in taus
            ]
            assert volumes[0] >= volumes[1] >= volumes[2], "coverage grew with tau"

        per_seed_recall_ok = []
        per_seed_precision_ok = []
        for seed in (1, 2, 3):
            manifest = phantom_manifest(tmp_path, 20, seed * 1000)
            config = RunConfig(backends=noisy_members(5),
                               augmentations=default_augmentations(),
                               seed=seed, jobs=4)
            out = tmp_path / f"sweep-{seed}"
            run_threshold_sweep(config, manifest, list(taus), out_dir=out)
            recall_ok = precision_ok = 0
            for entry in manifest.entries:
                gt = read_label_mask(entry.label, 2).labels
                recalls, precisions = [], []
                for t in taus:
                    mask_path = (
                        out / "masks" / f"tau={t:g}" / f"{entry.case_id}.nii.gz"
                    )
                    pred = read_label_mask(mask_path, 2).labels
                    tp, fp, fn = agnostic_counts(pred, gt)
                    recalls.append(1.0 if tp + fn == 0 else tp / (tp + fn))
                    precisions.append(1.0 if tp + fp == 0 else tp / (tp + fp))
                recall_ok += recalls[0] >= recalls[1] >= recalls[2]
                precision_ok += precisions[0] <= precisions[1] <= precisions[2]
            per_seed_recall_ok.append(recall_ok)
            per_seed_precision_ok.append(precision_ok)

        assert np.median(per_seed_recall_ok) >= 18, per_seed_recall_ok
        assert np.median(per_seed_precision_ok) >= 18, per_seed_precision_ok


def test_criterion_3_ensemble_benefit(tmp_path):
    with criterion(3, "ensemble beats best single member"):
        margins = []
        for seed in (1, 2, 3):
            manifest = phantom_manifest(tmp_path, 20, 5000 + seed * 100)
            cache = PredictionCache()
            members = noisy_members(5)
            ensemble = RunConfig(backends=members,
                                 augmentations=default_augmentations(),
                                 voting="threshold_weighted", tau=0.6,
                                 seed=seed, jobs=4)
            fused = run_segtta(ensemble, manifest, cache=cache)
            fused_iou = fused.aggregates["fused"]["aiou"]
            singles = []
            for member in members:
                solo = replace(ensemble, backends=(member,), augmentations=())
                singles.append(
                    run_segtta(solo, manifest, cache=cache)
                    .aggregates["fused"]["aiou"]
                )
            margins.append(fused_iou - max(singles))
        assert np.median(margins) > 0.0, f"margins {margins}"


def test_criterion_4_hd95_oracle_equivalence():
    with criterion(4, "hd95 oracle equivalence, 200 pairs < 120s"):
        rng = np.random.default_rng(11)
        started = time.perf_counter()
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            dims = tuple(int(rng.integers(16, 33)) for _ in range(3))
            pred = make_blob_mask(dims, seed=seed, threshold=0.58)
            gt = make_blob_mask(dims, seed=seed + 10_000, threshold=0.58)
            if not pred.labels.any() or not gt.labels.any():
                continue
            spacing = Spacing(*(float(s) for s in rng.uniform(0.4, 2.5, size=3)))
            got = hd95(pred, gt, spacing)
            want = brute_force_hd95(pred, gt, spacing)
            assert abs(got - want) < 1e-9, f"pair {seed}: {got} vs {want}"
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_5_metric_identities(rng):
    with criterion(5, "metric identities"):
        for _ in range(1000):
            pred = random_mask(rng, (5, 5, 5), 3)
            gt = random_mask(rng, (5, 5, 5), 3)
            report = overlap_metrics(pred, gt)
            for c, iou in report.per_class_iou.items():
                assert abs(report.per_class_dice[c] - 2 * iou / (1 + iou)) < 1e-12

        m = make_blob_mask((14, 12, 10), seed=1, threshold=0.58)
        identity = overlap_metrics(m, m)
        assert identity.miou == 1.0 and identity.mdice == 1.0
        assert identity.aiou == 1.0 and identity.adice == 1.0

        spacing = Spacing(0.7, 1.3, 2.1)
        a = make_blob_mask((14, 12, 10), seed=2, threshold=0.58)
        assert hd95(m, m, spacing) == 0.0
        assert hd95(a, m, spacing) == hd95(m, a, spacing)
        doubled = Spacing(*(2.0 * d for d in spacing.as_tuple()))
        assert hd95(a, m, doubled) == 2.0 * hd95(a, m, spacing)


def test_criterion_6_augmentation_identities(rng):
    with criterion(6, "augmentation identities and blur oracles"):
        v = Volume(rng.random((16, 16, 16)), Spacing(1, 1, 1), vol_id="acc")
        stream = SeededRng(2024, "acc")
        assert gamma_correction(v, 1.0).data is v.data
        assert contrast_enhancement(v, 1.0, 0.0).data is v.data
        assert gaussian_noise(v, 0.0, stream).data is v.data
        assert apply(AugmentationSpec("identity"), v, stream) is v

        impulse = np.zeros((9, 9, 1))
        impulse[4, 4, 0] = 1.0
        blurred = gaussian_blur(
            Volume(impulse, Spacing(1, 1, 1)), 1.0, slice_axis=2
        )
        k = gaussian_weights(1.0)
        expected = np.zeros((9, 9))
        expected[1:8, 1:8] = np.outer(k, k)
        assert np.abs(blurred.data[:, :, 0] - expected).max() < 1e-9

        import scipy.ndimage

        kernel3 = np.einsum("i,j,k->ijk", k, k, k)
        dense = scipy.ndimage.correlate(v.data, kernel3, mode="nearest")
        fast = gaussian_blur(v, 1.0, slice_axis=None).data
        rel = np.abs(fast - dense) / np.maximum(np.abs(dense), 1e-12)
        assert rel.max() < 1e-6


def test_criterion_7_run_determinism(tmp_path):
    with criterion(7, "byte-identical runs across --jobs"):
        manifest_path = write_phantom_dataset(
            tmp_path / "data", n_cases=5, dims=(18, 18, 14), seed=99
        )
        config = {
            "backends": [
                {"kind": "noisy_oracle", "name": f"nb{i}", "confidence": 0.9,
                 "jitter": 1, "flip_prob": 0.1}
                for i in range(3)
            ],
            "voting": "threshold_weighted",
            "tau": 0.6,
            "seed": 2024,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        artifacts = []
        for jobs in (1, 4):
            out = tmp_path / f"run-jobs{jobs}"
            code = cli_main([
                "run", "--config", str(config_path),
                "--manifest", str(manifest_path),
                "--out", str(out), "--jobs", str(jobs), "--format", "csv",
            ])
            assert code == 0
            masks = {
                p.name: p.read_bytes() for p in sorted((out / "masks").iterdir())
            }
            artifacts.append((masks, (out / "report.csv").read_bytes()))

        assert artifacts[0][0] == artifacts[1][0], "fused masks differ"
        assert artifacts[0][1] == artifacts[1][1], "reports differ"


def test_run_log_content_is_the_same_across_jobs(tmp_path):
    """The jobs setting changes the order of a run's events, not what they
    say: their multiset, without clock readings and the jobs setting, is
    the same with 1 and 3 workers."""

    def content(path):
        events = Counter()
        for line in path.read_text().splitlines():
            event = {key: value for key, value in json.loads(line).items()
                     if key not in ("t", "seconds", "peak_rss_mb")
                     and not key.endswith("_s")}
            if event["event"] == "run_start":
                del event["config"]["jobs"]
            events[json.dumps(event, sort_keys=True)] += 1
        return events

    with criterion(7, "same run log content across --jobs"):
        manifest_path = write_phantom_dataset(
            tmp_path / "data", n_cases=4, dims=(10, 10, 8), seed=5)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backends": [
            {"kind": "noisy_oracle", "name": f"nb{i}", "confidence": 0.9,
             "jitter": 1, "flip_prob": 0.1}
            for i in range(3)
        ]}))
        for command in ("run", "ablate", "sweep"):
            logs = []
            for jobs in (1, 3):
                out = tmp_path / f"{command}-jobs{jobs}"
                code = cli_main([
                    command, "--config", str(config_path),
                    "--manifest", str(manifest_path), "--out", str(out),
                    "--jobs", str(jobs),
                    *(["--taus", "0.3,0.6,0.9"] if command == "sweep" else []),
                ])
                assert code == 0
                logs.append(content(out / "run.log.jsonl"))
            # Per case: case_loaded, 3 backends x 5 views of predictions
            # and case_done; then run_start, 5 stage totals and run_done.
            assert sum(logs[0].values()) == 4 * (1 + 15 + 1) + 7, command
            assert logs[0] == logs[1], f"{command} logs differ"


def test_run_log_is_in_manifest_order_across_jobs(tmp_path):
    """A run's log lines, without clock readings and the jobs setting, are
    the same sequence with 1 and 3 workers: each case's events together,
    in manifest order."""

    def lines(path):
        out = []
        for line in path.read_text().splitlines():
            event = {key: value for key, value in json.loads(line).items()
                     if key not in ("t", "seconds", "peak_rss_mb")
                     and not key.endswith("_s")}
            if event["event"] == "run_start":
                del event["config"]["jobs"]
            out.append(json.dumps(event, sort_keys=True))
        return out

    with criterion(7, "same run log lines in manifest order across --jobs"):
        manifest_path = write_phantom_dataset(
            tmp_path / "data", n_cases=4, dims=(10, 10, 8), seed=5)
        cases = [entry.case_id for entry in load_manifest(manifest_path).entries]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backends": [
            {"kind": "noisy_oracle", "name": f"nb{i}", "confidence": 0.9,
             "jitter": 1, "flip_prob": 0.1}
            for i in range(3)
        ]}))
        for command in ("run", "ablate", "sweep"):
            logs = []
            for jobs in (1, 3):
                out = tmp_path / f"{command}-jobs{jobs}"
                code = cli_main([
                    command, "--config", str(config_path),
                    "--manifest", str(manifest_path), "--out", str(out),
                    "--jobs", str(jobs),
                    *(["--taus", "0.3,0.6,0.9"] if command == "sweep" else []),
                ])
                assert code == 0
                logs.append(lines(out / "run.log.jsonl"))
            order = [json.loads(line).get("case") for line in logs[0]]
            assert [case for case in order if case is not None] == [
                case for case in cases for _ in range(1 + 15 + 1)], command
            assert logs[0] == logs[1], f"{command} log lines differ"


def test_criterion_8_nifti_round_trip(tmp_path, rng):
    with criterion(8, "nifti round trips and named header errors"):
        for datatype, dtype in ((16, np.float32), (64, np.float64)):
            base = rng.random((6, 5, 4)).astype(dtype).astype(np.float64)
            v = Volume(base, Spacing(0.5, 1.0, 2.0), vol_id="rt")
            for byteorder in ("<", ">"):
                for suffix in (".nii", ".nii.gz"):
                    tag = f"{datatype}-{byteorder == '>'}{suffix}"
                    path = tmp_path / f"rt-{tag}"
                    write_volume(v, path, datatype=datatype, byteorder=byteorder)
                    again = read_volume(path)
                    np.testing.assert_array_equal(again.data, v.data)
                    path2 = tmp_path / f"rt2-{tag}"
                    write_volume(again, path2, datatype=datatype,
                                 byteorder=byteorder)
                    opener = gzip.open if suffix.endswith(".gz") else open
                    with opener(path, "rb") as f:
                        first = f.read()[352:]
                    with opener(path2, "rb") as f:
                        second = f.read()[352:]
                    assert first == second, f"data section differs for {tag}"

        def header_with(**patches):
            header = bytearray(352 + 8)
            struct.pack_into("<i", header, 0, 348)
            struct.pack_into("<8h", header, 40, 3, 1, 1, 2, 1, 1, 1, 1)
            struct.pack_into("<h", header, 70, patches.get("datatype", 16))
            struct.pack_into("<h", header, 72, patches.get("bitpix", 32))
            struct.pack_into("<8f", header, 76, 1, 1, 1, 1, 0, 0, 0, 0)
            struct.pack_into("<f", header, 108, 352.0)
            header[344:348] = patches.get("magic", b"n+1\x00")
            return bytes(header)

        for name, raw, expected in (
            ("two-file magic", header_with(magic=b"ni1\x00"), CorruptHeader),
            ("bad datatype", header_with(datatype=8), UnsupportedDatatype),
            ("bad bitpix", header_with(bitpix=8), CorruptHeader),
            ("truncated header", b"\x00" * 64, CorruptHeader),
            ("truncated data", header_with()[:354], IoFailure),
        ):
            path = tmp_path / "malformed.nii"
            path.write_bytes(raw)
            try:
                read_volume(path)
            except expected:
                continue
            raise AssertionError(f"{name}: expected {expected.__name__}")


def test_criterion_9_cache_soundness(tmp_path):
    with criterion(9, "ablation and sweep equal from-scratch runs"):
        manifest = phantom_manifest(tmp_path, 5, seed=77)
        config = RunConfig(backends=noisy_members(3),
                           augmentations=default_augmentations(),
                           seed=2024, jobs=2)

        shared = PredictionCache()
        ablation = run_ablation(config, manifest, cache=shared)
        views = 1 + len(config.augmentations)
        assert shared.hits == 0, "ablation predicted a view twice"
        assert shared.misses == len(manifest.entries) * len(config.backends) * views, \
            "ablation did not predict every (case, backend, view) exactly once"
        for i, spec in enumerate(config.augmentations):
            reduced = replace(
                config,
                augmentations=tuple(
                    s for j, s in enumerate(config.augmentations) if j != i
                ),
            )
            scratch = run_segtta(reduced, manifest)  # fresh cache
            variant = f"w/o {spec.label()}"
            for case_id in scratch.per_case:
                assert ablation.per_case[case_id][variant] == \
                    scratch.per_case[case_id]["fused"]
                assert ablation.fg_volume[case_id][variant] == \
                    scratch.fg_volume[case_id]["fused"]
        full_scratch = run_segtta(config, manifest)
        for case_id in full_scratch.per_case:
            assert ablation.per_case[case_id]["full"] == \
                full_scratch.per_case[case_id]["fused"]

        sweep_cache = PredictionCache()
        taus = [0.3, 0.6, 0.9]
        sweep = run_threshold_sweep(config, manifest, taus, cache=sweep_cache)
        for tau in taus:
            scratch = run_segtta(replace(config, tau=tau), manifest)
            for case_id in scratch.per_case:
                assert sweep.per_case[case_id][f"tau={tau:g}"] == \
                    scratch.per_case[case_id]["fused"]
                assert sweep.fg_volume[case_id][f"tau={tau:g}"] == \
                    scratch.fg_volume[case_id]["fused"]
