import os
import subprocess
import sys

import numpy as np
import pytest

import segtta

from segtta import (
    LabelMask,
    Spacing,
    distance_transform,
    evaluate,
    hd95,
    make_blob_mask,
    overlap_metrics,
    surface_voxels,
)
from segtta.errors import DimensionMismatch

from conftest import brute_force_hd95, oracle_surface, random_mask


def mask(labels, num_classes=2):
    return LabelMask(np.asarray(labels, dtype=np.uint8), num_classes)


def brute_force_distances(seeds, spacing):
    """All-pairs distance from every voxel to its nearest seed, in mm."""
    scale = np.asarray(spacing.as_tuple())
    voxels = np.argwhere(np.ones(seeds.shape, dtype=bool)) * scale
    points = np.argwhere(seeds) * scale
    diff = voxels[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).min(axis=1).reshape(seeds.shape)


def box_mask(dims, lo, hi, num_classes=2, value=1):
    labels = np.zeros(dims, dtype=np.uint8)
    labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = value
    return LabelMask(labels, num_classes)


class TestOverlap:
    def test_identical_masks_are_perfect(self, rng):
        m = random_mask(rng, (6, 6, 6), 3)
        r = overlap_metrics(m, m)
        assert r.miou == r.mdice == r.aiou == r.adice == 1.0
        assert all(v == 1.0 for v in r.per_class_iou.values())

    def test_disjoint_masks_score_zero(self):
        pred = box_mask((8, 8, 4), (0, 0, 0), (2, 2, 2))
        gt = box_mask((8, 8, 4), (5, 5, 2), (7, 7, 4))
        r = overlap_metrics(pred, gt)
        assert r.aiou == 0.0 and r.adice == 0.0
        assert r.per_class_iou[1] == 0.0

    def test_counted_squares_example(self):
        # Two 2x2 squares overlapping in 2 voxels: IoU 2/6, Dice 4/8.
        pred = box_mask((6, 6, 1), (0, 0, 0), (2, 2, 1))
        gt = box_mask((6, 6, 1), (1, 0, 0), (3, 2, 1))
        r = overlap_metrics(pred, gt)
        assert r.per_class_iou[1] == pytest.approx(2 / 6)
        assert r.per_class_dice[1] == pytest.approx(4 / 8)

    def test_class_empty_in_both_excluded(self):
        pred = box_mask((6, 6, 2), (0, 0, 0), (2, 2, 1), num_classes=4)
        gt = box_mask((6, 6, 2), (0, 0, 0), (2, 2, 1), num_classes=4)
        r = overlap_metrics(pred, gt)
        assert set(r.per_class_iou) == {1}  # classes 2 and 3 excluded
        assert r.miou == 1.0

    def test_class_empty_in_one_scores_zero(self):
        pred = box_mask((6, 6, 2), (0, 0, 0), (2, 2, 1), num_classes=3, value=1)
        gt_labels = np.zeros((6, 6, 2), dtype=np.uint8)
        gt_labels[0:2, 0:2, 0] = 1
        gt_labels[4:6, 4:6, 1] = 2  # class 2 only in gt
        gt = LabelMask(gt_labels, 3)
        r = overlap_metrics(pred, gt)
        assert r.per_class_iou[2] == 0.0
        assert r.miou == pytest.approx((1.0 + 0.0) / 2)

    def test_dice_iou_identity(self, rng):
        for _ in range(200):
            pred = random_mask(rng, (5, 5, 5), 3)
            gt = random_mask(rng, (5, 5, 5), 3)
            r = overlap_metrics(pred, gt)
            for c, iou in r.per_class_iou.items():
                assert abs(r.per_class_dice[c] - 2 * iou / (1 + iou)) < 1e-12

    def test_agnostic_union_never_smaller(self, rng):
        for _ in range(50):
            pred = random_mask(rng, (6, 6, 6), 4)
            gt = random_mask(rng, (6, 6, 6), 4)
            union_a = np.count_nonzero((pred.labels > 0) | (gt.labels > 0))
            best = max(
                np.count_nonzero((pred.labels == c) | (gt.labels == c))
                for c in range(1, 4)
            )
            assert union_a >= best

    def test_dims_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            overlap_metrics(random_mask(rng, (4, 4, 4)), random_mask(rng, (4, 4, 5)))


class TestSurface:
    def test_single_voxel_is_its_own_surface(self):
        m = box_mask((5, 5, 5), (2, 2, 2), (3, 3, 3))
        np.testing.assert_array_equal(surface_voxels(m), [[2, 2, 2]])

    def test_solid_cube_surface_excludes_center(self):
        m = box_mask((5, 5, 5), (1, 1, 1), (4, 4, 4))
        coords = surface_voxels(m)
        assert len(coords) == 26
        assert [2, 2, 2] not in coords.tolist()

    def test_empty_mask(self):
        m = mask(np.zeros((4, 4, 4)))
        assert len(surface_voxels(m)) == 0

    def test_volume_border_counts_as_outside(self):
        # A mask filling the whole volume is all surface... except the core.
        m = mask(np.ones((3, 3, 3)))
        assert len(surface_voxels(m)) == 26

    def test_class_subset(self):
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[1:3, 1:3, 1:3] = 1
        labels[4:5, 4:5, 4:5] = 2
        m = LabelMask(labels, 3)
        only_two = surface_voxels(m, class_set=[2])
        np.testing.assert_array_equal(only_two, [[4, 4, 4]])

    def test_matches_independent_implementation(self, rng):
        for seed in range(10):
            m = make_blob_mask((12, 13, 11), seed=seed, threshold=0.58)
            mine = {tuple(c) for c in surface_voxels(m)}
            ref = {tuple(c) for c in np.argwhere(oracle_surface(m.labels > 0))}
            assert mine == ref


class TestDistanceTransform:
    def test_zero_at_seeds(self, rng):
        seeds = rng.random((8, 8, 8)) < 0.1
        seeds[0, 0, 0] = True
        d = distance_transform(seeds, Spacing(1, 1, 1))
        assert (d[seeds] == 0).all()

    def test_single_seed_exact_distances(self):
        seeds = np.zeros((7, 7, 7), dtype=bool)
        seeds[3, 3, 3] = True
        spacing = Spacing(0.5, 1.0, 2.0)
        d = distance_transform(seeds, spacing)
        grid = np.indices((7, 7, 7), dtype=float)
        expected = np.sqrt(
            ((grid[0] - 3) * 0.5) ** 2
            + ((grid[1] - 3) * 1.0) ** 2
            + ((grid[2] - 3) * 2.0) ** 2
        )
        np.testing.assert_allclose(d, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(1, 9, 7), (8, 1, 6), (7, 5, 1), (11, 6, 9), (4, 13, 3)]
    )
    def test_matches_all_pairs_oracle(self, rng, shape):
        for _ in range(5):
            seeds = rng.random(shape) < 0.08
            seeds.flat[rng.integers(seeds.size)] = True
            spacing = Spacing(*rng.uniform(0.3, 2.5, size=3))
            d = distance_transform(seeds, spacing)
            np.testing.assert_allclose(
                d, brute_force_distances(seeds, spacing), rtol=0, atol=1e-9
            )

    def test_seedless_volume_is_all_inf(self):
        d = distance_transform(np.zeros((4, 5, 3), dtype=bool), Spacing(1, 2, 3))
        assert np.isposinf(d).all()

    @pytest.mark.parametrize("shape", [(2, 90, 3), (3, 2, 90)])
    def test_corner_seed_reaches_far_end(self, shape):
        # Distances along the long axis keep growing up to its far end, so
        # no pass may stop before the last offset.
        seeds = np.zeros(shape, dtype=bool)
        seeds[0, 0, 0] = True
        spacing = Spacing(0.9, 1.1, 0.7)
        d = distance_transform(seeds, spacing)
        np.testing.assert_allclose(
            d, brute_force_distances(seeds, spacing), rtol=0, atol=1e-9
        )
        assert np.isfinite(d).all()


class TestHd95:
    def test_identical_masks_zero(self, rng):
        m = make_blob_mask((10, 10, 10), seed=1, threshold=0.58)
        assert hd95(m, m, Spacing(1, 1, 1)) == 0.0

    def test_two_voxels_three_apart(self):
        pred = box_mask((8, 4, 4), (1, 1, 1), (2, 2, 2))
        gt = box_mask((8, 4, 4), (4, 1, 1), (5, 2, 2))
        assert hd95(pred, gt, Spacing(2, 1, 1)) == pytest.approx(6.0)

    def test_matches_all_pairs_oracle(self, rng):
        checked = 0
        seed = 0
        while checked < 25:
            seed += 1
            pred = make_blob_mask((14, 12, 10), seed=seed, threshold=0.58)
            gt = make_blob_mask((14, 12, 10), seed=seed + 1000, threshold=0.58)
            if not pred.labels.any() or not gt.labels.any():
                continue
            spacing = Spacing(*rng.uniform(0.4, 2.5, size=3))
            got = hd95(pred, gt, spacing)
            want = brute_force_hd95(pred, gt, spacing)
            assert abs(got - want) < 1e-9
            checked += 1

    def test_symmetry_exact(self, rng):
        a = make_blob_mask((12, 12, 12), seed=3, threshold=0.58)
        b = make_blob_mask((12, 12, 12), seed=4, threshold=0.58)
        spacing = Spacing(0.7, 1.3, 2.1)
        assert hd95(a, b, spacing) == hd95(b, a, spacing)

    def test_spacing_scaling_exact(self):
        a = make_blob_mask((12, 12, 12), seed=5, threshold=0.58)
        b = make_blob_mask((12, 12, 12), seed=6, threshold=0.58)
        base = hd95(a, b, Spacing(0.5, 1.0, 1.5))
        doubled = hd95(a, b, Spacing(1.0, 2.0, 3.0))
        assert doubled == 2.0 * base

    def test_small_structures_in_large_volume(self, rng):
        # The distance transforms run on the surfaces' bounding box only.
        dims = (48, 40, 36)
        for lo_pred, lo_gt in [((3, 4, 5), (6, 5, 7)), ((30, 2, 20), (35, 30, 28))]:
            pred = box_mask(dims, lo_pred, tuple(v + 4 for v in lo_pred))
            gt = box_mask(dims, lo_gt, tuple(v + 5 for v in lo_gt))
            spacing = Spacing(*rng.uniform(0.4, 2.5, size=3))
            want = brute_force_hd95(pred, gt, spacing)
            assert abs(hd95(pred, gt, spacing) - want) < 1e-9

    def test_both_empty_is_zero(self):
        empty = mask(np.zeros((4, 4, 4)))
        assert hd95(empty, empty, Spacing(1, 1, 1)) == 0.0

    def test_one_empty_is_undefined(self):
        empty = mask(np.zeros((4, 4, 4)))
        full = box_mask((4, 4, 4), (1, 1, 1), (3, 3, 3))
        assert hd95(empty, full, Spacing(1, 1, 1)) is None
        report = evaluate(empty, full, Spacing(1, 1, 1))
        assert report.hd95_mm is None
        assert "prediction" in report.undefined_reason

    def test_translation_invariance(self):
        dims = (16, 16, 16)
        pred_a = box_mask(dims, (2, 2, 2), (5, 6, 4))
        gt_a = box_mask(dims, (3, 2, 3), (6, 5, 6))
        pred_b = box_mask(dims, (7, 7, 8), (10, 11, 10))
        gt_b = box_mask(dims, (8, 7, 9), (11, 10, 12))
        spacing = Spacing(1.0, 0.8, 1.2)
        assert hd95(pred_a, gt_a, spacing) == pytest.approx(
            hd95(pred_b, gt_b, spacing), abs=1e-12
        )
        ra = overlap_metrics(pred_a, gt_a)
        rb = overlap_metrics(pred_b, gt_b)
        assert ra.aiou == rb.aiou and ra.adice == rb.adice


class TestEvaluate:
    def test_full_report_identity(self, rng):
        m = make_blob_mask((10, 10, 10), seed=9, threshold=0.58)
        r = evaluate(m, m, Spacing(1, 1, 1))
        assert r.aiou == 1.0 and r.hd95_mm == 0.0 and r.undefined_reason is None


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: importing it would add set-up time
    # and resident memory to every run.
    src = os.path.dirname(os.path.dirname(segtta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, segtta; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
