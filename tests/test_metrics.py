import os
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import segtta
import segtta.metrics

from segtta import (
    CaseScorer,
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

    def test_rejects_a_2d_seed_mask(self):
        with pytest.raises(DimensionMismatch, match=r"seed mask must be 3D, got shape \(4, 5\)"):
            distance_transform(np.zeros((4, 5), dtype=bool), Spacing(1, 1, 1))

    def test_batch_axis_holds_independent_volumes(self, rng):
        # Each volume of a stack gets the bits of its own transform, a
        # seedless one all inf, whatever the pass blocks.
        shape = (9, 7, 6)
        spacing = Spacing(0.7, 1.3, 2.2)
        stack = rng.random(shape + (4,)) < [0.05, 0.3, 0.0, 0.01]
        stack[0, 0, 0, 3] = True
        alone = [distance_transform(stack[..., i], spacing) for i in range(4)]
        for blocks in (7, 2 ** 16):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(segtta.metrics, "_PASS_VOXELS", blocks)
                together = distance_transform(stack, spacing)
            for i, want in enumerate(alone):
                assert np.array_equal(together[..., i], want)

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

    def test_scratch_is_one_volume_and_one_block(self):
        # Measured 21.4 bytes per voxel: the float64 result (8) and either
        # one copy of it while an axis's lines are laid out or, during a
        # pass, the scratch of one block of lines (about four arrays of
        # 2**16 voxels). Squaring, the passes' scratch and the square root
        # each took a volume of their own before (48).
        dims = (64, 64, 48)
        seeds = make_blob_mask(dims, seed=3, threshold=0.55).labels > 0
        spacing = Spacing(0.8, 0.8, 2.5)
        want = distance_transform(seeds, spacing)
        tracemalloc.start()
        try:
            got = distance_transform(seeds, spacing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 24 * seeds.size


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
        # Each row's transform runs on a crop around the ground truth only.
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


class TestCaseScorer:
    """One scorer per ground truth, many rows: each row equals the all-pairs
    oracle and, exactly, the one-row ``evaluate``."""

    @staticmethod
    def check_rows(gt, preds, spacing):
        scorer = CaseScorer(gt, spacing)
        for pred in preds:
            [got] = scorer.evaluate([pred])
            assert got == evaluate(pred, gt, spacing)
            assert hd95(pred, gt, spacing) == got.hd95_mm
            want = brute_force_hd95(pred, gt, spacing)
            if want is None:
                assert got.hd95_mm is None
            else:
                assert abs(got.hd95_mm - want) < 1e-9

    @staticmethod
    def edt_shapes(monkeypatch):
        shapes = []
        real = segtta.metrics.distance_transform

        def counted(seeds, spacing):
            shapes.append(seeds.shape)
            return real(seeds, spacing)

        monkeypatch.setattr(segtta.metrics, "distance_transform", counted)
        return shapes

    @pytest.mark.parametrize("dims", [
        (14, 12, 10), (1, 9, 7), (2, 2, 11), (9, 1, 2), (1, 1, 6), (2, 13, 1),
    ])
    def test_many_rows_match_oracle(self, rng, dims):
        for _ in range(3):
            spacing = Spacing(*rng.uniform(0.4, 2.5, size=3))
            gt = mask(rng.random(dims) < rng.uniform(0.05, 0.6))
            preds = [mask(rng.random(dims) < rng.uniform(0.0, 0.6))
                     for _ in range(5)]
            preds += [gt, mask(np.zeros(dims)), mask(np.ones(dims))]
            self.check_rows(gt, preds, spacing)

    def test_surfaces_touching_the_border(self, rng):
        dims = (12, 10, 8)
        gt = box_mask(dims, (0, 0, 0), (5, 10, 3))
        preds = [
            box_mask(dims, (7, 0, 5), (12, 10, 8)),
            box_mask(dims, (0, 0, 0), (12, 10, 8)),
            box_mask(dims, (0, 4, 0), (3, 10, 8)),
            mask(rng.random(dims) < 0.02),
        ]
        self.check_rows(gt, preds, Spacing(0.6, 1.9, 1.1))

    def test_empty_surfaces(self, rng):
        dims = (6, 5, 4)
        empty = mask(np.zeros(dims))
        full = box_mask(dims, (1, 1, 1), (4, 4, 3))
        self.check_rows(empty, [empty, full, mask(rng.random(dims) < 0.3)],
                        Spacing(1, 2, 3))
        self.check_rows(full, [empty, full], Spacing(1, 2, 3))
        [report] = CaseScorer(empty, Spacing(1, 1, 1)).evaluate([full])
        assert report.hd95_mm is None and "ground truth" in report.undefined_reason

    def test_crop_grows_until_certified(self, monkeypatch):
        # The ground truth is a small box in one corner. A prediction close
        # to it is certified on the first crop; one beside it needs a larger
        # crop; one in the far corner needs the whole volume.
        dims = (40, 32, 24)
        spacing = Spacing(0.7, 1.0, 1.6)
        gt = box_mask(dims, (2, 3, 2), (7, 8, 6))
        near = box_mask(dims, (2, 3, 2), (8, 8, 6))
        beside = box_mask(dims, (14, 3, 2), (18, 8, 6))
        far = box_mask(dims, (37, 29, 21), (40, 32, 24))
        self.check_rows(gt, [near, beside, far], spacing)
        shapes = self.edt_shapes(monkeypatch)
        scorer = CaseScorer(gt, spacing)
        crops = {}
        for name, pred in (("near", near), ("beside", beside), ("far", far)):
            shapes.clear()
            scorer.to_surfaces([segtta.metrics._surface(pred.labels > 0)])
            sizes = [int(np.prod(shape)) for shape in shapes]
            assert sizes == sorted(set(sizes))  # each crop strictly larger
            crops[name] = shapes[:]
        assert len(crops["near"]) == 1 and crops["near"][0] != dims
        assert len(crops["beside"]) > 1 and crops["beside"][-1] != dims
        assert len(crops["far"]) > 1 and crops["far"][-1] == dims

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.data())
    def test_rows_scored_together_equal_each_row_alone(self, data):
        # One call scores the rows of a case: empty and full rows, and rows
        # whose crops certify at different margins (near, beside and far
        # from a ground truth in one corner), in any order. Small pass
        # blocks split the rows into several stacks, or one row per stack.
        dims = (20, 16, 12)
        spacing = Spacing(*(data.draw(st.floats(0.3, 3.0)) for _ in range(3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        speckle = np.zeros(dims, dtype=np.uint8)
        speckle[:, :, 6:] = rng.random((20, 16, 6)) < 0.01
        pool = {
            "near": box_mask(dims, (2, 3, 2), (8, 8, 6)),
            "beside": box_mask(dims, (11, 3, 2), (14, 8, 6)),
            "far": box_mask(dims, (18, 14, 10), (20, 16, 12)),
            "empty": mask(np.zeros(dims)),
            "full": mask(np.ones(dims)),
            "speckle": mask(speckle),
        }
        gt = data.draw(st.sampled_from([
            box_mask(dims, (2, 3, 2), (7, 8, 6)), mask(np.zeros(dims)),
            box_mask(dims, (8, 5, 4), (13, 11, 9)),
        ]))
        names = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=8))
        rows = [pool[name] for name in names]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segtta.metrics, "_PASS_VOXELS",
                          data.draw(st.sampled_from([1, 7, 40, 2000, 2 ** 16])))
            got = CaseScorer(gt, spacing).evaluate(rows)
        assert len(got) == len(rows)
        wants = {}
        for name, pred, report in zip(names, rows, got):
            assert report == evaluate(pred, gt, spacing)
            if name not in wants:
                wants[name] = brute_force_hd95(pred, gt, spacing)
            if wants[name] is None:
                assert report.hd95_mm is None
            else:
                assert abs(report.hd95_mm - wants[name]) < 1e-9

    def test_ground_truth_transform_runs_once(self, rng, monkeypatch):
        # Once per scorer, on the ground truth's box; and no transform of
        # the whole volume, although the speckle lies all over it.
        dims = (16, 14, 12)
        spacing = Spacing(1.0, 1.2, 0.8)
        gt = box_mask(dims, (4, 4, 3), (11, 10, 9))
        scorer = CaseScorer(gt, spacing)
        shapes = self.edt_shapes(monkeypatch)
        rows = 5
        for _ in range(rows):
            labels = np.array(gt.labels)
            labels ^= rng.random(dims) < 0.01
            scorer.evaluate([mask(labels)])
        box = (7, 6, 6)
        assert shapes[0] == box and shapes.count(box) == 1
        assert len(shapes) == 1 + rows
        assert dims not in shapes

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_distances_to_gt_are_the_transforms(self, data):
        # The ground truth's box may touch the border or span a 1-voxel
        # axis; the query surface lies anywhere. Pass blocks of a few
        # voxels make the columns outside the box go in several parts.
        dims = tuple(data.draw(st.integers(1, 20)) for _ in range(3))
        lo = [data.draw(st.integers(0, n - 1)) for n in dims]
        hi = [data.draw(st.integers(a + 1, n)) for a, n in zip(lo, dims)]
        spacing = Spacing(*(data.draw(st.floats(0.3, 3.0)) for _ in range(3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = np.zeros(dims, dtype=np.uint8)
        inside = labels[tuple(slice(a, b) for a, b in zip(lo, hi))]
        inside[...] = rng.random(inside.shape) < data.draw(st.floats(0.05, 1.0))
        inside.flat[0] = 1
        query = segtta.metrics._surface(rng.random(dims) < data.draw(st.floats(0.0, 0.6)))
        scorer = CaseScorer(mask(labels), spacing)
        want = np.sort(distance_transform(scorer.surface, spacing)[query])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segtta.metrics, "_PASS_VOXELS",
                          data.draw(st.sampled_from([1, 7, 40, 2 ** 16])))
            got = np.sort(scorer.to_gt(query))
        assert np.array_equal(got, want)

    def test_speckle_outside_a_small_box(self, rng):
        # Flip speckle on every x-plane, far outside a 4x3x3 ground truth.
        dims = (30, 14, 11)
        spacing = Spacing(0.8, 1.3, 2.1)
        gt = box_mask(dims, (13, 5, 4), (17, 8, 7))
        labels = np.array(gt.labels)
        labels ^= rng.random(dims) < 0.02
        labels[np.arange(dims[0]), rng.integers(0, 5, dims[0]), 0] = 1
        pred = mask(labels)
        outside = np.array(labels, dtype=bool)
        outside[13:17, 5:8, 4:7] = False
        assert np.all(outside.any(axis=(1, 2)))
        got = CaseScorer(gt, spacing).evaluate([pred])[0].hd95_mm
        assert got == hd95(pred, gt, spacing)
        assert abs(got - brute_force_hd95(pred, gt, spacing)) < 1e-9

    def test_scorer_holds_less_than_a_volume(self, rng):
        dims = (64, 64, 48)
        spacing = Spacing(0.9, 0.9, 1.5)
        gt = box_mask(dims, (27, 27, 19), (37, 37, 29))
        labels = np.array(gt.labels)
        labels ^= rng.random(dims) < 0.001
        pred = mask(labels)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scorer = CaseScorer(gt, spacing)
            scorer.evaluate([pred])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < np.prod(dims) * 8

    def test_rows_must_match_the_ground_truth_dims(self):
        scorer = CaseScorer(box_mask((4, 4, 4), (1, 1, 1), (3, 3, 3)), Spacing(1, 1, 1))
        with pytest.raises(DimensionMismatch):
            scorer.evaluate([box_mask((4, 4, 5), (1, 1, 1), (3, 3, 3))])


def test_percentile_is_numpys_bit_for_bit(rng):
    # Every length up to 3000, each with ties (few distinct values) and
    # with values rounded to one or three decimals.
    for n in range(1, 3001):
        for values in (rng.integers(0, 4, n) * 0.7, np.round(rng.random(n) * 30, 1),
                       np.round(rng.exponential(5.0, n), 3)):
            want = np.percentile(values, 95)
            assert segtta.metrics._percentile95(values.copy()) == want, n


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
