import gc
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from segtta import (
    AugmentationSpec,
    LabelMask,
    ProbabilityMap,
    Spacing,
    Volume,
    normalize_intensity,
)
from segtta.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidLabels,
    IoFailure,
    NotProbabilistic,
)
from segtta.core import ROW_TABLES_KEPT, SLAB_VOXELS, _checked_rows, slabs

from conftest import dense


def make_volume(values, spacing=(1, 1, 1)):
    return Volume(np.asarray(values, dtype=float), Spacing(*spacing), vol_id="t")


class TestSpacing:
    def test_voxel_volume(self):
        assert Spacing(0.5, 0.5, 2.0).voxel_volume == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (-1, 1, 1), (float("nan"), 1, 1),
                                     (float("inf"), 1, 1)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Spacing(*bad)


class TestVolume:
    def test_shape_and_dims(self):
        v = make_volume(np.zeros((2, 3, 4)))
        assert v.dims == (2, 3, 4)

    def test_rejects_non_3d(self):
        with pytest.raises(DimensionMismatch):
            make_volume(np.zeros((2, 3)))

    def test_rejects_a_zero_dim(self):
        with pytest.raises(DimensionMismatch, match=r"dims must be >= 1, got \(2, 0, 3\)"):
            make_volume(np.zeros((2, 0, 3)))

    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            make_volume(data)

    def test_immutable(self):
        v = make_volume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0


class TestNormalizeIntensity:
    def test_affine_example(self):
        v = make_volume([[[0.0, 50.0, 100.0]]])
        out = normalize_intensity(v)
        np.testing.assert_array_equal(out.data, [[[0.0, 0.5, 1.0]]])

    def test_constant_convention(self):
        v = make_volume(np.full((2, 2, 2), 7.0))
        out = normalize_intensity(v)
        assert not out.data.any()

    def test_negative_range(self):
        v = make_volume([[[-10.0, 10.0]]])
        out = normalize_intensity(v)
        np.testing.assert_array_equal(out.data, [[[0.0, 1.0]]])

    @pytest.mark.parametrize("kind", ["random", "negative", "single"])
    def test_bytes_are_the_affine_formula(self, rng, kind):
        # The pipeline's inputs are these bytes, so they are pinned bit for
        # bit, not within a tolerance.
        x = {
            "random": rng.normal(37.0, 11.0, size=(8, 7, 6)),
            "negative": rng.uniform(-250.0, -3.0, size=(5, 6, 7)),
            "single": np.full((1, 1, 1), 12.5),
        }[kind]
        v = make_volume(x)
        out = normalize_intensity(v)
        mn, mx = x.min(), x.max()
        expected = np.zeros_like(x) if mx == mn else (x - mn) / (mx - mn)
        assert out.data.dtype == expected.dtype
        assert out.data.tobytes() == expected.tobytes()
        if kind == "single":
            assert not out.data.any()


class TestProbabilityMap:
    def test_valid_and_dims(self, rng):
        p = dyadic(rng, (2, 3, 1), 3)
        assert p.dims == (2, 3, 1)
        assert p.num_classes == 3

    def test_renormalizes_small_deviation(self):
        probs = np.full((1, 1, 1, 2), 0.5)
        probs[..., 0] = 0.5004  # sum 1.0004, inside tolerance
        p = ProbabilityMap(probs)
        np.testing.assert_allclose(dense(p).sum(axis=3), 1.0, atol=1e-15)

    def test_renormalization_idempotent(self, rng):
        probs = rng.random((3, 3, 3, 4))
        probs /= probs.sum(axis=3, keepdims=True)
        once = ProbabilityMap(probs)
        twice = ProbabilityMap(dense(once))
        np.testing.assert_array_equal(dense(once), dense(twice))

    def test_rejects_bad_sum(self):
        probs = np.zeros((1, 1, 1, 2))
        probs[..., 0] = 0.3
        probs[..., 1] = 0.6
        with pytest.raises(NotProbabilistic):
            ProbabilityMap(probs)

    def test_rejects_out_of_range(self):
        probs = np.zeros((1, 1, 1, 2))
        probs[..., 0] = 1.1
        probs[..., 1] = -0.1
        with pytest.raises(NotProbabilistic):
            ProbabilityMap(probs)

    def test_clamps_tiny_excursions(self):
        probs = np.zeros((1, 1, 1, 2))
        probs[..., 0] = 1.0005
        probs[..., 1] = -0.0005
        p = ProbabilityMap(probs)
        assert dense(p).min() >= 0.0
        assert dense(p).max() <= 1.0

    def test_integer_array_is_widened(self):
        onehot = np.zeros((2, 2, 1, 3), dtype=np.int64)
        onehot[..., 1] = 1
        assert dense(ProbabilityMap(onehot)).tobytes() == dense(
            ProbabilityMap(onehot.astype(np.float64))).tobytes()
        with pytest.raises(NotProbabilistic, match=r"range \[0, 2\]"):
            ProbabilityMap(onehot * 2)

    def test_rejects_nan_and_inf_before_range(self):
        for bad in (np.nan, np.inf, -np.inf):
            probs = np.full((2, 2, 1, 2), 0.5)
            probs[1, 0, 0, 1] = bad
            probs[0, 1, 0, 0] = 7.0  # out of range too; NaN/Inf is named first
            with pytest.raises(NotProbabilistic, match="NaN or Inf"):
                ProbabilityMap(probs)

    @pytest.mark.parametrize("num_classes", range(2, 13))
    def test_bytes_match_clip_sum_divide(self, rng, num_classes):
        # The plain formula: clip to [0, 1], renormalize by the sum of the
        # class planes, added one after another, when any voxel's sum is off
        # by more than RENORM_TOL. Both memory orders are checked.
        exact = rng.random((5, 4, 3, num_classes))
        exact /= exact.sum(axis=3, keepdims=True)
        noisy = exact + rng.uniform(-2e-4, 2e-4, exact.shape) / num_classes
        for values in (exact, exact * (1 + 5e-4 / num_classes), noisy):
            for probs in (values, np.asfortranarray(values)):
                self.check_formula(probs)

    @staticmethod
    def check_formula(probs):
        clipped = np.clip(probs, 0.0, 1.0)
        sums = sum(clipped[..., c] for c in range(clipped.shape[3]))
        if np.abs(sums - 1.0).max() > 1e-12:
            clipped = clipped / sums[..., None]
        caller = probs.copy(order="K")
        got = dense(ProbabilityMap(caller))
        assert got.tobytes() == clipped.tobytes()
        assert not np.shares_memory(got, caller) and caller.flags.writeable
        np.testing.assert_array_equal(caller, probs)

    @pytest.mark.parametrize("num_classes", range(2, 13))
    def test_bytes_do_not_depend_on_memory_layout(self, rng, num_classes):
        # 3 slabs; the off-by-5e-4 values renormalize every voxel.
        exact = rng.random((70, 36, 30, num_classes))
        exact /= exact.sum(axis=3, keepdims=True)
        for values in (exact, exact * (1 + 5e-4 / num_classes)):
            c_map = ProbabilityMap(np.ascontiguousarray(values))
            f_map = ProbabilityMap(np.asfortranarray(values))
            for a, b in slabs(c_map.dims):
                assert c_map.slab(a, b).tobytes() == f_map.slab(a, b).tobytes()

    @pytest.mark.parametrize("num_classes", range(2, 13))
    def test_from_rows_matches_the_dense_map(self, rng, num_classes):
        # Every row is picked, so the rows are checked exactly as the voxels
        # of the dense map, renormalized or not.
        exact = rng.random((num_classes, num_classes))
        exact /= exact.sum(axis=1, keepdims=True)
        noisy = exact + rng.uniform(-2e-4, 2e-4, exact.shape) / num_classes
        labels = rng.permutation(np.arange(60) % num_classes).reshape(5, 4, 3)
        for table in (exact, exact * (1 + 5e-4 / num_classes), noisy):
            caller = table.copy()
            got = ProbabilityMap.from_rows(caller, labels, "t")
            want = ProbabilityMap(np.take(table, labels, axis=0), "t")
            assert dense(got).tobytes() == dense(want).tobytes()
            whole = dense(got)
            assert whole.flags.c_contiguous
            whole[...] = 0  # a copy: writing it leaves the map as it was
            assert dense(got).tobytes() == dense(want).tobytes()
            assert got.source_tag == "t"
            assert not np.shares_memory(dense(got), caller) and caller.flags.writeable
            np.testing.assert_array_equal(caller, table)

    def test_from_rows_checks_every_row(self):
        table = np.array([[0.5, 0.5], [0.2, 0.9]])
        labels = np.zeros((2, 2, 2), dtype=np.uint8)  # row 1 is never picked
        with pytest.raises(NotProbabilistic, match="deviates"):
            ProbabilityMap.from_rows(table, labels)
        with pytest.raises(DimensionMismatch, match="row table must be 2D"):
            ProbabilityMap.from_rows(table[None], labels)
        with pytest.raises(DimensionMismatch, match="labels must be 3D"):
            ProbabilityMap.from_rows(table, labels[0])
        with pytest.raises(DimensionMismatch, match="num_classes=1"):
            ProbabilityMap.from_rows(np.ones((1, 1)), labels)
        with pytest.raises(DimensionMismatch, match="257 rows"):
            ProbabilityMap.from_rows(np.full((257, 2), 0.5), labels)

    def test_bad_table_raises_with_each_call_tag(self):
        # A failed check is not kept: the second call checks again and
        # names its own map.
        table = np.array([[0.5, 0.5], [0.2, 0.9]])
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        for tag in ("first", "second"):
            with pytest.raises(NotProbabilistic, match=f"map '{tag}': per-voxel sum"):
                ProbabilityMap.from_rows(table.copy(), labels, tag)

    def test_equal_tables_share_one_checked_table(self):
        # Keyed by content, not by the array: two equal tables built apart
        # give one read-only table, which shares no memory with either.
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        a, b = (np.array([[0.7, 0.3], [0.3, 0.7]]) for _ in range(2))
        ma = ProbabilityMap.from_rows(a, labels, "a")
        mb = ProbabilityMap.from_rows(b, labels, "b")
        assert ma._table is mb._table and not ma._table.flags.writeable
        assert not np.shares_memory(ma._table, a) and a.flags.writeable
        # The same values in another dtype are another entry.
        mc = ProbabilityMap.from_rows(a.astype(np.float32), labels, "c")
        assert mc._table is not ma._table

    def test_table_changed_in_place_is_checked_again(self):
        labels = np.array([0, 1] * 4, dtype=np.uint8).reshape(2, 2, 2)
        table = np.array([[0.6, 0.4], [0.4, 0.6]])
        first = ProbabilityMap.from_rows(table, labels, "t")
        table[1] = [0.1, 0.9]
        assert dense(ProbabilityMap.from_rows(table, labels, "t")).tobytes() == (
            np.take(table, labels, axis=0).tobytes())
        assert dense(first)[0, 0, 1].tolist() == [0.4, 0.6]
        table[1] = [0.1, 1.2]
        with pytest.raises(NotProbabilistic, match="map 'u': probs range"):
            ProbabilityMap.from_rows(table, labels, "u")

    def test_checked_tables_are_bounded(self):
        labels = np.zeros((1, 1, 1), dtype=np.uint8)
        for i in range(ROW_TABLES_KEPT + 5):
            p = 0.51 + i / 1000
            ProbabilityMap.from_rows(np.array([[p, 1 - p]]), labels)
            assert len(_checked_rows) <= ROW_TABLES_KEPT

    def test_threads_share_one_checked_table(self):
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        start = threading.Barrier(4)
        tables = []

        def build():
            start.wait()
            table = np.array([[0.61, 0.39], [0.39, 0.61]])
            tables.append(ProbabilityMap.from_rows(table, labels)._table)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(tables) == 4 and all(t is tables[0] for t in tables)

    def test_threads_keep_the_bound(self):
        # More threads than cores, switching often, each past the bound:
        # no lookup or eviction fails, the memo stays bounded and every map
        # holds its own table's values.
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        start = threading.Barrier(8)
        built, errors = [], []

        def build(i):
            try:
                start.wait()
                for j in range(3 * ROW_TABLES_KEPT):
                    # A table of this thread's own, then one every thread uses.
                    for p in (0.6 + (i * 3 * ROW_TABLES_KEPT + j) / 1e5, 0.55):
                        table = np.array([[p, 1 - p]])
                        built.append((table, ProbabilityMap.from_rows(table, labels)))
            except Exception as e:  # reported by the main thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(_checked_rows) <= ROW_TABLES_KEPT
        assert len(built) == 8 * 3 * ROW_TABLES_KEPT * 2
        assert all(np.array_equal(m._table, table) for table, m in built)

    @staticmethod
    def whole_map_formula(probs):
        """Clip in float64, then renormalize every voxel by the sum of its
        class planes, added one after another, if any voxel is off."""
        clipped = np.clip(probs.astype(np.float64), 0.0, 1.0)
        sums = sum(clipped[..., c] for c in range(clipped.shape[3]))
        if np.abs(sums - 1.0).max() > 1e-12:
            clipped = clipped / sums[..., None]
        return np.ascontiguousarray(clipped)

    @pytest.mark.parametrize("num_classes", [2, 3, 9])
    def test_slabs_are_rows_of_the_whole_map(self, rng, tmp_path, num_classes):
        # 3 slabs, the last of 10 planes. One voxel of the last slab is off
        # by 5e-4, which renormalizes every voxel of every slab. A map
        # held in a file yields the same bytes as the map in memory.
        dims = (70, 36, 30)
        assert [b - a for a, b in slabs(dims)] == [30, 30, 10]
        exact = rng.random((*dims, num_classes))
        exact /= exact.sum(axis=3, keepdims=True)
        off = exact.copy()
        off[65, 3, 4] *= 1 + 5e-4
        for values in (exact, off):
            for probs in (values, np.asfortranarray(values), values.astype(np.float32),
                          np.asfortranarray(values.astype(np.float32)),
                          values.astype(">f4")):
                want = self.whole_map_formula(probs)
                for held in (ProbabilityMap(probs),
                             ProbabilityMap(probs, directory=tmp_path)):
                    assert dense(held).tobytes() == want.tobytes()
                    for a, b in [*slabs(dims), (0, 1), (29, 31), (69, 70), (0, 70)]:
                        got = held.slab(a, b)
                        assert got.dtype == np.float64 and got.flags.c_contiguous
                        assert got.tobytes() == want[a:b].tobytes()

    def test_whole_map_checked_when_built(self, rng, tmp_path):
        # The one bad voxel lies in the last, partial slab; a map held in a
        # file leaves no file when it is rejected.
        for directory in (None, tmp_path):
            probs = np.full((70, 36, 30, 2), 0.5, dtype=np.float32)
            probs[69, 35, 29, 1] = 0.51
            with pytest.raises(NotProbabilistic, match="deviates"):
                ProbabilityMap(probs, directory=directory)
            probs[69, 35, 29, 1] = 1.01
            with pytest.raises(NotProbabilistic, match=r"range \[0.5, 1.01\]"):
                ProbabilityMap(probs, directory=directory)
            probs[0, 0, 0, 1] = 2.0  # out of range, but the NaN is named first
            probs[69, 35, 29] = np.nan
            with pytest.raises(NotProbabilistic, match="NaN"):
                ProbabilityMap(probs, directory=directory)
        assert not any(tmp_path.iterdir())

    def test_float32_map_held_as_float32(self, rng):
        # A map read from a file is float32: it is held in 4 bytes per
        # value, and checked a slab at a time, not as a float64 copy.
        fg = rng.random((70, 36, 30)).astype(np.float32)
        probs = np.asfortranarray(np.stack([1 - fg, fg], axis=-1))
        tracemalloc.start()
        try:
            m = ProbabilityMap(probs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.num_classes == 2 and m.dims == (70, 36, 30)
        assert probs.nbytes <= held < probs.nbytes + 10_000
        assert peak < probs.nbytes + 4 * SLAB_VOXELS * 2 * 8

    def test_from_rows_holds_its_labels(self):
        # 1 byte per voxel; read-only uint8 labels are held without a copy,
        # writable ones are copied, so a later write does not reach the map.
        table = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.zeros((40, 36, 30), dtype=np.uint8)
        labels[::3] = 1
        want = np.take(table, labels, axis=0)
        frozen = labels.copy()
        frozen.setflags(write=False)
        for given, copied in ((frozen, False), (labels, True)):
            tracemalloc.start()
            try:
                m = ProbabilityMap.from_rows(table, given, "t")
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (held >= labels.nbytes) == copied
            assert held < labels.nbytes + 10_000
        labels[:] = 0
        assert dense(m).tobytes() == want.tobytes()
        assert m.retagged("u").slab(0, 40).tobytes() == want.tobytes()

    @staticmethod
    def spill_input(rng, directory, dims=(70, 36, 30)):
        fg = rng.random(dims).astype(np.float32)
        return ProbabilityMap(np.stack([1 - fg, fg], axis=-1), "t", directory=directory)

    def test_spilled_map_holds_a_file_not_its_values(self, rng, tmp_path):
        # A Fortran-ordered big-endian array, as a NIfTI file holds one.
        fg = rng.random((70, 36, 30)).astype(np.float32)
        probs = np.asfortranarray(np.stack([1 - fg, fg], axis=-1), ">f4")
        ProbabilityMap(probs, directory=tmp_path)  # first-call allocations are not the map's
        tracemalloc.start()
        try:
            spilled = ProbabilityMap(probs, "t", directory=tmp_path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1000
        assert (spilled.dims, spilled.num_classes, spilled.source_tag) == (
            (70, 36, 30), 2, "t")
        (path,) = tmp_path.iterdir()
        assert path.name.startswith("segtta-") and path.suffix == ".map"
        assert path.stat().st_size == 70 * 36 * 30 * 2 * 4
        assert path.read_bytes() == probs.astype("<f4").tobytes(order="C")

    def test_spill_file_goes_with_the_last_map_holding_it(self, rng, tmp_path):
        spilled = self.spill_input(rng, tmp_path)
        (path,) = tmp_path.iterdir()
        want = dense(spilled)
        copy = spilled.retagged("u")
        del spilled
        gc.collect()
        assert dense(copy).tobytes() == want.tobytes()
        del copy
        assert not path.exists()

    @pytest.mark.parametrize("damage", ["truncated", "missing"])
    def test_damaged_spill_file_is_an_io_failure(self, rng, tmp_path, damage):
        spilled = self.spill_input(rng, tmp_path)
        (path,) = tmp_path.iterdir()
        assert spilled.slab(0, 30).shape == (30, 36, 30, 2)
        if damage == "missing":
            path.unlink()
        else:
            with open(path, "r+b") as f:
                f.truncate(path.stat().st_size - 4)
        with pytest.raises(IoFailure, match=re.escape(str(path))):
            spilled.slab(60, 70)

    def test_unwritable_spill_file_is_an_io_failure(self, rng, tmp_path, monkeypatch,
                                                    read_only_map_files):
        with pytest.raises(IoFailure) as info:
            self.spill_input(rng, tmp_path)
        assert str(info.value).startswith(
            f"cannot write map file {read_only_map_files[0]}: ")
        assert not any(tmp_path.iterdir())
        monkeypatch.undo()
        missing = tmp_path / "missing"
        with pytest.raises(IoFailure, match=re.escape(
                f"cannot create a map file in {missing}: ")):
            self.spill_input(rng, missing)

    @pytest.mark.parametrize("labels, match", [
        (np.full((2, 2, 2), 2), r"labels range \[2, 2\] outside the table's rows \[0, 2\)"),
        (np.full((2, 2, 2), -1), r"labels range \[-1, -1\]"),
        (np.zeros((2, 2, 2)), "labels must be integers"),
    ], ids=["past-the-rows", "negative", "float"])
    def test_from_rows_labels_must_index_the_rows(self, labels, match):
        with pytest.raises(InvalidLabels, match=match):
            ProbabilityMap.from_rows(np.array([[0.9, 0.1], [0.2, 0.8]]), labels)

    def test_rejects_single_class(self):
        with pytest.raises(DimensionMismatch):
            ProbabilityMap(np.ones((2, 2, 2, 1)))

    def test_class_count_bounded_by_label_dtype(self):
        # Fused labels are uint8, so 256 classes is the most a map may have.
        assert ProbabilityMap(np.full((1, 1, 2, 256), 1 / 256)).num_classes == 256
        with pytest.raises(DimensionMismatch, match=r"num_classes=300 outside \[2, 256\]"):
            ProbabilityMap(np.full((1, 1, 2, 300), 1 / 300))

    def test_identity_equality_and_hashing(self, rng):
        a, b = dyadic(rng, (2, 2, 2), 2), dyadic(rng, (2, 2, 2), 2)
        twin = ProbabilityMap(dense(a), source_tag=a.source_tag)
        assert a == a and a != twin and a != b
        maps = weakref.WeakSet([a, b, twin])
        assert len(maps) == 3 and a in maps
        del b
        gc.collect()
        assert len(maps) == 2
        volume = make_volume(np.zeros((2, 2, 2)))
        mask = LabelMask(np.zeros((2, 2, 2), dtype=np.uint8), 2)
        assert len({volume, mask, volume, mask}) == 2


def dyadic(rng, dims, num_classes):
    counts = rng.multinomial(16, [1.0 / num_classes] * num_classes, size=dims)
    return ProbabilityMap(counts / 16.0)


class TestLabelMask:
    def test_valid(self):
        m = LabelMask(np.zeros((2, 2, 2), dtype=np.int32), 2)
        assert m.dims == (2, 2, 2)

    def test_holds_a_read_only_uint8_array_without_a_copy(self):
        # Any other array is copied, so a later write does not reach the mask.
        labels = np.zeros((4, 3, 2), dtype=np.uint8)
        labels[::2] = 1
        frozen = labels.copy()
        frozen.setflags(write=False)
        fortran = np.asfortranarray(frozen)
        fortran.setflags(write=False)
        for given, copied in ((frozen, False), (labels, True), (fortran, True),
                              (labels.astype(np.int64), True)):
            m = LabelMask(given, 2)
            assert (m.labels is not given) == copied
            assert m.labels.dtype == np.uint8 and m.labels.flags.c_contiguous
            assert not m.labels.flags.writeable
            assert m.labels.tobytes() == frozen.tobytes()
        m = LabelMask(labels, 2)
        labels[:] = 0
        assert m.labels.any()

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InvalidLabels,
                           match=r"labels range \[5, 5\] outside \[0, 3\)"):
            LabelMask(np.full((2, 2, 2), 5, dtype=np.int32), 3)

    def test_rejects_float_labels(self):
        with pytest.raises(InvalidLabels,
                           match="labels must be integers, got dtype float64"):
            LabelMask(np.zeros((2, 2, 2)), 2)


class TestHoldingRule:
    """A type holds the array it is handed only when that array is
    read-only, owns its memory, is C-ordered and has the type's dtype;
    anything else is copied, so no later write reaches the held values."""

    # name: (an array the type holds as is once frozen, another dtype, hold)
    HOLDERS = {
        "volume": (lambda: np.zeros((4, 3, 2)), np.float32,
                   lambda a: Volume(a, Spacing(1, 1, 1)).data),
        "mask": (lambda: np.ones((4, 3, 2), np.uint8), np.int64,
                 lambda a: LabelMask(a, 2).labels),
        "map": (lambda: np.full((4, 3, 2, 2), 0.5), ">f8",
                lambda a: ProbabilityMap(a)._values),
    }

    def test_volume_holds_no_view_of_a_writable_array(self):
        big = np.zeros((8, 8, 8))
        v = Volume(big[:4], Spacing(1, 1, 1))
        big[0, 0, 0] = 5
        assert v.data[0, 0, 0] == 0.0

    def test_mask_holds_no_read_only_view_of_writable_memory(self):
        base = np.zeros((4, 4, 4), np.uint8)
        view = base[:]
        view.setflags(write=False)
        m = LabelMask(view, 2)
        base[0, 0, 0] = 1
        assert m.labels[0, 0, 0] == 0

    def test_map_holds_no_read_only_view_of_writable_memory(self):
        base = np.full((4, 4, 2, 2), 0.5)
        view = base[:]
        view.setflags(write=False)
        m = ProbabilityMap(view)
        base[0, 0, 0] = (1.0, 0.0)
        assert dense(m)[0, 0, 0].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_writable_array_is_copied_and_stays_writable(self, holder):
        make, _, hold = self.HOLDERS[holder]
        given = make()
        held = hold(given)
        assert not np.shares_memory(held, given) and given.flags.writeable
        assert held.flags.c_contiguous and not held.flags.writeable
        given[...] = 0
        assert held.tobytes() == make().tobytes()

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_only_a_frozen_owning_c_ordered_array_is_held_as_is(self, holder):
        make, other_dtype, hold = self.HOLDERS[holder]
        frozen = make()
        frozen.setflags(write=False)
        assert hold(frozen) is frozen
        for other in (np.asfortranarray(frozen), frozen[:], frozen[::-1],
                      frozen.astype(other_dtype)):
            other.setflags(write=False)
            held = hold(other)
            assert held is not other and not np.shares_memory(held, other)
            assert held.flags.c_contiguous and not held.flags.writeable


class TestAugmentationSpec:
    def test_blur_requires_positive_sigma(self):
        with pytest.raises(ConfigError, match=r"^blur sigma=0\.0 must be finite and > 0$"):
            AugmentationSpec("gaussian_blur", sigma=0.0)

    def test_noise_allows_zero_sigma(self):
        AugmentationSpec("gaussian_noise", sigma=0.0)
        with pytest.raises(ConfigError, match=r"^noise sigma=-0\.1 must be finite and >= 0$"):
            AugmentationSpec("gaussian_noise", sigma=-0.1)

    def test_gamma_positive(self):
        with pytest.raises(ConfigError, match=r"^gamma=-1\.0 must be finite and > 0$"):
            AugmentationSpec("gamma_correction", gamma=-1.0)

    def test_alpha_positive(self):
        with pytest.raises(ConfigError, match=r"^alpha=0\.0 must be finite and > 0$"):
            AugmentationSpec("contrast_enhancement", alpha=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AugmentationSpec("elastic")

    @pytest.mark.parametrize("spec, match", [
        (dict(kind="gaussian_blur", sigma=1.0, slice_axis=3),
         r"slice_axis=3 not in \(0, 1, 2\) or None"),
        (dict(kind="contrast_enhancement", alpha=1.3, beta=float("inf")),
         "beta=inf must be finite"),
    ], ids=["slice-axis", "beta"])
    def test_parameter_out_of_range(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            AugmentationSpec(**spec)

    @pytest.mark.parametrize("spec, unused", [
        ({"kind": "identity", "sigma": 1.0}, ["sigma"]),
        ({"kind": "gaussian_blur", "sigma": 1.0, "gamma": 0.8}, ["gamma"]),
        ({"kind": "gaussian_noise", "sigma": 0.1, "alpha": 1.2, "beta": 0.0},
         ["alpha", "beta"]),
        ({"kind": "gamma_correction", "gamma": 0.8, "sigma": 3}, ["sigma"]),
        ({"kind": "contrast_enhancement", "alpha": 1.3, "gamma": 2.0}, ["gamma"]),
        ({"kind": "gamma_correction", "gamma": 0.8, "slice_axis": None}, ["slice_axis"]),
        ({"kind": "identity", "slice_axis": 0}, ["slice_axis"]),
    ])
    def test_parameter_the_kind_does_not_use_is_rejected(self, spec, unused):
        with pytest.raises(ConfigError, match=re.escape(str(unused))):
            AugmentationSpec.from_dict(spec)

    @pytest.mark.parametrize("spec, label, d", [
        (AugmentationSpec("identity"), "identity", {"kind": "identity"}),
        (AugmentationSpec("gaussian_blur", sigma=1.0),
         "gaussian_blur(sigma=1.0,axis=2)",
         {"kind": "gaussian_blur", "sigma": 1.0, "slice_axis": 2}),
        (AugmentationSpec("gaussian_blur", sigma=1.5, slice_axis=None),
         "gaussian_blur(sigma=1.5,axis=None)",
         {"kind": "gaussian_blur", "sigma": 1.5, "slice_axis": None}),
        (AugmentationSpec("gaussian_noise", sigma=0.05),
         "gaussian_noise(sigma=0.05)", {"kind": "gaussian_noise", "sigma": 0.05}),
        (AugmentationSpec("gamma_correction", gamma=0.8),
         "gamma_correction(gamma=0.8)", {"kind": "gamma_correction", "gamma": 0.8}),
        (AugmentationSpec("contrast_enhancement", alpha=1.3),
         "contrast_enhancement(alpha=1.3,beta=0.0)",
         {"kind": "contrast_enhancement", "alpha": 1.3, "beta": 0.0}),
    ], ids=["identity", "blur", "blur-3d", "noise", "gamma", "contrast"])
    def test_label_and_dict_of_every_kind(self, spec, label, d):
        # Labels key the random streams and name the w/o rows.
        assert spec.label() == label
        assert spec.to_dict() == d

    def test_label_roundtrip_dict(self):
        spec = AugmentationSpec("gaussian_blur", sigma=1.5, slice_axis=None)
        again = AugmentationSpec.from_dict(spec.to_dict())
        assert again == spec
        assert "sigma=1.5" in spec.label()
