import gzip
import io
import struct
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from segtta import (
    LabelMask,
    ProbabilityMap,
    Spacing,
    Volume,
    nifti,
    read_header,
    read_label_mask,
    read_probability_map,
    read_volume,
    write_label_mask,
    write_probability_map,
    write_volume,
)
from segtta.errors import (
    CorruptHeader,
    DimensionMismatch,
    InvalidLabels,
    IoFailure,
    NotProbabilistic,
    SegTTAError,
    UnsupportedDatatype,
)

from segtta.core import SLAB_VOXELS

from conftest import dense


def build_nifti_bytes(
    dims,
    data,
    datatype=16,
    bitpix=32,
    pixdim=(1.0, 1.0, 1.0),
    vox_offset=352,
    scl_slope=1.0,
    scl_inter=0.0,
    magic=b"n+1\x00",
    endian="<",
):
    """Build a NIfTI-1 file byte by byte from the public header layout,
    independent of the library's writer."""
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, 348)  # sizeof_hdr
    dim = [len(dims), *dims] + [1] * (7 - len(dims))
    struct.pack_into(endian + "8h", header, 40, *dim)
    struct.pack_into(endian + "h", header, 70, datatype)
    struct.pack_into(endian + "h", header, 72, bitpix)
    pix = [1.0, *pixdim] + [0.0] * (7 - len(pixdim))
    struct.pack_into(endian + "8f", header, 76, *pix)
    struct.pack_into(endian + "f", header, 108, float(vox_offset))
    struct.pack_into(endian + "f", header, 112, scl_slope)
    struct.pack_into(endian + "f", header, 116, scl_inter)
    header[344:348] = magic
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(header) + pad + data


def make_volume(rng, dims=(4, 5, 6), spacing=(1.0, 1.0, 1.0)):
    return Volume(rng.random(dims), Spacing(*spacing), vol_id="t")


class TestReadHandBuiltFiles:
    def test_reads_byte_by_byte_file(self, tmp_path):
        voxels = np.arange(64, dtype="<f4")
        raw = build_nifti_bytes((4, 4, 4), voxels.tobytes())
        path = tmp_path / "hand.nii"
        path.write_bytes(raw)
        v = read_volume(path)
        assert v.dims == (4, 4, 4)
        assert v.spacing == Spacing(1.0, 1.0, 1.0)
        # File order is x fastest: the first four values run along x.
        np.testing.assert_array_equal(v.data[:, 0, 0], [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(v.data[0, :, 0], [0.0, 4.0, 8.0, 12.0])

    def test_two_file_magic_rejected(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes(),
                                magic=b"ni1\x00")
        path = tmp_path / "pair.nii"
        path.write_bytes(raw)
        with pytest.raises(CorruptHeader, match="magic"):
            read_volume(path)

    def test_scl_slope_and_inter_applied(self, tmp_path):
        raw = build_nifti_bytes((1, 1, 1), np.array([3.0], "<f4").tobytes(),
                                scl_slope=2.0, scl_inter=1.0)
        path = tmp_path / "scaled.nii"
        path.write_bytes(raw)
        assert read_volume(path).data[0, 0, 0] == 7.0

    @pytest.mark.parametrize("slope, want", [(2.0, [0, 2]), (1.0, [0, 1])],
                             ids=["slope-2", "unscaled"])
    def test_label_mask_is_scaled(self, tmp_path, slope, want):
        # Stored {0, 1} with scl_slope=2 are the labels {0, 2}.
        raw = build_nifti_bytes((2, 1, 1), bytes([0, 1]), datatype=2, bitpix=8,
                                scl_slope=slope)
        path = tmp_path / "scaled.nii"
        path.write_bytes(raw)
        assert read_label_mask(path, 3).labels.ravel().tolist() == want

    def test_label_mask_scaled_off_the_integers_is_invalid(self, tmp_path):
        raw = build_nifti_bytes((2, 1, 1), bytes([0, 1]), datatype=2, bitpix=8,
                                scl_slope=0.5)
        path = tmp_path / "half.nii"
        path.write_bytes(raw)
        with pytest.raises(InvalidLabels, match="half.nii: mask voxels are not integral"):
            read_label_mask(path, 2)

    def test_probability_map_is_scaled_in_float64(self, tmp_path):
        # scl_slope=0.1 is not exact in float32, so float32 arithmetic would
        # round each product differently from the float64 the map is held in.
        stored = np.zeros((2, 2, 1, 2), dtype="<f4")
        stored[..., 0], stored[..., 1] = 3.0, 7.0
        stored[0, 0, 0] = 5.0, 5.0
        raw = build_nifti_bytes((2, 2, 1, 2), stored.tobytes(order="F"), scl_slope=0.1)
        path = tmp_path / "scaled.nii"
        path.write_bytes(raw)
        want = ProbabilityMap(stored.astype(np.float64) * float(np.float32(0.1)))
        assert dense(read_probability_map(path)).tobytes() == dense(want).tobytes()
        wrong = ProbabilityMap(stored * np.float32(0.1))
        assert dense(want).tobytes() != dense(wrong).tobytes()

    def test_big_endian_equals_little_twin(self, tmp_path, rng):
        values = rng.random(24).astype("f4")
        little = build_nifti_bytes((2, 3, 4), values.astype("<f4").tobytes(),
                                   endian="<")
        big = build_nifti_bytes((2, 3, 4), values.astype(">f4").tobytes(),
                                endian=">")
        (tmp_path / "le.nii").write_bytes(little)
        (tmp_path / "be.nii").write_bytes(big)
        le = read_volume(tmp_path / "le.nii")
        be = read_volume(tmp_path / "be.nii")
        np.testing.assert_array_equal(le.data, be.data)
        assert read_header(tmp_path / "be.nii").byteorder == ">"

    def test_gzip_and_plain_identical(self, tmp_path, rng):
        values = rng.random(24).astype("<f4")
        raw = build_nifti_bytes((2, 3, 4), values.tobytes())
        (tmp_path / "v.nii").write_bytes(raw)
        with gzip.open(tmp_path / "v.nii.gz", "wb") as f:
            f.write(raw)
        a = read_volume(tmp_path / "v.nii")
        b = read_volume(tmp_path / "v.nii.gz")
        np.testing.assert_array_equal(a.data, b.data)
        assert a.spacing == b.spacing


class TestHeaderValidation:
    def test_dim0_out_of_range_both_orders(self, tmp_path):
        raw = bytearray(build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes()))
        struct.pack_into("<h", raw, 40, 9)
        (tmp_path / "bad.nii").write_bytes(raw)
        with pytest.raises(CorruptHeader, match=r"dim\[0\]"):
            read_volume(tmp_path / "bad.nii")

    def test_unsupported_datatype_named(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes(),
                                datatype=8, bitpix=32)  # int32 unsupported
        (tmp_path / "dt.nii").write_bytes(raw)
        with pytest.raises(UnsupportedDatatype, match="datatype=8"):
            read_volume(tmp_path / "dt.nii")

    def test_bitpix_mismatch(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes(),
                                datatype=16, bitpix=64)
        (tmp_path / "bp.nii").write_bytes(raw)
        with pytest.raises(CorruptHeader, match="bitpix"):
            read_volume(tmp_path / "bp.nii")

    def test_vox_offset_too_small(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes(),
                                vox_offset=348)
        (tmp_path / "vo.nii").write_bytes(raw)
        with pytest.raises(CorruptHeader, match="vox_offset"):
            read_volume(tmp_path / "vo.nii")

    def test_nonpositive_pixdim(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes(),
                                pixdim=(1.0, 0.0, 1.0))
        (tmp_path / "pd.nii").write_bytes(raw)
        with pytest.raises(CorruptHeader, match=r"pixdim\[2\]"):
            read_volume(tmp_path / "pd.nii")

    def test_dim0_of_five_rejected(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2, 1, 1), np.zeros(8, "<f4").tobytes())
        (tmp_path / "5d.nii").write_bytes(raw)
        with pytest.raises(CorruptHeader, match=r"dim\[0\]=5 not in \{3, 4\}"):
            read_volume(tmp_path / "5d.nii")

    def test_4d_file_rejected_by_read_volume(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2, 2), np.zeros(16, "<f4").tobytes())
        (tmp_path / "4d.nii").write_bytes(raw)
        with pytest.raises(DimensionMismatch, match=r"dim\[0\]=4"):
            read_volume(tmp_path / "4d.nii")

    @pytest.mark.parametrize("offset, field, value", [
        (108, "vox_offset", float("inf")),
        (108, "vox_offset", 1e30),
        (112, "scl_slope", float("nan")),
        (116, "scl_inter", float("inf")),
    ])
    def test_out_of_range_float_field_named(self, tmp_path, offset, field, value):
        raw = bytearray(build_nifti_bytes((2, 2, 2), np.zeros(8, "<f4").tobytes()))
        struct.pack_into("<f", raw, offset, value)
        (tmp_path / "f.nii").write_bytes(bytes(raw))
        with pytest.raises(CorruptHeader, match=field):
            read_volume(tmp_path / "f.nii")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "short.nii").write_bytes(b"\x00" * 100)
        with pytest.raises(CorruptHeader, match="header"):
            read_volume(tmp_path / "short.nii")

    def test_truncated_data_section(self, tmp_path):
        raw = build_nifti_bytes((4, 4, 4), np.zeros(10, "<f4").tobytes())
        (tmp_path / "trunc.nii").write_bytes(raw)
        with pytest.raises(IoFailure, match="truncated"):
            read_volume(tmp_path / "trunc.nii")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_volume(tmp_path / "nope.nii")

    @pytest.mark.parametrize("read", [read_header, read_volume])
    def test_corrupt_gzip_stream_is_io_failure(self, tmp_path, rng, read):
        path = tmp_path / "broken.nii.gz"
        write_volume(make_volume(rng, dims=(8, 8, 8)), path)
        raw = bytearray(path.read_bytes())
        for i in range(40, 60):  # inside the deflate stream
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IoFailure, match="broken.nii.gz"):
            read(path)


class TestRoundTrips:
    @pytest.mark.parametrize("datatype", [16, 64])
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_float_roundtrip_bit_identical(self, tmp_path, rng, datatype,
                                           suffix, byteorder):
        v = make_volume(rng, spacing=(0.5, 1.0, 2.0))
        if datatype == 16:
            v = v.with_data(v.data.astype(np.float32))
        path = tmp_path / f"v{suffix}"
        write_volume(v, path, datatype=datatype, byteorder=byteorder)
        again = read_volume(path)
        np.testing.assert_array_equal(again.data, v.data)
        assert again.spacing == v.spacing
        path2 = tmp_path / f"v2{suffix}"
        write_volume(again, path2, datatype=datatype, byteorder=byteorder)
        assert _data_bytes(path) == _data_bytes(path2)

    def test_unknown_datatype_not_written(self, tmp_path, rng):
        with pytest.raises(UnsupportedDatatype, match=r"datatype=8 not in \[2, 4, 16, 64\]"):
            write_volume(make_volume(rng), tmp_path / "v.nii", datatype=8)
        assert not (tmp_path / "v.nii").exists()

    def test_uint8_clamp_rule(self, tmp_path):
        v = Volume(np.array([[[255.4, -3.0, 7.5]]]), Spacing(1, 1, 1))
        path = tmp_path / "u8.nii"
        write_volume(v, path, datatype=2)
        out = read_volume(path)
        # 255.4 clamps to 255, -3 to 0; 7.5 rounds half to even -> 8.
        np.testing.assert_array_equal(out.data, [[[255.0, 0.0, 8.0]]])

    def test_round_half_to_even(self, tmp_path):
        v = Volume(np.array([[[0.5, 1.5, 2.5, 3.5]]]), Spacing(1, 1, 1))
        path = tmp_path / "even.nii"
        write_volume(v, path, datatype=4)
        np.testing.assert_array_equal(
            read_volume(path).data, [[[0.0, 2.0, 2.0, 4.0]]]
        )

    def test_pixdim_roundtrip(self, tmp_path, rng):
        v = make_volume(rng, spacing=(0.75, 1.25, 3.5))
        path = tmp_path / "sp.nii"
        write_volume(v, path)
        assert read_volume(path).spacing == v.spacing
        assert read_header(path).spacing == v.spacing

    def test_label_mask_roundtrip(self, tmp_path, rng):
        mask = LabelMask(rng.integers(0, 3, (5, 4, 3)).astype(np.uint8), 3)
        path = tmp_path / "m.nii.gz"
        write_label_mask(mask, Spacing(1, 1, 1), path)
        again = read_label_mask(path, 3)
        np.testing.assert_array_equal(again.labels, mask.labels)

    def test_fractional_mask_is_invalid_labels(self, tmp_path):
        raw = build_nifti_bytes((2, 1, 1), np.array([0.0, 0.5], "<f4").tobytes())
        path = tmp_path / "frac.nii"
        path.write_bytes(raw)
        with pytest.raises(InvalidLabels,
                           match="frac.nii: mask voxels are not integral"):
            read_label_mask(path, 2)

    def test_gzip_writes_are_reproducible(self, tmp_path, rng):
        v = make_volume(rng)
        write_volume(v, tmp_path / "a.nii.gz")
        write_volume(v, tmp_path / "b.nii.gz")
        assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


class TestProbabilityMaps:
    def test_valid_4d_map(self, tmp_path):
        probs = np.zeros((2, 2, 1, 2), dtype="<f4")
        probs[..., 0] = 0.3
        probs[..., 1] = 0.7
        raw = build_nifti_bytes((2, 2, 1, 2), probs.tobytes(order="F"))
        (tmp_path / "p.nii").write_bytes(raw)
        p = read_probability_map(tmp_path / "p.nii")
        assert p.dims == (2, 2, 1)
        assert p.num_classes == 2
        np.testing.assert_allclose(dense(p)[..., 1], 0.7, atol=1e-7)

    def test_map_is_held_in_a_file_made_as_it_is_read(self, tmp_path, monkeypatch, rng):
        # The checked values go to a file under SEGTTA_TMPDIR slab by slab,
        # C-ordered, little-endian and in their own width (float64 once
        # scaled), whatever the byte order or compression of the NIfTI file.
        # Besides the bytes read, reading a .nii holds a few slabs: measured
        # 2.4 float64 slabs, where a whole-map copy took 5.2.
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill))
        dims = (64, 64, 48)
        fg = rng.random(dims).astype(np.float32)
        values = np.stack([1 - fg, fg], axis=-1)
        for name, endian, slope, held in (("p.nii", "<", 1.0, "<f4"),
                                          ("b.nii", ">", 1.0, "<f4"),
                                          ("p.nii.gz", "<", 1.0, "<f4"),
                                          ("s.nii", "<", 0.5, "<f8")):
            stored = (values / np.float32(slope)).astype(f"{endian}f4")  # exact
            raw = build_nifti_bytes((*dims, 2), stored.tobytes(order="F"),
                                    endian=endian, scl_slope=slope)
            path = tmp_path / name
            path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
            read_probability_map(path)  # first-call allocations are not the read's
            tracemalloc.start()
            try:
                m = read_probability_map(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if name == "p.nii":
                assert peak < len(raw) + 3 * SLAB_VOXELS * 2 * 8
            want = values.astype(np.float64)
            (file,) = spill.iterdir()
            assert file.read_bytes() == want.astype(held).tobytes(order="C")
            assert dense(m).tobytes() == dense(ProbabilityMap(want)).tobytes()
            del m
            assert not any(spill.iterdir())

    def test_scaled_map_is_scaled_a_slab_at_a_time(self, tmp_path, monkeypatch, rng):
        # Scaling the whole map before its check peaked at 4.72 MB against
        # 2.81 MB unscaled; scaled a slab at a time as it is checked, a
        # scaled read holds at most one float64 slab more, and its values
        # and map file are those of the whole-map formula.
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill))
        dims = (64, 64, 48)
        fg = rng.random(dims).astype(np.float32)
        values = np.stack([1 - fg, fg], axis=-1)
        peaks = {}
        for slope, inter in ((1.0, 0.0), (0.1, 1e-4)):
            stored = ((values - inter) / slope).astype("<f4")
            raw = build_nifti_bytes((*dims, 2), stored.tobytes(order="F"),
                                    scl_slope=slope, scl_inter=inter)
            path = tmp_path / f"s{slope}.nii"
            path.write_bytes(raw)
            read_probability_map(path)  # first-call allocations are not the read's
            tracemalloc.start()
            try:
                m = read_probability_map(path)
                _, peaks[slope] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            want = stored.astype(np.float64) * float(np.float32(slope)) + float(
                np.float32(inter))
            (file,) = spill.iterdir()
            if slope != 1.0:
                assert file.read_bytes() == want.tobytes(order="C")
            assert dense(m).tobytes() == dense(ProbabilityMap(want)).tobytes()
            del m
        assert peaks[0.1] < peaks[1.0] + SLAB_VOXELS * 2 * 8

    def test_scaled_volume_is_one_float64_array(self, tmp_path):
        # Scaled in place, and C-ordered as Volume holds it, a scaled read
        # holds the bytes read and one float64 volume: measured 2.36 MB,
        # where a product and a sum beside the widened copy took 3.15 MB.
        dims = (64, 64, 48)
        stored = np.arange(64 * 64 * 48, dtype="<f4").reshape(dims) % 1000
        raw = build_nifti_bytes(dims, stored.tobytes(order="F"),
                                scl_slope=0.1, scl_inter=-3.0)
        path = tmp_path / "v.nii"
        path.write_bytes(raw)
        read_volume(path)  # first-call allocations are not the read's
        tracemalloc.start()
        try:
            v = read_volume(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = stored.astype(np.float64) * float(np.float32(0.1)) + float(
            np.float32(-3.0))
        assert v.data.tobytes() == np.ascontiguousarray(want).tobytes()
        assert peak < len(raw) + stored.size * 8 + 2 ** 16

    def test_rejects_non_probabilistic(self, tmp_path):
        probs = np.zeros((2, 2, 1, 2), dtype="<f4")
        probs[..., 0] = 0.3
        probs[..., 1] = 0.6
        raw = build_nifti_bytes((2, 2, 1, 2), probs.tobytes(order="F"))
        (tmp_path / "bad.nii").write_bytes(raw)
        with pytest.raises(NotProbabilistic):
            read_probability_map(tmp_path / "bad.nii")

    def test_one_hot_roundtrip_bit_identical(self, tmp_path, rng):
        labels = rng.integers(0, 3, (4, 4, 2))
        probs = (labels[..., None] == np.arange(3)).astype(np.float64)
        p = ProbabilityMap(probs, source_tag="onehot")
        path_a = tmp_path / "a.nii"
        path_b = tmp_path / "b.nii"
        spacing = Spacing(0.8, 0.8, 2.5)
        write_probability_map(p, path_a, spacing)
        write_probability_map(read_probability_map(path_a), path_b,
                              read_header(path_a).spacing)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_map_is_written_slab_by_slab(self, tmp_path):
        # The file holds the bytes of the whole map converted to float32 in
        # one piece and, for .gz, compressed in one piece; the write holds
        # the float32 values, one float64 slab and one chunk of compressed
        # output. Measured 9.4 bytes per voxel, where building the whole
        # float64 map, its float32 copy and two copies of the file's bytes
        # took 24.
        dims, spacing = (96, 96, 64), Spacing(0.8, 0.8, 2.5)
        table = np.array([[0.9, 0.1], [0.25, 0.75], [0.5, 0.5]])
        labels = (np.indices(dims).sum(axis=0) // 7 % 3).astype(np.uint8)
        labels.setflags(write=False)
        values = np.take(table, labels, axis=0).astype(np.float32)
        for p in (ProbabilityMap.from_rows(table, labels), ProbabilityMap(values)):
            for name in ("p.nii", "p.nii.gz"):
                path = tmp_path / name
                write_probability_map(p, path, spacing)
                tracemalloc.start()
                try:
                    write_probability_map(p, path, spacing)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < values.nbytes + 2 * 2 ** 20
                raw = path.read_bytes()
                if name.endswith(".gz"):
                    raw = gzip.decompress(raw)
                payload = raw[:352] + dense(p).astype("<f4").tobytes(order="F")
                assert raw == payload
                if name.endswith(".gz"):
                    one_piece = io.BytesIO()
                    with gzip.GzipFile(filename="", mode="wb", fileobj=one_piece,
                                       mtime=0) as f:
                        f.write(payload)
                    assert path.read_bytes() == one_piece.getvalue()

    @pytest.mark.parametrize("num_classes", [2, 3, 8, 9])
    @pytest.mark.parametrize("dims", [(6, 5, 4), (1, 1, 1)])
    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_read_equals_the_float64_map_of_the_file_data(
        self, tmp_path, rng, num_classes, dims, endian
    ):
        # Near-tolerance float32 data: per-voxel sums off by up to 4e-4 and
        # values up to 3e-4 outside [0, 1], so clipping and renormalizing act.
        probs = rng.dirichlet(np.ones(num_classes), size=dims)
        probs *= 1.0 + rng.uniform(-4e-4, 4e-4, size=(*dims, 1))
        edge = rng.random(dims) < 0.3
        probs[..., 0][edge] = -3e-4
        probs[..., 1][edge] = 1.0 + 3e-4 - probs[..., 2:][edge].sum(axis=-1)
        arr = np.asfortranarray(probs.astype(np.float32))
        raw = build_nifti_bytes((*dims, num_classes),
                                arr.astype(endian + "f4").tobytes(order="F"),
                                endian=endian)
        (tmp_path / "p.nii").write_bytes(raw)
        got = dense(read_probability_map(tmp_path / "p.nii"))
        want = dense(ProbabilityMap(arr.astype(np.float64)))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_3d_file_rejected(self, tmp_path, rng):
        v = make_volume(rng)
        write_volume(v, tmp_path / "v.nii")
        with pytest.raises(DimensionMismatch):
            read_probability_map(tmp_path / "v.nii")

    def test_non_float32_rejected(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 1, 2), np.zeros(8, "<f8").tobytes(),
                                datatype=64, bitpix=64)
        (tmp_path / "f8.nii").write_bytes(raw)
        with pytest.raises(UnsupportedDatatype):
            read_probability_map(tmp_path / "f8.nii")


def _data_bytes(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as f:
        raw = f.read()
    return raw[352:]


# --- header mutations -----------------------------------------------------------


def _valid_files():
    """Valid float32 volume, label and probability-map files, built byte by
    byte, each with the reader that should accept it."""
    gen = np.random.default_rng(5)
    dims = (3, 4, 2)
    volume = gen.random(dims).astype("<f4")
    labels = gen.integers(0, 3, dims).astype("<f4")
    probs = np.where(labels[..., None] == np.arange(3), 0.5, 0.25).astype("<f4")
    return {
        "volume": (build_nifti_bytes(dims, volume.tobytes(order="F")),
                   read_volume, Volume),
        "label": (build_nifti_bytes(dims, labels.tobytes(order="F")),
                  lambda path: read_label_mask(path, 3), LabelMask),
        "map": (build_nifti_bytes((*dims, 3), probs.tobytes(order="F")),
                read_probability_map, ProbabilityMap),
    }


VALID_FILES = _valid_files()

#: field -> (byte offset, struct format, element count) in the header.
HEADER_FIELDS = {
    "dim": (40, "h", 8),
    "datatype": (70, "h", 1),
    "bitpix": (72, "h", 1),
    "pixdim": (76, "f", 8),
    "vox_offset": (108, "f", 1),
    "scl_slope": (112, "f", 1),
    "scl_inter": (116, "f", 1),
}


def test_header_bytes_outside_the_read_fields_are_zero_and_ignored(tmp_path):
    # The ten fields: HEADER_FIELDS plus sizeof_hdr, regular and magic.
    fields = {**HEADER_FIELDS, "sizeof_hdr": (0, "i", 1), "regular": (38, "c", 1),
              "magic": (344, "4s", 1)}
    assert set(nifti._header_dtype("<").names) == set(fields)
    used = set()
    for offset, fmt, count in fields.values():
        used.update(range(offset, offset + count * struct.calcsize(fmt)))
    labels = LabelMask(np.arange(60, dtype=np.uint8).reshape(5, 4, 3) % 3, 3)
    write_label_mask(labels, Spacing(0.5, 1.0, 2.0), tmp_path / "m.nii")
    raw = bytearray((tmp_path / "m.nii").read_bytes())
    unused = [i for i in range(352) if i not in used]
    assert not any(raw[i] for i in unused)
    for i in unused:
        raw[i] = 0xFF
    (tmp_path / "filled.nii").write_bytes(bytes(raw))
    assert read_header(tmp_path / "filled.nii") == read_header(tmp_path / "m.nii")
    filled = read_label_mask(tmp_path / "filled.nii", 3)
    assert np.array_equal(filled.labels, labels.labels)


@st.composite
def header_mutations(draw):
    """(byte offset, new bytes) that overwrite one header field element."""
    field = draw(st.sampled_from([*HEADER_FIELDS, "magic"]))
    if field == "magic":
        return 344, draw(st.binary(min_size=4, max_size=4))
    offset, fmt, count = HEADER_FIELDS[field]
    index = draw(st.integers(0, count - 1))
    if fmt == "h":
        value = draw(st.one_of(st.integers(-2, 70), st.integers(-2**15, 2**15 - 1)))
    else:
        value = draw(st.one_of(st.integers(-2, 400).map(float), st.floats(width=32)))
    return offset + index * struct.calcsize(fmt), struct.pack("<" + fmt, value)


class TestMutatedHeaders:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(kind=st.sampled_from(sorted(VALID_FILES)), mutation=header_mutations())
    def test_valid_object_or_named_error(self, tmp_path_factory, kind, mutation):
        raw, reader, expected = VALID_FILES[kind]
        offset, value = mutation
        mutated = bytearray(raw)
        mutated[offset : offset + len(value)] = value
        path = tmp_path_factory.getbasetemp() / "mutated.nii"
        path.write_bytes(bytes(mutated))
        try:
            out = reader(path)
        except SegTTAError:
            return
        assert isinstance(out, expected)

    def test_unmutated_files_read(self, tmp_path):
        for kind, (raw, reader, expected) in VALID_FILES.items():
            (tmp_path / f"{kind}.nii").write_bytes(raw)
            assert isinstance(reader(tmp_path / f"{kind}.nii"), expected)

    def test_huge_claimed_size_is_truncated_not_allocated(self, tmp_path):
        raw = bytearray(VALID_FILES["volume"][0])
        struct.pack_into("<3h", raw, 42, 30000, 30000, 30000)
        (tmp_path / "huge.nii").write_bytes(bytes(raw))
        with pytest.raises(IoFailure, match="truncated"):
            read_volume(tmp_path / "huge.nii")
