import numpy as np
import pytest
import scipy.ndimage

from segtta import (
    AugmentationSpec,
    SeededRng,
    Spacing,
    Volume,
    apply,
    contrast_enhancement,
    gamma_correction,
    gaussian_blur,
    gaussian_noise,
)
from segtta.core import MAX_BLUR_RADIUS
from segtta.errors import InvalidAlpha, InvalidGamma, InvalidSigma

from conftest import gaussian_weights


def vol(values, spacing=(1, 1, 1), vol_id="t"):
    return Volume(np.asarray(values, dtype=float), Spacing(*spacing), vol_id=vol_id)


def dense_blur_oracle(data, sigma, slice_axis):
    """Dense-kernel correlation with edge replication, via scipy."""
    k = gaussian_weights(sigma)
    if slice_axis is None:
        kernel = np.einsum("i,j,k->ijk", k, k, k)
        return scipy.ndimage.correlate(data, kernel, mode="nearest")
    kernel2d = np.outer(k, k)
    out = np.empty_like(data)
    for idx in range(data.shape[slice_axis]):
        sl = [slice(None)] * 3
        sl[slice_axis] = idx
        out[tuple(sl)] = scipy.ndimage.correlate(
            data[tuple(sl)], kernel2d, mode="nearest"
        )
    return out


def impulse_response(sigma, n=41):
    """The blur's 1D kernel as it acts: one unit voxel mid-way along an
    n-voxel first axis, blurred per z slice."""
    data = np.zeros((n, 1, 1))
    data[n // 2] = 1.0
    return gaussian_blur(vol(data), sigma, slice_axis=2).data[:, 0, 0]


class TestKernel:
    def test_radius_is_ceil_3_sigma(self):
        assert np.count_nonzero(impulse_response(1.0)) == 2 * 3 + 1
        assert np.count_nonzero(impulse_response(1.1)) == 2 * 4 + 1

    def test_weights_normalized_and_symmetric(self):
        k = impulse_response(1.7)
        assert abs(k.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(k, k[::-1])

    def test_invalid_sigma(self):
        with pytest.raises(InvalidSigma):
            gaussian_blur(vol(np.zeros((2, 2, 2))), -1.0)

    @pytest.mark.parametrize("sigma", [MAX_BLUR_RADIUS / 3 + 1e-9, 1e9, 1e308])
    def test_sigma_too_large_for_a_kernel(self, sigma):
        widest = impulse_response(MAX_BLUR_RADIUS / 3, n=2 * MAX_BLUR_RADIUS + 3)
        assert np.count_nonzero(widest) == 2 * MAX_BLUR_RADIUS + 1
        with pytest.raises(InvalidSigma, match=f"above {MAX_BLUR_RADIUS} voxels"):
            gaussian_blur(vol(np.zeros((2, 2, 2))), sigma)


class TestBlur:
    def test_constant_volume_unchanged(self, rng):
        v = vol(np.full((6, 5, 4), 3.3))
        out = gaussian_blur(v, 2.0)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_impulse_matches_analytic_kernel(self):
        data = np.zeros((9, 9, 1))
        data[4, 4, 0] = 1.0
        blurred = gaussian_blur(vol(data), 1.0, slice_axis=2)
        k = gaussian_weights(1.0)
        expected = np.zeros((9, 9))
        expected[1:8, 1:8] = np.outer(k, k)
        assert np.abs(blurred.data[:, :, 0] - expected).max() < 1e-9

    @pytest.mark.parametrize("slice_axis", [2, 0, None])
    def test_matches_dense_oracle(self, rng, slice_axis):
        data = rng.random((16, 16, 16))
        out = gaussian_blur(vol(data), 1.3, slice_axis=slice_axis).data
        ref = dense_blur_oracle(data, 1.3, slice_axis)
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() < 1e-6

    def test_slices_stay_independent_in_2d_mode(self):
        data = np.zeros((7, 7, 5))
        data[:, :, 2] = 1.0
        out = gaussian_blur(vol(data), 1.0, slice_axis=2).data
        np.testing.assert_array_equal(out[:, :, [0, 1, 3, 4]], 0.0)
        np.testing.assert_allclose(out[:, :, 2], 1.0, atol=1e-12)

    def test_total_variation_decreases_with_sigma(self, rng):
        data = rng.random((12, 12, 12))

        def tv(a):
            return sum(
                np.abs(np.diff(a, axis=axis)).sum() for axis in range(3)
            )

        sigmas = [0.6, 1.0, 1.6, 2.5]
        values = [tv(gaussian_blur(vol(data), s, slice_axis=None).data)
                  for s in sigmas]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9

    def test_range_stays_within_input(self, rng):
        data = rng.random((10, 10, 10))
        out = gaussian_blur(vol(data), 2.0).data
        assert out.min() >= data.min()
        assert out.max() <= data.max()

    def test_invalid_sigma(self):
        with pytest.raises(InvalidSigma):
            gaussian_blur(vol(np.zeros((2, 2, 2))), 0.0)

    def test_preserves_dims_and_spacing(self, rng):
        v = vol(rng.random((5, 6, 7)), spacing=(0.5, 1.0, 2.0))
        out = gaussian_blur(v, 1.0)
        assert out.dims == v.dims
        assert out.spacing == v.spacing


class TestNoise:
    def test_zero_sigma_is_bit_identical(self, rng):
        v = vol(rng.random((4, 4, 4)))
        out = gaussian_noise(v, 0.0, SeededRng(2024, "t"))
        np.testing.assert_array_equal(out.data, v.data)

    def test_deterministic_per_stream(self, rng):
        v = vol(rng.random((8, 8, 8)))
        a = gaussian_noise(v, 0.05, SeededRng(2024, "t", "noise"))
        b = gaussian_noise(v, 0.05, SeededRng(2024, "t", "noise"))
        np.testing.assert_array_equal(a.data, b.data)
        c = gaussian_noise(v, 0.05, SeededRng(2024, "t", "other"))
        assert not np.array_equal(a.data, c.data)

    def test_sample_mean_within_standard_error(self):
        # Constant 0.5 keeps the noise far from the clip boundaries.
        v = vol(np.full((64, 64, 64), 0.5))
        out = gaussian_noise(v, 0.05, SeededRng(2024, "mean-check"))
        n = 64**3
        bound = 4 * 0.05 / np.sqrt(n)
        assert abs((out.data - 0.5).mean()) < bound

    def test_clips_to_unit_interval(self, rng):
        v = vol(rng.random((8, 8, 8)))
        out = gaussian_noise(v, 0.5, SeededRng(2024, "clip"))
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    def test_invalid_sigma(self):
        with pytest.raises(InvalidSigma):
            gaussian_noise(vol(np.zeros((2, 2, 2))), -0.1, SeededRng(1))


class TestGamma:
    def test_identity_exponent_bit_identical(self, rng):
        v = vol(rng.random((4, 4, 4)))
        assert gamma_correction(v, 1.0).data is v.data

    def test_max_intensity_fixed_point(self, rng):
        data = rng.random((4, 4, 4))
        data[0, 0, 0] = data.max() + 1.0
        v = vol(data)
        for gamma in (0.4, 2.5):
            out = gamma_correction(v, gamma)
            assert out.data[0, 0, 0] == pytest.approx(data[0, 0, 0], rel=1e-12)

    def test_half_max_squared(self):
        v = vol([[[0.0, 0.5, 1.0]]])
        out = gamma_correction(v, 2.0)
        np.testing.assert_allclose(out.data, [[[0.0, 0.25, 1.0]]], atol=1e-15)

    def test_monotone_preserves_order(self, rng):
        data = rng.random((6, 6, 6))
        v = vol(data)
        out = gamma_correction(v, 0.7).data
        order_in = np.argsort(data, axis=None, kind="stable")
        order_out = np.argsort(out, axis=None, kind="stable")
        np.testing.assert_array_equal(order_in, order_out)

    def test_zero_volume_unchanged(self):
        v = vol(np.zeros((3, 3, 3)))
        assert gamma_correction(v, 0.5).data is v.data

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            gamma_correction(vol([[[-1.0, 1.0]]]), 2.0)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            gamma_correction(vol(np.zeros((2, 2, 2))), 0.0)


class TestContrast:
    def test_identity_bit_identical(self, rng):
        v = vol(rng.random((4, 4, 4)))
        assert contrast_enhancement(v, 1.0, 0.0).data is v.data

    def test_scale_then_clip(self):
        out = contrast_enhancement(vol([[[0.1, 0.6, 1.0]]]), 2.0, 0.0)
        np.testing.assert_allclose(out.data, [[[0.2, 1.0, 1.0]]], atol=1e-15)

    def test_shift_clips_at_zero(self):
        out = contrast_enhancement(vol([[[0.2, 0.8]]]), 1.0, -0.5)
        np.testing.assert_allclose(out.data, [[[0.0, 0.3]]], atol=1e-15)

    def test_exact_linearity_without_clipping(self, rng):
        data = 0.5 * rng.random((5, 5, 5))
        data[0, 0, 0] = 1.0  # pins I_max so alpha*data stays in range
        v = vol(data)
        out = contrast_enhancement(v, 1.5, 0.0)
        expected = np.clip(1.5 * data, 0.0, 1.0)
        np.testing.assert_array_equal(out.data, expected)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            contrast_enhancement(vol(np.zeros((2, 2, 2))), -2.0)


class TestApply:
    def test_identity_spec(self, rng):
        v = vol(rng.random((3, 3, 3)))
        assert apply(AugmentationSpec("identity"), v, SeededRng(1)) is v

    def test_gamma_one_spec(self, rng):
        v = vol(rng.random((3, 3, 3)))
        out = apply(AugmentationSpec("gamma_correction", gamma=1.0), v, SeededRng(1))
        assert out.data is v.data

    def test_noise_spec_deterministic(self, rng):
        v = vol(rng.random((5, 5, 5)))
        spec = AugmentationSpec("gaussian_noise", sigma=0.05)
        stream = SeededRng(2024, "case", spec.label())
        a = apply(spec, v, stream)
        b = apply(spec, v, stream)
        np.testing.assert_array_equal(a.data, b.data)

    def test_all_kinds_preserve_dims_and_spacing(self, rng):
        v = vol(rng.random((4, 5, 6)), spacing=(0.7, 1.1, 2.0))
        specs = [
            AugmentationSpec("gaussian_blur", sigma=1.0),
            AugmentationSpec("gaussian_noise", sigma=0.02),
            AugmentationSpec("gamma_correction", gamma=0.8),
            AugmentationSpec("contrast_enhancement", alpha=1.3),
        ]
        for spec in specs:
            out = apply(spec, v, SeededRng(2024, "case", spec.label()))
            assert out.dims == v.dims
            assert out.spacing == v.spacing
