"""Tests for im2col / col2im and numerically stable activations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import col2im_oracle

from repro.nn import functional as F


class TestConvOutputSize:
    def test_same_padding_preserves_size(self):
        assert F.conv_output_size(32, 9, stride=1, padding=4) == 32

    def test_stride_two_halves_size(self):
        assert F.conv_output_size(32, 4, stride=2, padding=1) == 16

    def test_dilation_expands_kernel(self):
        # Effective kernel = 2*(3-1)+1 = 5.
        assert F.conv_output_size(10, 3, stride=1, padding=0, dilation=2) == 6

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(3, 9, stride=1, padding=0)

    def test_transpose_inverts_stride_two(self):
        out = F.conv_transpose_output_size(16, 4, stride=2, padding=1)
        assert out == 32

    def test_transpose_invalid_raises(self):
        with pytest.raises(ValueError):
            F.conv_transpose_output_size(1, 1, stride=1, padding=3)


class TestIm2Col:
    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = F.im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2, 3 * 9, 25)

    def test_identity_kernel_1x1(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        cols = F.im2col(x, 1, 1)
        np.testing.assert_allclose(cols.reshape(1, 2, 4, 4), x)

    def test_known_patch_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, stride=2)
        # First patch is the top-left 2x2 block.
        np.testing.assert_allclose(cols[0, :, 0], [0, 1, 4, 5])
        # Last patch is the bottom-right 2x2 block.
        np.testing.assert_allclose(cols[0, :, -1], [10, 11, 14, 15])

    def test_dilation_picks_spread_values(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        cols = F.im2col(x, 3, 3, dilation=2)
        # Single output position, samples every other element.
        assert cols.shape == (1, 9, 1)
        np.testing.assert_allclose(cols[0, :, 0], [0, 2, 4, 10, 12, 14, 20, 22, 24])

    def test_col2im_shape_mismatch_raises(self):
        cols = np.zeros((1, 9, 5))  # 4x4 input with a 3x3 kernel yields 4 positions, not 5
        with pytest.raises(ValueError):
            F.col2im(cols, (1, 1, 4, 4), 3, 3, stride=1, padding=0)


class TestCol2ImAdjoint:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,dilation",
        [
            ((2, 3, 8, 8), 3, 1, 1, 1),
            ((1, 2, 9, 7), 3, 2, 1, 1),
            ((2, 1, 10, 10), 3, 1, 2, 2),
            ((1, 4, 6, 6), 5, 1, 2, 1),
        ],
    )
    def test_adjoint_identity(self, shape, kernel, stride, padding, dilation):
        """<im2col(x), c> == <x, col2im(c)> for random x and c (adjointness)."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=shape)
        cols = F.im2col(x, kernel, kernel, stride, padding, dilation)
        c = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * c))
        x_back = F.col2im(c, shape, kernel, kernel, stride, padding, dilation)
        rhs = float(np.sum(x * x_back))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_counts_overlaps(self):
        x = np.ones((1, 1, 4, 4))
        cols = F.im2col(x, 3, 3, stride=1, padding=1)
        back = F.col2im(np.ones_like(cols), x.shape, 3, 3, stride=1, padding=1)
        # Interior pixels are covered by 9 patches, corners by 4.
        assert back[0, 0, 1, 1] == pytest.approx(9.0)
        assert back[0, 0, 0, 0] == pytest.approx(4.0)


class TestGatherIndexCaching:
    """The im2col/col2im index arrays are memoized per geometry key."""

    def test_repeated_calls_hit_the_cache(self):
        F._im2col_indices.cache_clear()
        F._col2im_flat_index.cache_clear()
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        first = F.im2col(x, 3, 3, stride=1, padding=1)
        second = F.im2col(x, 3, 3, stride=1, padding=1)
        np.testing.assert_array_equal(first, second)
        # The flat gather index is built once, from one (k, i, j) triple.
        flat_info = F._col2im_flat_index.cache_info()
        assert flat_info.hits >= 1 and flat_info.misses == 1
        assert F._im2col_indices.cache_info().misses == 1
        # The oracle scatters through the same memoized triple; the
        # clipped-tap engine must reproduce it bit for bit.
        cols = np.random.default_rng(1).normal(size=first.shape)
        reference = col2im_oracle(cols, x.shape, 3, 3, stride=1, padding=1)
        assert F._im2col_indices.cache_info().hits >= 1
        engine = F.col2im(cols, x.shape, 3, 3, stride=1, padding=1)
        np.testing.assert_array_equal(engine, reference)

    def test_cached_indices_are_read_only(self):
        for index in F._im2col_indices(2, 3, 3, 4, 4, 1, 1):
            assert not index.flags.writeable
        assert not F._col2im_flat_index(2, 3, 3, 4, 4, 1, 1, 6, 6).flags.writeable

    def test_distinct_geometries_get_distinct_entries(self):
        small = F._im2col_indices(1, 3, 3, 4, 4, 1, 1)
        large = F._im2col_indices(1, 3, 3, 6, 6, 1, 1)
        assert small[1].shape != large[1].shape


class TestActivations:
    def test_sigmoid_symmetry(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(F.sigmoid(x) + F.sigmoid(-x), np.ones_like(x), atol=1e-12)

    def test_sigmoid_extremes_do_not_overflow(self):
        values = F.sigmoid(np.array([-1e4, 1e4]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-30, 30, 61)
        np.testing.assert_allclose(F.log_sigmoid(x), np.log(F.sigmoid(x) + 1e-300), atol=1e-9)

    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7)) * 50
        probs = F.softmax(x, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_monotone(self, values):
        x = np.sort(np.array(values))
        y = F.sigmoid(x)
        assert np.all(np.diff(y) >= -1e-15)

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_in_unit_interval(self, value):
        y = float(F.sigmoid(np.array([value]))[0])
        assert 0.0 <= y <= 1.0
