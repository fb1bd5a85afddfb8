"""Tests for im2col / col2im and numerically stable activations."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestIm2colKeepsNothing:
    """``im2col`` copies a strided view: no index table outlives a call."""

    def test_forty_geometries_retain_no_memory(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 48, 48))
        F.im2col(x, 3, 3, padding=1)  # imports and one-time setup happen here
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for size in range(8, 48):  # an int64 index table of any of these is > 64 KiB
                first = F.im2col(x[:, :, :size, :size], 5, 5, padding=2)
                second = F.im2col(x[:, :, :size, :size], 5, 5, padding=2)
                np.testing.assert_array_equal(first, second)
            del first, second
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


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
