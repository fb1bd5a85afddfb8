"""Parity suite for the convolution kernels.

``functional.im2col`` / ``col2im`` and the conv layers' weight-gradient GEMM
are held **bit for bit** — float64 and float32 — to the few-line references
in ``oracles.py``: the clipped-tap scatter never reassociates an IEEE
operation, it only skips buffer traffic, and the single-image GEMM collapse
is the same BLAS call without the reduction pass.  Pinned across seeded
random geometries (stride/padding/dilation/odd shapes), both dtypes,
batch 1 / n, whole layer steps, and a numerical gradcheck.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import (
    col2im_oracle,
    conv2d_step_oracle,
    conv_transpose2d_step_oracle,
    grad_weight_oracle,
    im2col_oracle,
)

from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    max_relative_error,
)
from repro.nn.functional import _col2im_flat_index, col2im, conv_output_size, im2col
from repro.nn.layers.conv import grad_weight_gemm


def random_geometries(seed: int, count: int):
    """Seeded random (n, c, h, w, kh, kw, stride, padding, dilation) tuples."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        kh, kw = (int(v) for v in rng.integers(1, 6, 2))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 4))
        dilation = int(rng.integers(1, 3))
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        try:
            conv_output_size(h, kh, stride, padding, dilation)
            conv_output_size(w, kw, stride, padding, dilation)
        except ValueError:
            continue  # geometry produces an empty output; not a valid conv
        produced += 1
        yield n, c, h, w, kh, kw, stride, padding, dilation


class TestFusedCol2im:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_reference_across_geometries(self, dtype):
        rng = np.random.default_rng(7)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(11, 40):
            out_h = conv_output_size(h, kh, stride, padding, dilation)
            out_w = conv_output_size(w, kw, stride, padding, dilation)
            cols = rng.standard_normal((n, c * kh * kw, out_h * out_w)).astype(dtype)
            fused = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            reference = col2im_oracle(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            assert fused.dtype == reference.dtype == dtype
            # Bit-identity, not allclose: clipping the taps must not change
            # a single IEEE operation.
            assert np.array_equal(fused, reference, equal_nan=True), (
                n, c, h, w, kh, kw, stride, padding, dilation, dtype,
            )

    def test_float64_matches_pre_pr5_bincount_path(self):
        # The pre-PR-5 engine: one float64 bincount over the flattened
        # scatter index of the padded image, then the unpad slice.
        rng = np.random.default_rng(13)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(17, 15):
            out_h = conv_output_size(h, kh, stride, padding, dilation)
            out_w = conv_output_size(w, kw, stride, padding, dilation)
            cols = rng.standard_normal((n, c * kh * kw, out_h * out_w))
            fused = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            hp, wp = h + 2 * padding, w + 2 * padding
            index = _col2im_flat_index(c, kh, kw, out_h, out_w, stride, dilation, hp, wp)
            index = (np.arange(n)[:, None, None] * (c * hp * wp) + index).ravel()
            flat = np.bincount(index, weights=cols.ravel(), minlength=n * c * hp * wp)
            historical = flat.reshape(n, c, hp, wp)[:, :, padding : padding + h, padding : padding + w]
            assert np.array_equal(fused, historical)

    def test_zero_padding_geometry(self):
        # padding=0 means no tap is ever clipped; the scatter must still
        # agree exactly.
        rng = np.random.default_rng(5)
        n, c, h, w, kh, kw = 2, 2, 8, 8, 3, 3
        out_h = conv_output_size(h, kh, 1, 0, 1)
        cols = rng.standard_normal((n, c * kh * kw, out_h * out_h))
        fused = col2im(cols, (n, c, h, w), kh, kw, 1, 0, 1)
        assert np.array_equal(fused, col2im_oracle(cols, (n, c, h, w), kh, kw, 1, 0, 1))


class TestIm2colGather:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_with_and_without_buffers_match_the_oracle(self, dtype):
        rng = np.random.default_rng(59)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(61, 40):
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
            reference = im2col_oracle(x, kh, kw, stride, padding, dilation)
            allocated = im2col(x, kh, kw, stride, padding, dilation)
            out = np.full_like(reference, np.nan)
            padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
            staged = im2col(x, kh, kw, stride, padding, dilation, out=out, padded_out=padded)
            assert staged is out and allocated.dtype == dtype
            assert np.array_equal(allocated, reference)
            assert np.array_equal(staged, reference)

    @pytest.mark.parametrize("view", ["reversed", "transposed"])
    def test_non_contiguous_input_into_a_buffer(self, view):
        base = np.random.default_rng(67).standard_normal((2, 3, 7, 7))
        x = base[:, :, ::-1] if view == "reversed" else base.transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        reference = im2col_oracle(x, 3, 2, stride=2)
        out = np.full_like(reference, np.nan)
        assert im2col(x, 3, 2, stride=2, padding=0, out=out) is out
        assert np.array_equal(out, reference)


class TestGradWeightGemm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_image_collapse_is_bit_identical(self, dtype):
        rng = np.random.default_rng(23)
        for out_channels, ck, length in ((4, 18, 25), (1, 1, 1), (7, 150, 196)):
            grad_flat = rng.standard_normal((1, out_channels, length)).astype(dtype)
            cols = rng.standard_normal((1, ck, length)).astype(dtype)
            stage = np.empty((1, out_channels, ck), dtype=dtype)
            collapsed = grad_weight_gemm(grad_flat, cols, stage)
            assert collapsed.shape == (out_channels, ck) and collapsed.dtype == dtype
            assert np.array_equal(collapsed, grad_weight_oracle(grad_flat, cols))

    def test_staged_variant_matches_unstaged(self):
        # Whatever the stage buffer held before, the result is that of the
        # allocating expression.
        rng = np.random.default_rng(29)
        for n in (1, 3):
            grad_flat = rng.standard_normal((n, 4, 10))
            cols = rng.standard_normal((n, 6, 10))
            stage = np.full((n, 4, 6), np.nan)
            staged = grad_weight_gemm(grad_flat, cols, stage)
            assert np.array_equal(staged, grad_weight_oracle(grad_flat, cols))

    def test_multi_image_batches_keep_reference_form(self):
        # Batches larger than one must not be collapsed (that would
        # reassociate the per-image partial sums).
        rng = np.random.default_rng(31)
        grad_flat = rng.standard_normal((4, 5, 12))
        cols = rng.standard_normal((4, 9, 12))
        staged = grad_weight_gemm(grad_flat, cols, np.empty((4, 5, 9)))
        assert np.array_equal(staged, grad_weight_oracle(grad_flat, cols))


def assert_step_matches(layer, x, grad, oracle):
    """Two steps: the second runs on warm buffers holding the first's values."""
    expected = oracle(layer, x, grad)
    for _ in range(2):
        layer.zero_grad()
        out = layer(x)
        grad_in = layer.backward(grad)
        for got, want in zip((out, grad_in, layer.weight.grad, layer.bias.grad), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestLayerParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_conv2d_full_step_bit_identity(self, dtype_name, batch):
        layer = Conv2d(3, 5, 3, stride=1, padding=2, dilation=2, rng=np.random.default_rng(41))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(43).standard_normal((batch, 3, 11, 11))
        grad = np.random.default_rng(44).standard_normal(layer(x).shape)
        assert_step_matches(layer, x, grad, conv2d_step_oracle)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_transpose2d_full_step_bit_identity(self, batch):
        layer = ConvTranspose2d(4, 2, 4, stride=2, padding=1, rng=np.random.default_rng(47))
        x = np.random.default_rng(48).standard_normal((batch, 4, 6, 6))
        grad = np.random.default_rng(49).standard_normal(layer(x).shape)
        assert_step_matches(layer, x, grad, conv_transpose2d_step_oracle)

    def test_gradcheck_through_fused_path(self):
        # The backward must agree with numerical differentiation, not just
        # with the reference implementation.  batch=1 also drives the
        # grad_weight GEMM collapse through the numerical check.
        layer = Conv2d(2, 3, 3, stride=2, padding=1, rng=np.random.default_rng(53))
        x = np.random.default_rng(54).standard_normal((1, 2, 7, 7))
        analytic, numeric = check_layer_input_gradient(layer, x)
        assert max_relative_error(analytic, numeric) < 1e-6
        for name, (analytic, numeric) in check_layer_parameter_gradients(layer, x).items():
            assert max_relative_error(analytic, numeric) < 1e-6, name
