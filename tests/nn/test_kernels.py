"""Parity suite for the convolution kernels.

``functional.im2col`` / ``col2im`` / ``conv_input_grad`` and the conv
layers' weight-gradient GEMM are held **bit for bit** — float64 and
float32 — to the few-line references in ``oracles.py``: the clipped-tap
scatter never reassociates an IEEE operation, it only skips buffer
traffic; the per-tap input-gradient fold forms the GEMM's very products;
and the layers' one-image-at-a-time column GEMMs are the BLAS calls a
batched matmul makes, their weight-gradient products added in image order
as its ``sum(axis=0)`` adds them.  Pinned across seeded random geometries
(filters/channels/stride/padding/dilation/odd shapes), every conv of the
three models, both dtypes, batch 1 / n, whole layer steps, and a numerical
gradcheck.
"""

from __future__ import annotations

import numpy as np
import pytest
from gradcheck import check_layer_input_gradient, check_layer_parameter_gradients, max_relative_error
from oracles import (
    _im2col_indices,
    col2im_oracle,
    conv2d_step_oracle,
    conv_transpose2d_step_oracle,
    grad_weight_oracle,
    im2col_oracle,
)

from repro.nn import Conv2d, ConvTranspose2d
from repro.models import PROS, FLNet, RouteNet
from repro.nn.functional import (
    _clipped_taps,
    col2im,
    conv_input_grad,
    conv_output_size,
    conv_windows,
    im2col,
)
from repro.nn.layers.conv import _add_product


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
            k, i, j = _im2col_indices((n, c, h, w), kh, kw, stride, padding, dilation)
            index = (k * hp + i) * wp + j
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


def columns_image_by_image(x, kh, kw, stride, padding, dilation):
    """The layers' path: pad once, then copy each image's windows into one reused buffer."""
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = conv_windows(padded, kh, kw, stride, dilation)
    n, c, _, _, out_h, out_w = windows.shape
    buffer = np.full((c * kh * kw, out_h * out_w), np.nan, dtype=x.dtype)
    images = []
    for image in range(n):
        buffer.reshape(windows.shape[1:])[...] = windows[image]
        images.append(buffer.copy())
    return np.stack(images)


class TestIm2colGather:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_with_and_without_buffers_match_the_oracle(self, dtype):
        rng = np.random.default_rng(59)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(61, 40):
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
            reference = im2col_oracle(x, kh, kw, stride, padding, dilation)
            allocated = im2col(x, kh, kw, stride, padding, dilation)
            staged = columns_image_by_image(x, kh, kw, stride, padding, dilation)
            assert allocated.dtype == staged.dtype == dtype and allocated.flags.c_contiguous
            assert np.array_equal(allocated, reference)
            assert np.array_equal(staged, reference)

    @pytest.mark.parametrize("view", ["reversed", "transposed"])
    def test_non_contiguous_input_into_a_buffer(self, view):
        base = np.random.default_rng(67).standard_normal((2, 3, 7, 7))
        x = base[:, :, ::-1] if view == "reversed" else base.transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        reference = im2col_oracle(x, 3, 2, stride=2)
        assert np.array_equal(im2col(x, 3, 2, stride=2), reference)
        assert np.array_equal(columns_image_by_image(x, 3, 2, 2, 0, 1), reference)

    def test_one_by_one_columns_are_a_copy(self):
        # A 1x1 window view is contiguous: the columns must still not alias x.
        x = np.random.default_rng(71).standard_normal((2, 3, 4, 4))
        cols = im2col(x, 1, 1)
        assert not np.shares_memory(cols, x) and cols.flags.writeable


def one_filter_geometries(seed: int, count: int):
    """``random_geometries`` with room for many channels and paddings past k/2."""
    rng = np.random.default_rng(seed)
    for n, _, h, w, kh, kw, stride, padding, dilation in random_geometries(seed + 1, count):
        yield n, int(rng.integers(1, 20)), h, w, kh, kw, stride, padding, dilation


def input_grad_geometries(seed: int, count: int):
    """Seeded ``(filters, n, c, h, w, kh, kw, stride, padding, dilation)``.

    Filters in {1, 2, 3, 64}, channels in {1, 3, 32}, kernels 1-9, stride
    1-2, padding 0-4, dilation 1-2, batch 1-4: the one-filter multiply, the
    per-tap GEMM, and the unit dimensions NumPy hands to gemv.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        filters = int(rng.choice([1, 2, 3, 64]))
        c = int(rng.choice([1, 3, 32]))
        kh, kw = (int(v) for v in rng.integers(1, 10, 2))
        stride, dilation = (int(v) for v in rng.integers(1, 3, 2))
        padding = int(rng.integers(0, 5))
        n = int(rng.integers(1, 5))
        h, w = (int(v) for v in rng.integers(1, 13, 2))
        try:
            conv_output_size(h, kh, stride, padding, dilation)
            conv_output_size(w, kw, stride, padding, dilation)
        except ValueError:
            continue
        produced += 1
        yield filters, n, c, h, w, kh, kw, stride, padding, dilation
    # A single output pixel is rare at random: the GEMM is then a gemv too.
    yield from [
        (64, 2, 32, 3, 3, 3, 3, 1, 0, 1),
        (2, 4, 3, 5, 4, 5, 4, 2, 0, 1),
        (3, 1, 1, 9, 9, 9, 9, 1, 0, 1),
        (64, 3, 3, 1, 1, 1, 1, 1, 0, 1),
        (2, 2, 32, 1, 1, 3, 3, 1, 1, 1),
    ]


def input_grad_operands(rng, filters, n, c, h, w, kh, kw, stride, padding, dilation, dtype):
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    weight = rng.standard_normal((filters, c, kh, kw)).astype(dtype)
    grad = rng.standard_normal((n, filters, out_h, out_w)).astype(dtype)
    # Exact zeros against both signs: products of either zero sign.
    weight[rng.random(weight.shape) < 0.2] = 0.0
    grad[rng.random(grad.shape) < 0.2] = 0.0
    return weight, grad


def gemm_then_scatter(weight, grad, x_shape, stride, padding, dilation):
    """The input gradient as ``W.T @ g`` columns scattered by the oracle."""
    filters, _, kh, kw = weight.shape
    columns = np.matmul(weight.reshape(filters, -1).T, grad.reshape(len(grad), filters, -1))
    return col2im_oracle(columns, x_shape, kh, kw, stride, padding, dilation)


def model_conv_geometries():
    """``(name, layer, input shape)`` of every conv of FLNet, RouteNet and PROS
    at grids 8 and 16, as a forward pass meets them."""
    met = []
    for model_cls in (FLNet, RouteNet, PROS):
        for grid, batch in ((8, 2), (16, 4)):
            model = model_cls(6, seed=0)
            for name, layer in model.named_modules():
                if isinstance(layer, (Conv2d, ConvTranspose2d)):
                    def record(x, layer=layer, name=name, forward=layer.forward):
                        met.append((f"{model_cls.__name__}{grid}.{name}", layer, x.shape))
                        return forward(x)

                    layer.forward = record
            model.forward(np.zeros((batch, 6, grid, grid)))
    return met


class TestConvInputGrad:
    """``conv_input_grad`` is ``col2im`` of the ``W.T @ g`` columns, to the bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_gemm_then_scatter(self, dtype):
        rng = np.random.default_rng(71)
        seen = set()
        for filters, n, c, h, w, *geometry in input_grad_geometries(73, 120):
            kh, kw, stride, padding, dilation = geometry
            weight, grad = input_grad_operands(rng, filters, n, c, h, w, *geometry, dtype)
            reference = gemm_then_scatter(weight, grad, (n, c, h, w), stride, padding, dilation)
            folded = conv_input_grad(weight, grad, (n, c, h, w), stride, padding, dilation)
            assert folded.dtype == dtype and folded.flags.c_contiguous
            assert folded.tobytes() == reference.tobytes(), (filters, n, c, h, w, *geometry, dtype)
            seen |= {("filters", filters), ("channels", c), ("stride", stride)}
            seen |= {("dilation", dilation), ("batch", n), ("pixels", min(grad[0, 0].size, 2))}
        assert seen >= {("filters", k) for k in (1, 2, 3, 64)}
        assert seen >= {("channels", c) for c in (1, 3, 32)}
        assert seen >= {("stride", 2), ("dilation", 2), ("batch", 1), ("batch", 4), ("pixels", 1)}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_model_conv_geometries(self, dtype):
        """Every conv the three models run, transposed convs with their
        in-channels as the filters: the GEMM-layout argument on real shapes."""
        rng = np.random.default_rng(75)
        for name, layer, (n, _, h, w) in model_conv_geometries():
            weight = layer.weight.data.astype(dtype)
            if isinstance(layer, ConvTranspose2d):
                x_shape = (n, layer.out_channels, *layer.output_shape(h, w))
                geometry = (layer.stride, layer.padding, 1)
                grad = rng.standard_normal((n, layer.in_channels, h, w)).astype(dtype)
            else:
                x_shape = (n, layer.in_channels, h, w)
                geometry = (layer.stride, layer.padding, layer.dilation)
                grad = rng.standard_normal((n, layer.out_channels, *layer.output_shape(h, w)))
                grad = grad.astype(dtype)
            reference = gemm_then_scatter(weight, grad, x_shape, *geometry)
            folded = conv_input_grad(weight, grad, x_shape, *geometry)
            assert folded.tobytes() == reference.tobytes(), (name, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_filter_signed_zeros(self, dtype):
        """The one-filter fold also adds the ``±0`` products of every cell a
        tap misses; a sum that starts at ``+0.0`` absorbs them, whatever the
        zeros' signs, so it still equals the GEMM and the ordered scatter."""
        rng = np.random.default_rng(81)
        # (n, c, h, w, kernel, stride, padding, dilation)
        geometries = [
            (2, 5, 6, 7, 3, 1, 1, 1),
            (2, 3, 4, 4, 5, 2, 5, 2),  # padding past half: 9 of 25 taps land nowhere
            (3, 4, 7, 6, 3, 2, 1, 1),
            (2, 8, 8, 8, 9, 1, 4, 1),  # FLNet's output conv
        ]
        landing = []
        for n, c, h, w, kernel, stride, padding, dilation in geometries:
            out_h = conv_output_size(h, kernel, stride, padding, dilation)
            out_w = conv_output_size(w, kernel, stride, padding, dilation)
            taps = _clipped_taps(h, w, out_h, out_w, kernel, kernel, stride, padding, dilation)
            landing.append(len(taps) / kernel**2)
            weight = rng.standard_normal((1, c, kernel, kernel)).astype(dtype)
            weight[rng.random(weight.shape) < 0.25] = -0.0
            weight[rng.random(weight.shape) < 0.1] = 0.0
            weight[0, -1] = -0.0  # every product of this channel is a zero
            grad = rng.standard_normal((n, 1, out_h, out_w)).astype(dtype)
            draw = rng.random(grad.shape)
            grad[draw < 0.2] = -0.0
            grad[draw > 0.8] = 0.0
            grad[0, 0, 0] = -0.0
            grad[0, 0, -1] = 0.0
            grad[-1] = 0.0  # so is every product of this image: -0.0 on that channel
            assert np.signbit(weight[weight == 0]).any() and np.signbit(grad[grad == 0]).any()
            assert not np.signbit(grad[grad == 0]).all()
            reference = gemm_then_scatter(weight, grad, (n, c, h, w), stride, padding, dilation)
            folded = conv_input_grad(weight, grad, (n, c, h, w), stride, padding, dilation)
            assert folded.tobytes() == reference.tobytes(), (n, c, h, w, kernel, stride, padding)
        assert landing[1] == 16 / 25

    @pytest.mark.parametrize("filters", [1, 4])
    def test_scratch_is_overwritten_and_never_returned(self, filters):
        rng = np.random.default_rng(79)
        n, c, h, w = 2, 5, 7, 6
        weight, grad = input_grad_operands(rng, filters, n, c, h, w, 3, 3, 1, 1, 1, np.float64)
        # One filter folds channels-first, with a zero-bordered spread that
        # every call of the geometry rewrites in the same cells.
        scratch_shape = (c, n * h * w) if filters == 1 else (n, h, w, c)
        scratch = {name: np.full(scratch_shape, np.nan) for name in ("product_out", "accumulator_out")}
        if filters == 1:
            scratch["spread_out"] = np.zeros((9, n, h, w))
        expected = conv_input_grad(weight, grad, (n, c, h, w), padding=1)
        for _ in range(2):
            staged = conv_input_grad(weight, grad, (n, c, h, w), padding=1, **scratch)
            assert staged.tobytes() == expected.tobytes()
            assert not any(np.shares_memory(staged, buffer) for buffer in scratch.values())

    @pytest.mark.parametrize("filters", [1, 3])
    def test_single_channel_result_is_still_fresh(self, filters):
        # (n, h, w, 1), (1, n * h * w) and (n, 1, h, w) share a memory
        # layout: the final transpose must still copy out of the accumulator.
        weight = np.full((filters, 1, 1, 1), 2.0)
        grad = np.arange(6.0 * filters).reshape(2, filters, 1, 3)
        accumulator = np.empty((1, 6) if filters == 1 else (2, 1, 3, 1))
        folded = conv_input_grad(weight, grad, (2, 1, 1, 3), accumulator_out=accumulator)
        assert not np.shares_memory(folded, accumulator)
        assert np.array_equal(folded, 2.0 * grad.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("filters", [1, 2])
    @pytest.mark.parametrize(
        "override",
        [
            dict(weight=np.zeros((2, 4, 3, 3))),  # four channels, not three
            dict(grad_output=np.zeros((2, 3, 8, 8))),  # three filters' gradient
            dict(grad_output=np.zeros((2, 1, 8, 7))),
            dict(grad_output=np.zeros((2, 1, 8, 8), dtype=np.float32)),
            dict(product_out=np.zeros((2, 8, 8, 3), dtype=np.float32)),
            dict(accumulator_out=np.zeros((2, 3, 8, 8))),  # NCHW, not channels-last
            dict(spread_out=np.zeros((9, 2, 8, 8), dtype=np.float32)),
            dict(spread_out=np.zeros((9, 2, 8, 16))[..., ::2]),  # not C-contiguous
        ],
        ids=["channels", "filters", "shape", "grad_dtype", "product_dtype", "nchw", "spread", "strided"],
    )
    def test_mismatched_operands_raise(self, override, filters):
        arguments = dict(
            weight=np.zeros((filters, 3, 3, 3)),
            grad_output=np.zeros((2, filters, 8, 8)),
            x_shape=(2, 3, 8, 8),
        )
        for name, value in override.items():
            if name == "grad_output" and value.shape[1] == 1:
                value = np.zeros((2, filters) + value.shape[2:], dtype=value.dtype)
            arguments[name] = value
        with pytest.raises(ValueError):
            conv_input_grad(padding=1, **arguments)


def per_image_grad_weight(grad_flat, cols, total, partial):
    """The layers' weight gradient: one GEMM per image, added in image order."""
    for image in range(len(grad_flat)):
        _add_product(total, partial, image, grad_flat[image], cols[image])
    return total


class TestGradWeightPerImage:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_image_is_one_gemm(self, dtype):
        rng = np.random.default_rng(23)
        for out_channels, ck, length in ((4, 18, 25), (1, 1, 1), (7, 150, 196)):
            grad_flat = rng.standard_normal((1, out_channels, length)).astype(dtype)
            cols = rng.standard_normal((1, ck, length)).astype(dtype)
            total = np.empty((out_channels, ck), dtype=dtype)
            summed = per_image_grad_weight(grad_flat, cols, total, None)
            assert summed.dtype == dtype
            assert np.array_equal(summed, grad_weight_oracle(grad_flat, cols))

    def test_stale_stages_do_not_leak(self):
        # Whatever the stage buffers held before, the result is that of the
        # allocating expression.
        rng = np.random.default_rng(29)
        for n in (1, 3):
            grad_flat = rng.standard_normal((n, 4, 10))
            cols = rng.standard_normal((n, 6, 10))
            total, partial = np.full((4, 6), np.nan), np.full((4, 6), np.nan)
            summed = per_image_grad_weight(grad_flat, cols, total, partial)
            assert np.array_equal(summed, grad_weight_oracle(grad_flat, cols))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_products_add_in_image_order(self, dtype):
        # The whole-batch form's sum(axis=0) adds the stacked products one
        # after another, so the per-image sum keeps its bits at any batch.
        rng = np.random.default_rng(31)
        for out_channels, ck, length in ((5, 9, 12), (1, 5184, 64), (16, 72, 16)):
            for n in range(2, 18):
                grad_flat = rng.standard_normal((n, out_channels, length)).astype(dtype)
                cols = rng.standard_normal((n, ck, length)).astype(dtype)
                stages = [np.empty((out_channels, ck), dtype=dtype) for _ in range(2)]
                summed = per_image_grad_weight(grad_flat, cols, *stages)
                assert np.array_equal(summed, grad_weight_oracle(grad_flat, cols)), (n, ck)


def assert_step_matches(layer, x, grad, oracle):
    """Two steps: the second runs on warm buffers holding the first's values."""
    expected = oracle(layer, x, grad)
    for _ in range(2):
        layer.zero_grad()
        out = layer(x)
        grad_in = layer.backward(grad)
        for got, want in zip((out, grad_in, layer.weight.grad, layer.bias.grad), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestLayerParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_conv2d_full_step_bit_identity(self, dtype_name, batch):
        layer = Conv2d(3, 5, 3, stride=1, padding=2, dilation=2, rng=np.random.default_rng(41))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(43).standard_normal((batch, 3, 11, 11))
        grad = np.random.default_rng(44).standard_normal(layer(x).shape)
        assert_step_matches(layer, x, grad, conv2d_step_oracle)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize(
        "channels,kernel,padding,size",
        [(64, 9, 4, 16), (16, 3, 1, 16)],
        ids=["flnet_output_conv", "routenet_output_conv"],
    )
    def test_one_filter_output_convs_full_step_bit_identity(
        self, dtype_name, channels, kernel, padding, size
    ):
        layer = Conv2d(channels, 1, kernel, padding=padding, rng=np.random.default_rng(83))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(84).standard_normal((4, channels, size, size))
        grad = np.random.default_rng(85).standard_normal((4, 1, size, size))
        assert_step_matches(layer, x, grad, conv2d_step_oracle)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    def test_one_filter_random_geometries_full_step_bit_identity(self, dtype_name):
        seen = set()
        for n, c, h, w, kh, kw, stride, padding, dilation in one_filter_geometries(89, 60):
            layer = Conv2d(
                c, 1, (kh, kw), stride=stride, padding=padding, dilation=dilation,
                rng=np.random.default_rng(97),
            )
            layer.set_compute_dtype(dtype_name)
            x = np.random.default_rng(98).standard_normal((n, c, h, w))
            grad = np.random.default_rng(99).standard_normal((n, 1, *layer.output_shape(h, w)))
            assert_step_matches(layer, x, grad, conv2d_step_oracle)
            seen |= {
                ("stride", stride), ("dilation", dilation), ("batch", n), ("square", h == w),
                ("padding", "none" if padding == 0 else "past_half" if padding > kh // 2 else "some"),
            }
        assert seen >= {
            ("stride", 2), ("dilation", 2), ("batch", 1), ("square", False),
            ("padding", "none"), ("padding", "past_half"),
        }

    def test_one_filter_layer_across_input_shapes(self):
        # 4 x 8 x 8 and 1 x 16 x 16 inputs have as many pixels; the spread
        # of one must not leave cells behind that the other's taps miss.
        layer = Conv2d(3, 1, 3, padding=1, rng=np.random.default_rng(101))
        rng = np.random.default_rng(103)
        for shape in ((4, 3, 8, 8), (1, 3, 16, 16), (4, 3, 8, 8)):
            x = rng.standard_normal(shape)
            grad = rng.standard_normal((shape[0], 1, *shape[2:]))
            assert_step_matches(layer, x, grad, conv2d_step_oracle)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("output_padding", [0, 1])
    @pytest.mark.parametrize("in_channels", [4, 1])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_transpose2d_full_step_bit_identity(
        self, batch, in_channels, output_padding, dtype_name
    ):
        layer = ConvTranspose2d(
            in_channels, 2, 4, stride=2, padding=1, output_padding=output_padding,
            rng=np.random.default_rng(47),
        )
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(48).standard_normal((batch, in_channels, 6, 5))
        grad = np.random.default_rng(49).standard_normal(layer(x).shape)
        assert grad.shape == (batch, 2, 12 + output_padding, 10 + output_padding)
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


#: ``(in, out, kernel, stride, padding, dilation)``: every conv geometry of
#: the three models, plus a stride-2 and a dilation-2 one.
CONV_GEOMETRIES = {
    "9x9p4": (3, 4, 9, 1, 4, 1),
    "9x9p4_one_filter": (8, 1, 9, 1, 4, 1),
    "7x7p3": (4, 6, 7, 1, 3, 1),
    "5x5p2": (4, 2, 5, 1, 2, 1),
    "3x3p1": (4, 5, 3, 1, 1, 1),
    "3x3p1_one_filter": (4, 1, 3, 1, 1, 1),
    "1x1p0": (6, 3, 1, 1, 0, 1),
    "3x3p1_stride2": (3, 5, 3, 2, 1, 1),
    "3x3p2_dilation2": (3, 5, 3, 1, 2, 2),
}


class TestPerImageColumns:
    """Forming one image's columns at a time keeps the whole-batch bits."""

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES), ids=list(CONV_GEOMETRIES))
    def test_conv2d_equals_the_whole_batch_oracle(self, geometry, batch, dtype_name):
        in_channels, out_channels, kernel, stride, padding, dilation = CONV_GEOMETRIES[geometry]
        layer = Conv2d(
            in_channels, out_channels, kernel, stride=stride, padding=padding,
            dilation=dilation, rng=np.random.default_rng(107),
        )
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(108).standard_normal((batch, in_channels, 10, 9))
        grad = np.random.default_rng(109).standard_normal((batch, out_channels, *layer.output_shape(10, 9)))
        assert_step_matches(layer, x, grad, conv2d_step_oracle)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 8])
    def test_conv_transpose2d_equals_the_whole_batch_oracle(self, batch, dtype_name):
        layer = ConvTranspose2d(4, 3, 4, stride=2, padding=1, rng=np.random.default_rng(113))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(114).standard_normal((batch, 4, 5, 4))
        grad = np.random.default_rng(115).standard_normal((batch, 3, 10, 8))
        assert_step_matches(layer, x, grad, conv_transpose2d_step_oracle)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_overwriting_the_input_before_backward_changes_no_gradient(self, padding, dtype_name):
        # Backward re-forms columns from the layer's own padded copy of the
        # input, never from the caller's array.
        layer = Conv2d(3, 4, 5, padding=padding, rng=np.random.default_rng(127))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(128).standard_normal((3, 3, 8, 8)).astype(layer.compute_dtype)
        grad = np.random.default_rng(129).standard_normal((3, 4, *layer.output_shape(8, 8)))
        _, *expected = conv2d_step_oracle(layer, x.copy(), grad)
        layer(x)
        x[...] = np.nan
        got = (layer.backward(grad), layer.weight.grad, layer.bias.grad)
        for mine, theirs in zip(got, expected, strict=True):
            assert mine.tobytes() == theirs.tobytes()

    def test_a_second_backward_re_forms_the_last_image(self):
        # Backward leaves another image's columns in the buffer; a second
        # backward of the same forward must not take them for the last one's.
        layer = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(131))
        x = np.random.default_rng(132).standard_normal((3, 3, 6, 6))
        grad = np.random.default_rng(133).standard_normal((3, 4, 6, 6))
        weight_grad = conv2d_step_oracle(layer, x, grad)[2]
        layer(x)
        layer.backward(grad)
        layer.zero_grad()
        layer.backward(grad)
        assert layer.weight.grad.tobytes() == weight_grad.tobytes()
