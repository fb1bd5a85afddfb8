"""The DRC labeler's NumPy kernels hold SciPy's bits.

``_dilate_cross`` stands in for ``scipy.ndimage.binary_dilation(mask,
iterations=1)`` and ``_smooth_nearest`` for ``scipy.ndimage.gaussian_filter(
values, sigma, mode="nearest")``; every label, and so every corpus digest, was
first produced by SciPy.  The sweeps compare bytes with SciPy where it is
installed; the pinned digests were written by SciPy and hold the same bits
where it is not.
"""

import hashlib

import numpy as np
import pytest

from repro.eda.drc import _dilate_cross, _smooth_nearest

#: The four suites' smoothing sigmas (repro.eda.benchmarks).
SUITE_SIGMAS = (0.9, 1.1, 1.3, 1.5)

#: (sigma, shape, first 16 hex digits of the SHA-256 of
#: ``gaussian_filter(values, sigma, mode="nearest").tobytes()``), written with
#: SciPy 1.17 for ``values = default_rng(case index).random(shape) * 4.0 - 1.0``.
#: (1, 1), (3, 2) and (5, 7) have a radius at least the grid's size.
SMOOTH_GOLDEN = (
    (0.9, (16, 16), "470dec16b06f1c30"),
    (1.1, (9, 23), "cd832feb9076b9a2"),
    (1.3, (1, 1), "807d9ebbbc2663e3"),
    (1.5, (3, 2), "80f346554a9fd65f"),
    (1.5, (32, 32), "64f8cfd33f4faf96"),
    (6.0, (5, 7), "2eea1aaa3f34bb97"),
)


def _golden_input(index, shape):
    return np.random.default_rng(index).random(shape) * 4.0 - 1.0


def _sweep_cases(count, max_size=39):
    """Seeded (values, sigma) cases: every suite sigma, 1x1 grids, radius >= size."""
    rng = np.random.default_rng(2022)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 3), (4, 4)]
    sigmas = list(SUITE_SIGMAS) + [0.0, 1e-16, 0.1, 0.37, 2.5, 6.0]
    cases = [(rng.normal(size=shape), sigma) for shape in shapes for sigma in sigmas]
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(1, max_size + 1, size=2))
        sigma = float(rng.choice(SUITE_SIGMAS)) if rng.random() < 0.5 else float(rng.uniform(0.0, 6.0))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        cases.append((rng.normal(size=shape) * scale, sigma))
    return cases


class TestSmoothNearestGolden:
    @pytest.mark.parametrize("index", range(len(SMOOTH_GOLDEN)))
    def test_pinned_digest(self, index):
        sigma, shape, digest = SMOOTH_GOLDEN[index]
        smoothed = _smooth_nearest(_golden_input(index, shape), sigma)
        assert smoothed.dtype == np.float64 and smoothed.shape == shape
        assert hashlib.sha256(smoothed.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("sigma", [0.0, 1e-15])
    def test_vanishing_sigma_returns_a_copy(self, sigma):
        values = _golden_input(0, (4, 5))
        smoothed = _smooth_nearest(values, sigma)
        assert smoothed is not values
        assert smoothed.tobytes() == values.tobytes()

    def test_constant_map_stays_constant_to_rounding(self):
        smoothed = _smooth_nearest(np.full((6, 3), 2.5), 1.3)
        np.testing.assert_allclose(smoothed, 2.5, rtol=1e-15)


class TestSmoothNearestAgainstScipy:
    def test_seeded_sweep_is_bit_identical(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for values, sigma in _sweep_cases(400):
            expected = ndimage.gaussian_filter(values, sigma, mode="nearest")
            smoothed = _smooth_nearest(values, sigma)
            assert smoothed.tobytes() == expected.tobytes(), (values.shape, sigma)

    @pytest.mark.parametrize("index", range(len(SMOOTH_GOLDEN)))
    def test_golden_digests_are_scipys(self, index):
        ndimage = pytest.importorskip("scipy.ndimage")
        sigma, shape, digest = SMOOTH_GOLDEN[index]
        expected = ndimage.gaussian_filter(_golden_input(index, shape), sigma, mode="nearest")
        assert hashlib.sha256(expected.tobytes()).hexdigest()[:16] == digest


class TestDilateCross:
    def test_pinned_cross(self):
        mask = np.zeros((5, 6), dtype=bool)
        mask[2, 2] = True
        mask[0, 5] = True
        expected = np.array(
            [
                [0, 0, 0, 0, 1, 1],
                [0, 0, 1, 0, 0, 1],
                [0, 1, 1, 1, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
            ],
            dtype=bool,
        )
        grown = _dilate_cross(mask)
        assert grown.dtype == np.bool_
        np.testing.assert_array_equal(grown, expected)
        assert not mask[1, 2], "the input must not be modified"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1)])
    def test_thin_maps(self, shape):
        mask = np.zeros(shape, dtype=bool)
        mask.flat[0] = True
        expected = np.zeros(shape, dtype=bool)
        expected.flat[:2] = True
        np.testing.assert_array_equal(_dilate_cross(mask), expected)

    def test_seeded_sweep_is_bit_identical_to_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(7)
        for _ in range(300):
            shape = tuple(int(n) for n in rng.integers(1, 40, size=2))
            mask = rng.random(shape) < rng.uniform(0.0, 0.5)
            expected = ndimage.binary_dilation(mask, iterations=1)
            assert _dilate_cross(mask).tobytes() == expected.tobytes(), shape
