"""Tests for ROC AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import roc_auc_score
from repro.metrics.roc import _average_ranks


class TestRocAuc:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == pytest.approx(1.0)

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(labels, scores) == pytest.approx(0.0)

    def test_random_constant_scores_give_half(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        scores = np.zeros(6)
        assert roc_auc_score(labels, scores) == pytest.approx(0.5)

    def test_known_mixed_case(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.3, 0.1])
        # Pairs: (0.9>0.8), (0.9>0.1), (0.3<0.8), (0.3>0.1) -> 3/4 correct.
        assert roc_auc_score(labels, scores) == pytest.approx(0.75)

    def test_matches_pairwise_comparison_count(self):
        """AUC is the share of (positive, negative) pairs ranked right, ties counting half."""
        rng = np.random.default_rng(0)
        labels = (rng.random(200) > 0.7).astype(float)
        scores = np.round(rng.normal(size=200) + labels, 1)  # rounding makes ties
        positive = scores[labels == 1][:, None]
        negative = scores[labels == 0][None, :]
        expected = np.mean((positive > negative) + 0.5 * (positive == negative))
        assert roc_auc_score(labels, scores) == pytest.approx(expected, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(5), np.arange(5))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.array([0, 1, 2]), np.arange(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.array([0, 1]), np.arange(3))

    def test_accepts_2d_maps(self):
        labels = np.array([[0, 1], [1, 0]])
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert roc_auc_score(labels, scores) == pytest.approx(1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=30)
        base = roc_auc_score(labels, scores)
        transformed = roc_auc_score(labels, np.exp(scores * 0.5) + 3.0)
        assert base == pytest.approx(transformed, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_complement_symmetry(self, seed):
        """AUC(labels, scores) + AUC(labels, -scores) == 1."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=40)
        assert roc_auc_score(labels, scores) + roc_auc_score(labels, -scores) == pytest.approx(1.0)

    def test_nan_score_gives_nan(self):
        assert np.isnan(roc_auc_score(np.array([0, 1, 1]), np.array([0.2, np.nan, 0.7])))


class TestAverageRanks:
    """``_average_ranks`` holds ``scipy.stats.rankdata``'s values (method "average")."""

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]),
            ([0.5, 0.2, 0.5, 0.2, 0.9, 0.5], [4.0, 1.5, 4.0, 1.5, 6.0, 4.0]),
            ([0.0, -0.0, 1.0], [1.5, 1.5, 3.0]),
            ([np.inf, -np.inf, np.inf, 7.0], [3.5, 1.0, 3.5, 2.0]),
            ([4.0], [1.0]),
        ],
    )
    def test_pinned_ranks(self, values, expected):
        ranks = _average_ranks(np.array(values))
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == np.array(expected).tobytes()

    def test_any_nan_gives_all_nan(self):
        ranks = _average_ranks(np.array([1.0, np.nan, 0.0, 1.0]))
        assert ranks.shape == (4,) and np.isnan(ranks).all()

    def test_seeded_sweep_is_bit_identical_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(32)
        for trial in range(300):
            size = int(rng.integers(1, 2000))
            if trial % 3 == 0:
                values = rng.normal(size=size)
            else:  # few distinct values: long runs of ties, signed zeros included
                values = rng.integers(-3, 4, size=size) * rng.choice([0.5, -0.0, 1.0], size=size)
            if trial % 5 == 0:
                values[rng.integers(0, size)] = np.nan
            assert _average_ranks(values).tobytes() == stats.rankdata(values).tobytes(), trial
