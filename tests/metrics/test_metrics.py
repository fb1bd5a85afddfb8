"""Tests for ROC AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import roc_auc_score


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
