"""Receiver-operating-characteristic metrics.

The paper evaluates every model with ROC AUC over the per-bin hotspot
predictions, so a correct, tie-aware AUC implementation is load-bearing for
the reproduction.  The implementation uses the Mann-Whitney U statistic with
average ranks, which handles tied scores exactly.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def _validate_binary_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels).reshape(-1)
    unique = np.unique(labels)
    if not np.all(np.isin(unique, (0, 1))):
        raise ValueError(f"labels must be binary (0/1), got values {unique[:10]}")
    return labels.astype(np.float64)


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney U) formulation.

    Parameters
    ----------
    labels:
        Binary ground-truth labels, any shape (flattened internally).
    scores:
        Real-valued predictions of the same size; larger means more likely
        positive.

    Raises
    ------
    ValueError
        If only one class is present (the AUC is undefined).
    """
    labels = _validate_binary_labels(labels)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(
            f"labels and scores must have the same number of elements, "
            f"got {labels.shape} and {scores.shape}"
        )
    n_positive = int(labels.sum())
    n_negative = labels.size - n_positive
    if n_positive == 0 or n_negative == 0:
        raise ValueError("ROC AUC is undefined when only one class is present")
    ranks = stats.rankdata(scores)
    rank_sum_positive = float(ranks[labels == 1].sum())
    u_statistic = rank_sum_positive - n_positive * (n_positive + 1) / 2.0
    return u_statistic / (n_positive * n_negative)

