"""Receiver-operating-characteristic metrics.

The paper evaluates every model with ROC AUC over the per-bin hotspot
predictions, so a correct, tie-aware AUC implementation is load-bearing for
the reproduction.  The implementation uses the Mann-Whitney U statistic with
average ranks, which handles tied scores exactly.

The ranks are ``scipy.stats.rankdata(scores)`` (method ``"average"``,
``nan_policy="propagate"``), computed in NumPy by :func:`_average_ranks`.
An average rank is an exact integer or half, so any correct ranking gives
the same float64 array, and the AUC sums it in the same order.
"""

from __future__ import annotations

import numpy as np


def _validate_binary_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels).reshape(-1)
    unique = np.unique(labels)
    if not np.all(np.isin(unique, (0, 1))):
        raise ValueError(f"labels must be binary (0/1), got values {unique[:10]}")
    return labels.astype(np.float64)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based average ranks of a 1-D array; ties share the mean of their ranks.

    Same values as ``scipy.stats.rankdata(values)``: a stable sort, one run
    per distinct value, and rank ``(first + last) / 2`` of each run, which is
    an exact integer or half.  Any NaN makes every rank NaN, as SciPy's
    default ``nan_policy="propagate"`` does.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.empty(values.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    bounds = np.concatenate((np.flatnonzero(starts), [values.size]))
    return 0.5 * (bounds[dense] + bounds[dense - 1] + 1)


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
    ranks = _average_ranks(scores)
    rank_sum_positive = float(ranks[labels == 1].sum())
    u_statistic = rank_sum_positive - n_positive * (n_positive + 1) / 2.0
    return u_statistic / (n_positive * n_negative)

