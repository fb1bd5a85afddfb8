"""Evaluation metrics."""

from repro.metrics.roc import roc_auc_score

__all__ = ["roc_auc_score"]
