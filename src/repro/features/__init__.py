"""Routability feature extraction."""

from repro.features.extraction import DEFAULT_FEATURES, FeatureExtractor

__all__ = [
    "FeatureExtractor",
    "DEFAULT_FEATURES",
]
