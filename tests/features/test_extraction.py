"""Tests for routability feature extraction."""

import numpy as np
import pytest

from repro.features import DEFAULT_FEATURES, FeatureExtractor
from repro.features.extraction import available_features


class TestFeatureExtractor:
    def test_default_channel_order(self):
        extractor = FeatureExtractor()
        assert extractor.feature_names == DEFAULT_FEATURES
        assert extractor.num_channels == len(DEFAULT_FEATURES)

    def test_extract_shape(self, small_placement):
        extractor = FeatureExtractor()
        features = extractor.extract(small_placement)
        assert features.shape == (len(DEFAULT_FEATURES),) + small_placement.grid_shape

    def test_per_sample_normalization_bounds(self, small_placement, analysis_maps):
        features = FeatureExtractor(normalization="per_sample").extract(small_placement, analysis_maps)
        assert np.all(features <= 1.0 + 1e-12)
        assert np.all(features >= 0.0)
        # Every channel with any signal should reach exactly 1 after scaling.
        for channel in features:
            if channel.max() > 0:
                assert channel.max() == pytest.approx(1.0)

    def test_none_normalization_returns_raw_values(self, small_placement, analysis_maps):
        raw = FeatureExtractor(normalization="none").extract(small_placement, analysis_maps)
        index = DEFAULT_FEATURES.index("cell_density")
        np.testing.assert_allclose(raw[index], analysis_maps["cell_density"])

    def test_log1p_normalization_compresses(self, small_placement, analysis_maps):
        log_features = FeatureExtractor(normalization="log1p").extract(small_placement, analysis_maps)
        assert np.all(log_features <= 1.0 + 1e-12)

    def test_subset_of_features(self, small_placement, analysis_maps):
        extractor = FeatureExtractor(["rudy", "cell_density"])
        features = extractor.extract(small_placement, analysis_maps)
        assert features.shape[0] == 2

    def test_congestion_features_available(self, small_placement, analysis_maps):
        extractor = FeatureExtractor(["congestion_horizontal", "congestion_vertical"])
        features = extractor.extract(small_placement, analysis_maps)
        assert features.shape[0] == 2
        assert np.all(features >= 0)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(["timing_slack"])

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor([])

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(normalization="zscore")

    def test_available_features_superset_of_defaults(self):
        assert set(DEFAULT_FEATURES).issubset(set(available_features()))

    def test_macro_channel_reflects_macros(self, macro_placement):
        extractor = FeatureExtractor(["macro"], normalization="none")
        features = extractor.extract(macro_placement)
        assert features.max() > 0.5
