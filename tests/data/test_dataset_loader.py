"""Tests for dataset containers and the data loader."""

import numpy as np
import pytest

from repro.data import DataLoader, PlacementSample, RoutabilityDataset, infinite_batches


def make_sample(design="d0", suite="iscas89", index=0, grid=8, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    label = (rng.random((grid, grid)) > 0.8).astype(float)
    return PlacementSample(
        features=rng.random((channels, grid, grid)),
        label=label,
        design_name=design,
        suite=suite,
        placement_index=index,
    )


def make_dataset(n_designs=4, per_design=3, **kwargs):
    samples = []
    for d in range(n_designs):
        for p in range(per_design):
            samples.append(make_sample(design=f"d{d}", index=p, seed=d * 10 + p, **kwargs))
    return RoutabilityDataset(samples, name="unit")


class TestPlacementSample:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PlacementSample(np.zeros((3, 8, 8)), np.zeros((4, 4)), "d", "s", 0)
        with pytest.raises(ValueError):
            PlacementSample(np.zeros((8, 8)), np.zeros((8, 8)), "d", "s", 0)

    def test_properties(self):
        sample = make_sample()
        assert sample.num_channels == 3
        assert sample.grid_shape == (8, 8)
        assert 0.0 <= sample.hotspot_fraction <= 1.0


class TestRoutabilityDataset:
    def test_len_and_indexing(self):
        dataset = make_dataset()
        assert len(dataset) == 12
        assert isinstance(dataset[0], PlacementSample)

    def test_arrays(self):
        dataset = make_dataset()
        assert dataset.features_array().shape == (12, 3, 8, 8)
        assert dataset.labels_array().shape == (12, 8, 8)

    def test_design_names_and_suites(self):
        dataset = make_dataset()
        assert dataset.design_names() == ["d0", "d1", "d2", "d3"]
        assert dataset.suites() == ["iscas89"]

    def test_add_rejects_inconsistent_shape(self):
        dataset = make_dataset()
        with pytest.raises(ValueError):
            dataset.add(make_sample(grid=16))

    def test_save_and_load_round_trip(self, tmp_path):
        dataset = make_dataset()
        path = dataset.save(tmp_path / "ds")
        restored = RoutabilityDataset.load(path)
        assert len(restored) == len(dataset)
        np.testing.assert_allclose(restored.features_array(), dataset.features_array())
        np.testing.assert_allclose(restored.labels_array(), dataset.labels_array())
        assert restored.design_names() == dataset.design_names()

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RoutabilityDataset().save(tmp_path / "empty")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RoutabilityDataset.load(tmp_path / "missing.npz")

    def test_summary(self):
        summary = make_dataset().summary()
        assert summary["samples"] == 12
        assert summary["designs"] == 4

    def test_empty_dataset_accessors_raise(self):
        empty = RoutabilityDataset()
        with pytest.raises(ValueError):
            empty.features_array()
        with pytest.raises(ValueError):
            _ = empty.num_channels


class TestDataLoader:
    def test_batch_shapes(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=5, shuffle=False)
        features, labels = next(iter(loader))
        assert features.shape == (5, 3, 8, 8)
        assert labels.shape == (5, 1, 8, 8)

    def test_number_of_batches(self):
        dataset = make_dataset()  # 12 samples
        assert len(DataLoader(dataset, batch_size=5)) == 3
        assert len(DataLoader(dataset, batch_size=4)) == 3

    def test_covers_all_samples(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=5, shuffle=True, rng=np.random.default_rng(0))
        total = sum(features.shape[0] for features, _ in loader)
        assert total == len(dataset)

    def test_shuffle_changes_order(self):
        dataset = make_dataset()
        loader_a = DataLoader(dataset, batch_size=12, shuffle=True, rng=np.random.default_rng(1))
        loader_b = DataLoader(dataset, batch_size=12, shuffle=False)
        features_a, _ = next(iter(loader_a))
        features_b, _ = next(iter(loader_b))
        assert not np.allclose(features_a, features_b)

    def test_infinite_batches_wraps_around(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=6, rng=np.random.default_rng(0))
        iterator = infinite_batches(loader)
        batches = [next(iterator) for _ in range(5)]
        assert len(batches) == 5

    def test_infinite_batches_serve_each_short_final_batch(self):
        dataset = make_dataset()  # 12 samples
        iterator = infinite_batches(DataLoader(dataset, batch_size=5, rng=np.random.default_rng(0)))
        sizes = [next(iterator)[0].shape[0] for _ in range(6)]
        assert sizes == [5, 5, 2, 5, 5, 2]

    def test_batch_larger_than_dataset_is_one_short_batch(self):
        dataset = make_dataset()  # 12 samples
        loader = DataLoader(dataset, batch_size=20, shuffle=False)
        assert len(loader) == 1
        batches = list(loader)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0][0], dataset.packed_arrays()[0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DataLoader(RoutabilityDataset(), batch_size=2)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(), batch_size=0)


class TestPackedArrays:
    def test_matches_per_sample_stacking(self):
        dataset = make_dataset()
        features, labels = dataset.packed_arrays()
        np.testing.assert_array_equal(
            features, np.stack([dataset[i].features for i in range(len(dataset))], axis=0)
        )
        np.testing.assert_array_equal(
            labels, np.stack([dataset[i].label for i in range(len(dataset))], axis=0)
        )

    def test_cached_and_read_only(self):
        dataset = make_dataset()
        first = dataset.packed_arrays()
        assert dataset.packed_arrays()[0] is first[0]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable

    def test_dtype_variants_cached_separately(self):
        dataset = make_dataset()
        f32, l32 = dataset.packed_arrays(np.float32)
        assert f32.dtype == np.float32 and l32.dtype == np.float32
        assert dataset.packed_arrays(np.float32)[0] is f32
        np.testing.assert_allclose(f32, dataset.packed_arrays()[0].astype(np.float32))

    def test_add_invalidates_cache(self):
        dataset = make_dataset()
        before = dataset.packed_arrays()[0]
        dataset.add(make_sample(design="d9", seed=99))
        after = dataset.packed_arrays()[0]
        assert after.shape[0] == before.shape[0] + 1

    def test_arrays_accessors_return_writable_copies(self):
        dataset = make_dataset()
        features = dataset.features_array()
        features[:] = 0.0
        np.testing.assert_array_equal(dataset.features_array(), dataset.packed_arrays()[0])
        assert dataset.features_array().flags.writeable

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            RoutabilityDataset().packed_arrays()


class StackedLoader(DataLoader):
    """The oracle: the same index stream, collated per sample into fresh arrays."""

    def _collate(self, indices):
        features = np.stack([self.dataset[int(i)].features for i in indices]).astype(self.dtype)
        labels = np.stack([self.dataset[int(i)].label for i in indices]).astype(self.dtype)
        return features, labels[:, None, :, :]


class TestCollateParity:
    """The take-based collation must match a per-sample ``np.stack``."""

    def test_collate_matches_stacked_reference(self):
        dataset = make_dataset()
        indices = np.array([7, 0, 3, 11, 5])
        for dtype in (np.float64, np.float32):
            features, labels = DataLoader(dataset, batch_size=5, dtype=dtype)._collate(indices)
            reference = StackedLoader(dataset, batch_size=5, dtype=dtype)._collate(indices)
            np.testing.assert_array_equal(features, reference[0])
            np.testing.assert_array_equal(labels, reference[1])
            assert features.dtype == reference[0].dtype == dtype

    def test_full_epoch_matches_stacked_reference(self):
        dataset = make_dataset()
        fast = DataLoader(dataset, batch_size=5, shuffle=True, rng=np.random.default_rng(3))
        slow = StackedLoader(dataset, batch_size=5, shuffle=True, rng=np.random.default_rng(3))
        fast_batches = [(f.copy(), y.copy()) for f, y in fast]
        slow_batches = list(slow)
        assert len(fast_batches) == len(slow_batches)
        for (fa, ya), (fb, yb) in zip(fast_batches, slow_batches):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(ya, yb)

    def test_batches_reuse_buffers(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=6, shuffle=False)
        iterator = iter(loader)
        first_features, _ = next(iterator)
        snapshot = first_features.copy()
        second_features, _ = next(iterator)
        # Full-size batches share one persistent buffer: the first batch's
        # view now shows the second batch's data (the documented contract —
        # a batch is valid until the next draw from the same loader).
        assert second_features.base is first_features.base or second_features is first_features
        assert not np.array_equal(first_features, snapshot)

    def test_partial_final_batch(self):
        dataset = make_dataset()  # 12 samples
        loader = DataLoader(dataset, batch_size=5, shuffle=False)
        sizes = [features.shape[0] for features, _ in loader]
        assert sizes == [5, 5, 2]
        *_, (last_features, last_labels) = iter(loader)
        np.testing.assert_array_equal(last_features, dataset.packed_arrays()[0][10:])
        assert last_labels.shape == (2, 1, 8, 8)

    def test_float32_batches(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=4, shuffle=False, dtype=np.float32)
        features, labels = next(iter(loader))
        assert features.dtype == np.float32 and labels.dtype == np.float32
        np.testing.assert_array_equal(
            features, dataset.packed_arrays(np.float32)[0][:4]
        )
