"""Tests for the Table 2 client specification and corpus builder."""

import pytest

from repro.data.clients import (
    PAPER_TOTAL_DESIGNS,
    PAPER_TOTAL_PLACEMENTS,
    TABLE2_CLIENTS,
    ClientSpec,
    CorpusBuilder,
    CorpusConfig,
    table2_rows,
)


class TestTable2Specs:
    def test_nine_clients(self):
        assert len(TABLE2_CLIENTS) == 9
        assert [spec.client_id for spec in TABLE2_CLIENTS] == list(range(1, 10))

    def test_suite_assignment_matches_paper(self):
        suites = [spec.suite for spec in TABLE2_CLIENTS]
        assert suites == [
            "itc99", "itc99", "itc99",
            "iscas89", "iscas89", "iscas89",
            "iwls05", "iwls05",
            "ispd15",
        ]

    def test_total_designs_is_74(self):
        assert PAPER_TOTAL_DESIGNS == 74

    def test_total_placements_is_7131(self):
        assert PAPER_TOTAL_PLACEMENTS == 7131

    def test_design_counts_match_table2(self):
        spec = TABLE2_CLIENTS[0]
        assert (spec.train_designs, spec.test_designs) == (4, 2)
        assert (spec.paper_train_placements, spec.paper_test_placements) == (462, 230)
        spec9 = TABLE2_CLIENTS[8]
        assert (spec9.train_designs, spec9.test_designs) == (9, 4)


class TestCorpusConfig:
    def test_placements_for_scaling(self):
        config = CorpusConfig(placement_scale=0.1, min_placements_per_design=2)
        # 462 placements over 4 designs at 10% -> ~12 per design.
        assert config.placements_for(462, 4) == pytest.approx(12, abs=1)

    def test_placements_for_respects_minimum(self):
        config = CorpusConfig(placement_scale=0.001, min_placements_per_design=3)
        assert config.placements_for(100, 5) >= 3

    def test_cache_key_changes_with_config(self):
        a = CorpusConfig(placement_scale=0.01)
        b = CorpusConfig(placement_scale=0.02)
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == CorpusConfig(placement_scale=0.01).cache_key()

    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(grid_width=0)
        with pytest.raises(ValueError):
            CorpusConfig(placement_scale=0)


SMALL_SPECS = (
    ClientSpec(1, "iscas89", 2, 1, 6, 3),
    ClientSpec(2, "itc99", 2, 1, 6, 3),
)
SMALL_CONFIG = CorpusConfig(
    grid_width=12, grid_height=12, placement_scale=0.5, min_placements_per_design=2, base_seed=3
)


class TestCorpusBuilder:
    @pytest.fixture(scope="class")
    def corpus(self):
        return CorpusBuilder(SMALL_CONFIG).build_all(SMALL_SPECS)

    def test_builds_every_client(self, corpus):
        assert [c.client_id for c in corpus] == [1, 2]

    def test_design_counts_respected(self, corpus):
        for client, spec in zip(corpus, SMALL_SPECS):
            assert len(client.train.design_names()) == spec.train_designs
            assert len(client.test.design_names()) == spec.test_designs

    def test_train_test_designs_disjoint(self, corpus):
        for client in corpus:
            assert set(client.train.design_names()).isdisjoint(client.test.design_names())

    def test_no_designs_shared_between_clients(self, corpus):
        all_names = []
        for client in corpus:
            all_names.extend(client.train.design_names())
            all_names.extend(client.test.design_names())
        assert len(all_names) == len(set(all_names))

    def test_samples_have_expected_grid(self, corpus):
        for client in corpus:
            assert client.train.grid_shape == (12, 12)

    def test_suites_match_spec(self, corpus):
        for client, spec in zip(corpus, SMALL_SPECS):
            assert client.train.suites() == [spec.suite]

    def test_summary_rows(self, corpus):
        rows = table2_rows(corpus)
        assert rows[0]["client"] == "client1"
        assert rows[0]["train_placements"] == len(corpus[0].train)

    def test_caching_round_trip(self, tmp_path):
        builder = CorpusBuilder(SMALL_CONFIG)
        first = builder.build_all(SMALL_SPECS[:1], cache_dir=tmp_path)
        cached_files = list(tmp_path.rglob("*.npz"))
        assert cached_files
        second = builder.build_all(SMALL_SPECS[:1], cache_dir=tmp_path)
        assert len(second[0].train) == len(first[0].train)

    @pytest.mark.parametrize("damage", ["stale_tmp", "truncated"])
    def test_damaged_cache_is_rebuilt(self, tmp_path, caplog, damage):
        """A killed run's leftovers (a ``*.tmp``, a cut-off archive) cost a rebuild, not the cache dir."""
        import numpy as np

        builder = CorpusBuilder(SMALL_CONFIG)
        fresh = builder.build_client(SMALL_SPECS[0])
        train_path, test_path = builder._cache_paths(SMALL_SPECS[0], tmp_path)
        if damage == "stale_tmp":
            train_path.parent.mkdir(parents=True)
            test_path.with_name(test_path.name + ".tmp").write_bytes(b"half a zip")
        else:
            builder.build_all(SMALL_SPECS[:1], cache_dir=tmp_path)
            test_path.write_bytes(test_path.read_bytes()[: test_path.stat().st_size // 2])
        with caplog.at_level("WARNING", logger="repro.data.clients"):
            rebuilt = builder.build_all(SMALL_SPECS[:1], cache_dir=tmp_path)[0]
        warnings = [r for r in caplog.records if "unreadable" in r.getMessage()]
        assert len(warnings) == (1 if damage == "truncated" else 0)
        assert all(str(test_path) in r.getMessage() for r in warnings)
        assert not list(tmp_path.rglob("*.tmp"))
        reloaded = builder._load_cached(SMALL_SPECS[0], tmp_path)
        for client in (rebuilt, reloaded):
            for got, want in ((client.train, fresh.train), (client.test, fresh.test)):
                assert got.features_array().tobytes() == want.features_array().tobytes()
                assert got.labels_array().tobytes() == want.labels_array().tobytes()

    def test_deterministic_rebuild(self):
        a = CorpusBuilder(SMALL_CONFIG).build_client(SMALL_SPECS[0])
        b = CorpusBuilder(SMALL_CONFIG).build_client(SMALL_SPECS[0])
        import numpy as np

        np.testing.assert_allclose(a.train.features_array(), b.train.features_array())
        np.testing.assert_allclose(a.train.labels_array(), b.train.labels_array())
