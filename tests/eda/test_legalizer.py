"""Tests for row legalization and placement perturbation."""

import numpy as np
import pytest

from repro.eda.legalizer import (
    LegalizationReport,
    Legalizer,
    legalize_placement,
    perturb_placement,
)
from repro.eda.quality import placement_quality


def _assert_no_std_cell_overlap(placement, tolerance=1e-6):
    """Check pairwise, per-row, that no two standard cells overlap."""
    std = np.flatnonzero(~placement.is_macro)
    positions = placement.positions_um[std]
    sizes = placement.sizes_um[std]
    rows = np.round(positions[:, 1] / placement.technology.site_height_um).astype(int)
    for row in np.unique(rows):
        members = np.flatnonzero(rows == row)
        order = members[np.argsort(positions[members, 0])]
        for left, right in zip(order[:-1], order[1:]):
            left_end = positions[left, 0] + sizes[left, 0]
            assert left_end <= positions[right, 0] + tolerance


class TestLegalizer:
    @pytest.fixture(scope="class")
    def legalized(self, small_placement):
        return Legalizer().legalize(small_placement)

    def test_returns_placement_and_report(self, legalized):
        placement, report = legalized
        assert isinstance(report, LegalizationReport)
        assert placement.num_cells == len(placement.cell_names)

    def test_cells_snapped_to_rows(self, legalized, small_placement):
        placement, report = legalized
        row_height = small_placement.technology.site_height_um
        std = np.flatnonzero(~placement.is_macro)
        moved = np.flatnonzero(
            np.abs(placement.positions_um - small_placement.positions_um).sum(axis=1) > 1e-9
        )
        # Every cell that the legalizer moved sits exactly on a row.
        for index in np.intersect1d(std, moved):
            y = placement.positions_um[index, 1]
            assert y / row_height == pytest.approx(round(y / row_height), abs=1e-6)

    def test_no_overlaps_among_moved_rows(self, legalized):
        placement, _ = legalized
        _assert_no_std_cell_overlap(placement)

    def test_overlap_reduced(self, legalized):
        _, report = legalized
        assert report.overlap_area_after_um2 <= report.overlap_area_before_um2 + 1e-6

    def test_cells_stay_inside_die(self, legalized):
        placement, _ = legalized
        ends = placement.positions_um + placement.sizes_um
        assert np.all(placement.positions_um >= -1e-6)
        assert np.all(ends[:, 0] <= placement.die_width_um + 1e-6)

    def test_macros_not_moved(self, macro_placement):
        placement, _ = Legalizer().legalize(macro_placement)
        macro = macro_placement.is_macro
        np.testing.assert_array_equal(
            placement.positions_um[macro], macro_placement.positions_um[macro]
        )

    def test_report_statistics_consistent(self, legalized, small_placement):
        _, report = legalized
        std_count = int((~small_placement.is_macro).sum())
        assert 0 <= report.num_moved <= std_count
        assert report.max_displacement_um >= report.mean_displacement_um >= 0
        assert report.total_displacement_um == pytest.approx(
            report.mean_displacement_um * std_count, rel=1e-6
        )

    def test_displacement_is_bounded(self, legalized, small_placement):
        """Tetris legalization should not fling cells across the die."""
        _, report = legalized
        die_span = small_placement.die_width_um + small_placement.die_height_um
        assert report.max_displacement_um <= die_span

    def test_convenience_wrapper(self, small_placement):
        placement, report = legalize_placement(small_placement)
        assert placement.num_cells == small_placement.num_cells
        assert isinstance(report, LegalizationReport)

    def test_idempotent_on_legal_placement(self, legalized):
        """Re-legalizing a legal placement moves (almost) nothing."""
        placement, _ = legalized
        again, report = Legalizer().legalize(placement)
        assert report.mean_displacement_um <= 1.0


class TestPerturbPlacement:
    def test_moves_requested_fraction(self, small_placement):
        variant = perturb_placement(small_placement, magnitude=0.1, fraction=0.5, seed=1)
        moved = np.abs(variant.positions_um - small_placement.positions_um).sum(axis=1) > 1e-9
        std_count = int((~small_placement.is_macro).sum())
        assert 0.3 * std_count <= moved.sum() <= 0.7 * std_count

    def test_zero_magnitude_is_identity(self, small_placement):
        variant = perturb_placement(small_placement, magnitude=0.0, fraction=0.5, seed=1)
        np.testing.assert_array_equal(variant.positions_um, small_placement.positions_um)

    def test_macros_never_move(self, macro_placement):
        variant = perturb_placement(macro_placement, magnitude=0.2, fraction=1.0, seed=3)
        macro = macro_placement.is_macro
        np.testing.assert_array_equal(
            variant.positions_um[macro], macro_placement.positions_um[macro]
        )

    def test_deterministic_per_seed(self, small_placement):
        a = perturb_placement(small_placement, magnitude=0.1, fraction=0.4, seed=7)
        b = perturb_placement(small_placement, magnitude=0.1, fraction=0.4, seed=7)
        np.testing.assert_array_equal(a.positions_um, b.positions_um)

    def test_different_seeds_differ(self, small_placement):
        a = perturb_placement(small_placement, magnitude=0.1, fraction=0.4, seed=7)
        b = perturb_placement(small_placement, magnitude=0.1, fraction=0.4, seed=8)
        assert not np.array_equal(a.positions_um, b.positions_um)

    def test_cells_stay_inside_die(self, small_placement):
        variant = perturb_placement(small_placement, magnitude=0.5, fraction=1.0, seed=2)
        ends = variant.positions_um + variant.sizes_um
        assert np.all(variant.positions_um >= -1e-9)
        assert np.all(ends[:, 0] <= variant.die_width_um + 1e-6)
        assert np.all(ends[:, 1] <= variant.die_height_um + 1e-6)

    def test_perturbation_changes_hpwl(self, small_placement):
        variant = perturb_placement(small_placement, magnitude=0.2, fraction=0.8, seed=5)
        before = placement_quality(small_placement).total_hpwl_um
        assert placement_quality(variant).total_hpwl_um != pytest.approx(before, rel=1e-6)

    def test_legalize_flag_produces_row_aligned_variant(self, small_placement):
        variant = perturb_placement(small_placement, magnitude=0.1, fraction=0.5, seed=4, legalize=True)
        _assert_no_std_cell_overlap(variant)

    def test_rejects_bad_arguments(self, small_placement):
        with pytest.raises(ValueError):
            perturb_placement(small_placement, fraction=1.5)
        with pytest.raises(ValueError):
            perturb_placement(small_placement, magnitude=-0.1)

    def test_original_untouched(self, small_placement):
        before = small_placement.positions_um.copy()
        perturb_placement(small_placement, magnitude=0.3, fraction=1.0, seed=11)
        np.testing.assert_array_equal(small_placement.positions_um, before)
