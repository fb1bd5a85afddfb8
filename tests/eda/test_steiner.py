"""Tests for HPWL, rectilinear spanning trees, and the RSMT length estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.steiner import (
    decompose_to_two_pin,
    hpwl,
    rectilinear_mst,
    rsmt_length_estimate,
)

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=12,
)


class TestHpwl:
    def test_two_points(self):
        assert hpwl([(0, 0), (3, 4)]) == pytest.approx(7.0)

    def test_single_point_is_zero(self):
        assert hpwl([(5, 5)]) == 0.0

    def test_collinear_points(self):
        assert hpwl([(0, 0), (2, 0), (7, 0)]) == pytest.approx(7.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            hpwl(np.zeros((3, 3)))

    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_translation_invariant(self, points):
        array = np.asarray(points)
        shifted = array + np.array([13.0, -7.0])
        assert hpwl(array) == pytest.approx(hpwl(shifted), abs=1e-6)


class TestRectilinearMst:
    def test_two_points_single_edge(self):
        edges, length = rectilinear_mst([(0, 0), (3, 4)])
        assert edges == [(0, 1)]
        assert length == pytest.approx(7.0)

    def test_fewer_than_two_points(self):
        assert rectilinear_mst([(1, 1)]) == ([], 0.0)
        assert rectilinear_mst(np.zeros((0, 2))) == ([], 0.0)

    def test_square_corners(self):
        """Unit-square corners: the MST uses three unit edges."""
        edges, length = rectilinear_mst([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert len(edges) == 3
        assert length == pytest.approx(3.0)

    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_spanning_tree_structure(self, points):
        """n points yield n-1 edges connecting every point exactly once as a child."""
        edges, length = rectilinear_mst(points)
        n = len(points)
        assert len(edges) == n - 1
        touched = {0}
        for parent, child in edges:
            assert parent in touched
            touched.add(child)
        assert touched == set(range(n))
        array = np.asarray(points)
        edge_lengths = [np.abs(array[i] - array[j]).sum() for i, j in edges]
        assert length == pytest.approx(float(sum(edge_lengths)), rel=1e-9)

    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_at_least_hpwl_lower_bound_half(self, points):
        """MST length is never shorter than HPWL / 2 nor shorter than the max pairwise gap."""
        _, length = rectilinear_mst(points)
        assert length >= hpwl(points) / 2.0 - 1e-9

    @given(points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_no_longer_than_star_topology(self, points):
        """An MST never costs more than connecting everything to point 0."""
        _, length = rectilinear_mst(points)
        array = np.asarray(points)
        star = float(np.abs(array - array[0]).sum())
        assert length <= star + 1e-9


class TestDecomposeToTwoPin:
    def test_matches_mst_edges(self):
        points = [(0, 0), (5, 0), (5, 5), (0, 5)]
        assert decompose_to_two_pin(points) == rectilinear_mst(points)[0]

    def test_empty_for_single_pin(self):
        assert decompose_to_two_pin([(2, 2)]) == []


class TestRsmtEstimate:
    def test_small_nets_equal_hpwl(self):
        points = [(0, 0), (3, 1), (5, 2)]
        assert rsmt_length_estimate(points) == pytest.approx(hpwl(points))

    def test_large_nets_exceed_hpwl(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 50, size=(20, 2))
        assert rsmt_length_estimate(points) > hpwl(points)

    def test_monotone_in_pin_count_factor(self):
        """With identical bounding boxes, more pins means a larger estimate."""
        rng = np.random.default_rng(1)
        base = [(0.0, 0.0), (50.0, 50.0)]
        small = base + [tuple(p) for p in rng.uniform(1, 49, size=(4, 2))]
        large = base + [tuple(p) for p in rng.uniform(1, 49, size=(28, 2))]
        assert rsmt_length_estimate(large) > rsmt_length_estimate(small)

    def test_zero_for_coincident_points(self):
        assert rsmt_length_estimate([(2, 2), (2, 2), (2, 2), (2, 2), (2, 2)]) == 0.0
