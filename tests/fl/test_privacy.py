"""Tests for the differential-privacy machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.parameters import state_distance, state_norm
from repro.fl.privacy import (
    GaussianAccountant,
    PrivacyConfig,
    PrivateUpdateLog,
    add_gaussian_noise,
    apply_update,
    clip_update,
    privatize_update,
    state_update,
)


def _state(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": scale * rng.normal(size=(4, 3, 3, 3)),
        "conv.bias": scale * rng.normal(size=4),
    }


class TestPrivacyConfig:
    def test_defaults_valid(self):
        config = PrivacyConfig()
        assert not config.enabled

    def test_enabled_when_noise_positive(self):
        assert PrivacyConfig(noise_multiplier=0.5).enabled

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PrivacyConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            PrivacyConfig(noise_multiplier=-0.1)
        with pytest.raises(ValueError):
            PrivacyConfig(delta=1.0)


class TestUpdateArithmetic:
    def test_state_update_and_apply_are_inverse(self):
        reference = _state(0)
        new = _state(1)
        update = state_update(reference, new)
        rebuilt = apply_update(reference, update)
        assert state_distance(rebuilt, new) == pytest.approx(0.0, abs=1e-12)

    def test_clip_update_noop_below_threshold(self):
        update = _state(2, scale=0.01)
        clipped, norm = clip_update(update, clip_norm=100.0)
        assert norm == pytest.approx(state_norm(update))
        assert state_distance(clipped, update) == pytest.approx(0.0, abs=1e-12)

    def test_clip_update_scales_to_threshold(self):
        update = _state(3, scale=10.0)
        clipped, norm = clip_update(update, clip_norm=1.0)
        assert norm > 1.0
        assert state_norm(clipped) == pytest.approx(1.0, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_clipped_norm_never_exceeds_bound(self, clip_norm):
        update = _state(4, scale=3.0)
        clipped, _ = clip_update(update, clip_norm=clip_norm)
        assert state_norm(clipped) <= clip_norm + 1e-9

    def test_clip_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_update(_state(), clip_norm=0.0)

    def test_gaussian_noise_zero_sigma_identity(self):
        state = _state(5)
        noisy = add_gaussian_noise(state, 0.0, np.random.default_rng(0))
        assert state_distance(noisy, state) == 0.0

    def test_gaussian_noise_changes_state(self):
        state = _state(6)
        noisy = add_gaussian_noise(state, 0.5, np.random.default_rng(0))
        assert state_distance(noisy, state) > 0.0

    def test_privatize_update_respects_clip(self):
        reference = _state(7, scale=0.0)
        new = _state(8, scale=5.0)
        config = PrivacyConfig(clip_norm=1.0, noise_multiplier=0.0)
        private, raw_norm = privatize_update(reference, new, config, np.random.default_rng(0))
        assert raw_norm > 1.0
        assert state_norm(state_update(reference, private)) == pytest.approx(1.0, rel=1e-9)

    def test_privatize_update_with_noise_differs(self):
        reference = _state(9)
        new = _state(10)
        config = PrivacyConfig(clip_norm=10.0, noise_multiplier=1.0)
        private_a, _ = privatize_update(reference, new, config, np.random.default_rng(0))
        private_b, _ = privatize_update(reference, new, config, np.random.default_rng(1))
        assert state_distance(private_a, private_b) > 0.0


class TestGaussianAccountant:
    def test_no_steps_zero_epsilon(self):
        accountant = GaussianAccountant(PrivacyConfig(noise_multiplier=1.0))
        assert accountant.epsilon() == 0.0

    def test_epsilon_grows_with_rounds(self):
        accountant = GaussianAccountant(PrivacyConfig(noise_multiplier=1.0))
        accountant.record_round()
        first = accountant.epsilon()
        accountant.record_round(5)
        assert accountant.epsilon() > first

    def test_more_noise_means_less_epsilon(self):
        low_noise = GaussianAccountant(PrivacyConfig(noise_multiplier=0.5))
        high_noise = GaussianAccountant(PrivacyConfig(noise_multiplier=2.0))
        low_noise.record_round(10)
        high_noise.record_round(10)
        assert high_noise.epsilon() < low_noise.epsilon()

    def test_disabled_noise_gives_infinite_epsilon(self):
        accountant = GaussianAccountant(PrivacyConfig(noise_multiplier=0.0))
        accountant.record_round()
        assert accountant.epsilon() == float("inf")

    def test_summary_fields(self):
        accountant = GaussianAccountant(PrivacyConfig(noise_multiplier=1.0, clip_norm=2.0))
        accountant.record_round(3)
        summary = accountant.summary()
        assert summary["rounds"] == 3
        assert summary["clip_norm"] == 2.0
        assert summary["epsilon"] > 0


class TestPrivateUpdateLog:
    def test_counts_clipped_updates(self):
        log = PrivateUpdateLog()
        log.record(0.5, clip_norm=1.0)
        log.record(2.0, clip_norm=1.0)
        log.record(3.0, clip_norm=1.0)
        assert len(log.raw_norms) == 3
        assert log.clipped_fraction == pytest.approx(2 / 3)

    def test_empty_log(self):
        log = PrivateUpdateLog()
        assert log.clipped_fraction == 0.0
