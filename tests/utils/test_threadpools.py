"""Tests for BLAS thread detection, control, and policy resolution."""

from __future__ import annotations

import pytest

from repro.utils import threadpools
from repro.utils.threadpools import (
    BLAS_AUTO,
    BLAS_ENV_VARS,
    BlasInfo,
    blas_info,
    blas_thread_limit,
    check_blas_policy,
    get_blas_threads,
    parse_blas_threads,
    resolve_blas_threads,
    set_blas_threads,
)


class TestPolicyParsing:
    def test_auto(self):
        assert parse_blas_threads("auto") == BLAS_AUTO
        assert parse_blas_threads("AUTO") == BLAS_AUTO
        assert parse_blas_threads(" auto ") == BLAS_AUTO

    def test_integers(self):
        assert parse_blas_threads("1") == 1
        assert parse_blas_threads("16") == 16

    @pytest.mark.parametrize("bad", ["0", "-2", "many", "1.5", ""])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_blas_threads(bad)

    def test_check_policy_accepts_valid(self):
        for policy in (None, BLAS_AUTO, 1, 8):
            assert check_blas_policy(policy) == policy

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "four", "Auto"])
    def test_check_policy_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            check_blas_policy(bad)


class TestResolution:
    def test_none_never_manages(self):
        assert resolve_blas_threads(None) is None

    def test_auto_leaves_serial_alone(self):
        # Serial runs, and pools with them, keep BLAS's own count.
        assert resolve_blas_threads(BLAS_AUTO) is None

    def test_explicit_count_pins_exactly(self):
        assert resolve_blas_threads(2) == 2


class TestDetectionAndControl:
    def test_blas_info_shape(self):
        info = blas_info()
        assert isinstance(info, BlasInfo)
        assert info.vendor in ("openblas", "mkl", "blis", "unknown")
        if info.vendor == "unknown":
            assert not info.controllable

    def test_runtime_set_get_round_trip(self):
        info = blas_info()
        if not info.controllable:
            pytest.skip("BLAS library exposes no runtime thread setter")
        previous = get_blas_threads()
        assert previous is not None and previous >= 1
        try:
            assert set_blas_threads(2)
            assert get_blas_threads() == 2
        finally:
            set_blas_threads(previous)
        assert get_blas_threads() == previous

    def test_set_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    def test_thread_limit_restores(self):
        info = blas_info()
        if not info.controllable:
            pytest.skip("BLAS library exposes no runtime thread setter")
        previous = get_blas_threads()
        with blas_thread_limit(3):
            assert get_blas_threads() == 3
        assert get_blas_threads() == previous

    def test_thread_limit_none_is_noop(self):
        before = get_blas_threads()
        with blas_thread_limit(None):
            assert get_blas_threads() == before
        assert get_blas_threads() == before

    def test_env_var_fallback_when_uncontrollable(self, monkeypatch):
        # Simulate a BLAS without a runtime setter: the knob must degrade to
        # exporting the conventional env vars (affecting future pools only)
        # and report that the runtime set did not take effect.
        for name in BLAS_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(threadpools, "_CONTROL", None)
        import os

        assert set_blas_threads(3) is False
        for name in BLAS_ENV_VARS:
            assert os.environ[name] == "3"
        assert get_blas_threads() is None
        info = blas_info()
        assert info.vendor == "unknown" and not info.controllable

    def test_detection_cache_reset(self, monkeypatch):
        monkeypatch.setattr(threadpools, "_CONTROL", None)
        assert blas_info().vendor == "unknown"
        threadpools.reset_blas_detection()
        # Re-probes the real library after the reset.
        assert blas_info().vendor in ("openblas", "mkl", "blis", "unknown")
