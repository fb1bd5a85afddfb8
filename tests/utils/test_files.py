"""Tests for ``atomic_write``: a reader sees the old file or the new one, never a partial write."""

import pytest

from repro.utils.files import atomic_write


class TestAtomicWrite:
    def test_writes_the_file_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "state.bin"
        with atomic_write(target) as handle:
            handle.write(b"new contents")
        assert target.read_bytes() == b"new contents"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "state.bin"
        target.write_bytes(b"complete old file")
        with pytest.raises(RuntimeError, match="killed mid-write"):
            with atomic_write(target) as handle:
                handle.write(b"half of the new")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"complete old file"
        assert list(tmp_path.iterdir()) == [target]

    def test_leftover_temporary_is_overwritten(self, tmp_path):
        target = tmp_path / "state.bin"
        (tmp_path / "state.bin.tmp").write_bytes(b"debris of a killed run, longer than the new file")
        with atomic_write(target) as handle:
            handle.write(b"fresh")
        assert target.read_bytes() == b"fresh"
        assert list(tmp_path.iterdir()) == [target]
