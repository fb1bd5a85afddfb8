"""Tests for the self-compacting message journal behind reconnect-with-resume.

The journal is the server's source of truth for "what might a client
have missed": a TASK record is written before any socket send, an ACK
record once the update is folded. The properties under test:

* record/ack round-trips and the pending map mirror each other,
* ``pending_after`` is exactly the replay set for a cursor,
* state survives a close/reopen cycle (server restart),
* a torn tail (crash mid-append) is detected, cut off the file, and
  accounted in ``truncated_bytes`` — everything before it loads clean, and
  everything appended after the restart survives the *next* restart,
* ACKs for tasks never journaled are harmless (abandoned-task acks),
* state carriers live once each in the shared state journal, until released,
* a record whose frame is intact but whose body is not an envelope (a
  version-1 pickle, say) is a typed ``JournalError``, never executed,
* a file whose replay set empties is compacted to one ACK of its
  high-water mark, so file sizes do not grow with the rounds, and a stray
  ``.tmp`` from a crash mid-compaction is ignored.
"""

from __future__ import annotations

import pickle

import pytest

from repro.fl.net import JournalError, MessageJournal, encode_frame
from repro.fl.net.messages import MSG_TASK


def high_seq(journal, client_id):
    """The highest seq ever journaled for a client (0 if none)."""
    return journal._high.get(client_id, 0)


class TestJournalBasics:
    def test_record_and_ack(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"task-one")
            journal.record_task(1, 2, b"task-two")
            assert journal.pending(1) == {1: b"task-one", 2: b"task-two"}
            journal.record_ack(1, 1)
            assert journal.pending(1) == {2: b"task-two"}
            assert high_seq(journal, 1) == 2

    def test_clients_are_independent(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"a")
            journal.record_task(2, 1, b"b")
            journal.record_ack(1, 1)
            assert journal.pending(1) == {}
            assert journal.pending(2) == {1: b"b"}

    def test_pending_after_is_the_replay_set(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            for seq in (1, 2, 3, 4):
                journal.record_task(7, seq, b"body-%d" % seq)
            journal.record_ack(7, 2)
            # Cursor 1: seqs 3 and 4 are pending and newer; 2 was acked.
            assert journal.pending_after(7, 1) == [(3, b"body-3"), (4, b"body-4")]
            assert journal.pending_after(7, 4) == []
            # A zero cursor replays every pending record, in seq order.
            assert [seq for seq, _ in journal.pending_after(7, 0)] == [1, 3, 4]

    def test_ack_without_task_is_harmless(self, tmp_path):
        # The server acks abandoned (reaped) tasks so replay never resends
        # them; the ack may race a task record that was never written.
        with MessageJournal(tmp_path) as journal:
            journal.record_ack(3, 9)
            assert journal.pending(3) == {}
            assert high_seq(journal, 3) == 9

    def test_unknown_client_queries_are_empty(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            assert journal.pending(99) == {}
            assert journal.pending_after(99, 0) == []
            assert high_seq(journal, 99) == 0


class TestJournalPersistence:
    def test_reload_after_close(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"one")
            journal.record_task(1, 2, b"two")
            journal.record_ack(1, 1)
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.pending(1) == {2: b"two"}
            assert high_seq(reloaded, 1) == 2
            assert reloaded.truncated_bytes == 0

    def test_append_after_reload(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"one")
        with MessageJournal(tmp_path) as reloaded:
            reloaded.record_task(1, 2, b"two")
            assert reloaded.pending(1) == {1: b"one", 2: b"two"}

    def test_torn_tail_is_dropped_and_counted(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"kept")
            journal.record_task(1, 2, b"lost to the crash")
        path = tmp_path / "client-1.journal"
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # crash mid-append of the second record
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.pending(1) == {1: b"kept"}
            assert reloaded.truncated_bytes > 0

    def test_corrupt_middle_keeps_clean_prefix(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"kept")
        path = tmp_path / "client-1.journal"
        good = path.read_bytes()
        path.write_bytes(good + b"\x00garbage tail\xff")
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.pending(1) == {1: b"kept"}
            assert reloaded.truncated_bytes == len(b"\x00garbage tail\xff")

    def test_foreign_files_are_ignored(self, tmp_path):
        (tmp_path / "client-notanumber.journal").write_bytes(b"junk")
        (tmp_path / "unrelated.txt").write_bytes(b"junk")
        with MessageJournal(tmp_path) as journal:
            assert journal.pending(1) == {}

    def test_unwritable_directory_is_typed_error(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_bytes(b"not a directory")
        with pytest.raises(JournalError):
            MessageJournal(target)

    def test_torn_tail_is_cut_off_so_later_appends_survive_a_second_restart(self, tmp_path):
        """Regression: the tail was dropped in memory but left on disk, so every
        record appended after the first restart sat behind a partial frame and
        was silently lost on the second one."""
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"x" * 100)
            journal.record_task(1, 2, b"y" * 100)
        path = tmp_path / "client-1.journal"
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-30])  # crash mid-append of record 2
        with MessageJournal(tmp_path) as first_restart:
            assert sorted(first_restart.pending(1)) == [1]
            assert first_restart.truncated_bytes == size // 2 - 30
            assert path.stat().st_size == size // 2  # the partial record is gone from disk
            first_restart.record_task(1, 2, b"y" * 100)
            first_restart.record_task(1, 3, b"z" * 100)
        with MessageJournal(tmp_path) as second_restart:
            assert sorted(second_restart.pending(1)) == [1, 2, 3]
            assert second_restart.truncated_bytes == 0

    def test_corrupt_record_mid_file_is_recovered_in_one_pass(self, tmp_path):
        # A large journal with one flipped byte: the clean prefix comes back
        # from a single FrameReader pass (this used to re-feed the file a byte
        # at a time -- minutes at this size).
        with MessageJournal(tmp_path) as journal:
            for seq in (1, 2, 3):
                journal.record_task(1, seq, bytes([seq]) * (1 << 20))
        path = tmp_path / "client-1.journal"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40  # inside record 2
        path.write_bytes(bytes(raw))
        with MessageJournal(tmp_path) as reloaded:
            assert sorted(reloaded.pending(1)) == [1]
            assert reloaded.truncated_bytes == 2 * (len(raw) // 3)

    def test_a_pickled_v1_record_is_a_typed_error_and_is_never_loaded(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_task(1, 1, b"one")
        path = tmp_path / "client-1.journal"
        with open(path, "ab") as handle:
            handle.write(encode_frame(MSG_TASK, pickle.dumps((2, b"two"))))
        with pytest.raises(JournalError, match="undecodable record"):
            MessageJournal(tmp_path)


class TestStateJournal:
    def test_states_are_recorded_once_and_released(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_state(1, b"global model, round 0")
            journal.record_state(2, b"cluster model")
            assert journal.state(1) == b"global model, round 0"
            journal.release_state(1)
            assert journal.state(1) is None
            assert journal.state(2) == b"cluster model"
            assert journal.high_state_id == 2

    def test_states_survive_a_restart_and_ids_keep_rising(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_state(1, b"released")
            journal.record_state(2, b"live")
            journal.release_state(1)
            journal.record_task(1, 1, b"task naming state 2")
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.state(1) is None
            assert reloaded.state(2) == b"live"
            assert reloaded.high_state_id == 2
            assert reloaded.pending(1) == {1: b"task naming state 2"}

    def test_the_state_journal_is_not_a_client_journal(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_state(1, b"blob")
            journal.record_task(1, 1, b"task")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["client-1.journal", "states.journal"]


def run_rounds(directory, rounds: int) -> None:
    """``rounds`` federated rounds: one broadcast state, two client tasks, acks, release."""
    with MessageJournal(directory) as journal:
        for round_index in range(1, rounds + 1):
            journal.record_state(round_index, b"s" * 4096)
            for client_id in (1, 2):
                journal.record_task(client_id, round_index, b"t" * 512)
            for client_id in (1, 2):
                journal.record_ack(client_id, round_index)
            journal.release_state(round_index)


class TestJournalCompaction:
    def test_file_sizes_do_not_grow_with_rounds(self, tmp_path):
        sizes = {}
        for rounds in (3, 8):
            run_rounds(tmp_path / str(rounds), rounds)
            sizes[rounds] = {path.name: path.stat().st_size for path in (tmp_path / str(rounds)).iterdir()}
        assert sorted(sizes[3]) == ["client-1.journal", "client-2.journal", "states.journal"]
        assert sizes[3] == sizes[8]
        # One ACK record each: far below a single state or task record.
        assert max(sizes[8].values()) < 512

    def test_reload_keeps_high_water_marks_and_an_empty_replay_set(self, tmp_path):
        run_rounds(tmp_path, 5)
        with MessageJournal(tmp_path) as reloaded:
            assert high_seq(reloaded, 1) == high_seq(reloaded, 2) == 5
            assert reloaded.high_state_id == 5
            assert reloaded.pending_after(1, 0) == reloaded.pending_after(2, 0) == []
            assert reloaded.state(5) is None
            assert reloaded.truncated_bytes == 0

    def test_a_file_with_pending_work_is_not_compacted(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_state(1, b"live")
            journal.record_state(2, b"released")
            journal.record_task(1, 1, b"one")
            journal.record_task(1, 2, b"two")
            journal.record_ack(1, 1)
            journal.release_state(2)
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.pending(1) == {2: b"two"}
            assert reloaded.state(1) == b"live"
            assert reloaded.high_state_id == 2

    def test_a_stray_temp_file_from_a_crash_is_ignored(self, tmp_path):
        with MessageJournal(tmp_path) as journal:
            journal.record_state(1, b"live")
            journal.record_task(1, 1, b"one")
        # A crash between writing the temp file and os.replace leaves both.
        (tmp_path / "client-1.journal.tmp").write_bytes(b"\x00half a compacted rec")
        (tmp_path / "states.journal.tmp").write_bytes(b"")
        with MessageJournal(tmp_path) as reloaded:
            assert reloaded.pending(1) == {1: b"one"}
            assert reloaded.state(1) == b"live"
            assert reloaded.truncated_bytes == 0
            reloaded.record_ack(1, 1)
            reloaded.release_state(1)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["client-1.journal", "states.journal"]
        with MessageJournal(tmp_path) as compacted:
            assert compacted.pending(1) == {}
            assert (high_seq(compacted, 1), compacted.high_state_id) == (1, 1)
