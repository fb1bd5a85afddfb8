"""Append-only, self-compacting on-disk message journal backing reconnect-with-resume.

The server journals every dispatched task *before* putting it on a socket,
and journals an ACK record once the matching update has been folded.  A
client that reconnects presents its replay cursor (the highest ``seq`` it
has seen acknowledged); the journal's pending records after that cursor
are exactly the tasks the client may have missed, and they are replayed
byte-for-byte — same carrier, same RNG snapshot — so a resumed client
computes the identical update the uninterrupted run would have.

A task body names its state carrier by ``state_id``; the carriers
themselves live once each in the shared *state journal*, whatever the
number of clients that start from them.

Records reuse the wire frame codec (:mod:`repro.fl.net.framing`), one
frame per record, so every record is individually CRC-protected and a
crash mid-append leaves a *detectably* truncated tail; a record's payload
is a schema'd envelope (:mod:`repro.fl.transport.envelope`), like every
message body:

==================  ==========  ================================================
file                record      payload
==================  ==========  ================================================
``client-<id>``     ``TASK``    ``{seq, body}`` — ``body`` is the task's
``.journal``                    encoded message body
..                  ``ACK``     ``{seq}`` — the task left the replay set
``states.journal``  ``STATE``   ``{state_id, blob}`` — an encoded carrier
..                  ``ACK``     ``{state_id}`` — the state was released
==================  ==========  ================================================

Loading scans each file front to back, keeps the longest cleanly framed
prefix, and *truncates the file to it*: the record being appended when the
crash hit was, by construction, never acknowledged to anyone, and cutting
it off keeps later appends from landing behind a partial frame.

Compaction keeps the files from growing with the run: when a file's replay
set becomes empty (a client's last pending task is acked, or the last live
state is released), it is rewritten as one ``ACK`` of its high-water mark
(``high_seq`` or ``high_state_id``), written to ``<file>.tmp`` and moved
over the file with ``os.replace``: a crash leaves the old file or the new
one, and the loader never reads a ``.tmp`` file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fl.net.errors import FrameError, JournalError
from repro.fl.net.framing import FrameReader, frame_parts
from repro.fl.net.messages import MSG_ACK, MSG_STATE, MSG_TASK
from repro.fl.transport.envelope import BYTES, INT, Schema
from repro.fl.transport.errors import TransportDecodeError

#: frame type -> record schema, per kind of journal file.
_CLIENT_RECORDS = {MSG_TASK: Schema(dict, seq=INT, body=BYTES), MSG_ACK: Schema(dict, seq=INT)}
_STATE_RECORDS = {MSG_STATE: Schema(dict, state_id=INT, blob=BYTES), MSG_ACK: Schema(dict, state_id=INT)}

#: File key of the shared state journal (client journals are keyed by id).
_STATES = "states"


class MessageJournal:
    """Per-client task journals plus one shared state journal, each compacting.

    The in-memory maps (``seq -> task body bytes`` per client, insertion
    ordered, and ``state_id -> blob``) mirror the on-disk state and serve
    replay queries without touching the disk; the files exist so the maps
    survive a server restart.  ``fsync=True`` additionally fsyncs every
    append (durable against power loss, at a large cost per record —
    loopback tests and single-host runs don't need it).
    """

    def __init__(self, directory, fsync: bool = False):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise JournalError(str(directory), f"cannot create directory: {error}") from error
        self.fsync = bool(fsync)
        self._files: Dict[object, object] = {}
        #: client id -> {seq: task body bytes}, insertion == dispatch order.
        self._pending: Dict[int, Dict[int, bytes]] = {}
        #: Highest seq ever journaled per client (dispatched or acked).
        self._high: Dict[int, int] = {}
        #: state id -> encoded carrier, for every state not yet released.
        self._states: Dict[int, bytes] = {}
        #: Highest state id ever journaled (recorded or released).
        self.high_state_id = 0
        #: Bytes cut from truncated tails at load time (diagnostics).
        self.truncated_bytes = 0
        self._load()

    # -- loading -----------------------------------------------------------------
    def _path(self, key) -> Path:
        return self.directory / (f"{_STATES}.journal" if key == _STATES else f"client-{int(key)}.journal")

    def _load(self) -> None:
        states = self._path(_STATES)
        if states.exists():
            for frame_type, record in self._records(states, _STATE_RECORDS):
                state_id = record["state_id"]
                if frame_type == MSG_STATE:
                    self._states[state_id] = record["blob"]
                else:
                    self._states.pop(state_id, None)
                self.high_state_id = max(self.high_state_id, state_id)
        for path in sorted(self.directory.glob("client-*.journal")):
            try:
                client_id = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            pending = self._pending.setdefault(client_id, {})
            for frame_type, record in self._records(path, _CLIENT_RECORDS):
                seq = record["seq"]
                if frame_type == MSG_TASK:
                    pending[seq] = record["body"]
                else:
                    pending.pop(seq, None)
                self._high[client_id] = max(self._high.get(client_id, 0), seq)

    def _records(self, path: Path, schemas: Dict[int, Schema]):
        """The decoded records of one file's clean prefix, as ``(frame type, fields)``.

        Whatever follows the prefix — a partial frame, a failed CRC, garbage
        — is a crash mid-append (or a torn write): it was never acknowledged,
        so it is cut off the file as well as skipped.
        """
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise JournalError(str(path), f"cannot read: {error}") from error
        reader = FrameReader()
        try:
            frames = reader.feed(raw)
        except FrameError as error:
            frames = error.frames
        if reader.offset < len(raw):
            self.truncated_bytes += len(raw) - reader.offset
            try:
                os.truncate(path, reader.offset)
            except OSError as error:
                raise JournalError(str(path), f"cannot truncate a torn tail: {error}") from error
        for frame_type, payload in frames:
            if frame_type not in schemas:
                raise JournalError(str(path), f"unexpected record type 0x{frame_type:02X}")
            try:
                yield frame_type, schemas[frame_type].unpack(payload)
            except TransportDecodeError as error:
                raise JournalError(str(path), f"undecodable record: {error.reason}") from error

    # -- appending ---------------------------------------------------------------
    def _write(self, handle, key, frame_type: int, fields: dict) -> None:
        schemas = _STATE_RECORDS if key == _STATES else _CLIENT_RECORDS
        for part in frame_parts(frame_type, schemas[frame_type].pack(fields)):
            handle.write(part)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def _append(self, key, frame_type: int, fields: dict) -> None:
        if key not in self._files:
            try:
                self._files[key] = open(self._path(key), "ab")
            except OSError as error:
                raise JournalError(str(self._path(key)), f"cannot open: {error}") from error
        self._write(self._files[key], key, frame_type, fields)

    def _compact(self, key, fields: dict) -> None:
        """Replace a file whose replay set is empty by one ACK of its high-water mark."""
        handle = self._files.pop(key, None)
        if handle is not None:
            handle.close()
        path = self._path(key)
        temp = path.with_name(path.name + ".tmp")
        try:
            with open(temp, "wb") as handle:
                self._write(handle, key, MSG_ACK, fields)
            os.replace(temp, path)
        except OSError as error:
            raise JournalError(str(path), f"cannot compact: {error}") from error

    def record_task(self, client_id: int, seq: int, body: bytes) -> None:
        """Journal a dispatched task (call *before* sending it anywhere)."""
        client_id, seq, body = int(client_id), int(seq), bytes(body)
        self._append(client_id, MSG_TASK, {"seq": seq, "body": body})
        self._pending.setdefault(client_id, {})[seq] = body
        self._high[client_id] = max(self._high.get(client_id, 0), seq)

    def record_ack(self, client_id: int, seq: int) -> None:
        """Journal that ``seq``'s update is folded; the task leaves replay (the last compacts)."""
        client_id, seq = int(client_id), int(seq)
        pending = self._pending.setdefault(client_id, {})
        high = max(self._high.get(client_id, 0), seq)
        if pending.keys() <= {seq}:
            self._compact(client_id, {"seq": high})
        else:
            self._append(client_id, MSG_ACK, {"seq": seq})
        pending.pop(seq, None)
        self._high[client_id] = high

    def record_state(self, state_id: int, blob: bytes) -> None:
        """Journal an encoded state carrier, once, before any task names it."""
        state_id, blob = int(state_id), bytes(blob)
        self._append(_STATES, MSG_STATE, {"state_id": state_id, "blob": blob})
        self._states[state_id] = blob
        self.high_state_id = max(self.high_state_id, state_id)

    def release_state(self, state_id: int) -> None:
        """Journal that no pending task names ``state_id`` any more (the last compacts)."""
        state_id = int(state_id)
        high = max(self.high_state_id, state_id)
        if self._states.keys() <= {state_id}:
            self._compact(_STATES, {"state_id": high})
        else:
            self._append(_STATES, MSG_ACK, {"state_id": state_id})
        self._states.pop(state_id, None)
        self.high_state_id = high

    # -- queries -----------------------------------------------------------------
    def pending(self, client_id: int) -> Dict[int, bytes]:
        """Un-acked task records for one client (``seq -> body``, a copy)."""
        return dict(self._pending.get(int(client_id), {}))

    def pending_after(self, client_id: int, cursor: int) -> List[Tuple[int, bytes]]:
        """Replay set: pending records with ``seq > cursor``, in seq order."""
        pending = self._pending.get(int(client_id), {})
        return sorted(
            ((seq, body) for seq, body in pending.items() if seq > int(cursor)),
            key=lambda item: item[0],
        )

    def high_seq(self, client_id: int) -> int:
        """Highest seq ever journaled for a client (0 if none)."""
        return self._high.get(int(client_id), 0)

    def state(self, state_id: int) -> Optional[bytes]:
        """The encoded carrier of a live state (``None`` once released)."""
        return self._states.get(int(state_id))

    def close(self) -> None:
        files, self._files = self._files, {}
        for handle in files.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def __enter__(self) -> "MessageJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["MessageJournal"]
