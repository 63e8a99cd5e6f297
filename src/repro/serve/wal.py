"""Request write-ahead log for the ``repro serve`` daemon.

The durability contract, in one sentence: **nothing is acknowledged
before it is fsynced**.  Every admitted :class:`ScheduleRequest` is
assigned an idempotency key (client-supplied or server-generated) and
written to this append-only log *before* the ``accepted`` frame
crosses the socket; every block result and every shed decision is
written before its frame; the terminal summary is written before the
``done`` frame.  A daemon that dies at any instant therefore leaves a
WAL from which the next generation can answer exactly the question a
retrying client asks: "did my acknowledged work survive?"

Record types (all v2 CRC frames from :mod:`repro.runner.journal`):

* ``wal-header`` -- file identity, written once at creation;
* ``accepted`` -- key, request message, block count (pre-ack fsync);
* ``block-done`` -- key, block index, the full block record;
* ``block-shed`` -- key, block index, shed reason;
* ``finished`` -- key, terminal status (``ok`` / ``error`` /
  ``abandoned``) and summary.

Request tracing rides along for free: a traced request's ``accepted``
record carries the client-minted ``trace`` id inside its stored
request message, and every ``block-done`` record's block dict is
stamped with the same id by the engine -- so a post-mortem WAL read
(or ``repro fsck``) can attribute every fsynced block to the exact
client request that caused it.  Records from before the field
existed have no ``trace`` key and replay unchanged.

Recovery (:meth:`WriteAheadLog.open`) replays the log into a
:class:`WalRecovery`: finished keys become the dedup index (resending
a finished key streams the recorded result -- exactly-once results),
unfinished keys become re-enqueued work with their already-recorded
blocks passed as ``completed`` so nothing is scheduled twice
(at-least-once execution).  A torn final write is truncated off the
file (counted in ``dropped``); any *interior* damage is a typed
:class:`~repro.errors.JournalError` -- a daemon must not append after
corruption it cannot explain.
"""

from __future__ import annotations

import os
import threading

from repro.errors import JournalError
from repro.runner.journal import (
    DAMAGE_TORN_TAIL,
    frame_record,
    parse_record_line,
    scan_lines,
)

_WAL_VERSION = 2

#: terminal request statuses a ``finished`` record may carry
FINISHED_OK = "ok"
FINISHED_ERROR = "error"
FINISHED_ABANDONED = "abandoned"
FINISHED_STATUSES = (FINISHED_OK, FINISHED_ERROR, FINISHED_ABANDONED)


class WalRecovery:
    """What a WAL scan found: the dedup index plus unfinished work.

    Attributes:
        finished: ``{key: {"status", "summary", "blocks", "sheds",
            "request"}}`` for every key with a terminal record --
            the exactly-once answer store.
        incomplete: ``[{"key", "request", "blocks", "sheds"}]`` for
            accepted-but-unfinished keys, in acceptance order --
            the at-least-once work queue (``blocks`` maps index ->
            recorded block record, ``sheds`` maps index -> reason).
        dropped: torn-tail lines truncated off the file.
        replayed: records read back successfully.
    """

    def __init__(self) -> None:
        self.finished: dict[str, dict] = {}
        self.incomplete: list[dict] = []
        self.dropped = 0
        self.replayed = 0

    @staticmethod
    def completed_map(entry: dict) -> dict[int, dict]:
        """An incomplete entry's blocks+sheds as an engine
        ``completed`` map (shed markers carry ``type: shed``)."""
        merged: dict[int, dict] = dict(entry["blocks"])
        for index, reason in entry["sheds"].items():
            merged.setdefault(index, {"type": "shed", "index": index,
                                      "reason": reason})
        return merged


class WriteAheadLog:
    """Append-only, fsync-on-append request log.

    Appends are serialised by a lock so engine worker threads and the
    asyncio loop can both write.  Use :meth:`open` -- it performs
    recovery (and torn-tail truncation) before handing out a handle,
    so a live WAL is always clean behind its write position.
    """

    def __init__(self, path: str, handle) -> None:
        self.path = path
        self._handle = handle
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> tuple["WriteAheadLog", WalRecovery]:
        """Open (creating if absent) and recover a WAL.

        Returns:
            ``(wal, recovery)``; the file is truncated just past its
            last complete record if the previous owner died mid-write.

        Raises:
            JournalError: for interior corruption (CRC mismatch,
                truncated frame, blank line) -- run ``repro fsck``.
        """
        recovery = WalRecovery()
        if os.path.exists(path):
            keep_bytes = cls._recover(path, recovery)
            if keep_bytes is not None:
                with open(path, "r+b") as raw:
                    raw.truncate(keep_bytes)
                    raw.flush()
                    os.fsync(raw.fileno())
            handle = open(path, "a", encoding="utf-8")
            if handle.tell() == 0:
                cls._write_header(handle)
        else:
            handle = open(path, "a", encoding="utf-8")
            cls._write_header(handle)
        return cls(path, handle), recovery

    @staticmethod
    def _write_header(handle) -> None:
        handle.write(frame_record(
            {"type": "wal-header", "version": _WAL_VERSION}) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    @classmethod
    def _recover(cls, path: str, recovery: WalRecovery) -> int | None:
        """Scan ``path`` into ``recovery``.

        Returns:
            A byte offset to truncate the file to (torn tail found),
            or None when the file needs no surgery.
        """
        with open(path, "rb") as raw:
            data = raw.read()
        if not data:
            return None
        raw_lines = data.split(b"\n")
        # A file ending in "\n" yields a trailing empty chunk that is
        # not a line; keep it out of the scan.
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        offsets: list[int] = []
        position = 0
        text_lines: list[str] = []
        for chunk in raw_lines:
            offsets.append(position)
            position += len(chunk) + 1
            text_lines.append(chunk.decode("utf-8", errors="replace"))
        header, kind, detail = parse_record_line(text_lines[0]) \
            if text_lines else (None, None, "")
        if header is None or header.get("type") != "wal-header":
            if len(text_lines) <= 1:
                # A daemon killed mid-header-write left only a torn
                # fragment: start the file over.
                recovery.dropped += 1 if text_lines else 0
                return 0
            raise JournalError(
                f"{path!r} is not a serve WAL (bad header: "
                f"{kind or 'wrong type'}: {detail})")
        records, damage = scan_lines(text_lines[1:], first_lineno=2)
        truncate_at: int | None = None
        for defect in damage:
            if defect.kind == DAMAGE_TORN_TAIL:
                recovery.dropped += 1
                truncate_at = offsets[defect.lineno - 1]
                continue
            raise JournalError(
                f"WAL {path!r} is corrupt at line {defect.lineno}: "
                f"{defect.kind}: {defect.detail}; run 'repro fsck' "
                f"before restarting the daemon")
        accepted: dict[str, dict] = {}
        order: list[str] = []
        for lineno, record in records:
            recovery.replayed += 1
            rtype = record.get("type")
            key = record.get("key")
            if rtype == "accepted":
                if not isinstance(key, str):
                    raise JournalError(
                        f"WAL {path!r} accepted record at line "
                        f"{lineno} has no key")
                if key in accepted:
                    continue  # keep the first accept's recorded work
                accepted[key] = {"key": key,
                                 "request": record.get("request", {}),
                                 "blocks": {}, "sheds": {}}
                order.append(key)
            elif rtype == "block-done":
                entry = accepted.get(key)
                if entry is not None:
                    entry["blocks"][int(record["index"])] = \
                        record.get("block", {})
            elif rtype == "block-shed":
                entry = accepted.get(key)
                if entry is not None:
                    entry["sheds"][int(record["index"])] = \
                        str(record.get("reason", "unknown"))
            elif rtype == "finished":
                entry = accepted.pop(key, None)
                if key in order:
                    order.remove(key)
                recovery.finished[key] = {
                    "status": record.get("status", FINISHED_OK),
                    "summary": record.get("summary", {}),
                    "blocks": entry["blocks"] if entry else {},
                    "sheds": entry["sheds"] if entry else {},
                    "request": entry["request"] if entry else {},
                }
            else:
                raise JournalError(
                    f"WAL {path!r} has an unknown record type "
                    f"{rtype!r} at line {lineno}")
        recovery.incomplete = [accepted[key] for key in order]
        return truncate_at

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    # -- appends (all fsync before returning) --------------------------------

    def _append(self, record: dict) -> None:
        with self._lock:
            if self._handle.closed:
                # A wedged engine thread completing after the drain
                # backstop closed the file; its request was already
                # terminated as abandoned.
                return
            self._handle.write(frame_record(record) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def log_accepted(self, key: str, request_message: dict,
                     n_blocks: int) -> None:
        """Fsync the acceptance BEFORE the accepted frame is sent."""
        self._append({"type": "accepted", "key": key,
                      "n_blocks": n_blocks,
                      "request": request_message})

    def log_block(self, key: str, record: dict) -> None:
        """Fsync one block result BEFORE its frame is sent."""
        self._append({"type": "block-done", "key": key,
                      "index": int(record["index"]), "block": record})

    def log_shed(self, key: str, index: int, reason: str) -> None:
        """Fsync one shed decision BEFORE its frame is sent."""
        self._append({"type": "block-shed", "key": key,
                      "index": int(index), "reason": reason})

    def log_finished(self, key: str, status: str,
                     summary: dict | None = None) -> None:
        """Fsync the terminal record BEFORE the done/error frame."""
        if status not in FINISHED_STATUSES:
            raise ValueError(f"bad finished status {status!r}")
        self._append({"type": "finished", "key": key,
                      "status": status, "summary": summary or {}})
