"""Append-only journal with per-record CRC framing and torn-write recovery.

Record layout (one frame per record, bytes)::

    J1 <payload-length> <crc32-hex8>\\n
    <payload bytes>\\n

The payload is canonical JSON (sorted keys, compact separators), so a
record's frame is a pure function of its content.  The header length
bounds the read, the CRC detects corruption, and the trailing newline
distinguishes "payload ends exactly at EOF because the write completed"
from "the file happens to end mid-payload".

Recovery contract: :func:`recover_journal` scans from byte 0 and keeps
the longest prefix of fully intact records.  The first malformed header,
short payload, missing terminator, CRC mismatch, or undecodable payload
stops the scan; everything from that byte onward is dropped (and, by
default, truncated off the file so the journal is clean for appends).
A torn tail can therefore cost at most the records the crash interrupted
— never a record that was previously acknowledged with fsync.
"""

from __future__ import annotations

import fcntl
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Protocol

from repro.errors import ReproError, SimulatedCrashError
from repro.observability.metrics import get_registry

_MAGIC = b"J1"
#: Safety bound on a single record; a header claiming more is corrupt.
MAX_RECORD_BYTES = 64 * 1024 * 1024


class TornWriteHook(Protocol):
    """Duck type for torn-write injectors (see ``repro.resilience.faults``).

    ``intercept(frame)`` returns ``(bytes_to_write, crash)``; when
    ``crash`` is true the journal writes the (possibly cut) bytes and
    then simulates process death.
    """

    def intercept(self, frame: bytes) -> tuple[bytes, bool]: ...


class Journaled(Protocol):
    """A surface whose state is a fold of its journal's records: the
    history store and the poller's dead-letter queue."""

    journal: "Journal | None"

    def replay(self, records: list[dict]) -> None: ...


def encode_record(payload: bytes) -> bytes:
    """Frame one payload: header, payload, terminator."""
    return b"%s %d %08x\n" % (_MAGIC, len(payload), zlib.crc32(payload)) + payload + b"\n"


def encode_json_record(record: dict) -> bytes:
    """Frame one record dict as canonical JSON."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return encode_record(payload)


@dataclass
class RecoveryReport:
    """What a journal scan found: the intact prefix and the dropped tail."""

    path: str
    records: list[dict] = field(default_factory=list)
    intact_bytes: int = 0
    total_bytes: int = 0
    truncated: bool = False
    reason: str = ""

    @property
    def intact_count(self) -> int:
        return len(self.records)

    @property
    def dropped_bytes(self) -> int:
        return self.total_bytes - self.intact_bytes

    def summary(self) -> dict:
        return {
            "path": self.path,
            "records": self.intact_count,
            "intact_bytes": self.intact_bytes,
            "total_bytes": self.total_bytes,
            "dropped_bytes": self.dropped_bytes,
            "truncated": self.truncated,
            "reason": self.reason,
        }


class Journal:
    """Crash-safe append-only record log.

    Appends are acknowledged only after the frame is flushed (and, with
    ``fsync=True``, synced) — an acknowledged record survives any
    subsequent crash, which is the property the recovery tests pin down
    byte by byte.  One writer per file (:func:`reopen_journal` takes
    :meth:`lock`); readers use :func:`scan_journal` /
    :func:`recover_journal`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = True,
        fault: TornWriteHook | None = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.fault = fault
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[bytes] | None = None
        self._closed = False

    def _open(self) -> IO[bytes]:
        """The append handle, opened on first use.  A closed journal has
        given up its lock (:meth:`close`), so it refuses to reopen: an
        append after ``close`` would land beside the next writer's."""
        if self._closed:
            raise ReproError(f"journal {self.path} is closed")
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def lock(self) -> None:
        """Open the append handle and take an exclusive, non-blocking
        ``flock`` on it, held until :meth:`close`: a second live writer
        on the path (this process or another) is refused, not raced."""
        fh = self._open()
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self.close()
            raise ReproError(
                f"journal {self.path} is held by another live writer"
            ) from None

    def append(self, record: dict) -> None:
        """Durably append one record; raises only if the write itself fails."""
        frame = encode_json_record(record)
        crash = False
        if self.fault is not None:
            frame, crash = self.fault.intercept(frame)
        fh = self._open()
        fh.write(frame)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        if crash:
            self.close()
            raise SimulatedCrashError(
                f"simulated crash during journal append to {self.path}"
            )
        get_registry().counter("repro.durability.journal_appends").inc()

    def close(self) -> None:
        self._closed = True
        if self._fh is not None:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def scan_journal(path: str | Path) -> RecoveryReport:
    """Read the longest intact record prefix; never modifies the file.

    A missing file scans as an empty, clean journal — recovery after a
    crash that preceded the first append is a no-op, not an error.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        return RecoveryReport(path=str(p))
    report = RecoveryReport(path=str(p), total_bytes=len(data))
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            report.reason = f"torn header at byte {pos}"
            break
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != _MAGIC:
            report.reason = f"malformed header at byte {pos}"
            break
        try:
            length = int(parts[1])
            crc = int(parts[2], 16)
        except ValueError:
            report.reason = f"malformed header at byte {pos}"
            break
        if not 0 <= length <= MAX_RECORD_BYTES:
            report.reason = f"implausible record length {length} at byte {pos}"
            break
        start, end = nl + 1, nl + 1 + length
        if end >= len(data) or data[end : end + 1] != b"\n":
            report.reason = f"torn record at byte {pos}"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            report.reason = f"checksum mismatch at byte {pos}"
            break
        try:
            record = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            report.reason = f"undecodable payload at byte {pos}"
            break
        report.records.append(record)
        pos = end + 1
    report.intact_bytes = pos
    report.truncated = pos < len(data)
    return report


def recover_journal(
    path: str | Path, *, truncate: bool = True, fsync: bool = True
) -> RecoveryReport:
    """Scan ``path``, truncate the torn tail, and account the damage.

    Metrics: ``repro.durability.journal_recoveries`` per call,
    ``journal_records_recovered`` for the intact prefix,
    ``journal_bytes_dropped`` / ``journal_truncations`` for the tail —
    the loss is observable, never silent.  ``truncate=False`` reports
    without touching the file.
    """
    report = scan_journal(path)
    registry = get_registry()
    registry.counter("repro.durability.journal_recoveries").inc()
    registry.counter("repro.durability.journal_records_recovered").inc(
        report.intact_count
    )
    if report.truncated:
        registry.counter("repro.durability.journal_truncations").inc()
        registry.counter("repro.durability.journal_bytes_dropped").inc(
            report.dropped_bytes
        )
        if truncate:
            with open(path, "rb+") as fh:
                fh.truncate(report.intact_bytes)
                fh.flush()
                if fsync:
                    os.fsync(fh.fileno())
    return report


def reopen_journal(
    target: Journaled, path: str | Path, *, fsync: bool = True
) -> RecoveryReport:
    """The one way a journaled surface opens on ``path``.

    Recover the journal (keep the intact prefix, truncate the torn
    tail), replay that prefix into ``target``, then attach the journal,
    so the first new frame lands right after the last intact one and a
    second process on the same path resumes the first one's state.
    Replay runs before the attach, so a fold that goes through the
    target's own journaled mutators writes nothing back.

    One writer per path: the journal is locked (:meth:`Journal.lock`)
    before anything is recovered or truncated, so opening a path whose
    earlier writer is still live raises :class:`ReproError` and leaves
    the file untouched; the lock goes with :meth:`Journal.close`.
    """
    if target.journal is not None:
        raise ReproError(f"{type(target).__name__} already has a journal attached")
    journal = Journal(path, fsync=fsync)
    journal.lock()
    try:
        report = recover_journal(path, fsync=fsync)
        target.replay(report.records)
    except BaseException:
        journal.close()
        raise
    target.journal = journal
    return report
