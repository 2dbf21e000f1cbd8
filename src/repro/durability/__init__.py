"""Crash-safe persistence primitives for every durable surface.

A process can die between any two instructions, and a power loss can
tear a write mid-sector.  Before this layer, every durable surface in
the stack — the interaction-history JSONL, the poller's dead-letter
queue, the index disk cache — wrote in place, so a crash mid-write left
silently corrupt state that only failed (or worse, didn't) at the next
load.  Two primitives close the gap:

* :func:`atomic_write` — snapshot semantics: temp file in the target
  directory, flush + fsync, then an atomic rename.  Readers see either
  the old bytes or the new bytes, never a mix.
* :class:`Journal` — incremental semantics: an append-only log of
  CRC-checksummed, length-framed records.  :func:`recover_journal`
  scans from the start, keeps the longest intact prefix, truncates the
  torn tail, and reports exactly what was dropped.
  :func:`reopen_journal` is how a journaled surface opens: replay the
  intact prefix into it, then append.

Both emit ``repro.durability.*`` metrics and accept the crash-point /
torn-write fault injectors from :mod:`repro.resilience.faults` (duck
typed — this package stays below the resilience layer).
"""

from repro.durability.atomic import atomic_write, atomic_write_json
from repro.durability.journal import (
    Journal,
    RecoveryReport,
    encode_record,
    recover_journal,
    reopen_journal,
    scan_journal,
)

__all__ = [
    "Journal",
    "RecoveryReport",
    "atomic_write",
    "atomic_write_json",
    "encode_record",
    "recover_journal",
    "reopen_journal",
    "scan_journal",
]
