"""Crash-safe durability: write-ahead journal, checkpoint/restore, resume.

PR 6 made the stack survive *injected* faults; this subpackage makes it
survive *process death*.  Three layers:

* :mod:`repro.durability.journal` — the binary substrate: append-only,
  length-prefixed + CRC32-checksummed segment files whose every byte
  prefix decodes to a clean prefix of entries (torn tails are detected
  and discarded, never raised),
* :mod:`repro.durability.checkpoint` — :class:`DatabaseJournal` tees
  every ``ShardedPerformanceDatabase.add`` into one segment per shard
  (write-ahead, one entry per committed run of records, all-or-nothing),
  ``checkpoint()`` compacts into atomic bounded snapshot
  generations, and :func:`recover` replays snapshot + journal to a
  bit-identical database,
* :mod:`repro.durability.runlog` — :class:`CampaignJournal`, the
  completed-run log behind ``Campaign.run(..., journal_dir=...)`` and
  the CLI ``--resume`` flag.

Quickstart::

    from repro.durability import attach, recover

    journal = attach(db, "capture.journal")   # every add() now durable
    ...                                        # crash here, any byte
    db = recover("capture.journal")            # completed-record prefix
"""

from repro.durability.checkpoint import DatabaseJournal, attach, recover
from repro.durability.journal import (
    FSYNC_POLICIES,
    JournalSegment,
    JournalTornWriteError,
    encode_entry,
    iter_entries,
    read_entries,
)
from repro.durability.runlog import CampaignJournal
from repro.telemetry.database import SnapshotCorruptError

__all__ = [
    "CampaignJournal",
    "DatabaseJournal",
    "FSYNC_POLICIES",
    "JournalSegment",
    "JournalTornWriteError",
    "SnapshotCorruptError",
    "attach",
    "encode_entry",
    "iter_entries",
    "read_entries",
    "recover",
]
