"""Append-only, checksummed write-ahead journal segments.

The binary substrate of ``repro.durability``: a *segment* is a flat file
of length-prefixed, CRC32-checksummed entries::

    +----------------+----------------+------------------+
    | length (u32 BE)| crc32  (u32 BE)| payload (length) |
    +----------------+----------------+------------------+

Payloads are opaque bytes to this layer (the database journal stores
UTF-8 JSON).  The format is chosen for exactly one property: **any byte
prefix of a valid segment decodes to a prefix of its entries**.  A
process killed mid-append leaves a torn tail — a truncated header, a
short payload, or a payload whose checksum no longer matches — and
:func:`iter_entries` detects all three, discards the tail, and returns
the completed entries cleanly.  Corruption is never an exception on the
read path; it is simply where the journal ends.

Writes go through :class:`JournalSegment`, which consults the
process-global fault injector (``repro.faults``) once per entry so chaos
plans can tear writes (simulating a crash mid-append, raised as
:class:`JournalTornWriteError`) or stall the disk.  ``append`` writes an
entry and ``commit`` makes it visible to readers (and durable, under the
``"always"`` fsync policy).  The database journal writes one entry per
committed run of records, so one ``append`` and one ``commit`` carry a
whole ``tuning.tell``.

A torn entry stays on disk, so a reader (or a recovery right after the
tear) sees a torn tail.  A writer that keeps going after the error does
not write behind it: the segment's next ``append`` first truncates the
file back to where the torn entry began, so every later entry stays
readable.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import BinaryIO, Iterator, List, Optional

from repro.faults import injector as faults

__all__ = [
    "FSYNC_POLICIES",
    "JournalSegment",
    "JournalTornWriteError",
    "encode_entry",
    "iter_entries",
    "read_entries",
]

_HEADER = struct.Struct(">II")

#: Sanity bound on one entry; a length prefix beyond this is corruption,
#: not a record (keeps a flipped length byte from allocating gigabytes).
MAX_ENTRY_BYTES = 64 * 1024 * 1024

#: ``always`` — fsync on every :meth:`JournalSegment.commit` (strongest;
#: one syscall per committed entry, which holds a run of records).
#: ``batch`` — flush to the OS on every commit, fsync only on
#: :meth:`JournalSegment.sync` / close / checkpoint (a kill loses at most
#: the OS buffer, a torn tail recovery already handles).
FSYNC_POLICIES = ("always", "batch")


class JournalTornWriteError(OSError):
    """A fault-injected torn journal append (simulated crash mid-write).

    Raised *after* the partial bytes hit the file, mirroring what a real
    process death leaves behind; the caller should treat it as fatal for
    the writing process and recover from the journal.
    """


def encode_entry(payload: bytes) -> bytes:
    """One wire entry: length prefix + CRC32 + payload."""
    if len(payload) > MAX_ENTRY_BYTES:
        raise ValueError(
            f"journal entry of {len(payload)} bytes exceeds the "
            f"{MAX_ENTRY_BYTES}-byte bound"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def iter_entries(path: str) -> Iterator[bytes]:
    """Yield completed entry payloads; stop cleanly at a torn/corrupt tail.

    Every stop condition — missing file, truncated header, implausible
    length, short payload, checksum mismatch — ends the iteration without
    raising.  What was yielded is exactly the completed-entry prefix.
    """
    try:
        fh: BinaryIO = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        while True:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return  # clean EOF or torn header
            length, checksum = _HEADER.unpack(header)
            if not 0 < length <= MAX_ENTRY_BYTES:
                return  # corrupt length prefix
            payload = fh.read(length)
            if len(payload) < length:
                return  # torn payload
            if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
                return  # bit rot / overwritten tail
            yield payload


def read_entries(path: str) -> List[bytes]:
    """All completed entry payloads of one segment (torn tail discarded)."""
    return list(iter_entries(path))


class JournalSegment:
    """One append handle on a segment file, with fsync policy and chaos.

    ``name`` identifies the segment to the fault injector's per-entity
    RNG streams, so torn-write/stall decisions replay bit-for-bit.
    After a torn append, ``_torn_at`` holds the file size before the torn
    entry until the next :meth:`append` truncates back to it.
    """

    def __init__(self, path: str, fsync: str = "batch", name: Optional[str] = None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; available: {FSYNC_POLICIES}"
            )
        self.path = path
        self.fsync = fsync
        self.name = name if name is not None else os.path.basename(path)
        self._fh: Optional[BinaryIO] = open(path, "ab")
        self._torn_at: Optional[int] = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _chaos(self, data: bytes) -> None:
        """Consult the fault injector: maybe stall, maybe tear this write.

        A torn write flushes everything appended before it, so the entries
        ahead of the tear are on disk when :class:`JournalTornWriteError`
        reaches the caller, and marks where the torn entry began.
        """
        inj = faults.active()
        if inj is None or not inj.enabled:
            return
        stall_s = inj.disk_stall(self.name)
        if stall_s is not None and stall_s > 0.0:
            time.sleep(stall_s)
        torn_fraction = inj.journal_torn_write(self.name)
        if torn_fraction is not None:
            cut = max(1, min(len(data) - 1, int(len(data) * torn_fraction)))
            self._fh.flush()
            self._torn_at = os.fstat(self._fh.fileno()).st_size
            self._fh.write(data[:cut])
            self._fh.flush()
            raise JournalTornWriteError(
                f"chaos: torn journal write on {self.name!r} "
                f"({cut}/{len(data)} bytes persisted)"
            )

    # repro-lint: hot
    def append(self, payload: bytes) -> None:
        """Write one framed entry; it is not flushed until :meth:`commit`.

        Write-ahead: a caller appends and commits an entry before it
        applies its records in memory.  After a torn append, the file is
        first truncated back to where the torn entry began and the handle
        moved there (a handle :meth:`truncate` reopened is not in append
        mode).
        """
        if self._fh is None:
            raise ValueError(f"journal segment {self.path!r} is closed")
        if self._torn_at is not None:
            os.ftruncate(self._fh.fileno(), self._torn_at)
            self._fh.seek(self._torn_at)
            self._torn_at = None
        data = encode_entry(payload)
        self._chaos(data)
        self._fh.write(data)

    def commit(self) -> None:
        """Flush the appended entries to the OS (fsync them under ``"always"``)."""
        if self._fh is None:
            raise ValueError(f"journal segment {self.path!r} is closed")
        self._fh.flush()
        if self.fsync == "always":
            os.fsync(self._fh.fileno())

    def sync(self) -> None:
        """Flush + fsync whatever has been appended so far."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Drop every entry (used after a checkpoint absorbs them)."""
        if self._fh is None:
            raise ValueError(f"journal segment {self.path!r} is closed")
        self._fh.close()
        self._fh = open(self.path, "wb")
        self._torn_at = None
        self._fh.flush()
        if self.fsync == "always":
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync and close; a torn entry stays on disk as the tail."""
        self._torn_at = None
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def rewrite_segment(path: str, payloads: List[bytes]) -> None:
    """Atomically replace a segment with exactly ``payloads``.

    Recovery uses this to drop discarded (non-contiguous or torn) tail
    entries from disk, so a later append at the same sequence number can
    never collide with a ghost of the pre-crash run.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for payload in payloads:
            fh.write(encode_entry(payload))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
