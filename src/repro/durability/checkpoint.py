"""Write-ahead journal + checkpoint/recover for the sharded database.

Directory layout of one durability root::

    <root>/
        JOURNAL.json              # config manifest (shard count, routing tags)
        CHECKPOINT                # atomic pointer: newest generation + record count
        wal/shard-<i>.wal         # one append-only segment per shard
        checkpoints/gen-<NNNNNN>/ # bounded snapshot generations (db.save format)

Invariants, in write order:

1. **Write-ahead, per run.**  ``ShardedPerformanceDatabase.add`` routes
   a run of consecutive records with one routing key to one shard,
   appends one entry per record (with its *global* sequence number and
   routing key) and commits the segment once before any record of the
   run mutates memory.  A crash leaves at worst a torn tail entry; a
   torn entry inside a run leaves the records before it applied and the
   rest not, so memory never holds less than the journal.
2. **Atomic checkpoint.**  ``checkpoint()`` snapshots into a temp
   directory, renames it into place, atomically updates the
   ``CHECKPOINT`` pointer, *then* truncates the segments and prunes old
   generations.  A crash between any two steps is recoverable: either
   the pointer still names the old generation (journal replays on top of
   it), or it names the new one (leftover pre-checkpoint journal entries
   are absorbed duplicates and dropped by sequence number).
3. **Recovery never raises on torn state.**  :func:`recover` loads the
   newest *valid* generation (falling back to older ones on
   :class:`SnapshotCorruptError`), replays the longest contiguous
   completed-entry run from the segments, rewrites the segments to drop
   everything it discarded, and re-attaches the journal — so the
   returned database is bit-identical to some completed-record prefix of
   the crashed process and new appends can never collide with ghosts.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.journal import (
    FSYNC_POLICIES,
    JournalSegment,
    read_entries,
    rewrite_segment,
)
from repro.telemetry.database import (
    EvaluationRecord,
    SnapshotCorruptError,
    atomic_write_text,
)
from repro.telemetry.sharding import ShardedPerformanceDatabase

__all__ = ["DatabaseJournal", "attach", "recover"]

_CONFIG = "JOURNAL.json"
_POINTER = "CHECKPOINT"
_WAL_DIR = "wal"
_CKPT_DIR = "checkpoints"
_GEN_PREFIX = "gen-"

#: The journal's entry encoder: compact separators, built once (a
#: ``json.dumps`` call with any option builds a new encoder each time).
_ENTRY_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _segment_path(root: str, shard: int) -> str:
    return os.path.join(root, _WAL_DIR, f"shard-{shard}.wal")


def _generation_dir(root: str, generation: int) -> str:
    return os.path.join(root, _CKPT_DIR, f"{_GEN_PREFIX}{generation:06d}")


def _list_generations(root: str) -> List[int]:
    """Existing (fully renamed) generation numbers, ascending."""
    ckpt_dir = os.path.join(root, _CKPT_DIR)
    generations: List[int] = []
    if os.path.isdir(ckpt_dir):
        for entry in os.listdir(ckpt_dir):
            if entry.startswith(_GEN_PREFIX):
                try:
                    generations.append(int(entry[len(_GEN_PREFIX):]))
                except ValueError:
                    continue
    return sorted(generations)


class DatabaseJournal:
    """The durability root's write side: per-shard WAL + checkpointing.

    Implements the protocol ``ShardedPerformanceDatabase`` expects of an
    attached journal: ``enabled``, ``n_shards``,
    ``append_record(shard, seq, record, key)``, ``commit(shard)`` and
    ``checkpoint(db)``.
    """

    def __init__(
        self,
        directory: str,
        n_shards: int,
        fsync: str = "batch",
        keep_generations: int = 2,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; available: {FSYNC_POLICIES}"
            )
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.directory = os.path.abspath(directory)
        self.fsync = fsync
        self.keep_generations = keep_generations
        os.makedirs(os.path.join(self.directory, _WAL_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.directory, _CKPT_DIR), exist_ok=True)
        self._segments: List[JournalSegment] = [
            JournalSegment(
                _segment_path(self.directory, shard),
                fsync=fsync,
                name=f"shard-{shard}.wal",
            )
            for shard in range(n_shards)
        ]
        self.appended = 0  # entries written through this handle
        #: False once closed; the database then skips the tee entirely.
        #: A plain attribute, not a property — ``add`` reads it on every
        #: record and a descriptor call there costs ~10% of a hot add.
        self.enabled = bool(self._segments)

    # -- journal protocol (consumed by ShardedPerformanceDatabase) ---------
    @property
    def n_shards(self) -> int:
        return len(self._segments)

    # repro-lint: hot
    def append_record(
        self, shard: int, seq: int, record: Dict[str, Any], key: str
    ) -> None:
        """Write one record's entry ahead of its in-memory add.

        ``seq`` is the record's *global* sequence number; replay uses it
        to stitch the per-shard segments back into one total order and to
        drop entries already absorbed by a checkpoint.  The entry reaches
        disk on the next :meth:`commit` of its shard.
        """
        payload = _ENTRY_ENCODER.encode(
            {"seq": int(seq), "shard": int(shard), "key": str(key), "record": record}
        ).encode("utf-8")
        self._segments[shard].append(payload)
        self.appended += 1

    def commit(self, shard: int) -> None:
        """Commit the entries written to one shard's segment (group commit)."""
        self._segments[shard].commit()

    def sync(self) -> None:
        """fsync every segment (a batch-policy barrier)."""
        for segment in self._segments:
            segment.sync()

    # -- checkpointing -----------------------------------------------------
    def checkpoint(
        self,
        db: ShardedPerformanceDatabase,
        keep_generations: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Snapshot ``db`` atomically, truncate the WAL, prune generations.

        Returns a summary dict (generation number, records captured,
        journal entries absorbed, snapshot path).
        """
        if not self.enabled:
            raise ValueError("journal is closed")
        keep = self.keep_generations if keep_generations is None else int(keep_generations)
        if keep < 1:
            raise ValueError("keep_generations must be >= 1")
        existing = _list_generations(self.directory)
        generation = (existing[-1] + 1) if existing else 1
        final_dir = _generation_dir(self.directory, generation)
        tmp_dir = os.path.join(
            self.directory, _CKPT_DIR, f".tmp-{_GEN_PREFIX}{generation:06d}"
        )
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        db.save(tmp_dir)
        os.rename(tmp_dir, final_dir)
        atomic_write_text(
            os.path.join(self.directory, _POINTER),
            json.dumps({"generation": generation, "records": len(db)}),
        )
        absorbed = self.appended
        for segment in self._segments:
            segment.truncate()
        self.appended = 0
        for old in _list_generations(self.directory)[:-keep]:
            shutil.rmtree(_generation_dir(self.directory, old), ignore_errors=True)
        return {
            "generation": generation,
            "records": len(db),
            "absorbed_entries": absorbed,
            "path": final_dir,
        }

    def close(self) -> None:
        self.enabled = False
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "DatabaseJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_config(directory: str, db: ShardedPerformanceDatabase) -> None:
    atomic_write_text(
        os.path.join(directory, _CONFIG),
        json.dumps(
            {
                "name": db.name,
                "n_shards": db.n_shards,
                "shard_key_tags": list(db.shard_key_tags),
            }
        ),
    )


def _read_config(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, _CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        config = json.loads(text)
        return {
            "name": str(config["name"]),
            "n_shards": int(config["n_shards"]),
            "shard_key_tags": [str(tag) for tag in config["shard_key_tags"]],
        }
    except (ValueError, KeyError, TypeError) as error:
        raise SnapshotCorruptError(
            path, f"{type(error).__name__}: {error}"
        ) from error


def attach(
    db: ShardedPerformanceDatabase,
    directory: str,
    fsync: str = "batch",
    keep_generations: int = 2,
) -> DatabaseJournal:
    """Make ``db`` durable under ``directory`` and return the journal.

    Writes the config manifest, opens per-shard segments, and attaches
    the journal so every future ``add`` is write-ahead journaled.  If
    the database already holds records, an immediate checkpoint captures
    them — attach never leaves pre-existing state unrecoverable.
    """
    os.makedirs(directory, exist_ok=True)
    _write_config(directory, db)
    journal = DatabaseJournal(
        directory, db.n_shards, fsync=fsync, keep_generations=keep_generations
    )
    db.attach_journal(journal)
    if len(db):
        journal.checkpoint(db)
    else:
        # A fresh attach over a stale root: drop leftover entries so a
        # later recover cannot replay ghosts this database never held.
        for segment in journal._segments:
            segment.truncate()
    return journal


def _load_checkpoint(
    directory: str, config: Dict[str, Any]
) -> ShardedPerformanceDatabase:
    """Newest loadable generation, or an empty database from the config.

    The ``CHECKPOINT`` pointer names the newest complete generation, but
    recovery trusts nothing: a corrupt snapshot falls back to the
    next-older generation.  Only when *no* generation exists at all does
    the journal alone reconstruct from empty — if generations exist but
    none loads, records the checkpoint absorbed (and truncated out of
    the journal) are gone, and silently returning an empty database
    would hide that loss, so this raises :class:`SnapshotCorruptError`.
    """
    generations = _list_generations(directory)
    last_error: Optional[Exception] = None
    for generation in reversed(generations):
        try:
            return ShardedPerformanceDatabase.load(
                _generation_dir(directory, generation)
            )
        except (SnapshotCorruptError, OSError) as error:
            last_error = error
            continue
    if generations:
        raise SnapshotCorruptError(
            os.path.join(directory, _CKPT_DIR),
            f"none of {len(generations)} checkpoint generation(s) is loadable "
            f"(last error: {last_error})",
        )
    return ShardedPerformanceDatabase(
        n_shards=config["n_shards"],
        name=config["name"],
        shard_key_tags=config["shard_key_tags"],
    )


def recover(
    directory: str,
    fsync: str = "batch",
    keep_generations: int = 2,
    reattach: bool = True,
) -> ShardedPerformanceDatabase:
    """Rebuild the database from snapshot + journal; re-attach by default.

    The result is bit-identical to the crashed writer at some
    completed-record prefix: the newest valid checkpoint plus the
    longest contiguous run of intact journal entries after it.  Torn or
    corrupt tails, absorbed duplicates, and sequence gaps are silently
    dropped — and physically rewritten out of the segments, so
    post-recovery appends continue from a clean tail.
    """
    directory = os.path.abspath(directory)
    config = _read_config(directory)  # FileNotFoundError if not a journal root
    db = _load_checkpoint(directory, config)
    if db.n_shards != config["n_shards"]:
        raise SnapshotCorruptError(
            directory,
            f"checkpoint has {db.n_shards} shards, journal config "
            f"expects {config['n_shards']}",
        )

    # Decode every intact entry across the per-shard segments.
    by_seq: Dict[int, Tuple[int, str, Dict[str, Any]]] = {}
    for shard in range(config["n_shards"]):
        for payload in read_entries(_segment_path(directory, shard)):
            try:
                entry = json.loads(payload.decode("utf-8"))
                seq = int(entry["seq"])
                key = str(entry["key"])
                record = entry["record"]
            except (ValueError, KeyError, TypeError):
                continue  # checksummed but structurally alien: drop
            if int(entry.get("shard", shard)) != shard:
                continue  # entry landed in the wrong segment: drop
            by_seq[seq] = (shard, key, record)

    # Replay the longest contiguous run starting at the snapshot length;
    # entries below it were absorbed by the checkpoint, gaps end the run.
    replayed: List[Tuple[int, str, Dict[str, Any]]] = []
    seq = len(db)
    while seq in by_seq:
        shard, key, record = by_seq[seq]
        db.add(EvaluationRecord.from_dict(record), shard_key=key)
        replayed.append((shard, key, record))
        seq += 1

    # Rewrite segments with exactly the surviving entries so discarded
    # sequence numbers can never be shadowed by pre-crash ghosts.
    surviving: List[List[bytes]] = [[] for _ in range(config["n_shards"])]
    for offset, (shard, key, record) in enumerate(replayed):
        surviving[shard].append(
            _ENTRY_ENCODER.encode(
                {
                    "seq": len(db) - len(replayed) + offset,
                    "shard": shard,
                    "key": key,
                    "record": record,
                }
            ).encode("utf-8")
        )
    os.makedirs(os.path.join(directory, _WAL_DIR), exist_ok=True)
    for shard in range(config["n_shards"]):
        rewrite_segment(_segment_path(directory, shard), surviving[shard])

    if reattach:
        journal = DatabaseJournal(
            directory,
            config["n_shards"],
            fsync=fsync,
            keep_generations=keep_generations,
        )
        journal.appended = len(replayed)  # entries the next checkpoint absorbs
        db.attach_journal(journal)
    return db
