"""Write-ahead journal + checkpoint/recover for the sharded database.

Directory layout of one durability root::

    <root>/
        JOURNAL.json              # config manifest (shard count, routing tags)
        CHECKPOINT                # atomic pointer: newest generation + record count
        wal/shard-<i>.wal         # one append-only segment per shard
        checkpoints/gen-<NNNNNN>/ # bounded snapshot generations (db.save format)

Invariants, in write order:

1. **Write-ahead, one entry per run.**  ``ShardedPerformanceDatabase.add``
   routes a run of consecutive records with one routing key to one
   shard, stages its records and commits them as *one* entry (the first
   record's *global* sequence number, the shard, the routing key, the
   run's tags once when its records share one tags dict, and one body
   per record) before any record of the run mutates memory.  A run is
   all-or-nothing: a torn or failed commit applies none of its records
   and the torn entry is unreadable, so memory never holds more or less
   than the journal.  The segment truncates the torn bytes away before
   its next append, so later entries stay readable.
2. **Atomic checkpoint.**  ``checkpoint()`` snapshots into a temp
   directory, renames it into place, atomically updates the
   ``CHECKPOINT`` pointer, *then* truncates the segments and prunes old
   generations.  A crash between any two steps is recoverable: either
   the pointer still names the old generation (journal replays on top of
   it), or it names the new one (leftover pre-checkpoint journal entries
   are absorbed duplicates and dropped by sequence number).
3. **Recovery never raises on torn state.**  :func:`recover` loads the
   newest *valid* generation (falling back to older ones on
   :class:`SnapshotCorruptError`), replays the longest contiguous chain
   of whole entries from the segments (each entry one run, its records
   around one shared tags dict when the entry carries one), rewrites the
   segments with the surviving entries' bytes to drop everything it
   discarded, and re-attaches the journal — so the returned database is
   bit-identical to some completed-run prefix of the crashed process and
   new appends can never collide with ghosts.  An entry holding one
   ``"record"`` (the format before entries held runs) replays as a
   one-record run.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

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
#: A record that contains itself fails with ``RecursionError``, before
#: anything is written.
_ENTRY_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)

#: Metric values ``EvaluationRecord.to_dict`` stores as plain floats.
_NUMBERS = (bool, int, float, np.number, np.bool_)


def _body(record: EvaluationRecord) -> Dict[str, Any]:
    """A record's entry body: the values ``to_dict`` gives, less the tags,
    without its copies (the metrics dict is rebuilt only when a value is
    not a plain float)."""
    metrics = record.metrics
    for value in metrics.values():
        if type(value) is not float:
            metrics = {k: float(v) if isinstance(v, _NUMBERS) else v for k, v in metrics.items()}
            break
    return {
        "config": record.config,
        "metrics": metrics,
        "objective": float(record.objective),
        "elapsed_s": float(record.elapsed_s),
        "feasible": bool(record.feasible),
    }


def _entry_records(entry: Mapping[str, Any]) -> List[EvaluationRecord]:
    """The run of records one decoded entry holds.

    Records of an entry carrying ``tags`` share one tags dict, as the
    records of a live ``tuning.tell`` do; an entry holding one
    ``"record"`` (the format before entries held runs) is a one-record run.
    """
    if "record" in entry:
        return [EvaluationRecord.from_dict(entry["record"])]
    tags = entry.get("tags")
    if tags is not None:
        tags = dict(tags)
    return [EvaluationRecord.from_dict(body, tags=tags) for body in entry["records"]]


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
    ``append_record(shard, seq, record, key)`` (stage one record of a
    run), ``commit(shard)`` (write the staged run as one entry) and
    ``checkpoint(db)``.  The database stages a run and commits it before
    staging the next, so at most one run is staged at a time.
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
        self.appended = 0  # records committed through this handle
        #: False once closed; the database then skips the tee entirely.
        #: A plain attribute, not a property — ``add`` reads it on every
        #: run and a descriptor call there costs ~10% of a hot add.
        self.enabled = bool(self._segments)
        #: The staged run: its records, and the shard, first sequence
        #: number and routing key of its first record.
        self._run: List[EvaluationRecord] = []
        self._run_shard, self._run_seq, self._run_key = -1, -1, ""

    # -- journal protocol (consumed by ShardedPerformanceDatabase) ---------
    @property
    def n_shards(self) -> int:
        return len(self._segments)

    # repro-lint: hot
    def append_record(
        self, shard: int, seq: int, record: EvaluationRecord, key: str
    ) -> None:
        """Stage one record of a run ahead of its in-memory add.

        ``seq`` is the record's *global* sequence number; replay uses it
        to stitch the per-shard segments back into one total order and to
        drop entries already absorbed by a checkpoint.  A run's records
        have consecutive sequence numbers, one shard and one key; a record
        that does not continue the staged run starts a new one, so a run
        whose staging was cut short never reaches disk.  The run is
        written by the next :meth:`commit` of its shard.
        """
        run = self._run
        if run and (
            seq != self._run_seq + len(run) or shard != self._run_shard or key != self._run_key
        ):
            run.clear()
        if not run:
            self._run_shard, self._run_seq, self._run_key = shard, seq, key
        run.append(record)

    def commit(self, shard: int) -> None:
        """Write the staged run of ``shard`` as one entry and commit it.

        The run is encoded once (its tags once when every record shares
        one tags dict), framed, checked by the fault injector, written
        and flushed (fsynced under ``"always"``) as one entry.  The stage
        is emptied first, so a commit that raises — a torn write, an
        unencodable value — leaves nothing staged and writes no readable
        entry.
        """
        run = self._run
        if not run or self._run_shard != shard:
            return
        self._run = []
        tags = run[0].tags
        entry: Dict[str, Any] = {
            "seq": int(self._run_seq),
            "shard": int(shard),
            "key": str(self._run_key),
        }
        bodies = [_body(record) for record in run]
        if all(record.tags is tags for record in run):
            entry["tags"] = tags
        else:
            for body, record in zip(bodies, run):
                body["tags"] = record.tags
        entry["records"] = bodies
        segment = self._segments[shard]
        segment.append(_ENTRY_ENCODER.encode(entry).encode("utf-8"))
        segment.commit()
        self.appended += len(run)

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
        ``absorbed_entries``: the journaled records the snapshot absorbed,
        counted per record although an entry holds a run, snapshot path).
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
        self._run = []
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
    completed-run prefix: the newest valid checkpoint plus the longest
    contiguous chain of intact journal entries after it, each entry
    added as one run.  Torn or corrupt tails, absorbed duplicates, and
    sequence gaps are silently dropped — and physically rewritten out of
    the segments, so post-recovery appends continue from a clean tail.
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

    # Decode every intact entry across the per-shard segments: entry
    # ``seq`` holds the run of records ``[seq, seq + len(run))``.
    by_seq: Dict[int, Tuple[int, str, bytes, List[EvaluationRecord]]] = {}
    for shard in range(config["n_shards"]):
        for payload in read_entries(_segment_path(directory, shard)):
            try:
                entry = json.loads(payload.decode("utf-8"))
                seq = int(entry["seq"])
                key = str(entry["key"])
                in_place = int(entry.get("shard", shard)) == shard
                run = _entry_records(entry)
            except (ValueError, KeyError, TypeError):
                continue  # checksummed but structurally alien: drop
            if run and in_place:  # else empty, or in the wrong segment: drop
                by_seq[seq] = (shard, key, payload, run)

    # Replay the longest contiguous chain of whole entries starting at the
    # snapshot length; entries below it were absorbed by the checkpoint,
    # gaps end the chain.
    surviving: List[List[bytes]] = [[] for _ in range(config["n_shards"])]
    replayed = 0
    seq = len(db)
    while seq in by_seq:
        shard, key, payload, run = by_seq[seq]
        db.add(*run, shard_key=key)
        surviving[shard].append(payload)
        replayed += len(run)
        seq += len(run)

    # Rewrite segments with exactly the surviving entries' bytes so
    # discarded sequence numbers can never be shadowed by pre-crash ghosts.
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
        journal.appended = replayed  # records the next checkpoint absorbs
        db.attach_journal(journal)
    return db
