"""Sharded performance database for multi-tenant tuning services.

One in-memory store: :class:`ShardedPerformanceDatabase` is a
:class:`~repro.telemetry.database.PerformanceDatabase` holding every
record once, in global insertion order, plus one column naming each
record's shard.  Writes are routed by a tenant/session key; the shard a
record lands on decides only where it is persisted — its write-ahead
journal segment (``repro.durability``) and its file in a :meth:`save`
snapshot.  Every query is ``PerformanceDatabase``'s own, so a sharded
database answers *bit-identically* to one merged ``PerformanceDatabase``
holding the same records by construction, and the control-plane service
(``repro.service``) can shard its capture transparently.

Routing uses :func:`repro.sim.rng.stable_name_key` (SHA-256), so a key
maps to the same shard in every process and on every platform.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import stable_name_key
from repro.telemetry.database import (
    EvaluationRecord,
    PerformanceDatabase,
    SnapshotCorruptError,
    atomic_write_text,
    read_records,
    records_json,
    shared_tag_runs,
)

__all__ = ["ShardedPerformanceDatabase"]

_MANIFEST = "manifest.json"

#: Cache-miss sentinel for ``best_for`` memoization (``None`` is a valid
#: cached answer: "no record matches these filters").
_ABSENT = object()

#: Distinct ``best_for`` query shapes memoized before the cache resets.
#: Real workloads ask a handful of shapes per tenant; the cap only bounds
#: adversarial churn (memory, and the shapes one ``add`` can visit).
_BEST_CACHE_MAX = 4096

#: Smallest capacity of the per-record shard column; it doubles when full.
_SHARD_CAPACITY = 64

#: A ``best_for`` query shape: (minimize, sorted stringified tag filters).
_Shape = Tuple[bool, Tuple[Tuple[str, str], ...]]


class ShardedPerformanceDatabase(PerformanceDatabase):
    """A ``PerformanceDatabase`` whose records are routed to N shards.

    Writes are routed by ``shard_key`` (or, when absent, by the record's
    ``shard_key_tags`` tag values — tenant/session by default); a
    record's shard picks its journal segment and snapshot file, and every
    query is the one flat database's.
    """

    def __init__(
        self,
        n_shards: int = 4,
        name: str = "sharded",
        shard_key_tags: Sequence[str] = ("tenant", "session"),
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(name)
        self.n_shards = n_shards
        self.shard_key_tags = tuple(shard_key_tags)
        #: Each record's shard, in global order: a growable column whose
        #: first ``len(self)`` entries are live (capacity doubles when
        #: full), so an add is amortised O(1).
        self._shards = np.empty(_SHARD_CAPACITY, dtype=int)
        #: Optional write-ahead journal (``repro.durability``): when
        #: attached and enabled, add() journals each run of records as one
        #: committed entry *before* mutating in-memory state.  ``None``
        #: costs one attribute read per run — the journal-disabled
        #: overhead budget.
        self._journal: Optional[Any] = None
        #: Running best per ``best_for`` query shape, bucketed by the
        #: shape's first sorted filter pair (``None`` for the unfiltered
        #: shape): first pair -> {shape: best record or None}.  Maintained
        #: incrementally by add(), which visits only the buckets its
        #: records' tags name — a repeated ``best_for`` is a dict hit
        #: instead of a scan — and equal to the scan by construction: a
        #: new record only displaces the cached winner when strictly
        #: better, which is exactly the insertion-order tie-breaking the
        #: scan applies (earlier record wins ties).
        self._best_cache: Dict[
            Optional[Tuple[str, str]], Dict[_Shape, Optional[EvaluationRecord]]
        ] = {}
        self._best_cache_shapes = 0

    # -- routing -----------------------------------------------------------
    def routing_key(self, tags: Mapping[str, Any]) -> str:
        """The routing key derived from a record's tags."""
        return "/".join(str(tags.get(key, "")) for key in self.shard_key_tags)

    def shard_index(self, shard_key: str) -> int:
        """Deterministic, process-stable shard for a routing key."""
        return stable_name_key(str(shard_key)) % self.n_shards

    # -- writes ------------------------------------------------------------
    # repro-lint: hot
    def add(self, *records: EvaluationRecord, shard_key: Optional[str] = None) -> int:
        """Route records to their shards; returns the last record's shard
        index (``-1`` when no record is given).

        Consecutive records with one routing key form a run, routed once.
        With a journal attached a run is journaled *first* (write-ahead):
        its records are staged and committed as one entry, and only then
        is the run applied to the store and the ``best_for`` cache.  A
        run is all-or-nothing: a torn or failed commit raises with none
        of its records applied, so recovery always yields a consistent
        completed-run prefix equal to memory.
        """
        shard = -1
        start, count = 0, len(records)
        while start < count:
            tags = records[start].tags
            key = self.routing_key(tags) if shard_key is None else str(shard_key)
            stop = start + 1
            while stop < count and (
                shard_key is not None
                or records[stop].tags is tags
                or self.routing_key(records[stop].tags) == key
            ):
                stop += 1
            shard = self.shard_index(key)
            self._add_run(shard, key, records[start:stop])
            start = stop
        return shard

    def _add_run(self, shard: int, key: str, run: Sequence[EvaluationRecord]) -> None:
        """Journal one routed run as one entry, then apply it in memory.

        Any exception — from staging, encoding, the fault injector or the
        write — propagates before anything is applied, so memory and the
        journal hold the same runs; the next run reuses the sequence
        numbers, which is safe because a failed entry is unreadable and
        the segment truncates a torn one before its next append.
        """
        journal = self._journal
        if journal is not None and journal.enabled:
            for seq, record in enumerate(run, len(self._records)):
                journal.append_record(shard, seq, record, key)
            journal.commit(shard)
        self._apply(shard, run)

    def _apply(self, shard: int, run: Sequence[EvaluationRecord]) -> None:
        """Add a routed run to the store, the shard column and the cache."""
        first = len(self._records)
        PerformanceDatabase.add(self, *run)
        end = first + len(run)
        column = self._shards
        if end > column.shape[0]:
            column = self._shards = np.resize(column, max(_SHARD_CAPACITY, 2 * end))
        column[first:end] = shard
        if self._best_cache:
            for start, stop, tags in shared_tag_runs(run):
                self._update_best_cache(tags, run[start:stop])

    def _update_best_cache(
        self, tags: Mapping[str, Any], records: Sequence[EvaluationRecord]
    ) -> None:
        """Fold new records sharing one tags dict into the cached
        ``best_for`` answers they match.

        Only the unfiltered bucket and the buckets keyed by the tag pairs
        are visited, once per run; a shape there already matches on its
        first filter pair and checks the rest.  Mirrors the tag-index
        match semantics of :meth:`PerformanceDatabase.where_indices`: a
        record matches a filter pair when the tag key is present and its
        stringified value equals the stringified filter value.  A matching
        shape folds the records in order and only a strictly better one
        displaces the cached record, so ties keep the earlier record.
        """
        cache = self._best_cache
        buckets = [cache.get(None)]
        for key, value in tags.items():
            buckets.append(cache.get((key, str(value))))
        for bucket in buckets:
            if not bucket:
                continue
            for shape, current in bucket.items():
                minimize, filters = shape
                matched = True
                for filter_key, filter_value in filters[1:]:
                    value = tags.get(filter_key, _ABSENT)
                    if value is _ABSENT or str(value) != filter_value:
                        matched = False
                        break
                if not matched:
                    continue
                for record in records:
                    objective = record.objective
                    if (
                        current is None
                        or (minimize and objective < current.objective)
                        or (not minimize and objective > current.objective)
                    ):
                        current = record
                bucket[shape] = current

    # -- durability --------------------------------------------------------
    @property
    def journal(self) -> Optional[Any]:
        """The attached write-ahead journal, or ``None``."""
        return self._journal

    def attach_journal(self, journal: Any) -> None:
        """Tee every future :meth:`add` into ``journal`` (write-ahead).

        The journal must agree on shard count — a mismatch would scatter
        replayed records onto the wrong shards.
        """
        if journal is not None and getattr(journal, "n_shards", self.n_shards) != self.n_shards:
            raise ValueError(
                f"journal has {journal.n_shards} shard segments, "
                f"database has {self.n_shards} shards"
            )
        self._journal = journal

    def detach_journal(self) -> Optional[Any]:
        """Remove and return the attached journal (records stay on disk)."""
        journal, self._journal = self._journal, None
        return journal

    def checkpoint(self, **kwargs: Any) -> Dict[str, Any]:
        """Atomic columnar snapshot + journal truncation (bounded generations).

        Requires an attached journal (see
        :func:`repro.durability.attach` / :func:`repro.durability.recover`).
        """
        if self._journal is None:
            raise ValueError(
                "checkpoint() needs an attached journal; "
                "use repro.durability.attach(db, directory) first"
            )
        return self._journal.checkpoint(self, **kwargs)

    @classmethod
    def recover(cls, directory: str, **kwargs: Any) -> "ShardedPerformanceDatabase":
        """Rebuild a bit-identical database from a durability directory.

        Replays the newest valid checkpoint snapshot plus the journal's
        contiguous completed-run suffix; torn or corrupt tail entries
        are discarded, never raised.  The returned database has the
        journal re-attached, so writes keep appending where the crashed
        process stopped.
        """
        from repro.durability import recover as _recover

        return _recover(directory, **kwargs)

    def add_evaluation(
        self,
        config: Mapping[str, Any],
        metrics: Mapping[str, float],
        objective: float,
        elapsed_s: float = 0.0,
        feasible: bool = True,
        shard_key: Optional[str] = None,
        **tags: str,
    ) -> EvaluationRecord:
        record = EvaluationRecord(
            config=dict(config),
            metrics=dict(metrics),
            objective=float(objective),
            elapsed_s=float(elapsed_s),
            feasible=bool(feasible),
            tags=dict(tags),
        )
        self.add(record, shard_key=shard_key)
        return record

    def merge(self, other: PerformanceDatabase, **extra_tags: str) -> "ShardedPerformanceDatabase":
        """Ingest every record of a flat database (campaign capture).

        ``extra_tags`` (e.g. tenant/session) are stamped onto each record
        before routing, so a whole campaign lands on its tenant's shard.
        """
        records = list(other)
        if extra_tags:
            records = [
                EvaluationRecord(
                    config=dict(record.config),
                    metrics=dict(record.metrics),
                    objective=record.objective,
                    elapsed_s=record.elapsed_s,
                    feasible=record.feasible,
                    tags={**record.tags, **extra_tags},
                )
                for record in records
            ]
        self.add(*records)
        return self

    # -- introspection -----------------------------------------------------
    def shard_sizes(self) -> List[int]:
        return np.bincount(self._shards[: len(self._records)], minlength=self.n_shards).tolist()

    def merged(self, name: Optional[str] = None) -> PerformanceDatabase:
        """One flat database holding every record in global order."""
        return PerformanceDatabase.from_records(self, name or self.name)

    # -- queries -----------------------------------------------------------
    def best_for(
        self, minimize: bool = True, **tag_filters: str
    ) -> Optional[EvaluationRecord]:
        """Best-record query; ties resolve in global order.

        Answers are memoized per (minimize, filters) shape and kept
        current incrementally by :meth:`add`, so the steady-state cost of
        the control plane's per-run "best so far" probe is a dict hit
        instead of a scan.
        """
        filters = tuple(sorted((str(k), str(v)) for k, v in tag_filters.items()))
        shape = (bool(minimize), filters)
        first = filters[0] if filters else None
        bucket = self._best_cache.get(first)
        cached = _ABSENT if bucket is None else bucket.get(shape, _ABSENT)
        if cached is not _ABSENT:
            return cached
        best = PerformanceDatabase.best_for(self, minimize, **tag_filters)
        if self._best_cache_shapes >= _BEST_CACHE_MAX:
            self._best_cache.clear()
            self._best_cache_shapes = 0
        self._best_cache.setdefault(first, {})[shape] = best
        self._best_cache_shapes += 1
        return best

    # -- persistence -------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write one JSON file per shard plus a manifest with the order.

        Shard ``i``'s file holds its records in global order, and the
        manifest's ``order[position]`` is ``[shard, local index]``.  Every
        file lands via temp-file + ``os.replace`` and the manifest is
        written *last*: an interrupted save leaves either the previous
        complete snapshot or the new one, and a manifest never references
        shard files that were not fully written.
        """
        os.makedirs(directory, exist_ok=True)
        members: List[List[EvaluationRecord]] = [[] for _ in range(self.n_shards)]
        order: List[List[int]] = []
        for record, shard in zip(self._records, self._shards[: len(self._records)].tolist()):
            order.append([shard, len(members[shard])])
            members[shard].append(record)
        for index, records in enumerate(members):
            atomic_write_text(os.path.join(directory, f"shard-{index}.json"), records_json(records))
        manifest = {
            "name": self.name,
            "n_shards": self.n_shards,
            "shard_key_tags": list(self.shard_key_tags),
            "order": order,
        }
        atomic_write_text(os.path.join(directory, _MANIFEST), json.dumps(manifest))

    @classmethod
    def load(cls, directory: str) -> "ShardedPerformanceDatabase":
        """Load a snapshot; corruption raises :class:`SnapshotCorruptError`.

        Each shard file's records are read once and added once, in the
        global order the manifest gives.
        """
        manifest_path = os.path.join(directory, _MANIFEST)
        with open(manifest_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            manifest = json.loads(text)
            db = cls(
                n_shards=int(manifest["n_shards"]),
                name=manifest["name"],
                shard_key_tags=manifest["shard_key_tags"],
            )
            order = [(int(shard), int(local)) for shard, local in manifest["order"]]
            if any(not 0 <= shard < db.n_shards for shard, _ in order):
                raise SnapshotCorruptError(
                    manifest_path, "manifest order references unknown shards"
                )
        except SnapshotCorruptError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            raise SnapshotCorruptError(
                manifest_path, f"{type(error).__name__}: {error}"
            ) from error
        shards = [
            read_records(os.path.join(directory, f"shard-{index}.json"))
            for index in range(db.n_shards)
        ]
        owners = np.asarray([shard for shard, _ in order], dtype=int)
        sizes = np.bincount(owners, minlength=db.n_shards).tolist()
        if sizes != [len(records) for records in shards]:
            raise SnapshotCorruptError(
                manifest_path,
                f"manifest order inconsistent with shard files: "
                f"{sizes} vs {[len(records) for records in shards]}",
            )
        streams = [iter(records) for records in shards]
        PerformanceDatabase.add(db, *(next(streams[shard]) for shard in owners.tolist()))
        db._shards = owners
        return db
