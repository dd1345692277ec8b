"""Sharded performance database for multi-tenant tuning services.

One :class:`~repro.telemetry.database.PerformanceDatabase` per shard,
with writes routed by a tenant/session key and queries fanned out and
stitched back together.  The contract is strict: every query answered
here is *bit-identical* to the same query against one merged
``PerformanceDatabase`` holding the same records in insertion order.
That is what lets the control-plane service (``repro.service``) shard
its capture transparently — a caller cannot tell how many shards sit
behind the facade.

The key ingredient is the global insertion order.  Each shard's records
carry their global sequence numbers (``_global``), so a fan-in query can
reconstruct the globally-ordered objective/feasibility columns (scatter
per shard, no sort), and tie-breaking in ``top_k`` / ``best_for`` uses
exactly the stable order a single database would.

Routing uses :func:`repro.sim.rng.stable_name_key` (SHA-256), so a key
maps to the same shard in every process and on every platform.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import stable_name_key
from repro.telemetry.database import (
    EvaluationRecord,
    PerformanceDatabase,
    SnapshotCorruptError,
    atomic_write_text,
    objective_stats,
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

#: Smallest capacity of a shard's global-sequence column; it doubles when full.
_GLOBAL_CAPACITY = 64

#: A ``best_for`` query shape: (minimize, sorted stringified tag filters).
_Shape = Tuple[bool, Tuple[Tuple[str, str], ...]]


class ShardedPerformanceDatabase:
    """N ``PerformanceDatabase`` shards behind a single-database facade.

    Writes are routed by ``shard_key`` (or, when absent, by the record's
    ``shard_key_tags`` tag values — tenant/session by default); queries
    fan out across the shards and back in, bit-identical to one merged
    database.
    """

    def __init__(
        self,
        n_shards: int = 4,
        name: str = "sharded",
        shard_key_tags: Sequence[str] = ("tenant", "session"),
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.name = name
        self.shard_key_tags = tuple(shard_key_tags)
        self.shards: List[PerformanceDatabase] = [
            PerformanceDatabase(f"{name}/shard-{i}") for i in range(n_shards)
        ]
        #: Per-shard global sequence numbers, parallel to the shard's
        #: records: growable arrays whose first ``len(shard)`` entries are
        #: live (capacity doubles when full), so an add is amortised O(1)
        #: and a read is a view.
        self._global: List[np.ndarray] = [
            np.empty(_GLOBAL_CAPACITY, dtype=int) for _ in range(n_shards)
        ]
        #: Every record in global insertion order (a global index is a
        #: list index): one list slot per record.
        self._records: List[EvaluationRecord] = []
        #: Optional write-ahead journal (``repro.durability``): when
        #: attached and enabled, add() journals each run of records as one
        #: committed entry *before* mutating in-memory state.  ``None``
        #: costs one attribute read per run — the journal-disabled
        #: overhead budget.
        self._journal: Optional[Any] = None
        #: Running best per ``best_for`` query shape, bucketed by the
        #: shape's first sorted filter pair (``None`` for the unfiltered
        #: shape): first pair -> {shape: (objective, global index) or
        #: None}.  Maintained incrementally by add(), which visits only
        #: the buckets its records' tags name — a repeated fan-in
        #: ``best_for`` is a dict hit instead of an all-shard scan — and
        #: bit-identical to the scan by construction: a new record only
        #: displaces the cached winner when strictly better, which is
        #: exactly the global-order tie-breaking the scan applies
        #: (earlier record wins ties).
        self._best_cache: Dict[
            Optional[Tuple[str, str]], Dict[_Shape, Optional[Tuple[float, int]]]
        ] = {}
        self._best_cache_shapes = 0

    # -- routing -----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def routing_key(self, tags: Mapping[str, Any]) -> str:
        """The routing key derived from a record's tags."""
        return "/".join(str(tags.get(key, "")) for key in self.shard_key_tags)

    def shard_index(self, shard_key: str) -> int:
        """Deterministic, process-stable shard for a routing key."""
        return stable_name_key(str(shard_key)) % len(self.shards)

    # -- writes ------------------------------------------------------------
    # repro-lint: hot
    def add(self, *records: EvaluationRecord, shard_key: Optional[str] = None) -> int:
        """Route records to their shards; returns the last record's shard
        index (``-1`` when no record is given).

        Consecutive records with one routing key form a run, routed once.
        With a journal attached a run is journaled *first* (write-ahead):
        its records are staged and committed as one entry, and only then
        is the run applied to its shard, the global order and the
        ``best_for`` cache.  A run is all-or-nothing: a torn or failed
        commit raises with none of its records applied, so recovery
        always yields a consistent completed-run prefix equal to memory.
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
        """Add a routed run to its shard, the global order and the cache."""
        first = len(self._records)
        database = self.shards[shard]
        local = len(database)
        database.add(*run)
        end = local + len(run)
        column = self._global[shard]
        if end > column.shape[0]:
            column = self._global[shard] = np.resize(column, max(_GLOBAL_CAPACITY, 2 * end))
        column[local:end] = np.arange(first, first + len(run))
        self._records.extend(run)
        if self._best_cache:
            for start, stop, tags in shared_tag_runs(run):
                self._update_best_cache(tags, run[start:stop], first + start)

    def _update_best_cache(
        self, tags: Mapping[str, Any], records: Sequence[EvaluationRecord], first_index: int
    ) -> None:
        """Fold new records sharing one tags dict into the cached
        ``best_for`` answers they match.

        Only the unfiltered bucket and the buckets keyed by the tag pairs
        are visited, once per run; a shape there already matches on its
        first filter pair and checks the rest.  Mirrors the tag-index
        match semantics of :meth:`PerformanceDatabase.where_indices`: a
        record matches a filter pair when the tag key is present and its
        stringified value equals the stringified filter value.  A matching
        shape folds the records in global order and only a strictly better
        one displaces the cached record, so ties keep the lower global index.
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
                for global_index, record in enumerate(records, first_index):
                    objective = record.objective
                    if (
                        current is None
                        or (minimize and objective < current[0])
                        or (not minimize and objective > current[0])
                    ):
                        current = (objective, global_index)
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

    # -- global-order reconstruction ---------------------------------------
    def _global_index(self, shard: int) -> np.ndarray:
        """Global sequence numbers of one shard's records (a view)."""
        return self._global[shard][: len(self.shards[shard])]

    def _record_at(self, global_index: int) -> EvaluationRecord:
        return self._records[global_index]

    def _gather(self, column: str) -> np.ndarray:
        """One scalar column in global insertion order (scatter per shard)."""
        first = getattr(self.shards[0], column)()
        out = np.empty(len(self._records), dtype=first.dtype)
        for shard_index, shard in enumerate(self.shards):
            values = getattr(shard, column)()
            if values.size:
                out[self._global_index(shard_index)] = values
        return out

    def objectives_array(self) -> np.ndarray:
        """Objective column in global insertion order."""
        return self._gather("objectives_array")

    def feasible_array(self) -> np.ndarray:
        """Feasibility column in global insertion order."""
        return self._gather("feasible_array")

    def elapsed_array(self) -> np.ndarray:
        """Elapsed-seconds column in global insertion order."""
        return self._gather("elapsed_array")

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EvaluationRecord]:
        return iter(self._records)

    def records(self, feasible_only: bool = False) -> List[EvaluationRecord]:
        """All records in global insertion order."""
        if feasible_only:
            feasible = self.feasible_array()
            return [self._record_at(i) for i in np.flatnonzero(feasible)]
        return list(self._records)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self.shards]

    def merged(self, name: Optional[str] = None) -> PerformanceDatabase:
        """One flat database holding every record in global order."""
        return PerformanceDatabase.from_records(self, name or self.name)

    # -- fan-in queries ----------------------------------------------------
    def best(
        self, minimize: bool = True, feasible_only: bool = True
    ) -> Optional[EvaluationRecord]:
        if not self._records:
            return None
        objectives = self.objectives_array()
        if feasible_only:
            pool = np.flatnonzero(self.feasible_array())
            if pool.size:
                values = objectives[pool]
                return self._record_at(
                    pool[np.argmin(values) if minimize else np.argmax(values)]
                )
        return self._record_at(np.argmin(objectives) if minimize else np.argmax(objectives))

    def best_for(
        self, minimize: bool = True, **tag_filters: str
    ) -> Optional[EvaluationRecord]:
        """Fan-out best-record query; ties resolve in global order.

        Answers are memoized per (minimize, filters) shape and kept
        current incrementally by :meth:`add`, so the steady-state cost of
        the control plane's per-run "best so far" probe is a dict hit
        instead of an all-shard scan (ROADMAP item 4).
        """
        filters = tuple(sorted((str(k), str(v)) for k, v in tag_filters.items()))
        shape = (bool(minimize), filters)
        first = filters[0] if filters else None
        bucket = self._best_cache.get(first)
        cached = _ABSENT if bucket is None else bucket.get(shape, _ABSENT)
        if cached is not _ABSENT:
            return None if cached is None else self._record_at(cached[1])
        best: Optional[Tuple[float, int]] = None
        for shard_index, shard in enumerate(self.shards):
            local = shard.where_indices(**tag_filters)
            if local.size == 0:
                continue
            pool = shard.objectives_array()[local]
            pos = int(np.argmin(pool)) if minimize else int(np.argmax(pool))
            candidate = (float(pool[pos]), int(self._global_index(shard_index)[local[pos]]))
            if best is None:
                best = candidate
            elif minimize:
                if candidate[0] < best[0] or (candidate[0] == best[0] and candidate[1] < best[1]):
                    best = candidate
            else:
                if candidate[0] > best[0] or (candidate[0] == best[0] and candidate[1] < best[1]):
                    best = candidate
        if self._best_cache_shapes >= _BEST_CACHE_MAX:
            self._best_cache.clear()
            self._best_cache_shapes = 0
        self._best_cache.setdefault(first, {})[shape] = best
        self._best_cache_shapes += 1
        return None if best is None else self._record_at(best[1])

    def top_k(
        self, k: int, minimize: bool = True, **tag_filters: str
    ) -> List[EvaluationRecord]:
        """The ``k`` best records matching ``tag_filters``, stable on ties.

        Each shard selects its matches through its tag index, then one
        ``lexsort`` on (objective key, global index) ranks them all: ties
        keep global insertion order, as one merged database's stable sort
        over the same matches would.
        """
        keys: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        for shard_index, shard in enumerate(self.shards):
            local = shard.where_indices(**tag_filters)
            if local.size:
                keys.append(shard.objectives_array()[local])
                positions.append(self._global_index(shard_index)[local])
        if not keys or k <= 0:
            return []
        key = np.concatenate(keys)
        position = np.concatenate(positions)
        order = np.lexsort((position, key if minimize else -key))[:k]
        return [self._record_at(i) for i in position[order]]

    def aggregate(self, feasible_only: bool = False) -> Dict[str, float]:
        """Summary statistics over the globally-ordered objective column."""
        objectives = self.objectives_array()
        if feasible_only:
            objectives = objectives[self.feasible_array()]
        return objective_stats(objectives)

    def where(
        self,
        feasible: Optional[bool] = None,
        min_objective: Optional[float] = None,
        max_objective: Optional[float] = None,
        **tag_filters: str,
    ) -> List[EvaluationRecord]:
        """Fan-out record selection, results in global insertion order."""
        matches: List[np.ndarray] = []
        for shard_index, shard in enumerate(self.shards):
            local = shard.where_indices(
                feasible=feasible,
                min_objective=min_objective,
                max_objective=max_objective,
                **tag_filters,
            )
            if local.size:
                matches.append(self._global_index(shard_index)[local])
        if not matches:
            return []
        order = np.sort(np.concatenate(matches))
        return [self._record_at(i) for i in order]

    def lookup(self, **tag_filters: str) -> List[EvaluationRecord]:
        if not tag_filters:
            return list(self)
        return self.where(**tag_filters)

    def tag_values(self, key: str) -> List[str]:
        values: set = set()
        for shard in self.shards:
            values.update(shard.tag_values(key))
        return sorted(values)

    # -- persistence -------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write one JSON file per shard plus a manifest with the order.

        Every file lands via temp-file + ``os.replace`` and the manifest
        is written *last*: an interrupted save leaves either the previous
        complete snapshot or the new one, and a manifest never references
        shard files that were not fully written.
        """
        os.makedirs(directory, exist_ok=True)
        order: List[Any] = [None] * len(self._records)
        for index, shard in enumerate(self.shards):
            shard.save(os.path.join(directory, f"shard-{index}.json"))
            for local, position in enumerate(self._global_index(index).tolist()):
                order[position] = [index, local]
        manifest = {
            "name": self.name,
            "n_shards": len(self.shards),
            "shard_key_tags": list(self.shard_key_tags),
            "order": order,
        }
        atomic_write_text(os.path.join(directory, _MANIFEST), json.dumps(manifest))

    @classmethod
    def load(cls, directory: str) -> "ShardedPerformanceDatabase":
        """Load a snapshot; corruption raises :class:`SnapshotCorruptError`."""
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
            order = [
                (int(shard), int(local)) for shard, local in manifest["order"]
            ]
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
        for index in range(db.n_shards):
            db.shards[index] = PerformanceDatabase.load(
                os.path.join(directory, f"shard-{index}.json"),
                name=f"{db.name}/shard-{index}",
            )
        owners = np.asarray([shard for shard, _ in order], dtype=int)
        sizes = np.bincount(owners, minlength=db.n_shards).tolist()
        if sizes != db.shard_sizes():
            raise SnapshotCorruptError(
                manifest_path,
                f"manifest order inconsistent with shard files: "
                f"{sizes} vs {db.shard_sizes()}",
            )
        db._global = [np.flatnonzero(owners == index) for index in range(db.n_shards)]
        records: List[Any] = [None] * len(order)
        for index, shard in enumerate(db.shards):
            for position, record in zip(db._global[index].tolist(), shard):
                records[position] = record
        db._records = records
        return db
