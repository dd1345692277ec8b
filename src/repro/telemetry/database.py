"""Performance database for auto-tuning evaluations.

The ytopt flow in §3.2.3 appends every evaluated configuration and its
measured outcome to a "performance database" which is post-processed to
find the best configuration.  The same store also backs the paper's
"job-specific policies" GEOPM mode (§3.2.2), where a site keeps a database
mapping applications to historically good policy parameters.

Storage is columnar: alongside the record objects, ``add()`` appends the
objective / elapsed / feasibility scalars into growable numpy arrays and
indexes the record's tags, so the analytical queries — ``top_k``,
``best_so_far`` convergence curves, range filters, aggregates, tag
lookups — run as vectorised array expressions instead of Python scans.
``best()`` stays O(1) via running best records.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EvaluationRecord",
    "PerformanceDatabase",
    "SnapshotCorruptError",
    "atomic_write_text",
    "objective_stats",
    "read_records",
    "records_json",
    "shared_tag_runs",
]


class SnapshotCorruptError(ValueError):
    """A persisted snapshot (shard file, manifest, journal checkpoint) is
    unreadable: truncated, not valid JSON, or structurally wrong.

    A typed subclass of :class:`ValueError` so callers that guarded the
    old ``json.JSONDecodeError`` / ``ValueError`` paths keep working,
    while the service facade can map it to a structured
    ``SVC_RET_SNAPSHOT_CORRUPT`` wire error instead of a raw traceback.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"corrupt snapshot {path!r}: {reason}")
        self.path = path
        self.reason = reason


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX, so an interrupted save can never
    leave a half-written file where a previous good snapshot stood — the
    reader sees either the old content or the new, never a torn middle.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def objective_stats(objectives: np.ndarray) -> Dict[str, float]:
    """Summary statistics of an objective column.

    The single implementation behind :meth:`PerformanceDatabase.aggregate`
    and the service's tenant-scoped ``db.aggregate`` (the objective column
    gathered through :meth:`PerformanceDatabase.where_indices`), so the
    two can never drift: on the same values in the same order they are
    bit-identical.
    """
    if objectives.size == 0:
        return {"count": 0.0}
    return {
        "count": float(objectives.size),
        "min": float(objectives.min()),
        "max": float(objectives.max()),
        "mean": float(objectives.mean()),
        "std": float(objectives.std()),
        "median": float(np.median(objectives)),
    }


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated configuration and its measured metrics."""

    config: Dict[str, Any]
    metrics: Dict[str, float]
    objective: float
    elapsed_s: float = 0.0
    feasible: bool = True
    tags: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        # Scalars are coerced to plain Python types so the dictionary is
        # always JSON-serialisable (numpy float64 passes json.dumps, but
        # numpy bool_ does not) and so a to_json -> from_json round trip
        # reproduces the record exactly.
        return {
            "config": dict(self.config),
            "metrics": {
                k: float(v) if isinstance(v, (bool, int, float, np.number, np.bool_)) else v
                for k, v in self.metrics.items()
            },
            "objective": float(self.objective),
            "elapsed_s": float(self.elapsed_s),
            "feasible": bool(self.feasible),
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], tags: Optional[Dict[str, str]] = None
    ) -> "EvaluationRecord":
        """The record ``data`` describes; ``tags``, when given, is the
        record's tags dict as is (records sharing one), else a copy of
        ``data["tags"]``."""
        return cls(
            config=dict(data["config"]),
            metrics={
                k: float(v) if isinstance(v, (bool, int, float)) else v
                for k, v in data["metrics"].items()
            },
            objective=float(data["objective"]),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            feasible=bool(data.get("feasible", True)),
            tags=dict(data.get("tags", {})) if tags is None else tags,
        )


def records_json(records: Iterable[EvaluationRecord]) -> str:
    """The snapshot text of ``records``, in order: the one encoder of a
    record list (:meth:`PerformanceDatabase.save` and each shard file of
    a sharded snapshot)."""
    return json.dumps([r.to_dict() for r in records], indent=2)


def read_records(path: str) -> List[EvaluationRecord]:
    """The records of a snapshot file, in order.

    A truncated or otherwise invalid file is a *typed* failure,
    :class:`SnapshotCorruptError` — the caller (and the service facade)
    can tell storage corruption apart from every other ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return [EvaluationRecord.from_dict(item) for item in json.loads(text)]
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise SnapshotCorruptError(
            path, f"{type(error).__name__}: {error}"
        ) from error


def shared_tag_runs(
    records: Sequence[EvaluationRecord],
) -> Iterator[Tuple[int, int, Dict[str, str]]]:
    """``(start, stop, tags)`` of each maximal run of consecutive records
    sharing one tags dict (the records of one ``tuning.tell``)."""
    start, count = 0, len(records)
    while start < count:
        tags = records[start].tags
        stop = start + 1
        while stop < count and records[stop].tags is tags:
            stop += 1
        yield start, stop, tags
        start = stop


class _ColumnStore:
    """Growable struct-of-arrays for the scalar columns of the database."""

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self.size = 0
        self._objective = np.empty(self._INITIAL_CAPACITY)
        self._elapsed_s = np.empty(self._INITIAL_CAPACITY)
        self._feasible = np.empty(self._INITIAL_CAPACITY, dtype=bool)

    def extend(self, records: Sequence[EvaluationRecord]) -> None:
        """Append each record's scalars, one slice assignment per column;
        the capacity doubles until it holds them."""
        start = self.size
        end = start + len(records)
        capacity = self._objective.shape[0]
        if end > capacity:
            while capacity < end:
                capacity *= 2
            self._objective = np.resize(self._objective, capacity)
            self._elapsed_s = np.resize(self._elapsed_s, capacity)
            self._feasible = np.resize(self._feasible, capacity)
        self._objective[start:end] = [record.objective for record in records]
        self._elapsed_s[start:end] = [record.elapsed_s for record in records]
        self._feasible[start:end] = [record.feasible for record in records]
        self.size = end

    @property
    def objective(self) -> np.ndarray:
        return self._objective[: self.size]

    @property
    def elapsed_s(self) -> np.ndarray:
        return self._elapsed_s[: self.size]

    @property
    def feasible(self) -> np.ndarray:
        return self._feasible[: self.size]


class PerformanceDatabase:
    """An append-only store of :class:`EvaluationRecord` objects."""

    def __init__(self, name: str = "default"):
        self.name = name
        self._records: List[EvaluationRecord] = []
        self._columns = _ColumnStore()
        #: Inverted index: (tag key, tag value) -> ascending record indices.
        self._tag_index: Dict[Tuple[str, str], List[int]] = {}
        # Running best/worst records maintained by add() so best() is O(1)
        # instead of a full scan — the tuning loop consults it per batch.
        # Strict comparisons keep min()/max() first-wins tie-breaking.
        self._min_all: Optional[EvaluationRecord] = None
        self._max_all: Optional[EvaluationRecord] = None
        self._min_feasible: Optional[EvaluationRecord] = None
        self._max_feasible: Optional[EvaluationRecord] = None

    def add(self, *records: EvaluationRecord) -> None:
        """Append records in order.

        Each column is extended once; running bests advance record by
        record.  A run of records sharing one tags dict extends each of
        its tag postings once, and every posting of a record holds the
        same index ``int``.
        """
        first = len(self._records)
        self._records.extend(records)
        self._columns.extend(records)
        for record in records:
            if self._min_all is None or record.objective < self._min_all.objective:
                self._min_all = record
            if self._max_all is None or record.objective > self._max_all.objective:
                self._max_all = record
            if record.feasible:
                if self._min_feasible is None or record.objective < self._min_feasible.objective:
                    self._min_feasible = record
                if self._max_feasible is None or record.objective > self._max_feasible.objective:
                    self._max_feasible = record
        for start, stop, tags in shared_tag_runs(records):
            indices = list(range(first + start, first + stop))
            for key, value in tags.items():
                self._tag_index.setdefault((key, str(value)), []).extend(indices)

    def add_evaluation(
        self,
        config: Mapping[str, Any],
        metrics: Mapping[str, float],
        objective: float,
        elapsed_s: float = 0.0,
        feasible: bool = True,
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
        self.add(record)
        return record

    @classmethod
    def from_records(
        cls, records: Iterable[EvaluationRecord], name: str = "default"
    ) -> "PerformanceDatabase":
        """Rebuild a database from records, in order.

        The canonical rebuild: columns, tag index and running-best records
        are exactly those of a database that had seen ``add(record)`` for
        every record in sequence.  ``filter`` and ``merge`` are defined in
        terms of it, so a filtered/merged database is always
        indistinguishable from a rebuild over the same record sequence.
        """
        db = cls(name)
        db.add(*records)
        return db

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(self, feasible_only: bool = False) -> List[EvaluationRecord]:
        if feasible_only:
            return [self._records[i] for i in np.flatnonzero(self._columns.feasible)]
        return list(self._records)

    # -- columnar views ------------------------------------------------------
    def objectives_array(self) -> np.ndarray:
        """Objective column as a numpy array (a view; do not mutate)."""
        return self._columns.objective

    def feasible_array(self) -> np.ndarray:
        """Feasibility column as a boolean numpy array (a view)."""
        return self._columns.feasible

    def elapsed_array(self) -> np.ndarray:
        """Elapsed-seconds column as a numpy array (a view)."""
        return self._columns.elapsed_s

    def best(
        self, minimize: bool = True, feasible_only: bool = True
    ) -> Optional[EvaluationRecord]:
        """The record with the best objective (``None`` if empty).

        O(1): served from running best records maintained by :meth:`add`
        (falling back to all records when no feasible one exists, exactly
        like the previous full scan).
        """
        if feasible_only:
            record = self._min_feasible if minimize else self._max_feasible
            if record is not None:
                return record
        return self._min_all if minimize else self._max_all

    def top_k(
        self, k: int, minimize: bool = True, **tag_filters: str
    ) -> List[EvaluationRecord]:
        """The ``k`` best records matching ``tag_filters``, stable on ties
        (insertion order)."""
        indices = self._tag_indices(tag_filters) if tag_filters else None
        key = self._columns.objective if indices is None else self._columns.objective[indices]
        order = np.argsort(key if minimize else -key, kind="stable")[: max(0, k)]
        return [self._records[i] for i in (order if indices is None else indices[order])]

    def filter(self, predicate: Callable[[EvaluationRecord], bool]) -> "PerformanceDatabase":
        """A new database holding the records matching ``predicate``.

        Built through :meth:`from_records`, so tag indexes and running-best
        records are identical to a rebuild over the surviving records.
        """
        return PerformanceDatabase.from_records(
            (record for record in self._records if predicate(record)), self.name
        )

    def where_indices(
        self,
        feasible: Optional[bool] = None,
        min_objective: Optional[float] = None,
        max_objective: Optional[float] = None,
        **tag_filters: str,
    ) -> np.ndarray:
        """Ascending record indices matching the :meth:`where` filters.

        The index-level entry point for reads that need a column, not
        records (the service's tenant ``db.aggregate`` and ``db.stats``).
        With tag filters the tag-index matches are the only rows checked
        against feasibility and the objective range, so the cost follows
        the matches, not the database; without them one mask covers
        every row.
        """
        columns = self._columns
        if tag_filters:
            indices = self._tag_indices(tag_filters)
            if feasible is not None:
                indices = indices[columns.feasible[indices] == feasible]
            if min_objective is not None:
                indices = indices[columns.objective[indices] >= min_objective]
            if max_objective is not None:
                indices = indices[columns.objective[indices] <= max_objective]
            return indices
        mask = np.ones(len(self._records), dtype=bool)
        if feasible is not None:
            mask &= columns.feasible == feasible
        if min_objective is not None:
            mask &= columns.objective >= min_objective
        if max_objective is not None:
            mask &= columns.objective <= max_objective
        return np.flatnonzero(mask)

    def where(
        self,
        feasible: Optional[bool] = None,
        min_objective: Optional[float] = None,
        max_objective: Optional[float] = None,
        **tag_filters: str,
    ) -> List[EvaluationRecord]:
        """Vectorised record selection on the scalar columns and tag index.

        Combines a feasibility filter, an objective range and exact tag
        matches; the column comparisons are single array expressions and
        the tag filters are index intersections, so no record object is
        touched until the matching rows are materialised.
        """
        indices = self.where_indices(
            feasible=feasible,
            min_objective=min_objective,
            max_objective=max_objective,
            **tag_filters,
        )
        return [self._records[i] for i in indices]

    def aggregate(self, feasible_only: bool = False) -> Dict[str, float]:
        """Vectorised summary statistics of the objective column."""
        objectives = self._columns.objective
        if feasible_only:
            objectives = objectives[self._columns.feasible]
        return objective_stats(objectives)

    def objectives(self) -> List[float]:
        return self._columns.objective.tolist()

    def best_so_far(self, minimize: bool = True) -> List[float]:
        """Convergence curve: running best objective after each evaluation.

        Vectorised: infeasible records (beyond the first record, which
        historically seeds the curve) are masked to ±inf so a single
        ``minimum.accumulate`` / ``maximum.accumulate`` reproduces the
        sequential carry-forward loop exactly.
        """
        if not self._records:
            return []
        values = self._columns.objective.copy()
        masked = ~self._columns.feasible
        masked[0] = False
        if minimize:
            values[masked] = np.inf
            curve = np.minimum.accumulate(values)
        else:
            values[masked] = -np.inf
            curve = np.maximum.accumulate(values)
        return curve.tolist()

    def merge(self, other: "PerformanceDatabase") -> "PerformanceDatabase":
        """Append every record of ``other`` (campaign shard consolidation).

        Records keep their order within each database; ``other`` is
        unchanged (merging a database into itself duplicates its records
        once).  Returns ``self`` for chaining.
        """
        # Unpacking snapshots the list (``db.merge(db)`` must not iterate
        # what it appends), and every record lands through add() so the
        # tag index and running bests stay rebuild-identical.
        self.add(*other._records)
        return self

    def tag_values(self, key: str) -> List[str]:
        """Distinct values recorded for a tag key, sorted.

        Served from the inverted tag index — this is how campaign reports
        enumerate the use cases / scenarios / seeds present in a capture
        without scanning records.
        """
        return sorted({value for k, value in self._tag_index if k == key})

    # -- lookup of historically good configurations ------------------------
    def _tag_indices(self, tag_filters: Mapping[str, str]) -> np.ndarray:
        """Ascending record indices matching all tag filters (via the index).

        Every posting list is looked up before any is converted, so a
        filter with no match answers without touching the others.
        """
        pools: List[List[int]] = []
        for key, value in tag_filters.items():
            hits = self._tag_index.get((key, str(value)))
            if not hits:
                return np.empty(0, dtype=int)
            pools.append(hits)
        pools.sort(key=len)
        result = np.asarray(pools[0])
        for pool in pools[1:]:
            result = np.intersect1d(result, np.asarray(pool), assume_unique=True)
            if result.size == 0:
                break
        return result

    def lookup(self, **tag_filters: str) -> List[EvaluationRecord]:
        """Records whose tags match all the given key/value pairs.

        Served from the inverted tag index (intersection of posting
        lists) rather than a scan; results keep insertion order.
        """
        if not tag_filters:
            return list(self._records)
        return [self._records[i] for i in self._tag_indices(tag_filters)]

    def best_for(self, minimize: bool = True, **tag_filters: str) -> Optional[EvaluationRecord]:
        indices = (
            np.arange(len(self._records))
            if not tag_filters
            else self._tag_indices(tag_filters)
        )
        if indices.size == 0:
            return None
        pool = self._columns.objective[indices]
        winner = indices[np.argmin(pool) if minimize else np.argmax(pool)]
        return self._records[winner]

    # -- persistence ----------------------------------------------------------
    def to_json(self) -> str:
        return records_json(self._records)

    @classmethod
    def from_json(cls, text: str, name: str = "default") -> "PerformanceDatabase":
        db = cls(name)
        for item in json.loads(text):
            db.add(EvaluationRecord.from_dict(item))
        return db

    def save(self, path: str) -> None:
        """Atomic snapshot: temp file + rename, never a torn JSON file."""
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str, name: str = "default") -> "PerformanceDatabase":
        """Load a snapshot; corruption raises :class:`SnapshotCorruptError`
        (see :func:`read_records`)."""
        return cls.from_records(read_records(path), name)
