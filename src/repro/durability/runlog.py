"""Completed-run log: the journal behind resumable campaigns.

One :class:`CampaignJournal` is a single WAL segment
(``<dir>/campaign.wal``) holding a header entry — the campaign's
identity (name + grid size), checked on resume so two different grids
can never be mixed — followed by one entry per *completed* run, keyed
``use_case|scenario|seed=N[|segment=S]`` and carrying the processed
outcome (metrics, objective, feasibility, error, chaos stats).

``Campaign.run(..., journal_dir=...)`` appends a run entry the moment
that run's outcome is processed; a re-invocation with ``resume=True``
reads the surviving entries (torn tails discarded by the segment layer)
and skips those runs, re-emitting their journaled outcomes instead.
Because every run derives its own RNG from its seed, skipping is
invisible: the resumed campaign's database is bit-identical to an
uninterrupted pass (wall-clock aside).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.durability.journal import JournalSegment, read_entries

__all__ = ["CampaignJournal"]

_FILENAME = "campaign.wal"


class CampaignJournal:
    """Append-only completed-run log for one campaign directory."""

    def __init__(self, directory: str, fsync: str = "batch"):
        self.directory = os.path.abspath(directory)
        self.path = os.path.join(self.directory, _FILENAME)
        self._fsync = fsync
        self._segment: Optional[JournalSegment] = None
        #: Header of the journaled campaign (``None`` before begin/load).
        self.header: Optional[Dict[str, Any]] = None
        #: Completed-run outcomes by run key (last write wins).
        self.completed: Dict[str, Dict[str, Any]] = {}

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Read surviving entries from disk (torn tail already discarded)."""
        self.header = None
        self.completed = {}
        for payload in read_entries(self.path):
            try:
                entry = json.loads(payload.decode("utf-8"))
                kind = entry["kind"]
            except (ValueError, KeyError, TypeError):
                continue
            if kind == "header":
                self.header = entry
            elif kind == "run" and "key" in entry:
                self.completed[str(entry["key"])] = entry
        return self.completed

    def begin(self, campaign: str, total_runs: int, resume: bool = False) -> None:
        """Open for appending: fresh (truncate) or resuming (validate).

        A resume against a journal written by a *different* campaign —
        another name or grid size — raises ``ValueError`` instead of
        silently skipping runs that never belonged to this grid.
        """
        os.makedirs(self.directory, exist_ok=True)
        if resume:
            self.load()
            if self.header is not None and (
                self.header.get("campaign") != campaign
                or int(self.header.get("total", -1)) != int(total_runs)
            ):
                raise ValueError(
                    f"cannot resume: journal {self.path!r} belongs to campaign "
                    f"{self.header.get('campaign')!r} with "
                    f"{self.header.get('total')} runs, not {campaign!r} "
                    f"with {total_runs}"
                )
        else:
            self.header = None
            self.completed = {}
        self._segment = JournalSegment(self.path, fsync=self._fsync, name=_FILENAME)
        if not resume:
            self._segment.truncate()
        if self.header is None:
            self.header = {"kind": "header", "campaign": campaign, "total": int(total_runs)}
            self._append(self.header)

    def _append(self, entry: Dict[str, Any]) -> None:
        if self._segment is None:
            raise ValueError("campaign journal is not open; call begin() first")
        self._segment.append(
            json.dumps(entry, separators=(",", ":")).encode("utf-8")
        )
        self._segment.commit()

    def record_run(self, key: str, outcome: Dict[str, Any]) -> None:
        """Persist one completed run's processed outcome."""
        self.completed[key] = entry = {"kind": "run", "key": key, **outcome}
        self._append(entry)

    def sync(self) -> None:
        if self._segment is not None:
            self._segment.sync()

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
