"""Committed baseline: accepted pre-existing findings that don't block CI.

The baseline is a JSON file of fingerprinted violations.  Fingerprints
hash ``(rule, module, stripped line text)`` — see
:meth:`repro.analysis.engine.LintEngine.fingerprint` — so they survive
line-number drift from unrelated edits and are independent of the
directory the linter is invoked from.  Matching is multiset semantics: a
baseline entry absorbs at most one live violation per occurrence.

``python -m repro.analysis --update-baseline`` rewrites the file from
the current findings; the shipped baseline is empty (every pre-existing
violation was fixed or pragma-justified in place).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import Violation

__all__ = ["Baseline", "BASELINE_VERSION"]

BASELINE_VERSION = 1


class Baseline:
    """Load/merge/write the accepted-findings file."""

    def __init__(self, entries: Optional[List[Dict[str, object]]] = None):
        self.entries: List[Dict[str, object]] = list(entries or [])

    # -- IO ----------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not os.path.isfile(path):
            return cls()
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError(f"baseline {path!r} is not a baseline document")
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path!r} has version {version!r}; "
                f"this linter writes version {BASELINE_VERSION}"
            )
        entries = data["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"baseline {path!r}: 'entries' must be a list")
        return cls(entries)

    def write(self, path: str) -> None:
        document = {
            "version": BASELINE_VERSION,
            "entries": sorted(
                self.entries,
                key=lambda e: (
                    str(e.get("path", "")),
                    int(e.get("line", 0) or 0),
                    str(e.get("rule", "")),
                    str(e.get("fingerprint", "")),
                ),
            ),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- matching ----------------------------------------------------------
    def fingerprints(self) -> Dict[str, int]:
        """Multiset of accepted fingerprints (what the engine consumes)."""
        out: Dict[str, int] = {}
        for entry in self.entries:
            fingerprint = str(entry.get("fingerprint", ""))
            if fingerprint:
                out[fingerprint] = out.get(fingerprint, 0) + 1
        return out

    # -- construction from a run -------------------------------------------
    @classmethod
    def from_violations(cls, violations: Sequence[Violation]) -> "Baseline":
        entries = [
            {
                "rule": violation.rule,
                "path": violation.path,
                "module": violation.module,
                "line": violation.line,
                "message": violation.message,
                "fingerprint": violation.fingerprint,
            }
            for violation in violations
        ]
        return cls(entries)
