"""Rule-engine core of the invariant linter (``python -m repro.analysis``).

The repo's reproducibility guarantees — bit-identical chaos replay,
prefix-exact crash recovery, serial==process campaign parity, structured
``SVC_RET_*``/``PWR_RET_*`` wire errors — are conventions until something
checks them.  This engine turns them into machine-checked invariants:

* :class:`SourceFile` parses each file once (AST + comment tokens) and
  extracts ``# repro-lint:`` pragmas and hot-path tags;
* :class:`Rule` subclasses implement per-file (:meth:`Rule.check_file`)
  and cross-file (:meth:`Rule.check_project`) passes that yield
  :class:`Violation` records;
* :class:`LintEngine` drives the passes, applies pragma suppression and
  the committed baseline, and returns a deterministic
  :class:`LintResult`.

Pragma grammar (found anywhere in a comment)::

    # repro-lint: disable=RL001            one line, one rule
    # repro-lint: disable=RL001,RL004      one line, several rules
    # repro-lint: disable=all              one line, every rule
    # repro-lint: disable-file=RL003       whole file
    # repro-lint: hot                      tag the next/same-line ``def``
                                           as a hot path (checked by RL003)

Baseline fingerprints hash ``(rule, module, stripped line text)`` so they
survive unrelated edits that shift line numbers, and are invocation-
directory independent (module names, not paths).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lintconfig import LintConfig

__all__ = [
    "LintContext",
    "LintEngine",
    "LintResult",
    "Rule",
    "SourceFile",
    "Violation",
    "iter_python_files",
    "module_name_for",
]

#: Pseudo-rule id reported for files the engine cannot parse.
PARSE_ERROR_RULE = "RL000"

_PRAGMA = re.compile(
    r"repro-lint:\s*(?P<kind>disable-file|disable|hot)\s*(?:=\s*(?P<rules>[A-Za-z0-9_,\s*]+?))?\s*(?:;|$)"
)


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col RULE message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Dotted module of the offending file (stable across invocation dirs;
    #: what baseline fingerprints are keyed on).
    module: str = ""
    #: Baseline identity, filled in by the engine after the rule passes.
    fingerprint: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


def module_name_for(path: str) -> str:
    """Dotted module name of a file, by walking up ``__init__.py`` parents.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine`` (``src`` has no
    ``__init__.py`` so the walk stops there); a loose file maps to its
    stem.  This keeps allowlists and baseline entries stable no matter
    which directory the linter is invoked from.
    """
    directory, filename = os.path.split(os.path.abspath(path))
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
        if not package:  # filesystem root; defensive
            break
    return ".".join(parts) if parts else stem


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    # De-duplicate while keeping deterministic order.
    seen: Set[str] = set()
    unique = []
    for path in out:
        key = os.path.abspath(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return sorted(unique)


class SourceFile:
    """One parsed source file plus its pragma/tag side tables."""

    def __init__(self, path: str, text: str):
        self.path = path.replace(os.sep, "/")
        self.text = text
        self.lines = text.splitlines()
        self.module = module_name_for(path)
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        #: line → set of rule ids disabled on that line ("all" wildcard).
        self.line_disables: Dict[int, Set[str]] = {}
        #: rule ids disabled for the whole file.
        self.file_disables: Set[str] = set()
        #: lines carrying a ``# repro-lint: hot`` tag.
        self.hot_lines: Set[int] = set()
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as error:
            self.parse_error = error
        self._scan_pragmas()

    @classmethod
    def load(cls, path: str) -> "SourceFile":
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return cls(path, fh.read())

    def _scan_pragmas(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # A file we cannot tokenize already carries a parse-error
            # violation; pragma extraction is best-effort.
            comments = [
                (number, line[line.index("#"):])
                for number, line in enumerate(self.lines, start=1)
                if "#" in line
            ]
        for line_number, comment in comments:
            match = _PRAGMA.search(comment)
            if match is None:
                continue
            kind = match.group("kind")
            if kind == "hot":
                self.hot_lines.add(line_number)
                continue
            rules = {
                token.strip().upper().replace("*", "ALL")
                for token in (match.group("rules") or "").split(",")
                if token.strip()
            }
            if not rules:
                continue
            if kind == "disable-file":
                self.file_disables |= rules
            else:
                self.line_disables.setdefault(line_number, set()).update(rules)

    # -- queries used by rules and the engine ------------------------------
    def is_suppressed(self, rule: str, line: int) -> bool:
        rule = rule.upper()
        if rule in self.file_disables or "ALL" in self.file_disables:
            return True
        disabled = self.line_disables.get(line, ())
        return rule in disabled or "ALL" in disabled

    def hot_functions(self) -> List[ast.FunctionDef]:
        """Function defs tagged ``# repro-lint: hot`` (same or previous line)."""
        if self.tree is None:
            return []
        out = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                anchor_lines = {node.lineno}
                anchor_lines.update(d.lineno for d in node.decorator_list)
                first = min(anchor_lines)
                anchor_lines.add(first - 1)
                if anchor_lines & self.hot_lines:
                    out.append(node)
        return out

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass
class LintContext:
    """Everything a rule pass can see: config plus the parsed fileset."""

    config: LintConfig
    files: List[SourceFile] = field(default_factory=list)


class Rule:
    """Base class for lint rules.  Subclasses set ``rule_id``/``summary``."""

    rule_id = "RL???"
    name = "unnamed"
    summary = ""

    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, ctx: LintContext) -> Iterator[Violation]:
        return iter(())

    # -- helper ------------------------------------------------------------
    def violation(
        self, source: SourceFile, node_or_line, message: str, col: Optional[int] = None
    ) -> Violation:
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0 if col is None else col
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Violation(
            rule=self.rule_id,
            path=source.path,
            line=line,
            col=column,
            message=message,
            module=source.module,
        )


@dataclass
class LintResult:
    """Outcome of one engine run, with deterministic ordering."""

    violations: List[Violation]
    suppressed: List[Violation]
    baselined: List[Violation]
    files_scanned: int
    rules_run: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sort_key(violation: Violation) -> Tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col, violation.rule)


class LintEngine:
    """Parse once, run every active rule, apply pragmas and the baseline."""

    def __init__(self, config: LintConfig, rules: Sequence[Rule]):
        self.config = config
        unknown = set(config.select) | set(config.ignore)
        unknown -= {rule.rule_id for rule in rules} | {PARSE_ERROR_RULE}
        if unknown:
            raise ValueError(
                f"unknown rule id(s) in select/ignore: {sorted(unknown)}"
            )
        active = [
            rule
            for rule in rules
            if rule.rule_id in config.select and rule.rule_id not in config.ignore
        ]
        self.rules = sorted(active, key=lambda rule: rule.rule_id)

    def run(
        self, paths: Sequence[str], baseline_fingerprints: Optional[Dict[str, int]] = None
    ) -> LintResult:
        files = [SourceFile.load(path) for path in iter_python_files(paths)]
        ctx = LintContext(config=self.config, files=files)
        raw: List[Violation] = []
        for source in files:
            if source.parse_error is not None:
                error = source.parse_error
                raw.append(
                    Violation(
                        rule=PARSE_ERROR_RULE,
                        path=source.path,
                        line=error.lineno or 1,
                        col=(error.offset or 1) - 1,
                        message=f"cannot parse file: {error.msg}",
                        module=source.module,
                    )
                )
        for rule in self.rules:
            for source in files:
                if source.tree is None:
                    continue
                raw.extend(rule.check_file(source, ctx))
            raw.extend(rule.check_project(ctx))

        by_path = {source.path: source for source in files}
        active: List[Violation] = []
        suppressed: List[Violation] = []
        baselined: List[Violation] = []
        remaining = dict(baseline_fingerprints or {})
        for violation in sorted(raw, key=_sort_key):
            source = by_path.get(violation.path)
            violation = replace(
                violation, fingerprint=self.fingerprint(violation, source)
            )
            if (
                violation.rule != PARSE_ERROR_RULE
                and source is not None
                and source.is_suppressed(violation.rule, violation.line)
            ):
                suppressed.append(violation)
                continue
            if remaining.get(violation.fingerprint, 0) > 0:
                remaining[violation.fingerprint] -= 1
                baselined.append(violation)
                continue
            active.append(violation)
        return LintResult(
            violations=active,
            suppressed=suppressed,
            baselined=baselined,
            files_scanned=len(files),
            rules_run=tuple(rule.rule_id for rule in self.rules),
        )

    @staticmethod
    def fingerprint(violation: Violation, source: Optional[SourceFile]) -> str:
        """Stable identity of a finding for baseline matching."""
        import hashlib

        text = "" if source is None else source.line_text(violation.line).strip()
        blob = f"{violation.rule}::{violation.module}::{text}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
