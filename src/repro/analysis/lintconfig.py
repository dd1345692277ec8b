"""Configuration for the invariant linter: the ``[repro.analysis]`` section.

Defaults live here in code; a repo overrides them from ``setup.cfg`` (or
any INI file passed via ``--config``)::

    [repro.analysis]
    # Which rules run (and which are switched off repo-wide).
    select = RL001, RL002, RL003, RL004, RL005, RL006
    ignore =
    # Committed baseline of accepted pre-existing findings.
    baseline = lint-baseline.json
    # Dotted-module globs where wall-clock reads are legitimate
    # (CLI drivers timing their own output, benchmarks).
    allow_wallclock = *.__main__, benchmarks.*
    # Dotted-module globs where global RNG use is legitimate.
    allow_global_random =
    # Function names treated as wire-dispatch entry points by RL002
    # (a raise escaping one of these would crash the transport).
    dispatch_functions = handle, handle_dict, handle_wire, run_stream,
        serve_connection, route_connection
    # module:NAME pairs of sanctioned process-global registries (RL004).
    registries = repro.faults.injector:_ACTIVE, ...
    # RL003 knobs: repeated-attribute-chain threshold inside one loop,
    # and how deep the hot tag propagates through the call graph.
    hot_rederef_threshold = 3
    hot_call_depth = 3
    # RL005 sinks, as name:positional_index:keyword entries.  "strict"
    # sinks feed json.dumps directly (numpy arrays / tuples / non-str
    # keys all drift); "lenient" sinks reach envelopes.encode_wire
    # (which converts numpy but still rejects bytes/complex).
    strict_sinks = append_record:2:record, json.dumps:0:obj
    lenient_sinks = encode_wire:0:value, Response.success:0:result

Every key is optional; list values split on commas and newlines.
"""

from __future__ import annotations

import configparser
import fnmatch
import os
import re
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["LintConfig", "SinkSpec", "CONFIG_SECTION"]

CONFIG_SECTION = "repro.analysis"

_DEFAULT_RULES = ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")

#: Sanctioned process-global registries in this repo (RL004).  These are
#: either populated at import time through registration decorators (and
#: therefore identical in every process-pool worker) or are *the*
#: deliberate per-process slots (fault injector, pool-worker evaluator).
_DEFAULT_REGISTRIES = (
    "repro.core.search.base:SEARCH_REGISTRY",
    "repro.core.tuner:_PROCESS_EVALUATOR",
    "repro.experiments.registry:_REGISTRY",
    "repro.faults.injector:_ACTIVE",
    "repro.faults.injector:_LOCK",
    "repro.faults.profiles:PROFILES",
    "repro.runtime.agents:AGENT_REGISTRY",
    "repro.runtime.base:RUNTIME_REGISTRY",
    "repro.service.service:EVALUATOR_REGISTRY",
)


@dataclass(frozen=True)
class SinkSpec:
    """One RL005 serialization sink: where the wire-bound argument sits."""

    name: str  # possibly dotted; matched as a component-aligned suffix
    arg_index: int
    keyword: str
    strict: bool

    @classmethod
    def parse(cls, text: str, strict: bool) -> "SinkSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"sink spec {text!r} must look like name:positional_index:keyword"
            )
        return cls(
            name=parts[0].strip(),
            arg_index=int(parts[1]),
            keyword=parts[2].strip(),
            strict=strict,
        )


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration (see module docstring for the keys)."""

    paths: Tuple[str, ...] = ("src",)
    select: Tuple[str, ...] = _DEFAULT_RULES
    ignore: Tuple[str, ...] = ()
    baseline: str = "lint-baseline.json"
    allow_wallclock: Tuple[str, ...] = ("*.__main__", "benchmarks.*")
    allow_global_random: Tuple[str, ...] = ()
    dispatch_functions: Tuple[str, ...] = (
        "handle",
        "handle_dict",
        "handle_wire",
        "run_stream",
        "serve_connection",
        "route_connection",
    )
    wire_code_pattern: str = r"\b(?:SVC|PWR)_RET_[A-Z][A-Z_]*[A-Z]\b"
    registries: Tuple[str, ...] = _DEFAULT_REGISTRIES
    hot_rederef_threshold: int = 3
    hot_call_depth: int = 3
    strict_sinks: Tuple[str, ...] = ("append_record:2:record", "json.dumps:0:obj")
    lenient_sinks: Tuple[str, ...] = ("encode_wire:0:value", "Response.success:0:result")

    # -- derived views -----------------------------------------------------
    def sink_specs(self) -> Tuple[SinkSpec, ...]:
        return tuple(SinkSpec.parse(s, strict=True) for s in self.strict_sinks) + tuple(
            SinkSpec.parse(s, strict=False) for s in self.lenient_sinks
        )

    def registry_pairs(self) -> Dict[str, frozenset]:
        """``{module: {names}}`` of sanctioned registries."""
        out: Dict[str, set] = {}
        for entry in self.registries:
            module, _, name = entry.partition(":")
            if not name:
                raise ValueError(f"registry entry {entry!r} must be module:NAME")
            out.setdefault(module.strip(), set()).add(name.strip())
        return {module: frozenset(names) for module, names in out.items()}

    def is_registry(self, module: str, name: str) -> bool:
        return name in self.registry_pairs().get(module, frozenset())

    def wallclock_allowed(self, module: str) -> bool:
        return _matches_any(module, self.allow_wallclock)

    def global_random_allowed(self, module: str) -> bool:
        return _matches_any(module, self.allow_global_random)

    def compiled_wire_pattern(self) -> "re.Pattern[str]":
        return re.compile(self.wire_code_pattern)

    # -- loading -----------------------------------------------------------
    @classmethod
    def from_file(cls, path: str, missing_ok: bool = True) -> "LintConfig":
        """Load overrides from an INI file's ``[repro.analysis]`` section."""
        parser = configparser.ConfigParser()
        if not os.path.isfile(path):
            if missing_ok:
                return cls()
            raise FileNotFoundError(path)
        parser.read(path, encoding="utf-8")
        if not parser.has_section(CONFIG_SECTION):
            return cls()
        section = parser[CONFIG_SECTION]
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(section) - known)
        if unknown:
            raise ValueError(
                f"unknown [{CONFIG_SECTION}] option(s) {unknown}; known: {sorted(known)}"
            )
        kwargs: Dict[str, object] = {}
        for spec in fields(cls):
            if spec.name not in section:
                continue
            raw = section[spec.name]
            if spec.type in ("Tuple[str, ...]",):
                kwargs[spec.name] = _split_list(raw)
            elif spec.type == "int":
                kwargs[spec.name] = int(raw)
            else:
                kwargs[spec.name] = raw.strip()
        return cls(**kwargs)  # type: ignore[arg-type]


def _split_list(raw: str) -> Tuple[str, ...]:
    tokens = []
    for chunk in raw.replace("\n", ",").split(","):
        chunk = chunk.strip()
        if chunk:
            tokens.append(chunk)
    return tuple(tokens)


def _matches_any(module: str, globs: Sequence[str]) -> bool:
    return any(fnmatch.fnmatchcase(module, pattern) for pattern in globs)
