"""Analysis: survey tables, result rendering, and the invariant linter.

* :mod:`repro.analysis.survey` — regenerates the paper's three survey
  tables from the live registries in :mod:`repro.core.interfaces` and the
  implemented components themselves.
* :mod:`repro.analysis.reporting` — small helpers to format experiment
  results as aligned text tables and ASCII sparklines/time-series, which
  is how the benchmark harness "draws" the paper's figures.
* the invariant linter (``python -m repro.analysis``) — an AST rule
  engine (:mod:`~repro.analysis.engine`) with a repo-specific battery
  (:mod:`~repro.analysis.rules`, RL001–RL006) statically enforcing the
  determinism, wire-boundary, hot-path, fork-safety, serialization and
  dead-code contracts the runtime suites can only probe.  Configured via the
  ``[repro.analysis]`` section of ``setup.cfg``
  (:mod:`~repro.analysis.lintconfig`), with pragma suppression and a
  committed baseline (:mod:`~repro.analysis.baseline`).
"""

from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    LintContext,
    LintEngine,
    LintResult,
    Rule,
    SourceFile,
    Violation,
)
from repro.analysis.lintconfig import LintConfig
from repro.analysis.reporters import render_json, render_text
from repro.analysis.reporting import ascii_timeseries, format_table, sparkline
from repro.analysis.rules import default_rules
from repro.analysis.survey import (
    existing_components_table,
    parameters_methods_table,
    terms_table,
)

__all__ = [
    "Baseline",
    "LintConfig",
    "LintContext",
    "LintEngine",
    "LintResult",
    "Rule",
    "SourceFile",
    "Violation",
    "ascii_timeseries",
    "default_rules",
    "existing_components_table",
    "format_table",
    "parameters_methods_table",
    "render_json",
    "render_text",
    "sparkline",
    "terms_table",
]
