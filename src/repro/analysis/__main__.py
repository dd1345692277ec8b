"""CLI driver: ``python -m repro.analysis [paths...]``.

Runs the invariant linter over the given files/directories (default:
the ``paths`` key of ``[repro.analysis]`` in ``setup.cfg``, falling back
to ``src``) and reports ``path:line:col RULE message`` findings.

Stable exit codes (scripted by CI):

* ``0`` — no active violations (pragma-suppressed and baseline-accepted
  findings do not fail the run);
* ``1`` — at least one active violation (or an unparseable file);
* ``2`` — usage, configuration or baseline error.

Examples::

    python -m repro.analysis src/                 # lint the tree
    python -m repro.analysis --format json src/   # machine-readable
    python -m repro.analysis --list-rules         # what runs
    python -m repro.analysis --update-baseline    # accept current findings
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.engine import LintEngine
from repro.analysis.lintconfig import CONFIG_SECTION, LintConfig
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import default_rules

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter: determinism (RL001), wire-boundary "
            "(RL002), hot-path purity (RL003), fork-safety (RL004), "
            "serialization (RL005) and dead-code (RL006) contracts."
        ),
        epilog=(
            "exit codes: 0 clean, 1 violations, 2 usage/config error. "
            f"Configure via the [{CONFIG_SECTION}] section of setup.cfg."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: 'paths' from config)",
    )
    parser.add_argument(
        "--config",
        default="setup.cfg",
        help="INI file carrying the [%s] section (default: ./setup.cfg)"
        % CONFIG_SECTION,
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (overrides config)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip (overrides config)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (overrides config; missing file = empty baseline)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed and baseline-accepted findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule battery and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in sorted(rules, key=lambda r: r.rule_id):
            print(f"{rule.rule_id}  {rule.name:<14} {rule.summary}")
        return EXIT_CLEAN

    try:
        config = LintConfig.from_file(args.config)
        if args.select is not None:
            config = _replace(config, select=_csv(args.select))
        if args.ignore is not None:
            config = _replace(config, ignore=_csv(args.ignore))
        if args.baseline is not None:
            config = _replace(config, baseline=args.baseline)
        engine = LintEngine(config, rules)
        baseline = (
            Baseline()
            if args.no_baseline
            else Baseline.load(config.baseline)
        )
    except (ValueError, OSError) as error:
        print(f"repro.analysis: configuration error: {error}", file=sys.stderr)
        return EXIT_ERROR

    paths = list(args.paths) or list(config.paths)
    # Wall-clock here is CLI progress metadata only; the lint result
    # itself is a pure function of the file contents.
    started = time.perf_counter()
    result = engine.run(paths, baseline_fingerprints=baseline.fingerprints())
    elapsed = time.perf_counter() - started

    if args.update_baseline:
        Baseline.from_violations(result.violations).write(config.baseline)
        print(
            f"baseline {config.baseline} updated: "
            f"{len(result.violations)} accepted finding(s)"
        )
        return EXIT_CLEAN

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
        print(f"scanned in {elapsed:.2f}s")
    return EXIT_CLEAN if result.ok else EXIT_VIOLATIONS


def _csv(raw: str):
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _replace(config: LintConfig, **kwargs) -> LintConfig:
    from dataclasses import replace

    return replace(config, **kwargs)


if __name__ == "__main__":
    raise SystemExit(main())
