"""``repro lint`` — the invariant linter's command line.

Invoked as ``python -m repro.staticcheck`` or
``python scripts/repro_lint.py``.  Scans ``src/repro``, ``scripts`` and
``benchmarks`` (or explicit paths) with every registered rule, matches the
findings against the committed ``staticcheck_baseline.json``, and exits:

* ``0`` — clean: no new findings, no stale baseline entries (entries for
  files outside the scanned paths are neither stale nor dropped);
* ``1`` — new findings and/or baseline drift (the CI failure mode);
* ``2`` — usage/environment errors: unknown rule id, malformed baseline.

Modes: ``--json`` (machine-readable report), ``--baseline-update``
(rewrite the baseline to the current findings and exit 0), ``--explain
<rule>`` (print a rule's rationale), ``--list-rules``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import (
    Baseline,
    BaselineError,
    diff_against_baseline,
    out_of_scope,
    write_baseline,
)
from .engine import scan_paths
from .findings import Finding
from .rules import DEFAULT_RULES, default_rules, rule_by_id

__all__ = ["main", "build_parser", "find_root"]

DEFAULT_PATHS = ("src/repro", "scripts", "benchmarks")
BASELINE_NAME = "staticcheck_baseline.json"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def find_root(start: Optional[Path] = None) -> Path:
    """Ascend from ``start`` (default cwd) to the repo root.

    The root is the first ancestor holding ``src/repro`` and a
    ``Makefile`` — the layout ``make lint`` runs from.  Falls back to
    ``start`` itself so explicit ``--root``/path arguments still work
    from anywhere.
    """
    start = (start or Path.cwd()).resolve()
    for candidate in (start, *start.parents):
        if (candidate / "src" / "repro").is_dir() and (candidate / "Makefile").is_file():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant linter for the PEM reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help=f"files/directories to scan (default: {', '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: nearest ancestor with src/repro + Makefile)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <root>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--baseline-update", action="store_true",
        help="rewrite the baseline to pin the current findings, then exit 0",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's rationale and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule id with its summary and exit",
    )
    return parser


def _explain(rule_id: str) -> int:
    try:
        rule = rule_by_id(rule_id)
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{rule.id}: {rule.summary}\n")
    print(rule.rationale)
    return EXIT_CLEAN


def _list_rules() -> int:
    for cls in DEFAULT_RULES:
        print(f"{cls.id:24s} {cls.summary}")
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.explain is not None:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()

    root = (args.root or find_root()).resolve()
    paths = list(args.paths) or list(DEFAULT_PATHS)
    baseline_path = args.baseline or (root / BASELINE_NAME)

    reports = scan_paths(root, paths, default_rules())
    findings: List[Finding] = sorted(
        finding for report in reports for finding in report.findings
    )

    if args.no_baseline or not baseline_path.exists():
        baseline = Baseline.empty()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return EXIT_USAGE

    bases = [(root / entry).resolve() for entry in paths]

    def in_scope(rel_path: str) -> bool:
        target = (root / rel_path).resolve()
        return any(target == base or base in target.parents for base in bases)

    kept = out_of_scope(baseline, in_scope)
    if args.baseline_update:
        payload = write_baseline(findings, baseline_path, kept)
        print(
            f"repro lint: baseline updated with {len(findings)} finding(s) "
            f"({len(payload['findings'])} distinct) -> {baseline_path}"
        )
        return EXIT_CLEAN

    diff = diff_against_baseline(findings, Baseline(baseline.entries - kept))

    scanned = len(reports)
    if args.as_json:
        print(
            json.dumps(
                {
                    "scanned_modules": scanned,
                    "new": [finding.to_dict() for finding in diff.new],
                    "accepted": [finding.to_dict() for finding in diff.accepted],
                    "stale": [
                        {"rule": rule, "path": path, "snippet": snippet}
                        for rule, path, snippet in diff.stale
                    ],
                    "clean": diff.clean,
                },
                indent=2,
            )
        )
    else:
        for finding in diff.new:
            print(finding.render())
        for rule, path, snippet in diff.stale:
            print(
                f"{path}: stale baseline entry [{rule}] — the pinned finding "
                f"no longer exists (run --baseline-update)\n    {snippet}"
            )
        status = "OK" if diff.clean else "FAILED"
        print(
            f"repro lint: {status} — {scanned} modules, "
            f"{len(diff.new)} new finding(s), {len(diff.accepted)} baselined, "
            f"{len(diff.stale)} stale baseline entr"
            f"{'y' if len(diff.stale) == 1 else 'ies'}"
        )
    return EXIT_CLEAN if diff.clean else EXIT_FINDINGS
