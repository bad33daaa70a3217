#!/usr/bin/env python
"""The gates of ``BENCH_crypto.json``, applied to one report.

:func:`validate_report` is the only check of a benchmark report.  It derives
every structural problem and certificate from the section declarations in
``benchmarks/bench_sections.py``, then applies each section's floors.  It
runs twice: in ``benchmarks/run_crypto_bench.py`` on the report it just
built, and here on the committed file (part of ``make docs-check``).  How a
section and its gates are declared: ``docs/BENCHMARKS.md``, "How a section
is declared".

Exits non-zero with a list of problems, so it can gate CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_crypto.json"
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_sections  # noqa: E402


def validate_report(report: dict) -> List[str]:
    """Every problem with one benchmark report; ``[]`` means all gates hold."""
    problems = list(bench_sections.shape_problems(report, bench_sections.Header, ""))
    for section in bench_sections.SECTIONS:
        value = report.get(section.name)
        if not isinstance(value, dict) or not value:
            problems.append(f"missing or empty {section.name!r} section")
            continue
        problems.extend(bench_sections.shape_problems(value, section.observation, section.name))
        problems.extend(section.gates(value))
    return problems


def validate(path: Path = BENCH_PATH) -> List[str]:
    """Load and validate the report at ``path``; an unreadable file is one problem."""
    if not path.exists():
        return [f"missing {path.name}"]
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name} is not valid JSON: {exc}"]
    return validate_report(report)


def main() -> int:
    problems = validate()
    if problems:
        print("check-bench-schema: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"check-bench-schema: OK ({BENCH_PATH.name} matches the documented schema)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
