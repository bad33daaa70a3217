#!/usr/bin/env python
"""Regenerate ``BENCH_crypto.json``: the micro-benchmarks, then every section.

A generic driver: it runs ``benchmarks/test_crypto_micro.py`` under
pytest-benchmark and distills the stats and ``speedups``, then observes and
serializes every section declared in ``benchmarks/bench_sections.py``, in
order, at the chosen scale.  It holds no gate of its own: it checks the
report it just built with ``validate_report`` from
``scripts/check_bench_schema.py``, prints each problem, writes the report
either way and exits non-zero if any gate fails — at every scale, the
``smoke`` run of ``make ci`` included.  See ``docs/BENCHMARKS.md`` for
every field.

Usage::

    python benchmarks/run_crypto_bench.py [--scale smoke|quick|default|full]
                                          [--workers N]
                                          [--output BENCH_crypto.json]

The scale defaults to ``REPRO_BENCH_SCALE`` (or ``default``); ``smoke`` is
the CI mode — key sizes scaled down so the whole run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_sections  # noqa: E402
from check_bench_schema import validate_report  # noqa: E402

#: (after, before) benchmark pairs whose mean-time ratio we report.
SPEEDUP_PAIRS = {
    "encrypt_pooled_vs_fresh": ("test_paillier_encrypt", "test_paillier_encrypt_fresh"),
    "decrypt_crt_vs_textbook": ("test_paillier_decrypt", "test_paillier_decrypt_textbook"),
    "comparison_pooled_vs_classic": (
        "test_garbled_comparison_pooled_online",
        "test_garbled_secure_comparison",
    ),
}


def run_benchmarks(scale: str, json_path: Path) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = scale
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / "test_crypto_micro.py"),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
    ]
    subprocess.run(command, check=True, env=env, cwd=REPO_ROOT / "benchmarks")


def distill(raw: dict, scale: str) -> dict:
    benches: dict = {}
    for entry in raw.get("benchmarks", []):
        group = entry["name"].split("[")[0]
        param = str(entry.get("param", ""))
        benches.setdefault(group, {})[param] = {
            "mean_s": entry["stats"]["mean"],
            "stddev_s": entry["stats"]["stddev"],
            "rounds": entry["stats"]["rounds"],
        }
    speedups: dict = {}
    for label, (after, before) in SPEEDUP_PAIRS.items():
        per_param = {}
        for param, before_stats in benches.get(before, {}).items():
            after_stats = benches.get(after, {}).get(param)
            if after_stats and after_stats["mean_s"] > 0:
                per_param[param] = bench_sections.round_float(
                    before_stats["mean_s"] / after_stats["mean_s"]
                )
        if per_param:
            speedups[label] = per_param
    return {
        "scale": scale,
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "datetime": raw.get("datetime"),
        "benchmarks": benches,
        "speedups": speedups,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "default"),
        choices=("smoke", "quick", "default", "full"),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the sharded-day experiment (default 4)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_crypto.json",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "raw.json"
        run_benchmarks(args.scale, raw_path)
        raw = json.loads(raw_path.read_text())

    report = distill(raw, args.scale)
    run = bench_sections.Run(args.scale, args.workers, report["benchmarks"])
    for section in bench_sections.SECTIONS:
        print(f"running the {section.name} section ...")
        observation = section.observe(run, **section.scales.get(args.scale, {}))
        report[section.name] = bench_sections.to_json(observation)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    problems = validate_report(report)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    print(f"wrote {args.output} ({len(problems)} gate problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
