"""Wall-clock benchmark of PEM trading days.

Run from the repository root:

    python3 perfbench/run.py --workload private_1024_12 --seed 2020 --seconds 40 --trace 0

Each invocation is one seeded trading day of one workload in this fresh
process.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
the layers' entry points and prints the per-layer table instead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A report (and, when traced, every span) is written under
``perfbench/out/``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "window_s.p50": "s",
    "window_s.p75": "s",
    "windows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_kib_per_window"):
        return "KiB"
    if name.endswith(("_s", "_s_per_window")) or name.startswith("self_s."):
        return "s"
    if name.endswith(("bytes", "frame_bytes")):
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2020, help="dataset seed (default 2020)")
    parser.add_argument("--seconds", type=float, default=40.0, help="nominal run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs the program on sys.path
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    span = workloads.choose_span(
        workloads.day_cases(workload.homes, args.seed),
        workloads.window_count(workload, args.seconds),
        workload.private,
    )

    tracer = Tracer() if args.trace else None
    setups = []
    with tracer or contextlib.nullcontext():
        for repeat in range(workloads.SETUP_REPEATS):
            if tracer is not None and repeat == workloads.SETUP_REPEATS - 1:
                tracer.window, tracer.phase = "setup", "setup"
            session = workloads.set_up(workload, args.seed, span)
            if tracer is not None:
                tracer.window = None
            setups.append(session.seconds)
        run = workloads.run_span(session, span, tracer)

    problems = [f"warm-up window {span.warmup}: {p}" for p in session.warmup_problems]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": workloads.host_fingerprint(),
        "span": {
            "first": span.windows[0],
            "last": span.windows[-1],
            "warmup": span.warmup,
            "mix": span.mix(),
        },
        "setup_runs_s": setups,
        "attempted": run.attempted,
        "failures": run.failures,
    }
    if run.records and workload.private:
        sums = workloads.protocol_sums(run.records)
        problems.extend(sums["problems"])
        report["messages_per_window"] = sums["messages"] / len(run.records)
        report["protocol_kib_per_window"] = sums["protocol_bytes"] / len(run.records) / 1024
        report["sim_online_s_per_window"] = sums["online_s"] / len(run.records)

    if args.trace:
        metrics, trace_problems = workloads.per_layer(
            workload, run, tracer.spans(), threading.main_thread().ident
        )
        problems.extend(trace_problems)
        units = {name: unit(name) for name in metrics}
        report["paired_windows"] = len(run.records)
    elif run.records:
        metrics = workloads.end_to_end(run.records, setups)
        units = END_TO_END_UNITS
        times = [r.seconds for r in run.records]
        report["samples"] = {"timed_windows": len(times)}
        for name in ("window_s.p50", f"window_s.p{workloads.TAIL_PERCENTILE}"):
            report["samples"][f"beyond_{name}"] = sum(t > metrics[name] for t in times)
    else:
        metrics, units = {}, {}
    report["metrics"] = metrics
    report["problems"] = problems

    failed = len(run.failures)
    correct = failed == 0 and not problems and bool(run.records)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["spans_written"] = tracer.write_jsonl(f"{stem}.spans.jsonl.gz")
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, default=str))

    print_report(report, units, setups, failed)
    for problem in problems + run.failures:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def print_report(report, units, setups, failed) -> None:
    host, span = report["host"], report["span"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"host     nproc={host['nproc']}  cpu={host['cpu']!r}  python={host['python']}")
    print(
        f"span     windows {span['first']}-{span['last']}  warm-up {span['warmup']}  "
        f"mix {span['mix']}"
    )
    print(f"setup    {len(setups)} runs, median {statistics.median(setups):.4f} s")
    rows = dict(report["metrics"])
    attempted = report["attempted"]
    rows["failed_ratio"] = failed / attempted if attempted else 0.0
    units = dict(units, failed_ratio="ratio")
    for name in ("protocol_kib_per_window", "sim_online_s_per_window", "messages_per_window"):
        if name in report and not report["trace"]:
            rows[name] = report[name]
            units[name] = {"messages_per_window": "count"}.get(name, unit(name))
    if "samples" in report:
        print(f"samples  {report['samples']}")
    if "paired_windows" in report:
        print(f"pairs    {report['paired_windows']} windows cleared untraced and traced")
    for name, value in rows.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
