"""``repro plan`` — the deployment-planner command line.

Invoked as ``python -m repro.planning`` or ``python scripts/repro_plan.py``.
Given a fleet description it prints the cost-optimal deployment with a
human-readable cost breakdown; two certificate modes gate CI:

* ``--oracle`` re-derives the optimum by exhaustive enumeration and exits
  non-zero unless the branch-and-bound choice matches it bit-for-bit;
* ``--execute K`` runs the emitted ``ProtocolConfig`` + ``ExecutionPlan``
  end-to-end over ``K`` sampled market windows next to the naive
  default deployment, and exits non-zero unless the two runs are
  economically identical window by window (the planner may move clock
  charges, never trades).
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from .fleet import FleetSpec, LinkProfile, resolve_link_profile
from .search import DeploymentPlan, exhaustive_argmin, naive_candidate, plan

__all__ = ["main", "build_spec", "execute_plan"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro plan",
        description="Plan the cost-optimal deployment of a PEM trading day.",
    )
    parser.add_argument("--hosts", type=int, default=1, help="machines available")
    parser.add_argument(
        "--cores-per-host", type=int, default=4, help="worker slots per machine"
    )
    parser.add_argument("--agents", type=int, default=12, help="smart homes trading")
    parser.add_argument(
        "--windows", type=int, default=6, help="market windows per day"
    )
    parser.add_argument(
        "--profile", choices=("lan", "wan"), default="lan",
        help="link profile (lan: 0.5 ms / 100 MB/s; wan: 5 ms / 20 MB/s)",
    )
    parser.add_argument(
        "--latency-ms", type=float, default=None,
        help="override link latency in milliseconds",
    )
    parser.add_argument(
        "--bandwidth-mbps", type=float, default=None,
        help="override link bandwidth in MB/s",
    )
    parser.add_argument(
        "--key-size", type=int, default=1024, help="Paillier modulus size (bits)"
    )
    parser.add_argument(
        "--comparison-bits", type=int, default=64,
        help="bit width of the secure comparisons",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the plan as JSON instead of text"
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help="verify the plan against exhaustive enumeration (exit non-zero "
             "on mismatch)",
    )
    parser.add_argument(
        "--execute", type=int, default=None, metavar="K",
        help="execute the planned config end-to-end over K sampled market "
             "windows next to the naive default and certify economic "
             "identity (exit non-zero on divergence)",
    )
    parser.add_argument(
        "--execute-homes", type=int, default=8,
        help="homes to trade in the --execute run (kept small: real crypto)",
    )
    parser.add_argument(
        "--crypto-key-size", type=int, default=128,
        help="actual Paillier key for the --execute run (the cost model is "
             "still charged at --key-size)",
    )
    return parser


def build_spec(args: argparse.Namespace) -> FleetSpec:
    link = resolve_link_profile(args.profile)
    if args.latency_ms is not None or args.bandwidth_mbps is not None:
        link = LinkProfile(
            name="custom",
            latency_seconds=(
                args.latency_ms / 1e3
                if args.latency_ms is not None
                else link.latency_seconds
            ),
            bandwidth_bytes_per_second=(
                args.bandwidth_mbps * 1e6
                if args.bandwidth_mbps is not None
                else link.bandwidth_bytes_per_second
            ),
        )
    return FleetSpec(
        hosts=args.hosts,
        cores_per_host=args.cores_per_host,
        link=link,
        agent_count=args.agents,
        windows_per_day=args.windows,
        key_size=args.key_size,
        comparison_bits=args.comparison_bits,
    )


def _check_oracle(spec: FleetSpec, deployment: DeploymentPlan) -> bool:
    oracle = exhaustive_argmin(spec)
    matches = (
        oracle.candidate == deployment.chosen.candidate
        and oracle.day_seconds == deployment.chosen.day_seconds
    )
    print(
        f"oracle           : exhaustive argmin "
        f"{'matches the plan (bit-equal cost)' if matches else 'DIVERGED'}"
        f" [{oracle.candidate.describe()} @ {oracle.day_seconds:.3f} s]"
    )
    return matches


def execute_plan(
    spec: FleetSpec,
    deployment: DeploymentPlan,
    sample_count: int,
    home_count: int,
    crypto_key_size: int,
) -> dict:
    """Run planned vs. naive end-to-end; return the measured certificate."""
    from ..analysis.experiments import default_dataset, sample_market_windows
    from ..core.params import PAPER_PARAMETERS
    from ..core.protocols import PrivateTradingEngine
    from .costing import build_cost_model

    dataset = default_dataset(max(home_count, 300))
    windows = sample_market_windows(dataset, home_count, sample_count)
    chosen = deployment.chosen.candidate
    naive = naive_candidate(spec)

    def run(candidate):
        engine = PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=candidate.protocol_config(crypto_key_size=crypto_key_size),
            cost_model=build_cost_model(spec, candidate.key_size),
        )
        return engine.run_windows_report(
            dataset,
            windows,
            home_count=home_count,
            workers=candidate.workers,
            pipeline=candidate.pipeline,
        )

    planned_report = run(chosen)
    naive_report = run(naive)
    planned_seconds = (
        planned_report.pipelined_simulated_seconds
        if chosen.pipeline
        else planned_report.unpipelined_simulated_seconds
    )
    naive_seconds = naive_report.unpipelined_simulated_seconds
    return {
        "windows_executed": len(planned_report.traces),
        "economics_identical": planned_report.economically_equal(naive_report),
        "planned_day_seconds": planned_seconds,
        "naive_day_seconds": naive_seconds,
        "measured_speedup": (
            naive_seconds / planned_seconds if planned_seconds > 0 else 1.0
        ),
    }


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = build_spec(args)
    deployment = plan(spec)

    payload = deployment.to_dict()
    if not args.json:
        print(deployment.describe())

    ok = True
    if args.oracle:
        matches = _check_oracle(spec, deployment)
        payload["oracle_match"] = matches
        ok = ok and matches

    if args.execute is not None:
        executed = execute_plan(
            spec, deployment, args.execute, args.execute_homes, args.crypto_key_size
        )
        payload["executed"] = executed
        if not args.json:
            print(
                f"executed         : {executed['windows_executed']} windows, "
                f"economics identical: {executed['economics_identical']}, "
                f"measured day {executed['planned_day_seconds']:.2f} s vs naive "
                f"{executed['naive_day_seconds']:.2f} s "
                f"({executed['measured_speedup']:.2f}x)"
            )
        ok = ok and executed["economics_identical"]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
