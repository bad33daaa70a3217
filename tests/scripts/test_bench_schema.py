"""Negative-path tests for ``scripts/check_bench_schema.py``.

The schema checker is the CI gate that keeps a regenerated
``BENCH_crypto.json`` honest — so the checker itself needs a test that
*breaks* the report in every documented way and proves each break is
caught.  One mutation per section: a missing required key, a wrong type,
a floor violation, and an identity certificate flipped to false.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_crypto.json"

_spec = importlib.util.spec_from_file_location(
    "check_bench_schema", REPO_ROOT / "scripts" / "check_bench_schema.py"
)
check_bench_schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_schema)


def _validate_mutated(tmp_path, mutate):
    report = json.loads(BENCH_PATH.read_text())
    mutate(report)
    path = tmp_path / "BENCH_mutated.json"
    path.write_text(json.dumps(report))
    return check_bench_schema.validate(path)


def test_baseline_report_is_valid(tmp_path):
    problems = _validate_mutated(tmp_path, lambda report: None)
    assert problems == []


def test_missing_file_is_one_problem(tmp_path):
    problems = check_bench_schema.validate(tmp_path / "nope.json")
    assert problems == ["missing nope.json"]


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    problems = check_bench_schema.validate(path)
    assert len(problems) == 1
    assert "not valid JSON" in problems[0]


def _first(mapping):
    return next(iter(mapping))


# One mutation per documented failure mode: (id, mutator, expected fragment).
MUTATIONS = [
    (
        "top-level-key-missing",
        lambda r: r.pop("scale"),
        "missing top-level key 'scale'",
    ),
    (
        "benchmarks-section-missing",
        lambda r: r.pop("benchmarks"),
        "missing top-level key 'benchmarks'",
    ),
    (
        "benchmarks-entry-lacks-mean",
        lambda r: r["benchmarks"][_first(r["benchmarks"])][
            _first(r["benchmarks"][_first(r["benchmarks"])])
        ].pop("mean_s"),
        "lacks 'mean_s'",
    ),
    (
        "parallel-section-missing",
        lambda r: r.pop("parallel_runner"),
        "missing or empty 'parallel_runner' section",
    ),
    (
        "parallel-identity-false",
        lambda r: r["parallel_runner"].update(results_identical=False),
        "parallel_runner.results_identical is not true",
    ),
    (
        "comparison-identity-false",
        lambda r: r["comparison"][_first(r["comparison"])].update(
            outcomes_match=False
        ),
        "outcomes_match is not true",
    ),
    (
        "comparison-floor-violated",
        lambda r: r["comparison"][_first(r["comparison"])].update(
            simulated_online_reduction=1.0
        ),
        "below the documented 3.0x floor",
    ),
    (
        "comparison-reduction-wrong-type",
        lambda r: r["comparison"][_first(r["comparison"])].update(
            simulated_online_reduction="fast"
        ),
        "below the documented 3.0x floor",
    ),
    (
        "garbling-table-floor-violated",
        lambda r: r["garbling"]["widths"][_first(r["garbling"]["widths"])].update(
            table_bytes_reduction=1.0
        ),
        "table-bytes reduction",
    ),
    (
        "garbling-scheme-entry-missing",
        lambda r: r["garbling"]["widths"][_first(r["garbling"]["widths"])].pop(
            "halfgates"
        ),
        "garbling.widths['32'] lacks 'halfgates'",
    ),
    (
        "garbling-economics-false",
        lambda r: r["garbling"].update(economics_identical_across_schemes=False),
        "economics_identical_across_schemes is not true",
    ),
    (
        "multiexp-oracle-false",
        lambda r: r["multiexp"]["fixed_base_comb"].update(matches_pow=False),
        "matches_pow is not true",
    ),
    (
        "topology-sums-false",
        lambda r: r["aggregation_topology"]["requesters"][
            _first(r["aggregation_topology"]["requesters"])
        ].update(sums_identical=False),
        "sums_identical is not true",
    ),
    (
        "topology-speedup-floor",
        lambda r: r["aggregation_topology"]["requesters"][
            max(r["aggregation_topology"]["requesters"], key=int)
        ].update(tree_vs_chain_speedup=1.1),
        "below the documented 2.0x floor",
    ),
    (
        "session-speedup-floor",
        lambda r: r["session_reuse"].update(session_reuse_speedup=1.5),
        "below the documented 2.0x floor",
    ),
    (
        "session-socket-identity-false",
        lambda r: r["session_reuse"].update(socket_transport_identical=False),
        "socket_transport_identical is not true",
    ),
    (
        "pipelining-identity-false",
        lambda r: r["pipelining"]["identical_by_workers"].update(
            {_first(r["pipelining"]["identical_by_workers"]): False}
        ),
        "pipelining.identical_by_workers['1'] is not true",
    ),
    (
        "pipelining-key-missing",
        lambda r: r["pipelining"].pop("hidden_offline_seconds"),
        "pipelining lacks 'hidden_offline_seconds'",
    ),
    (
        "chaos-recovery-rate-floor",
        lambda r: r["chaos"].update(recovery_rate=0.5),
        "below the 1.0 floor",
    ),
    (
        "chaos-no-faults-injected",
        lambda r: r["chaos"].update(total_incidents=0),
        "must actually inject faults",
    ),
    (
        "chaos-tamper-open",
        lambda r: r["chaos"].update(tamper_fail_closed=False),
        "tamper_fail_closed is not true",
    ),
    (
        "chaos-cell-identity-false",
        lambda r: r["chaos"]["matrix"][_first(r["chaos"]["matrix"])].update(
            recovered_identical=False
        ),
        "recovered_identical is not true",
    ),
    (
        "planner-section-missing",
        lambda r: r.pop("planner"),
        "missing or empty 'planner' section",
    ),
    (
        "planner-too-few-regimes",
        lambda r: r["planner"]["regimes"].pop(_first(r["planner"]["regimes"])),
        "at least 3 fleet regimes",
    ),
    (
        "planner-oracle-false",
        lambda r: r["planner"]["regimes"][_first(r["planner"]["regimes"])].update(
            oracle_match=False
        ),
        "planner.regimes['lan_cluster'].oracle_match is not true",
    ),
    (
        "planner-speedup-not-strict",
        lambda r: r["planner"]["regimes"][_first(r["planner"]["regimes"])].update(
            speedup=1.0
        ),
        "does not beat the naive default",
    ),
    (
        "planner-speedup-wrong-type",
        lambda r: r["planner"]["regimes"][_first(r["planner"]["regimes"])].update(
            speedup="fast"
        ),
        "does not beat the naive default",
    ),
    (
        "planner-regime-key-missing",
        lambda r: r["planner"]["regimes"][_first(r["planner"]["regimes"])].pop(
            "space_size"
        ),
        "lacks 'space_size'",
    ),
    (
        "planner-executed-missing",
        lambda r: r["planner"].pop("executed"),
        "planner lacks 'executed'",
    ),
    (
        "planner-economics-false",
        lambda r: r["planner"]["executed"].update(economics_identical=False),
        "planner.executed.economics_identical is not true",
    ),
    (
        "planner-measured-floor",
        lambda r: r["planner"]["executed"].update(measured_speedup=0.9),
        "measured speedup",
    ),
]


@pytest.mark.parametrize(
    "mutate,fragment",
    [pytest.param(mutate, fragment, id=name) for name, mutate, fragment in MUTATIONS],
)
def test_mutation_is_caught(tmp_path, mutate, fragment):
    problems = _validate_mutated(tmp_path, mutate)
    assert problems, "mutation went undetected"
    assert any(fragment in problem for problem in problems), problems
