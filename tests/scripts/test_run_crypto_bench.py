"""Exit-status tests for ``benchmarks/run_crypto_bench.py``.

The runner holds no gate of its own: it exits non-zero exactly when
``validate_report`` from ``scripts/check_bench_schema.py`` finds a problem
in the report it just built.  pytest-benchmark and the section experiments
are stubbed to return the committed report's sections, so these tests take
well under a second.
"""

import copy
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((REPO_ROOT / "BENCH_crypto.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "run_crypto_bench", REPO_ROOT / "benchmarks" / "run_crypto_bench.py"
)
run_crypto_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_crypto_bench)

#: section builder -> the report key it fills.
SECTION_BUILDERS = {
    "run_comparison_section": "comparison",
    "run_garbling_section": "garbling",
    "run_multiexp_section": "multiexp",
    "run_topology_section": "aggregation_topology",
    "run_session_section": "session_reuse",
    "run_pipelining_section": "pipelining",
    "run_chaos_section": "chaos",
    "run_planner_section": "planner",
    "run_parallel_day": "parallel_runner",
}


def _raw_benchmarks(report):
    """pytest-benchmark JSON that ``distill`` maps back onto ``report``."""
    return {
        "machine_info": {"node": report["machine"]},
        "datetime": report["datetime"],
        "benchmarks": [
            {
                "name": f"{group}[{param}]",
                "param": param,
                "stats": {
                    "mean": stats["mean_s"],
                    "stddev": stats["stddev_s"],
                    "rounds": stats["rounds"],
                },
            }
            for group, by_param in report["benchmarks"].items()
            for param, stats in by_param.items()
        ],
    }


def _run_main(monkeypatch, tmp_path, mutate=lambda report: None):
    report = copy.deepcopy(COMMITTED)
    mutate(report)

    def fake_run_benchmarks(scale, json_path):
        json_path.write_text(json.dumps(_raw_benchmarks(report)))

    monkeypatch.setattr(run_crypto_bench, "run_benchmarks", fake_run_benchmarks)
    for builder, key in SECTION_BUILDERS.items():
        monkeypatch.setattr(
            run_crypto_bench, builder, lambda *args, key=key: copy.deepcopy(report[key])
        )
    output = tmp_path / "BENCH_crypto.json"
    status = run_crypto_bench.main(
        ["--scale", report["scale"], "--output", str(output)]
    )
    return status, json.loads(output.read_text())


def test_clean_report_exits_zero(monkeypatch, tmp_path):
    status, written = _run_main(monkeypatch, tmp_path)
    assert status == 0
    assert written == COMMITTED


def test_floor_violation_fails_the_run(monkeypatch, tmp_path, capsys):
    def below_floor(report):
        first = next(iter(report["comparison"]))
        report["comparison"][first]["simulated_online_reduction"] = 1.0

    status, written = _run_main(monkeypatch, tmp_path, below_floor)
    assert status == 1
    assert "below the documented 3.0x floor" in capsys.readouterr().err
    # The report is written even when a gate fails.
    reductions = [e["simulated_online_reduction"] for e in written["comparison"].values()]
    assert 1.0 in reductions
