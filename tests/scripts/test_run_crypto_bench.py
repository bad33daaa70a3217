"""Tests for ``benchmarks/run_crypto_bench.py`` as a generic driver.

The runner holds no gate and names no section: it observes and serializes
every section declared in ``benchmarks/bench_sections.py`` and exits
non-zero exactly when ``validate_report`` finds a problem in the report it
just built.  pytest-benchmark and every section's ``observe`` are stubbed
to return the committed report, so these tests take well under a second.
"""

import copy
import dataclasses
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_TEXT = (REPO_ROOT / "BENCH_crypto.json").read_text()
COMMITTED = json.loads(COMMITTED_TEXT)

_spec = importlib.util.spec_from_file_location(
    "run_crypto_bench", REPO_ROOT / "benchmarks" / "run_crypto_bench.py"
)
run_crypto_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_crypto_bench)
bench_sections = run_crypto_bench.bench_sections


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


def _run_main(monkeypatch, tmp_path, mutate=lambda report: None, extra=()):
    """Run ``main`` with every declared section observing ``report``'s
    value, plus the ``extra`` sections; return (status, written text)."""
    report = copy.deepcopy(COMMITTED)
    mutate(report)

    def fake_run_benchmarks(scale, json_path):
        json_path.write_text(json.dumps(_raw_benchmarks(report)))

    monkeypatch.setattr(run_crypto_bench, "run_benchmarks", fake_run_benchmarks)
    stubbed = tuple(
        dataclasses.replace(
            section,
            observe=lambda run, name=section.name, **params: copy.deepcopy(report[name]),
        )
        for section in bench_sections.SECTIONS
    )
    monkeypatch.setattr(bench_sections, "SECTIONS", stubbed + tuple(extra))
    output = tmp_path / "BENCH_crypto.json"
    status = run_crypto_bench.main(
        ["--scale", report["scale"], "--output", str(output)]
    )
    return status, output.read_text()


def test_clean_report_exits_zero(monkeypatch, tmp_path):
    status, written = _run_main(monkeypatch, tmp_path)
    assert status == 0
    assert written == COMMITTED_TEXT


def test_floor_violation_fails_the_run(monkeypatch, tmp_path, capsys):
    def below_floor(report):
        first = next(iter(report["comparison"]))
        report["comparison"][first]["simulated_online_reduction"] = 1.0

    status, written = _run_main(monkeypatch, tmp_path, below_floor)
    assert status == 1
    assert "below the documented 3.0x floor" in capsys.readouterr().err
    # The report is written even when a gate fails.
    comparison = json.loads(written)["comparison"]
    assert 1.0 in [entry["simulated_online_reduction"] for entry in comparison.values()]


@dataclasses.dataclass(frozen=True)
class _Throwaway:
    certified: bool
    ratio: float


def _throwaway_gates(section):
    if not section.get("ratio", 0.0) >= 2.0:
        yield f"throwaway ratio {section.get('ratio')!r} is below 2.0"


def test_a_declared_section_needs_no_other_edit(monkeypatch, tmp_path):
    throwaway = bench_sections.Section(
        "throwaway",
        _Throwaway,
        lambda run: _Throwaway(certified=True, ratio=3.14159265),
        gates=_throwaway_gates,
    )
    status, written = _run_main(monkeypatch, tmp_path, extra=(throwaway,))
    assert status == 0
    report = json.loads(written)
    assert report["throwaway"] == {"certified": True, "ratio": 3.14159}

    del report["throwaway"]["certified"]
    report["throwaway"]["ratio"] = 1.0
    problems = run_crypto_bench.validate_report(report)
    assert problems == [
        "throwaway lacks 'certified'",
        "throwaway ratio 1.0 is below 2.0",
    ]
