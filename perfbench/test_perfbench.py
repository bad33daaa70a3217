"""Tests of the trading-day benchmark's oracle, loop and tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  They use small keys and a few homes, so they take seconds.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import replace

import pytest

import oracle
import workloads
from repro.core import pem
from repro.core.market import MarketCase
from repro.core.params import PAPER_PARAMETERS
from repro.core.protocols import ProtocolConfig
from repro.net import transport as net_transport
from tracer import SpanSummary, Tracer

TINY_PRIVATE = workloads.Workload(
    "tiny_private",
    8,
    0.1,
    ProtocolConfig(
        key_size=128,
        key_pool_size=2,
        session_scope="day",
        garbling_scheme="halfgates",
        transport="socket",
        ot_extension_kappa=16,
    ),
)
TINY_PLAIN = workloads.Workload("tiny_plain", 20, 0.1)
SEED = 2020


def _span(workload, count):
    cases = workloads.day_cases(workload.homes, SEED)
    return workloads.choose_span(cases, count, workload.private)


def _perturb_price(result):
    result.clearing_price = result.clearing_price - 1.0
    return result


def _perturb_allocation(result):
    first = result.clearing.trades[0]
    result.clearing.trades[0] = replace(first, energy_kwh=first.energy_kwh * 1.01)
    return result


class _PerturbingEngine:
    """Wraps an engine and corrupts every market window's result."""

    def __init__(self, engine, perturb):
        self._engine = engine
        self._perturb = perturb

    def build_network(self):
        return self._engine.build_network()

    def run_window(self, window, states, network=None):
        if network is None:
            outcome = self._engine.run_window(window, states)
            result = outcome
        else:
            outcome = self._engine.run_window(window, states, network=network)
            result = outcome.result
        if result.case != MarketCase.NO_MARKET:
            self._perturb(result)
        return outcome


class _FailingEngine:
    def run_window(self, window, states):
        raise ZeroDivisionError("injected")


@pytest.fixture(scope="module")
def plain_results():
    span = _span(TINY_PLAIN, 720)
    session = workloads.set_up(TINY_PLAIN, SEED, span)
    results = []
    for window_slice in session.windows:
        states = pem.states_for_window(session.agents, window_slice)
        results.append(session.engine.run_window(window_slice.window, states))
    return [r for r in results if r.case != MarketCase.NO_MARKET]


def test_plain_oracle_accepts_every_market_window(plain_results):
    assert {r.case for r in plain_results} >= {MarketCase.GENERAL}
    for result in plain_results:
        assert oracle.check_plain(result, PAPER_PARAMETERS) == []


@pytest.mark.parametrize("perturb", [_perturb_price, _perturb_allocation])
def test_plain_oracle_flags_perturbations(plain_results, perturb):
    result = perturb(copy.deepcopy(plain_results[0]))
    assert oracle.check_plain(result, PAPER_PARAMETERS)


@pytest.mark.parametrize("perturb", [_perturb_price, _perturb_allocation])
def test_private_oracle_flags_perturbations(plain_results, perturb):
    reference = plain_results[0]
    assert oracle.check_private(copy.deepcopy(reference), reference) == []
    assert oracle.check_private(perturb(copy.deepcopy(reference)), reference)


def test_private_oracle_tolerances():
    assert oracle._close(100.009, 100.0, 0.0, oracle.PRICE_ABS)
    assert not oracle._close(100.011, 100.0, 0.0, oracle.PRICE_ABS)
    assert oracle._close(1.0019, 1.0, oracle.ENERGY_REL, oracle.ENERGY_ABS)
    assert not oracle._close(1.0021, 1.0, oracle.ENERGY_REL, oracle.ENERGY_ABS)


@pytest.mark.parametrize("workload", [TINY_PLAIN, TINY_PRIVATE], ids=lambda w: w.name)
@pytest.mark.parametrize("perturb", [_perturb_price, _perturb_allocation])
def test_perturbed_windows_are_counted_as_failures(workload, perturb):
    span = _span(workload, 4)
    session = workloads.set_up(workload, SEED, span)
    session.engine = _PerturbingEngine(session.engine, perturb)
    run = workloads.run_span(session, span)
    market = sum(case != MarketCase.NO_MARKET.value for case in span.cases)
    assert market > 0
    assert run.attempted == len(span.windows)
    assert len(run.failures) == market
    assert len(run.records) == run.attempted - market


def test_raised_exception_is_counted_with_its_type():
    span = _span(TINY_PLAIN, 3)
    session = workloads.set_up(TINY_PLAIN, SEED, span)
    session.engine = _FailingEngine()
    run = workloads.run_span(session, span)
    assert run.attempted == 3 and not run.records
    assert all("ZeroDivisionError: injected" in failure for failure in run.failures)


def test_private_span_straddles_the_extreme_market():
    cases = [("no_market", 0)] * 5 + [("general", 4)] * 20 + [("extreme", 3)] * 10
    span = workloads.choose_span(cases, 10, private=True)
    assert span.warmup == span.windows[0] - 1
    assert span.mix() == {"general": 8, "extreme": 2, "no_market": 0}


def test_tail_percentile_keeps_ten_samples_beyond_it_at_forty_windows():
    records = [workloads.WindowRecord(float(t), {}) for t in range(1, 41)]
    metrics = workloads.end_to_end(records, [1.0, 2.0, 3.0])
    tail = metrics[f"window_s.p{workloads.TAIL_PERCENTILE}"]
    assert metrics["window_s.p50"] == 20.5 and metrics["setup_s"] == 2.0
    assert sum(r.seconds > tail for r in records) == 10


def test_tracer_restores_every_entry_point():
    before = net_transport.SocketTransport.deliver, pem.clear_market
    with Tracer():
        assert net_transport.SocketTransport.deliver is not before[0]
        assert pem.clear_market is not before[1]
    assert (net_transport.SocketTransport.deliver, pem.clear_market) == before


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "outer", 0.0, 10.0, 0, "window", 1, None),
        (2, 1, "inner", 1.0, 4.0, 0, "window", 1, 7),
        (3, 1, "inner", 5.0, 6.0, 0, "window", 1, 5),
    ]
    summary = SpanSummary(spans)
    assert summary.self_time["outer"] == pytest.approx(6.0)
    assert summary.busy["inner"] == pytest.approx(4.0)
    assert summary.value["inner"] == 12
    assert summary.value_under("inner", "outer") == (2, 12)


def test_traced_run_is_neutral_and_passes_exact_count_checks():
    span = _span(TINY_PRIVATE, 6)
    tracer = Tracer()
    with tracer:
        tracer.window, tracer.phase = "setup", "setup"
        session = workloads.set_up(TINY_PRIVATE, SEED, span)
        tracer.window = None
        run = workloads.run_span(session, span, tracer)
    assert not run.failures and not run.divergent
    assert len(run.records) == 3
    metrics, problems = workloads.per_layer(
        TINY_PRIVATE, run, tracer.spans(), threading.main_thread().ident
    )
    assert problems == []
    assert metrics["net.messages"] > 0
    assert metrics["transport.frames"] == metrics["net.messages"]
    assert metrics["trace.coverage_ratio"] >= 0.95
    assert metrics["crypto.keygen.calls"] == 2
