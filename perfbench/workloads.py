"""Workloads of the trading-day benchmark: inputs, set-up and the timed loop.

Every workload is a closed loop: one client clears trading windows one
after another in day order, and each window's battery state follows from
the previous window.  A window is timed from the moment its agent states
are ready until its ``WindowResult`` is returned; the correctness oracle
runs after the clock stops.

The seed is the dataset seed of the synthetic Smart*-like generator
(``repro.data``); the program receives only the generated traces.
"""

from __future__ import annotations

import itertools
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core import pem
from repro.core.coalition import form_coalitions
from repro.core.market import MarketCase
from repro.core.params import PAPER_PARAMETERS
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.crypto import otext
from repro.data import loader, traces
from repro.data.traces import TraceConfig

import oracle
from tracer import SpanSummary, Tracer

#: Message kinds the engine excludes from the Table I protocol bandwidth.
SETTLEMENT_KINDS = ("energy_route", "payment")
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of a private span placed before the day's first extreme window,
#: so general windows hold both reported percentiles and the span still
#: crosses into the extreme market.
GENERAL_SHARE = 0.8
#: The tail percentile reported next to the median.  At the default run
#: length the shortest runs time 40 windows; the 75th percentile is the
#: highest with ten samples beyond it there.
TAIL_PERCENTILE = 75


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the workload name used on the command line.
        homes: homes in the generated dataset (every home trades).
        nominal_window_s: sizes a run as ``seconds / nominal_window_s``
            windows, so a run does the same work on every commit.
        config: protocol configuration; ``None`` runs the plaintext engine.
    """

    name: str
    homes: int
    nominal_window_s: float
    config: Optional[ProtocolConfig] = None

    @property
    def private(self) -> bool:
        return self.config is not None


_PRIVATE_512 = ProtocolConfig(
    key_size=512, key_pool_size=2, session_scope="day", garbling_scheme="halfgates"
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's Fig. 4/6 day: 300 homes in the clear, every market
        # window.  Runnable, but not listed in BENCHMARK.json: on a shared
        # host its allocation-heavy windows swing too much between runs.
        Workload("plain_300", 300, 0.045),
        # Per-agent 1024-bit keys, window-scoped sessions: crypto-bound.
        Workload(
            "private_1024_12",
            12,
            0.5,
            ProtocolConfig(key_size=1024, session_scope="window", garbling_scheme="classic"),
        ),
        # 100 homes: ~5.6k messages a window, orchestration and accounting.
        Workload("private_512_100_local", 100, 1.0, _PRIVATE_512),
        # The same message stream over loopback TCP.  Runnable, but not
        # listed in BENCHMARK.json: every message is a cross-thread round
        # trip, and on a shared host its wakeup latency shifts between runs.
        Workload("private_512_100_socket", 100, 1.0, replace(_PRIVATE_512, transport="socket")),
    )
}


# -- input selection -------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """The windows a run times, plus the untimed warm-up window before them."""

    windows: Tuple[int, ...]
    warmup: Optional[int]
    cases: Tuple[str, ...]

    def mix(self) -> Dict[str, int]:
        return {case.value: self.cases.count(case.value) for case in MarketCase}


def day_cases(homes: int, seed: int) -> List[Tuple[str, int]]:
    """Each window's market case and trading-pair count, from the plaintext twin."""
    dataset = traces.generate_dataset(TraceConfig(home_count=homes, seed=seed))
    agents = pem.build_agents(dataset)
    cases = []
    for window_slice in loader.iter_windows(dataset):
        coalitions = form_coalitions(window_slice.window, pem.states_for_window(agents, window_slice))
        if not coalitions.has_market:
            case = MarketCase.NO_MARKET
        elif coalitions.is_general_market:
            case = MarketCase.GENERAL
        else:
            case = MarketCase.EXTREME
        cases.append((case.value, len(coalitions.sellers) * len(coalitions.buyers)))
    return cases


def choose_span(cases: List[Tuple[str, int]], count: int, private: bool) -> Span:
    """Pick the windows to time.

    Plaintext: ``count`` market windows spread evenly over the whole day
    (every market window at the default run length).  A no-market window
    does no market work, and the share of them in a day moves with the
    weather of the seed, so timing them would make the median measure the
    seed rather than the program; they only advance the battery state.
    Private: ``count`` contiguous market
    windows inside the day's longest run of market windows, preceded by a
    market warm-up window.  When the run reaches the extreme market the
    span straddles the first extreme window with ``GENERAL_SHARE`` of it
    before; otherwise it is centred on the window with the most trading
    pairs.  Both rules depend only on the generated inputs.
    """
    labels = [case for case, _pairs in cases]
    if not private:
        market = [w for w, label in enumerate(labels) if label != MarketCase.NO_MARKET.value]
        count = min(count, len(market))
        windows = tuple(market[(i * len(market)) // count] for i in range(count))
        return Span(windows, None, tuple(labels[w] for w in windows))
    runs = []
    start = None
    for window, label in enumerate(labels + [MarketCase.NO_MARKET.value]):
        if label != MarketCase.NO_MARKET.value and start is None:
            start = window
        elif label == MarketCase.NO_MARKET.value and start is not None:
            runs.append((start, window))
            start = None
    if not runs:
        raise ValueError("the generated day has no market window")
    low, high = max(runs, key=lambda run: (run[1] - run[0], -run[0]))
    if high - low < count + 1:
        raise ValueError(
            f"longest market run [{low}, {high}) cannot hold {count} windows and a warm-up"
        )
    extremes = [w for w in range(low, high) if labels[w] == MarketCase.EXTREME.value]
    if extremes:
        first = extremes[0] - round(GENERAL_SHARE * count)
    else:
        busiest = max(range(low, high), key=lambda w: (cases[w][1], -w))
        first = busiest - count // 2
    first = min(max(first, low + 1), high - count)
    windows = tuple(range(first, first + count))
    return Span(windows, first - 1, tuple(labels[w] for w in windows))


def window_count(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_window_s))


# -- set-up ------------------------------------------------------------------------


@dataclass
class Session:
    """A set-up trading day, positioned just before the first timed window."""

    workload: Workload
    engine: object
    agents: list
    windows: object
    twin: pem.PlainTradingEngine
    seconds: float
    warmup_problems: List[str] = field(default_factory=list)


def execute(workload: Workload, engine, window: int, states):
    """Clear one window; returns ``(result or trace, traffic stats or None)``.

    The private path builds and closes the window's network itself, exactly
    as ``PrivateTradingEngine.run_window`` does when it owns one, so the
    window's ``TrafficStats`` stay readable for the exact-count checks.
    """
    if not workload.private:
        return engine.run_window(window, states), None
    network = engine.build_network()
    try:
        trace = engine.run_window(window, states, network=network)
    finally:
        network.close()
    return trace, network.stats


def check(workload: Workload, twin: pem.PlainTradingEngine, window: int, states, outcome) -> List[str]:
    if workload.private:
        return oracle.check_private(outcome.result, twin.run_window(window, states))
    return oracle.check_plain(outcome, twin.params)


def set_up(workload: Workload, seed: int, span: Span) -> Session:
    """Everything before the first timed window, timed as one set-up.

    Dataset generation, agent build and battery state advanced to the
    span; on private workloads also key generation for every agent
    (Protocol 1, lines 1-2) and the warm-up window just before the span,
    which pays the base-OT correlation and the lazy pool set-up.  The process-wide correlation cache is emptied first
    so that every repetition pays what a fresh process pays.
    """
    started = time.perf_counter()
    if workload.private:
        with otext._CORRELATION_LOCK:
            otext._CORRELATION_CACHE.clear()
    dataset = traces.generate_dataset(TraceConfig(home_count=workload.homes, seed=seed))
    agents = pem.build_agents(dataset)
    twin = pem.PlainTradingEngine(PAPER_PARAMETERS)
    if workload.private:
        engine = PrivateTradingEngine(PAPER_PARAMETERS, workload.config)
        for agent in agents:
            engine.keyring.keypair_for(agent.agent_id)
    else:
        engine = twin
    windows = loader.iter_windows(dataset)
    for window_slice in itertools.islice(windows, span.windows[0]):
        states = pem.states_for_window(agents, window_slice)
    warmup = None
    if span.warmup is not None:
        warmup = execute(workload, engine, span.warmup, states)[0]
    session = Session(workload, engine, agents, windows, twin, time.perf_counter() - started)
    if warmup is not None:
        session.warmup_problems = check(workload, twin, span.warmup, states, warmup)
    return session


# -- the timed loop ----------------------------------------------------------------


def measures(outcome, stats) -> Dict[str, float]:
    """The scalars a private window reports: its trace fields and its stats.

    Plaintext windows report none.  Only these scalars outlive the window,
    so a run's memory does not grow with the number of windows it clears.
    """
    if stats is None:
        return {}
    return {
        "protocol_bytes": outcome.protocol_bandwidth_bytes,
        "online_s": outcome.simulated_runtime_seconds,
        "offline_s": outcome.offline_seconds,
        "gc_offline_s": outcome.gc_offline_seconds,
        "pool_fallbacks": outcome.pool_fallback_count,
        "gc_fallbacks": outcome.gc_fallback_count,
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "stats_protocol_bytes": stats.total_bytes - stats.bytes_for_kinds(SETTLEMENT_KINDS),
        "stats_online_s": stats.simulated_seconds,
        "sessions_established": stats.sessions_established,
        "sessions_reused": stats.sessions_reused,
    }


@dataclass
class WindowRecord:
    seconds: float
    measures: Dict[str, float]
    traced_seconds: Optional[float] = None


@dataclass
class RunOutcome:
    records: List[WindowRecord] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: windows whose traced and untraced outcomes differ (trace mode).
    divergent: List[int] = field(default_factory=list)


def _timed(workload: Workload, engine, window: int, states) -> Tuple[float, object, object]:
    started = time.perf_counter()
    outcome, stats = execute(workload, engine, window, states)
    return time.perf_counter() - started, outcome, stats


def _same(first, second) -> bool:
    """Tracing neutrality: results, bytes, clocks and fallbacks all equal."""
    (outcome_a, stats_a), (outcome_b, stats_b) = first, second
    if outcome_a != outcome_b:
        return False
    if stats_a is None:
        return True
    return measures(outcome_a, stats_a) == measures(outcome_b, stats_b) and dict(
        stats_a.bytes_by_kind
    ) == dict(stats_b.bytes_by_kind)


def run_span(session: Session, span: Span, tracer: Optional[Tracer] = None) -> RunOutcome:
    """Clear the span's windows in day order.

    Without a tracer every span window is timed once.  With one, every
    other span window is cleared twice, untraced and traced in alternating
    order, so the pair certifies tracing neutrality and measures the
    tracing overhead on identical work; the remaining windows only advance
    the battery state.
    """
    workload = session.workload
    timed = span.windows[::2] if tracer is not None else span.windows
    wanted = set(timed)
    last = timed[-1]
    run = RunOutcome()
    for window_slice in session.windows:
        window = window_slice.window
        if window > last:
            break
        if tracer is not None and window in wanted:
            tracer.window, tracer.phase = window, "states"
        states = pem.states_for_window(session.agents, window_slice)
        if tracer is not None:
            tracer.window = None
        if window not in wanted:
            continue
        run.attempted += 1
        traced_seconds = None
        try:
            if tracer is None:
                seconds, outcome, stats = _timed(workload, session.engine, window, states)
            else:
                seconds, traced_seconds, outcome, stats = _traced_pair(
                    workload, session.engine, window, states, tracer, run
                )
        except Exception as exc:  # counted with its type, never swallowed
            run.failures.append(
                f"window {window}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
            continue
        problems = check(workload, session.twin, window, states, outcome)
        if problems:
            run.failures.append(f"window {window}: " + "; ".join(problems))
            continue
        run.records.append(
            WindowRecord(seconds, measures(outcome, stats), traced_seconds)
        )
    return run


def _traced_pair(workload, engine, window, states, tracer: Tracer, run: RunOutcome):
    """Clear one window untraced and traced; returns both times and the traced outcome."""
    # Alternate which half of the pair runs first, so neither side always
    # inherits the other's leftover pool material.
    order = (False, True) if run.attempted % 2 else (True, False)
    results = {}
    for traced in order:
        if traced:
            tracer.window, tracer.phase = window, "window"
        try:
            results[traced] = _timed(workload, engine, window, states)
        finally:
            tracer.window = None
    untraced, traced = results[False], results[True]
    if not _same(untraced[1:], traced[1:]):
        run.divergent.append(window)
    return untraced[0], traced[0], traced[1], traced[2]


# -- metrics -----------------------------------------------------------------------


def host_fingerprint() -> Dict[str, object]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError as exc:
        cpu = f"{cpu} (cpuinfo unreadable: {exc})"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def protocol_sums(records: List[WindowRecord]) -> Dict[str, object]:
    """Private per-trace sums, cross-checked against the windows' TrafficStats."""
    totals = {key: sum(r.measures[key] for r in records) for key in records[0].measures}
    problems = []
    if totals["protocol_bytes"] != totals["stats_protocol_bytes"]:
        problems.append(
            f"protocol bytes {totals['protocol_bytes']} "
            f"!= TrafficStats {totals['stats_protocol_bytes']}"
        )
    if totals["online_s"] != totals["stats_online_s"]:
        problems.append(
            f"online seconds {totals['online_s']!r} != TrafficStats {totals['stats_online_s']!r}"
        )
    totals["problems"] = problems
    return totals


def end_to_end(records: List[WindowRecord], setups: List[float]) -> Dict[str, float]:
    times = [r.seconds for r in records]
    tail = (
        statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
        if len(times) > 1
        else times[0]
    )
    return {
        "window_s.p50": statistics.median(times),
        f"window_s.p{TAIL_PERCENTILE}": tail,
        "windows_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }


def _layer(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return {"protocols": "core.protocols", "transport": "net.transport"}.get(prefix, prefix)


def per_layer(
    workload: Workload, run: RunOutcome, spans: List[tuple], main_thread: int
) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer table of a traced run, plus its cross-check problems."""
    records = run.records
    count = max(1, len(records))
    window_spans = [s for s in spans if s[6] == "window" and s[7] == main_thread]
    timed = SpanSummary(window_spans)
    setup = SpanSummary([s for s in spans if s[6] == "setup"])
    states = SpanSummary([s for s in spans if s[6] == "states"])
    problems: List[str] = []

    def per_window(value: float) -> float:
        return value / count

    metrics = {
        "core.clearing.busy_s": per_window(timed.busy["core.clearing"]),
        "core.clearing.calls": per_window(timed.calls["core.clearing"]),
        "core.pricing.busy_s": per_window(timed.busy["core.pricing"]),
        "core.coalitions.busy_s": per_window(timed.busy["core.coalitions"]),
        "core.states.busy_s": per_window(states.busy["core.states"]),
        "core.assemble.busy_s": per_window(timed.busy["core.assemble"]),
        "core.engine.self_s": per_window(timed.self_time["core.engine"]),
        "protocols.engine.self_s": per_window(timed.self_time["protocols.engine"]),
        "protocols.evaluation.busy_s": per_window(timed.busy["protocols.evaluation"]),
        "protocols.pricing.busy_s": per_window(timed.busy["protocols.pricing"]),
        "protocols.distribution.busy_s": per_window(timed.busy["protocols.distribution"]),
        "protocols.self_s": per_window(
            sum(
                timed.self_time[name]
                for name in (
                    "protocols.evaluation",
                    "protocols.pricing",
                    "protocols.distribution",
                    "protocols.context",
                )
            )
        ),
        "crypto.keygen.calls": setup.calls["crypto.keygen"],
        "crypto.keygen.busy_s": setup.busy["crypto.keygen"],
        "crypto.base_ot.busy_s": setup.busy["crypto.base_ot"] + timed.busy["crypto.base_ot"],
        "crypto.obfuscator.count": per_window(timed.value["crypto.obfuscator"]),
        "crypto.obfuscator.busy_s": per_window(timed.busy["crypto.obfuscator"]),
        "crypto.encrypt.count": per_window(timed.calls["crypto.encrypt"]),
        "crypto.encrypt.busy_s": per_window(timed.busy["crypto.encrypt"]),
        "crypto.decrypt.count": per_window(timed.value["crypto.decrypt"]),
        "crypto.decrypt.busy_s": per_window(timed.busy["crypto.decrypt"]),
        "crypto.gc.prepare.count": per_window(timed.value["crypto.gc.prepare"]),
        "crypto.gc.prepare.busy_s": per_window(timed.busy["crypto.gc.prepare"]),
        "crypto.gc.online.busy_s": per_window(timed.busy["crypto.gc.online"]),
        "net.messages": per_window(timed.calls["net.deliver"]),
        "net.deliver.busy_s": per_window(timed.self_time["net.deliver"]),
        "net.byte_size.busy_s": per_window(timed.busy["net.byte_size"]),
        "transport.busy_s": per_window(timed.busy["transport.deliver"]),
        "transport.lifecycle_s": per_window(timed.busy["transport.lifecycle"]),
        "data.generate_s": setup.busy["data.generate"],
    }
    frames, frame_bytes = timed.value_under("transport.frame", "transport.deliver")
    _charged_calls, charged = timed.value_under("net.byte_size", "net.deliver")
    metrics["transport.frames"] = per_window(frames)
    metrics["transport.frame_bytes"] = per_window(frame_bytes)
    metrics["transport.wire_ratio"] = frame_bytes / charged if frames else 0.0
    for layer in ("core", "core.protocols", "crypto", "net", "net.transport"):
        metrics[f"self_s.{layer}"] = per_window(
            sum(t for name, t in timed.self_time.items() if _layer(name) == layer)
        )
    traced_wall = sum(r.traced_seconds for r in records)
    metrics["trace.coverage_ratio"] = sum(timed.self_time.values()) / traced_wall if records else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.traced_seconds for r in records)
        / statistics.median(r.seconds for r in records)
        - 1.0
        if records
        else 0.0
    )

    private = {
        "crypto.pool_hit_ratio": 0.0,
        "crypto.gc.fallbacks": 0.0,
        "net.bytes": 0.0,
        "net.sessions_established": 0.0,
        "net.sessions_reused": 0.0,
        "sim.offline_s_per_window": 0.0,
        "sim.gc_offline_s_per_window": 0.0,
        "protocol_kib_per_window": 0.0,
        "sim_online_s_per_window": 0.0,
    }
    if workload.private and records:
        sums = protocol_sums(records)
        encrypts = timed.calls["crypto.encrypt"]
        private.update(
            {
                "crypto.pool_hit_ratio": (
                    (encrypts - sums["pool_fallbacks"]) / encrypts if encrypts else 0.0
                ),
                "crypto.gc.fallbacks": per_window(sums["gc_fallbacks"]),
                "net.bytes": per_window(sums["bytes"]),
                "net.sessions_established": per_window(sums["sessions_established"]),
                "net.sessions_reused": per_window(sums["sessions_reused"]),
                "sim.offline_s_per_window": per_window(sums["offline_s"]),
                "sim.gc_offline_s_per_window": per_window(sums["gc_offline_s"]),
                "protocol_kib_per_window": per_window(sums["protocol_bytes"]) / 1024.0,
                "sim_online_s_per_window": per_window(sums["online_s"]),
            }
        )
        if timed.calls["net.deliver"] != sums["messages"]:
            problems.append(
                f"traced net.deliver calls {timed.calls['net.deliver']} "
                f"!= TrafficStats.total_messages {sums['messages']}"
            )
        socket = workload.config.transport == "socket"
        expected_frames = timed.calls["net.deliver"] if socket else 0
        if frames != expected_frames:
            problems.append(f"transport frames {frames} != messages over the socket {expected_frames}")
    metrics.update(private)
    if run.divergent:
        problems.append(f"traced and untraced results differ on windows {run.divergent}")
    return metrics, problems
