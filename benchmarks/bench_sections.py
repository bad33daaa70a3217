"""Every section of ``BENCH_crypto.json``, declared once.

A section is one :class:`Section` in :data:`SECTIONS`:

* ``observation`` — the type of the section's value: a dataclass whose
  field names are the section's JSON keys, or a mapping of them;
* ``observe`` — runs the section's experiment and returns an observation;
* ``scales`` — the keyword arguments ``observe`` takes at each ``--scale``;
* ``gates`` — the section's floors, yielded as problem strings.

Both drivers are generic over this table.  ``run_crypto_bench.py`` observes
every section and serializes it with :func:`to_json`;
``scripts/check_bench_schema.py`` derives every structural problem from the
same declarations with :func:`shape_problems` — a missing section or key,
an empty mapping, a number that is not one, and a certificate (every
``bool`` field) that is not true — then applies each section's gates.
See ``docs/BENCHMARKS.md`` for every field.
"""

from __future__ import annotations

import random
import time
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence

from repro.analysis.experiments import (
    ChaosMatrixObservation,
    ParallelDayObservation,
    PipeliningObservation,
    PlannerSweepObservation,
    SchemeShardInvariance,
    SessionReuseObservation,
    TopologyAggregationObservation,
    TopologyShardInvariance,
    experiment_aggregation_topologies,
    experiment_chaos_matrix,
    experiment_parallel_day,
    experiment_planner_sweep,
    experiment_scheme_shard_invariance,
    experiment_session_reuse,
    experiment_topology_shard_invariance,
    experiment_window_pipelining,
)
from repro.crypto.accel import FixedBaseTable
from repro.crypto.circuits import build_greater_than_circuit
from repro.crypto.garbled import get_scheme
from repro.crypto.gc_pool import ComparisonPool
from repro.crypto.otext import DEFAULT_KAPPA
from repro.crypto.secure_comparison import secure_greater_than
from repro.net.costmodel import CryptoCostModel

#: significant digits of every float the report records.
SIGNIFICANT_DIGITS = 6

#: field metadata: the field's mapping entries merge into the parent object
#: instead of nesting under the field's name.
INLINE = {"inline": True}


def round_float(value: float) -> float:
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def to_json(value: Any) -> Any:
    """The JSON form of an observation: dataclass fields become keys,
    mapping keys become strings, every float is rounded by one rule."""
    if is_dataclass(value):
        out: Dict[str, Any] = {}
        for f in fields(value):
            item = to_json(getattr(value, f.name))
            if f.metadata.get("inline"):
                out.update(item)
            else:
                out[f.name] = item
        return out
    if isinstance(value, Mapping):
        return {str(key): to_json(item) for key, item in value.items()}
    if isinstance(value, float):
        return round_float(value)
    return value


def shape_problems(value: Any, declared: Any, path: str) -> Iterator[str]:
    """Every way the JSON ``value`` at ``path`` falls short of ``declared``.

    Dataclass fields and mapping entries are required (``Optional`` ones
    may be null), numbers must be numbers, and every ``bool`` is a
    certificate that must be true.
    """
    if typing.get_origin(declared) is typing.Union:
        if value is None:
            return
        declared = next(a for a in typing.get_args(declared) if a is not type(None))
    if is_dataclass(declared):
        if not isinstance(value, dict):
            yield f"{path} is not a mapping"
            return
        hints = typing.get_type_hints(declared)
        named = {f.name for f in fields(declared) if not f.metadata.get("inline")}
        for f in fields(declared):
            if f.metadata.get("inline"):
                rest = {k: v for k, v in value.items() if k not in named}
                yield from shape_problems(rest, hints[f.name], path)
            elif f.name not in value:
                yield f"{path} lacks {f.name!r}" if path else f"missing top-level key {f.name!r}"
            else:
                child = f"{path}.{f.name}" if path else f.name
                yield from shape_problems(value[f.name], hints[f.name], child)
    elif typing.get_origin(declared) is dict:
        if not isinstance(value, dict) or not value:
            yield f"{path} is not a non-empty mapping"
            return
        item_type = typing.get_args(declared)[1]
        for key, item in value.items():
            yield from shape_problems(item, item_type, f"{path}[{key!r}]")
    elif declared is bool:
        if value is not True:
            yield f"{path} is not true"
    elif declared in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            yield f"{path} is not a number"


def _num(value: Any) -> float:
    """``value`` if it is a number, else NaN — which fails every floor."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return float("nan")


@dataclass(frozen=True)
class Run:
    """What one bench run hands every section's ``observe``."""

    scale: str
    workers: int
    #: distilled micro-benchmark stats: group -> parameter -> stats.
    benches: Dict[str, Dict[str, Dict[str, float]]]


@dataclass(frozen=True)
class Section:
    """One report section: its observation type, experiment and gates."""

    name: str
    observation: Any
    observe: Callable[..., Any]
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    gates: Callable[[dict], Iterator[str]] = lambda section: iter(())


def _rows(names: Sequence[str], **rows: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    """Scale -> ``observe`` keyword arguments, one tuple of values per scale."""
    return {scale: dict(zip(names, row)) for scale, row in rows.items()}


def _day(experiment: Callable[..., Any]) -> Callable[..., Any]:
    """``observe`` for a sampled-day experiment: the scale row is its kwargs."""
    return lambda run, **params: experiment(**params)


#: (home_count, sample_count) — the scale row of a sampled-day section.
_DAY = ("home_count", "sample_count")


# ---------------------------------------------------------------------------
# The report's top level, distilled from pytest-benchmark.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchStats:
    mean_s: float
    stddev_s: float
    rounds: int


@dataclass(frozen=True)
class Header:
    scale: str
    machine: str
    datetime: str
    benchmarks: Dict[str, Dict[str, BenchStats]]
    speedups: Dict[str, Dict[str, float]]


# ---------------------------------------------------------------------------
# comparison — the offline garbled-comparison pipeline.
# ---------------------------------------------------------------------------

#: comparator bit widths of the ``comparison`` and ``garbling`` sections.
COMPARISON_BIT_WIDTHS = (32, 64)
#: random operand pairs per width for the outcome-identity certificate.
COMPARISON_SAMPLES = 24
#: Minimum online simulated-seconds reduction the pooled comparison must
#: show over the classic inline path.
MIN_COMPARISON_REDUCTION = 3.0


@dataclass(frozen=True)
class ComparisonWidth:
    and_gate_count: int
    ot_count: int
    base_ot_count: int
    simulated_online_seconds_before: float
    simulated_online_seconds_after: float
    simulated_online_reduction: float
    simulated_offline_seconds_per_instance: float
    simulated_offline_seconds_per_session: float
    wall_online_seconds_before: Optional[float]
    wall_online_seconds_after: Optional[float]
    wall_online_reduction: Optional[float]
    outcomes_match: bool
    samples: int


def _observe_comparison(run: Run) -> Dict[int, ComparisonWidth]:
    """Inline Yao vs. prepared instance on the cost-model clock (wall times
    from the micro-benchmarks); ``outcomes_match`` certifies the pooled
    path, the classic path and the plaintext comparison agree."""
    model = CryptoCostModel()
    observations = {}
    for bit_width in COMPARISON_BIT_WIDTHS:
        gates = build_greater_than_circuit(bit_width).and_gate_count
        before = model.comparison_seconds(gates, bit_width)
        after = model.comparison_seconds(gates, bit_width, pooled=True)

        pool = ComparisonPool(bit_width)
        pool.warm(COMPARISON_SAMPLES)
        rng = random.Random(bit_width * 7919)
        matches = True
        for _ in range(COMPARISON_SAMPLES):
            a = rng.randrange(0, 1 << bit_width)
            b = rng.randrange(0, 1 << bit_width)
            pooled_result = pool.take().evaluate(a, b).result
            classic_result = secure_greater_than(
                a, b, bit_width=bit_width, rng=random.Random(a ^ b)
            ).result
            if not (pooled_result == classic_result == (a > b)):
                matches = False
                break

        param = str(bit_width)
        wall_before = run.benches.get("test_garbled_secure_comparison", {}).get(param, {})
        wall_after = run.benches.get("test_garbled_comparison_pooled_online", {}).get(param, {})
        wall_before, wall_after = wall_before.get("mean_s"), wall_after.get("mean_s")
        observations[bit_width] = ComparisonWidth(
            and_gate_count=gates,
            ot_count=bit_width,
            base_ot_count=DEFAULT_KAPPA,
            simulated_online_seconds_before=before,
            simulated_online_seconds_after=after,
            simulated_online_reduction=before / after,
            simulated_offline_seconds_per_instance=model.prepared_comparison_seconds(gates),
            simulated_offline_seconds_per_session=model.base_ot_session_seconds(DEFAULT_KAPPA),
            wall_online_seconds_before=wall_before,
            wall_online_seconds_after=wall_after,
            wall_online_reduction=(
                wall_before / wall_after if wall_before and wall_after else None
            ),
            outcomes_match=matches,
            samples=COMPARISON_SAMPLES,
        )
    return observations


def _comparison_gates(section: dict) -> Iterator[str]:
    for bit_width, entry in section.items():
        reduction = entry.get("simulated_online_reduction")
        if not _num(reduction) >= MIN_COMPARISON_REDUCTION:
            yield (
                f"comparison[{bit_width!r}] online reduction {reduction!r} is below "
                f"the documented {MIN_COMPARISON_REDUCTION}x floor"
            )


# ---------------------------------------------------------------------------
# garbling — classic vs. half-gates garbling schemes.
# ---------------------------------------------------------------------------

#: garbling schemes compared head to head (the GarblingWidth fields).
GARBLING_SCHEMES = ("classic", "halfgates")
#: repeated garbles per (width, scheme) behind the wall-clock ratio.
GARBLING_TIMING_ROUNDS = 40
#: random operand pairs per width for the cross-scheme outcome certificate.
GARBLING_SAMPLES = 16
#: Minimum halfgates-vs-classic garbled-table-bytes reduction (the
#: asymptotic value for the lowered comparator is ~2.7x).
MIN_TABLE_BYTES_REDUCTION = 1.8
#: Minimum halfgates-vs-classic measured garble wall-clock reduction
#: (free gates hash nothing; the measured value is ~2x).
MIN_GARBLE_TIME_REDUCTION = 1.5


@dataclass(frozen=True)
class SchemeGarbling:
    table_bytes: int
    garble_wall_seconds: float
    and_gate_count: int
    gate_histogram: Dict[str, int]


@dataclass(frozen=True)
class GarblingWidth:
    classic: SchemeGarbling
    halfgates: SchemeGarbling
    original_gate_histogram: Dict[str, int]
    outcomes_match: bool
    samples: int
    table_bytes_reduction: float
    garble_time_reduction: float


@dataclass(frozen=True)
class Garbling:
    widths: Dict[int, GarblingWidth]
    shard_invariance: Dict[str, SchemeShardInvariance]
    economics_identical_across_schemes: bool


def _garble_width(bit_width: int) -> GarblingWidth:
    """Both schemes lower and garble the same comparator: wire-format table
    bytes, measured mean garble time, and the outcome certificate over
    fresh pools of both schemes."""
    base = build_greater_than_circuit(bit_width)
    per_scheme = {}
    for name in GARBLING_SCHEMES:
        scheme = get_scheme(name)
        circuit = scheme.lower(base)
        rng = random.Random(bit_width)
        scheme.garble(circuit, rng=rng)  # warm-up (hash setup, caches)
        start = time.perf_counter()
        for _ in range(GARBLING_TIMING_ROUNDS):
            out = scheme.garble(circuit, rng=rng)
        per_scheme[name] = SchemeGarbling(
            table_bytes=out.garbled.serialized_size(),
            garble_wall_seconds=(time.perf_counter() - start) / GARBLING_TIMING_ROUNDS,
            and_gate_count=circuit.and_gate_count,
            gate_histogram=circuit.gate_histogram(),
        )

    pools = [ComparisonPool(bit_width, scheme=name) for name in GARBLING_SCHEMES]
    for pool in pools:
        pool.warm(GARBLING_SAMPLES)
    rng = random.Random(bit_width * 6151)
    matches = True
    for _ in range(GARBLING_SAMPLES):
        a = rng.randrange(0, 1 << bit_width)
        b = rng.randrange(0, 1 << bit_width)
        for pool in pools:
            if pool.take().evaluate(a, b).result != (a > b):
                matches = False
    classic, halfgates = per_scheme["classic"], per_scheme["halfgates"]
    return GarblingWidth(
        **per_scheme,
        original_gate_histogram=base.gate_histogram(),
        outcomes_match=matches,
        samples=GARBLING_SAMPLES,
        table_bytes_reduction=classic.table_bytes / halfgates.table_bytes,
        garble_time_reduction=classic.garble_wall_seconds / halfgates.garble_wall_seconds,
    )


def _observe_garbling(run: Run, **day: int) -> Garbling:
    invariance = experiment_scheme_shard_invariance(schemes=GARBLING_SCHEMES, **day)
    return Garbling(
        widths={bit_width: _garble_width(bit_width) for bit_width in COMPARISON_BIT_WIDTHS},
        shard_invariance=invariance.shard_invariance,
        economics_identical_across_schemes=invariance.economics_identical_across_schemes,
    )


def _garbling_gates(section: dict) -> Iterator[str]:
    for bit_width, entry in section.get("widths", {}).items():
        for key, label, floor in (
            ("table_bytes_reduction", "table-bytes", MIN_TABLE_BYTES_REDUCTION),
            ("garble_time_reduction", "garble-time", MIN_GARBLE_TIME_REDUCTION),
        ):
            reduction = entry.get(key)
            if not _num(reduction) >= floor:
                yield (
                    f"garbling.widths[{bit_width!r}] {label} reduction {reduction!r} "
                    f"is below the documented {floor}x floor"
                )


# ---------------------------------------------------------------------------
# multiexp — the fixed-base comb against the builtin pow.
# ---------------------------------------------------------------------------

#: modulus size of the multiexp certificate (Paillier n² at the 256-bit
#: bench key size is 1024 bits; 512 keeps the oracle comparisons fast).
MULTIEXP_MODULUS_BITS = 512
#: small-exponent batch shape of the comb certificate — the Protocol 4
#: ratio phase raises ONE ciphertext to many small multipliers.
MULTIEXP_SMALL_EXPONENT_BITS = 64
MULTIEXP_BATCH = 16


@dataclass(frozen=True)
class CombTiming:
    matches_pow: bool
    exponent_bits: int
    batch: int
    pow_seconds: float
    seconds: float
    speedup_vs_pow: Optional[float]


@dataclass(frozen=True)
class Multiexp:
    modulus_bits: int
    fixed_base_comb: CombTiming


def _observe_multiexp(run: Run) -> Multiexp:
    """The comb certified against and timed next to ``pow`` over a batch of
    small exponents of one base, the table build charged to the batch.
    The speedup is recorded, not gated."""
    rng = random.Random(0xC0FFEE)
    modulus = rng.getrandbits(MULTIEXP_MODULUS_BITS) | (1 << (MULTIEXP_MODULUS_BITS - 1)) | 1
    base = rng.randrange(2, modulus)
    exponents = [rng.getrandbits(MULTIEXP_SMALL_EXPONENT_BITS) for _ in range(MULTIEXP_BATCH)]

    start = time.perf_counter()
    oracle = [pow(base, e, modulus) for e in exponents]
    pow_seconds = time.perf_counter() - start
    start = time.perf_counter()
    table = FixedBaseTable(base, modulus, max_exponent_bits=MULTIEXP_SMALL_EXPONENT_BITS)
    combed = [table.powmod(e) for e in exponents]
    comb_seconds = time.perf_counter() - start
    return Multiexp(
        modulus_bits=MULTIEXP_MODULUS_BITS,
        fixed_base_comb=CombTiming(
            matches_pow=combed == oracle,
            exponent_bits=MULTIEXP_SMALL_EXPONENT_BITS,
            batch=MULTIEXP_BATCH,
            pow_seconds=pow_seconds,
            seconds=comb_seconds,
            speedup_vs_pow=pow_seconds / comb_seconds if comb_seconds > 0 else None,
        ),
    )


# ---------------------------------------------------------------------------
# aggregation_topology — chain vs. tree encrypted-sum collection.
# ---------------------------------------------------------------------------

#: Minimum tree:2-vs-chain simulated speedup at the largest requester
#: count (conservative floor; the expected value is ~n / log2(n)).
MIN_TREE_SPEEDUP = 2.0


@dataclass(frozen=True)
class TopologyTiming:
    simulated_seconds: float
    critical_path_rounds: int
    hops: int


@dataclass(frozen=True)
class RequesterRow:
    sums_identical: bool
    tree_vs_chain_speedup: float
    #: one entry per topology, keyed by its name next to the fields above.
    topologies: Dict[str, TopologyTiming] = field(metadata=INLINE)


@dataclass(frozen=True)
class AggregationTopology:
    requesters: Dict[int, RequesterRow]
    shard_invariance: Dict[str, TopologyShardInvariance]


def _requester_row(row: Dict[str, TopologyAggregationObservation]) -> RequesterRow:
    """``sums_identical``: every topology's encrypted sum is the chain's,
    decrypts to the plaintext sum and charges the same offline time."""
    chain = row["chain"]
    return RequesterRow(
        sums_identical=all(
            obs.encrypted_sum == chain.encrypted_sum
            and obs.decrypted_sum == obs.expected_sum
            and obs.offline_seconds == chain.offline_seconds
            for obs in row.values()
        ),
        tree_vs_chain_speedup=chain.simulated_seconds / row["tree:2"].simulated_seconds,
        topologies={
            name: TopologyTiming(obs.simulated_seconds, obs.critical_path_rounds, obs.hops)
            for name, obs in row.items()
        },
    )


def _observe_topology(run: Run) -> AggregationTopology:
    rows: Dict[int, Dict[str, TopologyAggregationObservation]] = {}
    for obs in experiment_aggregation_topologies():
        rows.setdefault(obs.requesters, {})[obs.topology] = obs
    return AggregationTopology(
        requesters={count: _requester_row(row) for count, row in rows.items()},
        shard_invariance=experiment_topology_shard_invariance(),
    )


def _topology_gates(section: dict) -> Iterator[str]:
    requesters = section.get("requesters") or {}
    if requesters:
        largest = max(requesters, key=int)
        speedup = requesters[largest].get("tree_vs_chain_speedup")
        if not _num(speedup) >= MIN_TREE_SPEEDUP:
            yield (
                f"aggregation_topology.requesters[{largest!r}] tree speedup {speedup!r} "
                f"is below the documented {MIN_TREE_SPEEDUP}x floor at the largest "
                "requester count"
            )


# ---------------------------------------------------------------------------
# The sampled-day sections; their observations are the experiments'.
# ---------------------------------------------------------------------------

#: Minimum day-scope-vs-window-scope simulated day speedup (the fixed
#: setup dominates small days, so the measured value is well above).
MIN_SESSION_SPEEDUP = 2.0


def _session_gates(section: dict) -> Iterator[str]:
    speedup = section.get("session_reuse_speedup")
    if not _num(speedup) >= MIN_SESSION_SPEEDUP:
        yield (
            f"session_reuse speedup {speedup!r} is below the documented "
            f"{MIN_SESSION_SPEEDUP}x floor"
        )


#: Minimum pipelined-vs-unpipelined simulated day speedup, gated only at
#: days of at least MIN_PIPELINE_WINDOWS windows (the anchor's un-hideable
#: offline phase dominates shorter days).
MIN_PIPELINE_SPEEDUP = 1.3
MIN_PIPELINE_WINDOWS = 6


def _pipelining_gates(section: dict) -> Iterator[str]:
    windows = section.get("windows_executed")
    speedup = section.get("pipeline_speedup")
    if _num(windows) >= MIN_PIPELINE_WINDOWS and not _num(speedup) >= MIN_PIPELINE_SPEEDUP:
        yield (
            f"pipelining speedup {speedup!r} is below the documented "
            f"{MIN_PIPELINE_SPEEDUP}x floor at {windows} windows"
        )


def _chaos_gates(section: dict) -> Iterator[str]:
    total = section.get("total_incidents")
    if not _num(total) >= 1:
        yield (
            f"chaos.total_incidents {total!r} — the survival matrix must "
            "actually inject faults"
        )
    rate = section.get("recovery_rate")
    if not _num(rate) >= 1.0:
        yield (
            f"chaos recovery rate {rate!r} is below the 1.0 floor (unrecovered "
            "incidents on completed runs)"
        )
    overhead = section.get("retry_overhead")
    budget = _num(section.get("max_attempts")) - 1
    if not _num(overhead) <= budget:
        yield (
            f"chaos retry overhead {overhead!r} exceeds the supervisor budget "
            f"({budget} extra attempts per window)"
        )


#: Minimum number of fleet regimes the planner sweep must cover.
MIN_PLANNER_REGIMES = 3
#: Planned-vs-naive speedups (predicted and measured) must strictly beat
#: the naive default.
MIN_PLANNER_SPEEDUP = 1.0


def _planner_gates(section: dict) -> Iterator[str]:
    regimes = section.get("regimes") or {}
    if len(regimes) < MIN_PLANNER_REGIMES:
        yield (
            f"planner lacks a 'regimes' mapping with at least "
            f"{MIN_PLANNER_REGIMES} fleet regimes"
        )
    for name, regime in regimes.items():
        speedup = regime.get("speedup")
        if not _num(speedup) > MIN_PLANNER_SPEEDUP:
            yield (
                f"planner.regimes[{name!r}] speedup {speedup!r} does not beat the "
                f"naive default (must be > {MIN_PLANNER_SPEEDUP}x)"
            )
    measured = (section.get("executed") or {}).get("measured_speedup")
    if not _num(measured) > MIN_PLANNER_SPEEDUP:
        yield (
            f"planner.executed measured speedup {measured!r} does not beat "
            f"the naive default (must be > {MIN_PLANNER_SPEEDUP}x)"
        )


#: The report's sections, in the order the bench runs them.
SECTIONS = (
    Section(
        "comparison",
        Dict[int, ComparisonWidth],
        _observe_comparison,
        gates=_comparison_gates,
    ),
    Section(
        "garbling",
        Garbling,
        _observe_garbling,
        scales=_rows(_DAY, smoke=(8, 2), quick=(10, 3), default=(12, 4), full=(16, 6)),
        gates=_garbling_gates,
    ),
    Section("multiexp", Multiexp, _observe_multiexp),
    Section(
        "aggregation_topology",
        AggregationTopology,
        _observe_topology,
        gates=_topology_gates,
    ),
    Section(
        "session_reuse",
        SessionReuseObservation,
        _day(experiment_session_reuse),
        # The speedup is largest at small samples (the fixed setup
        # dominates), so small scales still demonstrate the effect.
        scales=_rows(_DAY, smoke=(10, 4), quick=(12, 6), default=(12, 6), full=(16, 10)),
        gates=_session_gates,
    ),
    Section(
        "pipelining",
        PipeliningObservation,
        _day(experiment_window_pipelining),
        scales=_rows(_DAY, smoke=(10, 4), quick=(12, 6), default=(12, 6), full=(16, 10)),
        gates=_pipelining_gates,
    ),
    Section(
        "chaos",
        ChaosMatrixObservation,
        _day(experiment_chaos_matrix),
        # Every matrix cell runs the whole sampled day, so it stays small.
        scales=_rows(_DAY, smoke=(8, 2), quick=(10, 2), default=(10, 3), full=(12, 4)),
        gates=_chaos_gates,
    ),
    Section(
        "planner",
        PlannerSweepObservation,
        _day(experiment_planner_sweep),
        scales=_rows(_DAY, smoke=(8, 2), quick=(10, 3), default=(10, 4), full=(12, 6)),
        gates=_planner_gates,
    ),
    Section(
        "parallel_runner",
        ParallelDayObservation,
        lambda run, **day: experiment_parallel_day(workers=run.workers, **day),
        # Small days: the point is the sharding behavior, not crypto cost.
        scales=_rows(
            _DAY + ("crypto_key_size",),
            smoke=(12, 8, 128),
            quick=(16, 8, 128),
            default=(24, 12, 256),
            full=(48, 24, 256),
        ),
    ),
)
