"""Correctness oracle for the benchmark's trading windows (never timed).

A private window must match the plaintext twin's ``WindowResult`` with the
tolerances of ``tests/integration/test_private_vs_plain.py``.  A plaintext
window must keep its price inside ``[pl, ps_g]``, keep its allocation,
payments and costs consistent with that price and its per-agent totals,
and be individually rational: no seller earns less and no buyer pays more
than trading with the grid alone.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.core.market import MarketCase
from repro.core.params import MarketParameters
from repro.core.results import WindowResult

PRICE_ABS = 1e-2
COST_REL, COST_ABS = 1e-3, 1e-6
ENERGY_REL, ENERGY_ABS = 2e-3, 1e-8
#: slack for float round-off in the plaintext engine's own arithmetic.
EXACT_REL, EXACT_ABS = 1e-9, 1e-12


def _close(actual: float, expected: float, rel: float, abs_: float) -> bool:
    """``pytest.approx`` semantics: within ``max(rel * |expected|, abs)``."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


def _pair_energy(result: WindowResult) -> Dict[Tuple[str, str], float]:
    energy: Dict[Tuple[str, str], float] = defaultdict(float)
    for trade in result.clearing.trades:
        energy[(trade.seller_id, trade.buyer_id)] += trade.energy_kwh
    return energy


def check_private(result: WindowResult, reference: WindowResult) -> List[str]:
    """Compare a private window with the plaintext twin's result."""
    if result.case != reference.case:
        return [f"case {result.case.value} != twin {reference.case.value}"]
    problems = []
    if not _close(result.clearing_price, reference.clearing_price, 0.0, PRICE_ABS):
        problems.append(
            f"price {result.clearing_price!r} != twin {reference.clearing_price!r}"
        )
    if not _close(
        result.buyer_coalition_cost, reference.buyer_coalition_cost, COST_REL, COST_ABS
    ):
        problems.append(
            f"buyer-coalition cost {result.buyer_coalition_cost!r} "
            f"!= twin {reference.buyer_coalition_cost!r}"
        )
    if reference.case == MarketCase.NO_MARKET:
        if result.clearing is not None:
            problems.append("no-market window carries a clearing")
        return problems
    energy = _pair_energy(result)
    wrong = [
        trade
        for trade in reference.clearing.trades
        if not _close(
            energy.get((trade.seller_id, trade.buyer_id), 0.0),
            trade.energy_kwh,
            ENERGY_REL,
            ENERGY_ABS,
        )
    ]
    if wrong:
        first = wrong[0]
        problems.append(
            f"{len(wrong)} pairwise allocations differ from the twin, first "
            f"{first.seller_id}->{first.buyer_id}: "
            f"{energy.get((first.seller_id, first.buyer_id), 0.0)!r} "
            f"!= {first.energy_kwh!r}"
        )
    return problems


def check_plain(result: WindowResult, params: MarketParameters) -> List[str]:
    """Price band, allocation consistency and individual rationality."""
    problems = []
    price = result.clearing_price
    if not params.price_lower_bound <= price <= params.retail_price:
        problems.append(
            f"price {price!r} outside [{params.price_lower_bound}, {params.retail_price}]"
        )
    bought: Dict[str, float] = defaultdict(float)
    sold: Dict[str, float] = defaultdict(float)
    if result.clearing is not None:
        clearing = result.clearing
        if clearing.clearing_price != price:
            problems.append(f"price {price!r} != clearing price {clearing.clearing_price!r}")
        unpaid = 0
        for trade in clearing.trades:
            sold[trade.seller_id] += trade.energy_kwh
            bought[trade.buyer_id] += trade.energy_kwh
            if not _close(trade.payment, price * trade.energy_kwh, EXACT_REL, EXACT_ABS):
                unpaid += 1
        if unpaid:
            problems.append(f"{unpaid} trades not paid at the clearing price {price!r}")
        for agent_id, total in clearing.seller_sold_kwh.items():
            if not _close(sold[agent_id], total, EXACT_REL, EXACT_ABS):
                problems.append(f"seller {agent_id} ships {sold[agent_id]!r} != sold {total!r}")
        for agent_id, total in clearing.buyer_bought_kwh.items():
            if not _close(bought[agent_id], total, EXACT_REL, EXACT_ABS):
                problems.append(
                    f"buyer {agent_id} receives {bought[agent_id]!r} != bought {total!r}"
                )
    for seller_id, utility in result.seller_utilities.items():
        grid_only = result.baseline_seller_utilities[seller_id]
        if utility < grid_only - EXACT_REL * max(1.0, abs(grid_only)):
            problems.append(f"seller {seller_id} utility {utility!r} < grid-only {grid_only!r}")
    for buyer in result.coalitions.buyers:
        demand = -buyer.net_energy_kwh
        from_market = bought[buyer.agent_id]
        cost = price * from_market + params.retail_price * (demand - from_market)
        grid_only = result.baseline_buyer_costs[buyer.agent_id]
        reported = result.buyer_costs[buyer.agent_id]
        if not _close(reported, cost, EXACT_REL, EXACT_ABS):
            problems.append(f"buyer {buyer.agent_id} cost {reported!r} != recomputed {cost!r}")
        if cost > grid_only + EXACT_REL * max(1.0, abs(grid_only)):
            problems.append(f"buyer {buyer.agent_id} cost {cost!r} > grid-only {grid_only!r}")
    return problems
