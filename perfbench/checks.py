"""Output checks, each a property the method's answer must have.

Every check takes plain data (the solution JSON as a dict, lists of
numbers) and returns a list of failure messages; an empty list passes.
Nothing here imports the program.
"""

from __future__ import annotations

import math

import numpy as np

# |program - reference| must stay within this many combined standard errors
SPREAD_Z = 5.0
TELESCOPE_RTOL = 1e-9
KNAPSACK_RTOL = 1e-9


def check_seeds(sol: dict, member: np.ndarray, budget: int) -> list[str]:
    """Seeds are distinct and in range; the union respects the budget.

    When the method reports per-layer seeds, each is a member of its layer
    and the union is exactly their set-union.
    """
    fails = []
    n = member.shape[1]
    union = sol["union_seeds"]
    if len(set(union)) != len(union):
        fails.append(f"union_seeds has duplicates: {union}")
    if any(not 0 <= v < n for v in union):
        fails.append(f"union_seeds outside [0, {n}): {union}")
    if len(set(union)) > budget:
        fails.append(f"union of {len(set(union))} seeds exceeds budget {budget}")
    per_layer = sol["per_layer_seeds"]
    for layer, seeds in per_layer.items():
        i = int(layer)
        if not 0 <= i < member.shape[0]:
            fails.append(f"per_layer_seeds names layer {i}, not in the network")
            continue
        if len(set(seeds)) != len(seeds):
            fails.append(f"layer {i} seeds have duplicates: {seeds}")
        outside = [v for v in seeds if not (0 <= v < n and member[i, v])]
        if outside:
            fails.append(f"layer {i} seeds are not members of layer {i}: {outside}")
    if per_layer:
        joined = set().union(*(set(s) for s in per_layer.values()))
        if joined != set(union):
            fails.append(f"union_seeds {sorted(union)} is not the union of the "
                         f"per-layer seeds {sorted(joined)}")
    return fails


def check_reward_telescoping(sol: dict) -> list[str]:
    """Phase-2 step rewards sum to shaped_final - shaped_empty."""
    fails = []
    for entry in sol.get("reward_trace", []):
        if entry.get("rewards") is None:
            continue  # refinement replaced the greedy picks; nothing to sum
        total = math.fsum(entry["rewards"])
        delta = entry["shaped_final"] - entry["shaped_empty"]
        if abs(total - delta) > TELESCOPE_RTOL * max(1.0, abs(delta)):
            fails.append(f"layer {entry['layer']}: rewards sum to {total!r}, "
                         f"shaped_final - shaped_empty is {delta!r}")
    return fails


def check_spread(sol: dict, ref_mean: float, ref_stderr: float,
                 ref_worlds: int) -> list[str]:
    """The program's total_spread agrees with the reference estimate.

    The program's own stderr comes from few worlds and underestimates the
    spread of a skewed cascade distribution, so both standard errors are
    taken from the reference's per-world deviation.
    """
    spread = sol["total_spread"]
    sd = ref_stderr * math.sqrt(ref_worlds)
    se = sd * math.sqrt(1.0 / spread["m"] + 1.0 / ref_worlds)
    diff = spread["mean"] - ref_mean
    if abs(diff) > SPREAD_Z * se + 1e-9:
        return [f"total_spread {spread['mean']!r} differs from the reference "
                f"{ref_mean!r} by {diff / se if se else math.inf:.1f} standard errors"]
    return []


def best_allocation(profits: list[list[float]], costs: list[list[int]],
                    budget: int) -> float:
    """Brute-force the multiple-choice knapsack: one item from every class."""
    best = -math.inf

    def walk(i, spent, value):
        nonlocal best
        if i == len(profits):
            best = max(best, value)
            return
        for cost, profit in zip(costs[i], profits[i]):
            if spent + cost <= budget:
                walk(i + 1, spent + cost, value + profit)

    walk(0, 0, 0.0)
    return best


def check_knapsack(profits: list[list[float]], costs: list[list[int]],
                   budget: int, alloc: list[tuple[int, int, float]]) -> list[str]:
    """The allocation picks one item per class, fits, and is optimal.

    `alloc` holds (layer, item index, profit) rows as the solver returned
    them.
    """
    fails = []
    if sorted(layer for layer, _, _ in alloc) != list(range(len(profits))):
        return [f"allocation does not pick one item per class: {alloc}"]
    spent = 0
    for layer, j, profit in alloc:
        if not 0 <= j < len(profits[layer]):
            return [f"layer {layer}: item {j} is not in the table"]
        if profit != profits[layer][j]:
            fails.append(f"layer {layer}: allocated profit {profit!r} is not the "
                         f"table's {profits[layer][j]!r}")
        spent += costs[layer][j]
    if spent > budget:
        fails.append(f"allocation spends {spent} > budget {budget}")
    best = best_allocation(profits, costs, budget)
    total = math.fsum(p for _, _, p in alloc)
    if total < best - KNAPSACK_RTOL * max(1.0, abs(best)):
        fails.append(f"allocation profit {total!r} below the brute-force optimum {best!r}")
    return fails


def naive_greedy_gains(num_candidates: int, num_picks: int) -> int:
    """Gain evaluations of plain greedy: every remaining candidate per pick."""
    return sum(num_candidates - j for j in range(num_picks))


def check_celf(calls: list[tuple[int, int]]) -> list[str]:
    """Each lazy-greedy call evaluated no more gains than naive greedy."""
    return [f"CELF call {k}: {gains} gain evaluations > naive greedy's {naive}"
            for k, (gains, naive) in enumerate(calls) if gains > naive]
