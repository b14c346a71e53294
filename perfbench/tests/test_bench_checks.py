"""Every output check passes on a valid output and fails on a corrupted one."""

import copy
import itertools

import numpy as np
import pytest

import checks

MEMBER = np.array([[1, 1, 1, 0, 0, 0],
                   [0, 0, 1, 1, 1, 1]], dtype=bool)


def reasoner_solution():
    return {
        "per_layer_seeds": {"0": [0, 2], "1": [2, 4]},
        "union_seeds": [0, 2, 4],
        "reward_trace": [{"layer": 1, "rewards": [1.25, 0.5, 0.125],
                          "shaped_final": 4.0, "shaped_empty": 2.125},
                         {"layer": 0, "rewards": None}],
        "total_spread": {"mean": 5.0, "stderr": 0.2, "m": 100},
    }


def test_valid_seeds_pass():
    assert checks.check_seeds(reasoner_solution(), MEMBER, budget=3) == []
    isf = {"per_layer_seeds": {}, "union_seeds": [1, 5]}
    assert checks.check_seeds(isf, MEMBER, budget=2) == []


@pytest.mark.parametrize("corrupt", [
    lambda s: s["union_seeds"].append(2),               # duplicate seed
    lambda s: s["union_seeds"].__setitem__(2, 6),       # out of range
    lambda s: s["per_layer_seeds"]["1"].append(5),      # union misses a seed
    lambda s: s["per_layer_seeds"]["0"].append(3),      # not a layer-0 member
    lambda s: s["per_layer_seeds"].__setitem__("2", []),  # no such layer
    lambda s: s["union_seeds"].remove(4),               # union is not the join
])
def test_corrupted_seeds_fail(corrupt):
    sol = reasoner_solution()
    corrupt(sol)
    assert checks.check_seeds(sol, MEMBER, budget=3)


def test_union_over_budget_fails():
    assert checks.check_seeds(reasoner_solution(), MEMBER, budget=2)


def test_rewards_telescope():
    assert checks.check_reward_telescoping(reasoner_solution()) == []
    sol = reasoner_solution()
    sol["reward_trace"][0]["rewards"][1] += 1e-6
    assert checks.check_reward_telescoping(sol)
    sol = reasoner_solution()
    sol["reward_trace"][0]["shaped_empty"] = 2.0
    assert checks.check_reward_telescoping(sol)


def test_spread_agreement():
    sol = reasoner_solution()
    # reference: sd 2 per world over 1000 worlds -> combined se ~0.21
    ref_stderr = 2.0 / np.sqrt(1000)
    assert checks.check_spread(sol, 5.5, ref_stderr, 1000) == []
    assert checks.check_spread(sol, 6.5, ref_stderr, 1000)
    # a deterministic spread must match exactly
    assert checks.check_spread(sol, 5.0, 0.0, 1000) == []
    assert checks.check_spread(sol, 5.001, 0.0, 1000)


def knapsack_table(rng, classes=4, items=5):
    profits = [np.concatenate(([0.0], np.cumsum(rng.random(items - 1)))).tolist()
               for _ in range(classes)]
    costs = [list(range(items)) for _ in range(classes)]
    return profits, costs


def optimum(profits, costs, budget):
    best, pick = -1.0, None
    for choice in itertools.product(*(range(len(p)) for p in profits)):
        if sum(costs[i][j] for i, j in enumerate(choice)) <= budget:
            value = sum(profits[i][j] for i, j in enumerate(choice))
            if value > best:
                best, pick = value, choice
    return [(i, j, profits[i][j]) for i, j in enumerate(pick)]


def test_knapsack_optimum_passes_and_suboptimal_fails():
    rng = np.random.default_rng(11)
    for budget in (0, 3, 7):
        profits, costs = knapsack_table(rng)
        alloc = optimum(profits, costs, budget)
        assert checks.check_knapsack(profits, costs, budget, alloc) == []
        assert checks.best_allocation(profits, costs, budget) == pytest.approx(
            sum(p for _, _, p in alloc))
    profits, costs = knapsack_table(rng)
    alloc = optimum(profits, costs, 6)
    worse = copy.deepcopy(alloc)
    i = next(k for k, (_, j, _) in enumerate(worse) if j > 0)
    layer, j, _ = worse[i]
    worse[i] = (layer, j - 1, profits[layer][j - 1])
    assert checks.check_knapsack(profits, costs, 6, worse)


@pytest.mark.parametrize("corrupt", [
    lambda a, p: a.pop(),                                   # a class unallocated
    lambda a, p: a.__setitem__(0, (0, 9, 0.0)),             # item not in table
    lambda a, p: a.__setitem__(0, (0, a[0][1], a[0][2] + 1)),  # profit misreported
    lambda a, p: a.__setitem__(0, (0, 4, p[0][4])),         # spends over budget
])
def test_corrupted_allocations_fail(corrupt):
    profits, costs = knapsack_table(np.random.default_rng(5))
    alloc = optimum(profits, costs, 4)
    corrupt(alloc, profits)
    assert checks.check_knapsack(profits, costs, 4, alloc)


def test_celf_gain_count_bound():
    assert checks.naive_greedy_gains(5, 2) == 5 + 4
    assert checks.naive_greedy_gains(5, 0) == 0
    assert checks.check_celf([(5, 9), (9, 9)]) == []
    assert checks.check_celf([(5, 9), (10, 9)])
