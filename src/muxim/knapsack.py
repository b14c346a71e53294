"""Budget allocation across layers as a multiple-choice knapsack.

Each layer contributes one class of (cost, profit) items (its greedy seed
prefixes); exactly one item per class is chosen to maximize total profit
under the shared budget.  An exact dynamic program is cheap at these sizes
and strictly dominates approximate solvers, so certificates can report a
solver error of zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .seeding import ProfitCostTable

NEG_INF = float("-inf")


@dataclass
class AllocationRow:
    layer: int
    budget: int
    profit: float


@dataclass
class BudgetAllocationTable:
    """One (budget, profit) choice per layer, total cost within the budget."""

    rows: list[AllocationRow]

    @property
    def total_cost(self) -> int:
        return sum(r.budget for r in self.rows)

    @property
    def total_profit(self) -> float:
        return float(sum(r.profit for r in self.rows))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,budget,profit\n")
            for r in self.rows:
                fh.write(f"{r.layer},{r.budget},{r.profit!r}\n")


def solve_mckp(table: ProfitCostTable, budget: int) -> BudgetAllocationTable:
    """Exact DP over (layer, spent budget); O(k * budget^2) time.

    Ties resolve deterministically: maximum profit first, then the smaller
    total cost, then the lexicographically smallest per-layer budget vector.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k = table.num_layers
    profits = [[row.profit for row in layer_rows] for layer_rows in table.rows]
    for layer_profits in profits:
        if not layer_profits:
            raise ValueError("every layer class needs its zero-cost item")

    # suf[i][b]: best profit from layers i..k-1 spending exactly b
    suf = [[NEG_INF] * (budget + 1) for _ in range(k + 1)]
    suf[k][0] = 0.0
    for i in range(k - 1, -1, -1):
        for b in range(budget + 1):
            best = NEG_INF
            for j in range(min(b, len(profits[i]) - 1) + 1):
                below = suf[i + 1][b - j]
                if below == NEG_INF:
                    continue
                cand = profits[i][j] + below
                if cand > best:
                    best = cand
            suf[i][b] = best

    best_profit = max(suf[0][: budget + 1])
    best_cost = min(b for b in range(budget + 1) if suf[0][b] == best_profit)

    rows = []
    remaining = best_cost
    for i in range(k):
        for j in range(min(remaining, len(profits[i]) - 1) + 1):
            below = suf[i + 1][remaining - j]
            if below != NEG_INF and profits[i][j] + below == suf[i][remaining]:
                rows.append(AllocationRow(i, j, profits[i][j]))
                remaining -= j
                break
    return BudgetAllocationTable(rows)


def verify_allocation(alloc: BudgetAllocationTable, table: ProfitCostTable,
                      budget: int, max_combos: int = 10 ** 6,
                      tol: float = 1e-9) -> bool:
    """Check feasibility and, when enumerable, optimality against brute force."""
    if len(alloc.rows) != table.num_layers:
        return False
    for r in alloc.rows:
        if r.budget < 0 or r.budget >= len(table.rows[r.layer]):
            return False
        if abs(table.rows[r.layer][r.budget].profit - r.profit) > tol:
            return False
    if alloc.total_cost > budget:
        return False

    sizes = [len(layer_rows) for layer_rows in table.rows]
    combos = int(np.prod(sizes, dtype=np.float64))
    if combos > max_combos:
        return True  # feasible; optimality not enumerable at this size
    best = NEG_INF
    for choice in itertools.product(*(range(s) for s in sizes)):
        if sum(choice) > budget:
            continue
        value = sum(table.rows[i][j].profit for i, j in enumerate(choice))
        best = max(best, value)
    return abs(alloc.total_profit - best) <= tol
