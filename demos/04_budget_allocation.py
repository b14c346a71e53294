"""Price greedy prefixes at whole-network spread and split the budget.

Each layer contributes a class of (cost, profit) items: its greedy seed
prefixes priced by the spread they achieve on the full multiplex.  An exact
dynamic program then picks one prefix per layer under the shared budget.
"""

from muxim import (GeneratorConfig, build_profit_cost_table,
                   generate_synthetic, select_candidates, solve_mckp,
                   verify_allocation)
from muxim.network import IC
from muxim.propagation import CascadeWorlds

net = generate_synthetic(GeneratorConfig([25, 35, 50], 260, 0.5,
                                         [IC, IC, IC], rng_seed=2))
worlds = CascadeWorlds(net, 100, 0)
budget = 6

candidates = [select_candidates(None, net, i, gamma=1.0)
              for i in range(net.num_layers)]
table = build_profit_cost_table(worlds, candidates, budget)
for i, rows in enumerate(table.rows):
    profile = ", ".join(f"{r.cost}:{r.profit:.1f}" for r in rows)
    print(f"layer {i} cost:profit  {profile}")

alloc = solve_mckp(table, budget)
print("\nallocation:")
for row in alloc.rows:
    seeds = table.rows[row.layer][row.budget].seeds
    print(f"  layer {row.layer}: budget {row.budget}, profit {row.profit:.1f},"
          f" seeds {list(seeds)}")
print("total cost:", alloc.total_cost, "of", budget)
print("verified optimal:", verify_allocation(alloc, table, budget))
