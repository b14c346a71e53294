"""The two-phase solver end to end, next to its baselines.

Phase 1 splits the budget across layers by exact knapsack over greedy
prefixes.  Phase 2 walks layers from least to most promising, fits a tree
model to the status data of the layers done so far, and re-optimizes each
later layer under a shaped reward that pays less for nodes the earlier
layers probably reach anyway.
"""

from muxim import (GeneratorConfig, SolverConfig, generate_synthetic,
                   overlap_count, run_isf, run_ksn, run_reasoner)
from muxim.network import IC

net = generate_synthetic(GeneratorConfig([60, 100, 140], 750, 0.6,
                                         [IC, IC, IC], rng_seed=4))
print("network:", net.num_nodes, "identities,", net.num_layers,
      "layers, overlap", overlap_count(net))

cfg = SolverConfig(m=100, master_seed=1, gamma=1.0)
budget = 8

solution = run_reasoner(net, budget, cfg)
print("\ntwo-phase solver:")
print("  processing order:", solution.processing_order)
print("  seeds per layer:", solution.per_layer_seeds)
print("  union:", solution.union_seeds)
print("  spread: %.2f +- %.2f" % (solution.spread.mean, solution.spread.stderr))
print("  repeat-activation fraction beta: %.3f" % solution.beta)
print("  fitted models:", len(solution.models), "(one per layer except the last)")

for entry in solution.reward_trace:
    if entry.get("rewards"):
        total = sum(entry["rewards"])
        print(f"  layer {entry['layer']} rewards sum to {total:.2f}"
              f" = shaped final - shaped empty"
              f" ({entry['shaped_final']:.2f} - {entry['shaped_empty']:.2f})")

ksn = run_ksn(net, budget, cfg)
isf = run_isf(net, budget, cfg)
print("\nbaselines:")
print("  allocation only : %.2f" % ksn.spread.mean)
print("  whole-net greedy: %.2f" % isf.spread.mean)
