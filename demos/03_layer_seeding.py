"""Per-layer seed selection: lazy greedy, randomized scoring, pruning.

The lazy greedy keeps stale marginal gains in a heap and only re-evaluates
the top entry; with shared simulation worlds it reproduces naive greedy
exactly.  Randomized greedy restarts score nodes by how much marginal gain
they tend to contribute, which prunes the candidate pool before the
(costlier) greedy runs.
"""

import numpy as np

from muxim import (GeneratorConfig, candidate_scores, celf_greedy,
                   generate_synthetic, probabilistic_greedy, select_candidates)
from muxim.network import IC
from muxim.propagation import CascadeWorlds

net = generate_synthetic(GeneratorConfig([40, 60], 340, 0.4, [IC, IC],
                                         rng_seed=11))
worlds = CascadeWorlds(net, 100, 0)

picks = celf_greedy(worlds, layer=1, budget=5,
                    candidates=np.flatnonzero(net.member[1]).tolist())
print("greedy picks on layer 1:", picks)
base = worlds.baseline([], layers=[1])
for v in picks:
    base.accept(v)
print("layer-1 spread of the picks: %.2f" % base.mean_count())

runs = probabilistic_greedy(worlds, layer=1, budget=5, restarts=6,
                            convergence=0.0, rng=3)
print("\nrandomized runs:", runs)
scored = candidate_scores(worlds, runs, layer=1)
top = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
print("top scored candidates:", [(v, round(s, 3)) for v, s in top])

pruned = select_candidates(scored, net, layer=1, gamma=0.25)
print("\npruned pool keeps", len(pruned), "of",
      int(net.member[1].sum()), "members")
picks2 = celf_greedy(worlds, 1, 5, pruned)
print("greedy over the pruned pool:", picks2)
