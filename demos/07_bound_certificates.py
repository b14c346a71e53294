"""Checkable quality certificates on a desk-sized instance.

On instances small enough to enumerate, the solver's spread is compared
against the true optimum, and the worst-case, measured-beta, and best-case
ratio bounds are all evaluated explicitly rather than assumed.
"""

import numpy as np

from muxim import (GeneratorConfig, RatioCertificate, SolverConfig,
                   exact_spread, exhaustive_optimum, generate_synthetic,
                   overlap_count, run_reasoner)
from muxim.network import IC

net = generate_synthetic(GeneratorConfig([5, 6], 10, 0.5, [IC, IC],
                                         rng_seed=11))
o, k = overlap_count(net), net.num_layers
print("instance:", net.num_nodes, "identities, o =", o, ", k =", k)

cfg = SolverConfig(m=100, master_seed=2, gamma=1.0)
budget = 2
solution = run_reasoner(net, budget, cfg)

sigma_hat = exact_spread(net, solution.union_seeds)
sigma_opt, best_set = exhaustive_optimum(net, budget)
print(f"\nsolver seeds {solution.union_seeds}: exact spread {sigma_hat:.4f}")
print(f"exhaustive optimum {best_set}: exact spread {sigma_opt:.4f}")
print("achieved ratio: %.3f" % (sigma_hat / sigma_opt))

beta = solution.beta
bounds = {
    "worst case      ": RatioCertificate.bound(o, k, 1.0),
    f"general (b={beta:.2f})": RatioCertificate.bound(o, k, beta),
    "best case       ": RatioCertificate.bound(o, k, 0.0),
}
print("\nprovable lower bounds on the ratio (solver error 0):")
for name, bound in bounds.items():
    status = "holds" if sigma_hat + 1e-9 >= bound * sigma_opt else "VIOLATED"
    print(f"  {name}: {bound:.4f}  ->  {status}")
