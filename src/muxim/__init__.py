"""muxim: influence maximization on multiplex networks.

Library layout mirrors the pipeline: `network` holds the multiplex data
model and generator, `propagation` the cascade engine and exact oracles,
`seeding` per-layer greedy selection, `knapsack` the budget allocation,
`pgm` the correlation grouping and tree models, `rewards` the shaped
objective, and `pipeline` the end-to-end solvers with their certificates.
"""

from .network import (GeneratorConfig, Layer, MultiplexNetwork, ParseError,
                      generate_synthetic, load_multiplex, overlap_count,
                      save_multiplex)
from .propagation import (CascadeTrace, CascadeWorlds, GuardError,
                          SpreadEstimate, StatusDataset, estimate_spread,
                          exact_activation_probabilities, exact_spread,
                          exact_worlds, per_layer_spread,
                          record_status_dataset, simulate_once)
from .seeding import (ProfitCostTable, build_profit_cost_table,
                      candidate_scores, celf_greedy, probabilistic_greedy,
                      select_candidates)
from .knapsack import BudgetAllocationTable, solve_mckp, verify_allocation
from .pgm import (ChowLiuTree, CorrelationMatrix, GroupPartition,
                  chow_liu_fit, mutual_information, pearson_matrix,
                  tree_condition, variable_grouping)
from .rewards import (ActivationModel, RewardContext, activation_score,
                      reward_shaped_greedy, shaped_spread, step_reward,
                      stochastic_refinement)
from .pipeline import (RatioCertificate, Solution, SolverConfig,
                       exhaustive_optimum, measure_beta, run_celf_single,
                       run_isf, run_ksn, run_reasoner, solve)

__version__ = "0.1.0"
