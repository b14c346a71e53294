"""End-to-end solvers and their approximation-ratio certificates.

Phase 1 allocates the seed budget across layers: greedy prefixes per layer
are priced at whole-network spread and an exact knapsack picks one prefix
per layer.  Phase 2 walks the layers from least to most promising; the
first keeps its allocated seeds, later ones re-optimize under the shaped
reward informed by tree models fitted to simulation status data of the
layers done so far.  Baselines: the allocation-only solver (no phase 2) and
plain greedy on the whole multiplex.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .knapsack import BudgetAllocationTable, solve_mckp
from .network import MultiplexNetwork
from .pgm import chow_liu_fit, pearson_matrix, variable_grouping
from .propagation import (CascadeWorlds, GuardError, SpreadEstimate,
                          estimate_spread, exact_worlds,
                          record_status_dataset)
from .rewards import (CLAMP_01, CLAMP_RAW, ActivationModel, RewardContext,
                      reward_shaped_greedy, shaped_spread, stochastic_refinement)
from .seeding import (ProfitCostTable, build_profit_cost_table,
                      candidate_scores, celf_greedy, probabilistic_greedy,
                      select_candidates)

METHOD_REASONER = "mim-reasoner"
METHOD_KSN = "ksn"
METHOD_ISF = "isf"
METHOD_CELF_SINGLE = "celf-single"


@dataclass
class SolverConfig:
    """Shared knobs for every solver; defaults match the experiment setup."""

    m: int = 100
    master_seed: int = 0
    xi: float = 0.8
    gamma: float = 0.25
    kappa: int = 4
    delta: float = 0.0
    score_m: int = 20
    alpha: float = 1.0
    clamp: str = "raw"
    refine: bool = False
    tau: float = 0.1
    restarts: int = 8
    phase2: bool = True
    single_layer: int = 0

    def validate(self) -> None:
        """Raise ValueError naming the first knob outside its domain."""
        rules = (
            ("m", int, lambda v: v >= 1, ">= 1"),
            ("xi", float, lambda v: 0 < v <= 1, "in (0, 1]"),
            ("gamma", float, lambda v: v > 0, "> 0"),
            ("kappa", int, lambda v: v >= 1, ">= 1"),
            ("restarts", int, lambda v: v >= 1, ">= 1"),
            ("tau", float, lambda v: v > 0, "> 0"),
            ("delta", float, lambda v: v >= 0, ">= 0"),
            ("score_m", int, lambda v: v >= 1, ">= 1"),
            ("alpha", float, lambda v: v >= 0, ">= 0"),
            ("single_layer", int, lambda v: v >= 0, ">= 0"),
        )
        for name, kind, ok, domain in rules:
            value = getattr(self, name)
            number = isinstance(value, int) if kind is int else isinstance(value, (int, float))
            if isinstance(value, bool) or not number or not ok(value):
                raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'} "
                                 f"{domain}, got {value!r}")
        if self.clamp not in (CLAMP_RAW, CLAMP_01):
            raise ValueError(f"clamp must be {CLAMP_RAW!r} or {CLAMP_01!r}, got {self.clamp!r}")


@dataclass
class RatioCertificate:
    """Measured quantities next to the provable spread ratio bounds.

    `bound_worst` assumes every overlap activation is wasted, `bound_best`
    assumes none is, and `bound_general` interpolates through the measured
    fraction beta of overlap activations that were repeats.
    """

    o: int
    k: int
    epsilon: float
    beta: float | None
    sigma_hat: float
    sigma_opt: float | None = None

    @staticmethod
    def worst_bound(o: int, k: int, epsilon: float = 0.0) -> float:
        return (1.0 - epsilon) * (1.0 - 1.0 / math.e) / ((o + 1) * k)

    @staticmethod
    def best_bound(o: int, k: int, epsilon: float = 0.0) -> float:
        return (1.0 - epsilon) * (1.0 - 1.0 / math.e) / (k + o)

    @staticmethod
    def general_bound(o: int, k: int, beta: float, epsilon: float = 0.0) -> float:
        return (1.0 - epsilon) * (1.0 - 1.0 / math.e) / ((k - 1) * beta * o + o + k)

    @property
    def bound_worst(self) -> float:
        return self.worst_bound(self.o, self.k, self.epsilon)

    @property
    def bound_best(self) -> float:
        return self.best_bound(self.o, self.k, self.epsilon)

    @property
    def bound_general(self) -> float | None:
        if self.beta is None:
            return None
        return self.general_bound(self.o, self.k, self.beta, self.epsilon)

    def to_dict(self) -> dict:
        return {
            "o": self.o,
            "k": self.k,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "sigma_hat": self.sigma_hat,
            "sigma_opt": self.sigma_opt,
            "bounds": {
                "worst": self.bound_worst,
                "best": self.bound_best,
                "general": self.bound_general,
            },
        }


@dataclass
class Solution:
    """Seeds per layer, their union, spread, and certificate for one run."""

    method: str
    per_layer_seeds: dict[int, list[int]]
    union_seeds: list[int]
    processing_order: list[int]
    spread: SpreadEstimate
    beta: float | None
    certificate: RatioCertificate
    reward_trace: list[dict] = field(default_factory=list)
    models: list[ActivationModel] = field(default_factory=list)
    allocation: BudgetAllocationTable | None = None
    profit_table: ProfitCostTable | None = None
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "per_layer_seeds": {str(i): sorted(s) for i, s in self.per_layer_seeds.items()},
            "union_seeds": sorted(self.union_seeds),
            "processing_order": list(self.processing_order),
            "total_spread": {
                "mean": self.spread.mean,
                "stderr": self.spread.stderr,
                "m": self.spread.num_sims,
            },
            "beta": self.beta,
            "certificate": self.certificate.to_dict(),
            "reward_trace": self.reward_trace,
            "wall_times": self.wall_times,
        }


@dataclass
class PhaseState:
    """Mutable loop state for the layer-by-layer phase-2 walk."""

    remaining: list[tuple[int, int, float]]  # (layer, budget, expected profit)
    models: list[ActivationModel] = field(default_factory=list)
    per_layer_seeds: dict[int, list[int]] = field(default_factory=dict)
    processed: list[int] = field(default_factory=list)

    @classmethod
    def from_allocation(cls, alloc: BudgetAllocationTable) -> "PhaseState":
        return cls([(r.layer, r.budget, r.profit) for r in alloc.rows])


def select_next_layer(state: PhaseState) -> int | None:
    """Pop and return the remaining layer with the lowest expected profit.

    Ties fall to the lower layer id; returns None once every layer has been
    consumed.
    """
    if not state.remaining:
        return None
    best = min(state.remaining, key=lambda row: (row[2], row[0]))
    state.remaining.remove(best)
    return best[0]


def _phase1(net: MultiplexNetwork, budget: int, cfg: SolverConfig,
            worlds: CascadeWorlds):
    """Candidate pruning, per-layer greedy prefixes, pricing, and allocation."""
    candidates = []
    for i in range(net.num_layers):
        scored = None
        if cfg.gamma < 1.0:
            runs = probabilistic_greedy(
                net, i, budget, cfg.kappa, cfg.delta,
                rng=np.random.default_rng(cfg.master_seed * 7919 + i),
                m=cfg.score_m, master_seed=cfg.master_seed + 31 * i + 1)
            if any(runs):
                scored = candidate_scores(runs, net, i, worlds=worlds)
        # without scores there is nothing meaningful to prune by
        gamma = cfg.gamma if scored is not None else 1.0
        candidates.append(select_candidates(scored, net, i, gamma))
    table = build_profit_cost_table(net, candidates, budget, worlds=worlds)
    alloc = solve_mckp(table, budget)
    return candidates, table, alloc


def _final_certificate(net, union, cfg, beta):
    spread = estimate_spread(net, union, m=cfg.m,
                             master_seed=cfg.master_seed + 900001)
    cert = RatioCertificate(o=len(net.native_overlap), k=net.num_layers,
                            epsilon=0.0, beta=beta, sigma_hat=spread.mean)
    return spread, cert


def run_reasoner(net: MultiplexNetwork, budget: int,
                 cfg: SolverConfig | None = None) -> Solution:
    """Two-phase solver: knapsack allocation, then shaped re-optimization.

    The first processed layer keeps its allocated greedy seeds verbatim;
    every later layer re-optimizes its allocation under the shaped reward.
    After each layer except the last, a status dataset over the layers
    processed so far is recorded and a tree model fitted from it, so at most
    k - 1 models ever exist.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    t0 = time.perf_counter()
    worlds = CascadeWorlds(net, cfg.m, cfg.master_seed)
    candidates, table, alloc = _phase1(net, budget, cfg, worlds)
    t1 = time.perf_counter()

    state = PhaseState.from_allocation(alloc)
    reward_trace = []
    while True:
        layer = select_next_layer(state)
        if layer is None:
            break
        j = alloc.budget_of(layer)
        if not cfg.phase2 or not state.processed:
            seeds = list(table.rows[layer][min(j, len(table.rows[layer]) - 1)].seeds)
        else:
            ctx = RewardContext(layer, state.models, cfg.clamp)
            picks, rewards = reward_shaped_greedy(
                net, layer, j, candidates[layer], ctx, worlds=worlds)
            if cfg.refine and picks:
                refined = stochastic_refinement(
                    net, layer, j, candidates[layer], ctx, worlds=worlds,
                    temperature=cfg.tau, restarts=cfg.restarts,
                    rng=np.random.default_rng(cfg.master_seed * 104729 + layer),
                    greedy_picks=picks)
                if refined != picks:
                    picks, rewards = refined, None
            seeds = picks
            entry = {"layer": layer, "rewards": rewards}
            if rewards is not None:
                entry["shaped_final"] = shaped_spread(net, layer, seeds, ctx, worlds=worlds)
                entry["shaped_empty"] = shaped_spread(net, layer, [], ctx, worlds=worlds)
            reward_trace.append(entry)
        state.per_layer_seeds[layer] = seeds
        state.processed.append(layer)

        if cfg.phase2 and state.remaining:  # no model after the final layer
            seeds_so_far = sorted(set(itertools.chain.from_iterable(
                state.per_layer_seeds.values())))
            data = record_status_dataset(
                net, seeds_so_far, set(state.processed), m=cfg.m,
                master_seed=cfg.master_seed + 500009 + 17 * len(state.processed))
            corr = pearson_matrix(data)
            partition = variable_grouping(data, corr, cfg.xi)
            tree = None
            if partition.tree_variables():
                tree = chow_liu_fit(data, partition, cfg.alpha)
            state.models.append(ActivationModel(partition, tree, corr, net.num_nodes))
    t2 = time.perf_counter()

    union = sorted(set(itertools.chain.from_iterable(state.per_layer_seeds.values())))
    beta = measure_beta(state.per_layer_seeds, state.processed, net,
                        m=cfg.m, master_seed=cfg.master_seed + 700001)
    spread, cert = _final_certificate(net, union, cfg, beta)
    t3 = time.perf_counter()
    return Solution(
        method=METHOD_REASONER if cfg.phase2 else METHOD_KSN,
        per_layer_seeds=state.per_layer_seeds,
        union_seeds=union,
        processing_order=state.processed,
        spread=spread,
        beta=beta,
        certificate=cert,
        reward_trace=reward_trace,
        models=state.models,
        allocation=alloc,
        profit_table=table,
        wall_times={"phase1": t1 - t0, "phase2": t2 - t1, "evaluate": t3 - t2},
    )


def run_ksn(net: MultiplexNetwork, budget: int,
            cfg: SolverConfig | None = None) -> Solution:
    """Allocation-only baseline: union of the per-layer allocated prefixes."""
    cfg = cfg or SolverConfig()
    ksn_cfg = SolverConfig(**{**cfg.__dict__, "phase2": False})
    sol = run_reasoner(net, budget, ksn_cfg)
    sol.method = METHOD_KSN
    return sol


def run_isf(net: MultiplexNetwork, budget: int,
            cfg: SolverConfig | None = None) -> Solution:
    """Greedy directly on the whole-multiplex spread."""
    cfg = cfg or SolverConfig()
    cfg.validate()
    t0 = time.perf_counter()
    worlds = CascadeWorlds(net, cfg.m, cfg.master_seed)
    picks = celf_greedy(net, None, budget, range(net.num_nodes), worlds=worlds)
    t1 = time.perf_counter()
    spread, cert = _final_certificate(net, picks, cfg, beta=None)
    return Solution(
        method=METHOD_ISF,
        per_layer_seeds={},
        union_seeds=sorted(picks),
        processing_order=[],
        spread=spread,
        beta=None,
        certificate=cert,
        wall_times={"phase1": t1 - t0, "phase2": 0.0,
                    "evaluate": time.perf_counter() - t1},
    )


def run_celf_single(net: MultiplexNetwork, budget: int,
                    cfg: SolverConfig | None = None) -> Solution:
    """Plain greedy confined to one layer (cfg.single_layer)."""
    cfg = cfg or SolverConfig()
    cfg.validate()
    layer = cfg.single_layer
    t0 = time.perf_counter()
    worlds = CascadeWorlds(net, cfg.m, cfg.master_seed)
    members = np.flatnonzero(net.member[layer]).tolist()
    picks = celf_greedy(net, layer, budget, members, worlds=worlds)
    t1 = time.perf_counter()
    spread, cert = _final_certificate(net, picks, cfg, beta=None)
    return Solution(
        method=METHOD_CELF_SINGLE,
        per_layer_seeds={layer: picks},
        union_seeds=sorted(picks),
        processing_order=[layer],
        spread=spread,
        beta=None,
        certificate=cert,
        wall_times={"phase1": t1 - t0, "phase2": 0.0,
                    "evaluate": time.perf_counter() - t1},
    )


def measure_beta(per_layer_seeds: dict[int, list[int]], order: list[int],
                 net: MultiplexNetwork, m: int = 100,
                 master_seed: int = 0) -> float:
    """Fraction of overlap activations that repeat earlier layers' work.

    Replays each processed layer's restricted cascade under shared worlds
    and, from the second layer on, counts how many of its overlap-node
    activations were already activated by the layers before it.  No overlap
    activations at all yields 0 by convention.
    """
    if len(order) < 2:
        return 0.0
    overlap = np.zeros(net.num_nodes, dtype=bool)
    overlap[list(net.native_overlap)] = True
    if not overlap.any():
        return 0.0
    worlds = CascadeWorlds(net, m, master_seed)
    prev = None
    repeated = 0.0
    total = 0.0
    for pos, layer in enumerate(order):
        active = worlds.activated_matrix(per_layer_seeds.get(layer, []),
                                         layers=[layer])
        if pos > 0:
            hits = active & overlap[None, :]
            total += hits.sum()
            repeated += (hits & prev).sum()
        prev = active if prev is None else (prev | active)
    return float(repeated / total) if total > 0 else 0.0


def exhaustive_optimum(net: MultiplexNetwork, budget: int,
                       max_nodes: int = 14, max_subsets: int = 200000):
    """Best exact spread over every seed set of size <= budget (guarded)."""
    n = net.num_nodes
    if n > max_nodes:
        raise GuardError(f"{n} nodes exceed the exhaustive-search guard of {max_nodes}")
    count = sum(math.comb(n, r) for r in range(min(budget, n) + 1))
    if count > max_subsets:
        raise GuardError(f"{count} candidate subsets exceed the guard of {max_subsets}")
    worlds = exact_worlds(net)
    best_val, best_set = 0.0, ()
    for r in range(min(budget, n) + 1):
        for subset in itertools.combinations(range(n), r):
            val = worlds.spread(subset, per_layer=False).mean
            if val > best_val + 1e-12:
                best_val, best_set = val, subset
    return best_val, list(best_set)


def solve(net: MultiplexNetwork, method: str, budget: int,
          cfg: SolverConfig | None = None) -> Solution:
    """Dispatch one of the named solvers."""
    runners = {
        METHOD_REASONER: run_reasoner,
        METHOD_KSN: run_ksn,
        METHOD_ISF: run_isf,
        METHOD_CELF_SINGLE: run_celf_single,
    }
    if method not in runners:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(runners)}")
    return runners[method](net, budget, cfg)
