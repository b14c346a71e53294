"""Per-layer seed selection and the profit-cost table.

CELF lazy greedy drives the per-layer optimization; a probabilistic greedy
scorer replaces a learned candidate ranker by estimating how often a node
earns marginal gain across randomized greedy restarts.  `lazy_greedy` is the
one CELF loop of the package: per-layer and whole-multiplex greedy run it on
a cascade baseline, shaped greedy on the shaped objective.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .network import MultiplexNetwork
from .propagation import CascadeWorlds


@dataclass
class CandidateSet:
    """Candidate nodes sorted by descending score (ties broken by lower id)."""

    nodes: list[int]
    scores: list[float]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class ProfitRow:
    cost: int
    profit: float
    seeds: tuple[int, ...]


@dataclass
class ProfitCostTable:
    """Per layer: greedy seed prefixes with their whole-network spread."""

    rows: list[list[ProfitRow]]

    @property
    def num_layers(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,budget,cost,profit,seeds\n")
            for i, layer_rows in enumerate(self.rows):
                for j, row in enumerate(layer_rows):
                    joined = ";".join(str(v) for v in row.seeds)
                    fh.write(f"{i},{j},{row.cost},{row.profit!r},{joined}\n")


def lazy_greedy(nodes, budget: int, objective, stop_nonpositive: bool = False):
    """CELF (Leskovec et al., KDD 2007) over a marginal-gain objective.

    `objective.gains(nodes)` fills a max-heap of gains; the top entry is
    re-evaluated with `objective.gain(v)` when stale and accepted with
    `objective.accept(v)` once it is fresh and still on top.  With a
    submodular objective this reproduces naive greedy exactly; ties fall to
    the lower node id.  `stop_nonpositive` ends the loop at the first fresh
    top gain <= 0.  Returns (picks, gains) in selection order.
    """
    heap = [(-float(g), v, 0) for g, v in zip(objective.gains(nodes), nodes)]
    heapq.heapify(heap)
    picks: list[int] = []
    gains: list[float] = []
    while heap and len(picks) < budget:
        neg_gain, v, when = heapq.heappop(heap)
        if when == len(picks):  # fresh and on top of the heap: it is the argmax
            if stop_nonpositive and -neg_gain <= 0.0:
                break
            picks.append(v)
            gains.append(-neg_gain)
            objective.accept(v)
        else:
            heapq.heappush(heap, (-objective.gain(v), v, len(picks)))
    return picks, gains


def celf_greedy(net: MultiplexNetwork, layer: int | None, budget: int, candidates,
                worlds: CascadeWorlds | None = None, m: int = 100,
                master_seed: int = 0) -> list[int]:
    """Lazy greedy seed selection on the layer-restricted spread.

    `layer=None` selects on the whole-multiplex spread instead.  All
    evaluations share one set of pre-sampled worlds, so with a submodular
    spread the picks are exactly naive greedy's.  Returns the picks in
    selection order (every prefix is a greedy solution).
    """
    nodes = candidates.nodes if isinstance(candidates, CandidateSet) else list(candidates)
    if budget > net.num_nodes:
        warnings.warn(f"budget {budget} exceeds the node universe; clamping")
    budget = min(budget, len(nodes))
    if budget <= 0:
        return []
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    base = worlds.baseline([], layers=None if layer is None else [layer])
    return lazy_greedy(nodes, budget, base)[0]


def probabilistic_greedy(net: MultiplexNetwork, layer: int, budget: int,
                         restarts: int, convergence: float = 0.0,
                         rng: np.random.Generator | int = 0,
                         worlds: CascadeWorlds | None = None,
                         m: int = 20, master_seed: int = 0) -> list[list[int]]:
    """Randomized greedy restarts: pick nodes with probability ~ marginal gain.

    Each run grows a seed set until the best gain drops to `convergence`,
    the sampled node's own gain does, or the budget is reached.  A run with
    no positive gain available stops immediately (possibly empty).
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if convergence < 0:
        raise ValueError("convergence threshold must be nonnegative")
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    members = np.flatnonzero(net.member[layer]).tolist()
    runs = []
    for _ in range(restarts):
        base = worlds.baseline([], layers=[layer])
        run: list[int] = []
        while len(run) < budget:
            cands = [v for v in members if v not in run]
            gains = base.gains(cands)
            positive = gains > 0
            if not positive.any():
                break
            if gains.max() <= convergence:
                break
            p = np.where(positive, gains, 0.0)
            v = cands[int(rng.choice(len(cands), p=p / p.sum()))]
            picked_gain = gains[cands.index(v)]
            base.accept(v)
            run.append(v)
            if picked_gain <= convergence:
                break
        runs.append(run)
    return runs


def candidate_scores(runs: list[list[int]], net: MultiplexNetwork, layer: int,
                     worlds: CascadeWorlds | None = None, m: int = 100,
                     master_seed: int = 0) -> CandidateSet:
    """Score every node picked by the randomized runs.

    A node's score is its summed prefix marginal gain across runs divided by
    the summed spread of the runs, so scores live in [0, 1] and the prefix
    marginals of a single run telescope to that run's spread.
    """
    if not any(runs):
        raise ValueError("all runs are empty; nothing to score")
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    contrib: dict[int, float] = {}
    denom = 0.0
    for run in runs:
        base = worlds.baseline([], layers=[layer])
        prev = 0.0
        for v in run:
            base.accept(v)
            cur = base.mean_count()
            contrib[v] = contrib.get(v, 0.0) + (cur - prev)
            prev = cur
        denom += prev
    if denom <= 0:
        raise ValueError("runs have zero total spread; cannot normalize scores")
    items = sorted(contrib.items(), key=lambda kv: (-kv[1] / denom, kv[0]))
    return CandidateSet([v for v, _ in items], [w / denom for _, w in items])


def select_candidates(scored: CandidateSet | None, net: MultiplexNetwork,
                      layer: int, gamma: float = 0.25) -> CandidateSet:
    """Prune the layer's members down to the top gamma fraction by score.

    Nodes untouched by any randomized run score 0 and fill the remaining
    slots in id order; every scored node is always kept.  gamma >= 1
    disables pruning.
    """
    members = np.flatnonzero(net.member[layer]).tolist()
    score_of = {}
    if scored is not None:
        score_of = dict(zip(scored.nodes, scored.scores))
    ranked = sorted(members, key=lambda v: (-score_of.get(v, 0.0), v))
    if gamma >= 1.0:
        keep = len(ranked)
    else:
        keep = max(int(np.ceil(gamma * len(ranked))), len(score_of))
    kept = ranked[:keep]
    return CandidateSet(kept, [score_of.get(v, 0.0) for v in kept])


def build_profit_cost_table(net: MultiplexNetwork, candidates_per_layer,
                            budget: int, worlds: CascadeWorlds | None = None,
                            m: int = 100, master_seed: int = 0) -> ProfitCostTable:
    """Run greedy per layer and price every prefix at whole-network spread.

    Profits are evaluated on the full multiplex with shared worlds, which
    makes each layer's profit column exactly monotone.
    """
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    rows = []
    for i in range(net.num_layers):
        picks = celf_greedy(net, i, budget, candidates_per_layer[i], worlds=worlds)
        # a layer with fewer candidates than the budget yields a shorter class
        layer_rows = [ProfitRow(0, 0.0, ())]
        base = worlds.baseline([], layers=None)
        for j, v in enumerate(picks, start=1):
            base.accept(v)
            layer_rows.append(ProfitRow(j, base.mean_count(), tuple(picks[:j])))
        rows.append(layer_rows)
    return ProfitCostTable(rows)
