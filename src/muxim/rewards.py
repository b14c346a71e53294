"""Reward shaping that discounts nodes other layers already reach.

A fitted activation model per previously processed layer scores every node
u by (Pearson correlation of u with its group representative) times the
model's conditional probability that the representative is already active
given which representatives the current cascade activated.  The shaped
spread counts each activated node as 1 minus that score, so seed sets that
merely re-activate well-covered nodes earn little.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import MultiplexNetwork
from .pgm import (GROUP_ALWAYS_OFF, GROUP_ALWAYS_ON, ChowLiuTree,
                  CorrelationMatrix, GroupPartition)
from .propagation import CascadeWorlds
from .seeding import lazy_greedy

CLAMP_RAW = "raw"
CLAMP_01 = "clamp01"


class ActivationModel:
    """One processed layer's grouped, tree-structured activation posterior."""

    def __init__(self, partition: GroupPartition, tree: ChowLiuTree | None,
                 corr: CorrelationMatrix, num_nodes: int):
        self.partition = partition
        self.tree = tree
        n = num_nodes
        self.rep_corr = np.ones(n)
        kind_by_rep = dict(zip(partition.representatives, partition.kinds))
        self.kind = np.zeros(n, dtype=np.int8)  # 0 tree, 1 always-on, 2 always-off
        tree_nodes = list(tree.nodes) if tree is not None else []
        slot = {v: i for i, v in enumerate(tree_nodes)}
        self.tree_nodes = np.array(tree_nodes, dtype=np.int64)
        self.rep_slot = np.full(n, -1, dtype=np.int64)
        for u in range(n):
            rep = int(partition.rep_of[u])
            q = corr.values[u, rep]
            self.rep_corr[u] = 1.0 if np.isnan(q) else float(q)
            kind = kind_by_rep[rep]
            if kind == GROUP_ALWAYS_ON:
                self.kind[u] = 1
            elif kind == GROUP_ALWAYS_OFF:
                self.kind[u] = 2
            else:
                self.kind[u] = 0
                self.rep_slot[u] = slot[rep]
        self._memo: dict[bytes, np.ndarray] = {}

    def _tree_cond_rows(self, flags: np.ndarray) -> np.ndarray:
        """Posterior rows for (U, q) activation flags; memoized per pattern.

        Patterns missing from the memo are resolved in one batched
        message-passing run; activation flags are positive-only evidence.
        """
        keys = [row.tobytes() for row in flags]
        missing = [i for i, key in enumerate(keys) if key not in self._memo]
        if missing:
            ev = np.where(flags[missing], 1, -1).astype(np.int8)
            conds = self.tree.condition_batch(ev)
            for row, i in enumerate(missing):
                self._memo[keys[i]] = conds[row]
        return np.stack([self._memo[key] for key in keys])

    def conditionals(self, active_row: np.ndarray) -> np.ndarray:
        """P(representative already active | cascade evidence), per node.

        Evidence observes the representatives this cascade activated as 1;
        unactivated representatives stay unobserved rather than being read
        as negative evidence.
        """
        return self.conditionals_matrix(active_row[None, :])[0]

    def conditionals_matrix(self, active: np.ndarray) -> np.ndarray:
        """Batch form of `conditionals`: one row per world.

        Worlds sharing an evidence pattern share one message-passing run.
        """
        m = active.shape[0]
        out = np.broadcast_to(np.where(self.kind == 1, 1.0, 0.0),
                              (m, self.kind.size)).copy()
        if self.tree is not None and self.tree_nodes.size:
            flags = np.ascontiguousarray(active[:, self.tree_nodes])
            keys = flags.view([("", flags.dtype)] * flags.shape[1]).ravel()
            uniq, first, inverse = np.unique(keys, return_index=True,
                                             return_inverse=True)
            conds = self._tree_cond_rows(flags[first])
            mask = self.kind == 0
            out[:, mask] = conds[inverse][:, self.rep_slot[mask]]
        return out


@dataclass
class RewardContext:
    """Everything the shaped objective needs about previously done layers."""

    layer: int
    models: list[ActivationModel] = field(default_factory=list)
    clamp: str = CLAMP_RAW


def activation_score(u: int, activated, ctx: RewardContext) -> float:
    """Score of one activated node; 0 when no previous layers are modeled."""
    if not ctx.models:
        return 0.0
    if isinstance(activated, np.ndarray):
        row = activated.astype(bool)
    else:
        row = np.zeros(ctx.models[0].rep_corr.size, dtype=bool)
        row[list(activated)] = True
    return float(activation_scores(row, np.array([int(u)]), ctx)[0])


def activation_scores(active_row: np.ndarray, node_idx: np.ndarray,
                      ctx: RewardContext) -> np.ndarray:
    """Vectorized scores for the given nodes under one cascade outcome.

    The model with the largest conditional wins (earlier layers break ties)
    and contributes its own Pearson weight.
    """
    if not ctx.models or node_idx.size == 0:
        return np.zeros(node_idx.size)
    conds = np.stack([mdl.conditionals(active_row)[node_idx] for mdl in ctx.models])
    corrs = np.stack([mdl.rep_corr[node_idx] for mdl in ctx.models])
    best = np.argmax(conds, axis=0)
    cols = np.arange(node_idx.size)
    w = corrs[best, cols] * conds[best, cols]
    if ctx.clamp == CLAMP_01:
        w = np.clip(w, 0.0, 1.0)
    return w


def shaped_value_rows(active: np.ndarray, ctx: RewardContext) -> np.ndarray:
    """Per-world shaped spread: sum of 1 - score over activated nodes."""
    counts = active.sum(axis=1).astype(float)
    if not ctx.models:
        return counts
    stacked = np.stack([mdl.conditionals_matrix(active) for mdl in ctx.models])
    best = stacked.argmax(axis=0)  # earlier models win ties
    cond = np.take_along_axis(stacked, best[None], axis=0)[0]
    corrs = np.stack([mdl.rep_corr for mdl in ctx.models])
    n = active.shape[1]
    w = corrs[best, np.arange(n)[None, :]] * cond
    if ctx.clamp == CLAMP_01:
        w = np.clip(w, 0.0, 1.0)
    return counts - (w * active).sum(axis=1)


def shaped_spread(net: MultiplexNetwork, layer: int, seeds, ctx: RewardContext,
                  worlds: CascadeWorlds | None = None, m: int = 100,
                  master_seed: int = 0) -> float:
    """Expected shaped spread of a seed set inside one layer.

    Cascades run restricted to the layer (interlayer copies are implied by
    identity-level activation); with no fitted models this is exactly the
    layer-restricted spread.
    """
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    active = worlds.activated_matrix(seeds, layers=[layer])
    vals = shaped_value_rows(active, ctx)
    if worlds.weights is not None:
        return float(vals @ worlds.weights)
    return float(vals.mean())


def step_reward(net: MultiplexNetwork, layer: int, seeds, v: int,
                ctx: RewardContext, worlds: CascadeWorlds | None = None,
                m: int = 100, master_seed: int = 0) -> float:
    """Marginal shaped spread of adding v, under shared simulation worlds."""
    seeds = list(seeds)
    if v in seeds:
        raise ValueError(f"node {v} is already in the seed set")
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    before = shaped_spread(net, layer, seeds, ctx, worlds=worlds)
    after = shaped_spread(net, layer, seeds + [v], ctx, worlds=worlds)
    return after - before


class _ShapedObjective:
    """Incremental shaped-value evaluation over a frozen world batch."""

    def __init__(self, layer, ctx, worlds):
        self.ctx = ctx
        self.layer = layer
        self.m = worlds.m
        self.weights = worlds.weights
        self.base = worlds.baseline([], layers=[layer])
        self.rows = shaped_value_rows(self.base.active, ctx)

    @property
    def value(self) -> float:
        if self.weights is not None:
            return float(self.rows @ self.weights)
        return float(self.rows.mean())

    def gain(self, v: int) -> float:
        rows, sub, _ = self.base.extend_rows(v)
        if rows.size == 0:
            return 0.0
        delta = shaped_value_rows(sub, self.ctx) - self.rows[rows]
        if self.weights is not None:
            return float(delta @ self.weights[rows])
        return float(delta.sum() / self.m)

    def gains(self, nodes) -> list[float]:
        return [self.gain(v) for v in nodes]

    def accept(self, v: int) -> None:
        rows = np.flatnonzero(~self.base.active[:, v])
        self.base.accept(v)
        if rows.size:
            self.rows[rows] = shaped_value_rows(self.base.active[rows], self.ctx)


def reward_shaped_greedy(net: MultiplexNetwork, layer: int, budget: int,
                         candidates, ctx: RewardContext,
                         worlds: CascadeWorlds | None = None, m: int = 100,
                         master_seed: int = 0):
    """Lazy greedy on the shaped spread; stops early once no gain is positive.

    With no fitted models the shaped spread degenerates to the plain
    layer-restricted spread, and under the same worlds this selects exactly
    the nodes plain greedy would.  Returns (picks, per-step rewards).
    """
    nodes = list(getattr(candidates, "nodes", candidates))
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    if budget <= 0 or not nodes:
        return [], []
    return lazy_greedy(nodes, budget, _ShapedObjective(layer, ctx, worlds),
                       stop_nonpositive=True)


def stochastic_refinement(net: MultiplexNetwork, layer: int, budget: int,
                          candidates, ctx: RewardContext,
                          worlds: CascadeWorlds | None = None,
                          temperature: float = 0.1, restarts: int = 8,
                          rng: np.random.Generator | int = 0,
                          m: int = 100, master_seed: int = 0) -> list[int]:
    """Softmax-sampled rollouts around the greedy pick; best shaped set wins.

    The greedy solution always rides along as rollout 0, so the result is
    never worse than greedy under the shared worlds; as temperature tends to
    zero the sampler degenerates to greedy itself.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if restarts < 1:
        raise ValueError("need at least one rollout")
    nodes = list(getattr(candidates, "nodes", candidates))
    if worlds is None:
        worlds = CascadeWorlds(net, m, master_seed)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    greedy_picks, _ = reward_shaped_greedy(net, layer, budget, nodes, ctx, worlds=worlds)
    rollouts = [greedy_picks]
    for _ in range(restarts - 1):
        obj = _ShapedObjective(layer, ctx, worlds)
        picks: list[int] = []
        while len(picks) < budget:
            remaining = [v for v in nodes if v not in picks]
            if not remaining:
                break
            gains = np.array([obj.gain(v) for v in remaining])
            if gains.max() <= 0.0:
                break
            if temperature < 1e-9:
                v = remaining[int(np.lexsort((remaining, -gains))[0])]
            else:
                logits = (gains - gains.max()) / temperature
                p = np.exp(logits)
                v = remaining[int(rng.choice(len(remaining), p=p / p.sum()))]
            obj.accept(v)
            picks.append(v)
        rollouts.append(picks)

    def final_value(picks):
        obj = _ShapedObjective(layer, ctx, worlds)
        for v in picks:
            obj.accept(v)
        return obj.value

    values = [final_value(p) for p in rollouts]
    best = int(np.argmax(values))  # ties go to the earliest rollout (greedy)
    return rollouts[best]
