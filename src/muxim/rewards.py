"""Reward shaping that discounts nodes other layers already reach.

A fitted activation model per previously processed layer scores every node
u by (Pearson correlation of u with its group representative) times the
model's conditional probability that the representative is already active
given which representatives the current cascade activated.  The shaped
spread counts each activated node as 1 minus that score, so seed sets that
merely re-activate well-covered nodes earn little.

Shaped greedy keeps each world's current node scores.  Scores depend on a
world only through which tree variables are active, so a candidate's
extended world re-runs the models' conditionals only when one of them
became active; every other world reuses its cached scores.  A candidate
scan is one chunked `_Baseline.scan` over (candidate, world) rows, and
evidence patterns are memoized by their packed flag bytes, each new one
solved once in a batched message-passing run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import MultiplexNetwork
from .pgm import (GROUP_ALWAYS_OFF, GROUP_ALWAYS_ON, ChowLiuTree,
                  CorrelationMatrix, GroupPartition)
from . import propagation
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
        self._fixed = np.where(self.kind == 1, 1.0, 0.0)
        self._tree_cols = np.flatnonzero(self.kind == 0)
        self._tree_slots = self.rep_slot[self._tree_cols]
        self._memo: dict[bytes, np.ndarray] = {}

    def _patterns(self, flags: np.ndarray):
        """Distinct evidence patterns of (U, q) flags and each row's index.

        A pattern's key is its `np.packbits` bytes.  Patterns missing from
        the memo are solved, once each, in one batched message-passing run;
        activation flags are positive-only evidence.
        """
        packed = np.ascontiguousarray(np.packbits(flags, axis=1))
        slot: dict[bytes, int] = {}
        inverse = np.array([slot.setdefault(key, len(slot)) for key
                            in packed.view(f"V{packed.shape[1]}").ravel().tolist()])
        uniq = list(slot)
        missing = [j for j, key in enumerate(uniq) if key not in self._memo]
        if missing:
            first = np.unique(inverse, return_index=True)[1][missing]
            conds = self.tree.condition_batch(np.where(flags[first], 1, -1).astype(np.int8))
            self._memo.update(zip((uniq[j] for j in missing), conds))
        return uniq, inverse

    def conditionals_matrix(self, active: np.ndarray) -> np.ndarray:
        """P(representative already active | cascade evidence), per world and node.

        Evidence observes the representatives a world's cascade activated as
        1; unactivated representatives stay unobserved rather than being
        read as negative evidence.  Worlds sharing an evidence pattern share
        one message-passing run.
        """
        out = np.broadcast_to(self._fixed, (active.shape[0], self._fixed.size)).copy()
        if self.tree is not None and self.tree_nodes.size:
            uniq, inverse = self._patterns(active[:, self.tree_nodes])
            conds = np.stack([self._memo[key] for key in uniq])[inverse]
            out[:, self._tree_cols] = conds[:, self._tree_slots]
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
    """Vectorized scores for the given nodes under one cascade outcome."""
    return node_scores(active_row[None, :], ctx)[0, node_idx]


def node_scores(active: np.ndarray, ctx: RewardContext) -> np.ndarray:
    """(rows, n) score of every node under each row of activation flags.

    Per node, the model with the largest conditional wins (earlier models
    win ties) and contributes its own Pearson weight.  A row's scores depend
    only on its flags at the models' tree variables.
    """
    best = weight = None
    for mdl in ctx.models:
        cond = mdl.conditionals_matrix(active)
        if best is None:
            best, weight = cond, np.broadcast_to(mdl.rep_corr, cond.shape).copy()
        else:
            better = cond > best
            np.copyto(best, cond, where=better)
            np.copyto(weight, mdl.rep_corr, where=better)
    if best is None:
        return np.zeros(active.shape)
    w = np.multiply(weight, best, out=best)
    if ctx.clamp == CLAMP_01:
        np.clip(w, 0.0, 1.0, out=w)
    return w


def _values(w: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per-row shaped spread from scores: sum of 1 - score over activated nodes."""
    return active.sum(axis=1) - (w * active).sum(axis=1)


def shaped_value_rows(active: np.ndarray, ctx: RewardContext) -> np.ndarray:
    """Per-world shaped spread: sum of 1 - score over activated nodes."""
    return _values(node_scores(active, ctx), active)


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


# float64 rows of n that scoring one engine row holds at once: its score row
# and, while it is re-scored, the running best conditional, that model's
# Pearson weight and one model's conditionals
_SCORE_ROWS = 4
# bytes an engine row's pattern key holds per tree model: a short Python
# bytes object, its list slot and its index among the distinct patterns.
# Besides its state, a row of the shaped scan also holds one byte per tree
# variable thrice: its flags, its world's and their comparison.
_KEY_BYTES = 64


class _ShapedObjective:
    """Shaped-value evaluation over a frozen world batch, with cached scores.

    `w` holds every baseline world's node scores and `flags` its activation
    flags at the models' tree variables.  An extended world whose flags
    there are unchanged keeps its world's scores; only the others run the
    models' conditionals.
    """

    def __init__(self, layer, ctx, worlds):
        self.ctx = ctx
        self.m = worlds.m
        self.weights = worlds.weights
        self.base = worlds.baseline([], layers=[layer])
        self.tree_models = [mdl for mdl in ctx.models
                            if mdl.tree is not None and mdl.tree_nodes.size]
        self.tree_vars = np.unique(np.concatenate(
            [np.empty(0, dtype=np.int64)] + [mdl.tree_nodes for mdl in self.tree_models]))
        self.row_bytes = 3 * self.tree_vars.size + _KEY_BYTES * len(self.tree_models)
        self.step = max(1, propagation.GAIN_CHUNK_BYTES
                        // (8 * _SCORE_ROWS * worlds.net.num_nodes))
        self.flags = self.base.active[:, self.tree_vars]
        self.w = node_scores(self.base.active, ctx)
        self.rows = _values(self.w, self.base.active)

    @property
    def value(self) -> float:
        if self.weights is not None:
            return float(self.rows @ self.weights)
        return float(self.rows.mean())

    def _changed(self, world, active):
        """Rows whose tree-variable flags differ from their baseline world's."""
        return np.flatnonzero((active[:, self.tree_vars] != self.flags[world]).any(axis=1))

    def _scores(self, world, active):
        """Scores of closed rows that extend the baseline worlds `world`."""
        w = self.w[world]
        changed = self._changed(world, active)
        if changed.size:
            w[changed] = node_scores(active[changed], self.ctx)
        return w

    def gains(self, nodes) -> np.ndarray:
        """Shaped gain of each of `nodes`, bit for bit a lone gain's.

        Each engine chunk of the scan first solves its new evidence
        patterns, one batch per model; its rows are then scored in slices
        whose float temporaries fit in GAIN_CHUNK_BYTES.
        """
        chunks = []
        for cand, world, active in self.base.scan(nodes, self.row_bytes):
            changed = self._changed(world, active)
            for mdl in self.tree_models:
                mdl._patterns(active[:, mdl.tree_nodes][changed])
            for s in range(0, world.size, self.step):
                sub, closed = world[s:s + self.step], active[s:s + self.step]
                delta = _values(self._scores(sub, closed), closed) - self.rows[sub]
                chunks.append((cand[s:s + self.step], sub, delta))
        return self.base.sum_gains(len(nodes), chunks)

    def gain(self, v: int) -> float:
        return float(self.gains([v])[0])

    def accept(self, v: int) -> None:
        world = np.flatnonzero(~self.base.active[:, v])
        self.base.accept(v)
        if world.size:
            active = self.base.active[world]
            w = self._scores(world, active)
            self.w[world] = w
            self.flags[world] = active[:, self.tree_vars]
            self.rows[world] = _values(w, active)


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
                          m: int = 100, master_seed: int = 0,
                          greedy_picks=None) -> list[int]:
    """Softmax-sampled rollouts around the greedy pick; best shaped set wins.

    The greedy solution always rides along as rollout 0, so the result is
    never worse than greedy under the shared worlds; as temperature tends to
    zero the sampler degenerates to greedy itself.  `greedy_picks` passes in
    the caller's `reward_shaped_greedy` picks for the same arguments instead
    of recomputing them.
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

    if greedy_picks is None:
        greedy_picks, _ = reward_shaped_greedy(net, layer, budget, nodes, ctx,
                                               worlds=worlds)
    rollouts = [list(greedy_picks)]
    for _ in range(restarts - 1):
        obj = _ShapedObjective(layer, ctx, worlds)
        picks: list[int] = []
        while len(picks) < budget:
            remaining = [v for v in nodes if v not in picks]
            if not remaining:
                break
            gains = obj.gains(remaining)
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
