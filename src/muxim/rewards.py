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
became active; every other world reuses its cached scores.  Each chunk of
a candidate scan keys those rows once per model by their packed flag bytes
and solves its new evidence patterns in one batched message-passing run per
model, memoized for one phase-2 layer in the `RewardContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        rep = np.asarray(partition.rep_of, dtype=np.int64)
        q = corr.values[np.arange(num_nodes), rep]
        self.rep_corr = np.where(np.isnan(q), 1.0, q)
        codes = {GROUP_ALWAYS_ON: 1, GROUP_ALWAYS_OFF: 2}
        kind_of_rep = np.zeros(num_nodes, dtype=np.int8)
        kind_of_rep[partition.representatives] = [codes.get(k, 0) for k in partition.kinds]
        self.kind = kind_of_rep[rep]  # 0 tree, 1 always-on, 2 always-off
        self.tree_nodes = np.array(list(tree.nodes) if tree is not None else [],
                                   dtype=np.int64)
        slot = np.full(num_nodes, -1, dtype=np.int64)
        slot[self.tree_nodes] = np.arange(self.tree_nodes.size)
        self.rep_slot = np.where(self.kind == 0, slot[rep], -1)
        self._fixed = np.where(self.kind == 1, 1.0, 0.0)
        self._tree_cols = np.flatnonzero(self.kind == 0)
        self._tree_slots = self.rep_slot[self._tree_cols]

    def posteriors(self, flags: np.ndarray, memo: dict):
        """Distinct evidence posteriors of (U, q) flag rows and each row's index.

        Each row is keyed once, by its `np.packbits` bytes; patterns missing
        from `memo` are solved once each in one batched message-passing run,
        with activation flags as positive-only evidence.
        """
        packed = np.ascontiguousarray(np.packbits(flags, axis=1))
        slot: dict[bytes, int] = {}
        index = np.array([slot.setdefault(key, len(slot)) for key
                          in packed.view(f"V{packed.shape[1]}").ravel().tolist()],
                         dtype=np.int64)
        keys = list(slot)
        missing = [j for j, key in enumerate(keys) if key not in memo]
        if missing:
            first = np.unique(index, return_index=True)[1][missing]
            conds = self.tree.condition_batch(np.where(flags[first], 1, -1).astype(np.int8))
            memo.update(zip((keys[j] for j in missing), conds))
        return np.stack([memo[key] for key in keys]), index

    def conditionals_matrix(self, active: np.ndarray, memo: dict | None = None,
                            keyed=None) -> np.ndarray:
        """P(representative already active | cascade evidence), per row and node.

        Evidence observes the representatives a row's cascade activated as
        1; unactivated ones stay unobserved rather than negative evidence.
        `keyed` is these rows' `posteriors` if the caller has them; else they
        are keyed here, through `memo` if one is given.
        """
        out = np.broadcast_to(self._fixed, (active.shape[0], self._fixed.size)).copy()
        if self.tree_nodes.size:
            if keyed is None:
                keyed = self.posteriors(active[:, self.tree_nodes],
                                        {} if memo is None else memo)
            post, index = keyed
            out[:, self._tree_cols] = post[index[:, None], self._tree_slots]
        return out


@dataclass
class RewardContext:
    """The phase-2 layer the shaped objective scores, and the layers done before it.

    Every shaped routine runs its cascades restricted to `layer`.  `memos`
    holds each model's solved evidence patterns.  They are made with the
    context and live as long as it does: one phase-2 layer.  `models` is
    copied, so a caller's later appends to its own list keep them aligned.
    """

    layer: int
    models: list[ActivationModel] = field(default_factory=list)
    clamp: str = CLAMP_RAW
    memos: list[dict] = field(init=False, repr=False)

    def __post_init__(self):
        self.models = list(self.models)
        self.memos = [{} for _ in self.models]


def activation_score(u: int, activated, ctx: RewardContext) -> float:
    """Score of one activated node; 0 when no previous layers are modeled."""
    if not ctx.models:
        return 0.0
    if isinstance(activated, np.ndarray):
        row = activated.astype(bool)
    else:
        row = np.zeros(ctx.models[0].rep_corr.size, dtype=bool)
        row[list(activated)] = True
    return float(node_scores(row[None, :], ctx)[0, int(u)])


def node_scores(active: np.ndarray, ctx: RewardContext, keyed=None) -> np.ndarray:
    """(rows, n) score of every node under each row of activation flags.

    Per node, the model with the largest conditional wins (earlier models
    win ties) and contributes its own Pearson weight.  A row's scores depend
    only on its flags at the models' tree variables.  `keyed` holds each
    model's `posteriors` of the rows (None for a model without a tree) when
    the caller has keyed them.
    """
    best = weight = None
    for j, (mdl, memo) in enumerate(zip(ctx.models, ctx.memos)):
        cond = mdl.conditionals_matrix(active, memo, None if keyed is None else keyed[j])
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


def shaped_spread(worlds: CascadeWorlds, seeds, ctx: RewardContext) -> float:
    """Expected shaped spread of a seed set inside the context's layer.

    Cascades run restricted to the layer (interlayer copies are implied by
    identity-level activation); with no fitted models this is exactly the
    layer-restricted spread.
    """
    active = worlds.activated_matrix(seeds, layers=[ctx.layer])
    return float(worlds.expect(shaped_value_rows(active, ctx)))


def step_reward(worlds: CascadeWorlds, seeds, v: int, ctx: RewardContext) -> float:
    """Marginal shaped spread of adding v, under shared simulation worlds."""
    seeds = list(seeds)
    if v in seeds:
        raise ValueError(f"node {v} is already in the seed set")
    return shaped_spread(worlds, seeds + [v], ctx) - shaped_spread(worlds, seeds, ctx)


# float64 rows of n that scoring one engine row holds at once: its score row
# and, while it is re-scored, the running best conditional, that model's
# Pearson weight and one model's conditionals
_SCORE_ROWS = 4
# bytes an engine row's pattern key holds per tree model: a short Python
# bytes object, its list slot and its index among the chunk's distinct
# patterns.  Until its slice is scored, a chunk keeps only that index and
# the distinct patterns' posteriors, at most one per changed row.
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

    def __init__(self, ctx, worlds):
        self.ctx = ctx
        self.worlds = worlds
        self.base = worlds.baseline([], layers=[ctx.layer])
        tree_nodes = [mdl.tree_nodes for mdl in ctx.models if mdl.tree_nodes.size]
        self.tree_vars = np.unique(np.concatenate([np.empty(0, dtype=np.int64)] + tree_nodes))
        self.row_bytes = 3 * self.tree_vars.size + _KEY_BYTES * len(tree_nodes)
        self.step = max(1, propagation.GAIN_CHUNK_BYTES
                        // (8 * _SCORE_ROWS * worlds.net.num_nodes))
        self.flags = self.base.active[:, self.tree_vars]
        self.w = node_scores(self.base.active, ctx)
        self.rows = _values(self.w, self.base.active)

    @property
    def value(self) -> float:
        return float(self.worlds.expect(self.rows))

    def _rescored(self, world, active):
        """(slice, scores) of closed rows `active` extending worlds `world`.

        Rows whose tree-variable flags match their world's keep its scores.
        The others are keyed once per tree model, their new evidence patterns
        solved in one batch per model, and scored in slices whose float
        temporaries fit in GAIN_CHUNK_BYTES.
        """
        changed = np.flatnonzero((active[:, self.tree_vars] != self.flags[world]).any(axis=1))
        keyed = [mdl.posteriors(active[changed[:, None], mdl.tree_nodes], memo)
                 if changed.size and mdl.tree_nodes.size else None
                 for mdl, memo in zip(self.ctx.models, self.ctx.memos)]
        for s in range(0, world.size, self.step):
            part = slice(s, s + self.step)
            w = self.w[world[part]]
            lo, hi = np.searchsorted(changed, (s, s + self.step))
            if hi > lo:
                rows = changed[lo:hi]
                w[rows - s] = node_scores(active[rows], self.ctx, [
                    None if k is None else (k[0], k[1][lo:hi]) for k in keyed])
            yield part, w

    def gains(self, nodes) -> np.ndarray:
        """Shaped gain of each of `nodes`, bit for bit a lone gain's."""
        chunks = []
        for cand, world, active in self.base.scan(nodes, self.row_bytes):
            for part, w in self._rescored(world, active):
                sub, closed = world[part], active[part]
                chunks.append((cand[part], sub, _values(w, closed) - self.rows[sub]))
        return self.base.sum_gains(len(nodes), chunks)

    def gain(self, v: int) -> float:
        return float(self.gains([v])[0])

    def accept(self, v: int) -> None:
        world = np.flatnonzero(~self.base.active[:, v])
        self.base.accept(v)
        active = self.base.active[world]
        for part, w in self._rescored(world, active):
            self.w[world[part]] = w
            self.rows[world[part]] = _values(w, active[part])
        self.flags[world] = active[:, self.tree_vars]


def reward_shaped_greedy(worlds: CascadeWorlds, budget: int, candidates,
                         ctx: RewardContext):
    """Lazy greedy on the context layer's shaped spread; stops at no positive gain.

    With no fitted models the shaped spread degenerates to the plain
    layer-restricted spread, and under the same worlds this selects exactly
    the nodes plain greedy would.  Returns (picks, per-step rewards).
    """
    nodes = list(candidates)
    if budget <= 0 or not nodes:
        return [], []
    return lazy_greedy(nodes, budget, _ShapedObjective(ctx, worlds),
                       stop_nonpositive=True)


def stochastic_refinement(worlds: CascadeWorlds, budget: int, candidates,
                          ctx: RewardContext, greedy_picks,
                          temperature: float = 0.1, restarts: int = 8,
                          rng: np.random.Generator | int = 0) -> list[int]:
    """Softmax-sampled rollouts around the greedy pick; best shaped set wins.

    `greedy_picks` are the `reward_shaped_greedy` picks for the same
    arguments.  They always ride along as rollout 0, so the result is never
    worse than greedy under the shared worlds; as temperature tends to zero
    the sampler degenerates to greedy itself.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if restarts < 1:
        raise ValueError("need at least one rollout")
    nodes = list(candidates)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    # each rollout is scored by the objective that built it; greedy is replayed
    obj = _ShapedObjective(ctx, worlds)
    for v in greedy_picks:
        obj.accept(v)
    best, best_value = list(greedy_picks), obj.value
    for _ in range(restarts - 1):
        obj = _ShapedObjective(ctx, worlds)
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
        if obj.value > best_value:  # ties go to the earliest rollout (greedy)
            best, best_value = picks, obj.value
    return best
