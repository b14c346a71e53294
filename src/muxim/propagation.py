"""Cascade simulation on multiplex networks.

The engine runs synchronous rounds: within a round each layer propagates
independently (IC edges fire once from newly active sources, LT nodes
activate when their active in-weight reaches the threshold), and between
rounds newly activated identities are copied to every layer they belong to.
All randomness is pre-sampled per simulation from a counter-based Philox
stream keyed by the master seed, so results are reproducible regardless of
execution order and many simulations can run as one batch.

A batch holds one boolean state row per simulation, but a round touches only
its frontier, a flat array of `row * n + node` keys.  IC layers expand it
through a per-world CSR of the live out-edges, a fixed live-edge snapshot as
in StaticGreedy (Cheng et al., CIKM 2013) and PMC (Ohsaka et al., AAAI 2014);
LT layers expand it through a per-layer source CSR and add the in-weight per
key; keys already active are dropped.  Work thus follows the edges leaving
newly activated nodes.  Rows need not be distinct worlds: `_Baseline.scan`
closes one row per (candidate, world) pair, so a whole candidate scan costs a
few engine calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import IC, LT, LT_THRESHOLD_RANGE, MultiplexNetwork

# Guards of the exact oracles: IC edges in a live-edge enumeration's scope,
# identities and candidate subsets of exhaustive seed search, and choice
# vectors of the knapsack brute force.
EXACT_IC_EDGE_GUARD = 16
EXHAUSTIVE_NODE_GUARD = 14
EXHAUSTIVE_SUBSET_GUARD = 200000
MCKP_COMBO_GUARD = 10 ** 6


class GuardError(RuntimeError):
    """An exact-enumeration guard was exceeded; fall back to Monte Carlo."""


@dataclass
class CascadeTrace:
    """Outcome of one simulation at identity level plus per-layer views."""

    activated: set[int]
    per_layer_activated: list[set[int]]
    activation_round: dict[int, int]

    def to_json(self) -> str:
        import json
        return json.dumps({
            "activated": sorted(self.activated),
            "per_layer_activated": [sorted(s) for s in self.per_layer_activated],
            "activation_round": {str(v): r for v, r
                                 in sorted(self.activation_round.items())},
        }, sort_keys=True)


@dataclass
class SpreadEstimate:
    """Monte Carlo spread: mean activated identities over num_sims runs."""

    mean: float
    stderr: float
    num_sims: int
    per_layer_mean: np.ndarray | None = None


@dataclass
class StatusDataset:
    """Binary activation matrix: one row per simulation, one column per node."""

    rows: np.ndarray
    seed_context: tuple[int, ...]
    layer_context: frozenset[int]

    @property
    def num_sims(self) -> int:
        return int(self.rows.shape[0])

    def to_csv(self, path) -> None:
        n = self.rows.shape[1]
        header = ",".join(f"node_{i}" for i in range(n))
        np.savetxt(path, self.rows, fmt="%d", delimiter=",", header=header, comments="")


# Byte budget of the baseline state _Baseline.scan copies per engine call:
# n active flags plus n float64 in-weights per LT layer for each (candidate,
# world) row.  The frontier arrays grow with the rows too, so the budget
# bounds a call's memory; larger chunks run faster but raise peak memory.
GAIN_CHUNK_BYTES = 1 << 19


def _expand(indptr, at):
    """Concatenated CSR rows `at`: (index into `at`, CSR entry) per edge."""
    start = indptr[at]
    cnt = indptr[at + 1] - start
    slot = np.arange(at.size).repeat(cnt)
    return slot, (start - cnt.cumsum() + cnt)[slot] + np.arange(slot.size)


def _layer_scope(net, layers):
    """Sorted distinct layer ids, all for None; ValueError outside `net`."""
    if layers is None:
        return list(range(net.num_layers))
    idx = sorted(set(int(i) for i in layers))
    for i in idx:
        if not (0 <= i < net.num_layers):
            raise ValueError(f"layer {i} out of range")
    return idx


class CascadeWorlds:
    """A frozen batch of Monte Carlo worlds sharing one network.

    World w pre-samples every IC edge coin and, for LT layers without fixed
    thresholds, a per-node threshold.  Spread evaluations against the same
    CascadeWorlds therefore share randomness: the estimated spread is a
    deterministic, monotone set function of the seeds, which keeps greedy
    routines stable and makes paired comparisons exact.
    """

    def __init__(self, net: MultiplexNetwork, num_worlds: int, master_seed: int,
                 record_rounds: bool = False):
        self.net = net
        self.m = int(num_worlds)
        self.master_seed = int(master_seed)
        self.record_rounds = record_rounds
        self.weights = None  # uniform; exact enumerations set world probabilities
        n = net.num_nodes
        rng = np.random.Generator(np.random.Philox(key=self.master_seed % (2 ** 64)))
        self._live: dict[int, np.ndarray] = {}  # (m, E) in the layer's edge order
        self._theta: dict[int, np.ndarray] = {}
        self._adj: dict[tuple, tuple] = {}  # per layer scope, see _adjacency
        for i, layer in enumerate(net.layers):
            if layer.model == IC:
                if layer.num_edges:
                    coins = rng.random((self.m, layer.num_edges))
                    self._live[i] = coins < layer.probs[None, :]
            elif layer.thresholds is not None:
                self._theta[i] = layer.thresholds[None, :]
            else:
                lo, hi = LT_THRESHOLD_RANGE
                self._theta[i] = lo + (hi - lo) * rng.random((self.m, n))

    @classmethod
    def from_live_matrix(cls, net, live_by_layer, num_worlds, weights=None):
        """Internal constructor for exact enumeration over explicit worlds."""
        obj = cls.__new__(cls)
        obj.net = net
        obj.m = num_worlds
        obj.master_seed = -1
        obj.record_rounds = False
        obj.weights = weights
        obj._live = {i: live_by_layer[i] for i, layer in enumerate(net.layers)
                     if layer.model == IC and layer.num_edges and i in live_by_layer}
        obj._theta = {i: layer.thresholds[None, :] for i, layer in enumerate(net.layers)
                      if layer.model == LT and layer.thresholds is not None}
        obj._adj = {}
        return obj

    # -- core closure ------------------------------------------------------

    def _adjacency(self, scope):
        """Out-edge CSRs of a layer scope as (ic, lt), built on first use.

        `ic` merges the scope's IC layers, since their hits are identity
        level: one CSR row per (world, source) key `w * n + src` holding
        that world's live out-edges, a fixed live-edge snapshot, so
        expansion costs work only along live edges.  It is None without IC
        edges.  `lt` holds one (layer, indptr, dst, weight, theta - 1e-12)
        per LT layer, with one CSR row per source.
        """
        adj = self._adj.get(scope)
        if adj is None:
            n = self.net.num_nodes
            keys, dsts, lt = [], [], []
            for i in scope:
                layer = self.net.layers[i]
                src, dst = layer.edges[:, 0], layer.edges[:, 1]
                if layer.model == LT:
                    order = np.argsort(src, kind="stable")
                    lt.append((i, np.searchsorted(src[order], np.arange(n + 1)),
                               dst[order], layer.weights[order], self._theta[i] - 1e-12))
                elif layer.num_edges:
                    world, e = np.nonzero(self._live[i])
                    keys.append(world * n + src[e])
                    dsts.append(dst[e])
            ic = None
            if keys:
                keys = np.concatenate(keys)
                indptr = np.zeros(self.m * n + 1, dtype=np.int64)
                np.cumsum(np.bincount(keys, minlength=self.m * n), out=indptr[1:])
                ic = (indptr, np.concatenate(dsts)[np.argsort(keys, kind="stable")])
            adj = self._adj[scope] = (ic, lt)
        return adj

    def run(self, seeds, layers=None, active=None, acc=None, rows=None,
            frontier=None):
        """Propagate to a fixpoint; returns (active, acc, rounds|None).

        State row j simulates world `rows[j]` (default: row j is world j;
        a world may repeat).  `active`/`acc` give a pre-existing closed state
        to extend, updated in place when C-contiguous; `seeds` are activated
        on top of it in every row.  `frontier` replaces `seeds` with flat
        `row * n + node` start keys, so rows can start from different nodes;
        those nodes must be inactive.
        """
        scope = _layer_scope(self.net, layers)
        n = self.net.num_nodes
        world = np.arange(self.m) if rows is None else np.asarray(rows, dtype=np.int64)
        nrows = world.size
        if active is None:
            active = np.zeros((nrows, n), dtype=bool)
            acc = {i: np.zeros((nrows, n)) for i in scope
                   if self.net.layers[i].model == LT}
        active = np.ascontiguousarray(active)
        acc = {i: np.ascontiguousarray(a) for i, a in acc.items()}
        act = active.reshape(-1)
        if frontier is None:
            seeds = np.array(sorted(set(seeds)), dtype=np.int64)
            if seeds.size and (seeds[0] < 0 or seeds[-1] >= n):
                raise ValueError("seed id outside the node universe")
            frontier = (np.arange(nrows)[:, None] * n + seeds[None, :]).reshape(-1)
            frontier = frontier[~act[frontier]]
        frontier = np.asarray(frontier, dtype=np.int64)
        act[frontier] = True
        rounds = None
        if self.record_rounds:
            rounds = np.full((nrows, n), -1, dtype=np.int64)
            rounds.reshape(-1)[frontier] = 0
        self._close(scope, world, active, acc, frontier, rounds)
        return active, acc, rounds

    def _close(self, scope, world, active, acc, front, rounds):
        """Round-synchronous closure over a frontier of `row * n + node` keys.

        Each round every layer expands the same frontier: IC layers along
        the live out-edges of each key's world, LT layers by adding in-weight
        to every out-neighbour and testing it against the threshold.  The
        first round also sweeps every LT node, so a threshold met with no
        input at all still fires.  Keys already active are dropped.
        """
        n = self.net.num_nodes
        member = self.net.member
        act = active.reshape(-1)
        wkey = world * n
        ic, lt = self._adjacency(tuple(scope))
        r = 0
        while front.size and (ic is not None or lt):
            r += 1
            row, node = np.divmod(front, n)
            base = front - node  # row * n
            hits = []
            if ic is not None:
                slot, pos = _expand(ic[0], wkey[row] + node)
                hits.append(base[slot] + ic[1][pos])
            for i, indptr, dst, weight, floor in lt:
                slot, pos = _expand(indptr, node)
                nbr = dst[pos]
                keys = base[slot] + nbr
                a = acc[i].reshape(-1)
                np.add.at(a, keys, weight[pos])
                if floor.shape[0] == 1:
                    floor_at = floor[0][nbr]
                else:
                    floor_at = floor.reshape(-1)[wkey[row][slot] + nbr]
                hits.append(keys[a[keys] >= floor_at])
                if r == 1:
                    floor_rows = floor if floor.shape[0] == 1 else floor[world]
                    swept = (acc[i] >= floor_rows) & member[i][None, :] & ~active
                    hits.append(np.flatnonzero(swept))
            keys = np.concatenate(hits)
            keys = keys[~act[keys]]
            keys.sort()
            first = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            front = keys[first]
            act[front] = True
            if rounds is not None:
                rounds.reshape(-1)[front] = r

    # -- measurements ------------------------------------------------------

    def activated_matrix(self, seeds, layers=None):
        active, _, _ = self.run(seeds, layers=layers)
        return active

    def expect(self, values):
        """Expectation over the worlds of per-world `values` (first axis).

        The plain mean for sampled worlds; for an exact enumeration the
        world probabilities weigh each row.
        """
        if self.weights is None:
            return values.mean(axis=0)
        return self.weights @ values

    def spread(self, seeds, layers=None, per_layer=True) -> SpreadEstimate:
        active = self.activated_matrix(seeds, layers=layers)
        counts = active.sum(axis=1).astype(float)
        stderr = 0.0  # exact enumeration has no sampling error
        if self.weights is None and self.m > 1:
            stderr = float(counts.std(ddof=1) / math.sqrt(self.m))
        plm = None
        if per_layer:
            plm = np.array([
                self.expect((active & self.net.member[i][None, :]).sum(axis=1).astype(float))
                for i in range(self.net.num_layers)])
        return SpreadEstimate(float(self.expect(counts)), stderr, self.m, plm)

    def baseline(self, seeds, layers=None):
        """Closed state for `seeds`, reusable for incremental marginal evals."""
        active, acc, _ = self.run(seeds, layers=layers)
        return _Baseline(self, layers, active, acc)


class _Baseline:
    """Closure of a seed set inside one CascadeWorlds, extensible node by node."""

    def __init__(self, worlds, layers, active, acc):
        self.worlds = worlds
        self.layers = layers
        self.active = active
        self.acc = acc
        self.counts = active.sum(axis=1).astype(float)

    def mean_count(self) -> float:
        return float(self.worlds.expect(self.counts))

    def _extend(self, rows, starts):
        """Baseline worlds `rows` re-closed with node starts[j] added to row j."""
        n = self.worlds.net.num_nodes
        active, acc, _ = self.worlds.run(
            (), layers=self.layers, active=self.active[rows],
            acc={i: a[rows] for i, a in self.acc.items()}, rows=rows,
            frontier=np.arange(rows.size) * n + starts)
        return active, acc

    def extend_rows(self, v: int):
        """Re-close only the worlds where v is new; baseline untouched.

        Returns (rows, active_sub, acc_sub): the affected world indices plus
        their extended state; rows is empty when v is active everywhere.
        """
        rows = np.flatnonzero(~self.active[:, v])
        if rows.size == 0:
            return rows, None, None
        active, acc = self._extend(rows, np.full(rows.size, v))
        return rows, active, acc

    def scan(self, nodes, row_bytes: int = 0):
        """Close every (candidate, world) pair where the candidate is new.

        Each such pair is one engine row, ordered by candidate and then by
        world.  Rows are closed in chunks whose baseline state, plus the
        `row_bytes` the consumer holds per row, fits in GAIN_CHUNK_BYTES, so
        a whole candidate scan costs a few engine calls.  Yields (cand,
        world, active): indices into `nodes`, the baseline worlds, and the
        closed (rows, n) states.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        cand, rows = np.nonzero(~self.active[:, nodes].T)
        n = self.worlds.net.num_nodes
        step = max(1, GAIN_CHUNK_BYTES // (n * (1 + 8 * len(self.acc)) + row_bytes))
        for s in range(0, rows.size, step):
            sub, c = rows[s:s + step], cand[s:s + step]
            yield c, sub, self._extend(sub, nodes[c])[0]

    def sum_gains(self, size: int, chunks) -> np.ndarray:
        """Per-candidate gains from the (cand, world, delta) of a scan.

        Each candidate's deltas are summed in world order, the summation
        order of a lone gain, so batched and single gains agree bit for bit.
        """
        gains = np.zeros(size)
        if not chunks:
            return gains
        cand, world, delta = (np.concatenate(part) for part in zip(*chunks))
        ends = np.searchsorted(cand, np.arange(size + 1))
        weights = self.worlds.weights
        for j, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            if a < b:
                gains[j] = delta[a:b].sum() / self.worlds.m if weights is None \
                    else delta[a:b] @ weights[world[a:b]]
        return gains

    def gains(self, nodes) -> np.ndarray:
        """Marginal gain of adding each of `nodes` on its own."""
        chunks = [(c, w, a.sum(axis=1) - self.counts[w]) for c, w, a in self.scan(nodes)]
        return self.sum_gains(len(nodes), chunks)

    def gain(self, v: int) -> float:
        return float(self.gains([v])[0])

    def accept(self, v: int) -> None:
        rows, sub, acc_sub = self.extend_rows(v)
        if rows.size:
            self.active[rows] = sub
            for i in self.acc:
                self.acc[i][rows] = acc_sub[i]
            self.counts = self.active.sum(axis=1).astype(float)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def simulate_once(net: MultiplexNetwork, seeds, rng_seed: int = 0,
                  layers=None) -> CascadeTrace:
    """One cascade; deterministic for a given rng_seed."""
    worlds = CascadeWorlds(net, 1, rng_seed, record_rounds=True)
    active, _, rounds = worlds.run(seeds, layers=layers)
    row = active[0]
    activated = set(np.flatnonzero(row).tolist())
    per_layer = [set(np.flatnonzero(row & net.member[i]).tolist())
                 for i in range(net.num_layers)]
    act_round = {int(v): int(rounds[0, v]) for v in np.flatnonzero(row)}
    return CascadeTrace(activated, per_layer, act_round)


def estimate_spread(net: MultiplexNetwork, seeds, m: int = 100,
                    master_seed: int = 0, layers=None) -> SpreadEstimate:
    """Monte Carlo estimate of the expected number of activated identities.

    Duplicate activations across layers count once; stderr is the sample
    standard deviation over the m simulations divided by sqrt(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    worlds = CascadeWorlds(net, m, master_seed)
    return worlds.spread(seeds, layers=layers)


def per_layer_spread(obj, layer: int) -> float:
    """Activated-identity count attributable to one layer (copies included)."""
    if isinstance(obj, CascadeTrace):
        if not (0 <= layer < len(obj.per_layer_activated)):
            raise ValueError(f"layer {layer} out of range")
        return float(len(obj.per_layer_activated[layer]))
    if isinstance(obj, SpreadEstimate):
        if obj.per_layer_mean is None or not (0 <= layer < len(obj.per_layer_mean)):
            raise ValueError("estimate carries no per-layer means for that layer")
        return float(obj.per_layer_mean[layer])
    raise TypeError("expected a CascadeTrace or SpreadEstimate")


def exact_worlds(net: MultiplexNetwork, layers=None) -> CascadeWorlds:
    """Probability-weighted enumeration of all IC live-edge worlds (guarded).

    Spread queries against the returned CascadeWorlds are exact, so it can
    drive greedy selection or exhaustive search without re-enumerating.
    Guarded: at most EXACT_IC_EDGE_GUARD in-scope IC edges, and LT layers
    must carry fixed thresholds (their dynamics are then deterministic).
    Bit b of world w is the liveness of the b-th in-scope IC edge, counting
    the layers in scope order, so each layer's edges are one column slice.
    """
    scope = _layer_scope(net, layers)
    ic = [i for i in scope if net.layers[i].model == IC and net.layers[i].num_edges]
    p = np.concatenate([net.layers[i].probs for i in ic]) if ic else np.empty(0)
    ne = p.size
    if ne > EXACT_IC_EDGE_GUARD:
        raise GuardError(
            f"{ne} IC edges exceed the exact-enumeration guard of "
            f"{EXACT_IC_EDGE_GUARD}; use estimate_spread instead")
    for i in scope:
        layer = net.layers[i]
        if layer.model == LT and layer.thresholds is None:
            raise GuardError("exact evaluation needs fixed LT thresholds")

    m = 1 << ne
    masks = np.arange(m, dtype=np.uint64)
    live_bits = np.zeros((m, ne), dtype=bool)
    probs = np.ones(m)
    for b in range(ne):
        bit = ((masks >> np.uint64(b)) & np.uint64(1)).astype(bool)
        live_bits[:, b] = bit
        probs *= np.where(bit, p[b], 1.0 - p[b])

    ends = np.cumsum([net.layers[i].num_edges for i in ic], dtype=np.int64)
    live_by_layer = dict(zip(ic, np.split(live_bits, ends[:-1], axis=1)))
    return CascadeWorlds.from_live_matrix(net, live_by_layer, m, weights=probs)


def exact_spread(net: MultiplexNetwork, seeds, layers=None) -> float:
    """Exact expected spread by enumerating every IC live-edge world."""
    worlds = exact_worlds(net, layers)
    return float(worlds.expect(worlds.activated_matrix(seeds, layers=layers).sum(axis=1)))


def exact_activation_probabilities(net: MultiplexNetwork, seeds,
                                   layers=None) -> np.ndarray:
    """Per-node activation probability under the same exact enumeration."""
    worlds = exact_worlds(net, layers)
    return worlds.expect(worlds.activated_matrix(seeds, layers=layers))


def record_status_dataset(net: MultiplexNetwork, seeds, layers_so_far,
                          m: int = 100, master_seed: int = 0) -> StatusDataset:
    """Simulate m cascades restricted to the given layers and log final states.

    Each row is the full-network activation indicator of one simulation:
    propagation runs only inside `layers_so_far`, but activations are
    identity-level, so member copies in every other layer are implied.
    """
    layers_so_far = frozenset(int(i) for i in layers_so_far)
    if not layers_so_far:
        raise ValueError("layers_so_far must not be empty")
    if m < 2:
        raise ValueError("need at least 2 simulations for downstream statistics")
    worlds = CascadeWorlds(net, m, master_seed)
    active = worlds.activated_matrix(seeds, layers=layers_so_far)
    return StatusDataset(active.astype(np.uint8), tuple(sorted(seeds)), layers_so_far)
