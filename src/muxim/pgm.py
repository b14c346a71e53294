"""Correlation grouping and tree-structured Bayesian models over node status.

The status dataset collected during simulation is a binary matrix: one row
per run, one column per node.  Highly correlated columns collapse into
groups represented by a single node each, and a tree Bayesian network over
the representatives (the maximum-mutual-information spanning tree) supports
exact conditional queries by message passing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

UNDEFINED = float("nan")


def _rows(dataset) -> np.ndarray:
    rows = getattr(dataset, "rows", dataset)
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("status data must be a 2-D matrix")
    return rows.astype(np.float64)


@dataclass
class CorrelationMatrix:
    """Pairwise Pearson coefficients; NaN marks zero-variance columns."""

    values: np.ndarray
    defined: np.ndarray  # per-column: has the column any variance?

    def __getitem__(self, idx):
        return self.values[idx]

    def is_defined(self, x: int, y: int) -> bool:
        return bool(self.defined[x] and self.defined[y])


def pearson_matrix(dataset) -> CorrelationMatrix:
    """Sample Pearson correlation of every column pair.

    Columns with zero variance (nodes that never change status) produce NaN
    against everything, including themselves.
    """
    x = _rows(dataset)
    m = x.shape[0]
    if m < 2:
        raise ValueError("need at least 2 rows to correlate")
    centered = x - x.mean(axis=0)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    defined = norms > 0.0
    safe = np.where(defined, norms, 1.0)
    q = (centered.T @ centered) / np.outer(safe, safe)
    q = np.clip(q, -1.0, 1.0)
    q[~defined, :] = UNDEFINED
    q[:, ~defined] = UNDEFINED
    return CorrelationMatrix(q, defined)


GROUP_CORRELATED = "correlated"
GROUP_ALWAYS_ON = "always_on"
GROUP_ALWAYS_OFF = "always_off"


@dataclass
class GroupPartition:
    """Disjoint node groups covering every column, one representative each."""

    groups: list[list[int]]
    representatives: list[int]
    kinds: list[str]
    rep_of: np.ndarray  # node id -> its representative's node id

    def tree_variables(self) -> list[int]:
        return [r for r, kind in zip(self.representatives, self.kinds)
                if kind == GROUP_CORRELATED]

    def kind_of_rep(self, rep: int) -> str:
        return self.kinds[self.representatives.index(rep)]


def variable_grouping(dataset, corr: CorrelationMatrix, xi: float) -> GroupPartition:
    """Single-pass greedy grouping of highly correlated status columns.

    Walking nodes in ascending id, each ungrouped node seeds a group and
    absorbs every later ungrouped node correlated above xi with it.
    Constant columns split into the always-active and never-active groups
    (lowest-id representative) and stay out of the tree variables.  Group
    representatives are the members closest (Euclidean) to the group's
    column mean, ties to the lower id.
    """
    if not (0.0 < xi <= 1.0):
        raise ValueError("xi must be in (0, 1]")
    x = _rows(dataset)
    n = x.shape[1]
    means = x.mean(axis=0)
    changing = corr.defined

    groups, reps, kinds = [], [], []
    always_on = [v for v in range(n) if not changing[v] and means[v] >= 0.5]
    always_off = [v for v in range(n) if not changing[v] and means[v] < 0.5]

    grouped = np.zeros(n, dtype=bool)
    for v in range(n):
        if not changing[v] or grouped[v]:
            continue
        group = [v]
        grouped[v] = True
        row = corr.values[v]
        for u in range(v + 1, n):
            if changing[u] and not grouped[u] and row[u] > xi:
                group.append(u)
                grouped[u] = True
        centroid = x[:, group].mean(axis=1)
        dists = ((x[:, group] - centroid[:, None]) ** 2).sum(axis=0)
        rep = group[int(np.argmin(dists))]
        groups.append(group)
        reps.append(rep)
        kinds.append(GROUP_CORRELATED)

    if always_on:
        groups.append(always_on)
        reps.append(min(always_on))
        kinds.append(GROUP_ALWAYS_ON)
    if always_off:
        groups.append(always_off)
        reps.append(min(always_off))
        kinds.append(GROUP_ALWAYS_OFF)

    rep_of = np.empty(n, dtype=np.int64)
    for group, rep in zip(groups, reps):
        for u in group:
            rep_of[u] = rep
    return GroupPartition(groups, reps, kinds, rep_of)


def _joint_counts(a: np.ndarray, b: np.ndarray):
    n11 = float(a @ b)
    n1_ = float(a.sum())
    n_1 = float(b.sum())
    m = float(a.shape[0])
    n10 = n1_ - n11
    n01 = n_1 - n11
    n00 = m - n11 - n10 - n01
    return np.array([[n00, n01], [n10, n11]]), m


def mutual_information(dataset, a: int, b: int, alpha: float = 1.0) -> float:
    """Plug-in mutual information of two binary columns, in nats.

    Laplace smoothing with pseudo-count alpha on each joint cell; marginals
    come from the smoothed joint so the result stays a true MI (symmetric,
    nonnegative, at most ln 2).
    """
    x = _rows(dataset)
    joint, m = _joint_counts(x[:, a], x[:, b])
    p = (joint + alpha) / (m + 4.0 * alpha)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if p[i, j] > 0.0:
                mi += p[i, j] * math.log(p[i, j] / (pa[i] * pb[j]))
    return max(mi, 0.0)


def _mi_matrix(x: np.ndarray, alpha: float) -> np.ndarray:
    """All-pairs smoothed MI for the columns of x, vectorized."""
    m, q = x.shape
    c11 = x.T @ x
    ones = x.sum(axis=0)
    c10 = ones[:, None] - c11
    c01 = ones[None, :] - c11
    c00 = m - c11 - c10 - c01
    mi = np.zeros((q, q))
    denom = m + 4.0 * alpha
    cells = [(c00, 0, 0), (c01, 0, 1), (c10, 1, 0), (c11, 1, 1)]
    ps = {(i, j): (c + alpha) / denom for c, i, j in cells}
    pa1 = ps[(1, 0)] + ps[(1, 1)]
    pb1 = ps[(0, 1)] + ps[(1, 1)]
    marg = {0: (1.0 - pa1, 1.0 - pb1), 1: (pa1, pb1)}
    with np.errstate(divide="ignore", invalid="ignore"):
        for (i, j), p in ps.items():
            term = p * np.log(p / (marg[i][0] * marg[j][1]))
            mi += np.where(p > 0.0, np.nan_to_num(term), 0.0)
    np.fill_diagonal(mi, 0.0)
    return np.maximum(mi, 0.0)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass
class ChowLiuTree:
    """Tree Bayesian network over representative nodes.

    Edges are oriented away from the root; `cpts[child][p, c]` stores
    P(child = c | parent = p).  `edge_mi` keeps the mutual information that
    earned each (parent, child) edge its place in the spanning tree, and
    `pair_computations` counts the pairwise MI evaluations spent fitting.
    """

    nodes: list[int]
    root: int
    parent: dict[int, int]
    root_marginal: np.ndarray
    cpts: dict[int, np.ndarray]
    edge_mi: dict[tuple[int, int], float]
    pair_computations: int
    log_base: str = "nats"
    _children: dict[int, list[int]] = field(default_factory=dict, repr=False)
    _topo: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._children = {v: [] for v in self.nodes}
        for child, par in self.parent.items():
            self._children[par].append(child)
        for v in self._children:
            self._children[v].sort()
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self._children[v]))
        self._topo = order
        # array form for batched message passing: parents precede children
        q = len(order)
        pos = {v: i for i, v in enumerate(order)}
        self._node_to_pos = np.array([pos[v] for v in self.nodes], dtype=np.int64)
        self._pos_parent = np.array(
            [-1] + [pos[self.parent[order[p]]] for p in range(1, q)], dtype=np.int64)
        self._pos_children = [[pos[c] for c in self._children[v]] for v in order]
        self._pos_cpt = np.empty((q, 2, 2))
        self._pos_cpt[0] = np.stack([self.root_marginal, self.root_marginal])
        for p in range(1, q):
            self._pos_cpt[p] = self.cpts[order[p]]
        # positions grouped by depth, with children ordered by parent so
        # per-parent products reduce contiguously
        depth = np.zeros(q, dtype=np.int64)
        for p in range(1, q):
            depth[p] = depth[self._pos_parent[p]] + 1
        self._levels = []
        for d in range(1, int(depth.max()) + 1 if q > 1 else 1):
            idx = np.flatnonzero(depth == d)
            idx = idx[np.argsort(self._pos_parent[idx], kind="stable")]
            parents = self._pos_parent[idx]
            starts = np.flatnonzero(np.concatenate(
                ([True], parents[1:] != parents[:-1])))
            self._levels.append((idx, parents, parents[starts], starts))

    @property
    def num_edges(self) -> int:
        return len(self.parent)

    def total_mi(self) -> float:
        return float(sum(self.edge_mi.values()))

    def condition_batch(self, evidence: np.ndarray) -> np.ndarray:
        """Batched two-pass BP over many evidence patterns at once.

        `evidence` is (U, q) int8 aligned to `self.nodes` order: -1 means
        unobserved, 0/1 an observed state.  Returns (U, q) posteriors
        P(node = 1 | evidence) in the same alignment.
        """
        q = len(self.nodes)
        ev = np.asarray(evidence, dtype=np.int8).reshape(-1, q)
        ev_topo = np.full_like(ev, -1)
        ev_topo[:, self._node_to_pos] = ev
        U = ev.shape[0]

        lam = np.ones((U, q, 2))
        lam[..., 1][ev_topo == 0] = 0.0
        lam[..., 0][ev_topo == 1] = 0.0
        prodmsg = np.ones((U, q, 2))
        msg = np.empty((U, q, 2))
        for idx, parents, par_uniq, starts in reversed(self._levels):
            lam_l = lam[:, idx] * prodmsg[:, idx]
            m = np.einsum("ulc,lpc->ulp", lam_l, self._pos_cpt[idx])
            msg[:, idx] = m
            prodmsg[:, par_uniq] *= np.multiply.reduceat(m, starts, axis=1)

        pi = np.empty((U, q, 2))
        pi[:, 0, :] = self.root_marginal
        if q > 1 and msg[:, 1:].min() > 0.0:
            # strictly positive messages (smoothed CPTs): vectorized level
            # sweep excluding each child's own message by division
            for idx, parents, _, _ in self._levels:
                to_child = (pi[:, parents] * lam[:, parents]
                            * prodmsg[:, parents]) / msg[:, idx]
                pi[:, idx] = np.einsum("ulp,lpc->ulc", to_child, self._pos_cpt[idx])
        elif q > 1:
            # zero messages possible (unsmoothed fits): per-node sweep with
            # prefix/suffix sibling products, no division
            for p in range(q):
                kids = self._pos_children[p]
                if not kids:
                    continue
                msgs = msg[:, kids, :]
                pref = np.ones((U, len(kids) + 1, 2))
                for i in range(len(kids)):
                    pref[:, i + 1] = pref[:, i] * msgs[:, i]
                suf = np.ones((U, len(kids) + 1, 2))
                for i in range(len(kids) - 1, -1, -1):
                    suf[:, i] = suf[:, i + 1] * msgs[:, i]
                base = pi[:, p, :] * lam[:, p, :]
                for i, c in enumerate(kids):
                    pi[:, c, :] = (base * pref[:, i] * suf[:, i + 1]) @ self._pos_cpt[c]

        belief = lam * prodmsg * pi
        z = belief.sum(axis=2)
        if np.any(z <= 0.0):
            raise ValueError("evidence has zero probability under the tree")
        out = belief[..., 1] / z
        return out[:, self._node_to_pos]

    def to_json(self, partition: GroupPartition | None = None) -> str:
        payload = {
            "root": self.root,
            "nodes": list(self.nodes),
            "edges": sorted((p, c) for c, p in self.parent.items()),
            "root_marginal": self.root_marginal.tolist(),
            "cpts": {str(c): t.tolist() for c, t in sorted(self.cpts.items())},
            "mi_per_edge": {f"{p}-{c}": self.edge_mi[(p, c)]
                            for c, p in sorted(self.parent.items())},
            "mi_units": self.log_base,
        }
        if partition is not None:
            payload["group_partition"] = {
                "groups": partition.groups,
                "representatives": partition.representatives,
                "kinds": partition.kinds,
            }
        return json.dumps(payload, sort_keys=True, indent=2)


def chow_liu_fit(dataset, partition: GroupPartition, alpha: float = 1.0) -> ChowLiuTree:
    """Fit the maximum-MI spanning tree over the partition's tree variables.

    Kruskal with ties broken by lexicographic edge order; the lowest-id
    representative becomes the root and all edges point away from it.  CPTs
    are Laplace-smoothed empirical conditionals.
    """
    variables = partition.tree_variables()
    q = len(variables)
    if q < 1:
        raise ValueError("partition has no changing-column groups to model")
    x = _rows(dataset)[:, variables]
    m = x.shape[0]

    mi = _mi_matrix(x, alpha)
    pair_count = q * (q - 1) // 2
    edges = sorted(((a, b) for a in range(q) for b in range(a + 1, q)),
                   key=lambda e: (-mi[e[0], e[1]],
                                  min(variables[e[0]], variables[e[1]]),
                                  max(variables[e[0]], variables[e[1]])))
    uf = _UnionFind(q)
    chosen = [e for e in edges if uf.union(*e)]

    root = min(variables)
    adj = {v: [] for v in variables}
    for a, b in chosen:
        adj[variables[a]].append(variables[b])
        adj[variables[b]].append(variables[a])
    parent: dict[int, int] = {}
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                stack.append(u)

    col = {v: x[:, i] for i, v in enumerate(variables)}
    ones = {v: float(col[v].sum()) for v in variables}
    root_marginal = np.array([
        (m - ones[root] + alpha) / (m + 2.0 * alpha),
        (ones[root] + alpha) / (m + 2.0 * alpha)])
    cpts, edge_mi = {}, {}
    idx = {v: i for i, v in enumerate(variables)}
    for child, par in parent.items():
        joint, _ = _joint_counts(col[par], col[child])
        cpt = (joint + alpha) / (joint.sum(axis=1, keepdims=True) + 2.0 * alpha)
        cpts[child] = cpt
        edge_mi[(par, child)] = float(mi[idx[par], idx[child]])

    return ChowLiuTree(sorted(variables), root, parent, root_marginal, cpts,
                       edge_mi, pair_count)


def tree_condition(tree: ChowLiuTree, query: int, evidence: dict[int, int]) -> float:
    """Exact P(query = 1 | evidence); an observed query returns its value."""
    if query not in tree._children:
        raise ValueError(f"query node {query} is not a tree variable")
    if query in evidence:
        return float(int(evidence[query]))
    index = {v: i for i, v in enumerate(tree.nodes)}
    ev = np.full((1, len(tree.nodes)), -1, dtype=np.int8)
    for v, val in evidence.items():
        if v not in index:
            raise ValueError(f"evidence node {v} is not a tree variable")
        ev[0, index[v]] = int(val)
    return float(tree.condition_batch(ev)[0, index[query]])
