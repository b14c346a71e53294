"""Correlation grouping and tree-structured Bayesian models over node status.

The status dataset collected during simulation is a binary matrix: one row
per run, one column per node.  Highly correlated columns collapse into
groups represented by a single node each, and a tree Bayesian network over
the representatives (the maximum-mutual-information spanning tree, built by
Prim on the MI matrix, Kruskal's edge order) supports exact conditional
queries by two-pass message passing, one sweep each way over the tree's
breadth-first depth slices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    free = corr.defined.copy()

    groups, reps, kinds = [], [], []
    for v in np.flatnonzero(free).tolist():
        if not free[v]:
            continue
        group = [v, *(v + 1 + np.flatnonzero(
            free[v + 1:] & (corr.values[v, v + 1:] > xi))).tolist()]
        free[group] = False
        centroid = x[:, group].mean(axis=1)
        dists = ((x[:, group] - centroid[:, None]) ** 2).sum(axis=0)
        groups.append(group)
        reps.append(group[int(np.argmin(dists))])
        kinds.append(GROUP_CORRELATED)

    for kind, side in ((GROUP_ALWAYS_ON, means >= 0.5), (GROUP_ALWAYS_OFF, means < 0.5)):
        group = np.flatnonzero(~corr.defined & side).tolist()
        if group:
            groups.append(group)
            reps.append(group[0])
            kinds.append(kind)

    rep_of = np.empty(n, dtype=np.int64)
    for group, rep in zip(groups, reps):
        rep_of[group] = rep
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

    def __post_init__(self):
        # breadth-first positions from the root, siblings in ascending id:
        # each depth is one slice whose children come grouped by parent
        kids = {v: [] for v in self.nodes}
        for child, par in sorted(self.parent.items()):
            kids[par].append(child)
        order, pos_parent = [self.root], [-1]
        for p, v in enumerate(order):  # grows while walked: breadth-first
            order += kids[v]
            pos_parent += [p] * len(kids[v])
        pos_parent = np.array(pos_parent, dtype=np.int64)
        self._levels, lo = [], 1
        while lo < len(order):
            hi = int(np.searchsorted(pos_parent, lo))  # children of the depth ending at lo
            parents = pos_parent[lo:hi]
            starts = np.flatnonzero(np.diff(parents, prepend=-1))
            self._levels.append((slice(lo, hi), parents, parents[starts], starts))
            lo = hi
        pos = {v: i for i, v in enumerate(order)}
        self._node_to_pos = np.array([pos[v] for v in self.nodes], dtype=np.int64)
        self._pos_cpt = np.stack([np.stack([self.root_marginal] * 2)]
                                 + [self.cpts[v] for v in order[1:]])

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

        One sweep up and one down the depth slices, each level a
        broadcast over (U, level, 2).  Going down, a child's message from
        its parent divides the child's own upward message out of the
        parent's product.  Where that message is zero (only unsmoothed CPTs
        make one) the child gets 0: its subtree gives that parent state
        probability zero, so no belief in the subtree weighs the value
        passed there.  Evidence of probability zero raises ValueError.
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
        for sl, parents, par_uniq, starts in reversed(self._levels):
            lam_l = lam[:, sl] * prodmsg[:, sl]
            cpt = self._pos_cpt[sl]
            m = lam_l[..., :1] * cpt[:, :, 0] + lam_l[..., 1:] * cpt[:, :, 1]
            msg[:, sl] = m
            prodmsg[:, par_uniq] *= np.multiply.reduceat(m, starts, axis=1)

        pi = np.empty((U, q, 2))
        pi[:, 0, :] = self.root_marginal
        for sl, parents, _, _ in self._levels:
            m = msg[:, sl]
            # a zero message makes its parent's product 0: the child gets 0
            to_child = (pi[:, parents] * lam[:, parents] * prodmsg[:, parents]
                        / np.where(m == 0.0, 1.0, m))
            cpt = self._pos_cpt[sl]
            pi[:, sl] = to_child[..., :1] * cpt[:, 0] + to_child[..., 1:] * cpt[:, 1]

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
            "mi_units": "nats",
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

    Prim on the MI matrix, Kruskal's edge order: grown from the lowest-id
    representative (the root), each step attaches the outside variable whose
    best edge into the tree comes first under (-MI, lower id, higher id),
    and the tree end of that edge becomes its parent.  A strict total order
    makes the spanning tree unique, so it is Kruskal's.  An edge's MI is read
    as `mi[a, b]` with a before b in the partition's variable order.  CPTs
    are Laplace-smoothed empirical conditionals.
    """
    variables = partition.tree_variables()
    q = len(variables)
    if q < 1:
        raise ValueError("partition has no changing-column groups to model")
    x = _rows(dataset)[:, variables]
    m = x.shape[0]
    mi = _mi_matrix(x, alpha)

    # per outside variable, its best edge into the tree: MI, tie key (lower
    # id * span + higher id) and the tree end, which becomes its parent
    ids = np.array(variables, dtype=np.int64)
    span = int(ids.max()) + 1
    best = np.full(q, -np.inf)
    key = np.zeros(q, dtype=np.int64)
    near = np.zeros(q, dtype=np.int64)
    outside = np.ones(q, dtype=bool)
    parent: dict[int, int] = {}
    start = j = int(np.argmin(ids))
    outside[j] = False
    for _ in range(q - 1):
        row = np.concatenate((mi[:j, j], mi[j, j:]))
        row_key = np.minimum(ids, ids[j]) * span + np.maximum(ids, ids[j])
        better = outside & ((row > best) | ((row == best) & (row_key < key)))
        best[better], key[better], near[better] = row[better], row_key[better], j
        top = np.flatnonzero(outside & (best == best[outside].max()))
        j = int(top[np.argmin(key[top])])
        outside[j] = False
        parent[variables[j]] = variables[near[j]]

    root = variables[start]
    ones = float(x[:, start].sum())
    root_marginal = np.array([
        (m - ones + alpha) / (m + 2.0 * alpha),
        (ones + alpha) / (m + 2.0 * alpha)])
    cpts, edge_mi = {}, {}
    idx = {v: i for i, v in enumerate(variables)}
    for child, par in parent.items():
        joint, _ = _joint_counts(x[:, idx[par]], x[:, idx[child]])
        cpt = (joint + alpha) / (joint.sum(axis=1, keepdims=True) + 2.0 * alpha)
        cpts[child] = cpt
        edge_mi[(par, child)] = float(mi[idx[par], idx[child]])

    return ChowLiuTree(sorted(variables), root, parent, root_marginal, cpts,
                       edge_mi, q * (q - 1) // 2)


def tree_condition(tree: ChowLiuTree, query: int, evidence: dict[int, int]) -> float:
    """Exact P(query = 1 | evidence); an observed query returns its value."""
    index = {v: i for i, v in enumerate(tree.nodes)}
    if query not in index:
        raise ValueError(f"query node {query} is not a tree variable")
    if query in evidence:
        return float(int(evidence[query]))
    ev = np.full((1, len(tree.nodes)), -1, dtype=np.int8)
    for v, val in evidence.items():
        if v not in index:
            raise ValueError(f"evidence node {v} is not a tree variable")
        ev[0, index[v]] = int(val)
    return float(tree.condition_batch(ev)[0, index[query]])
