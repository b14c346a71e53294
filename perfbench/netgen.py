"""Benchmark input networks: a seeded Erdos-Renyi multiplex and its file form.

The generator is the benchmark's own, so a change to the program's
generator cannot change the benchmark's inputs.  The construction follows
the paper's synthetic setup: one shared overlap set of
round(overlap * largest layer size) identities belongs to every layer,
every other identity is private to one layer, each layer is a directed
G(n, M) graph over its native nodes, IC probabilities and LT weights are
1 / in-degree of the target, and LT thresholds are drawn once from
[0.5, 0.9] and pinned in the file, so LT dynamics are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IC = "IC"
LT = "LT"


@dataclass
class Net:
    """A multiplex as plain arrays.

    `member[i, v]` says identity v belongs to layer i.  `edges[i]` is an
    (E, 2) array of (src, dst) rows; `values[i]` holds the IC probability or
    the LT weight of each edge; `thresholds[i]` is the pinned per-node LT
    threshold of layer i (None for IC layers).
    """

    num_nodes: int
    models: list[str]
    member: np.ndarray
    edges: list[np.ndarray]
    values: list[np.ndarray]
    thresholds: list[np.ndarray | None]

    @property
    def num_layers(self) -> int:
        return len(self.models)

    @property
    def num_edges(self) -> int:
        return sum(int(e.shape[0]) for e in self.edges)


def generate(layer_node_counts, total_edges, overlap, models, seed) -> Net:
    """Seeded multiplex; the same arguments always give the same network."""
    if len(models) != len(layer_node_counts):
        raise ValueError("one model per layer")
    rng = np.random.default_rng(seed)
    k = len(layer_node_counts)
    o = int(round(overlap * max(layer_node_counts))) if k > 1 else 0
    privates = [max(c - o, 0) for c in layer_node_counts]
    n = o + sum(privates)
    counts = np.asarray(layer_node_counts, dtype=float)
    edge_counts = np.floor(total_edges * counts / counts.sum()).astype(int)
    edge_counts[np.argmax(counts)] += total_edges - int(edge_counts.sum())

    member = np.zeros((k, n), dtype=bool)
    member[:, :o] = True
    natives_per_layer, start = [], o
    for i, c in enumerate(layer_node_counts):
        private = np.arange(start, start + privates[i])
        start += privates[i]
        member[i, private] = True
        shared = np.arange(o) if c >= o else np.sort(rng.choice(o, c, replace=False))
        natives_per_layer.append(np.concatenate([shared, private]))

    edges, values, thresholds = [], [], []
    for i, natives in enumerate(natives_per_layer):
        c = natives.size
        want = min(int(edge_counts[i]), c * (c - 1))
        flat = rng.choice(c * (c - 1), size=want, replace=False)
        a, b = np.divmod(flat, c - 1)
        b = b + (b >= a)  # skip the diagonal
        e = np.column_stack([natives[a], natives[b]]).astype(np.int64)
        indeg = np.bincount(e[:, 1], minlength=n).astype(float)
        edges.append(e)
        values.append(1.0 / indeg[e[:, 1]])
        if models[i] == LT:
            theta = np.ones(n)
            theta[member[i]] = 0.5 + 0.4 * rng.random(int(member[i].sum()))
            thresholds.append(theta)
        else:
            thresholds.append(None)

    # scatter identities so that overlap ids carry no positional meaning
    perm = rng.permutation(n)  # old id -> new id
    inv = np.argsort(perm)
    member = member[:, inv]
    edges = [perm[e] for e in edges]
    thresholds = [None if t is None else t[inv] for t in thresholds]
    return Net(n, list(models), member, edges, values, thresholds)


def network_text(net: Net) -> str:
    """The network in the program's line-oriented multiplex file format."""
    out = [f"#multiplex k={net.num_layers} n={net.num_nodes}"]
    out += [f"@model {i} {model}" for i, model in enumerate(net.models)]
    for i in range(net.num_layers):
        out += [f"!member {i} {v}" for v in np.flatnonzero(net.member[i])]
    for i, theta in enumerate(net.thresholds):
        if theta is not None:
            out += [f"@theta {i} {v} {float(theta[v])!r}"
                    for v in np.flatnonzero(net.member[i])]
    for i, (e, vals) in enumerate(zip(net.edges, net.values)):
        out += [f"{i} {s} {d} {float(x)!r}" for (s, d), x in zip(e.tolist(), vals)]
    return "\n".join(out) + "\n"
