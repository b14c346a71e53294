"""Reference cascade simulator, written apart from the program's engine.

It computes, per sampled world, the identity-level least fixpoint of the
multiplex dynamics over all layers: a node is active when it is a seed, when
a live IC edge leads to it from an active node, or when it is a member of an
LT layer whose active in-neighbours' weights reach its pinned threshold.
The program runs synchronous rounds from a frontier; this module instead
iterates the whole closure operator from the seed set until nothing changes
(Kleene iteration), which reaches the same least fixpoint because the
operator is monotone.  It only needs the benchmark's own `netgen.Net`.
"""

from __future__ import annotations

import math

import numpy as np

from netgen import IC, Net

# the program's LT test is `in-weight >= threshold - 1e-12`; the same slack
# keeps weights that sum to a threshold exactly on the activating side
LT_SLACK = 1e-12


def closure(net: Net, seeds, live: list[np.ndarray | None],
            worlds: int) -> np.ndarray:
    """(worlds, n) activation matrix of the least fixpoint in each world.

    `live[i]` is a (worlds, E_i) boolean matrix of live IC edges of layer i,
    or None for LT layers.
    """
    n = net.num_nodes
    seed_row = np.zeros(n, dtype=bool)
    seed_row[list(seeds)] = True
    active = np.broadcast_to(seed_row, (worlds, n)).copy()
    row_base = (np.arange(worlds, dtype=np.int64) * n)[:, None]
    while True:
        new = np.broadcast_to(seed_row, (worlds, n)).copy()
        flat = new.reshape(-1)
        for i, model in enumerate(net.models):
            src, dst = net.edges[i][:, 0], net.edges[i][:, 1]
            if not src.size:
                continue
            if model == IC:
                fired = active[:, src] & live[i]
                flat[(row_base + dst[None, :])[fired]] = True
            else:
                weight = active[:, src] * net.values[i][None, :]
                acc = np.bincount((row_base + dst[None, :]).ravel(),
                                  weights=weight.ravel(),
                                  minlength=worlds * n).reshape(worlds, n)
                new |= (acc >= net.thresholds[i][None, :] - LT_SLACK) \
                    & net.member[i][None, :]
        if np.array_equal(new, active):
            return active
        active = new


def sample_live(net: Net, worlds: int, rng: np.random.Generator):
    """Independent live-edge coins for every IC edge in every world."""
    return [rng.random((worlds, e.shape[0])) < p if model == IC else None
            for model, e, p in zip(net.models, net.edges, net.values)]


def expected_spread(net: Net, seeds, worlds: int, rng: np.random.Generator):
    """Monte Carlo (mean, stderr) of the number of activated identities."""
    active = closure(net, seeds, sample_live(net, worlds, rng), worlds)
    counts = active.sum(axis=1).astype(float)
    stderr = float(counts.std(ddof=1) / math.sqrt(worlds)) if worlds > 1 else 0.0
    return float(counts.mean()), stderr
