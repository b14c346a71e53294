"""The reference simulator against closed forms on tiny graphs."""

import itertools

import numpy as np
import pytest

import refsim
from netgen import IC, LT, Net, generate, network_text


def make_net(n, layers, member=None):
    """layers: (model, edges, values, thresholds-by-node or None)."""
    k = len(layers)
    if member is None:
        member = np.ones((k, n), dtype=bool)
    thresholds = []
    for model, _, _, theta in layers:
        if model == LT:
            row = np.ones(n)
            for v, z in (theta or {}).items():
                row[v] = z
            thresholds.append(row)
        else:
            thresholds.append(None)
    return Net(n, [layer[0] for layer in layers], np.asarray(member, dtype=bool),
               [np.array(layer[1], dtype=np.int64).reshape(-1, 2) for layer in layers],
               [np.array(layer[2], dtype=float) for layer in layers], thresholds)


def exact_spread(net, seeds):
    """Enumerate every live-edge world of the IC edges, weighted exactly."""
    ic = [i for i, m in enumerate(net.models) if m == IC]
    sizes = [net.edges[i].shape[0] for i in ic]
    total = 0.0
    for bits in itertools.product([False, True], repeat=sum(sizes)):
        live, prob, at = [None] * net.num_layers, 1.0, 0
        for i, size in zip(ic, sizes):
            row = np.array(bits[at:at + size], dtype=bool)
            p = net.values[i]
            prob *= float(np.prod(np.where(row, p, 1.0 - p)))
            live[i] = row[None, :]
            at += size
        total += prob * refsim.closure(net, seeds, live, 1).sum()
    return total


@pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0])
def test_ic_path_spread_is_one_plus_p_plus_p_squared(p):
    net = make_net(3, [(IC, [(0, 1), (1, 2)], [p, p], None)])
    assert exact_spread(net, [0]) == pytest.approx(1 + p + p * p, abs=1e-12)


def test_monte_carlo_estimate_brackets_the_closed_form():
    p = 0.4
    net = make_net(3, [(IC, [(0, 1), (1, 2)], [p, p], None)])
    mean, stderr = refsim.expected_spread(net, [0], 20000, np.random.default_rng(3))
    assert abs(mean - (1 + p + p * p)) < 4 * stderr


def test_ic_star_with_two_paths():
    # 0 -> 1 -> 3 and 0 -> 2 -> 3: node 3 is reached unless both paths fail
    p = 0.5
    net = make_net(4, [(IC, [(0, 1), (0, 2), (1, 3), (2, 3)], [p] * 4, None)])
    assert exact_spread(net, [0]) == pytest.approx(1 + 2 * p + 1 - (1 - p * p) ** 2)


def test_lt_chain_is_deterministic():
    chain = [(0, 1), (1, 2), (2, 3)]
    fires = make_net(4, [(LT, chain, [1.0] * 3, {1: 0.6, 2: 0.6, 3: 0.6})])
    assert refsim.expected_spread(fires, [0], 5, np.random.default_rng(0)) == (4.0, 0.0)
    stalls = make_net(4, [(LT, chain, [1.0, 0.5, 1.0], {1: 0.6, 2: 0.6, 3: 0.6})])
    assert refsim.expected_spread(stalls, [0], 5, np.random.default_rng(0)) == (2.0, 0.0)


def test_lt_threshold_needs_summed_weight():
    net = make_net(3, [(LT, [(0, 2), (1, 2)], [0.5, 0.5], {2: 0.9})])
    assert refsim.closure(net, [0], [None], 1).sum() == 1
    assert refsim.closure(net, [0, 1], [None], 1).sum() == 3


def test_lt_weights_summing_exactly_to_the_threshold_activate():
    net = make_net(4, [(LT, [(0, 3), (1, 3), (2, 3)], [1 / 3] * 3, {3: 1.0})])
    assert refsim.closure(net, [0, 1, 2], [None], 1).sum() == 4


def test_overlap_node_carries_activation_across_layers():
    # layer 0 (IC): 0 -> 1; layer 1 (LT): 1 -> 2.  Node 1 is in both layers.
    member = [[True, True, False], [False, True, True]]
    layers = [(IC, [(0, 1)], [1.0], None), (LT, [(1, 2)], [1.0], {2: 0.5})]
    net = make_net(3, layers, member)
    assert exact_spread(net, [0]) == pytest.approx(3.0)
    # a non-member cannot be activated by the LT layer's in-weight
    net.member[1, 2] = False
    assert exact_spread(net, [0]) == pytest.approx(2.0)


def test_generated_network_is_seeded_and_well_formed():
    a = generate([20, 30], 100, 0.5, [IC, LT], seed=7)
    b = generate([20, 30], 100, 0.5, [IC, LT], seed=7)
    assert network_text(a) == network_text(b)
    assert network_text(a) != network_text(generate([20, 30], 100, 0.5, [IC, LT], seed=8))
    assert a.num_edges == 100
    assert (a.member.sum(axis=0) >= 2).sum() == 15
    for i, e in enumerate(a.edges):
        assert a.member[i][e].all()
        assert len({tuple(x) for x in e.tolist()}) == e.shape[0]
        sums = np.bincount(e[:, 1], weights=a.values[i], minlength=a.num_nodes)
        assert np.all(sums <= 1.0 + 1e-12)
