import itertools

import numpy as np
import pytest

from muxim.propagation import CascadeWorlds, exact_spread, exact_worlds
from muxim.seeding import (CandidateSet, build_profit_cost_table,
                           candidate_scores, celf_greedy, lazy_greedy,
                           probabilistic_greedy, select_candidates)

from conftest import random_guarded_instance, single_layer_net, two_layer_net


def star_net(leaves=5):
    edges = [(0, i) for i in range(1, leaves + 1)]
    return single_layer_net(edges, leaves + 1, probs=[1.0] * leaves)


def naive_greedy(net, layer, budget, nodes, worlds):
    base = worlds.baseline([], layers=None if layer is None else [layer])
    picks = []
    for _ in range(budget):
        best = max((v for v in nodes if v not in picks),
                   key=lambda v: (base.gain(v), -v))
        picks.append(best)
        base.accept(best)
    return picks


def test_budget_zero_returns_empty():
    net = star_net()
    assert celf_greedy(net, 0, 0, list(range(net.num_nodes)), m=10) == []


def test_star_center_dominates():
    net = star_net()
    worlds = CascadeWorlds(net, 10, 0)
    assert celf_greedy(net, 0, 1, list(range(net.num_nodes)), worlds=worlds) == [0]


@pytest.mark.parametrize("layer", [0, None])  # None: whole-multiplex spread
def test_celf_equals_naive_greedy(rng, layer):
    for trial in range(12):
        net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16,
                                      num_layers=1 if layer == 0 else 2)
        worlds = CascadeWorlds(net, 40, trial)
        nodes = list(range(net.num_nodes))
        assert celf_greedy(net, layer, 4, nodes, worlds=worlds) == \
            naive_greedy(net, layer, 4, nodes, worlds)


class CoverageObjective:
    """Stub objective: a node's gain is how many of its items are uncovered."""

    def __init__(self, items):
        self.items = items
        self.covered = set()

    def gain(self, v):
        return float(len(self.items[v] - self.covered))

    def gains(self, nodes):
        return [self.gain(v) for v in nodes]

    def accept(self, v):
        self.covered |= self.items[v]


def test_lazy_greedy_ties_and_nonpositive_stop():
    # nodes 0 and 1 tie at gain 2; after 0, node 1 and node 3 tie at gain 0
    items = {0: {"a", "b"}, 1: {"a", "b"}, 2: {"c"}, 3: set()}
    nodes = [3, 2, 1, 0]
    assert lazy_greedy(nodes, 4, CoverageObjective(items)) == \
        ([0, 2, 1, 3], [2.0, 1.0, 0.0, 0.0])
    assert lazy_greedy(nodes, 4, CoverageObjective(items), stop_nonpositive=True) == \
        ([0, 2], [2.0, 1.0])


def test_celf_budget_clamp_warns():
    net = star_net()
    with pytest.warns(UserWarning, match="clamping"):
        picks = celf_greedy(net, 0, 99, list(range(net.num_nodes)), m=5)
    assert len(picks) == net.num_nodes


def test_greedy_ratio_against_exhaustive_optimum(rng):
    # exact evaluation: greedy on the true spread keeps the classic ratio
    for trial in range(6):
        net = random_guarded_instance(rng, max_nodes=8, max_ic_edges=10)
        worlds = exact_worlds(net)
        picks = celf_greedy(net, 0, 2, list(range(net.num_nodes)), worlds=worlds)
        value = exact_spread(net, picks)
        best = max(exact_spread(net, s)
                   for s in itertools.combinations(range(net.num_nodes), 2))
        assert value >= (1 - 1 / np.e) * best - 1e-9


def test_probabilistic_greedy_single_positive_node_is_forced():
    # after the star center saturates nodes 1..3, node 4 is the only node
    # left with positive gain, so it must follow with probability 1
    net = single_layer_net([(0, 1), (0, 2), (0, 3)], 5, probs=[1.0] * 3)
    runs = probabilistic_greedy(net, 0, 2, restarts=30, rng=0, m=10,
                                master_seed=1)
    for run in runs:
        if run and run[0] == 0:
            assert run == [0, 4]


def test_probabilistic_greedy_samples_proportional_to_gain():
    # gains from empty set: node 0 and 1 reach one extra node (gain 2),
    # nodes 2 and 3 only themselves (gain 1); equal-gain nodes should be
    # drawn equally often and twice as often as the leaves
    net = single_layer_net([(0, 2), (1, 3)], 4, probs=[1.0, 1.0])
    runs = probabilistic_greedy(net, 0, 1, restarts=600, rng=7, m=10,
                                master_seed=3)
    first = [r[0] for r in runs if r]
    freq = {v: first.count(v) / len(first) for v in range(4)}
    assert freq[0] == pytest.approx(1 / 3, abs=0.05)
    assert freq[1] == pytest.approx(1 / 3, abs=0.05)
    assert abs(freq[0] - freq[1]) < 0.07
    assert freq[2] == pytest.approx(1 / 6, abs=0.05)


def test_probabilistic_greedy_infinite_threshold_stops_immediately():
    net = star_net()
    runs = probabilistic_greedy(net, 0, 3, restarts=4, convergence=float("inf"),
                                rng=0, m=10)
    assert runs == [[], [], [], []]


def test_candidate_scores_single_run_scores_one():
    net = star_net()
    worlds = CascadeWorlds(net, 10, 0)
    scored = candidate_scores([[0]], net, 0, worlds=worlds)
    assert scored.nodes == [0]
    assert scored.scores == [1.0]


def test_candidate_scores_excludes_unpicked_nodes():
    net = star_net()
    worlds = CascadeWorlds(net, 10, 0)
    scored = candidate_scores([[0], [1, 0]], net, 0, worlds=worlds)
    assert 2 not in scored.nodes
    assert set(scored.nodes) == {0, 1}


def test_candidate_scores_match_hand_computation():
    # deterministic 5-node layer: 0 -> 1 -> 2, 3 -> 4 (all certain)
    net = single_layer_net([(0, 1), (1, 2), (3, 4)], 5,
                           probs=[1.0, 1.0, 1.0])
    worlds = CascadeWorlds(net, 4, 0)
    runs = [[0, 3], [3, 1]]
    # spreads: s({0})=3, s({0,3})=5, s({3})=2, s({3,1})=4
    # contributions: node0: 3; node3: (5-3)+2 = 4; node1: 4-2 = 2
    # denominator: 5 + 4 = 9
    scored = candidate_scores(runs, net, 0, worlds=worlds)
    want = {0: 3 / 9, 3: 4 / 9, 1: 2 / 9}
    assert scored.nodes == [3, 0, 1]  # sorted by score desc
    for v, s in zip(scored.nodes, scored.scores):
        assert s == pytest.approx(want[v], abs=1e-12)


def test_candidate_scores_telescope_to_run_spread():
    net = star_net()
    worlds = CascadeWorlds(net, 10, 0)
    base = worlds.baseline([], layers=[0])
    run = [0, 1, 2]
    for v in run:
        base.accept(v)
    total = base.mean_count()
    scored = candidate_scores([run], net, 0, worlds=worlds)
    assert sum(scored.scores) == pytest.approx(1.0, abs=1e-12)
    assert total > 0


def test_candidate_scores_rejects_empty_runs():
    net = star_net()
    with pytest.raises(ValueError, match="empty"):
        candidate_scores([[], []], net, 0, m=5)


def test_select_candidates_gamma_one_keeps_all_members():
    net = two_layer_net([(0, 1)], [(1, 2)], 3)
    sel = select_candidates(None, net, 0, gamma=1.0)
    assert sel.nodes == [0, 1]  # only layer members


def test_select_candidates_keeps_every_scored_node():
    net = star_net()
    scored = CandidateSet([5, 4, 3], [0.5, 0.4, 0.3])
    sel = select_candidates(scored, net, 0, gamma=0.1)
    assert set(sel.nodes) >= {5, 4, 3}


def test_profit_table_structure_and_monotone():
    net = two_layer_net([(0, 1)], [(1, 2)], 3, probs0=[1.0], probs1=[1.0])
    worlds = CascadeWorlds(net, 10, 0)
    cands = [CandidateSet([0, 1], [1.0, 0.5]), CandidateSet([1, 2], [1.0, 0.5])]
    table = build_profit_cost_table(net, cands, 2, worlds=worlds)
    for rows in table.rows:
        assert rows[0].cost == 0 and rows[0].profit == 0.0 and rows[0].seeds == ()
        for j, row in enumerate(rows):
            assert row.cost == j == len(row.seeds)
        profits = [r.profit for r in rows]
        assert profits == sorted(profits)


def test_profit_table_single_layer_equals_layer_spread():
    net = single_layer_net([(0, 1), (1, 2)], 3, probs=[1.0, 1.0])
    worlds = CascadeWorlds(net, 10, 0)
    table = build_profit_cost_table(net, [CandidateSet([0, 1, 2], [1, 1, 1])],
                                    2, worlds=worlds)
    spread = worlds.spread([0], layers=[0]).mean
    assert table.rows[0][1].profit == spread


def test_profit_table_matches_exact_oracle(rng):
    net = random_guarded_instance(rng, max_nodes=7, max_ic_edges=10, num_layers=2)
    worlds = exact_worlds(net)
    cands = [CandidateSet(list(range(net.num_nodes)), [0.0] * net.num_nodes)
             for _ in range(2)]
    table = build_profit_cost_table(net, cands, 2, worlds=worlds)
    for rows in table.rows:
        for row in rows:
            assert row.profit == pytest.approx(exact_spread(net, row.seeds),
                                               abs=1e-9)


def test_profit_table_csv(tmp_path):
    net = two_layer_net([(0, 1)], [(1, 2)], 3)
    table = build_profit_cost_table(
        net, [CandidateSet([0], [1.0]), CandidateSet([1], [1.0])], 1, m=5)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,budget,cost,profit,seeds"
    assert len(lines) == 5
