import itertools

import numpy as np
import pytest

from muxim.network import IC, LT, MultiplexNetwork
from muxim.pgm import (chow_liu_fit, pearson_matrix, tree_condition,
                       variable_grouping)
from muxim import propagation
from muxim.propagation import CascadeWorlds, exact_worlds, record_status_dataset
from muxim.rewards import (ActivationModel, RewardContext, _ShapedObjective,
                           activation_score, reward_shaped_greedy, shaped_spread,
                           shaped_value_rows, step_reward, stochastic_refinement)
from muxim.seeding import celf_greedy

from conftest import (make_layer, random_guarded_instance, single_layer_net,
                      two_layer_net)


def fit_model(net, seeds, layers, m=200, seed=0, xi=0.9):
    data = record_status_dataset(net, seeds, layers, m=m, master_seed=seed)
    corr = pearson_matrix(data)
    part = variable_grouping(data, corr, xi)
    tree = chow_liu_fit(data, part, 1.0) if part.tree_variables() else None
    return ActivationModel(part, tree, corr, net.num_nodes), data


def test_score_is_zero_without_models():
    ctx = RewardContext(0, [])
    assert activation_score(3, {1, 2, 3}, ctx) == 0.0


def test_score_one_for_observed_own_representative():
    # node 1's status flips across runs -> it is its own representative
    net = two_layer_net([(0, 1)], [(1, 2)], 3, probs0=[0.4], probs1=[1.0])
    model, _ = fit_model(net, [0], {0})
    assert 1 in (model.tree.nodes if model.tree else [])
    ctx = RewardContext(1, [model])
    assert activation_score(1, {1}, ctx) == pytest.approx(1.0)


def test_score_matches_two_node_enumeration():
    # hand-built single-edge tree with chosen CPTs; node 2 rides on
    # representative 0 with correlation 0.8.  The score must equal
    # 0.8 times the conditional P(node0 = 1 | node1 = 1) obtained by
    # enumerating the two-variable joint by hand.
    from muxim.pgm import ChowLiuTree, CorrelationMatrix, GroupPartition
    root_marginal = np.array([0.4, 0.6])
    cpt = np.array([[0.9, 0.1], [0.3, 0.7]])  # P(node1 | node0)
    tree = ChowLiuTree(nodes=[0, 1], root=0, parent={1: 0},
                       root_marginal=root_marginal, cpts={1: cpt},
                       edge_mi={(0, 1): 0.2}, pair_computations=1)
    part = GroupPartition(groups=[[0, 2], [1]], representatives=[0, 1],
                          kinds=["correlated", "correlated"],
                          rep_of=np.array([0, 1, 0]))
    values = np.ones((3, 3))
    values[2, 0] = values[0, 2] = 0.8
    corr = CorrelationMatrix(values, np.array([True, True, True]))
    model = ActivationModel(part, tree, corr, 3)
    ctx = RewardContext(0, [model])

    # joint: P(n0=1, n1=1) = 0.6 * 0.7; P(n0=0, n1=1) = 0.4 * 0.1
    cond = (0.6 * 0.7) / (0.6 * 0.7 + 0.4 * 0.1)
    got = activation_score(2, {1, 2}, ctx)  # node 1 observed active
    assert got == pytest.approx(0.8 * cond, abs=1e-12)
    # with no representative observed, the conditional falls to the marginal
    got_marginal = activation_score(2, {2}, ctx)
    assert got_marginal == pytest.approx(0.8 * 0.6, abs=1e-12)


def test_shaped_spread_without_models_equals_layer_spread():
    net = two_layer_net([(0, 1), (1, 2)], [(2, 3)], 4,
                        probs0=[0.6, 0.7], probs1=[0.5])
    worlds = CascadeWorlds(net, 80, 3)
    ctx = RewardContext(0, [])
    assert shaped_spread(net, 0, [0], ctx, worlds=worlds) == \
        worlds.spread([0], layers=[0], per_layer=False).mean


def test_shaped_spread_zero_when_everything_covered():
    # previous layers always activate everyone: every term becomes 1 - 1 = 0
    net = two_layer_net([(0, 1)], [(1, 2)], 3, probs0=[1.0], probs1=[1.0])
    model, data = fit_model(net, [0], {0, 1})
    assert data.rows.all()  # deterministic full coverage
    ctx = RewardContext(1, [model])
    assert shaped_spread(net, 1, [1], ctx, worlds=CascadeWorlds(net, 20, 0)) \
        == pytest.approx(0.0, abs=1e-12)


def test_step_reward_isolated_node_counts_itself():
    net = single_layer_net([(0, 1)], 4, probs=[0.5])  # nodes 2, 3 isolated
    ctx = RewardContext(0, [])
    worlds = CascadeWorlds(net, 50, 1)
    assert step_reward(net, 0, [0], 3, ctx, worlds=worlds) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        step_reward(net, 0, [0], 0, ctx, worlds=worlds)


def test_rewards_telescope_exactly(rng):
    net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16)
    worlds = CascadeWorlds(net, 60, 4)
    ctx = RewardContext(0, [])
    picks, rewards = reward_shaped_greedy(net, 0, 4, list(range(net.num_nodes)),
                                          ctx, worlds=worlds)
    total = shaped_spread(net, 0, picks, ctx, worlds=worlds)
    empty = shaped_spread(net, 0, [], ctx, worlds=worlds)
    assert sum(rewards) == pytest.approx(total - empty, abs=1e-9)


def test_shaped_greedy_degenerates_to_plain_greedy(rng):
    for trial in range(10):
        net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16)
        worlds = CascadeWorlds(net, 50, trial)
        ctx = RewardContext(0, [])
        picks, _ = reward_shaped_greedy(net, 0, 3, list(range(net.num_nodes)),
                                        ctx, worlds=worlds)
        assert picks == celf_greedy(net, 0, 3, list(range(net.num_nodes)),
                                    worlds=worlds)


def shaped_oracle(net, layer, seeds, models, clamp="raw"):
    """Independent shaped spread: enumerate IC worlds, weight terms by 1 - W.

    W is recomputed per world from scratch: per model, pick the largest
    brute-force tree conditional given the activated representatives, then
    multiply by that model's Pearson column.
    """
    worlds = exact_worlds(net)
    active = worlds.activated_matrix(seeds, layers=[layer])
    total = 0.0
    for w in range(worlds.m):
        row = active[w]
        value = 0.0
        for u in np.flatnonzero(row):
            best_cond, best_model = 0.0, None
            for mdl in models:
                rep = int(mdl.partition.rep_of[u])
                kind = mdl.partition.kind_of_rep(rep)
                if kind == "always_on":
                    cond = 1.0
                elif kind == "always_off":
                    cond = 0.0
                else:
                    evidence = {int(v): 1 for v in mdl.tree.nodes if row[v]}
                    cond = brute_tree_condition(mdl.tree, rep, evidence)
                if cond > best_cond:
                    best_cond, best_model = cond, mdl
            if best_model is None:
                best_model = models[0]
            score = best_model.rep_corr[u] * best_cond
            if clamp == "clamp01":
                score = min(max(score, 0.0), 1.0)
            value += 1.0 - score
        total += worlds.weights[w] * value
    return total


def brute_tree_condition(tree, query, evidence):
    if query in evidence:
        return float(evidence[query])
    num = den = 0.0
    for vals in itertools.product([0, 1], repeat=len(tree.nodes)):
        assign = dict(zip(tree.nodes, vals))
        if any(assign[k] != v for k, v in evidence.items()):
            continue
        p = tree.root_marginal[assign[tree.root]]
        for child, par in tree.parent.items():
            p *= tree.cpts[child][assign[par], assign[child]]
        den += p
        if assign[query] == 1:
            num += p
    return num / den


def test_shaped_spread_matches_reweighted_exact_oracle():
    net = two_layer_net([(0, 1), (0, 2), (2, 3)], [(1, 4), (3, 4), (4, 5)], 6,
                        probs0=[0.7, 0.5, 0.6], probs1=[0.6, 0.5, 0.8],
                        members0=range(6), members1=range(6))
    model, _ = fit_model(net, [0], {0}, m=300, seed=2, xi=0.6)
    ctx = RewardContext(1, [model])
    worlds = exact_worlds(net)
    for seeds in ([1], [4], [1, 3]):
        got = shaped_spread(net, 1, seeds, ctx, worlds=worlds)
        want = shaped_oracle(net, 1, seeds, [model])
        assert got == pytest.approx(want, abs=1e-9)


def test_shaped_greedy_avoids_fully_covered_candidate():
    # layer 0 deterministically reaches {0,1,2}; layer 1 offers node 1
    # (fully covered) vs node 4 (fresh chain): the shaped pick must be 4
    net = two_layer_net([(0, 1), (1, 2)], [(1, 2), (4, 5)], 6,
                        probs0=[1.0, 1.0], probs1=[1.0, 1.0],
                        members0=[0, 1, 2], members1=[1, 2, 4, 5])
    model, _ = fit_model(net, [0], {0})
    ctx = RewardContext(1, [model])
    worlds = CascadeWorlds(net, 30, 5)
    picks, _ = reward_shaped_greedy(net, 1, 1, [1, 4], ctx, worlds=worlds)
    assert picks == [4]
    # plain greedy prefers the longer chain through covered ground
    assert celf_greedy(net, 1, 1, [1, 4], worlds=worlds) == [1]


def test_clamp_mode_bounds_scores():
    rng = np.random.default_rng(3)
    x = (rng.random(300) < 0.5).astype(np.uint8)
    y = (1 - x ^ (rng.random(300) < 0.1)).astype(np.uint8)  # anti-correlated
    data = np.column_stack([x, y]).astype(np.uint8)
    corr = pearson_matrix(data)
    part = variable_grouping(data, corr, 0.95)
    tree = chow_liu_fit(data, part, 1.0)
    model = ActivationModel(part, tree, corr, 2)
    assert (model.rep_corr < 0).any() or True  # negative column may exist
    raw = RewardContext(0, [model], clamp="raw")
    clamped = RewardContext(0, [model], clamp="clamp01")
    row = np.array([True, True])
    for u in (0, 1):
        s_raw = activation_score(u, row, raw)
        s_cl = activation_score(u, row, clamped)
        assert 0.0 <= s_cl <= 1.0
        assert s_cl == pytest.approx(min(max(s_raw, 0.0), 1.0))


def test_refinement_single_rollout_is_greedy(rng):
    net = random_guarded_instance(rng, max_nodes=10, max_ic_edges=12)
    worlds = CascadeWorlds(net, 40, 2)
    ctx = RewardContext(0, [])
    greedy, _ = reward_shaped_greedy(net, 0, 3, list(range(net.num_nodes)),
                                     ctx, worlds=worlds)
    refined = stochastic_refinement(net, 0, 3, list(range(net.num_nodes)),
                                    ctx, worlds=worlds, temperature=1e-12,
                                    restarts=1, rng=0)
    assert refined == greedy


def test_refinement_never_worse(rng):
    for trial in range(5):
        net = random_guarded_instance(rng, max_nodes=10, max_ic_edges=12)
        worlds = CascadeWorlds(net, 40, trial)
        ctx = RewardContext(0, [])
        nodes = list(range(net.num_nodes))
        greedy, _ = reward_shaped_greedy(net, 0, 3, nodes, ctx, worlds=worlds)
        refined = stochastic_refinement(net, 0, 3, nodes, ctx, worlds=worlds,
                                        temperature=0.5, restarts=12, rng=trial)
        g = shaped_spread(net, 0, greedy, ctx, worlds=worlds)
        r = shaped_spread(net, 0, refined, ctx, worlds=worlds)
        assert r >= g - 1e-12


def test_refinement_beats_greedy_on_coverage_trap():
    # classic max-cover trap: the big set first is strictly suboptimal
    edges = ([(0, 3), (0, 4), (0, 5)] +        # node 0 covers x1..x3
             [(1, 3), (1, 4), (1, 6)] +        # node 1 covers x1, x2, x4
             [(2, 5), (2, 7)])                 # node 2 covers x3, x5
    net = single_layer_net(edges, 8, probs=[1.0] * 8)
    worlds = CascadeWorlds(net, 5, 0)
    ctx = RewardContext(0, [])
    nodes = [0, 1, 2]
    greedy, _ = reward_shaped_greedy(net, 0, 2, nodes, ctx, worlds=worlds)
    assert shaped_spread(net, 0, greedy, ctx, worlds=worlds) == 6.0
    best = max(
        (shaped_spread(net, 0, list(pair), ctx, worlds=worlds)
         for pair in itertools.combinations(nodes, 2)))
    assert best == 7.0  # {1, 2} covers everything
    refined = stochastic_refinement(net, 0, 2, nodes, ctx, worlds=worlds,
                                    temperature=1.0, restarts=200, rng=1)
    assert shaped_spread(net, 0, refined, ctx, worlds=worlds) == best


def _model_stack(kind, num_models, alpha, seed, pinned):
    """Four-layer multiplex over ten nodes plus `num_models` fitted models.

    `kind` picks the layer models (all IC, all LT, or LT/IC alternating);
    the shaped objective runs on layer 3.  IC layers below it carry one edge
    each, so exact worlds stay few; `pinned` fixes LT thresholds, which exact
    enumeration needs.  The models are fitted to status data of four noisy
    latent factors plus an always-on and an always-off node, so their trees
    span several variables.
    """
    rng = np.random.default_rng(seed)
    n = 10
    models = {"ic": [IC] * 4, "lt": [LT] * 4, "mixed": [LT, IC, LT, IC]}[kind]
    layers = []
    for i, model in enumerate(models):
        size = (6 if i == 3 else 1) if model == IC else 12
        pairs = rng.choice(n * (n - 1), size=size, replace=False)
        a, b = np.divmod(pairs, n - 1)
        edges = np.column_stack([a, b + (b >= a)])
        if model == IC:
            layers.append(make_layer(i, IC, edges, n, probs=0.3 + 0.6 * rng.random(size)))
        else:
            thresholds = 0.1 + 0.6 * rng.random(n) if pinned else None
            layers.append(make_layer(i, LT, edges, n, weights=0.1 + 0.4 * rng.random(size),
                                     thresholds=thresholds))
    net = MultiplexNetwork(n, layers, np.ones((4, n), dtype=bool))
    fitted = []
    for _ in range(num_models):
        latent = rng.random((120, 4)) < 0.5
        data = latent[:, rng.integers(0, 4, n)] ^ (rng.random((120, n)) < 0.08)
        data[:, rng.choice(n, 2, replace=False)] = [True, False]
        data = data.astype(np.uint8)
        corr = pearson_matrix(data)
        part = variable_grouping(data, corr, 0.6)
        fitted.append(ActivationModel(part, chow_liu_fit(data, part, alpha), corr, n))
    return net, fitted


def _stacked_scores(active, ctx):
    """Node scores by stacking every model's conditionals and taking argmax."""
    stacked = np.stack([mdl.conditionals_matrix(active) for mdl in ctx.models])
    best = stacked.argmax(axis=0)  # earlier models win ties
    cond = np.take_along_axis(stacked, best[None], axis=0)[0]
    corrs = np.stack([mdl.rep_corr for mdl in ctx.models])
    w = corrs[best, np.arange(active.shape[1])[None, :]] * cond
    return np.clip(w, 0.0, 1.0) if ctx.clamp == "clamp01" else w


def _lone_gain(obj, v):
    """One candidate's shaped gain, re-scoring its extended worlds from scratch."""
    world, sub, _ = obj.base.extend_rows(v)
    if world.size == 0:
        return 0.0
    delta = shaped_value_rows(sub, obj.ctx) - obj.rows[world]
    if obj.weights is not None:
        return float(delta @ obj.weights[world])
    return float(delta.sum() / obj.m)


@pytest.mark.parametrize("budget", [1000, 1 << 14])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("clamp", ["raw", "clamp01"])
@pytest.mark.parametrize("num_models", [0, 1, 3])
@pytest.mark.parametrize("kind", ["ic", "lt", "mixed"])
def test_batched_shaped_gains_are_bit_exact(kind, num_models, clamp, alpha, exact,
                                            budget, monkeypatch):
    # a small byte budget forces engine chunks and score slices of a few rows
    monkeypatch.setattr(propagation, "GAIN_CHUNK_BYTES", budget)
    net, models = _model_stack(kind, num_models, alpha, 11 + num_models, pinned=exact)
    worlds = exact_worlds(net) if exact else CascadeWorlds(net, 150, 3)
    ctx = RewardContext(3, models, clamp)
    obj = _ShapedObjective(3, ctx, worlds)
    if models:
        assert obj.w.tobytes() == _stacked_scores(obj.base.active, ctx).tobytes()
    nodes = list(range(net.num_nodes))
    for _ in range(3):
        got = obj.gains(nodes)
        want = np.array([_lone_gain(obj, v) for v in nodes])
        assert got.tobytes() == want.tobytes()
        assert obj.gain(nodes[-1]) == want[-1]
        v = nodes.pop(int(np.argmax(got)))
        obj.accept(v)
        assert obj.rows.tobytes() == shaped_value_rows(obj.base.active, ctx).tobytes()
        if models:
            assert obj.w.tobytes() == _stacked_scores(obj.base.active, ctx).tobytes()


def test_refinement_reuses_callers_greedy_picks(rng):
    net, models = _model_stack("mixed", 2, 1.0, 5, pinned=False)
    worlds = CascadeWorlds(net, 40, 9)
    ctx = RewardContext(3, models)
    nodes = list(range(net.num_nodes))
    picks, _ = reward_shaped_greedy(net, 3, 3, nodes, ctx, worlds=worlds)
    kwargs = dict(worlds=worlds, temperature=0.3, restarts=4)
    assert stochastic_refinement(net, 3, 3, nodes, ctx, rng=7, greedy_picks=picks,
                                 **kwargs) == \
        stochastic_refinement(net, 3, 3, nodes, ctx, rng=7, **kwargs)
