import itertools

import numpy as np
import pytest

from muxim import pipeline, rewards
from muxim.network import IC, LT, GeneratorConfig, MultiplexNetwork, generate_synthetic
from muxim.pgm import (GROUP_ALWAYS_OFF, GROUP_ALWAYS_ON, GROUP_CORRELATED,
                       ChowLiuTree, chow_liu_fit, pearson_matrix, tree_condition,
                       variable_grouping)
from muxim import propagation
from muxim.propagation import CascadeWorlds, exact_worlds, record_status_dataset
from muxim.rewards import (ActivationModel, RewardContext, _ShapedObjective,
                           activation_score, reward_shaped_greedy, shaped_spread,
                           shaped_value_rows, step_reward, stochastic_refinement)
from muxim.pipeline import SolverConfig, run_reasoner
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
    assert shaped_spread(worlds, [0], ctx) == \
        worlds.spread([0], layers=[0], per_layer=False).mean


def test_shaped_spread_zero_when_everything_covered():
    # previous layers always activate everyone: every term becomes 1 - 1 = 0
    net = two_layer_net([(0, 1)], [(1, 2)], 3, probs0=[1.0], probs1=[1.0])
    model, data = fit_model(net, [0], {0, 1})
    assert data.rows.all()  # deterministic full coverage
    ctx = RewardContext(1, [model])
    assert shaped_spread(CascadeWorlds(net, 20, 0), [1], ctx) \
        == pytest.approx(0.0, abs=1e-12)


def test_step_reward_isolated_node_counts_itself():
    net = single_layer_net([(0, 1)], 4, probs=[0.5])  # nodes 2, 3 isolated
    ctx = RewardContext(0, [])
    worlds = CascadeWorlds(net, 50, 1)
    assert step_reward(worlds, [0], 3, ctx) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        step_reward(worlds, [0], 0, ctx)


def test_rewards_telescope_exactly(rng):
    net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16)
    worlds = CascadeWorlds(net, 60, 4)
    ctx = RewardContext(0, [])
    picks, rewards = reward_shaped_greedy(worlds, 4, list(range(net.num_nodes)), ctx)
    total = shaped_spread(worlds, picks, ctx)
    empty = shaped_spread(worlds, [], ctx)
    assert sum(rewards) == pytest.approx(total - empty, abs=1e-9)


def test_shaped_greedy_degenerates_to_plain_greedy(rng):
    for trial in range(10):
        net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16)
        worlds = CascadeWorlds(net, 50, trial)
        ctx = RewardContext(0, [])
        picks, _ = reward_shaped_greedy(worlds, 3, list(range(net.num_nodes)), ctx)
        assert picks == celf_greedy(worlds, 0, 3, list(range(net.num_nodes)))


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
        got = shaped_spread(worlds, seeds, ctx)
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
    picks, _ = reward_shaped_greedy(worlds, 1, [1, 4], ctx)
    assert picks == [4]
    # plain greedy prefers the longer chain through covered ground
    assert celf_greedy(worlds, 1, 1, [1, 4]) == [1]


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
    greedy, _ = reward_shaped_greedy(worlds, 3, list(range(net.num_nodes)), ctx)
    refined = stochastic_refinement(worlds, 3, list(range(net.num_nodes)),
                                    ctx, greedy, temperature=1e-12,
                                    restarts=1, rng=0)
    assert refined == greedy


def test_refinement_never_worse(rng):
    for trial in range(5):
        net = random_guarded_instance(rng, max_nodes=10, max_ic_edges=12)
        worlds = CascadeWorlds(net, 40, trial)
        ctx = RewardContext(0, [])
        nodes = list(range(net.num_nodes))
        greedy, _ = reward_shaped_greedy(worlds, 3, nodes, ctx)
        refined = stochastic_refinement(worlds, 3, nodes, ctx, greedy,
                                        temperature=0.5, restarts=12, rng=trial)
        g = shaped_spread(worlds, greedy, ctx)
        r = shaped_spread(worlds, refined, ctx)
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
    greedy, _ = reward_shaped_greedy(worlds, 2, nodes, ctx)
    assert shaped_spread(worlds, greedy, ctx) == 6.0
    best = max(
        (shaped_spread(worlds, list(pair), ctx)
         for pair in itertools.combinations(nodes, 2)))
    assert best == 7.0  # {1, 2} covers everything
    refined = stochastic_refinement(worlds, 2, nodes, ctx, greedy,
                                    temperature=1.0, restarts=200, rng=1)
    assert shaped_spread(worlds, refined, ctx) == best


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
    if obj.worlds.weights is not None:
        return float(delta @ obj.worlds.weights[world])
    return float(delta.sum() / obj.worlds.m)


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
    obj = _ShapedObjective(ctx, worlds)
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


def _record_keys_and_patterns(monkeypatch):
    """Lists of (model, rows keyed) and (tree id, evidence row bytes solved)."""
    keyed, solved = [], []
    posteriors, condition_batch = ActivationModel.posteriors, ChowLiuTree.condition_batch

    def counted_posteriors(self, flags, memo):
        keyed.append((self, flags.shape[0]))
        return posteriors(self, flags, memo)

    def counted_condition_batch(self, evidence):
        solved.extend((id(self), row.tobytes()) for row in evidence)
        return condition_batch(self, evidence)

    monkeypatch.setattr(ActivationModel, "posteriors", counted_posteriors)
    monkeypatch.setattr(ChowLiuTree, "condition_batch", counted_condition_batch)
    return keyed, solved


@pytest.mark.parametrize("kind", ["ic", "lt", "mixed"])
def test_scan_keys_each_changed_row_once(kind, monkeypatch):
    monkeypatch.setattr(propagation, "GAIN_CHUNK_BYTES", 4000)
    net, models = _model_stack(kind, 3, 1.0, 14, pinned=False)
    keyed, solved = _record_keys_and_patterns(monkeypatch)
    obj = _ShapedObjective(RewardContext(3, models), CascadeWorlds(net, 150, 3))
    assert any(mdl.tree_nodes.size for mdl in models)
    nodes = list(range(net.num_nodes))
    total = 0
    for _ in range(3):
        changed = 0
        for v in nodes:
            world, sub, _ = obj.base.extend_rows(v)
            changed += int((sub[:, obj.tree_vars] != obj.flags[world]).any(axis=1).sum())
        keyed.clear()
        gains = obj.gains(nodes)
        for mdl in models:
            want = changed if mdl.tree_nodes.size else 0
            assert sum(rows for who, rows in keyed if who is mdl) == want
        total += changed
        obj.accept(nodes.pop(int(np.argmax(gains))))
    assert total > 0
    # over the context's life, every tree solves each evidence pattern once
    assert len(set(solved)) == len(solved) > 0


def test_memo_lives_in_the_reward_context():
    net, models = _model_stack("mixed", 2, 1.0, 5, pinned=False)
    assert models[0].tree_nodes.size
    worlds = CascadeWorlds(net, 40, 9)
    own = models[:1]
    first = RewardContext(3, own)
    own.append(models[1])  # the caller's list grows after the context is made
    assert first.models == models[:1] and len(first.memos) == 1
    second = RewardContext(3, models)
    reward_shaped_greedy(worlds, 3, range(net.num_nodes), first)
    assert first.memos[0] and not any(second.memos)
    assert first.memos[0] is not second.memos[0]
    for mdl in models:
        assert not any(isinstance(v, dict) for v in vars(mdl).values())


def test_reasoner_contexts_keep_models_and_memos_aligned(monkeypatch):
    made = []

    class Recorded(RewardContext):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    monkeypatch.setattr(pipeline, "RewardContext", Recorded)
    net = generate_synthetic(GeneratorConfig([12, 16, 20], 90, 0.5, [IC] * 3, rng_seed=5))
    sol = run_reasoner(net, 5, SolverConfig(m=60, master_seed=5, gamma=1.0, refine=True))
    # run_reasoner appends each layer's model to the list the contexts came from
    assert [len(ctx.models) for ctx in made] == [1, 2] and len(sol.models) == 2
    for ctx in made:
        assert ctx.models == sol.models[:len(ctx.models)]
        assert len(ctx.memos) == len(ctx.models)
        assert [bool(memo) for memo in ctx.memos] == \
            [bool(mdl.tree_nodes.size) for mdl in ctx.models]


def _per_node_fields(partition, tree, corr, n):
    """rep_corr, kind and rep_slot filled node by node."""
    rep_corr, kind = np.ones(n), np.zeros(n, dtype=np.int8)
    rep_slot = np.full(n, -1, dtype=np.int64)
    kind_by_rep = dict(zip(partition.representatives, partition.kinds))
    slot = {v: i for i, v in enumerate(tree.nodes if tree is not None else [])}
    for u in range(n):
        rep = int(partition.rep_of[u])
        q = corr.values[u, rep]
        rep_corr[u] = 1.0 if np.isnan(q) else float(q)
        if kind_by_rep[rep] == GROUP_ALWAYS_ON:
            kind[u] = 1
        elif kind_by_rep[rep] == GROUP_ALWAYS_OFF:
            kind[u] = 2
        else:
            rep_slot[u] = slot[rep]
    return rep_corr, kind, rep_slot


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("constant_only", [False, True])
def test_activation_model_fields_match_per_node_loop(seed, constant_only):
    rng = np.random.default_rng(seed)
    n = 14
    latent = rng.random((80, 3)) < 0.5
    data = latent[:, rng.integers(0, 3, n)] ^ (rng.random((80, n)) < 0.1)
    on, off = np.split(rng.choice(n, 4, replace=False), 2)
    data[:, on], data[:, off] = True, False
    if constant_only:  # no correlated group, so no tree
        data[:] = rng.random(n) < 0.5
    data = data.astype(np.uint8)
    corr = pearson_matrix(data)
    part = variable_grouping(data, corr, 0.6)
    tree = chow_liu_fit(data, part, 1.0) if part.tree_variables() else None
    kinds = {GROUP_ALWAYS_ON, GROUP_ALWAYS_OFF} | ({GROUP_CORRELATED} if not constant_only
                                                  else set())
    assert set(part.kinds) == kinds and np.isnan(corr.values).any()
    model = ActivationModel(part, tree, corr, n)
    rep_corr, kind, rep_slot = _per_node_fields(part, tree, corr, n)
    assert model.rep_corr.tobytes() == rep_corr.tobytes()
    assert model.kind.tobytes() == kind.tobytes()
    assert model.rep_slot.tobytes() == rep_slot.tobytes()


def _refine_replaying_every_rollout(budget, nodes, ctx, worlds, temperature,
                                    restarts, rng, greedy_picks):
    """Softmax rollouts, each re-scored by a fresh replay; best value wins."""
    rollouts = [list(greedy_picks)]
    for _ in range(restarts - 1):
        obj = _ShapedObjective(ctx, worlds)
        picks = []
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
                p = np.exp((gains - gains.max()) / temperature)
                v = remaining[int(rng.choice(len(remaining), p=p / p.sum()))]
            obj.accept(v)
            picks.append(v)
        rollouts.append(picks)

    def final_value(picks):
        obj = _ShapedObjective(ctx, worlds)
        for v in picks:
            obj.accept(v)
        return obj.value

    return rollouts[int(np.argmax([final_value(p) for p in rollouts]))]


@pytest.mark.parametrize("kind, seed", [("ic", 1), ("lt", 2), ("mixed", 3), ("mixed", 4)])
def test_refinement_scores_rollouts_by_their_own_objective(kind, seed, monkeypatch):
    net, models = _model_stack(kind, 2, 1.0, seed, pinned=False)
    worlds = CascadeWorlds(net, 40, seed)
    nodes = list(range(net.num_nodes))
    built = []

    class Recorded(_ShapedObjective):
        def __init__(self, *args):
            super().__init__(*args)
            self.accepted = []
            built.append(self)

        def accept(self, v):
            super().accept(v)
            self.accepted.append(v)

    monkeypatch.setattr(rewards, "_ShapedObjective", Recorded)
    for temperature in (1e-10, 0.05, 0.3, 2.0):
        ctx = RewardContext(3, models)
        greedy, _ = reward_shaped_greedy(worlds, 3, nodes, ctx)
        want = _refine_replaying_every_rollout(
            3, nodes, RewardContext(3, models), worlds, temperature, 5,
            np.random.default_rng(seed), greedy)
        built.clear()
        got = stochastic_refinement(worlds, 3, nodes, ctx,
                                    temperature=temperature, restarts=5, rng=seed,
                                    greedy_picks=greedy)
        assert got == want
        assert len(built) == 5  # the greedy replay and four rollouts
        assert built[0].accepted == greedy
        for obj in built:
            fresh = _ShapedObjective(RewardContext(3, models), worlds)
            for v in obj.accepted:
                fresh.accept(v)
            assert fresh.rows.tobytes() == obj.rows.tobytes()
            assert fresh.value == obj.value
