import json

import numpy as np
import pytest

from muxim import propagation
from muxim.network import IC, LT, GeneratorConfig, MultiplexNetwork, generate_synthetic
from muxim.propagation import (CascadeWorlds, GuardError, estimate_spread,
                               exact_activation_probabilities, exact_spread,
                               exact_worlds, per_layer_spread,
                               record_status_dataset, simulate_once)

from conftest import (make_layer, random_guarded_instance, single_layer_net,
                      two_layer_net)


def chain_two_layer():
    # layer 0: a->b (p=1), layer 1: b->c (p=1); b bridges the layers
    return two_layer_net([(0, 1)], [(1, 2)], 3, probs0=[1.0], probs1=[1.0])


def test_empty_seed_set_activates_nothing():
    trace = simulate_once(chain_two_layer(), [], rng_seed=0)
    assert trace.activated == set()


def test_overlapping_activation_bridges_layers():
    trace = simulate_once(chain_two_layer(), [0], rng_seed=0)
    assert trace.activated == {0, 1, 2}
    assert trace.per_layer_activated[0] == {0, 1}
    assert trace.per_layer_activated[1] == {1, 2}
    assert trace.activation_round == {0: 0, 1: 1, 2: 2}


def test_lt_needs_both_neighbors():
    net = single_layer_net([(0, 2), (1, 2)], 3, model=LT,
                           weights=[0.5, 0.5], thresholds=[1.0, 1.0, 0.6])
    assert simulate_once(net, [0], rng_seed=0).activated == {0}
    assert simulate_once(net, [0, 1], rng_seed=0).activated == {0, 1, 2}


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError, match="seed id"):
        simulate_once(chain_two_layer(), [99], rng_seed=0)


def test_deterministic_network_has_zero_stderr():
    est = estimate_spread(chain_two_layer(), [0], m=40, master_seed=5)
    assert est.mean == 3.0
    assert est.stderr == 0.0


def test_monte_carlo_matches_closed_form_single_edge():
    net = single_layer_net([(0, 1)], 2, probs=[0.5])
    assert exact_spread(net, [0]) == 1.5
    est = estimate_spread(net, [0], m=100000, master_seed=11)
    assert abs(est.mean - 1.5) <= 3 * est.stderr


def test_default_simulation_count_is_100():
    import inspect
    sig = inspect.signature(estimate_spread)
    assert sig.parameters["m"].default == 100


def test_estimate_is_deterministic():
    net = random_guarded_instance(np.random.default_rng(3), num_layers=2)
    a = estimate_spread(net, [0, 1], m=200, master_seed=42)
    b = estimate_spread(net, [0, 1], m=200, master_seed=42)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_per_layer_spread_single_layer_equals_total():
    net = single_layer_net([(0, 1), (1, 2)], 3, probs=[1.0, 1.0])
    trace = simulate_once(net, [0], rng_seed=0)
    assert per_layer_spread(trace, 0) == len(trace.activated) == 3


def test_per_layer_spread_counts_copies():
    trace = simulate_once(chain_two_layer(), [0], rng_seed=0)
    # node 1 is activated inside layer 0 and copied into layer 1
    assert 1 in trace.per_layer_activated[1]
    assert per_layer_spread(trace, 1) == 2.0


def test_per_layer_sum_dominates_total_with_overlap():
    trace = simulate_once(chain_two_layer(), [0], rng_seed=0)
    total = len(trace.activated)
    assert sum(per_layer_spread(trace, i) for i in range(2)) >= total
    est = estimate_spread(chain_two_layer(), [0], m=20, master_seed=0)
    assert per_layer_spread(est, 0) == est.per_layer_mean[0]
    assert est.per_layer_mean.sum() >= est.mean


def test_per_layer_spread_range_checks():
    trace = simulate_once(chain_two_layer(), [0], rng_seed=0)
    with pytest.raises(ValueError):
        per_layer_spread(trace, 5)
    with pytest.raises(TypeError):
        per_layer_spread([1, 2, 3], 0)


def test_exact_spread_chain_enumeration():
    net = single_layer_net([(0, 1), (1, 2)], 3, probs=[0.5, 0.5])
    assert exact_spread(net, [0]) == pytest.approx(1.75, abs=1e-12)


def test_exact_spread_lt_only_is_deterministic_simulation():
    net = single_layer_net([(0, 1)], 3, model=LT, weights=[1.0],
                           thresholds=[1.0, 0.8, 1.0])
    trace = simulate_once(net, [0], rng_seed=0)
    assert exact_spread(net, [0]) == float(len(trace.activated))


def test_exact_guard_rejects_large_instances():
    rng = np.random.default_rng(0)
    net = random_guarded_instance(rng, max_nodes=10, max_ic_edges=12)
    big = generate_synthetic(GeneratorConfig([10, 10], 40, 0.2, [IC, IC], rng_seed=0))
    with pytest.raises(GuardError, match="IC edges"):
        exact_spread(big, [0])
    # LT without fixed thresholds is not enumerable either
    lt = single_layer_net([(0, 1)], 2, model=LT, weights=[1.0], thresholds=None)
    with pytest.raises(GuardError, match="thresholds"):
        exact_spread(lt, [0])
    assert exact_spread(net, [0]) >= 1.0



EXACT_CALLS = {
    "exact_worlds": lambda net, layers: exact_worlds(net, layers=layers),
    "exact_spread": lambda net, layers: exact_spread(net, [0], layers=layers),
    "exact_activation_probabilities":
        lambda net, layers: exact_activation_probabilities(net, [0], layers=layers),
}


@pytest.mark.parametrize("layers, bad", [([5], 5), ([7], 7), ([-1], -1), ([0, 3], 3)])
@pytest.mark.parametrize("call", sorted(EXACT_CALLS))
def test_exact_enumeration_rejects_layers_out_of_range(call, layers, bad):
    # the last layer alone exceeds the exact guard, so a scope that read
    # layer -1 as the last layer would fail with a GuardError instead
    n = 8
    dense = [(a, b) for a in range(n) for b in range(n)
             if a != b][:propagation.EXACT_IC_EDGE_GUARD + 4]
    net = MultiplexNetwork(n, [make_layer(0, IC, [(0, 1)], n, probs=[0.5]),
                               make_layer(1, IC, [(1, 2)], n, probs=[0.5]),
                               make_layer(2, IC, dense, n, probs=np.full(len(dense), 0.5))],
                           np.ones((3, n), dtype=bool))
    with pytest.raises(ValueError, match=f"^layer {bad} out of range$"):
        EXACT_CALLS[call](net, layers)

def test_monte_carlo_tracks_exact_oracle(rng):
    for trial in range(5):
        net = random_guarded_instance(rng, max_nodes=8, max_ic_edges=10,
                                      num_layers=2)
        seeds = [0, 1]
        exact = exact_spread(net, seeds)
        est = estimate_spread(net, seeds, m=30000, master_seed=trial)
        assert abs(est.mean - exact) <= 3 * max(est.stderr, 1e-9)


def test_exact_monotone_in_seeds(rng):
    for _ in range(5):
        net = random_guarded_instance(rng, max_nodes=8, max_ic_edges=10)
        base = exact_spread(net, [0])
        for v in range(1, net.num_nodes):
            assert exact_spread(net, [0, v]) >= base - 1e-12


def test_exact_submodular_spot_check(rng):
    for _ in range(5):
        net = random_guarded_instance(rng, max_nodes=8, max_ic_edges=10)
        nodes = list(range(net.num_nodes))
        a = set(rng.choice(nodes, size=2, replace=False).tolist())
        b = set(rng.choice(nodes, size=2, replace=False).tolist())
        sa, sb = exact_spread(net, a), exact_spread(net, b)
        su = exact_spread(net, a | b)
        si = exact_spread(net, a & b)
        assert sa + sb >= su + si - 1e-9


def test_overlap_closure_invariant(rng):
    net = generate_synthetic(GeneratorConfig([10, 14], 60, 0.5, [IC, IC], rng_seed=1))
    for seed in range(5):
        trace = simulate_once(net, [0, 3], rng_seed=seed)
        for v in trace.activated:
            for i in range(net.num_layers):
                if net.member[i][v]:
                    assert v in trace.per_layer_activated[i]


def test_trace_json_export():
    trace = simulate_once(chain_two_layer(), [0], rng_seed=0)
    doc = json.loads(trace.to_json())
    assert doc["activated"] == [0, 1, 2]
    assert doc["per_layer_activated"] == [[0, 1], [1, 2]]
    assert doc["activation_round"]["2"] == 2


def test_status_dataset_columns():
    net = chain_two_layer()
    data = record_status_dataset(net, [0], {0, 1}, m=25, master_seed=0)
    assert data.rows.shape == (25, 3)
    # deterministic chain: every node always active
    assert data.rows.all()
    # restricting to layer 0 leaves node 2 unreached
    data0 = record_status_dataset(net, [0], {0}, m=25, master_seed=0)
    assert data0.rows[:, 2].sum() == 0
    assert data0.rows[:, 1].all()


def test_status_dataset_validation():
    net = chain_two_layer()
    with pytest.raises(ValueError, match="layers_so_far"):
        record_status_dataset(net, [0], set(), m=10, master_seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        record_status_dataset(net, [0], {0}, m=1, master_seed=0)


def test_status_dataset_matches_exact_marginals(rng):
    net = random_guarded_instance(rng, max_nodes=7, max_ic_edges=9)
    probs = exact_activation_probabilities(net, [0])
    data = record_status_dataset(net, [0], {0}, m=60000, master_seed=1)
    freq = data.rows.mean(axis=0)
    assert np.abs(freq - probs).max() < 0.02


def test_status_dataset_csv_export(tmp_path):
    net = chain_two_layer()
    data = record_status_dataset(net, [0], {0}, m=5, master_seed=0)
    path = tmp_path / "status.csv"
    data.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_0,node_1,node_2"
    assert len(lines) == 6


# -- engine against a test-local fixpoint closure ---------------------------

def random_multiplex(rng, models, pinned, n=None, edges_per_layer=(4, 14)):
    """Random multiplex with partial membership; pinned LT thresholds
    include zeros, so the first-round sweep has something to fire."""
    n = int(rng.integers(5, 12)) if n is None else n
    layers, member = [], np.zeros((len(models), n), dtype=bool)
    for i, model in enumerate(models):
        nodes = np.sort(rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False))
        member[i, nodes] = True
        k = nodes.size
        pairs = rng.choice(k * (k - 1), size=min(int(rng.integers(*edges_per_layer)),
                                                 k * (k - 1)), replace=False)
        a, b = np.divmod(pairs, k - 1)
        b = b + (b >= a)
        edges = np.column_stack([nodes[a], nodes[b]])
        thresholds = None
        if model == LT and pinned:
            thresholds = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(0.2, 0.9, n))
        layers.append(make_layer(i, model, edges, n, probs=rng.uniform(0.2, 0.9, len(edges)),
                                 weights=rng.uniform(0.1, 0.6, len(edges)),
                                 thresholds=thresholds))
        if model == LT:
            layers[-1].normalize_lt_weights(n)
    return MultiplexNetwork(n, layers, member)


def reference_closure(worlds, w, seeds, layers=None):
    """Round-synchronous closure of one world, one edge at a time.

    Returns {node: activation round}.  Every round tests every LT node, so
    a zero threshold fires once any seed is active.
    """
    net = worlds.net
    scope = range(net.num_layers) if layers is None else sorted(layers)
    rounds = {int(v): 0 for v in seeds}
    frontier = set(rounds)
    acc = {i: np.zeros(net.num_nodes) for i in scope if net.layers[i].model == LT}
    r = 0
    while frontier:
        r += 1
        hits = set()
        for i in scope:
            layer = net.layers[i]
            for j, (s, d) in enumerate(layer.edges.tolist()):
                if s not in frontier:
                    continue
                if layer.model == IC and worlds._live[i][w, j]:
                    hits.add(d)
                elif layer.model == LT:
                    acc[i][d] += layer.weights[j]
            if layer.model == LT:
                theta = worlds._theta[i]
                theta = theta[0] if theta.shape[0] == 1 else theta[w]
                for u in np.flatnonzero(net.member[i] & (acc[i] >= theta - 1e-12)):
                    hits.add(int(u))
        frontier = hits - set(rounds)
        rounds.update((v, r) for v in frontier)
    return rounds


ENGINE_CASES = [([IC], True), ([LT], True), ([LT], False), ([IC, LT], True),
                ([LT, IC, LT], False), ([IC, IC], True)]


@pytest.mark.parametrize("models, pinned", ENGINE_CASES)
def test_run_matches_reference_closure(models, pinned):
    rng = np.random.default_rng(len(models) * 10 + pinned)
    for trial in range(6):
        net = random_multiplex(rng, models, pinned)
        n, m = net.num_nodes, 7
        worlds = CascadeWorlds(net, m, trial, record_rounds=True)
        seeds = rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()
        for layers in [None] + [[i] for i in range(len(models))]:
            active, _, rounds = worlds.run(seeds, layers=layers)
            for w in range(m):
                ref = reference_closure(worlds, w, seeds, layers)
                assert set(np.flatnonzero(active[w]).tolist()) == set(ref)
                assert {int(v): int(rounds[w, v]) for v in np.flatnonzero(active[w])} == ref
            # rows: a subset of worlds, in any order and with repeats
            rows = rng.choice(m, size=5)
            sub, _, sub_rounds = worlds.run(seeds, layers=layers, rows=rows)
            assert np.array_equal(sub, active[rows])
            assert np.array_equal(sub_rounds, rounds[rows])


@pytest.mark.parametrize("models, pinned", ENGINE_CASES)
def test_run_extends_a_closed_state(models, pinned):
    rng = np.random.default_rng(100 + len(models) * 10 + pinned)
    for trial in range(6):
        net = random_multiplex(rng, models, pinned)
        n, m = net.num_nodes, 6
        worlds = CascadeWorlds(net, m, trial)
        first, more = [int(rng.integers(n))], [int(rng.integers(n))]
        active, acc, _ = worlds.run(first)
        rows = np.arange(m)[::2]
        ext, _, _ = worlds.run(more, active=active[rows], acc={i: a[rows] for i, a in acc.items()},
                               rows=rows)
        for j, w in enumerate(rows):
            assert set(np.flatnonzero(ext[j]).tolist()) == \
                set(reference_closure(worlds, w, first + more))


def test_lt_zero_threshold_needs_a_started_cascade():
    net = single_layer_net([(0, 1)], 3, model=LT, weights=[0.5],
                           thresholds=[1.0, 1.0, 0.0])
    worlds = CascadeWorlds(net, 2, 0)
    assert not worlds.run([])[0].any()
    assert worlds.run([0])[0].all(axis=0).tolist() == [True, False, True]


def _gain_cases():
    rng = np.random.default_rng(7)
    for models, pinned in ENGINE_CASES:
        net = random_multiplex(rng, models, pinned, n=9)
        yield CascadeWorlds(net, 23, 5)
    for models in ([IC], [IC, LT]):  # probability-weighted exact worlds
        net = random_multiplex(rng, models, True, n=7, edges_per_layer=(3, 6))
        yield exact_worlds(net)


@pytest.mark.parametrize("worlds", list(_gain_cases()))
def test_gains_batch_equals_single_gains(worlds, monkeypatch):
    n = worlds.net.num_nodes
    for layers in (None, [0]):
        base = worlds.baseline([0], layers=layers)
        nodes = list(range(n))
        whole = base.gains(nodes)
        # chunks of three rows: candidates straddle chunk boundaries
        lt = sum(worlds.net.layers[i].model == LT
                 for i in (range(worlds.net.num_layers) if layers is None else layers))
        monkeypatch.setattr(propagation, "GAIN_CHUNK_BYTES", 3 * n * (1 + 8 * lt))
        chunked = base.gains(nodes)
        singles = [base.gain(v) for v in nodes]
        monkeypatch.undo()
        assert whole.tolist() == chunked.tolist() == singles
        assert base.gains([]).shape == (0,)
        before = base.mean_count()
        for v in nodes:
            after = worlds.spread([0, v], layers=layers, per_layer=False).mean
            assert whole[v] == pytest.approx(after - before, abs=1e-9)


def _per_edge_exact_build(net, layers):
    """World weights and per-layer live matrices as `exact_worlds` built them
    edge by edge, before each layer's live columns became one slice."""
    scope = sorted(set(range(net.num_layers) if layers is None else layers))
    ic_edges = [(i, j, net.layers[i].probs[j]) for i in scope
                if net.layers[i].model == IC for j in range(net.layers[i].num_edges)]
    ne = len(ic_edges)
    m = 1 << ne
    masks = np.arange(m, dtype=np.uint64)
    live_bits = np.zeros((m, ne), dtype=bool)
    probs = np.ones(m)
    for b, (_, _, p) in enumerate(ic_edges):
        bit = ((masks >> np.uint64(b)) & np.uint64(1)).astype(bool)
        live_bits[:, b] = bit
        probs *= np.where(bit, p, 1.0 - p)
    live = {}
    for i in scope:
        if net.layers[i].model == IC and net.layers[i].num_edges:
            cols = [b for b, (li, _, _) in enumerate(ic_edges) if li == i]
            live[i] = live_bits[:, cols]
    return probs, live


@pytest.mark.parametrize("models", [[IC], [LT], [IC, LT], [IC, LT, IC], [LT, IC, IC, LT]])
def test_exact_worlds_keep_the_per_edge_bits(models):
    rng = np.random.default_rng(300 + len(models))
    k = len(models)
    # singletons of LT layers, and [LT], are scopes without IC edges
    scopes = [None] + [[i] for i in range(k)] + ([[k - 1, 0]] if k > 1 else [])
    for _ in range(5):
        net = random_multiplex(rng, models, True, edges_per_layer=(2, 6))
        for layers in scopes:
            weights, live = _per_edge_exact_build(net, layers)
            worlds = exact_worlds(net, layers)
            assert worlds.m == weights.size
            assert worlds.weights.tobytes() == weights.tobytes()
            assert sorted(worlds._live) == sorted(live)
            for i, matrix in live.items():
                assert worlds._live[i].shape == matrix.shape
                assert np.array_equal(worlds._live[i], matrix)


def _old_mean(worlds, values):
    """The world average every call site inlined before `CascadeWorlds.expect`."""
    if worlds.weights is not None:
        return float(values @ worlds.weights)
    return float(values.mean())


@pytest.mark.parametrize("models, pinned", [
    ([IC], True), ([LT], True), ([IC, LT], True), ([LT, IC, IC], True),
    ([IC, LT], False), ([LT, IC, LT], False)])
def test_expectations_equal_the_inlined_formulas(models, pinned):
    rng = np.random.default_rng(100 + 10 * len(models) + pinned)
    k = len(models)
    scopes = [None] + [[i] for i in range(k)] + ([[0, k - 1]] if k > 1 else [])
    for trial in range(6):
        net = random_multiplex(rng, models, pinned, edges_per_layer=(3, 6))
        n = net.num_nodes
        for layers in scopes:
            seeds = rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()
            cases = [CascadeWorlds(net, 31, trial)]
            if pinned:
                exact = exact_worlds(net, layers)
                probs = exact.weights
                active = exact.activated_matrix(seeds, layers=layers)
                assert exact_spread(net, seeds, layers) == \
                    float(np.dot(probs, active.sum(axis=1)))
                assert exact_activation_probabilities(net, seeds, layers).tobytes() == \
                    (probs @ active).tobytes()
                cases.append(exact)
            for worlds in cases:
                active = worlds.activated_matrix(seeds, layers=layers)
                counts = active.sum(axis=1).astype(float)
                est = worlds.spread(seeds, layers=layers)
                assert est.mean == _old_mean(worlds, counts)
                want = 0.0 if worlds.weights is not None else \
                    float(counts.std(ddof=1) / np.sqrt(worlds.m))
                assert est.stderr == want
                per_layer = np.array([
                    _old_mean(worlds, (active & net.member[i][None, :]).sum(axis=1)
                              .astype(float)) for i in range(k)])
                assert est.per_layer_mean.tobytes() == per_layer.tobytes()
                base = worlds.baseline(seeds, layers=layers)
                assert base.mean_count() == _old_mean(worlds, base.counts)
                values = rng.random(worlds.m)
                assert float(worlds.expect(values)) == _old_mean(worlds, values)
