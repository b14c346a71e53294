"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from muxim.cli import main as cli_main
from muxim.knapsack import solve_mckp
from muxim.network import IC, GeneratorConfig, generate_synthetic, overlap_count
from muxim.pgm import chow_liu_fit, mutual_information, pearson_matrix, \
    tree_condition, variable_grouping
from muxim.pipeline import RatioCertificate, SolverConfig, exhaustive_optimum, \
    run_reasoner
from muxim.propagation import CascadeWorlds, estimate_spread, exact_spread, \
    exact_worlds
from muxim.rewards import RewardContext, reward_shaped_greedy
from muxim.seeding import ProfitCostTable, ProfitRow, celf_greedy

from conftest import random_guarded_instance

PASS = "ACCEPTANCE {num:>2} ({name}): PASS"


def report(num, name):
    print(PASS.format(num=num, name=name))


# -- 1: Monte Carlo spread agrees with the exact oracle ------------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    for trial in range(20):
        net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16)
        k = int(rng.integers(1, 3))
        seeds = rng.choice(net.num_nodes, size=k, replace=False).tolist()
        exact = exact_spread(net, seeds)
        est = estimate_spread(net, seeds, m=100000, master_seed=trial)
        assert abs(est.mean - exact) <= 3 * est.stderr + 1e-12, \
            (trial, est.mean, exact, est.stderr)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, "oracle equivalence, 20 instances, m=1e5, <60s")


# -- 2: greedy keeps the classic ratio against exhaustive search ---------------

def test_criterion_2_greedy_bound():
    rng = np.random.default_rng(202)
    violations = 0
    for trial in range(20):
        net = random_guarded_instance(rng, max_nodes=10, max_ic_edges=14)
        budget = int(rng.integers(1, 4))
        worlds = exact_worlds(net)
        picks = celf_greedy(worlds, 0, budget, list(range(net.num_nodes)))
        value = exact_spread(net, picks)
        best = max(exact_spread(net, s) for s in
                   itertools.combinations(range(net.num_nodes), budget))
        if value < (1 - 1 / math.e) * best - 1e-9:
            violations += 1
    assert violations == 0
    report(2, "greedy >= (1-1/e) * optimum on 20 exact instances")


# -- 3: the budget allocation DP is exact --------------------------------------

def test_criterion_3_mckp_exactness():
    rng = np.random.default_rng(303)
    for trial in range(100):
        k = int(rng.integers(1, 5))
        budget = int(rng.integers(0, 7))
        rows = []
        for _ in range(k):
            size = int(rng.integers(1, 8))
            vals = rng.integers(0, 40, size=size).astype(float)
            vals[0] = 0.0
            vals = np.maximum.accumulate(vals)
            rows.append([ProfitRow(j, float(p), ()) for j, p in enumerate(vals)])
        table = ProfitCostTable(rows)
        alloc = solve_mckp(table, budget)
        best = -1.0
        for choice in itertools.product(*(range(len(r)) for r in rows)):
            if sum(choice) <= budget:
                best = max(best, sum(rows[i][j].profit
                                     for i, j in enumerate(choice)))
        assert alloc.total_profit == best, (trial, alloc.total_profit, best)
        assert alloc.total_cost <= budget
    report(3, "allocation DP == brute force on 100 tables")


# -- 4: the fitted tree maximizes total mutual information ---------------------

def all_spanning_trees(q):
    if q == 1:
        yield []
        return
    if q == 2:
        yield [(0, 1)]
        return
    import heapq
    for seq in itertools.product(range(q), repeat=q - 2):
        degree = [1] * q
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(q) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        yield edges


def singleton_partition(data):
    return variable_grouping(data, pearson_matrix(data), 0.999999)


def test_criterion_4_tree_fit_optimality():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 50:
        q = int(rng.integers(2, 7))
        data = (rng.random((30, q)) < rng.random(q) * 0.8 + 0.1).astype(np.uint8)
        part = singleton_partition(data)
        if len(part.tree_variables()) != q:
            continue  # a constant column slipped in; draw again
        tree = chow_liu_fit(data, part, alpha=1.0)
        mi = {(a, b): mutual_information(data, a, b, alpha=1.0)
              for a in range(q) for b in range(a + 1, q)}
        best = max(sum(mi[e] for e in edges) for edges in all_spanning_trees(q))
        assert tree.total_mi() >= best - 1e-12, (checked, tree.total_mi(), best)
        checked += 1
    report(4, "tree MI maximal over all spanning trees, 50 datasets")


# -- 5: tree inference is exact ------------------------------------------------

def joint_prob(tree, assign):
    p = tree.root_marginal[assign[tree.root]]
    for child, par in tree.parent.items():
        p *= tree.cpts[child][assign[par], assign[child]]
    return p


def brute_condition(tree, query, evidence):
    num = den = 0.0
    for vals in itertools.product([0, 1], repeat=len(tree.nodes)):
        assign = dict(zip(tree.nodes, vals))
        if any(assign[k] != v for k, v in evidence.items()):
            continue
        p = joint_prob(tree, assign)
        den += p
        if assign[query] == 1:
            num += p
    return num / den


def test_criterion_5_tree_inference_exactness():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 100:
        q = int(rng.integers(2, 13))
        data = (rng.random((40, q)) < rng.random(q) * 0.8 + 0.1).astype(np.uint8)
        part = singleton_partition(data)
        if len(part.tree_variables()) != q:
            continue
        tree = chow_liu_fit(data, part, alpha=1.0)
        for _ in range(4):
            k = int(rng.integers(0, min(q, 5)))
            ev_nodes = rng.choice(tree.nodes, size=k, replace=False)
            evidence = {int(v): int(rng.integers(0, 2)) for v in ev_nodes}
            query = int(rng.choice(tree.nodes))
            got = tree_condition(tree, query, evidence)
            want = float(evidence[query]) if query in evidence \
                else brute_condition(tree, query, evidence)
            assert abs(got - want) <= 1e-9, (checked, q, evidence, got, want)
            checked += 1
    report(5, "tree conditionals match 2^q enumeration, 100 queries")


# -- 6: with no fitted models the shaped greedy is plain greedy -----------------

def test_criterion_6_degeneracy_identity():
    rng = np.random.default_rng(606)
    for trial in range(20):
        net = random_guarded_instance(rng, max_nodes=12, max_ic_edges=16,
                                      p_range=(0.2, 0.6))
        worlds = CascadeWorlds(net, 50, trial)
        ctx = RewardContext(0, [])
        nodes = list(range(net.num_nodes))
        shaped, _ = reward_shaped_greedy(worlds, 3, nodes, ctx)
        plain = celf_greedy(worlds, 0, 3, nodes)
        assert shaped == plain, (trial, shaped, plain)
    report(6, "shaped greedy == plain greedy without models, 20 instances")


# -- 7: per-episode rewards telescope exactly -----------------------------------

def test_criterion_7_telescoping_rewards():
    episodes = 0
    for seed in range(3):
        net = generate_synthetic(GeneratorConfig(
            [14, 18, 24], 110, 0.5, [IC] * 3, rng_seed=seed))
        cfg = SolverConfig(m=60, master_seed=seed, gamma=1.0)
        sol = run_reasoner(net, 5, cfg)
        for entry in sol.reward_trace:
            if entry.get("rewards") is None:
                continue
            diff = entry["shaped_final"] - entry["shaped_empty"]
            assert sum(entry["rewards"]) == pytest.approx(diff, abs=1e-9), entry
            episodes += 1
    assert episodes >= 4
    report(7, f"reward telescoping exact on {episodes} episodes")


# -- 8: worst-case ratio certificate holds --------------------------------------

def test_criterion_8_worst_case_certificate():
    rng = np.random.default_rng(808)
    violations = 0
    checked = 0
    while checked < 10:
        net = random_guarded_instance(rng, max_nodes=7, max_ic_edges=11,
                                      num_layers=2)
        o, k = overlap_count(net), net.num_layers
        if o < 1:
            continue
        budget = 2
        cfg = SolverConfig(m=80, master_seed=checked, gamma=1.0)
        sol = run_reasoner(net, budget, cfg)
        sigma_hat = exact_spread(net, sol.union_seeds)
        sigma_opt, _ = exhaustive_optimum(net, budget)
        bound = RatioCertificate.worst_bound(o, k, epsilon=0.0)
        if sigma_hat < bound * sigma_opt - 1e-9:
            violations += 1
        checked += 1
    assert violations == 0
    report(8, "worst-case bound holds on 10 two-layer instances")


# -- 9: scaled trend reproduction ------------------------------------------------

def layer_counts(k, n_max=320):
    fracs = np.linspace(0.3, 1.0, k)
    return [max(10, int(round(f * n_max))) for f in fracs]


def binom_tail(wins, n):
    """One-sided sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0 ** n


@pytest.mark.slow
def test_criterion_9_trend_reproduction():
    seeds = range(10)
    overlaps = (0.3, 0.5, 0.7)
    ks = (3, 5)
    cell_means = {}
    paired = []  # (reasoner, ksn) at overlap >= 0.5
    for k in ks:
        for ov in overlaps:
            t_cell = time.time()
            rs, ks_spread = [], []
            for s in seeds:
                counts = layer_counts(k)
                net = generate_synthetic(GeneratorConfig(
                    counts, 5 * sum(counts) // 2, ov, [IC] * k,
                    rng_seed=1000 * s + k))
                assert 300 <= net.num_nodes <= 1000
                cfg = SolverConfig(m=100, master_seed=s, gamma=1.0)
                sol = run_reasoner(net, 10, cfg)
                ksn_union = sorted(set(itertools.chain.from_iterable(
                    sol.profit_table.rows[r.layer][r.budget].seeds
                    for r in sol.allocation.rows)))
                ev = CascadeWorlds(net, 300, s + 54321)
                sr = ev.spread(sol.union_seeds, per_layer=False).mean
                sk = ev.spread(ksn_union, per_layer=False).mean
                rs.append(sr)
                ks_spread.append(sk)
                if ov >= 0.5:
                    paired.append((sr, sk))
            cell_means[(k, ov, "mim-reasoner")] = float(np.mean(rs))
            cell_means[(k, ov, "ksn")] = float(np.mean(ks_spread))
            cell_elapsed = time.time() - t_cell
            assert cell_elapsed < 600.0, f"cell k={k} ov={ov}: {cell_elapsed:.0f}s"

    # paired comparison at overlap >= 0.5: means and one-sided sign test
    for k in ks:
        for ov in (0.5, 0.7):
            assert cell_means[(k, ov, "mim-reasoner")] >= \
                cell_means[(k, ov, "ksn")], (k, ov, cell_means)
    wins = sum(1 for r, kv in paired if r > kv)
    losses = sum(1 for r, kv in paired if r < kv)
    p = binom_tail(wins, wins + losses)
    assert p < 0.1, f"sign test p={p:.4f} ({wins}W/{losses}L)"

    # spread grows with the number of layers for every method
    for method in ("mim-reasoner", "ksn"):
        per_k = [np.mean([cell_means[(k, ov, method)] for ov in overlaps])
                 for k in ks]
        rho = np.corrcoef(np.argsort(np.argsort(ks)),
                          np.argsort(np.argsort(per_k)))[0, 1]
        assert rho > 0, (method, per_k)
    report(9, f"trend: sign test p={p:.4f} ({wins}W/{losses}L), "
              "spread increases with k")


# -- 10: model accounting matches the layer walk --------------------------------

def test_criterion_10_model_accounting():
    for k in (2, 3, 4):
        counts = [12 + 4 * i for i in range(k)]
        net = generate_synthetic(GeneratorConfig(
            counts, 30 * k, 0.5, [IC] * k, rng_seed=k))
        cfg = SolverConfig(m=60, master_seed=k, gamma=1.0)
        sol = run_reasoner(net, 4, cfg)
        processed = len(sol.processing_order)
        assert len(sol.models) == min(k - 1, processed - 1)
        for model in sol.models:
            if model.tree is not None:
                q = len(model.tree.nodes)
                assert model.tree.pair_computations == q * (q - 1) // 2
    report(10, "exactly k-1 models, C(q,2) MI computations each")


# -- 11: solver runs are byte-reproducible --------------------------------------

def test_criterion_11_determinism(tmp_path):
    doc = {
        "generator": {"layer_node_counts": [12, 16, 20], "total_edges": 90,
                      "overlap_percent": 0.5,
                      "model_per_layer": [IC, IC, IC], "rng_seed": 3},
        "budget": 4, "m": 50, "seed": 17, "gamma": 1.0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    blobs = []
    for d in ("run1", "run2"):
        outdir = tmp_path / d
        assert cli_main(["solve", "--config", str(cfg_path),
                         "--method", "mim-reasoner",
                         "--outdir", str(outdir)]) == 0
        payload = json.load(open(outdir / "solution_mim-reasoner.json"))
        payload.pop("wall_times")
        blobs.append(json.dumps(payload, sort_keys=True))
    assert blobs[0] == blobs[1]
    report(11, "solution JSON byte-identical modulo timing fields")
