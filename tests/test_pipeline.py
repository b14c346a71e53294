import numpy as np
import pytest

from muxim.network import IC, GeneratorConfig, generate_synthetic, overlap_count
from muxim.pipeline import (PhaseState, RatioCertificate, SolverConfig,
                            exhaustive_optimum, measure_beta, run_celf_single,
                            run_isf, run_ksn, run_reasoner, select_next_layer,
                            solve)
from muxim.propagation import CascadeWorlds, GuardError, exact_spread
from muxim.seeding import celf_greedy

from conftest import random_guarded_instance, two_layer_net


def small_cfg(seed=0, m=60):
    return SolverConfig(m=m, master_seed=seed, gamma=1.0)


def small_net(seed=0, k=2):
    counts = [14, 20] if k == 2 else [12, 16, 20]
    return generate_synthetic(GeneratorConfig(counts, 90, 0.5, [IC] * k,
                                              rng_seed=seed))


# -- layer selection ----------------------------------------------------------

def test_select_next_layer_prefers_lowest_profit():
    state = PhaseState(remaining=[(0, 2, 10.0), (1, 2, 4.0), (2, 2, 7.0)])
    assert select_next_layer(state) == 1
    assert select_next_layer(state) == 2
    assert select_next_layer(state) == 0
    assert select_next_layer(state) is None


def test_select_next_layer_breaks_ties_by_layer_id():
    state = PhaseState(remaining=[(3, 1, 4.0), (1, 1, 4.0)])
    assert select_next_layer(state) == 1
    assert select_next_layer(state) == 3


# -- certificates --------------------------------------------------------------

def test_certificate_bound_formulas():
    w = RatioCertificate.worst_bound(2, 3)
    b = RatioCertificate.best_bound(2, 3)
    g1 = RatioCertificate.general_bound(2, 3, 1.0)
    g0 = RatioCertificate.general_bound(2, 3, 0.0)
    ratio = 1 - 1 / np.e
    assert w == pytest.approx(ratio / 9)
    assert b == pytest.approx(ratio / 5)
    assert g1 == pytest.approx(w)
    assert g0 == pytest.approx(b)


def test_certificate_single_layer_reduces_to_classic_ratio():
    assert RatioCertificate.worst_bound(0, 1) == pytest.approx(1 - 1 / np.e)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_certificate_ordering(beta, rng):
    for _ in range(20):
        o = int(rng.integers(0, 50))
        k = int(rng.integers(1, 9))
        cert = RatioCertificate(o=o, k=k, epsilon=0.0, beta=beta, sigma_hat=1.0)
        assert cert.bound_worst <= cert.bound_general + 1e-15
        assert cert.bound_general <= cert.bound_best + 1e-15


# -- solvers -------------------------------------------------------------------

def test_single_layer_reasoner_reduces_to_greedy():
    net = generate_synthetic(GeneratorConfig([16], 50, 0.0, [IC], rng_seed=3))
    cfg = small_cfg(seed=1)
    sol = run_reasoner(net, 3, cfg)
    worlds = CascadeWorlds(net, cfg.m, cfg.master_seed)
    picks = celf_greedy(net, 0, 3, list(range(net.num_nodes)), worlds=worlds)
    assert sol.union_seeds == sorted(picks)
    assert len(sol.models) == 0


def test_zero_budget_yields_empty_solution():
    sol = run_reasoner(small_net(), 0, small_cfg())
    assert sol.union_seeds == []
    assert sol.spread.mean == 0.0


def test_union_is_bounded_by_budget():
    sol = run_reasoner(small_net(seed=2, k=3), 4, small_cfg(seed=2))
    union = set()
    for seeds in sol.per_layer_seeds.values():
        union |= set(seeds)
    assert sorted(union) == sol.union_seeds
    assert len(sol.union_seeds) <= 4


def test_model_count_is_layers_minus_one():
    for k in (2, 3):
        sol = run_reasoner(small_net(seed=k, k=k), 4, small_cfg(seed=k))
        assert len(sol.models) == k - 1
        for model in sol.models:
            if model.tree is not None:
                q = len(model.tree.nodes)
                assert model.tree.pair_computations == q * (q - 1) // 2


def test_reward_traces_telescope():
    sol = run_reasoner(small_net(seed=5, k=3), 5, small_cfg(seed=5))
    checked = 0
    for entry in sol.reward_trace:
        if entry.get("rewards") is not None:
            assert sum(entry["rewards"]) == pytest.approx(
                entry["shaped_final"] - entry["shaped_empty"], abs=1e-9)
            checked += 1
    assert checked >= 1


def test_ksn_equals_reasoner_with_phase2_disabled():
    net = small_net(seed=7)
    cfg = small_cfg(seed=7)
    ksn = run_ksn(net, 4, cfg)
    off = run_reasoner(net, 4, SolverConfig(**{**cfg.__dict__, "phase2": False}))
    assert ksn.union_seeds == off.union_seeds
    assert ksn.method == "ksn"


def test_isf_single_layer_equals_greedy():
    net = generate_synthetic(GeneratorConfig([14], 40, 0.0, [IC], rng_seed=9))
    cfg = small_cfg(seed=9)
    isf = run_isf(net, 3, cfg)
    worlds = CascadeWorlds(net, cfg.m, cfg.master_seed)
    picks = celf_greedy(net, 0, 3, list(range(net.num_nodes)), worlds=worlds)
    assert isf.union_seeds == sorted(picks)


def test_isf_zero_budget():
    assert run_isf(small_net(), 0, small_cfg()).union_seeds == []


def test_isf_keeps_classic_ratio_on_guarded_instances(rng):
    # IC-only layers make the whole-multiplex spread submodular, so greedy
    # selection stays within (1 - 1/e) of the exhaustive optimum
    for trial in range(3):
        net = random_guarded_instance(rng, max_nodes=7, max_ic_edges=10,
                                      num_layers=2)
        sol = run_isf(net, 2, SolverConfig(m=400, master_seed=trial))
        value = exact_spread(net, sol.union_seeds)
        best, _ = exhaustive_optimum(net, 2)
        assert value >= (1 - 1 / np.e) * best - 1e-9


def test_reasoner_refinement_path():
    net = small_net(seed=8, k=3)
    cfg = SolverConfig(m=50, master_seed=8, gamma=1.0, refine=True, tau=0.5,
                       restarts=4)
    sol = run_reasoner(net, 4, cfg)
    assert len(sol.union_seeds) <= 4
    assert len(sol.models) == 2


def test_celf_single_runs_one_layer():
    net = small_net(seed=4)
    cfg = SolverConfig(m=40, master_seed=4, single_layer=1)
    sol = run_celf_single(net, 3, cfg)
    assert set(sol.per_layer_seeds) == {1}
    members = set(np.flatnonzero(net.member[1]).tolist())
    assert set(sol.union_seeds) <= members


def test_reasoner_not_worse_than_ksn_paired():
    diffs = []
    for seed in range(4):
        net = small_net(seed=seed, k=3)
        cfg = small_cfg(seed=seed)
        r = run_reasoner(net, 4, cfg)
        k = run_ksn(net, 4, cfg)
        worlds = CascadeWorlds(net, 300, seed + 999)
        sr = worlds.spread(r.union_seeds, per_layer=False)
        sk = worlds.spread(k.union_seeds, per_layer=False)
        diffs.append(sr.mean - sk.mean)
        assert sr.mean >= sk.mean - 3 * max(sk.stderr, sr.stderr)
    assert np.mean(diffs) > -0.5


def test_solve_dispatch_and_unknown_method():
    net = small_net()
    sol = solve(net, "ksn", 2, small_cfg())
    assert sol.method == "ksn"
    with pytest.raises(ValueError, match="unknown method"):
        solve(net, "magic", 2, small_cfg())


@pytest.mark.parametrize("runner", [run_reasoner, run_ksn, run_isf, run_celf_single])
@pytest.mark.parametrize("bad", [{"score_m": 0}, {"clamp": "bogus"}])
def test_library_solvers_validate_config(runner, bad):
    cfg = SolverConfig(**{**small_cfg().__dict__, **bad})
    with pytest.raises(ValueError, match=next(iter(bad))):
        runner(small_net(), 2, cfg)


# -- beta ----------------------------------------------------------------------

def test_beta_zero_without_overlap():
    net = two_layer_net([(0, 1)], [(2, 3)], 4)
    assert measure_beta({0: [0], 1: [2]}, [0, 1], net, m=20, master_seed=0) == 0.0


def test_beta_one_for_identical_layers_and_seeds():
    net = two_layer_net([(0, 1), (1, 2)], [(0, 1), (1, 2)], 3,
                        probs0=[1.0, 1.0], probs1=[1.0, 1.0])
    beta = measure_beta({0: [0], 1: [0]}, [0, 1], net, m=20, master_seed=0)
    assert beta == 1.0


def test_beta_zero_for_disjoint_cascades():
    # both nodes sit in both layers, but each layer's cascade stays on its
    # own side, so nothing is ever re-activated
    net = two_layer_net([(0, 1)], [(2, 3)], 4,
                        members0=[0, 1, 2, 3], members1=[0, 1, 2, 3],
                        probs0=[1.0], probs1=[1.0])
    assert overlap_count(net) == 4
    beta = measure_beta({0: [0], 1: [2]}, [0, 1], net, m=20, master_seed=0)
    assert beta == 0.0


# -- certificates against exhaustive search ------------------------------------

def test_worst_case_bound_on_guarded_instances(rng):
    for trial in range(3):
        net = random_guarded_instance(rng, max_nodes=7, max_ic_edges=10,
                                      num_layers=2)
        cfg = SolverConfig(m=80, master_seed=trial, gamma=1.0)
        sol = run_reasoner(net, 2, cfg)
        sigma_hat = exact_spread(net, sol.union_seeds)
        sigma_opt, _ = exhaustive_optimum(net, 2)
        o, k = overlap_count(net), net.num_layers
        assert sigma_hat >= RatioCertificate.worst_bound(o, k) * sigma_opt - 1e-9


def test_exhaustive_optimum_guards():
    big = generate_synthetic(GeneratorConfig([30, 30], 100, 0.2, [IC, IC],
                                             rng_seed=0))
    with pytest.raises(GuardError):
        exhaustive_optimum(big, 2)


def test_solution_serializes():
    import json
    sol = run_reasoner(small_net(seed=6), 3, small_cfg(seed=6))
    doc = json.loads(json.dumps(sol.to_dict()))
    assert doc["method"] == "mim-reasoner"
    assert "bounds" in doc["certificate"]
    assert doc["certificate"]["epsilon"] == 0.0
