"""A corrupted program output makes the run count a failed solve."""

import json
import time
import types

import pytest

import calibrate
import netgen
import run
import tracer as tracing
from muxim import cli, pipeline
from muxim.knapsack import AllocationRow, BudgetAllocationTable

COUNTS = ["propagation.run.calls", "seeding.celf.gains"]


@pytest.fixture
def tiny(tmp_path):
    net = netgen.generate([12, 16, 20], 90, 0.5, [netgen.IC, netgen.LT, netgen.IC], 4)
    (tmp_path / "network.mux").write_text(netgen.network_text(net))
    cfg = {"method": "mim-reasoner", "budget": 4, "m": 20, "seed": 1}
    (tmp_path / "config-0.json").write_text(json.dumps(cfg))
    return net, cfg, tmp_path


def rounds_of(tiny, traced):
    net, cfg, out = tiny
    t = tracing.Tracer()
    kernel = types.SimpleNamespace(time=lambda: calibrate.REFERENCE_SECONDS / 2)
    rounds = run.Rounds(cli, net, [cfg], out, t, COUNTS, kernel)
    if traced:
        tracing.install(t)
    try:
        rounds.run_until(time.perf_counter(), traced)  # one round: one solve
    finally:
        t.restore()
    return rounds


@pytest.mark.parametrize("traced", [False, True])
def test_valid_solve_passes(tiny, traced):
    rounds = rounds_of(tiny, traced)
    assert (rounds.attempted, rounds.failed, rounds.problems) == (1, 0, [])
    assert len(rounds.solutions) == 1 and rounds.times[0] > 0
    # the stub kernel runs twice as fast as the reference: times scale by 2
    assert len(rounds.kernel_times) == 2
    assert rounds.scaled_solve_time() == pytest.approx(rounds.times[0] * 2)
    assert bool(rounds.layer_metrics) == traced


def test_duplicated_seed_fails(tiny, monkeypatch):
    to_dict = pipeline.Solution.to_dict

    def corrupt(self):
        doc = to_dict(self)
        doc["union_seeds"].append(doc["union_seeds"][0])
        return doc
    monkeypatch.setattr(pipeline.Solution, "to_dict", corrupt)
    rounds = rounds_of(tiny, traced=False)
    assert (rounds.attempted, rounds.failed) == (1, 1)
    assert any("duplicates" in p for p in rounds.problems)


def test_suboptimal_allocation_fails_the_traced_pass(tiny, monkeypatch):
    def nothing_allocated(table, budget):
        return BudgetAllocationTable([AllocationRow(i, 0, 0.0)
                                      for i in range(table.num_layers)])
    monkeypatch.setattr(pipeline, "solve_mckp", nothing_allocated)
    rounds = rounds_of(tiny, traced=True)
    assert (rounds.attempted, rounds.failed) == (1, 1)
    assert any("brute-force optimum" in p for p in rounds.problems)


def test_crash_counts_as_failed(tiny, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(cli, "solve", boom)
    rounds = rounds_of(tiny, traced=False)
    assert (rounds.attempted, rounds.failed, rounds.problems) == (1, 1, [])


def test_calibration_kernel_is_fixed_work():
    a, b = calibrate.Kernel(), calibrate.Kernel()
    assert netgen.network_text(a.net) == netgen.network_text(b.net)
    assert a.seeds == b.seeds
    assert all(np_equal(x, y) for x, y in zip(a.live, b.live))
    assert a.time() > 0


def np_equal(x, y):
    return (x is None and y is None) or (x == y).all()
