"""The tracer's span arithmetic, and its hooks on a real traced solve."""

import contextlib
import io
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import checks
import netgen
import tracer as tracing

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_direct_children():
    mod = types.ModuleType("toy_module")
    mod.leaf = lambda: time.sleep(0.02)

    def outer():
        mod.leaf()
        mod.leaf()
        time.sleep(0.01)
    mod.outer = outer
    sys.modules["toy_module"] = mod
    try:
        t = tracing.Tracer()
        assert t.patch("toy_module.leaf", "leaf")
        assert t.patch("toy_module.outer", "outer")
        assert not t.patch("toy_module.missing", "missing")
        mod.outer()
        t.restore()
    finally:
        del sys.modules["toy_module"]
    spans = t.summary()
    assert spans["leaf"][0] == 2 and spans["outer"][0] == 1
    assert spans["outer"][2] == spans["outer"][1] - spans["leaf"][1]
    assert 0.005 < spans["outer"][2] < spans["leaf"][1]
    assert t.descendants(0, "leaf") == 2
    assert mod.leaf.__name__ == "<lambda>"  # restored


def test_traced_solve_feeds_every_check(tmp_path):
    net = netgen.generate([12, 16, 20], 90, 0.5, [netgen.IC, netgen.LT, netgen.IC], 4)
    net_path = tmp_path / "net.mux"
    net_path.write_text(netgen.network_text(net))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"method": "mim-reasoner", "budget": 4, "m": 20,
                                    "seed": 1, "refine": True, "restarts": 2}))
    from muxim import cli
    t = tracing.Tracer()
    tracing.install(t)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = t.call("cli.main", cli.main, ["solve", "--network", str(net_path),
                                               "--config", str(cfg_path),
                                               "--outdir", str(tmp_path)])
    finally:
        t.restore()
    assert rc == 0
    metrics = tracing.per_layer_metrics(t)
    for name in ("network.load_s", "propagation.run.calls", "propagation.run.rows",
                 "propagation.gain_layer.calls",
                 "seeding.probabilistic_greedy_s", "seeding.celf.gains",
                 "knapsack.solve_mckp_s", "pgm.pearson_bytes", "pgm.tree_vars",
                 "rewards.gain.calls", "rewards.worlds_scored", "rewards.refine_s",
                 "pipeline.measure_beta_s", "trace.solve_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["seeding.celf.gains"] <= metrics["seeding.celf.naive_gains"]
    assert len(t.captures["celf"]) == 3  # one lazy greedy per layer
    [(profits, costs, budget, alloc)] = tracing.knapsack_instances(t)
    assert budget == 4 and checks.check_knapsack(profits, costs, budget, alloc) == []
    sol = json.loads((tmp_path / "solution_mim-reasoner.json").read_text())
    assert checks.check_seeds(sol, net.member, 4) == []
    assert checks.check_reward_telescoping(sol) == []
    trace_path = tmp_path / "trace.json"
    t.write(trace_path, {"workload": "toy"})
    doc = json.loads(trace_path.read_text())
    assert doc["spans"][0][0] == "cli.main" and doc["spans"][0][3] == -1
    assert len(doc["spans"]) == len(t.spans)


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only the benchmark: no src/muxim beside it
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "isf-mixed", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
