import json
import os

import pytest

from muxim.cli import main


def write_config(tmp_path, **overrides):
    doc = {
        "generator": {"layer_node_counts": [12, 16, 20], "total_edges": 90,
                      "overlap_percent": 0.5,
                      "model_per_layer": ["IC", "IC", "IC"], "rng_seed": 3},
        "budget": 3, "m": 40, "seed": 5, "gamma": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_generate_table1_preset_manifest(tmp_path, capsys):
    out = str(tmp_path / "net.mux")
    assert main(["generate", "--preset", "table1-3layer", "--seed", "2",
                 "--output", out]) == 0
    manifest = read_json(capsys)
    assert manifest["pre_merge_total_nodes"] == 7500
    assert manifest["k"] == 3
    assert os.path.exists(out) and os.path.exists(out + ".manifest.json")


def test_generate_same_seed_same_hash(tmp_path, capsys):
    a, b = str(tmp_path / "a.mux"), str(tmp_path / "b.mux")
    main(["generate", "--preset", "table1-3layer", "--seed", "7", "--output", a])
    ha = read_json(capsys)["sha256"]
    main(["generate", "--preset", "table1-3layer", "--seed", "7", "--output", b])
    hb = read_json(capsys)["sha256"]
    assert ha == hb
    assert open(a).read() == open(b).read()


def test_generate_rejects_bad_overlap(tmp_path, capsys):
    out = str(tmp_path / "x.mux")
    code = main(["generate", "--preset", "table1-3layer", "--overlap", "1.5",
                 "--output", out])
    assert code == 2
    assert "error" in read_json(capsys)


def test_solve_writes_solution_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--method", "ksn",
                 "--outdir", outdir]) == 0
    assert main(["solve", "--config", cfg, "--method", "mim-reasoner",
                 "--outdir", outdir]) == 0
    rows = open(os.path.join(outdir, "results.csv")).read().strip().splitlines()
    assert rows[0] == "method,k,o,l,total_spread,stderr,wall_seconds"
    assert len(rows) == 3
    assert rows[1].startswith("ksn,3,") and rows[2].startswith("mim-reasoner,3,")
    doc = json.load(open(os.path.join(outdir, "solution_ksn.json")))
    assert doc["certificate"]["o"] == int(rows[1].split(",")[2])


def test_solve_missing_network_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["solve", "--config", cfg, "--network",
                 str(tmp_path / "nope.mux")])
    assert code == 2


def test_solve_exact_flag_uses_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, generator={
        "layer_node_counts": [5, 6], "total_edges": 10,
        "overlap_percent": 0.5, "model_per_layer": ["IC", "IC"],
        "rng_seed": 11}, budget=2, m=30)
    outdir = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--method", "mim-reasoner",
                 "--outdir", outdir, "--exact"]) == 0
    doc = json.load(open(os.path.join(outdir, "solution_mim-reasoner.json")))
    assert doc["total_spread"]["stderr"] == 0.0


def test_solve_exact_flag_guard_violation(tmp_path, capsys):
    cfg = write_config(tmp_path)  # 90 IC edges: over the guard
    code = main(["solve", "--config", cfg, "--method", "ksn",
                 "--outdir", str(tmp_path / "o"), "--exact"])
    assert code == 3
    assert "error" in read_json(capsys)


def test_solve_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    for d in ("d1", "d2"):
        main(["solve", "--config", cfg, "--method", "mim-reasoner",
              "--outdir", str(tmp_path / d)])
    a = json.load(open(tmp_path / "d1" / "solution_mim-reasoner.json"))
    b = json.load(open(tmp_path / "d2" / "solution_mim-reasoner.json"))
    a.pop("wall_times"); b.pop("wall_times")
    assert a == b


def test_verify_passes_on_guarded_instance(tmp_path, capsys):
    cfg = write_config(tmp_path, generator={
        "layer_node_counts": [5, 6], "total_edges": 10,
        "overlap_percent": 0.5, "model_per_layer": ["IC", "IC"],
        "rng_seed": 11}, budget=2, m=40)
    assert main(["verify", "--config", cfg, "--method", "mim-reasoner"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_refuses_unguarded_instance(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 3
    assert "error" in read_json(capsys)


def test_inspect_pgm_dumps_trees(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = str(tmp_path / "pgms")
    assert main(["inspect-pgm", "--config", cfg, "--outdir", outdir]) == 0
    listing = read_json(capsys)["pgms"]
    assert len(listing) == 2  # three layers -> two fitted models
    doc = json.load(open(listing[0]))
    assert "group_partition" in doc


NEGATIVE_LT_WEIGHT = "#multiplex k=1 n=3\n@model 0 LT\n0 0 1 -0.5\n0 1 2 0.5\n"
DUPLICATE_EDGE = "#multiplex k=1 n=3\n0 0 1 0.5\n0 0 1 0.5\n0 1 2 0.5\n"


@pytest.mark.parametrize("doc, flags, network, code", [
    # every key the benchmark writes is accepted
    ({"method": "isf", "budget": 2, "m": 20, "gamma": 1.0, "refine": True,
      "restarts": 2, "seed": 1}, [], None, 0),
    ({}, [], NEGATIVE_LT_WEIGHT, 2),
    ({}, [], DUPLICATE_EDGE, 2),
    ({"gama": 0.5}, [], None, 2),
    ({"clamp_mode": "bogus"}, [], None, 2),
    ({}, ["--m", "0"], None, 2),
    ({"m": "100"}, [], None, 2),
    ({"xi": 0.0}, [], None, 2),
    ({"xi": 1.5}, [], None, 2),
    ({"gamma": 0}, [], None, 2),
    ({"kappa": 0}, [], None, 2),
    ({"restarts": 0}, [], None, 2),
    ({"tau": 0.0}, [], None, 2),
    ({"delta": -0.1}, [], None, 2),
    ({"budget": -1}, [], None, 2),
    ({"budget": "ten"}, [], None, 2),
    ({"method": "greedy"}, [], None, 2),
    ({"generator": {"layer_node_counts": [5]}}, [], None, 2),
    ({"score_m": 0}, [], None, 2),
    ({"score_m": -3}, [], None, 2),
    ({"alpha": -1}, [], None, 2),
    ({"method": "celf-single"}, ["--layer", "7"], None, 2),  # three layers
    ({"method": "celf-single"}, ["--layer", "-1"], None, 2),
    ({}, ["--exact"], None, 3),  # 90 IC edges exceed the exact guard
], ids=["benchmark-keys", "negative-lt-weight", "duplicate-edge", "unknown-key",
        "bad-clamp", "m-zero", "m-string", "xi-zero", "xi-above-one", "gamma-zero",
        "kappa-zero", "restarts-zero", "tau-zero", "delta-negative",
        "budget-negative", "budget-string", "unknown-method", "bad-generator",
        "score-m-zero", "score-m-negative", "alpha-negative", "layer-above-range",
        "layer-negative", "exact-guard"])
def test_solve_exit_codes(tmp_path, capsys, doc, flags, network, code):
    argv = ["solve", "--config", write_config(tmp_path, **{"method": "ksn", **doc}),
            "--outdir", str(tmp_path / "out"), *flags]
    if network is not None:
        path = tmp_path / "net.mux"
        path.write_text(network)
        argv += ["--network", str(path)]
    assert main(argv) == code
    out = read_json(capsys)
    if code == 0:
        assert os.path.exists(out["solution"])
    else:
        assert "error" in out
    if code == 2:  # rejected before any work
        assert not os.path.exists(tmp_path / "out")


def test_solve_names_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, gama=0.5, kapa=2)
    assert main(["solve", "--config", cfg]) == 2
    assert read_json(capsys)["unknown_keys"] == ["gama", "kapa"]


def test_solve_rejects_config_that_is_not_an_object(tmp_path, capsys):
    for text in ("{not json", "[1, 2]"):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        assert "error" in read_json(capsys)
