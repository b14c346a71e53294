import json
import os

import pytest

from muxim.cli import main


# the generator block of write_config
GENERATOR = {"layer_node_counts": [12, 16, 20], "total_edges": 90, "overlap_percent": 0.5,
             "model_per_layer": ["IC", "IC", "IC"], "rng_seed": 3}
# (id, generator key, mistyped or out-of-domain value; or a key no field has)
BAD_GENERATOR_FIELDS = [
    ("total-edges-string", "total_edges", "100"),
    ("total-edges-float", "total_edges", 10.7),
    ("node-counts-scalar", "layer_node_counts", 5),
    ("node-counts-float", "layer_node_counts", [20.5, 30, 40]),
    ("rng-seed-float", "rng_seed", 1.5),
    ("overlap-string", "overlap_percent", "x"),
    ("edge-counts-negative", "layer_edge_counts", [-5, 10, 10]),
    ("padding-string", "allow_padding", "no"),
    ("misspelt-key", "rng_sed", 5),
]


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


@pytest.mark.parametrize("key, value", [(key, value) for _, key, value in BAD_GENERATOR_FIELDS]
                         + [(None, [1, 2])],
                         ids=[name for name, _, _ in BAD_GENERATOR_FIELDS] + ["not-an-object"])
def test_generate_rejects_bad_generator_block(tmp_path, capsys, key, value):
    gen = value if key is None else {**GENERATOR, key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"generator": gen}))
    out = str(tmp_path / "x.mux")
    assert main(["generate", "--config", str(path), "--output", out]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert error.startswith("bad generator config") and (key is None or key in error)
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, flags, key", [
    ({"generator": GENERATOR, "gama": 3}, [], "gama"),
    ({"generator": {"rng_sed": 5}}, ["--preset", "table1-3layer"], "rng_sed"),
    ({"generator": {"total_edges": 10}}, ["--preset", "table1-3layer"], "total_edges"),
], ids=["top-level-key", "preset-misspelt-key", "preset-unused-key"])
def test_generate_names_unknown_keys(tmp_path, capsys, doc, flags, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "x.mux")
    assert main(["generate", "--config", str(path), "--output", out, *flags]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["unknown_keys"] == [key] and key in payload["error"]
    assert not os.path.exists(out)


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
# the bad probability sorts after a good edge but comes first in the file
BAD_PROB_FIRST = "#multiplex k=1 n=3\n0 1 2 1.5\n0 0 1 0.5\n"
BAD_PROB_SECOND = "#multiplex k=2 n=3\n1 0 1 0.5\n0 0 1 0.5\n0 1 2 nan\n"
EDGE_EXTRA_TOKEN = "#multiplex k=1 n=3\n0 1 2 0.5\n0 0 1 0.5 0.7\n"
EDGE_EXTRA_JUNK = "#multiplex k=1 n=3\n0 0 1 0.5\n0 1 2 1.5 junk\n"
MODEL_EXTRA_TOKEN = "#multiplex k=1 n=3\n@model 0 LT x\n0 0 1 0.5\n"
MEMBER_EXTRA_TOKEN = "#multiplex k=1 n=3\n0 0 1 0.5\n!member 0 2 2\n"
THETA_EXTRA_TOKEN = "#multiplex k=1 n=3\n@model 0 LT\n0 0 1 0.5\n@theta 0 1 0.5 0.1\n"
SELF_LOOP = "#multiplex k=1 n=3\n0 0 1 0.5\n0 2 2 0.5\n"
THETA_ON_IC = "#multiplex k=1 n=3\n0 0 1 0.5\n@theta 0 2 0.3\n"
# a threshold may come before the line that makes its layer LT
THETA_BEFORE_MODEL = "#multiplex k=1 n=3\n@theta 0 2 0.3\n0 0 1 0.5\n@model 0 LT\n"
HEADER_UNKNOWN_KEY = "#multiplex k=1 n=3 foo=9\n0 0 1 0.5\n"
# the reasoner-ic5-alpha0 golden at seed 2: alpha 0 fits unsmoothed trees, and
# after phase 1 a phase-2 cascade shows evidence one of them gives probability 0
ALPHA0_ZERO_EVIDENCE = {
    "method": "mim-reasoner", "budget": 6, "m": 30, "seed": 2, "gamma": 1.0,
    "alpha": 0.0, "clamp_mode": "clamp01", "generator": {
        "layer_node_counts": [20, 24, 22, 26, 18], "total_edges": 300,
        "overlap_percent": 0.5, "model_per_layer": ["IC"] * 5, "rng_seed": 7}}


@pytest.mark.parametrize("doc, flags, network, code, error", [
    # every key the benchmark writes is accepted
    ({"method": "isf", "budget": 2, "m": 20, "gamma": 1.0, "refine": True,
      "restarts": 2, "seed": 1}, [], None, 0, None),
    ({}, [], NEGATIVE_LT_WEIGHT, 2, "line 3: LT weight must be >= 0"),
    ({}, [], DUPLICATE_EDGE, 2, "line 3: duplicate edge, first on line 2"),
    ({}, [], SELF_LOOP, 2, "line 3: self-loop"),
    ({}, [], THETA_ON_IC, 2, "line 3: @theta on layer 0, which is not LT"),
    ({}, [], THETA_BEFORE_MODEL, 0, None),
    ({}, [], HEADER_UNKNOWN_KEY, 2, "line 1: unknown header key 'foo'"),
    ({}, [], BAD_PROB_FIRST, 2, "line 2: probability outside [0, 1]"),
    ({}, [], BAD_PROB_SECOND, 2, "line 4: probability outside [0, 1]"),
    ({}, [], EDGE_EXTRA_TOKEN, 2, "line 3:"),
    ({}, [], EDGE_EXTRA_JUNK, 2, "line 3:"),
    ({}, [], MODEL_EXTRA_TOKEN, 2, "line 2:"),
    ({}, [], MEMBER_EXTRA_TOKEN, 2, "line 3:"),
    ({}, [], THETA_EXTRA_TOKEN, 2, "line 4:"),
    ({}, ["--config", "{tmp}"], None, 2, "Is a directory"),
    ({}, ["--network", "{tmp}"], None, 2, "Is a directory"),
    ({}, ["--outdir", "{tmp}/config.json"], None, 2, "File exists"),
    ({"method": "mim-reasoner", "m": 1}, [], None, 2, "m must be >= 2"),
    ({"method": "ksn", "m": 1}, [], None, 0, None),
    ({"gama": 0.5}, [], None, 2, None),
    ({"clamp_mode": "bogus"}, [], None, 2, None),
    ({}, ["--m", "0"], None, 2, None),
    ({"m": "100"}, [], None, 2, None),
    ({"xi": 0.0}, [], None, 2, None),
    ({"xi": 1.5}, [], None, 2, None),
    ({"gamma": 0}, [], None, 2, None),
    ({"kappa": 0}, [], None, 2, None),
    ({"restarts": 0}, [], None, 2, None),
    ({"tau": 0.0}, [], None, 2, None),
    ({"delta": -0.1}, [], None, 2, None),
    ({"budget": -1}, [], None, 2, None),
    ({"budget": "ten"}, [], None, 2, None),
    ({"method": "greedy"}, [], None, 2, None),
    ({"generator": {"layer_node_counts": [5]}}, [], None, 2, None),
    ({"score_m": 0}, [], None, 2, None),
    ({"score_m": -3}, [], None, 2, None),
    ({"alpha": -1}, [], None, 2, None),
    ({"method": "celf-single"}, ["--layer", "7"], None, 2, None),  # three layers
    ({"method": "celf-single"}, ["--layer", "-1"], None, 2, None),
    ({}, ["--exact"], None, 3, None),  # 90 IC edges exceed the exact guard
    (ALPHA0_ZERO_EVIDENCE, [], None, 3, "evidence has zero probability under the tree"),
    ({"seed": 1.5}, [], None, 2, "master_seed must be an integer >= 0"),
    ({"seed": "7"}, [], None, 2, "master_seed must be an integer >= 0"),
    ({"seed": -1}, [], None, 2, "master_seed must be an integer >= 0"),
    ({"seed": True}, [], None, 2, "master_seed must be an integer >= 0"),
    ({"refine": "no"}, [], None, 2, "refine must be true or false"),
    ({"refine": 0}, [], None, 2, "refine must be true or false"),
    *[({"generator": {**GENERATOR, key: value}}, [], None, 2, key)
      for _, key, value in BAD_GENERATOR_FIELDS],
], ids=["benchmark-keys", "negative-lt-weight", "duplicate-edge", "self-loop",
        "theta-on-ic", "theta-before-model", "header-unknown-key", "bad-prob-first",
        "bad-prob-second", "edge-extra-token", "edge-extra-junk", "model-extra-token",
        "member-extra-token", "theta-extra-token", "config-is-dir", "network-is-dir",
        "outdir-is-file", "reasoner-m-one", "ksn-m-one", "unknown-key",
        "bad-clamp", "m-zero", "m-string", "xi-zero", "xi-above-one", "gamma-zero",
        "kappa-zero", "restarts-zero", "tau-zero", "delta-negative",
        "budget-negative", "budget-string", "unknown-method", "bad-generator",
        "score-m-zero", "score-m-negative", "alpha-negative", "layer-above-range",
        "layer-negative", "exact-guard", "alpha0-zero-evidence", "seed-float",
        "seed-string", "seed-negative", "seed-bool", "refine-string", "refine-zero",
        *[f"generator-{name}" for name, _, _ in BAD_GENERATOR_FIELDS]])
def test_solve_exit_codes(tmp_path, capsys, doc, flags, network, code, error):
    flags = [f.format(tmp=tmp_path) for f in flags]
    argv = ["solve", "--config", write_config(tmp_path, **{"method": "ksn", **doc}),
            "--outdir", str(tmp_path / "out"), *flags]
    if network is not None:
        path = tmp_path / "net.mux"
        path.write_text(network)
        argv += ["--network", str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    out = json.loads(captured.out.strip().splitlines()[-1])
    if code == 0:
        assert os.path.exists(out["solution"])
    else:
        assert "error" in out
    if error is not None:
        assert error in out["error"]
    if code == 2:  # rejected before any work
        assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command, doc, code, error", [
    ("verify", ALPHA0_ZERO_EVIDENCE, 3, "evidence has zero probability under the tree"),
    ("inspect-pgm", ALPHA0_ZERO_EVIDENCE, 3, "evidence has zero probability under the tree"),
    ("verify", {"generator": {**GENERATOR, "rng_sed": 5}}, 2, "rng_sed"),
    ("inspect-pgm", {"generator": {**GENERATOR, "rng_sed": 5}}, 2, "rng_sed"),
], ids=["verify-alpha0-zero-evidence", "inspect-pgm-alpha0-zero-evidence",
        "verify-generator-misspelt-key", "inspect-pgm-generator-misspelt-key"])
def test_verify_and_inspect_pgm_exit_codes(tmp_path, capsys, command, doc, code, error):
    argv = [command, "--config", write_config(tmp_path, **doc),
            "--outdir", str(tmp_path / "out")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert error in json.loads(captured.out.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("command", ["inspect-pgm", "verify"])
def test_reasoner_single_simulation_rejected_before_work(tmp_path, capsys, command):
    cfg = write_config(tmp_path, method="mim-reasoner", m=1)
    outdir = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--outdir", outdir]) == 2
    assert "m must be >= 2" in read_json(capsys)["error"]
    assert not os.path.exists(outdir)


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
