"""Golden solutions: `muxim solve` output, minus `wall_times`, byte for byte.

Seven small generated configs together cover every method, IC, LT and mixed
networks, refinement on and off, and candidate pruning on (`gamma` < 1) and
off.  Two of them also pin the `muxim inspect-pgm` tree dumps, whose CPTs
and per-edge MI no solution shows, and one guarded instance pins the
`muxim verify` report of every method.  A change that is meant to alter
solutions rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says so; any other difference is a regression.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from muxim.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _gen(counts, edges, models, seed, overlap=0.5):
    return {"layer_node_counts": counts, "total_edges": edges,
            "overlap_percent": overlap, "model_per_layer": models, "rng_seed": seed}


CASES = {
    # default pruning over three IC layers, no refinement
    "reasoner-ic-pruned": {
        "method": "mim-reasoner", "budget": 4, "m": 30, "score_m": 10, "seed": 3,
        "generator": _gen([24, 30, 36], 220, ["IC", "IC", "IC"], 1)},
    # mixed IC/LT/IC, refinement on, pruning off
    "reasoner-mixed-refine": {
        "method": "mim-reasoner", "budget": 4, "m": 30, "seed": 5, "gamma": 1.0,
        "refine": True, "restarts": 3, "tau": 0.2,
        "generator": _gen([20, 26, 30], 200, ["IC", "LT", "IC"], 2)},
    # LT everywhere, pruned and refined, clamped rewards
    "reasoner-lt-refine-pruned": {
        "method": "mim-reasoner", "budget": 3, "m": 24, "score_m": 8, "seed": 7,
        "gamma": 0.5, "kappa": 3, "refine": True, "restarts": 2,
        "clamp_mode": "clamp01", "xi": 0.6, "alpha": 0.5,
        "generator": _gen([16, 22, 20], 160, ["LT", "LT", "LT"], 3)},
    "ksn-lt-pruned": {
        "method": "ksn", "budget": 5, "m": 30, "score_m": 10, "seed": 2,
        "generator": _gen([26, 32], 180, ["LT", "IC"], 4)},
    "isf-mixed": {
        "method": "isf", "budget": 4, "m": 30, "seed": 4,
        "generator": _gen([30, 36, 34], 260, ["IC", "LT", "IC"], 5)},
    "celf-single-lt": {
        "method": "celf-single", "budget": 3, "m": 30, "seed": 6, "layer": 1,
        "generator": _gen([22, 28], 150, ["IC", "LT"], 6)},
    # five IC layers, unsmoothed trees (alpha 0), up to four competing
    # models in the shaped score, clamped rewards, pruning off
    "reasoner-ic5-alpha0": {
        "method": "mim-reasoner", "budget": 6, "m": 30, "seed": 8, "gamma": 1.0,
        "alpha": 0.0, "clamp_mode": "clamp01",
        "generator": _gen([20, 24, 22, 26, 18], 300, ["IC"] * 5, 7)},
}


# cases whose fitted trees are pinned too: unsmoothed five-layer, mixed IC/LT
PGM_CASES = ["reasoner-ic5-alpha0", "reasoner-mixed-refine"]

# a two-layer instance inside every exact-oracle guard (8 identities, 10 IC
# edges), whose `muxim verify` report is pinned for each method
VERIFY_CONFIG = {"budget": 2, "m": 40, "seed": 5, "gamma": 1.0,
                 "generator": _gen([5, 6], 10, ["IC", "IC"], 11)}
VERIFY_METHODS = ["celf-single", "isf", "ksn", "mim-reasoner"]


def _config(name, workdir, doc=None):
    config = os.path.join(workdir, f"{name}.config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(CASES[name] if doc is None else doc, fh)
    return config


def solve_case(name, workdir):
    """Solution JSON text of one case, minus `wall_times`."""
    config = _config(name, workdir)
    outdir = os.path.join(workdir, name)
    assert main(["solve", "--config", config, "--outdir", outdir]) == 0
    with open(os.path.join(outdir, f"solution_{CASES[name]['method']}.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("wall_times")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def inspect_case(name, workdir):
    """`inspect-pgm` output of one case: {golden file name: text}."""
    outdir = os.path.join(workdir, f"{name}-pgm")
    assert main(["inspect-pgm", "--config", _config(name, workdir),
                 "--outdir", outdir]) == 0
    out = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), encoding="utf-8") as fh:
            out[f"{name}.{fname}"] = fh.read()
    return out


def verify_case(method, workdir):
    """Stdout of `muxim verify` with `method` on VERIFY_CONFIG."""
    config = _config(f"verify-{method}", workdir, VERIFY_CONFIG)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--config", config, "--method", method]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_solution(name, tmp_path, capsys):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        want = fh.read()
    assert solve_case(name, str(tmp_path)) == want


@pytest.mark.parametrize("name", PGM_CASES)
def test_golden_pgm(name, tmp_path, capsys):
    want = {}
    for fname in sorted(os.listdir(GOLDEN_DIR)):
        if fname.startswith(f"{name}.pgm_"):
            with open(os.path.join(GOLDEN_DIR, fname), encoding="utf-8") as fh:
                want[fname] = fh.read()
    assert want, f"no inspect-pgm goldens recorded for {name}"
    assert inspect_case(name, str(tmp_path)) == want


@pytest.mark.parametrize("method", VERIFY_METHODS)
def test_golden_verify(method, tmp_path, capsys):
    with open(os.path.join(GOLDEN_DIR, f"verify.{method}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert verify_case(method, str(tmp_path)) == want


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            with open(os.path.join(GOLDEN_DIR, f"{case}.json"), "w",
                      encoding="utf-8") as out:
                out.write(solve_case(case, tmp))
        for case in PGM_CASES:
            for fname, text in inspect_case(case, tmp).items():
                with open(os.path.join(GOLDEN_DIR, fname), "w",
                          encoding="utf-8") as out:
                    out.write(text)
        for method in VERIFY_METHODS:
            with open(os.path.join(GOLDEN_DIR, f"verify.{method}.txt"), "w",
                      encoding="utf-8") as out:
                out.write(verify_case(method, tmp))
