"""Command line front end: generate networks, solve, verify bounds, dump PGMs.

All knobs live in a single JSON config document; command-line flags override
individual fields.  Outputs are deterministic for a fixed config and seed,
except for the wall-clock fields in solution JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from .network import (GeneratorConfig, MultiplexNetwork, generate_synthetic,
                      load_multiplex, overlap_count, save_multiplex)
from .pipeline import (METHOD_CELF_SINGLE, METHOD_ISF, METHOD_KSN,
                       METHOD_REASONER, SolverConfig, exhaustive_optimum, solve)
from .propagation import GuardError, exact_spread, exact_worlds

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

METHODS = (METHOD_REASONER, METHOD_KSN, METHOD_ISF, METHOD_CELF_SINGLE)
# config document key -> SolverConfig field
SOLVER_KEYS = {
    "m": "m", "seed": "master_seed", "xi": "xi", "gamma": "gamma",
    "kappa": "kappa", "delta": "delta", "clamp_mode": "clamp",
    "tau": "tau", "restarts": "restarts", "refine": "refine",
    "score_m": "score_m", "alpha": "alpha", "layer": "single_layer",
}
DOC_KEYS = {"method", "budget", "network", "generator", "output_dir", *SOLVER_KEYS}


class _CliError(Exception):
    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload
        super().__init__(json.dumps(payload))


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _CliError(EXIT_USAGE, {"error": f"config is not valid JSON: {exc}"})
    if not isinstance(doc, dict):
        raise _CliError(EXIT_USAGE, {"error": "config must be a JSON object"})
    return doc


def _check_keys(block: dict, allowed, what: str) -> None:
    """A usage error naming every key of `block` outside `allowed`."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise _CliError(EXIT_USAGE, {"error": f"{what}: {', '.join(unknown)}",
                                     "unknown_keys": unknown})


def _solver_config(doc: dict, args) -> SolverConfig:
    """Solver knobs from the document and flags, checked before any work."""
    _check_keys(doc, DOC_KEYS, "unknown config keys")
    cfg = SolverConfig()
    for key, attr in SOLVER_KEYS.items():
        if key in doc:
            setattr(cfg, attr, doc[key])
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, attr, flag)
    try:
        cfg.validate()
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, {"error": f"bad config: {exc}"})
    return cfg


def _method_budget(doc: dict, args, default_budget: int):
    method = args.method or doc.get("method", METHOD_REASONER)
    if method not in METHODS:
        raise _CliError(EXIT_USAGE, {"error": f"unknown method {method!r}; "
                                              f"expected one of {list(METHODS)}"})
    budget = args.budget if args.budget is not None else doc.get("budget", default_budget)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise _CliError(EXIT_USAGE, {"error": f"budget must be an integer >= 0, got {budget!r}"})
    return method, budget


def _check_method(cfg: SolverConfig, method: str, net) -> None:
    """Knobs the method needs from the resolved network, checked before any work.

    celf-single's layer must exist; mim-reasoner fits tree models on two or
    more layers, and those need at least 2 simulations.
    """
    if method == METHOD_CELF_SINGLE and cfg.single_layer >= net.num_layers:
        raise _CliError(EXIT_USAGE, {"error": f"bad config: layer {cfg.single_layer} is out "
                                              f"of range for {net.num_layers} layers"})
    if method == METHOD_REASONER and net.num_layers >= 2 and cfg.m < 2:
        raise _CliError(EXIT_USAGE, {"error": f"bad config: m must be >= 2 for {method} on "
                                              f"{net.num_layers} layers, got {cfg.m}"})


def _resolve_network(doc: dict, args):
    path = getattr(args, "network", None) or doc.get("network")
    if path:
        if not os.path.exists(path):
            raise _CliError(EXIT_USAGE, {"error": f"network file not found: {path}"})
        try:
            return load_multiplex(path)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, {"error": f"bad network file {path}: {exc}"})
    gen = doc.get("generator")
    if not gen:
        raise _CliError(EXIT_USAGE,
                        {"error": "config needs a 'network' path or 'generator' block"})
    return _generate(_generator_block(gen))


def _generator_block(gen, preset: bool = False) -> dict:
    """`gen` if it is a JSON object whose keys are GeneratorConfig fields or,
    with `preset`, keys a preset takes; else a usage error naming the keys."""
    if not isinstance(gen, dict):
        raise _CliError(EXIT_USAGE, {"error": "bad generator config: not a JSON object"})
    allowed = ["overlap_percent", "model", "rng_seed"] if preset else \
        [f.name for f in dataclasses.fields(GeneratorConfig)]
    _check_keys(gen, allowed, "bad generator config: unknown keys")
    return gen


def _generate(gen: dict) -> MultiplexNetwork:
    """The network a generator block describes; a bad block is a usage error."""
    try:
        return generate_synthetic(GeneratorConfig(
            layer_node_counts=gen["layer_node_counts"],
            total_edges=gen["total_edges"],
            overlap_percent=gen["overlap_percent"],
            model_per_layer=gen["model_per_layer"],
            rng_seed=gen.get("rng_seed", 0),
            layer_edge_counts=gen.get("layer_edge_counts"),
            allow_padding=gen.get("allow_padding", True),
        ))
    except KeyError as exc:
        raise _CliError(EXIT_USAGE, {"error": f"bad generator config: missing key {exc}"})
    except (TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, {"error": f"bad generator config: {exc}"})


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, DOC_KEYS, "unknown config keys")
    gen = _generator_block(doc.get("generator", {}), preset=args.preset is not None)
    if args.preset == "table1-3layer":
        gen = {"layer_node_counts": [500, 2000, 2500], "total_edges": 25000,
               "overlap_percent": gen.get("overlap_percent", 0.3),
               "model_per_layer": [gen.get("model", "IC")] * 3,
               "rng_seed": gen.get("rng_seed", 0)}
    if args.overlap is not None:
        gen["overlap_percent"] = args.overlap
    if args.seed is not None:
        gen["rng_seed"] = args.seed
    net = _generate(gen)
    out = args.output or "network.mux"
    digest = save_multiplex(net, out)
    manifest = {
        "file": os.path.basename(out),
        "sha256": digest,
        "k": net.num_layers,
        "num_identities": net.num_nodes,
        "native_overlap": overlap_count(net),
        "models": [layer.model for layer in net.layers],
        **net.meta.get("generator", {}),
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def _guarded(method: str, fn, *args):
    """`fn(*args)`, the solve or an exact oracle; a GuardError or ValueError
    exits 3 with JSON naming `method`."""
    try:
        return fn(*args)
    except (GuardError, ValueError) as exc:
        raise _CliError(EXIT_GUARD, {"error": str(exc), "method": method})


def cmd_solve(args) -> int:
    doc = _load_config(args.config)
    cfg = _solver_config(doc, args)
    method, budget = _method_budget(doc, args, 30)
    net = _resolve_network(doc, args)
    _check_method(cfg, method, net)
    exact = _guarded(method, exact_worlds, net) if args.exact else None
    outdir = args.outdir or doc.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)

    t0 = time.perf_counter()
    solution = _guarded(method, solve, net, method, budget, cfg)
    wall = time.perf_counter() - t0

    if exact is not None:
        sigma = exact.spread(solution.union_seeds, per_layer=False).mean
        solution.spread.mean = sigma
        solution.spread.stderr = 0.0
        solution.certificate.sigma_hat = sigma

    payload = solution.to_dict()
    sol_path = os.path.join(outdir, f"solution_{method}.json")
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    csv_path = os.path.join(outdir, "results.csv")
    new_file = not os.path.exists(csv_path)
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["method", "k", "o", "l", "total_spread",
                             "stderr", "wall_seconds"])
        writer.writerow([method, net.num_layers, overlap_count(net), budget,
                         solution.spread.mean, solution.spread.stderr,
                         f"{wall:.3f}"])
    print(json.dumps({"solution": sol_path, "results": csv_path,
                      "total_spread": solution.spread.mean}, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _load_config(args.config)
    cfg = _solver_config(doc, args)
    method, budget = _method_budget(doc, args, 2)
    net = _resolve_network(doc, args)
    _check_method(cfg, method, net)

    sigma_opt, _ = _guarded(method, exhaustive_optimum, net, budget)
    solution = _guarded(method, solve, net, method, budget, cfg)
    sigma_hat = exact_spread(net, solution.union_seeds)

    cert = solution.certificate
    print(f"method={method} k={cert.k} o={cert.o} l={budget}")
    print(f"sigma_hat={sigma_hat:.6f} sigma_opt={sigma_opt:.6f} "
          f"beta={'n/a' if cert.beta is None else f'{cert.beta:.4f}'}")
    failures = 0
    for name, bound in cert.bounds().items():
        if bound is None:
            continue
        ok = sigma_hat + 1e-9 >= bound * sigma_opt
        status = "PASS" if ok else "FAIL"
        print(f"bound[{name}] = {bound:.6f}  requires >= {bound * sigma_opt:.6f}  {status}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else 1


def cmd_inspect_pgm(args) -> int:
    doc = _load_config(args.config)
    cfg = _solver_config(doc, args)
    _, budget = _method_budget(doc, args, 30)
    net = _resolve_network(doc, args)
    _check_method(cfg, METHOD_REASONER, net)
    outdir = args.outdir or doc.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    solution = _guarded(METHOD_REASONER, solve, net, METHOD_REASONER, budget, cfg)
    written = []
    for t, model in enumerate(solution.models):
        path = os.path.join(outdir, f"pgm_{t}.json")
        if model.tree is not None:
            text = model.tree.to_json(model.partition)
        else:
            text = json.dumps({"root": None, "nodes": [], "edges": [],
                               "group_partition": {
                                   "groups": model.partition.groups,
                                   "representatives": model.partition.representatives,
                                   "kinds": model.partition.kinds}},
                              sort_keys=True, indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        written.append(path)
    print(json.dumps({"pgms": written}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxim",
        description="Influence maximization on multiplex networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--network", help="multiplex edge-list file")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--budget", type=int)
        p.add_argument("--m", type=int, help="Monte Carlo simulations")
        p.add_argument("--seed", type=int)
        p.add_argument("--xi", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--kappa", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--restarts", type=int)
        p.add_argument("--layer", type=int)
        p.add_argument("--clamp-mode", dest="clamp_mode", choices=["raw", "clamp01"])
        p.add_argument("--outdir")

    g = sub.add_parser("generate", help="write a synthetic multiplex file")
    g.add_argument("--config")
    g.add_argument("--preset", choices=["table1-3layer"])
    g.add_argument("--overlap", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--output")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run a solver and record its solution")
    common(s)
    s.add_argument("--exact", action="store_true",
                   help="price the final seed set with the exact oracle")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="check ratio bounds on a small instance")
    common(v)
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("inspect-pgm", help="dump fitted tree models as JSON")
    common(i)
    i.set_defaults(func=cmd_inspect_pgm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(json.dumps(exc.payload))
        return exc.code
    except OSError as exc:  # a missing, unreadable or directory path
        print(json.dumps({"error": f"cannot use {exc.filename}: {exc.strerror}"}))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
