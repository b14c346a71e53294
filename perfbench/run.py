"""muxim benchmark: one workload, one process, every metric by name.

    python3 perfbench/run.py --workload reasoner-ic5 --seed 1 --seconds 25 --trace 0

The program is imported from the `src/` beside this directory, so the run
measures the checkout it sits in; without it the run exits 2 and prints no
result.  The run builds the workload's network with the benchmark's own
generator (fixed per workload), writes it and SEEDS_PER_ROUND solver
configs (seeds derived from --seed) under perfbench/out/, and times one
cold set-up.  It then repeats rounds of `muxim solve` through
`muxim.cli.main`, one solve per config, until --seconds have passed,
checking every output.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 every solve runs under the tracer and it
prints the per-layer metrics and writes the spans of the first solve to a
trace file.  The last line of stdout is the JSON result.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread and no phase-1 thread fan-out: the run measures one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MIM_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import netgen  # noqa: E402
import refsim  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the reference simulator's RNG stream is keyed by (--seed, this constant,
# config), apart from every stream the program derives from its own seed
REFERENCE_STREAM = 0x5EED_CAFE
REFERENCE_WORLDS = 1000
# a round solves the workload once under each of this many solver seeds,
# (--seed * SEEDS_PER_ROUND + j), so that one run averages over the work
# the seed decides (randomized restarts, refinement rollouts, tree sizes)
SEEDS_PER_ROUND = 4


@dataclass(frozen=True)
class Workload:
    layer_node_counts: list
    total_edges: int
    overlap: float
    models: list
    net_seed: int
    config: dict


WORKLOADS = {
    # phase 2 dominates: shaped greedy over every member of four later
    # layers, so rewards, pgm (BP) and a five-class knapsack do the work
    "reasoner-ic5": Workload([36, 57, 78, 99, 120], 975, 0.5, ["IC"] * 5, 5001,
                             {"method": "mim-reasoner", "budget": 10, "m": 100,
                              "gamma": 1.0}),
    # default config: probabilistic_greedy pruning with single-layer gains
    # through the LT path, then shaped greedy plus refinement rollouts
    "reasoner-mixed": Workload([50, 75, 100], 600, 0.5, ["IC", "LT", "IC"], 3001,
                               {"method": "mim-reasoner", "budget": 10, "m": 100,
                                "refine": True, "restarts": 4}),
    # whole-multiplex CELF; never touches pgm, rewards or the knapsack
    "isf-mixed": Workload([160, 240, 330], 1600, 0.5, ["IC", "LT", "IC"], 3002,
                          {"method": "isf", "budget": 5, "m": 50}),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Rounds:
    """Rounds of `muxim solve`, one solve per config, every output checked.

    A solve fails when it raises, exits non-zero, or its output fails a
    check; only solves that pass contribute times and metrics.
    """

    def __init__(self, cli, net, configs, out, tracer, count_metrics, kernel):
        self.cli, self.net, self.configs, self.tracer = cli, net, configs, tracer
        self.kernel = kernel
        self.count_metrics = count_metrics
        self.sol_dir = out / "solve"
        self.sol_path = self.sol_dir / f"solution_{configs[0]['method']}.json"
        self.argvs = [["solve", "--network", str(out / "network.mux"),
                       "--config", str(out / f"config-{j}.json"),
                       "--outdir", str(self.sol_dir)] for j in range(len(configs))]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.times: list[float] = []
        self.solutions: dict[int, dict] = {}  # first passing solution per config
        self.passes = [0] * len(configs)
        self.layer_metrics: list[dict] = []
        self.first_layer: dict[int, dict] = {}
        self.kernel_times: list[float] = []  # one before each solve, one after the last
        self.first_spans = None

    def run_until(self, deadline: float, traced: bool) -> None:
        """Whole rounds until the deadline has passed (at least one)."""
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            for j in range(len(self.configs)):
                self.kernel_times.append(self.kernel.time())
                self._attempt(j, traced)
        self.kernel_times.append(self.kernel.time())

    def _attempt(self, j: int, traced: bool) -> None:
        self.attempted += 1
        shutil.rmtree(self.sol_dir, ignore_errors=True)
        self.tracer.reset()
        try:
            elapsed, rc = self._solve(self.argvs[j], traced)
            if rc != 0:
                print(f"perfbench: muxim solve exited {rc}", file=sys.stderr)
                self.failed += 1
                return
            sol = json.loads(self.sol_path.read_text(encoding="utf-8"))
        except Exception:  # a crash is one failed solve; the run goes on
            traceback.print_exc()
            self.failed += 1
            return
        found = self._check(j, sol, traced)
        if found:
            self.problems += found
            self.failed += 1
            return
        self.times.append(elapsed)
        self.solutions.setdefault(j, sol)
        self.passes[j] += 1

    def scaled_solve_time(self) -> float:
        """Mean solve wall time at the reference machine speed.

        Means, not medians: the kernel runs between the solves, so the mean
        of each averages the machine's speed over the same stretch of time.
        """
        return statistics.fmean(self.times) * calibrate.REFERENCE_SECONDS \
            / statistics.fmean(self.kernel_times)

    def _solve(self, argv, traced: bool):
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            if traced:
                rc = self.tracer.call("cli.main", self.cli.main, argv)
            else:
                rc = self.cli.main(argv)
            return time.perf_counter() - t, rc

    def _check(self, j: int, sol: dict, traced: bool) -> list[str]:
        found = checks.check_seeds(sol, self.net.member, self.configs[j]["budget"]) \
            + checks.check_reward_telescoping(sol)
        sol.pop("wall_times")
        if j in self.solutions and sol != self.solutions[j]:
            found.append(f"config {j}: solution differs from its first solve's")
        if traced:
            found += checks.check_celf(tracing.celf_calls(self.tracer))
            for profits, costs, budget, alloc in tracing.knapsack_instances(self.tracer):
                found += checks.check_knapsack(profits, costs, budget, alloc)
            layer = tracing.per_layer_metrics(self.tracer)
            first = self.first_layer.setdefault(j, layer)
            found += [f"config {j}: {k} is {layer[k]}, its first solve had {first[k]}"
                      for k in self.count_metrics if layer[k] != first[k]]
            self.layer_metrics.append(layer)
            if self.first_spans is None:
                self.first_spans = list(self.tracer.spans)
        return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "muxim" / "cli.py").is_file():
        return fail(f"no muxim sources under {ROOT / 'src'}; run from the "
                    "root of a muxim checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from muxim import cli
    from muxim.network import load_multiplex
    from muxim.propagation import CascadeWorlds
    imported = time.perf_counter() - _PROCESS_START

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wl = WORKLOADS[args.workload]
    configs = [dict(wl.config, seed=args.seed * SEEDS_PER_ROUND + j)
               for j in range(SEEDS_PER_ROUND)]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    net = netgen.generate(wl.layer_node_counts, wl.total_edges, wl.overlap,
                          wl.models, wl.net_seed)
    (out / "network.mux").write_text(netgen.network_text(net), encoding="utf-8")
    for j, cfg in enumerate(configs):
        (out / f"config-{j}.json").write_text(json.dumps(cfg, sort_keys=True),
                                             encoding="utf-8")

    # cold set-up: interpreter imports, then the program's load and worlds
    t = time.perf_counter()
    CascadeWorlds(load_multiplex(out / "network.mux"), configs[0]["m"],
                  configs[0]["seed"])
    setup_wall = imported + time.perf_counter() - t
    kernel = calibrate.Kernel()
    setup_speed = statistics.median(kernel.time() for _ in range(3))
    setup_s = setup_wall * calibrate.REFERENCE_SECONDS / setup_speed

    tracer = tracing.Tracer()
    count_metrics = [m["name"] for m in spec["per_layer"]
                     if m["unit"] in ("count", "bytes")]
    rounds = Rounds(cli, net, configs, out, tracer, count_metrics, kernel)
    if args.trace:
        tracing.install(tracer)
    try:
        rounds.run_until(time.perf_counter() + args.seconds, bool(args.trace))
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = rounds.problems
    failed = rounds.failed
    ref_means = []
    for j, sol in sorted(rounds.solutions.items()):
        # every kept solution of config j equals its first: one estimate serves
        rng = np.random.default_rng([args.seed, REFERENCE_STREAM, j])
        ref_mean, ref_stderr = refsim.expected_spread(
            net, sol["union_seeds"], REFERENCE_WORLDS, rng)
        ref_means.append(ref_mean)
        spread_problems = checks.check_spread(sol, ref_mean, ref_stderr,
                                              REFERENCE_WORLDS)
        if spread_problems:
            problems += [f"config {j}: {p}" for p in spread_problems]
            failed += rounds.passes[j]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if not rounds.solutions:
        return fail(f"all {rounds.attempted} solves failed")

    if args.trace:
        tracer.spans = rounds.first_spans
        trace_path = out / "trace.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        # times: medians over the traced solves; counts: the mean per solve
        # over the configs, which repeats exactly
        metrics = {k: (statistics.fmean(r[k] for r in rounds.first_layer.values())
                       if k in count_metrics else
                       statistics.median(r[k] for r in rounds.layer_metrics))
                   for k in rounds.layer_metrics[0]}
        metrics["machine.kernel_s"] = statistics.fmean(rounds.kernel_times)
        print(f"perfbench: {rounds.attempted} traced solves, spans in {trace_path}",
              file=sys.stderr)
    else:
        metrics = {"solve_s": rounds.scaled_solve_time(),
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                   "spread": statistics.fmean(ref_means)}
        print(f"perfbench: {rounds.attempted} solves; wall seconds "
              + " ".join(f"{x:.3f}" for x in rounds.times)
              + "; kernel seconds " + " ".join(f"{x:.3f}" for x in rounds.kernel_times)
              + f"; set-up wall {setup_wall:.3f} s, kernel {setup_speed:.3f} s",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
