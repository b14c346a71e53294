"""Spans and counts around the program's module boundaries.

The traced pass replaces each function or method listed in `install` with
a wrapper, at the name its caller looks it up: module functions in the
calling module's namespace (`muxim.pipeline.probabilistic_greedy`), methods
on their class (`muxim.propagation.CascadeWorlds.run`).  A wrapper records
one span (name, start, end, parent) per call and may count or capture what
the call returned.  Spans stay in memory until `write`.  The program is
single-threaded (the benchmark leaves MIM_THREADS unset), so a stack gives
every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from checks import naive_greedy_gains

NAME, START, END, PARENT, LAST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, last descendant]
        self.counts: Counter = Counter()
        self.captures: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.captures.clear()

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run fn inside a span; `after(tracer, span, args, kwargs, result)`."""
        idx = len(self.spans)
        rec = [name(args) if callable(name) else name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, idx]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            rec[LAST] = len(self.spans) - 1
            self._stack.pop()
        if after is not None:
            after(self, idx, args, kwargs, result)
        return result

    def patch(self, target: str, name, hook=None) -> bool:
        """Wrap the function at a dotted path such as
        `muxim.propagation.CascadeWorlds.run` in a span.

        `hook(orig)` makes the span's `after` callback from the original
        function.  A path that no longer exists is reported on stderr and
        skipped, so its metrics read 0.
        """
        owner, attrs = _resolve(target)
        orig = getattr(owner, attrs[-1], None) if owner is not None else None
        if orig is None:
            print(f"trace: {target} not found; its spans are missing",
                  file=sys.stderr)
            return False
        after = hook(orig) if hook is not None else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, orig, *args, after=after, **kwargs)

        setattr(owner, attrs[-1], wrapper)
        self._patches.append((owner, attrs[-1], orig))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, list]:
        """[calls, inclusive seconds, self seconds] per span name.

        Self time is a span's duration minus the durations of its direct
        children; on one thread children never overlap.
        """
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            d = s[END] - s[START]
            row = out[s[NAME]]
            row[0] += 1
            row[1] += d
            row[2] += d
            if s[PARENT] >= 0:
                out[self.spans[s[PARENT]][NAME]][2] -= d
        return out

    def descendants(self, idx: int, name: str) -> int:
        """Spans called `name` that ran inside span idx."""
        return sum(1 for s in self.spans[idx + 1:self.spans[idx][LAST] + 1]
                   if s[NAME] == name)

    def write(self, path, meta: dict) -> None:
        """Spans as JSON; times are seconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(meta, columns=["name", "start_s", "end_s", "parent"],
                   spans=[[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9),
                           s[PARENT]] for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _resolve(target: str):
    """(owner, attribute path) for a dotted name: the longest importable
    prefix is the module, the rest are attributes; (None, ...) if missing."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        return owner, parts[cut:]
    return None, parts


def _arguments(fn):
    """Map a call's (args, kwargs) to fn's parameter names."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def install(tracer: Tracer) -> None:
    """Patch every module boundary the per-layer metrics are taken from."""
    def count(key, of):
        def after(t, idx, args, kwargs, result):
            t.counts[key] += of(result)
        return lambda orig: after

    def celf(orig):
        bind = _arguments(orig)

        def after(t, idx, args, kwargs, picks):
            bound = bind(args, kwargs)
            cands = bound.get("candidates", bound.get("nodes"))
            t.captures["celf"].append(
                (idx, len(list(getattr(cands, "nodes", cands))), len(picks)))
        return after

    def knapsack(orig):
        bind = _arguments(orig)

        def after(t, idx, args, kwargs, alloc):
            bound = bind(args, kwargs)
            t.captures["knapsack"].append((bound["table"], bound["budget"], alloc))
        return after

    def gain_scope(args):
        return "propagation.gain_layer" if args[0].layers is not None \
            else "propagation.gain_full"

    targets = [
        ("muxim.cli.load_multiplex", "network.load", None),
        ("muxim.cli.solve", "pipeline.solve", None),
        ("muxim.propagation.CascadeWorlds.__init__", "network.worlds", None),
        ("muxim.propagation.CascadeWorlds.run", "propagation.run",
         count("propagation.run.rows", lambda r: r[0].shape[0])),
        ("muxim.propagation._Baseline.gain", gain_scope, None),
        ("muxim.pipeline.estimate_spread", "propagation.estimate_spread", None),
        ("muxim.pipeline.record_status_dataset", "propagation.status_dataset", None),
        ("muxim.pipeline.probabilistic_greedy", "seeding.probabilistic_greedy", None),
        ("muxim.pipeline.candidate_scores", "seeding.candidate_scores", None),
        ("muxim.pipeline.build_profit_cost_table", "seeding.profit_table", None),
        ("muxim.seeding.celf_greedy", "seeding.celf", celf),
        ("muxim.pipeline.celf_greedy", "seeding.celf", celf),
        ("muxim.pipeline._celf_full", "seeding.celf", celf),
        ("muxim.pipeline.solve_mckp", "knapsack.solve_mckp", knapsack),
        ("muxim.pipeline.pearson_matrix", "pgm.pearson",
         count("pgm.pearson_bytes", lambda r: r.values.nbytes)),
        ("muxim.pipeline.variable_grouping", "pgm.grouping", None),
        ("muxim.pipeline.chow_liu_fit", "pgm.chow_liu",
         count("pgm.tree_vars", lambda r: len(r.nodes))),
        ("muxim.pgm.ChowLiuTree.condition_batch", "pgm.bp",
         count("pgm.bp.patterns", lambda r: r.shape[0])),
        ("muxim.rewards._ShapedObjective.gain", "rewards.gain", None),
        ("muxim.rewards.ActivationModel.conditionals_matrix", "rewards.conditionals",
         count("rewards.worlds_scored", lambda r: r.shape[0])),
        ("muxim.rewards.shaped_value_rows", "rewards.shaped_value_rows", None),
        ("muxim.pipeline.stochastic_refinement", "rewards.refine", None),
        ("muxim.pipeline.measure_beta", "pipeline.measure_beta", None),
    ]
    for target, name, hook in targets:
        tracer.patch(target, name, hook)


def celf_calls(t: Tracer) -> list[tuple[int, int]]:
    """(gain evaluations, naive greedy's count) for each lazy-greedy call."""
    return [(t.descendants(idx, "propagation.gain_layer")
             + t.descendants(idx, "propagation.gain_full"),
             naive_greedy_gains(num_candidates, num_picks))
            for idx, num_candidates, num_picks in t.captures["celf"]]


def knapsack_instances(t: Tracer):
    """(profits, costs, budget, allocation rows) for each solve_mckp call."""
    return [([[row.profit for row in rows] for rows in table.rows],
             [[row.cost for row in rows] for rows in table.rows],
             budget, [(r.layer, r.budget, r.profit) for r in alloc.rows])
            for table, budget, alloc in t.captures["knapsack"]]


def per_layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced solve, by name."""
    spans = t.summary()
    celf = celf_calls(t)

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    def per_s(name):
        return calls(name) / total(name) if total(name) > 0 else 0.0

    return {
        "network.load_s": total("network.load"),
        "network.worlds_s": total("network.worlds"),
        "propagation.run.calls": calls("propagation.run"),
        "propagation.run.rows": t.counts["propagation.run.rows"],
        "propagation.run.self_s": spans["propagation.run"][2],
        "propagation.gain_layer.calls": calls("propagation.gain_layer"),
        "propagation.gain_layer.per_s": per_s("propagation.gain_layer"),
        "propagation.gain_full.calls": calls("propagation.gain_full"),
        "propagation.gain_full.per_s": per_s("propagation.gain_full"),
        "propagation.estimate_spread_s": total("propagation.estimate_spread"),
        "propagation.status_dataset_s": total("propagation.status_dataset"),
        "seeding.probabilistic_greedy_s": total("seeding.probabilistic_greedy"),
        "seeding.candidate_scores_s": total("seeding.candidate_scores"),
        "seeding.celf.gains": sum(g for g, _ in celf),
        "seeding.celf.naive_gains": sum(n for _, n in celf),
        "seeding.profit_table_s": total("seeding.profit_table"),
        "knapsack.solve_mckp_s": total("knapsack.solve_mckp"),
        "pgm.pearson_s": total("pgm.pearson"),
        "pgm.pearson_bytes": t.counts["pgm.pearson_bytes"],
        "pgm.grouping_s": total("pgm.grouping"),
        "pgm.chow_liu_s": total("pgm.chow_liu"),
        "pgm.tree_vars": t.counts["pgm.tree_vars"],
        "pgm.bp.calls": calls("pgm.bp"),
        "pgm.bp.patterns": t.counts["pgm.bp.patterns"],
        "pgm.bp_s": total("pgm.bp"),
        "rewards.gain.calls": calls("rewards.gain"),
        "rewards.gain.per_s": per_s("rewards.gain"),
        "rewards.worlds_scored": t.counts["rewards.worlds_scored"],
        "rewards.shaped_value_rows.self_s": spans["rewards.shaped_value_rows"][2],
        "rewards.refine_s": total("rewards.refine"),
        "pipeline.measure_beta_s": total("pipeline.measure_beta"),
        "cli.self_s": spans["cli.main"][2],
        "trace.solve_s": total("cli.main"),
    }
