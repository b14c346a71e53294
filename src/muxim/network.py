"""Multiplex network data model, synthetic generation, and edge-list file IO.

A multiplex network is a stack of directed graph layers over one shared
universe of node identities [0, num_nodes).  A node may be a *member* of any
subset of layers; in layers where it is not a member it exists only as an
isolated padding vertex.  Nodes that are members of two or more layers are
the native overlap: activating such a node in one layer activates it in
every layer it belongs to.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

IC = "IC"
LT = "LT"

LT_THRESHOLD_RANGE = (0.5, 0.9)


class ParseError(ValueError):
    """Malformed multiplex file; remembers the offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass
class Layer:
    """One directed diffusion layer.

    Edges are stored as an (E, 2) int array sorted by (src, dst).  IC layers
    carry a per-edge activation probability, LT layers a per-edge in-weight
    and (optionally) a fixed per-node threshold.  An LT layer without fixed
    thresholds draws them uniformly from LT_THRESHOLD_RANGE once per
    simulation.
    """

    layer_id: int
    model: str
    edges: np.ndarray
    probs: np.ndarray | None = None
    weights: np.ndarray | None = None
    thresholds: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def validate(self, num_nodes: int) -> None:
        if self.model not in (IC, LT):
            raise ValueError(f"layer {self.layer_id}: unknown model {self.model!r}")
        e = self.edges
        if e.size:
            if e.min() < 0 or e.max() >= num_nodes:
                raise ValueError(f"layer {self.layer_id}: edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError(f"layer {self.layer_id}: self-loop")
            keys = e[:, 0].astype(np.int64) * num_nodes + e[:, 1]
            if np.unique(keys).size != keys.size:
                raise ValueError(f"layer {self.layer_id}: duplicate directed edge")
        if self.model == IC:
            if self.probs is None or len(self.probs) != len(e):
                raise ValueError(f"layer {self.layer_id}: IC layer needs one probability per edge")
            if e.size and not np.all((self.probs >= 0.0) & (self.probs <= 1.0)):
                raise ValueError(f"layer {self.layer_id}: probability outside [0, 1]")
        else:
            if self.weights is None or len(self.weights) != len(e):
                raise ValueError(f"layer {self.layer_id}: LT layer needs one weight per edge")
            if e.size and not np.all(self.weights >= 0.0):
                raise ValueError(f"layer {self.layer_id}: negative LT weight")
            if self.thresholds is not None and len(self.thresholds) != num_nodes:
                raise ValueError(f"layer {self.layer_id}: threshold array length mismatch")

    def normalize_lt_weights(self, num_nodes: int) -> None:
        """Scale in-weights so each node's incoming weight sums to at most 1."""
        if self.model != LT or not self.edges.size:
            return
        sums = np.zeros(num_nodes)
        np.add.at(sums, self.edges[:, 1], self.weights)
        over = sums > 1.0 + 1e-12
        if over.any():
            scale = np.where(over, 1.0 / np.maximum(sums, 1e-300), 1.0)
            self.weights = self.weights * scale[self.edges[:, 1]]


def _sorted_edges(edges, aux=None):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((e[:, 1], e[:, 0]))
    if aux is None:
        return e[order]
    return e[order], np.asarray(aux, dtype=float)[order]


class MultiplexNetwork:
    """Immutable stack of layers over a shared node universe.

    `member` is a (k, n) boolean matrix: member[i, v] says node v belongs to
    layer i (padding vertices are non-members).  All read-only once built.
    """

    def __init__(self, num_nodes: int, layers: list[Layer], member: np.ndarray,
                 meta: dict | None = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if not layers:
            raise ValueError("need at least one layer")
        member = np.asarray(member, dtype=bool)
        if member.shape != (len(layers), num_nodes):
            raise ValueError("member matrix must be (k, num_nodes)")
        self.num_nodes = int(num_nodes)
        self.layers = list(layers)
        self.member = member
        self.meta = dict(meta or {})
        for i, layer in enumerate(self.layers):
            if layer.layer_id != i:
                raise ValueError("layer ids must be consecutive from 0")
            layer.validate(num_nodes)
            if layer.edges.size and not member[i][layer.edges].all():
                raise ValueError(f"layer {i}: edge endpoint is not a member of the layer")
        self.member.setflags(write=False)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def native_overlap(self) -> set[int]:
        return set(np.flatnonzero(self.member.sum(axis=0) >= 2).tolist())

    def structurally_equal(self, other: "MultiplexNetwork") -> bool:
        return canonical_text(self) == canonical_text(other)


def overlap_count(net: MultiplexNetwork) -> int:
    """Number of native overlapping nodes (members of two or more layers).

    Padding vertices never count: membership, not mere presence in the
    padded universe, is what qualifies a node.
    """
    return int(np.count_nonzero(net.member.sum(axis=0) >= 2))


@dataclass
class GeneratorConfig:
    """Settings for synthetic Erdos-Renyi multiplex generation.

    `overlap_percent` is taken relative to the largest layer's node count.
    `total_edges` is split across layers proportionally to their node counts
    unless `layer_edge_counts` pins exact per-layer counts.
    """

    layer_node_counts: list[int]
    total_edges: int
    overlap_percent: float
    model_per_layer: list[str]
    rng_seed: int = 0
    layer_edge_counts: list[int] | None = None
    allow_padding: bool = True

    def validate(self) -> None:
        """Raise ValueError naming the first field outside its type or domain."""
        def integer(v):
            return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

        def counts(name, values, low):
            if not isinstance(values, (list, tuple)) or not values \
                    or not all(integer(v) and v >= low for v in values):
                raise ValueError(f"{name} must be a non-empty list of integers "
                                 f">= {low}, got {values!r}")
            if len(values) != len(self.layer_node_counts):
                raise ValueError(f"{name} length must match layer count")

        counts("layer_node_counts", self.layer_node_counts, 1)
        if not isinstance(self.model_per_layer, (list, tuple)):
            raise ValueError(f"model_per_layer must be a list, got {self.model_per_layer!r}")
        if len(self.model_per_layer) != len(self.layer_node_counts):
            raise ValueError("model_per_layer length must match layer count")
        for m in self.model_per_layer:
            if m not in (IC, LT):
                raise ValueError(f"unknown model {m!r}")
        p = self.overlap_percent
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ValueError(f"overlap_percent must be a number in [0, 1], got {p!r}")
        for name in ("total_edges", "rng_seed"):
            if not integer(getattr(self, name)) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be an integer >= 0, "
                                 f"got {getattr(self, name)!r}")
        if self.layer_edge_counts is not None:
            counts("layer_edge_counts", self.layer_edge_counts, 0)
        if not isinstance(self.allow_padding, bool):
            raise ValueError(f"allow_padding must be true or false, got {self.allow_padding!r}")


def _split_edge_budget(cfg: GeneratorConfig) -> list[int]:
    if cfg.layer_edge_counts is not None:
        return [int(x) for x in cfg.layer_edge_counts]
    counts = np.asarray(cfg.layer_node_counts, dtype=float)
    raw = cfg.total_edges * counts / counts.sum()
    out = np.floor(raw).astype(int)
    rem = cfg.total_edges - int(out.sum())
    # hand leftover edges to the largest layers first, then by layer index
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    for i in range(rem):
        out[order[i % len(order)]] += 1
    return out.tolist()


def generate_synthetic(cfg: GeneratorConfig) -> MultiplexNetwork:
    """Build a random multiplex: one ER digraph per layer plus shared nodes.

    A designated overlap set of round(overlap_percent * max layer size)
    identities belongs to every layer; layers too small to host all of them
    natively still carry them as isolated members (the configured node count
    then bounds how many participate in that layer's ER graph).  Remaining
    identities are private to a single layer.  IC probabilities are
    1/in-degree of the target, LT weights likewise, LT thresholds uniform in
    LT_THRESHOLD_RANGE.  Fully deterministic for a fixed rng_seed.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    k = len(cfg.layer_node_counts)
    n_max = max(cfg.layer_node_counts)
    o = int(round(cfg.overlap_percent * n_max)) if k > 1 else 0

    short = [i for i, c in enumerate(cfg.layer_node_counts) if c < o]
    if short and not cfg.allow_padding:
        raise ValueError(
            f"overlap set of {o} nodes exceeds the node count of layers {short} "
            "and padding is disabled; shrink overlap_percent or allow padding")

    privates = [max(c - o, 0) for c in cfg.layer_node_counts]
    num_nodes = o + sum(privates)

    shared = np.arange(o)
    private_ids, base = [], o
    for p in privates:
        private_ids.append(np.arange(base, base + p))
        base += p

    member = np.zeros((k, num_nodes), dtype=bool)
    layers = []
    edge_budget = _split_edge_budget(cfg)
    for i in range(k):
        c = cfg.layer_node_counts[i]
        if c >= o:
            natives = np.concatenate([shared, private_ids[i]])
        else:
            natives = rng.choice(shared, size=c, replace=False)
        member[i, shared] = True
        member[i, private_ids[i]] = True

        natives = np.sort(natives)
        n_i = natives.size
        want = min(edge_budget[i], n_i * (n_i - 1))
        if want > 0:
            flat = rng.choice(n_i * (n_i - 1), size=want, replace=False)
            a, b = np.divmod(flat, n_i - 1)
            b = b + (b >= a)  # skip the diagonal
            edges = np.column_stack([natives[a], natives[b]])
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        edges = _sorted_edges(edges)

        indeg = np.zeros(num_nodes)
        if edges.size:
            np.add.at(indeg, edges[:, 1], 1.0)
        per_edge = 1.0 / indeg[edges[:, 1]] if edges.size else np.empty(0)

        if cfg.model_per_layer[i] == IC:
            layer = Layer(i, IC, edges, probs=per_edge)
        else:
            thetas = np.ones(num_nodes)
            mem_nodes = np.flatnonzero(member[i])
            lo, hi = LT_THRESHOLD_RANGE
            thetas[mem_nodes] = lo + (hi - lo) * rng.random(mem_nodes.size)
            layer = Layer(i, LT, edges, weights=per_edge, thresholds=thetas)
        layers.append(layer)

    # scatter identities uniformly so overlap ids carry no positional meaning
    perm = rng.permutation(num_nodes)
    member = member[:, np.argsort(perm)]
    for layer in layers:
        if layer.edges.size:
            if layer.probs is not None:
                layer.edges, layer.probs = _sorted_edges(perm[layer.edges], layer.probs)
            else:
                layer.edges, layer.weights = _sorted_edges(perm[layer.edges], layer.weights)
        if layer.thresholds is not None:
            layer.thresholds = layer.thresholds[np.argsort(perm)]

    meta = {
        "generator": {
            "layer_node_counts": list(cfg.layer_node_counts),
            "overlap_percent": cfg.overlap_percent,
            "rng_seed": cfg.rng_seed,
            "designated_overlap": o,
            "pre_merge_total_nodes": k * n_max,
            "layer_edge_counts": [layer.num_edges for layer in layers],
            "total_edges_with_interlayer": sum(l.num_edges for l in layers) + (k - 1) * o,
        }
    }
    return MultiplexNetwork(num_nodes, layers, member, meta=meta)


# ---------------------------------------------------------------------------
# Edge-list file format
#
#   #multiplex k=<int> n=<int>
#   @model <layer> IC|LT
#   !member <layer> <node>
#   @theta <layer> <node> <zeta>
#   <layer> <src> <dst> [<p_or_w>]
#
# Lines starting with '#' are comments.  Membership defaults to edge-endpoint
# occurrence; !member lines add isolated members (e.g. forced overlap nodes).
# ---------------------------------------------------------------------------


def canonical_text(net: MultiplexNetwork) -> str:
    """Serialize a network to the canonical line-oriented text form."""
    out = io.StringIO()
    out.write(f"#multiplex k={net.num_layers} n={net.num_nodes}\n")
    for layer in net.layers:
        out.write(f"@model {layer.layer_id} {layer.model}\n")
    for i in range(net.num_layers):
        for v in np.flatnonzero(net.member[i]):
            out.write(f"!member {i} {v}\n")
    for layer in net.layers:
        if layer.model == LT and layer.thresholds is not None:
            for v in np.flatnonzero(net.member[layer.layer_id]):
                out.write(f"@theta {layer.layer_id} {v} {float(layer.thresholds[v])!r}\n")
    for layer in net.layers:
        vals = layer.probs if layer.model == IC else layer.weights
        for (s, d), x in zip(layer.edges, vals):
            out.write(f"{layer.layer_id} {s} {d} {float(x)!r}\n")
    return out.getvalue()


def save_multiplex(net: MultiplexNetwork, path) -> str:
    """Write the canonical file and return its sha256 hex digest."""
    text = canonical_text(net)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_multiplex(path) -> MultiplexNetwork:
    """Parse, validate, and pad a multiplex from its edge-list file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    k = n = None
    models: dict[int, str] = {}
    members: list[tuple[int, int]] = []
    thetas: list[tuple[int, int, float, int]] = []  # with line number
    edges: dict[tuple[int, int, int], tuple[float | None, int]] = {}  # -> (value, line)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#multiplex"):
            try:
                parts = dict(tok.split("=") for tok in line.split()[1:])
                k, n = int(parts.pop("k")), int(parts.pop("n"))
            except (ValueError, KeyError):
                raise ParseError(lineno, "bad header; expected '#multiplex k=<int> n=<int>'")
            if parts:
                raise ParseError(lineno, f"unknown header key {sorted(parts)[0]!r}")
            if k < 1 or n < 1:
                raise ParseError(lineno, "k and n must be positive")
            continue
        if line.startswith("#"):
            continue
        if k is None:
            raise ParseError(lineno, "missing '#multiplex' header before data")

        toks = line.split()
        fields = 3 if toks[0] in ("@model", "!member") else 4
        if len(toks) > fields:
            raise ParseError(lineno, f"more than {fields} fields: {line!r}")
        try:
            if toks[0] == "@model":
                lid, kind = int(toks[1]), toks[2]
                if kind not in (IC, LT):
                    raise ParseError(lineno, f"unknown model {kind!r}")
                _check_layer(lineno, lid, k)
                models[lid] = kind
            elif toks[0] == "!member":
                lid, v = int(toks[1]), int(toks[2])
                _check_layer(lineno, lid, k)
                _check_node(lineno, v, n)
                members.append((lid, v))
            elif toks[0] == "@theta":
                lid, v, z = int(toks[1]), int(toks[2]), float(toks[3])
                _check_layer(lineno, lid, k)
                _check_node(lineno, v, n)
                if not (0.0 <= z <= 1.0):
                    raise ParseError(lineno, f"threshold {z} outside [0, 1]")
                thetas.append((lid, v, z, lineno))
            else:
                lid, s, d = int(toks[0]), int(toks[1]), int(toks[2])
                _check_layer(lineno, lid, k)
                _check_node(lineno, s, n)
                _check_node(lineno, d, n)
                x = float(toks[3]) if len(toks) > 3 else None
                if s == d:
                    raise ParseError(lineno, "self-loop")
                if (lid, s, d) in edges:
                    raise ParseError(lineno, f"duplicate edge, first on line "
                                     f"{edges[lid, s, d][1]}")
                edges[lid, s, d] = (x, lineno)
        except ParseError:
            raise
        except (ValueError, IndexError):
            raise ParseError(lineno, f"malformed line: {line!r}")

    for (lid, _, _), (x, lineno) in edges.items():
        if models.get(lid, IC) == IC and not (x is None or 0.0 <= x <= 1.0):
            raise ParseError(lineno, "probability outside [0, 1]")
        if models.get(lid, IC) == LT and not (x is None or x >= 0.0):
            raise ParseError(lineno, f"LT weight must be >= 0, got {x}")
    for lid, _, _, lineno in thetas:
        if models.get(lid, IC) != LT:
            raise ParseError(lineno, f"@theta on layer {lid}, which is not LT")

    member = np.zeros((k, n), dtype=bool)
    for lid, v in members:
        member[lid, v] = True
    for lid, s, d in edges:
        member[lid, s] = True
        member[lid, d] = True
    for lid, v, _, _ in thetas:
        member[lid, v] = True

    layers = []
    for lid in range(k):
        kind = models.get(lid, IC)
        mine = [(s, d, x) for (l, s, d), (x, _) in edges.items() if l == lid]
        earr = np.array([(s, d) for s, d, _ in mine], dtype=np.int64).reshape(-1, 2)
        indeg = np.zeros(n)
        if earr.size:
            np.add.at(indeg, earr[:, 1], 1.0)
        vals = np.array([x if x is not None else 1.0 / indeg[d]
                         for (s, d, x) in mine], dtype=float)
        if earr.size:
            earr, vals = _sorted_edges(earr, vals)
        if kind == IC:
            layer = Layer(lid, IC, earr, probs=vals)
        else:
            theta_mine = [(v, z) for (l, v, z, _) in thetas if l == lid]
            thr = None
            if theta_mine:
                # undeclared members get the hardest threshold rather than 0
                thr = np.ones(n)
                for v, z in theta_mine:
                    thr[v] = z
            layer = Layer(lid, LT, earr, weights=vals, thresholds=thr)
            layer.normalize_lt_weights(n)
        layers.append(layer)

    return MultiplexNetwork(n, layers, member)


def _check_layer(lineno, lid, k):
    if not (0 <= lid < k):
        raise ParseError(lineno, f"layer id {lid} outside [0, {k})")


def _check_node(lineno, v, n):
    if not (0 <= v < n):
        raise ParseError(lineno, f"node id {v} outside [0, {n})")

