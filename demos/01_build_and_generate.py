"""Build multiplex networks: by hand, synthetically, and through files.

A multiplex network stacks directed diffusion layers over one universe of
node identities.  A node that belongs to several layers is an overlap node:
activating it anywhere activates it everywhere it belongs.
"""

import os
import tempfile

import numpy as np

from muxim import (GeneratorConfig, MultiplexNetwork, generate_synthetic,
                   load_multiplex, overlap_count, save_multiplex)
from muxim.network import IC, LT, Layer

# --- by hand: two layers sharing node 1 -------------------------------------
edges0 = np.array([[0, 1]])
edges1 = np.array([[1, 2]])
member = np.array([[True, True, False],
                   [False, True, True]])
net = MultiplexNetwork(3, [
    Layer(0, IC, edges0, probs=np.array([1.0])),
    Layer(1, IC, edges1, probs=np.array([1.0])),
], member)
print("hand-built:", net.num_layers, "layers,", net.num_nodes, "identities")
print("native overlap:", sorted(net.native_overlap))

# --- synthetic: Erdos-Renyi layers with shared identities --------------------
cfg = GeneratorConfig(
    layer_node_counts=[500, 2000, 2500],
    total_edges=25000,
    overlap_percent=0.5,
    model_per_layer=[IC, LT, IC],
    rng_seed=7,
)
synth = generate_synthetic(cfg)
print("\nsynthetic:", synth.num_nodes, "identities across",
      synth.num_layers, "layers")
print("overlap count:", overlap_count(synth), "(= 0.5 * 2500)")
print("per-layer edges:", [l.num_edges for l in synth.layers])
print("padded slot total:", synth.meta["generator"]["pre_merge_total_nodes"])

# --- file round trip ----------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_network.mux")
    digest = save_multiplex(synth, path)
    again = load_multiplex(path)
print("\nsaved with sha256", digest[:16], "...")
print("round-trip structurally equal:", synth.structurally_equal(again))
