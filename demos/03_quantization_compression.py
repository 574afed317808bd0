#!/usr/bin/env python3
"""Weight compression: quantization schemes, pruning and weight sharing."""

import numpy as np

import nncost as nc
from nncost import interp, quant

rng = np.random.default_rng(0)
weights = rng.normal(scale=0.4, size=512)

# Quantization error per scheme. PoT keeps only a signed power of two per
# weight (relative error up to 1/3); APoT adds more powers and tightens it;
# 8-bit uniform is the finest of the three.
print(f"{'scheme':<12} {'max |err|':>12} {'mean |err|':>12}")
for name, qw in [
    ("uniform8", nc.quantize_uniform(weights, 8)),
    ("pot8", nc.quantize_pot(weights, 8)),
    ("apot8 k=2", nc.quantize_apot(weights, 8, 2)),
    ("apot8 k=3", nc.quantize_apot(weights, 8, 3)),
]:
    err = np.abs(qw.values - weights)
    print(f"{name:<12} {err.max():>12.5f} {err.mean():>12.5f}")

# The shift-add price of one multiplication under each scheme.
print("\nadders per multiplication:",
      {s: nc.x_w(q) for s, q in [("uniform8", nc.FixedUniform(8)),
                                 ("apot8:2", nc.APoT(8, 2)),
                                 ("pot8", nc.PoT(8))]})

# Magnitude pruning drops the smallest weights; the kept set dominates the
# pruned set in magnitude by construction.
mask = nc.magnitude_prune(weights, sparsity=0.6)
kept = np.abs(weights[mask.keep])
pruned = np.abs(weights[~mask.keep])
print(f"\npruned {mask.sparsity:.0%}: kept min {kept.min():.4f} "
      f">= pruned max {pruned.max():.4f}")

# Pruned multiplications disappear from the executed count. The layer
# below reuses every kernel weight once per output position, so each
# pruned weight saves output_size multiplications.
layer = nc.Conv1D(n_f=4, n_i=2, n_k=4, n_s=32)
n_weights = quant.multiplicative_weight_count(layer)
layer_mask = nc.magnitude_prune(rng.normal(size=n_weights), 0.5)
print(f"\nconv layer: RM {nc.rm_layer(layer)} -> effective "
      f"{nc.effective_rm(layer, layer_mask)} after 50% pruning")

w = interp.random_weights(layer, 1)
pruned_w = interp.apply_prune_mask(w, layer_mask)
_, _, counters = interp.run_layer(layer, pruned_w, rng.uniform(-1, 1, (32, 2)))
print(f"interpreter measures {counters.mults} multiplications "
      f"(zero-skipping)")

# Weight sharing clusters the values so a layer needs at most c distinct
# multipliers.
shared = nc.cluster_weights(weights, c=8)
distinct = np.unique(shared.centroids[shared.assignments]).size
print(f"\nweight sharing with 8 clusters: {distinct} distinct multiplier "
      f"values, distortion {shared.distortion(weights):.4f}")
