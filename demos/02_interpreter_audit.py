#!/usr/bin/env python3
"""Verify the analytic counts by actually executing the layers.

The interpreter runs each layer equation on seeded random weights and
inputs while tallying every multiplication, addition, shift and activation
evaluation. The audit compares those tallies against the closed-form
counts; the delta column is zero for every supported layer type.
"""

import numpy as np

import nncost as nc
from nncost import interp

bits = nc.BitwidthConfig(8, 8, 8)

net = nc.NetworkSpec("mixed", (
    nc.Dense(n_n=24, n_i=12),
    nc.Conv1D(n_f=6, n_i=3, n_k=5, n_s=40),
    nc.VanillaRNN(n_i=8, n_h=24, n_s=12),
    nc.LSTM(n_i=8, n_h=16, n_s=12),
    nc.GRU(n_i=8, n_h=16, n_s=12),
    nc.EchoState(n_i=8, N_r=50, s_p=0.2, n_o=4, n_s=12, leak=0.7),
))

record = interp.audit(net, bits, nc.FixedUniform(8), seed=42)
print(f"{'layer':>5} {'type':<8} {'analytic RM':>12} {'measured':>10} "
      f"{'delta':>6}")
for e in record.per_layer:
    print(f"{e.layer_index:>5} {e.layer_type:<8} {e.analytic_rm:>12} "
          f"{e.mults + e.shifts:>10} {e.delta:>6}")

# Enabling reservoir output feedback adds a product the closed-form count
# deliberately omits; the audit reports the surplus instead of hiding it.
esn_net = nc.NetworkSpec("fb", (nc.EchoState(n_i=8, N_r=50, s_p=0.2, n_o=4,
                                             n_s=12, leak=0.7),))
fb = interp.audit(esn_net, bits, nc.FixedUniform(8), seed=42,
                  esn_feedback=True)
e = fb.per_layer[0]
print(f"\nwith output feedback: delta {e.delta} "
      f"(= n_s * N_r * n_o = {12 * 50 * 4})")

# Counters are additive, so per-layer audits sum to network totals.
print("\ntotals:", fb.totals)

# The same equations run in fixed point. With power-of-two weights every
# weight product executes as a single barrel shift: mults stay at the
# element-wise products only.
mode = interp.FixedPoint(bits, nc.PoT(8))
lstm = nc.LSTM(n_i=8, n_h=16, n_s=12)
w = interp.random_weights(lstm, 7)
x = np.random.default_rng(7).uniform(-1, 1, (12, 8))
_, _, counters = interp.run_layer(lstm, w, x, mode)
print(f"\nLSTM under PoT fixed point: mults={counters.mults} "
      f"(3 Hadamards x n_h x n_s = {3 * 16 * 12}), shifts={counters.shifts}")
