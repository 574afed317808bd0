#!/usr/bin/env python3
"""The DSP view of the layer equations.

A linear zero-bias 1-D convolution is a bank of FIR filters, and a linear
one-unit recurrent cell is a one-pole IIR filter. The interpreter honors
both correspondences to machine precision, which pins down its indexing
and state handling.
"""

import numpy as np

import nncost as nc
from nncost import interp

rng = np.random.default_rng(5)

# FIR: y_i = sum_m x_{i-m} * taps_m, zero-padded history.
x = rng.normal(size=16)
taps = [0.5, 0.3, -0.2]
y_fir = nc.fir_filter(taps, x)
print("FIR taps", taps, "first outputs", np.round(y_fir[:4], 4))

# The same response through a convolution layer (kernel time-reversed,
# warm-up samples dropped).
conv = nc.Conv1D(n_f=1, n_i=1, n_k=3, n_s=16, activation="linear")
w = interp.ConvWeights(kernels=np.array(taps)[::-1].reshape(1, 3, 1),
                       biases=np.zeros(1))
maps, _, _ = nc.run_layer(conv, w, x[:, None])
print("conv equals FIR:",
      np.allclose(maps[0], y_fir[2:], atol=1e-12))

# IIR: feedback coefficients give an infinite impulse response.
y_iir = nc.iir_filter([1.0], [0.5], [1.0, 0.0, 0.0, 0.0])
print("one-pole IIR impulse response:", y_iir)

rnn = nc.VanillaRNN(n_i=1, n_h=1, n_s=4, activation="linear")
rw = interp.RNNWeights(W=np.array([[1.0]]), U=np.array([[0.5]]),
                       b=np.zeros(1))
h_seq, _, _ = nc.run_layer(rnn, rw, np.array([[1.0], [0.0], [0.0], [0.0]]))
print("linear 1-unit recurrence:", h_seq[:, 0])

# Stateful vs stateless batch handling. A stateless run starts every batch
# from zero state; a stateful one passes each call's returned state to the
# next as init_state, so two chained batches equal one run over their
# concatenation.
spec = nc.GRU(n_i=2, n_h=6, n_s=8)
gw = interp.random_weights(spec, 9)
b1, b2 = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
out1, state, _ = nc.run_layer(spec, gw, b1)
out2, _, _ = nc.run_layer(spec, gw, b2, init_state=state)
whole, _, _ = nc.run_layer(spec, gw, np.vstack([b1, b2]))
print("stateful == concatenated run:",
      np.allclose(np.vstack([out1, out2]), whole, atol=1e-12))

nc.run_layer(spec, gw, b2)  # stateless: b1 now runs after b2
after_b2, _, _ = nc.run_layer(spec, gw, b1)
print("stateless outputs ignore batch order:", np.allclose(out1, after_b2))
