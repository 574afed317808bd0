"""Interpreter tests: layer semantics, counters, state handling, filters."""

import copy
import hashlib

import numpy as np
import pytest

from nncost import interp, quant
from nncost.arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                         NetworkSpec, VanillaRNN)
from nncost.costmodel import rm_layer
from nncost.errors import EmptyOutput, ShapeError
from nncost.interp import (CellState, DenseWeights, FixedPoint, OpCounters,
                           audit, fir_filter, forward_conv1d, forward_dense,
                           forward_esn, forward_gru, forward_lstm,
                           forward_rnn, iir_filter, random_weights,
                           run_batches, zero_state)

BITS8 = BitwidthConfig(8, 8, 8)


class TestDense:
    def test_zero_weights_relu(self):
        spec = Dense(3, 2, activation="relu")
        w = DenseWeights(W=np.zeros((3, 2)), b=np.zeros(3))
        y, _ = forward_dense(spec, w, [1.0, -2.0])
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_identity(self):
        spec = Dense(2, 2, activation="linear")
        w = DenseWeights(W=np.eye(2), b=np.zeros(2))
        y, _ = forward_dense(spec, w, [0.3, -0.7])
        np.testing.assert_allclose(y, [0.3, -0.7])

    def test_counters(self):
        spec = Dense(3, 2)
        w = random_weights(spec, 0)
        _, c = forward_dense(spec, w, np.ones(2))
        assert c.mults == 6 == rm_layer(spec)
        assert c.adds == 3 * 1 + 3
        assert c.activations == 3

    def test_shape_error(self):
        spec = Dense(3, 2)
        w = random_weights(spec, 0)
        with pytest.raises(ShapeError):
            forward_dense(spec, w, np.ones(5))


class TestConv1D:
    def test_unit_kernel_identity(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=1, n_s=4, activation="linear")
        w = interp.ConvWeights(kernels=np.ones((1, 1, 1)), biases=np.zeros(1))
        x = np.array([[1.0], [2.0], [-3.0], [0.5]])
        maps, _ = forward_conv1d(spec, w, x)
        np.testing.assert_allclose(maps[0], x[:, 0])

    def test_hand_convolution(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=2, n_s=3, activation="linear")
        w = interp.ConvWeights(kernels=np.full((1, 2, 1), 0.5),
                               biases=np.zeros(1))
        maps, _ = forward_conv1d(spec, w, np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_allclose(maps[0], [0.5, 0.0])

    def test_counters(self):
        spec = Conv1D(n_f=2, n_i=3, n_k=3, n_s=10)
        w = random_weights(spec, 1)
        _, c = forward_conv1d(spec, w, np.ones((10, 3)))
        assert c.mults == rm_layer(spec)
        assert c.activations == 2 * spec.output_size

    def test_empty_output(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=5, n_s=5, dilation=2)
        w = random_weights(spec, 1)
        with pytest.raises(EmptyOutput):
            forward_conv1d(spec, w, np.ones((5, 1)))

    def test_fir_correspondence(self):
        # Linear zero-bias convolution equals an FIR filter with the
        # time-reversed kernel, once the warm-up samples are dropped.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n_k = int(rng.integers(1, 5))
            n_s = int(rng.integers(n_k, 16))
            spec = Conv1D(n_f=1, n_i=1, n_k=n_k, n_s=n_s, activation="linear")
            kernel = rng.normal(size=(1, n_k, 1))
            w = interp.ConvWeights(kernels=kernel, biases=np.zeros(1))
            x = rng.normal(size=(n_s, 1))
            maps, _ = forward_conv1d(spec, w, x)
            ref = fir_filter(kernel[0, ::-1, 0], x[:, 0])[n_k - 1:]
            np.testing.assert_allclose(maps[0], ref, atol=1e-12)


class TestRNN:
    def test_zero_weights(self):
        spec = VanillaRNN(2, 3, 4)
        w = interp.RNNWeights(W=np.zeros((3, 2)), U=np.zeros((3, 3)),
                              b=np.zeros(3))
        h_seq, state, _ = forward_rnn(spec, w, np.ones((4, 2)))
        np.testing.assert_array_equal(h_seq, np.zeros((4, 3)))
        np.testing.assert_array_equal(state.h, np.zeros(3))

    def test_iir_correspondence(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w_val, u_val = rng.uniform(-0.9, 0.9, 2)
            spec = VanillaRNN(1, 1, 8, activation="linear")
            w = interp.RNNWeights(W=np.array([[w_val]]),
                                  U=np.array([[u_val]]), b=np.zeros(1))
            x = rng.normal(size=8)
            h_seq, _, _ = forward_rnn(spec, w, x[:, None])
            ref = iir_filter([w_val], [u_val], x)
            np.testing.assert_allclose(h_seq[:, 0], ref, atol=1e-12)

    def test_counters(self):
        spec = VanillaRNN(3, 2, 2)
        w = random_weights(spec, 2)
        _, _, c = forward_rnn(spec, w, np.ones((2, 3)))
        assert c.mults == 2 * 2 * 5 == rm_layer(spec)


class TestLSTM:
    def test_zero_weights(self):
        spec = LSTM(1, 2, 3)
        w = interp.LSTMWeights(W=np.zeros((4, 2, 1)), U=np.zeros((4, 2, 2)),
                               b=np.zeros((4, 2)))
        h_seq, state, _ = forward_lstm(spec, w, np.ones((3, 1)))
        np.testing.assert_array_equal(h_seq, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.C, np.zeros(2))

    def test_forget_gate_saturation(self):
        spec = LSTM(1, 2, 1)
        w = interp.LSTMWeights(W=np.zeros((4, 2, 1)), U=np.zeros((4, 2, 2)),
                               b=np.zeros((4, 2)))
        w.b[1] = 100.0  # forget gate saturates to 1
        c0 = np.array([0.37, -1.2])
        init = CellState(h=np.zeros(2), C=c0.copy())
        _, state, _ = forward_lstm(spec, w, np.zeros((1, 1)), init_state=init)
        assert np.max(np.abs(state.C - c0)) < 1e-40

    def test_counters(self):
        spec = LSTM(1, 1, 1)
        w = random_weights(spec, 3)
        _, _, c = forward_lstm(spec, w, np.ones((1, 1)))
        assert c.mults == 11 == rm_layer(spec)

    def test_outputs_bounded(self):
        spec = LSTM(2, 4, 6)
        w = random_weights(spec, 4)
        h_seq, _, _ = forward_lstm(spec, w,
                                   np.random.default_rng(4).normal(size=(6, 2)))
        assert np.all(np.abs(h_seq) < 1.0)


class TestGRU:
    def test_zero_weights(self):
        spec = GRU(1, 2, 3)
        w = interp.GRUWeights(W=np.zeros((3, 2, 1)), U=np.zeros((3, 2, 2)),
                              b=np.zeros((3, 2)))
        h_seq, _, _ = forward_gru(spec, w, np.ones((3, 1)))
        np.testing.assert_array_equal(h_seq, np.zeros((3, 2)))

    def test_update_gate_freezes_state(self):
        spec = GRU(1, 2, 4)
        w = interp.GRUWeights(W=np.zeros((3, 2, 1)), U=np.zeros((3, 2, 2)),
                              b=np.zeros((3, 2)))
        w.b[0] = 100.0  # update gate ~1 keeps the previous state
        v = np.array([0.25, -0.6])
        init = CellState(h=v.copy())
        h_seq, _, _ = forward_gru(spec, w, np.ones((4, 1)), init_state=init)
        assert np.max(np.abs(h_seq - v)) < 1e-12

    def test_counters(self):
        spec = GRU(1, 2, 1)
        w = random_weights(spec, 5)
        _, _, c = forward_gru(spec, w, np.ones((1, 1)))
        assert c.mults == 24 == rm_layer(spec)


class TestESN:
    def test_full_leak_state_equals_activation(self):
        spec = EchoState(n_i=1, N_r=5, s_p=0.5, n_o=1, n_s=3, leak=1.0)
        w = random_weights(spec, 6)
        trace = []
        forward_esn(spec, w, np.ones((3, 1)), state_trace=trace)
        # mu=1 collapses the blend: s_t is exactly the new activation
        s = np.zeros(5)
        for t in range(3):
            a = np.tanh(w.W_r @ s + w.W_in @ np.ones(1))
            s = a
            np.testing.assert_allclose(trace[t], s, atol=1e-12)

    def test_tiny_leak_freezes_state(self):
        spec = EchoState(n_i=1, N_r=4, s_p=0.5, n_o=1, n_s=5, leak=1e-15)
        w = random_weights(spec, 7)
        s0 = np.array([0.1, -0.2, 0.3, 0.4])
        init = CellState(s=s0.copy(), y_prev=np.zeros(1))
        _, state, _ = forward_esn(spec, w, np.ones((5, 1)), init_state=init)
        np.testing.assert_allclose(state.s, s0, atol=1e-12)

    def test_counters_match_analytic(self):
        spec = EchoState(n_i=2, N_r=10, s_p=0.5, n_o=1, n_s=1)
        w = random_weights(spec, 8)
        _, _, c = forward_esn(spec, w, np.ones((1, 2)))
        assert c.mults == 100 == rm_layer(spec)

    def test_feedback_adds_counted_products(self):
        spec = EchoState(n_i=2, N_r=6, s_p=0.5, n_o=3, n_s=4)
        w = random_weights(spec, 9)
        _, _, base = forward_esn(spec, w, np.ones((4, 2)))
        _, _, fb = forward_esn(spec, w, np.ones((4, 2)),
                               feedback_enabled=True)
        assert fb.mults - base.mults == 4 * 6 * 3

    def test_reservoir_sparsity_structure(self):
        spec = EchoState(n_i=1, N_r=12, s_p=0.25, n_o=1, n_s=1)
        w = random_weights(spec, 10)
        per_row = np.count_nonzero(w.W_r, axis=1)
        assert np.all(per_row == spec.row_nonzeros)


class TestRunBatches:
    @pytest.mark.parametrize("spec", [VanillaRNN(2, 3, 5), LSTM(2, 3, 5),
                                      GRU(2, 3, 5)])
    def test_stateless_permutation_invariance(self, spec):
        rng = np.random.default_rng(11)
        w = random_weights(spec, 11)
        batches = [rng.normal(size=(5, 2)) for _ in range(4)]
        outs, _ = run_batches(spec, w, batches, "stateless")
        perm = [2, 0, 3, 1]
        outs_p, _ = run_batches(spec, w, [batches[i] for i in perm],
                                "stateless")
        for j, i in enumerate(perm):
            np.testing.assert_allclose(outs_p[j], outs[i])

    @pytest.mark.parametrize("spec", [VanillaRNN(2, 3, 5), LSTM(2, 3, 5),
                                      GRU(2, 3, 5),
                                      EchoState(n_i=2, N_r=6, s_p=0.5, n_o=1,
                                                n_s=5, leak=0.7)])
    def test_stateful_equals_concatenated(self, spec):
        rng = np.random.default_rng(12)
        w = random_weights(spec, 12)
        b1 = rng.normal(size=(5, 2))
        b2 = rng.normal(size=(5, 2))
        outs, _ = run_batches(spec, w, [b1, b2], "stateful")
        whole, _ = run_batches(spec, w, [np.vstack([b1, b2])], "stateless")
        np.testing.assert_allclose(np.vstack(outs), whole[0], atol=1e-12)

    def test_zero_recurrence_makes_modes_equal(self):
        spec = VanillaRNN(2, 3, 4)
        w = random_weights(spec, 13)
        w.U[:] = 0.0
        rng = np.random.default_rng(13)
        batches = [rng.normal(size=(4, 2)) for _ in range(3)]
        a, _ = run_batches(spec, w, batches, "stateless")
        b, _ = run_batches(spec, w, batches, "stateful")
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_rejects_feedforward(self):
        spec = Dense(2, 2)
        w = random_weights(spec, 14)
        with pytest.raises(TypeError):
            run_batches(spec, w, [np.ones(2)], "stateless")


class TestFilters:
    def test_fir_identity(self):
        np.testing.assert_array_equal(fir_filter([1.0], [1.0, 2.0, 3.0]),
                                      [1.0, 2.0, 3.0])

    def test_fir_average(self):
        np.testing.assert_allclose(fir_filter([0.5, 0.5], [1.0, 0.0, 0.0]),
                                   [0.5, 0.5, 0.0])

    def test_fir_delay(self):
        np.testing.assert_allclose(fir_filter([0.0, 1.0], [1.0, 2.0, 3.0]),
                                   [0.0, 1.0, 2.0])

    def test_iir_without_feedback_is_fir(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=12)
        a = rng.normal(size=3)
        np.testing.assert_allclose(iir_filter(a, [], x), fir_filter(a, x))

    def test_iir_geometric_decay(self):
        np.testing.assert_allclose(iir_filter([1.0], [0.5], [1.0, 0.0, 0.0]),
                                   [1.0, 0.5, 0.25])

    def test_iir_accumulator(self):
        np.testing.assert_allclose(iir_filter([1.0], [1.0], [1.0, 1.0, 1.0]),
                                   [1.0, 2.0, 3.0])


class TestFixedPoint:
    def test_pot_runs_on_shifts_and_matches_dequantized_float(self):
        rng = np.random.default_rng(16)
        spec = Dense(5, 7, activation="tanh")
        w = random_weights(spec, 16)
        x = rng.uniform(-1, 1, 7)
        mode = FixedPoint(BITS8, quant.PoT(8))
        y_fixed, c = forward_dense(spec, w, x, mode)
        assert c.mults == 0
        assert c.shifts == 35  # every weight product became one shift
        w_deq = copy.deepcopy(w)
        w_deq.W = quant.quantize_pot(w.W, 8).values
        xq, _ = interp._quantize_operand(x, 8)
        y_ref, _ = forward_dense(spec, w_deq, xq)
        np.testing.assert_allclose(y_fixed, y_ref, atol=1e-15)

    def test_pot_recurrent_keeps_hadamard_mults(self):
        spec = LSTM(2, 3, 4)
        w = random_weights(spec, 17)
        x = np.random.default_rng(17).uniform(-1, 1, (4, 2))
        mode = FixedPoint(BITS8, quant.PoT(8))
        _, _, c = forward_lstm(spec, w, x, mode)
        assert c.mults == 3 * 3 * 4  # only the three Hadamards per step
        assert c.mults + c.shifts == rm_layer(spec)

    def test_uniform_mode_counts_match_analytic(self):
        spec = VanillaRNN(3, 4, 5)
        w = random_weights(spec, 18)
        x = np.random.default_rng(18).uniform(-1, 1, (5, 3))
        mode = FixedPoint(BITS8, quant.FixedUniform(8))
        _, _, c = forward_rnn(spec, w, x, mode)
        assert c.mults == rm_layer(spec)
        assert c.overflows == 0

    def test_apot_decomposes_into_terms(self):
        spec = Dense(2, 3, activation="linear")
        w = random_weights(spec, 19)
        x = np.ones(3)
        mode = FixedPoint(BITS8, quant.APoT(8, 3))
        _, c = forward_dense(spec, w, x, mode)
        qw = quant.quantize_apot(w.W, 8, 3)
        n_terms = sum(len(t) for t in qw.terms)
        assert c.shifts == n_terms
        assert c.mults == 0


class TestAudit:
    def test_deterministic(self):
        from nncost.arch import NetworkSpec
        net = NetworkSpec("m", (Dense(6, 4), VanillaRNN(6, 3, 4)))
        a = audit(net, BITS8, quant.FixedUniform(8), seed=5)
        b = audit(net, BITS8, quant.FixedUniform(8), seed=5)
        assert a.to_json() == b.to_json()

    def test_all_types_zero_delta(self):
        from nncost.arch import NetworkSpec
        layers = [Dense(6, 4), Conv1D(n_f=2, n_i=3, n_k=3, n_s=9),
                  VanillaRNN(2, 3, 4), LSTM(2, 3, 4), GRU(2, 3, 4),
                  EchoState(n_i=2, N_r=8, s_p=0.4, n_o=2, n_s=3)]
        for layer in layers:
            record = audit(NetworkSpec("m", (layer,)), BITS8,
                           quant.FixedUniform(8), seed=3)
            assert record.per_layer[0].delta == 0

    def test_esn_feedback_surplus_reported(self):
        from nncost.arch import NetworkSpec
        layer = EchoState(n_i=2, N_r=8, s_p=0.4, n_o=2, n_s=3)
        record = audit(NetworkSpec("m", (layer,)), BITS8,
                       quant.FixedUniform(8), seed=3, esn_feedback=True)
        assert record.per_layer[0].delta == 3 * 8 * 2

    def test_totals_are_per_layer_sums(self):
        from nncost.arch import NetworkSpec
        net = NetworkSpec("m", (Dense(6, 4), LSTM(2, 3, 4), GRU(2, 3, 4)))
        record = audit(net, BITS8, quant.FixedUniform(8), seed=4)
        assert record.totals["mults"] == sum(e.mults for e in record.per_layer)
        assert record.totals["adds"] == sum(e.adds for e in record.per_layer)

    def test_sigmoid_and_tanh_ranges(self):
        # Strict bounds hold on the float64-representable range: tanh
        # saturates to exactly +/-1 beyond |x| ~ 19, sigmoid beyond ~ 36.
        rng = np.random.default_rng(20)
        c = OpCounters()
        s = interp._activate("sigmoid", rng.uniform(-36, 36, 5000), c)
        assert np.all(s > 0) and np.all(s < 1)
        t = interp._activate("tanh", rng.uniform(-18, 18, 5000), c)
        assert np.all(t > -1) and np.all(t < 1)


class TestFixedPointAuditPinned:
    """PoT/APoT audits of five layer types, pinned to sha256 digests of the
    report computed with the per-weight quantizers and tuple-length shift and
    add counts the vectorized quantizer and its count array replaced."""

    NET = NetworkSpec("zoo", (
        Dense(16, 12), Conv1D(n_f=4, n_i=3, n_k=3, n_s=10), LSTM(3, 6, 5),
        GRU(3, 6, 5), EchoState(n_i=2, N_r=20, s_p=0.2, n_o=2, n_s=6)))

    @pytest.mark.parametrize("scheme, digest", [
        (quant.PoT(8), "5a96a3b156633c2f9a4ed66da1243d7b"
                       "76560c1da26d6fca6fc2f707489b2231"),
        (quant.APoT(8, 2), "9d047ed02034f4d678bb2986892ec68c"
                           "eb9927c4110e06590317b765befc3525"),
        (quant.APoT(8, 3), "a831c31a20b75c0b53a4e3f02921498d"
                           "1059b04db3716b21c77370e90efcebbb"),
    ])
    def test_report_digest(self, scheme, digest):
        bits = BitwidthConfig()
        text = audit(self.NET, bits, scheme, seed=23,
                     mode=FixedPoint(bits, scheme)).to_json_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestStableSigmoid:
    @staticmethod
    def masked_sigmoid(v):
        """The boolean-mask scatter form the branch-free sigmoid replaced."""
        out = np.empty_like(v, dtype=float)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    def test_bitwise_equal_to_masked_form(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0,
                   -745.0, 746.0, -746.0, 1e308, -1e308, 5e-324, -5e-324,
                   36.8, -36.8]
        rng = np.random.default_rng(12)
        v = np.concatenate([special, rng.normal(scale=4.0, size=100_000),
                            rng.normal(scale=400.0, size=100_000)])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self.masked_sigmoid(v)
            got = interp._stable_sigmoid(v)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expected.view(np.uint64))

    def test_shapes_preserved(self):
        for v in (np.asarray(0.3), np.zeros((3, 4)), np.zeros(0)):
            assert interp._stable_sigmoid(v).shape == v.shape
