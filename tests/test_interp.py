"""Interpreter tests: layer semantics, counters, state handling, filters."""

import copy
import hashlib
import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nncost import arch, interp, quant
from nncost.arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                         NetworkSpec, VanillaRNN)
from nncost.costmodel import rm_layer
from nncost.errors import DomainError, EmptyOutput, ShapeError
from nncost.interp import (CellState, DenseWeights, FixedPoint, OpCounters,
                           audit, fir_filter, iir_filter, random_weights,
                           run_layer)

BITS8 = BitwidthConfig(8, 8, 8)


class TestDense:
    def test_zero_weights_relu(self):
        spec = Dense(3, 2, activation="relu")
        w = DenseWeights(W=np.zeros((3, 2)), b=np.zeros(3))
        y, _, _ = run_layer(spec, w, [1.0, -2.0])
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_identity(self):
        spec = Dense(2, 2, activation="linear")
        w = DenseWeights(W=np.eye(2), b=np.zeros(2))
        y, _, _ = run_layer(spec, w, [0.3, -0.7])
        np.testing.assert_allclose(y, [0.3, -0.7])

    def test_counters(self):
        spec = Dense(3, 2)
        w = random_weights(spec, 0)
        _, _, c = run_layer(spec, w, np.ones(2))
        assert c.mults == 6 == rm_layer(spec)
        assert c.adds == 3 * 1 + 3
        assert c.activations == 3

    def test_shape_error(self):
        spec = Dense(3, 2)
        w = random_weights(spec, 0)
        with pytest.raises(ShapeError):
            run_layer(spec, w, np.ones(5))


class TestConv1D:
    def test_unit_kernel_identity(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=1, n_s=4, activation="linear")
        w = interp.ConvWeights(kernels=np.ones((1, 1, 1)), biases=np.zeros(1))
        x = np.array([[1.0], [2.0], [-3.0], [0.5]])
        maps, _, _ = run_layer(spec, w, x)
        np.testing.assert_allclose(maps[0], x[:, 0])

    def test_hand_convolution(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=2, n_s=3, activation="linear")
        w = interp.ConvWeights(kernels=np.full((1, 2, 1), 0.5),
                               biases=np.zeros(1))
        maps, _, _ = run_layer(spec, w, np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_allclose(maps[0], [0.5, 0.0])

    def test_counters(self):
        spec = Conv1D(n_f=2, n_i=3, n_k=3, n_s=10)
        w = random_weights(spec, 1)
        _, _, c = run_layer(spec, w, np.ones((10, 3)))
        assert c.mults == rm_layer(spec)
        assert c.activations == 2 * spec.output_size

    def test_empty_output(self):
        spec = Conv1D(n_f=1, n_i=1, n_k=5, n_s=5, dilation=2)
        w = random_weights(spec, 1)
        with pytest.raises(EmptyOutput) as info:
            run_layer(spec, w, np.ones((5, 1)))
        assert str(info.value) == f"{spec!r} emits no features"

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
            maps, _, _ = run_layer(spec, w, x)
            ref = fir_filter(kernel[0, ::-1, 0], x[:, 0])[n_k - 1:]
            np.testing.assert_allclose(maps[0], ref, atol=1e-12)


class TestRNN:
    def test_zero_weights(self):
        spec = VanillaRNN(2, 3, 4)
        w = interp.RNNWeights(W=np.zeros((3, 2)), U=np.zeros((3, 3)),
                              b=np.zeros(3))
        h_seq, state, _ = run_layer(spec, w, np.ones((4, 2)))
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
            h_seq, _, _ = run_layer(spec, w, x[:, None])
            ref = iir_filter([w_val], [u_val], x)
            np.testing.assert_allclose(h_seq[:, 0], ref, atol=1e-12)

    def test_counters(self):
        spec = VanillaRNN(3, 2, 2)
        w = random_weights(spec, 2)
        _, _, c = run_layer(spec, w, np.ones((2, 3)))
        assert c.mults == 2 * 2 * 5 == rm_layer(spec)


class TestLSTM:
    def test_zero_weights(self):
        spec = LSTM(1, 2, 3)
        w = interp.LSTMWeights(W=np.zeros((4, 2, 1)), U=np.zeros((4, 2, 2)),
                               b=np.zeros((4, 2)))
        h_seq, state, _ = run_layer(spec, w, np.ones((3, 1)))
        np.testing.assert_array_equal(h_seq, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.C, np.zeros(2))

    def test_forget_gate_saturation(self):
        spec = LSTM(1, 2, 1)
        w = interp.LSTMWeights(W=np.zeros((4, 2, 1)), U=np.zeros((4, 2, 2)),
                               b=np.zeros((4, 2)))
        w.b[1] = 100.0  # forget gate saturates to 1
        c0 = np.array([0.37, -1.2])
        init = CellState(h=np.zeros(2), C=c0.copy())
        _, state, _ = run_layer(spec, w, np.zeros((1, 1)), init_state=init)
        assert np.max(np.abs(state.C - c0)) < 1e-40

    def test_counters(self):
        spec = LSTM(1, 1, 1)
        w = random_weights(spec, 3)
        _, _, c = run_layer(spec, w, np.ones((1, 1)))
        assert c.mults == 11 == rm_layer(spec)

    def test_outputs_bounded(self):
        spec = LSTM(2, 4, 6)
        w = random_weights(spec, 4)
        h_seq, _, _ = run_layer(spec, w,
                                np.random.default_rng(4).normal(size=(6, 2)))
        assert np.all(np.abs(h_seq) < 1.0)


class TestGRU:
    def test_zero_weights(self):
        spec = GRU(1, 2, 3)
        w = interp.GRUWeights(W=np.zeros((3, 2, 1)), U=np.zeros((3, 2, 2)),
                              b=np.zeros((3, 2)))
        h_seq, _, _ = run_layer(spec, w, np.ones((3, 1)))
        np.testing.assert_array_equal(h_seq, np.zeros((3, 2)))

    def test_update_gate_freezes_state(self):
        spec = GRU(1, 2, 4)
        w = interp.GRUWeights(W=np.zeros((3, 2, 1)), U=np.zeros((3, 2, 2)),
                              b=np.zeros((3, 2)))
        w.b[0] = 100.0  # update gate ~1 keeps the previous state
        v = np.array([0.25, -0.6])
        init = CellState(h=v.copy())
        h_seq, _, _ = run_layer(spec, w, np.ones((4, 1)), init_state=init)
        assert np.max(np.abs(h_seq - v)) < 1e-12

    def test_counters(self):
        spec = GRU(1, 2, 1)
        w = random_weights(spec, 5)
        _, _, c = run_layer(spec, w, np.ones((1, 1)))
        assert c.mults == 24 == rm_layer(spec)


class TestESN:
    def test_full_leak_state_equals_activation(self):
        spec = EchoState(n_i=1, N_r=5, s_p=0.5, n_o=1, n_s=3, leak=1.0)
        w = random_weights(spec, 6)
        trace = []
        run_layer(spec, w, np.ones((3, 1)), state_trace=trace)
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
        _, state, _ = run_layer(spec, w, np.ones((5, 1)), init_state=init)
        np.testing.assert_allclose(state.s, s0, atol=1e-12)

    def test_counters_match_analytic(self):
        spec = EchoState(n_i=2, N_r=10, s_p=0.5, n_o=1, n_s=1)
        w = random_weights(spec, 8)
        _, _, c = run_layer(spec, w, np.ones((1, 2)))
        assert c.mults == 100 == rm_layer(spec)

    def test_feedback_adds_counted_products(self):
        spec = EchoState(n_i=2, N_r=6, s_p=0.5, n_o=3, n_s=4)
        w = random_weights(spec, 9)
        _, _, base = run_layer(spec, w, np.ones((4, 2)))
        _, _, fb = run_layer(spec, w, np.ones((4, 2)), feedback=True)
        assert fb.mults - base.mults == 4 * 6 * 3

    def test_reservoir_sparsity_structure(self):
        spec = EchoState(n_i=1, N_r=12, s_p=0.25, n_o=1, n_s=1)
        w = random_weights(spec, 10)
        per_row = np.count_nonzero(w.W_r, axis=1)
        assert np.all(per_row == spec.row_nonzeros)


def run_chained(spec, weights, batches) -> list:
    """Stateful outputs of consecutive batches: each ``run_layer`` call
    starts from the state the previous one returned."""
    outs, state = [], None
    for batch in batches:
        out, state, _ = run_layer(spec, weights, batch, init_state=state)
        outs.append(out)
    return outs


class TestRunBatches:
    """Batches run as separate ``run_layer`` calls (stateless) or chained
    through ``init_state`` (stateful)."""

    @pytest.mark.parametrize("spec", [VanillaRNN(2, 3, 5), LSTM(2, 3, 5),
                                      GRU(2, 3, 5)])
    def test_stateless_permutation_invariance(self, spec):
        rng = np.random.default_rng(11)
        w = random_weights(spec, 11)
        batches = [rng.normal(size=(5, 2)) for _ in range(4)]
        outs = [run_layer(spec, w, batch)[0] for batch in batches]
        perm = [2, 0, 3, 1]
        outs_p = [run_layer(spec, w, batches[i])[0] for i in perm]
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
        outs = run_chained(spec, w, [b1, b2])
        whole, _, _ = run_layer(spec, w, np.vstack([b1, b2]))
        np.testing.assert_allclose(np.vstack(outs), whole, atol=1e-12)

    def test_zero_recurrence_makes_modes_equal(self):
        spec = VanillaRNN(2, 3, 4)
        w = random_weights(spec, 13)
        w.U[:] = 0.0
        rng = np.random.default_rng(13)
        batches = [rng.normal(size=(4, 2)) for _ in range(3)]
        a = [run_layer(spec, w, batch)[0] for batch in batches]
        b = run_chained(spec, w, batches)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


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

    @staticmethod
    def loop_iir_filter(a, b, x):
        """``iir_filter`` as the per-t double loop it was, verbatim."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        x = np.asarray(x, dtype=float)
        if a.size == 0:
            raise ValueError("feedforward coefficients must be nonempty")
        y = np.zeros(x.size)
        for t in range(x.size):
            acc = 0.0
            for k in range(min(a.size, t + 1)):
                acc += a[k] * x[t - k]
            for k in range(1, min(b.size + 1, t + 1)):
                acc += b[k - 1] * y[t - k]
            y[t] = acc
        return y

    def test_iir_bitwise_equal_to_loop(self):
        """3,000 seeded cases: empty feedback, more taps than samples, empty
        and -0.0 inputs, and magnitudes that overflow."""
        rng = np.random.default_rng(16)
        for case in range(3000):
            a = rng.normal(size=rng.integers(1, 7))
            b = rng.normal(scale=0.6, size=rng.integers(0, 5))
            x = rng.normal(size=rng.integers(0, 12))
            if case % 5 == 0:
                x[rng.random(x.size) < 0.5] = -0.0
            if case % 7 == 0:
                a[rng.random(a.size) < 0.5] = -0.0
            if case % 11 == 0:
                x *= 1e300
            with np.errstate(over="ignore", invalid="ignore"):
                got = iir_filter(a, b, x)
                want = self.loop_iir_filter(a, b, x)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


class TestFixedPoint:
    def test_pot_runs_on_shifts_and_matches_dequantized_float(self):
        rng = np.random.default_rng(16)
        spec = Dense(5, 7, activation="tanh")
        w = random_weights(spec, 16)
        x = rng.uniform(-1, 1, 7)
        mode = FixedPoint(BITS8, quant.PoT(8))
        y_fixed, _, c = run_layer(spec, w, x, mode)
        assert c.mults == 0
        assert c.shifts == 35  # every weight product became one shift
        w_deq = copy.deepcopy(w)
        w_deq.W = quant.quantize_pot(w.W, 8).values
        xq, _ = interp._quantize_operand(x, 8)
        y_ref, _, _ = run_layer(spec, w_deq, xq)
        np.testing.assert_allclose(y_fixed, y_ref, atol=1e-15)

    def test_pot_recurrent_keeps_hadamard_mults(self):
        spec = LSTM(2, 3, 4)
        w = random_weights(spec, 17)
        x = np.random.default_rng(17).uniform(-1, 1, (4, 2))
        mode = FixedPoint(BITS8, quant.PoT(8))
        _, _, c = run_layer(spec, w, x, mode)
        assert c.mults == 3 * 3 * 4  # only the three Hadamards per step
        assert c.mults + c.shifts == rm_layer(spec)

    def test_uniform_mode_counts_match_analytic(self):
        spec = VanillaRNN(3, 4, 5)
        w = random_weights(spec, 18)
        x = np.random.default_rng(18).uniform(-1, 1, (5, 3))
        mode = FixedPoint(BITS8, quant.FixedUniform(8))
        _, _, c = run_layer(spec, w, x, mode)
        assert c.mults == rm_layer(spec)
        assert c.overflows == 0

    def test_float_scheme_counts_match_analytic(self):
        mode = FixedPoint(BITS8, quant.Float(8))
        for seed, spec in enumerate((Dense(4, 6), VanillaRNN(3, 4, 5),
                                     LSTM(2, 3, 4))):
            w = random_weights(spec, seed)
            x = np.random.default_rng(seed).uniform(
                -1, 1, arch.layer_kind(spec).input_shape(spec))
            _, _, c = run_layer(spec, w, x, mode)
            assert c.mults == rm_layer(spec)
            assert c.shifts == 0
            assert c.overflows == 0

    def test_apot_decomposes_into_terms(self):
        spec = Dense(2, 3, activation="linear")
        w = random_weights(spec, 19)
        x = np.ones(3)
        mode = FixedPoint(BITS8, quant.APoT(8, 3))
        _, _, c = run_layer(spec, w, x, mode)
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


@pytest.mark.kernel
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

    # Quiet and signalling NaNs of both signs, each with a nonzero payload
    NANS = np.array([0x7FF8000000000123, 0xFFF8000000000456,
                     0x7FF0000000000001, 0xFFF00000000ABCDE,
                     0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(float)
    # Where exp(|v|) overflows, exp(-|v|) turns subnormal and then 0
    EDGES = np.array([708.4, 709.78, 745.2, -708.4, -709.78, -745.2])

    @staticmethod
    def finite_cases():
        rng = np.random.default_rng(13)
        subnormal = rng.integers(1, 2**52, size=20_000,
                                 dtype=np.uint64).view(float)
        powers = np.ldexp(1.0, np.arange(-1074, -1021))
        edges = TestStableSigmoid.EDGES
        return np.concatenate([
            subnormal, -subnormal, powers, -powers, edges,
            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [0.0, -0.0, 1e308, -1e308], rng.normal(scale=400.0, size=10_000)])

    def assert_masked_bits(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self.masked_sigmoid(np.atleast_1d(v))
            got = interp._stable_sigmoid(v)
        assert np.shape(got) == np.shape(v)
        np.testing.assert_array_equal(
            np.atleast_1d(got).view(np.uint64), expected.view(np.uint64))

    def test_nan_payloads_and_signs_kept(self):
        # Repeated so that both the SIMD body and the scalar tail see them
        for reps in range(1, 20):
            self.assert_masked_bits(np.tile(self.NANS, reps))

    def test_subnormals_and_exp_edges(self):
        self.assert_masked_bits(self.finite_cases())

    def test_zero_d_input(self):
        for value in (*self.EDGES, 0.0, -0.0, 5e-324, -36.8, *self.NANS,
                      np.inf, -np.inf):
            self.assert_masked_bits(np.asarray(value))

    def test_finite_inputs_raise_nothing(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            interp._stable_sigmoid(self.finite_cases())

    def test_shapes_preserved(self):
        for v in (np.asarray(0.3), np.zeros((3, 4)), np.zeros(0)):
            assert interp._stable_sigmoid(v).shape == v.shape


RECURRENT_KINDS = (VanillaRNN, LSTM, GRU, EchoState)


def recurrent_spec(kind, activation):
    if kind is EchoState:
        return EchoState(n_i=2, N_r=6, s_p=0.5, n_o=2, n_s=5, leak=0.6,
                         activation=activation)
    return kind(2, 3, 5, activation=activation)


def state_arrays(state):
    return {name: value for name, value in vars(state).items()
            if value is not None}


def assert_same_state(got, want):
    got, want = state_arrays(got), state_arrays(want)
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_array_equal(got[name].view(np.uint64),
                                      want[name].view(np.uint64))


class TestBufferOwnership:
    """A recurrent step writes into buffers of its own run and updates the
    run's state vectors in place. Nothing a caller passes in, or receives,
    may share memory with them."""

    @pytest.fixture(params=arch.ACTIVATIONS)
    def activation(self, request):
        return request.param

    @pytest.fixture(params=RECURRENT_KINDS, ids=lambda k: k.__name__)
    def kind(self, request):
        return request.param

    @staticmethod
    def setup_run(kind, activation, seed=31):
        spec = recurrent_spec(kind, activation)
        rng = np.random.default_rng(seed)
        weights = random_weights(spec, rng)
        init = CellState(**{
            name: rng.uniform(-1.0, 1.0, shape) for name, shape
            in arch.layer_kind(spec).state(spec).items()})
        x = rng.uniform(-1.0, 1.0, (5, 2))
        return spec, weights, init, x

    def test_inputs_left_unchanged(self, kind, activation):
        spec, weights, init, x = self.setup_run(kind, activation)
        saved = copy.deepcopy((weights, init, x))
        run_layer(spec, weights, x, init_state=init,
                  feedback=kind is EchoState)
        assert_same_state(init, saved[1])
        np.testing.assert_array_equal(x, saved[2])
        for name, value in vars(weights).items():
            np.testing.assert_array_equal(value, vars(saved[0])[name])

    def test_stateful_batches_leave_states_unchanged(self, kind, activation):
        spec, weights, _, x = self.setup_run(kind, activation)
        batches = [x[:2], x[2:]]
        saved = copy.deepcopy(batches)
        outs, state = [], None
        for batch, kept in zip(batches, saved):
            given = copy.deepcopy(state)
            out, final, _ = run_layer(spec, weights, batch, init_state=state)
            np.testing.assert_array_equal(batch, kept)
            if state is not None:
                assert_same_state(state, given)
            outs.append(out)
            state = final
        assert not np.shares_memory(outs[0], outs[1])

    def test_state_trace_entries_distinct(self, kind, activation):
        spec, weights, init, x = self.setup_run(kind, activation)
        trace = []
        _, final, _ = run_layer(spec, weights, x, init_state=init,
                                state_trace=trace)
        assert len(trace) == len(x)
        for i, entry in enumerate(trace):
            assert not any(np.shares_memory(entry, other)
                           for other in trace[i + 1:])
            assert not any(np.shares_memory(entry, value)
                           for value in state_arrays(final).values())

    def test_final_state_owns_its_memory(self, kind, activation):
        spec, weights, init, x = self.setup_run(kind, activation)
        outs, final, _ = run_layer(spec, weights, x, init_state=init)
        kept = copy.deepcopy(final)
        outs_2, final_2, _ = run_layer(spec, weights, x)
        for value in state_arrays(final).values():
            for other in (outs, outs_2, *state_arrays(final_2).values()):
                assert not np.shares_memory(value, other)
        for a, b in itertools.combinations(state_arrays(final).values(), 2):
            assert not np.shares_memory(a, b)
        assert_same_state(final, kept)


SIX_KINDS = [Dense(3, 2), Conv1D(n_f=2, n_i=2, n_k=2, n_s=5),
             VanillaRNN(2, 3, 4), LSTM(2, 3, 4), GRU(2, 3, 4),
             EchoState(n_i=2, N_r=6, s_p=0.5, n_o=2, n_s=4)]


class TestShapeChecks:
    @pytest.mark.parametrize("spec, name, shape", [
        (SIX_KINDS[0], "b", (1,)),
        (SIX_KINDS[1], "biases", (1,)),
        (SIX_KINDS[2], "b", (1,)),
        (SIX_KINDS[3], "b", (4, 1)),
        (SIX_KINDS[4], "b", (3, 1)),
        (SIX_KINDS[5], "b_o", (1,)),
    ])
    def test_broadcastable_bias_rejected(self, spec, name, shape):
        rng = np.random.default_rng(30)
        w = random_weights(spec, rng)
        setattr(w, name, np.zeros(shape))
        with pytest.raises(ShapeError, match=name):
            interp.run_layer(spec, w, interp._nominal_input(spec, rng))

    @pytest.mark.parametrize("spec", SIX_KINDS)
    def test_every_weight_checked(self, spec):
        rng = np.random.default_rng(31)
        x = interp._nominal_input(spec, rng)
        w = random_weights(spec, rng)
        interp.run_layer(spec, w, x)
        for name, value in vars(w).items():
            bad = copy.deepcopy(w)
            setattr(bad, name, np.zeros((value.shape[0] + 1,)
                                        + value.shape[1:]))
            with pytest.raises(ShapeError, match=name):
                interp.run_layer(spec, bad, x)

    @pytest.mark.parametrize("spec", SIX_KINDS[2:])
    def test_wrong_length_state_rejected(self, spec):
        rng = np.random.default_rng(32)
        w = random_weights(spec, rng)
        x = interp._nominal_input(spec, rng)
        for name, (size,) in arch.layer_kind(spec).state(spec).items():
            state = CellState(**{name: np.zeros(size + 1)})
            with pytest.raises(ShapeError, match=f"init_state.{name}"):
                run_layer(spec, w, x, init_state=state)

    def test_conv_input_length_checked(self):
        spec = SIX_KINDS[1]
        w = random_weights(spec, 33)
        for n in (spec.n_s - 1, spec.n_s + 1):
            with pytest.raises(ShapeError):
                run_layer(spec, w, np.ones((n, spec.n_i)))

    def test_esn_feedback_needs_w_back(self):
        spec = SIX_KINDS[5]
        w = random_weights(spec, 34)
        w.W_back = None
        x = np.ones((spec.n_s, spec.n_i))
        run_layer(spec, w, x)  # feedback off: W_back unused
        with pytest.raises(ShapeError, match="W_back"):
            run_layer(spec, w, x, feedback=True)

    @pytest.mark.parametrize("given", [{"init_state": CellState()},
                                       {"state_trace": []}])
    @pytest.mark.parametrize("spec", SIX_KINDS[:2])
    def test_state_arguments_need_recurrent_layer(self, spec, given):
        rng = np.random.default_rng(37)
        w = random_weights(spec, rng)
        x = interp._nominal_input(spec, rng)
        with pytest.raises(TypeError, match="need a recurrent layer"):
            run_layer(spec, w, x, **given)

    @pytest.mark.parametrize("spec", SIX_KINDS[2:5])
    def test_state_trace_without_readout_is_h(self, spec):
        rng = np.random.default_rng(38)
        w = random_weights(spec, rng)
        trace = []
        h_seq, state, _ = run_layer(spec, w, interp._nominal_input(spec, rng),
                                    state_trace=trace)
        np.testing.assert_array_equal(np.stack(trace), h_seq)
        np.testing.assert_array_equal(trace[-1], state.h)


@pytest.mark.kernel
class TestBatchedFeedforward:
    def test_dense_batch_equals_rows(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            spec = Dense(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            w = random_weights(spec, rng)
            X = rng.normal(size=(int(rng.integers(1, 200)), spec.n_i))
            y, _, c = run_layer(spec, w, X)
            rows = np.stack([run_layer(spec, w, x)[0] for x in X])
            np.testing.assert_array_equal(y, rows)
            assert c.mults == X.shape[0] * rm_layer(spec)

    def test_one_neuron_batch_equals_row_copies(self):
        """A one-neuron product is a dot per row, which OpenBLAS's Prescott
        kernel rounds by the row's address. Each row of a batch, and of the
        same batch starting 8 bytes further on, matches the row run alone
        from a fresh copy; in fixed point, where a batch shares one input
        scale, the two batches match."""
        rng = np.random.default_rng(37)
        fixed = FixedPoint(BitwidthConfig(b_w=8, b_i=8),
                           quant.FixedUniform(8))
        for n_i in range(1, 18):
            spec = Dense(1, n_i)
            for _ in range(12):
                w = random_weights(spec, rng)
                data = rng.normal(size=(8, n_i))
                buffer = np.empty(8 * n_i + 1)
                outputs = []
                for X in (buffer[:-1].reshape(8, n_i),
                          buffer[1:].reshape(8, n_i)):
                    X[...] = data
                    y = run_layer(spec, w, X)[0]
                    rows = np.stack([run_layer(spec, w, x.copy())[0]
                                     for x in X])
                    np.testing.assert_array_equal(y.view(np.uint64),
                                                  rows.view(np.uint64))
                    outputs.append(run_layer(spec, w, X, fixed)[0])
                np.testing.assert_array_equal(outputs[0].view(np.uint64),
                                              outputs[1].view(np.uint64))

    @pytest.mark.parametrize("kind", [VanillaRNN, LSTM, GRU, EchoState],
                             ids=lambda k: k.__name__)
    def test_one_unit_stream_equals_fresh_copy(self, kind):
        """A one-unit recurrent layer's input products are dots too, one per
        step. With odd n_i, a stream's rows start alternately on and 8 bytes
        off a 16-byte boundary; the stream run from a copy that starts 8
        bytes further on matches the run from a fresh copy, in outputs and
        final state."""
        rng = np.random.default_rng(39)
        steps = 50
        for n_i in (1, 3, 5, 7, 9, 11):
            spec = (EchoState(n_i=n_i, N_r=1, s_p=1.0, n_o=1, n_s=steps)
                    if kind is EchoState else kind(n_i, 1, steps))
            for _ in range(5):
                w = random_weights(spec, rng)
                data = rng.normal(size=(steps, n_i))
                want = run_layer(spec, w, data.copy())[:2]
                buffer = np.empty(data.size + 1)
                for x in (buffer[:-1].reshape(data.shape),
                          buffer[1:].reshape(data.shape)):
                    x[...] = data
                    got = run_layer(spec, w, x)[:2]
                    assert self.bits(*got) == self.bits(*want)

    @staticmethod
    def bits(y, state):
        """The output's and every state vector's bytes."""
        return [None if v is None else v.tobytes()
                for v in (y, *vars(state).values())]

    def test_conv_batch_equals_inputs(self):
        spec = Conv1D(n_f=1, n_i=2, n_k=3, n_s=7, padding=1, stride=2)
        w = random_weights(spec, 36)
        X = np.random.default_rng(36).normal(size=(9, 7, 2))
        maps, _, c = run_layer(spec, w, X)
        np.testing.assert_array_equal(
            maps, np.stack([run_layer(spec, w, x)[0] for x in X]))
        assert c.mults == 9 * rm_layer(spec)


def reference_run_stream(spec, weights, stream):
    """``run_stream`` of a feedforward layer as it first built its causal
    windows, with ``vstack`` and ``sliding_window_view``."""
    stream = np.asarray(stream, dtype=float)
    nominal = arch.layer_kind(spec).input_shape(spec)
    span = math.prod(nominal[:-1])
    padded = np.vstack([np.zeros((span - 1, stream.shape[1])), stream])
    samples = sliding_window_view(padded, span, axis=0).transpose(0, 2, 1)
    outputs, _, _ = run_layer(spec, weights, samples.reshape(
        samples.shape[:1] + nominal[:-1] + samples.shape[2:]))
    return outputs.reshape(stream.shape[0], -1)


@pytest.mark.kernel
class TestRunStreamMatchesReference:
    @pytest.mark.parametrize("spec", [
        Dense(5, 3), Dense(1, 1, activation="relu"),
        Conv1D(n_f=2, n_i=3, n_k=3, n_s=5, padding=1, dilation=2, stride=2,
               activation="relu"),
        Conv1D(n_f=1, n_i=3, n_k=2, n_s=4, activation="linear"),
        Conv1D(n_f=3, n_i=3, n_k=4, n_s=9, padding=2, dilation=3,
               stride=3),
    ], ids=["dense", "dense-1x1", "conv1d-padded", "conv1d-nf1",
            "conv1d-wide"])
    @pytest.mark.parametrize("n", [1, 2, 4, 9, 200])
    def test_bitwise_equal(self, spec, n):
        """Streams shorter than, as long as and longer than the window,
        contiguous or not; the stream itself is left as it was."""
        rng = np.random.default_rng(n)
        w = random_weights(spec, rng)
        wide = rng.normal(size=(n, 2 * spec.n_i))
        for stream in (np.ascontiguousarray(wide[:, ::2]), wide[:, 1::2]):
            before = stream.copy()
            outputs, states = interp.run_stream(spec, w, stream)
            want = reference_run_stream(spec, w, stream)
            assert states is outputs and outputs.shape == want.shape
            np.testing.assert_array_equal(outputs.view(np.uint64),
                                          want.view(np.uint64))
            np.testing.assert_array_equal(stream, before)


class TestLayerKindTable:
    def test_every_tag_has_an_entry(self):
        for tag, cls in arch._TYPE_TAGS.items():
            assert arch.KINDS[cls].tag == tag
            assert cls in interp.EXECUTION
        assert set(arch.KINDS) == set(interp.EXECUTION) == {
            type(spec) for spec in SIX_KINDS}

    @pytest.mark.parametrize("spec", SIX_KINDS)
    def test_prune_walk_matches_weight_count(self, spec):
        w = random_weights(spec, 37)
        n = quant.multiplicative_weight_count(spec)
        kind = arch.KINDS[type(spec)]
        stored = sum(np.count_nonzero(getattr(w, name))
                     if name == kind.sparse else getattr(w, name).size
                     for name in kind.pruned)
        assert stored == n
        if isinstance(spec, EchoState):
            assert np.count_nonzero(w.W_r) == spec.N_r * spec.row_nonzeros
        pruned = interp.apply_prune_mask(w, quant.PruneMask(np.zeros(n)))
        for name in kind.pruned:
            assert not np.any(getattr(pruned, name))
        for size in (n - 1, n + 1):
            with pytest.raises(ShapeError):
                interp.apply_prune_mask(w, quant.PruneMask(np.ones(size)))

    @pytest.mark.parametrize("spec", [SIX_KINDS[0], SIX_KINDS[5]])
    def test_prune_column_major_weights(self, spec):
        w = random_weights(spec, 38)
        n = quant.multiplicative_weight_count(spec)
        mask = quant.PruneMask(np.arange(n) % 2 == 0)
        want = interp.apply_prune_mask(w, mask)
        for name in arch.KINDS[type(spec)].pruned:
            setattr(w, name, np.asfortranarray(getattr(w, name)))
        got = interp.apply_prune_mask(w, mask)
        for name in arch.KINDS[type(spec)].pruned:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


def reference_quantize_operand(x, b_i):
    """The input quantizer ``interp._quantize_operand`` had before it called
    ``quant.quantize_uniform``, kept verbatim."""
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return np.zeros_like(x, dtype=float), 1.0
    q_max = (1 << (b_i - 1)) - 1
    scale = max_abs / q_max
    return np.round(x / scale) * scale, scale


class TestInputQuantization:
    """Fixed-point inputs go through ``quant.quantize_uniform``. Bit for bit
    it gives what the old formula gave, with two exceptions. The sign of a
    zero: a negative input that rounds to 0 was -0.0 and is now +0.0 (the
    integer code 0 times the scale). And the range: where the scale is
    inexact (b_i >= 53, or a subnormal scale) the old formula could round
    an input one step past the largest b_i-bit code; the quantizer clips
    it."""

    @staticmethod
    def inputs(b_i):
        rng = np.random.default_rng(b_i)
        q_max = (1 << (b_i - 1)) - 1
        halves = np.arange(-4, 4) + 0.5  # x / scale hits k + 0.5 exactly
        yield np.concatenate([[float(q_max), -float(q_max)], halves,
                              float(q_max) - halves[-3:]])
        for magnitude in (1e-290, 1e-3, 1.0, 7.0, 1e12):
            yield rng.uniform(-magnitude, magnitude, 257)
            yield rng.uniform(-magnitude, magnitude, (9, 4))  # a sequence
        top = rng.uniform(-1.0, 1.0, 64)
        top[[3, 40]] = 2.5, -2.5  # +max and -max both present
        yield top
        yield np.array([-3.0, 0.1, 1e-9, -1e-9])  # only -max present
        yield np.zeros(6)
        yield np.array([0.0, -0.0, -0.0])
        yield np.zeros((0, 3))

    @pytest.mark.parametrize("b_i", [2, 3, 4, 5, 8, 12, 16, 24, 32, 52])
    def test_matches_old_formula(self, b_i):
        for x in self.inputs(b_i):
            got, got_scale = interp._quantize_operand(x, b_i)
            want, want_scale = reference_quantize_operand(x, b_i)
            assert got_scale == want_scale
            assert got.shape == want.shape and got.dtype == want.dtype
            nonzero = want != 0.0
            np.testing.assert_array_equal(got == 0.0, ~nonzero)
            np.testing.assert_array_equal(got[nonzero].view(np.uint64),
                                          want[nonzero].view(np.uint64))

    @pytest.mark.parametrize("b_i, magnitude", [(53, 1.0), (60, 1.0),
                                                 (52, 1e-300), (8, 1e-310)])
    def test_codes_stay_in_range(self, b_i, magnitude):
        q_max = (1 << (b_i - 1)) - 1
        x = np.random.default_rng(b_i).uniform(-magnitude, magnitude, 4096)
        got, scale = interp._quantize_operand(x, b_i)
        assert np.all(np.abs(got) <= float(q_max) * scale)

    def test_widest_input_keeps_its_sign(self):
        x = np.array([1.0, -1.0, 0.3, -0.7])
        got, _ = interp._quantize_operand(x, 64)
        np.testing.assert_allclose(got, x, rtol=2.0 ** -52, atol=0.0)

    @pytest.mark.parametrize("run", [
        lambda mode: run_layer(Dense(2, 3), random_weights(Dense(2, 3), 0),
                               np.ones(3), mode),
        lambda mode: run_layer(VanillaRNN(3, 2, 4),
                               random_weights(VanillaRNN(3, 2, 4), 0),
                               np.ones((4, 3)), mode),
    ])
    def test_one_bit_input_rejected(self, run):
        mode = FixedPoint(BitwidthConfig(b_i=1), quant.FixedUniform(8))
        with pytest.raises(DomainError, match="b_i"):
            run(mode)

    def test_one_bit_audit_rejected_in_fixed_point_only(self):
        bits = BitwidthConfig(b_i=1)
        scheme = quant.FixedUniform(8)
        net = NetworkSpec("m", (Dense(2, 3),))
        with pytest.raises(DomainError, match="b_i"):
            audit(net, bits, scheme, seed=0, mode=FixedPoint(bits, scheme))
        assert audit(net, bits, scheme, seed=0).max_abs_delta == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        mode = FixedPoint(BITS8, quant.PoT(8))
        spec = Dense(2, 3)
        w = random_weights(spec, 0)
        with pytest.raises(DomainError, match="input must be finite"):
            run_layer(spec, w, np.array([0.5, bad, -0.2]), mode)
        cell = LSTM(3, 2, 4)
        x = np.ones((4, 3))
        x[2, 1] = bad
        with pytest.raises(DomainError, match="input must be finite"):
            run_layer(cell, random_weights(cell, 0), x, mode)
        run_layer(spec, w, np.array([0.5, bad, -0.2]))  # float: no check


class TestExecutionConfig:
    NET = NetworkSpec("m", (Dense(4, 3), LSTM(3, 2, 4)))

    @pytest.mark.parametrize("mode", [
        FixedPoint(BitwidthConfig(b_w=4), quant.FixedUniform(4)),
        FixedPoint(BITS8, quant.FixedUniform(8)),
        FixedPoint(BITS8, quant.APoT(8, 2)),
        FixedPoint(BitwidthConfig(b_i=4), quant.PoT(8)),
        FixedPoint(BitwidthConfig(b_a=4), quant.PoT(8)),
    ])
    def test_audit_rejects_other_fixed_point_config(self, mode):
        with pytest.raises(DomainError, match="differs from the audited"):
            audit(self.NET, BITS8, quant.PoT(8), seed=0, mode=mode)

    def test_audit_accepts_its_own_config(self):
        record = audit(self.NET, BITS8, quant.PoT(8), seed=0,
                       mode=FixedPoint(BitwidthConfig(), quant.PoT(8)))
        assert record.mode == "fixed" and record.max_abs_delta == 0

    @pytest.mark.parametrize("mode", ["flaot", "fixed", "FLOAT", None,
                                      quant.PoT(8), BITS8])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(DomainError, match="mode must be"):
            audit(self.NET, BITS8, quant.PoT(8), seed=0, mode=mode)
        spec = Dense(2, 3)
        with pytest.raises(DomainError, match="mode must be"):
            run_layer(spec, random_weights(spec, 0), np.ones(3), mode)
