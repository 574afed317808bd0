"""Analytic metric tests: bitwidth helpers, per-layer formulas, reports."""

import dataclasses

import numpy as np
import pytest

from nncost import costmodel, interp, quant
from nncost.arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                         NetworkSpec, VanillaRNN)
from nncost.costmodel import (acc_bits, bop_layer, cost_report, mult_bits,
                              nabs_layer, nenb, rm_layer)
from nncost.errors import DomainError, ValidationError
from test_arch import random_network

BITS8 = BitwidthConfig(8, 8, 8)
UNIFORM8 = quant.FixedUniform(8)


class TestBitHelpers:
    def test_acc_bits_values(self):
        assert acc_bits(1, 8, 8) == 16  # single product, no growth
        assert acc_bits(2, 8, 8) == 17  # one carry bit for two 16-bit terms
        assert acc_bits(5, 4, 4) == 11  # 8 + ceil(log2 5)

    def test_acc_bits_domain(self):
        with pytest.raises(DomainError):
            acc_bits(0, 8, 8)

    def test_mult_bits_values(self):
        assert mult_bits(0, 8, 8) == 0
        assert mult_bits(1, 8, 8) == 64
        assert mult_bits(6, 4, 8) == 192

    def test_nenb(self):
        assert nenb(10, 32) == 320
        assert nenb(1, 1) == 1
        with pytest.raises(DomainError):
            nenb(0, 5)


class TestRM:
    def test_dense(self):
        assert rm_layer(Dense(n_n=10, n_i=5)) == 50

    def test_lstm(self):
        assert rm_layer(LSTM(n_i=4, n_h=3, n_s=2)) == 2 * 3 * (16 + 12 + 3)

    def test_esn(self):
        layer = EchoState(n_i=2, N_r=10, s_p=0.5, n_o=1, n_s=1)
        assert rm_layer(layer) == 100

    def test_esn_row_nonzeros_floor_one(self):
        layer = EchoState(n_i=1, N_r=4, s_p=0.01, n_o=1, n_s=1)
        assert layer.row_nonzeros == 1
        assert rm_layer(layer) == 4 * (1 + 1 + 2 + 1)

    def test_conv(self):
        layer = Conv1D(n_f=2, n_i=3, n_k=3, n_s=10)
        assert rm_layer(layer) == 2 * 3 * 3 * 8


class TestBOP:
    def test_dense_8x8(self):
        assert bop_layer(Dense(1, 2), BITS8) == 162

    def test_dense_1bit(self):
        bits = BitwidthConfig(1, 1, 1)
        assert bop_layer(Dense(1, 1), bits) == 3

    def test_lstm_term_by_term(self):
        layer = LSTM(n_i=1, n_h=1, n_s=1)
        expected = (4 * mult_bits(1, 8, 8) + 4 * mult_bits(1, 8, 8)
                    + 3 * 8 ** 2 + 9 * acc_bits(1, 8, 8))
        assert bop_layer(layer, BITS8) == expected == 848

    def test_gru_term_by_term(self):
        layer = GRU(n_i=2, n_h=3, n_s=4)
        expected = (3 * 4 * 3 * mult_bits(2, 8, 8)
                    + 3 * 4 * 3 * mult_bits(3, 8, 8)
                    + 3 * 4 * 3 * 64
                    + 8 * 4 * 3 * acc_bits(3, 8, 8))
        assert bop_layer(layer, BITS8) == expected

    def test_esn_term_by_term(self):
        layer = EchoState(n_i=2, N_r=10, s_p=0.5, n_o=1, n_s=3)
        r = layer.row_nonzeros
        expected = (3 * 10 * mult_bits(2, 8, 8)
                    + 3 * r * mult_bits(10, 8, 8)
                    + 3 * 10 * mult_bits(1, 8, 8)
                    + 2 * 3 * 10 * 64
                    + 4 * 3 * 10 * acc_bits(10, 8, 8))
        assert bop_layer(layer, BITS8) == expected

    def test_dominates_rm_times_operand_bits(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            bits = BitwidthConfig(int(rng.integers(1, 17)),
                                  int(rng.integers(1, 17)),
                                  int(rng.integers(1, 17)))
            dense = Dense(int(rng.integers(1, 33)), int(rng.integers(1, 33)))
            assert bop_layer(dense, bits) >= rm_layer(dense) * bits.b_w * bits.b_i
            conv = Conv1D(n_f=int(rng.integers(1, 5)),
                          n_i=int(rng.integers(1, 5)),
                          n_k=int(rng.integers(1, 4)),
                          n_s=int(rng.integers(4, 17)))
            assert bop_layer(conv, bits) >= rm_layer(conv) * bits.b_w * bits.b_i


class TestNABS:
    def test_dense_uniform(self):
        assert nabs_layer(Dense(1, 2), BITS8, UNIFORM8) == 272

    def test_dense_pot(self):
        assert nabs_layer(Dense(1, 2), BITS8, quant.PoT(8)) == 34

    def test_pot_below_uniform_everywhere(self):
        rng = np.random.default_rng(2)
        layers = [Dense(4, 6), Conv1D(n_f=2, n_i=2, n_k=3, n_s=9),
                  VanillaRNN(2, 3, 4), LSTM(2, 3, 4), GRU(2, 3, 4),
                  EchoState(n_i=2, N_r=6, s_p=0.5, n_o=2, n_s=3)]
        for layer in layers:
            b_w = int(rng.integers(2, 17))
            bits = BitwidthConfig(b_w, 8, 8)
            pot = nabs_layer(layer, bits, quant.PoT(b_w))
            uni = nabs_layer(layer, bits, quant.FixedUniform(b_w))
            assert pot < uni

    def test_apot_between(self):
        layer = Dense(3, 5)
        order = [nabs_layer(layer, BITS8, quant.PoT(8)),
                 nabs_layer(layer, BITS8, quant.APoT(8, 3)),
                 nabs_layer(layer, BITS8, quant.FixedUniform(8))]
        assert order == sorted(order)


def _grow(layer, name, amount=1):
    return dataclasses.replace(layer, **{name: getattr(layer, name) + amount})


class TestMonotonicity:
    # Kernel size is excluded: enlarging it shrinks the output width, so the
    # convolution totals are genuinely non-monotone in n_k.
    CASES = [
        (Dense(3, 4), ("n_n", "n_i")),
        (Conv1D(n_f=2, n_i=3, n_k=2, n_s=8), ("n_f", "n_i", "n_s")),
        (VanillaRNN(2, 3, 4), ("n_i", "n_h", "n_s")),
        (LSTM(2, 3, 4), ("n_i", "n_h", "n_s")),
        (GRU(2, 3, 4), ("n_i", "n_h", "n_s")),
        (EchoState(n_i=2, N_r=6, s_p=0.5, n_o=2, n_s=3),
         ("n_i", "N_r", "n_o", "n_s")),
    ]

    @pytest.mark.parametrize("layer,names", CASES)
    def test_non_decreasing_in_size_params(self, layer, names):
        scheme = quant.FixedUniform(8)
        for name in names:
            bigger = _grow(layer, name)
            assert rm_layer(bigger) >= rm_layer(layer)
            assert bop_layer(bigger, BITS8) >= bop_layer(layer, BITS8)
            assert nabs_layer(bigger, BITS8, scheme) >= nabs_layer(
                layer, BITS8, scheme)


class TestCostReport:
    def test_single_layer_totals(self):
        net = NetworkSpec("m", (Dense(10, 5),))
        report = cost_report(net, BITS8, UNIFORM8)
        assert report.rm == report.per_layer[0].rm
        assert report.bop == report.per_layer[0].bop
        assert report.nabs == report.per_layer[0].nabs

    def test_two_layer_rm_sum(self):
        net = NetworkSpec("m", (Dense(10, 5), Dense(3, 10)))
        assert cost_report(net, BITS8, UNIFORM8).rm == 50 + 30

    def test_invalid_network_raises(self):
        net = NetworkSpec("m", (Dense(10, 5), Dense(3, 7)))
        with pytest.raises(ValidationError):
            cost_report(net, BITS8, UNIFORM8)

    def test_totals_equal_sums_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            net = random_network(rng)
            if len(net.layers) > 8:
                continue
            report = cost_report(net, BITS8, UNIFORM8)
            assert report.rm == sum(e.rm for e in report.per_layer)
            assert report.bop == sum(e.bop for e in report.per_layer)
            assert report.nabs == sum(e.nabs for e in report.per_layer)

    def test_csv_shape(self):
        net = NetworkSpec("m", (Dense(10, 5),))
        lines = cost_report(net, BITS8, UNIFORM8).to_csv().splitlines()
        assert lines[0] == "layer_index,layer_type,rm,bop,nabs"
        assert lines[-1].startswith("TOTAL")
        assert len(lines) == 3


class TestOracleEquivalence:
    def test_rm_matches_measured_mults(self):
        rng = np.random.default_rng(123)
        layers = [
            Dense(int(rng.integers(1, 65)), int(rng.integers(1, 65))),
            Conv1D(n_f=int(rng.integers(1, 8)), n_i=int(rng.integers(1, 8)),
                   n_k=3, n_s=int(rng.integers(3, 17))),
            VanillaRNN(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                       int(rng.integers(1, 17))),
            LSTM(int(rng.integers(1, 33)), int(rng.integers(1, 33)),
                 int(rng.integers(1, 17))),
            GRU(int(rng.integers(1, 33)), int(rng.integers(1, 33)),
                int(rng.integers(1, 17))),
            EchoState(n_i=int(rng.integers(1, 17)),
                      N_r=int(rng.integers(2, 65)),
                      s_p=float(rng.uniform(0.05, 1.0)),
                      n_o=int(rng.integers(1, 9)),
                      n_s=int(rng.integers(1, 17))),
        ]
        for layer in layers:
            weights = interp.random_weights(layer, rng)
            x = interp._nominal_input(layer, rng)
            _, _, counters = interp.run_layer(layer, weights, x)
            assert counters.mults == rm_layer(layer), layer
