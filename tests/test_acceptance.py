"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import copy
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nncost import bayesopt, interp, quant, search
from nncost.arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                         NetworkSpec, VanillaRNN, conv1d_output_size)
from nncost.bayesopt import CubeSpace, Trial, bo_optimize, gp_fit, gp_predict
from nncost.cli import main
from nncost.costmodel import bop_layer, nabs_layer, rm_layer
from nncost.interp import (FixedPoint, audit, fir_filter, iir_filter,
                           random_weights, run_layer)

BITS8 = BitwidthConfig(8, 8, 8)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def _random_layer(kind: int, rng: np.random.Generator):
    if kind == 0:
        return Dense(int(rng.integers(1, 65)), int(rng.integers(1, 65)))
    if kind == 1:
        n_s = int(rng.integers(2, 17))
        n_k = int(rng.integers(1, min(6, n_s + 1)))
        return Conv1D(n_f=int(rng.integers(1, 17)),
                      n_i=int(rng.integers(1, 17)), n_k=n_k, n_s=n_s,
                      padding=int(rng.integers(0, 3)),
                      dilation=1, stride=int(rng.integers(1, 3)))
    if kind == 2:
        return VanillaRNN(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                          int(rng.integers(1, 17)))
    if kind == 3:
        return LSTM(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                    int(rng.integers(1, 17)))
    if kind == 4:
        return GRU(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                   int(rng.integers(1, 17)))
    return EchoState(n_i=int(rng.integers(1, 33)),
                     N_r=int(rng.integers(2, 65)),
                     s_p=float(rng.uniform(0.02, 1.0)),
                     n_o=int(rng.integers(1, 17)),
                     n_s=int(rng.integers(1, 17)),
                     leak=float(rng.uniform(0.05, 1.0)))


def test_criterion_1_formula_vs_interpreter_exactness():
    with criterion(1, "analytic RM equals measured multiplications on 1000 "
                      "random architectures, delta 0, < 60 s"):
        start = time.monotonic()
        rng = np.random.default_rng(20240001)
        for i in range(1000):
            layer = _random_layer(i % 6, rng)
            if isinstance(layer, Conv1D) and layer.output_size == 0:
                layer = Conv1D(n_f=layer.n_f, n_i=layer.n_i, n_k=1,
                               n_s=layer.n_s)
            record = audit(NetworkSpec("a", (layer,)), BITS8,
                           quant.FixedUniform(8), seed=i)
            assert record.per_layer[0].delta == 0, layer
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_conv_output_size_oracle():
    with criterion(2, "conv output size equals placement enumeration on an "
                      "exhaustive 14,400-case grid"):
        cases = 0
        for n_s in range(1, 41):
            for n_k in range(1, 11):
                for padding in range(4):
                    for dilation in range(1, 4):
                        for stride in range(1, 4):
                            length = n_s + 2 * padding
                            span = dilation * (n_k - 1)
                            expected = 0
                            start = 0
                            while start + span <= length - 1:
                                expected += 1
                                start += stride
                            got = conv1d_output_size(n_s, n_k, padding,
                                                     dilation, stride)
                            assert got == expected
                            cases += 1
        assert cases >= 14_000


def test_criterion_3_hand_value_spot_checks():
    with criterion(3, "hand-derived RM/BOP/NABS values are exact"):
        assert rm_layer(Dense(10, 5)) == 50

        lstm = LSTM(n_i=1, n_h=1, n_s=1)
        _, _, c = interp.run_layer(lstm, random_weights(lstm, 0),
                                   np.zeros((1, 1)))
        assert c.mults == 11

        gru = GRU(n_i=1, n_h=2, n_s=1)
        _, _, c = interp.run_layer(gru, random_weights(gru, 0),
                                   np.zeros((1, 1)))
        assert c.mults == 24

        assert bop_layer(Dense(1, 2), BITS8) == 162
        assert nabs_layer(Dense(1, 2), BITS8, quant.FixedUniform(8)) == 272
        assert nabs_layer(Dense(1, 2), BITS8, quant.PoT(8)) == 34


def test_criterion_4_expected_improvement_oracle():
    with criterion(4, "closed-form EI within 3 MC standard errors on the "
                      "15-point grid, < 10 s"):
        start = time.monotonic()
        rng = np.random.default_rng(20240004)
        n = 1_000_000
        draws = rng.standard_normal(n)
        for gap in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for sigma in (0.1, 1.0, 3.0):
                samples = np.maximum(gap + sigma * draws, 0.0)
                mc = float(samples.mean())
                se = float(samples.std(ddof=1)) / math.sqrt(n)
                closed = bayesopt.expected_improvement(gap, sigma, 0.0)
                # 1e-12 floor covers grid points whose improvement
                # probability lies below float64 sampling resolution.
                assert abs(closed - mc) <= 3 * se + 1e-12, (gap, sigma)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _separated_points(rng, d, n_target, sep):
    pts = []
    attempts = 0
    while len(pts) < n_target and attempts < 2000:
        p = rng.uniform(size=d)
        attempts += 1
        if all(np.linalg.norm(p - q) >= sep for q in pts):
            pts.append(p)
    return np.array(pts)


def test_criterion_5_gp_interpolation():
    with criterion(5, "noiseless GP fits reproduce training scores within "
                      "1e-6 on 100 random datasets"):
        rng = np.random.default_rng(20240005)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            X = _separated_points(rng, d, n_target=20, sep=0.35)
            n = X.shape[0]
            y = rng.normal(size=n)
            model = gp_fit([Trial(theta=X[i], score=float(y[i]))
                            for i in range(n)])
            mu, _ = gp_predict(model, X)
            assert np.max(np.abs(mu - y)) <= 1e-6


def test_criterion_6_bo_convergence_beats_random():
    with criterion(6, "BO finds the quadratic optimum in >= 45/50 seeds and "
                      "its median regret beats random search, < 30 s"):
        start = time.monotonic()

        def objective(theta):
            return -float((theta[0] - 0.3) ** 2)

        hits = 0
        bo_regrets = []
        rs_regrets = []
        for seed in range(50):
            best, history = bo_optimize(objective, CubeSpace(1),
                                        max_iters=15, n_init=5, seed=seed)
            assert len(history) == 20
            if abs(best.theta[0] - 0.3) <= 0.05:
                hits += 1
            bo_regrets.append(-best.score)
            draws = np.random.default_rng([seed, 777]).uniform(size=20)
            rs_regrets.append(float(np.min((draws - 0.3) ** 2)))
        assert hits >= 45, f"only {hits}/50 seeds converged"
        assert np.median(bo_regrets) <= np.median(rs_regrets)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_quantized_execution_semantics():
    with criterion(7, "PoT fixed-point runs on shifts alone and matches the "
                      "dequantized-float path; APoT error <= PoT error on "
                      "1e4 weights"):
        rng = np.random.default_rng(20240007)
        mode = FixedPoint(BITS8, quant.PoT(8))
        for trial in range(20):
            spec = Dense(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                         activation="tanh")
            w = random_weights(spec, int(rng.integers(0, 2 ** 31)))
            x = rng.uniform(-1, 1, spec.n_i)
            y_fixed, _, c = run_layer(spec, w, x, mode)
            assert c.mults == 0
            assert c.shifts == spec.n_n * spec.n_i
            w_deq = copy.deepcopy(w)
            w_deq.W = quant.quantize_pot(w.W, 8).values
            xq, _ = interp._quantize_operand(x, 8)
            y_ref, _, _ = run_layer(spec, w_deq, xq)
            np.testing.assert_allclose(y_fixed, y_ref, atol=1e-15)

        rnn = VanillaRNN(3, 4, 5)
        w = random_weights(rnn, 7)
        x_seq = rng.uniform(-1, 1, (5, 3))
        _, _, c = run_layer(rnn, w, x_seq, mode)
        assert c.mults == 0 and c.shifts == rm_layer(rnn)

        weights = rng.uniform(-1, 1, 10_000)
        pot_err = np.abs(quant.quantize_pot(weights, 8).values - weights)
        for k in (1, 2, 3):
            apot_err = np.abs(
                quant.quantize_apot(weights, 8, k).values - weights)
            assert np.all(apot_err <= pot_err + 1e-15)


def test_criterion_8_recurrent_state_semantics():
    with criterion(8, "stateful batches equal concatenated runs (<= 1e-12) "
                      "and stateless outputs are permutation invariant over "
                      "100 seeded cases"):
        specs = [VanillaRNN, LSTM, GRU]
        for case in range(100):
            rng = np.random.default_rng([20240008, case])
            cls = specs[case % 3]
            spec = cls(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                       int(rng.integers(2, 9)))
            w = random_weights(spec, rng)
            b1 = rng.normal(size=(spec.n_s, spec.n_i))
            b2 = rng.normal(size=(spec.n_s, spec.n_i))
            out1, state, _ = run_layer(spec, w, b1)
            out2, _, _ = run_layer(spec, w, b2, init_state=state)
            whole, _, _ = run_layer(spec, w, np.vstack([b1, b2]))
            dev = np.max(np.abs(np.vstack([out1, out2]) - whole))
            assert dev <= 1e-12

            batches = [b1, b2, rng.normal(size=(spec.n_s, spec.n_i))]
            base = [run_layer(spec, w, batch)[0] for batch in batches]
            perm = [2, 0, 1]
            permuted = [run_layer(spec, w, batches[i])[0] for i in perm]
            for j, i in enumerate(perm):
                np.testing.assert_array_equal(permuted[j], base[i])


def test_criterion_9_equivalence_bridges():
    with criterion(9, "linear 1-unit recurrence equals the one-pole IIR and "
                      "linear zero-bias convolution equals the FIR, "
                      "<= 1e-12 on 100 seeded sequences"):
        for case in range(100):
            rng = np.random.default_rng([20240009, case])

            w_val, u_val = rng.uniform(-0.9, 0.9, 2)
            n = int(rng.integers(4, 33))
            rnn = VanillaRNN(1, 1, n, activation="linear")
            weights = interp.RNNWeights(W=np.array([[w_val]]),
                                        U=np.array([[u_val]]),
                                        b=np.zeros(1))
            x = rng.normal(size=n)
            h_seq, _, _ = run_layer(rnn, weights, x[:, None])
            ref = iir_filter([w_val], [u_val], x)
            assert np.max(np.abs(h_seq[:, 0] - ref)) <= 1e-12

            n_k = int(rng.integers(1, 6))
            n_s = int(rng.integers(n_k, n_k + 24))
            conv = Conv1D(n_f=1, n_i=1, n_k=n_k, n_s=n_s,
                          activation="linear")
            kernel = rng.normal(size=(1, n_k, 1))
            cw = interp.ConvWeights(kernels=kernel, biases=np.zeros(1))
            xs = rng.normal(size=(n_s, 1))
            maps, _, _ = run_layer(conv, cw, xs)
            ref = fir_filter(kernel[0, ::-1, 0], xs[:, 0])[n_k - 1:]
            assert np.max(np.abs(maps[0] - ref)) <= 1e-12


def _sweep_space():
    return search.SearchSpace(
        dimensions=(search.Dimension("h", "int", 1, 8),
                    search.Dimension("w", "int", 1, 8)),
        template={"name": "equalizer", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w",
             "activation": "tanh"}]},
        metric="nabs",
        scheme=quant.PoT(8),
    )


def test_criterion_10_constrained_sweep():
    with criterion(10, "all sweep trials honor their NABS budget over 20 "
                       "seeds; running-max score is non-decreasing across "
                       "budgets; < 5 min"):
        start = time.monotonic()
        budgets = [100, 500, 2000, 10_000]
        task = search.synth_task_fir([1.0, 0.4, 0.2], 0.05, 160, seed=88)
        space = _sweep_space()
        for seed in range(20):
            result = search.complexity_sweep(space,
                                             search.Evaluation(task, 3, seed),
                                             budgets, iters=3, n_init=3)
            for budget, history in zip(budgets, result.histories):
                assert all(t.cost["nabs"] <= budget for t in history), (
                    seed, budget)
            scores = [p.best_score for p in result.points]
            running = np.maximum.accumulate(scores)
            assert np.all(np.diff(running) >= 0)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_11_cli_sweep_reproducibility(tmp_path):
    with criterion(11, "identical sweep invocations produce byte-identical "
                       "CSV"):
        space_path = tmp_path / "space.json"
        task_path = tmp_path / "task.json"
        space_path.write_text("""
        {"dimensions": [{"name": "h", "kind": "int", "low": 1, "high": 6},
                        {"name": "w", "kind": "int", "low": 1, "high": 6}],
         "template": {"name": "eq", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w",
             "activation": "tanh"}]},
         "scheme": "pot",
         "constraint": {"metric": "nabs", "budget": 10000}}
        """)
        task_path.write_text('{"taps": [1.0, 0.4], "noise_std": 0.05, '
                             '"n_samples": 96, "seed": 5}')
        args = ["sweep", str(space_path), str(task_path),
                "--budgets", "500,10000", "--iters", "2", "--init", "2",
                "--seed", "9"]
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith(
            "budget,metric,best_score,best_theta_json,rm,bop,nabs")


def test_package_exports_resolve_once():
    import nncost
    assert len(set(nncost.__all__)) == len(nncost.__all__)
    for name in nncost.__all__:
        assert hasattr(nncost, name), name
