"""Search-space, cross-validation and sweep tests."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os

import numpy as np
import pytest

from nncost import arch, bayesopt, costmodel, interp, quant, search
from nncost.arch import Dense, EchoState, NetworkSpec
from nncost.cli import main
from nncost.errors import (DomainError, InfeasibleSpace, NNCostError,
                           SchemaError)
from nncost.search import (Dimension, SearchSpace, Task, complexity_sweep,
                           evaluate_arch, featurize, kfold_score, kfold_split,
                           synth_task_fir, task_from_json)


def esn_space(budget=None, metric="nabs"):
    return SearchSpace(
        dimensions=(Dimension("res", "int", 2, 24),
                    Dimension("leak", "float", 0.2, 1.0)),
        template={"name": "s", "layers": [
            {"type": "esn", "n_i": 3, "N_r": "$res", "s_p": 0.4, "n_o": 1,
             "n_s": 6, "leak": "$leak", "activation": "tanh"}]},
        metric=metric,
        budget=budget,
    )


def dense_space():
    """The criterion-10 space: 64 Dense architectures under PoT(8)."""
    return SearchSpace(
        dimensions=(Dimension("h", "int", 1, 8), Dimension("w", "int", 1, 8)),
        template={"name": "equalizer", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w",
             "activation": "tanh"}]},
        metric="nabs",
        scheme=quant.PoT(8),
    )


def conv_space(metric="nabs"):
    """Kernels longer than n_s = 5 have zero width; "bogus" fails the schema."""
    return SearchSpace(
        dimensions=(Dimension("k", "int", 1, 8), Dimension("f", "int", 1, 4),
                    Dimension("act", "cat", values=("tanh", "relu", "bogus"))),
        template={"name": "c", "layers": [
            {"type": "conv1d", "n_f": "$f", "n_i": 2, "n_k": "$k", "n_s": 5,
             "activation": "$act"}]},
        metric=metric,
    )


def log_space(budget=None):
    """ESN space with a log-scaled float dimension."""
    return SearchSpace(
        dimensions=(Dimension("res", "int", 2, 12),
                    Dimension("leak", "float", 0.01, 1.0, log=True)),
        template={"name": "s", "layers": [
            {"type": "esn", "n_i": 2, "N_r": "$res", "s_p": 0.5, "n_o": 1,
             "n_s": 4, "leak": "$leak"}]},
        budget=budget,
    )


def reference_coordinate(dim, u):
    """The per-point decoding formulas the vectorized decoder replaces."""
    u = min(max(float(u), 0.0), 1.0)
    if dim.kind == "cat":
        return min(int(u * len(dim.values)), len(dim.values) - 1)
    if dim.kind == "int":
        lo, hi = int(dim.low), int(dim.high)
        return min(lo + int(u * (hi - lo + 1)), hi)
    if dim.log:
        return float(dim.low * (dim.high / dim.low) ** u)
    return float(dim.low + u * (dim.high - dim.low))


def reference_substitute(node, params):
    """The template with each ``"$name"`` replaced by ``params[name]``: how
    a search space built its JSON documents before it compiled its
    template."""
    if isinstance(node, str) and node.startswith("$"):
        return params[node[1:]]
    if isinstance(node, dict):
        return {k: reference_substitute(v, params) for k, v in node.items()}
    if isinstance(node, list):
        return [reference_substitute(v, params) for v in node]
    return node


def fresh_totals(space, theta):
    """Reference: cost one candidate through the JSON document, no memo."""
    doc = reference_substitute(space.template, space.decode(theta))
    try:
        report = costmodel.cost_report(arch.parse_spec(json.dumps(doc)),
                                       space.bits, space.scheme)
    except NNCostError:
        return None
    return {"rm": report.rm, "bop": report.bop, "nabs": report.nabs}


def counted_cost_report(monkeypatch):
    """Replace costmodel.cost_report by a wrapper; returns the nets it saw."""
    seen = []
    real = costmodel.cost_report

    def counted(net, *args, **kwargs):
        seen.append(net)
        return real(net, *args, **kwargs)

    monkeypatch.setattr(costmodel, "cost_report", counted)
    return seen


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestKFold:
    def test_even_split(self):
        plan = kfold_split(10, 5, seed=0)
        sizes = [plan.test_indices(f).size for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_remainder_split(self):
        plan = kfold_split(10, 3, seed=0)
        sizes = sorted((plan.test_indices(f).size for f in range(3)),
                       reverse=True)
        assert sizes == [4, 3, 3]

    def test_domain(self):
        with pytest.raises(DomainError):
            kfold_split(10, 11, seed=0)
        with pytest.raises(DomainError):
            kfold_split(10, 1, seed=0)

    def test_partition(self):
        plan = kfold_split(23, 4, seed=3)
        seen = np.concatenate([plan.test_indices(f) for f in range(4)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_deterministic(self):
        a = kfold_split(40, 5, seed=7)
        b = kfold_split(40, 5, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestSynthTask:
    def test_identity_channel(self):
        task = synth_task_fir([1.0], 0.0, 50, seed=0)
        np.testing.assert_array_equal(task.inputs, task.targets)

    def test_channel_is_fir(self):
        from nncost.interp import fir_filter
        np.testing.assert_allclose(
            fir_filter([0.5, 0.5], [1.0, -1.0, 1.0]), [0.5, 0.0, 0.0])
        task = synth_task_fir([0.5, 0.5], 0.0, 30, seed=1)
        np.testing.assert_allclose(task.inputs,
                                   fir_filter([0.5, 0.5], task.targets))

    def test_same_seed_same_task(self):
        a = synth_task_fir([0.8, 0.2], 0.1, 64, seed=5)
        b = synth_task_fir([0.8, 0.2], 0.1, 64, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_json_roundtrip(self):
        task = task_from_json({"taps": [0.9, 0.1], "noise_std": 0.05,
                               "n_samples": 32, "seed": 2})
        assert task.targets.size == 32

    @pytest.mark.parametrize("n_samples", [2 ** 20 + 1, 10 ** 11, 10 ** 30])
    def test_n_samples_bound(self, n_samples):
        with pytest.raises(SchemaError) as err:
            task_from_json({"taps": [0.9, 0.1], "noise_std": 0.05,
                            "n_samples": n_samples, "seed": 2})
        assert err.value.path == "n_samples"
        assert "2**20 = 1048576" in str(err.value)

    def test_n_samples_at_bound_accepted(self):
        task = task_from_json({"taps": [0.9, 0.1], "noise_std": 0.0,
                               "n_samples": 2 ** 20, "seed": 2})
        assert task.inputs.shape == task.targets.shape == (2 ** 20,)


def reference_ridge_fit(F, y, ridge):
    """The readout fit as first written: the bias column is stacked onto
    each fold's feature rows."""
    Fb = np.hstack([F, np.ones((F.shape[0], 1))])
    gram = Fb.T @ Fb + ridge * np.eye(Fb.shape[1])
    return np.linalg.solve(gram, Fb.T @ y)


def reference_ridge_predict(F, beta):
    return np.hstack([F, np.ones((F.shape[0], 1))]) @ beta


def reference_kfold_score(task, net, k, seed, ridge=1e-6):
    """``kfold_score`` as first written: a fresh fold plan per call and a
    bias column stacked per fold."""
    features = featurize(net, task.inputs, seed)
    plan = kfold_split(task.targets.size, k, seed)
    mses = []
    for fold in range(k):
        train = plan.train_indices(fold)
        test = plan.test_indices(fold)
        beta = reference_ridge_fit(features[train], task.targets[train], ridge)
        pred = reference_ridge_predict(features[test], beta)
        mses.append(float(np.mean((pred - task.targets[test]) ** 2)))
    return -float(np.mean(mses))


class TestKFoldScore:
    def test_representable_targets_interpolate(self):
        # Identity channel and a linear layer: the readout can reconstruct
        # the symbol from the feature window exactly (up to the ridge bias).
        task = synth_task_fir([1.0], 0.0, 60, seed=0)
        net = NetworkSpec("m", (Dense(4, 2, activation="linear"),))
        score = kfold_score(task, net, k=5, seed=0)
        assert score > -1e-10

    def test_mean_equals_manual_recomputation(self):
        task = synth_task_fir([0.7, 0.3], 0.05, 48, seed=1)
        net = NetworkSpec("m", (Dense(6, 3, activation="tanh"),))
        k, seed = 4, 2
        features = featurize(net, task.inputs, seed)
        plan = kfold_split(task.targets.size, k, seed)
        mses = []
        for fold in range(k):
            train = plan.train_indices(fold)
            test = plan.test_indices(fold)
            beta = reference_ridge_fit(features[train], task.targets[train],
                                       1e-6)
            pred = reference_ridge_predict(features[test], beta)
            mses.append(np.mean((pred - task.targets[test]) ** 2))
        assert kfold_score(task, net, k=k, seed=seed) == pytest.approx(
            -float(np.mean(mses)), abs=0)

    def test_deterministic(self):
        task = synth_task_fir([0.7, 0.3], 0.05, 48, seed=1)
        net = NetworkSpec("m", (EchoState(n_i=2, N_r=8, s_p=0.5, n_o=1,
                                          n_s=4, leak=0.8),))
        a = kfold_score(task, net, k=3, seed=9)
        b = kfold_score(task, net, k=3, seed=9)
        assert a == b


class TestEvaluateArch:
    def test_bundles_score_and_cost(self):
        task = synth_task_fir([1.0], 0.0, 40, seed=0)
        net = NetworkSpec("m", (Dense(4, 2, activation="tanh"),))
        trial = evaluate_arch(task, net, k=4, seed=0)
        report = costmodel.cost_report(net, search.BitwidthConfig(),
                                       search.quant.FixedUniform(8))
        assert trial.cost == {"rm": report.rm, "bop": report.bop,
                              "nabs": report.nabs}
        assert np.isfinite(trial.score)

    def test_rm_monotone_in_neurons(self):
        task = synth_task_fir([1.0], 0.0, 40, seed=0)
        small = evaluate_arch(task, NetworkSpec("m", (Dense(3, 2),)), k=4,
                              seed=0)
        large = evaluate_arch(task, NetworkSpec("m", (Dense(9, 2),)), k=4,
                              seed=0)
        assert large.cost["rm"] >= small.cost["rm"]


class TestSpace:
    def test_decode_and_build(self):
        space = esn_space()
        net = space.build_network(np.array([0.0, 1.0]))
        layer = net.layers[0]
        assert layer.N_r == 2
        assert layer.leak == 1.0

    def test_int_decode_covers_range(self):
        dim = Dimension("n", "int", 2, 5)
        values = {dim.decode(u) for u in np.linspace(0, 1, 200)}
        assert values == {2, 3, 4, 5}

    def test_cat_decode(self):
        dim = Dimension("a", "cat", values=("tanh", "relu"))
        assert dim.decode(0.1) == "tanh"
        assert dim.decode(0.9) == "relu"

    def test_log_decode(self):
        dim = Dimension("l", "float", 0.01, 1.0, log=True)
        assert dim.decode(0.0) == pytest.approx(0.01)
        assert dim.decode(1.0) == pytest.approx(1.0)
        assert dim.decode(0.5) == pytest.approx(0.1)

    def test_unknown_template_reference(self):
        # Rejected when the space is built, not when a point is decoded.
        with pytest.raises(SchemaError) as err:
            SearchSpace(
                dimensions=(Dimension("a", "int", 1, 2),),
                template={"name": "s", "layers": [
                    {"type": "dense", "n_n": "$missing", "n_i": 1}]})
        assert err.value.path == "template.layers[0].n_n"

    def test_feasibility_budget(self):
        space = esn_space(budget=1)
        assert not space.feasible(np.array([0.5, 0.5]))
        roomy = esn_space(budget=10 ** 9)
        assert roomy.feasible(np.array([0.5, 0.5]))

    def test_upper_case_metric(self):
        space = esn_space(budget=10 ** 8, metric="NABS")
        assert space.metric == "nabs"
        task = synth_task_fir([1.0], 0.0, 36, seed=0)
        objective = search.make_objective(space, task, k=3, eval_seed=0)
        _, history = bayesopt.bo_optimize(objective, space, max_iters=1,
                                          n_init=2, seed=0,
                                          constraint=space.screen)
        rows = search.search_history_csv(space, history).splitlines()
        assert len(rows) == 1 + 3
        assert all(row.endswith(",1") for row in rows[1:])

    def test_from_json(self):
        doc = {
            "dimensions": [{"name": "res", "kind": "int", "low": 2,
                            "high": 8}],
            "template": {"name": "s", "layers": [
                {"type": "esn", "n_i": 2, "N_r": "$res", "s_p": 0.5,
                 "n_o": 1, "n_s": 4}]},
            "constraint": {"metric": "nabs", "budget": 50_000},
        }
        space = SearchSpace.from_json(doc)
        assert space.budget == 50_000
        assert space.n_dims == 1


class TestSweep:
    def test_single_budget_matches_direct_bo(self):
        space = esn_space()
        task = synth_task_fir([0.8, 0.3], 0.05, 60, seed=4)
        result = complexity_sweep(space, task, [10 ** 8], iters=2, seed=1,
                                  n_init=2, k=3)
        objective = search.make_objective(space, task, k=3, eval_seed=1)
        best, _ = bayesopt.bo_optimize(
            objective, space, max_iters=2, n_init=2, seed=1,
            constraint=lambda pool: space.screen(pool, budget=10 ** 8))
        assert result.points[0].best_score == best.score

    def test_zero_budget_infeasible(self):
        space = esn_space()
        task = synth_task_fir([1.0], 0.0, 30, seed=0)
        with pytest.raises(InfeasibleSpace):
            complexity_sweep(space, task, [0], iters=1, seed=0, n_init=1)

    def test_unsorted_budgets_rejected(self):
        space = esn_space()
        task = synth_task_fir([1.0], 0.0, 30, seed=0)
        with pytest.raises(DomainError):
            complexity_sweep(space, task, [100, 50], iters=1, seed=0)

    def test_deterministic_csv(self):
        space = esn_space()
        task = synth_task_fir([0.8, 0.3], 0.05, 48, seed=4)
        a = complexity_sweep(space, task, [30_000, 10 ** 8], iters=2, seed=2,
                             n_init=2, k=3).to_csv()
        b = complexity_sweep(space, task, [30_000, 10 ** 8], iters=2, seed=2,
                             n_init=2, k=3).to_csv()
        assert a == b

    def test_constraint_soundness(self):
        space = esn_space()
        task = synth_task_fir([0.8, 0.3], 0.05, 48, seed=4)
        for budget in (30_000, 200_000):
            objective = search.make_objective(space, task, k=3, eval_seed=0)
            _, history = bayesopt.bo_optimize(
                objective, space, max_iters=3, n_init=3, seed=0,
                constraint=lambda pool: space.screen(pool, budget=budget))
            assert all(t.cost["nabs"] <= budget for t in history)

    def test_history_csv_columns(self):
        space = esn_space(budget=10 ** 8)
        task = synth_task_fir([1.0], 0.0, 36, seed=0)
        objective = search.make_objective(space, task, k=3, eval_seed=0)
        _, history = bayesopt.bo_optimize(objective, space, max_iters=1,
                                          n_init=2, seed=0,
                                          constraint=space.screen)
        text = search.search_history_csv(space, history)
        header = text.splitlines()[0].split(",")
        assert header == ["iteration", "theta_res", "theta_leak", "score",
                          "nabs", "feasible"]
        assert len(text.splitlines()) == 1 + 3

    @pytest.mark.parametrize("metric", ["rm", "bop"])
    def test_history_csv_names_constraint_metric(self, metric):
        space = esn_space(budget=10 ** 8, metric=metric)
        task = synth_task_fir([1.0], 0.0, 36, seed=0)
        objective = search.make_objective(space, task, k=3, eval_seed=0)
        _, history = bayesopt.bo_optimize(objective, space, max_iters=1,
                                          n_init=2, seed=0,
                                          constraint=space.screen)
        text = search.search_history_csv(space, history)
        assert text.splitlines()[0] == (
            f"iteration,theta_res,theta_leak,score,{metric},feasible")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row[metric] for row in rows] == [
            str(trial.cost[metric]) for trial in history]
        assert all(trial.cost[metric] != trial.cost["nabs"]
                   for trial in history)


class TestCostMemo:
    def test_sweep_costs_each_architecture_once(self, monkeypatch):
        seen = counted_cost_report(monkeypatch)
        task = synth_task_fir([1.0, 0.4, 0.2], 0.05, 160, seed=88)
        complexity_sweep(dense_space(), task, [100, 500, 2000, 10_000],
                         iters=3, seed=0, n_init=3, k=3)
        assert 0 < len(seen) <= 64
        assert len({arch.serialize(net) for net in seen}) == len(seen)

    def test_verdicts_match_fresh_cost_report(self):
        thetas = np.random.default_rng(0).uniform(size=(2000, 3))
        for space in (dense_space(), conv_space(metric="rm")):
            for theta in thetas[:, :space.n_dims]:
                fresh = fresh_totals(space, theta)
                for budget in (None, 0, 20, 100, 500, 2000):
                    expected = fresh is not None and (
                        budget is None or fresh[space.metric] <= budget)
                    assert space.feasible(theta, budget=budget) == expected

    def test_objective_totals_match_fresh_cost_report(self):
        space = conv_space()
        task = synth_task_fir([1.0], 0.0, 30, seed=0)
        objective = search.make_objective(space, task, k=3)
        theta = np.array([0.2, 0.9, 0.5])
        assert space.feasible(theta)
        _, cost = objective(theta)
        assert cost == fresh_totals(space, theta)

    def test_zero_width_conv_infeasible_on_hit(self, monkeypatch):
        seen = counted_cost_report(monkeypatch)
        space = conv_space()
        theta = np.array([0.99, 0.0, 0.0])
        assert space.build_network(theta).layers[0].output_size == 0
        assert not space.feasible(theta)
        assert not space.feasible(theta)
        assert not space.feasible(theta, budget=10 ** 9)
        assert len(seen) == 1
        objective = search.make_objective(space, synth_task_fir(
            [1.0], 0.0, 30, seed=0), k=3)
        with pytest.raises(NNCostError):
            objective(theta)

    def test_float_dimension_memo_capped(self, monkeypatch):
        monkeypatch.setattr(search, "_COST_MEMO_LIMIT", 40)
        space = esn_space()
        for theta in np.random.default_rng(1).uniform(size=(300, 2)):
            fresh = fresh_totals(space, theta)
            assert space.feasible(theta, budget=20_000) == (
                fresh["nabs"] <= 20_000)
            assert len(space._costs) <= 40
        assert len(space._costs) == 40

    def test_criterion_10_sweep_csv_pinned(self):
        task = synth_task_fir([1.0, 0.4, 0.2], 0.05, 160, seed=88)
        csv = complexity_sweep(dense_space(), task, [100, 500, 2000, 10_000],
                               iters=3, seed=0, n_init=3, k=3).to_csv()
        assert sha256(csv) == ("6ec1508fe786a43455538e9c49f7e0cb"
                               "7327f0b2463643337b11cb514b5b5a78")

    def test_search_history_csv_pinned(self, tmp_path):
        space = tmp_path / "space.json"
        task = tmp_path / "task.json"
        out = tmp_path / "history.csv"
        space.write_text(json.dumps({
            "dimensions": [
                {"name": "res", "kind": "int", "low": 2, "high": 24},
                {"name": "leak", "kind": "float", "low": 0.2, "high": 1.0}],
            "template": {"name": "s", "layers": [
                {"type": "esn", "n_i": 3, "N_r": "$res", "s_p": 0.4,
                 "n_o": 1, "n_s": 6, "leak": "$leak",
                 "activation": "tanh"}]},
            "constraint": {"metric": "nabs", "budget": 60000}}))
        task.write_text(json.dumps({"taps": [0.8, 0.3], "noise_std": 0.05,
                                    "n_samples": 60, "seed": 4}))
        assert main(["search", str(space), str(task), "--iters", "3",
                     "--init", "3", "--seed", "2", "-o", str(out)]) == 0
        assert sha256(out.read_text()) == (
            "805ec7ebb450ad60b69a9b074bbfd99a"
            "21c54cae7a4d59e97939e5f3b969f531")


class TestPoolScreen:
    SPACES = (
        (dense_space, (50, 266, 1000)),
        (conv_space, (1600, 4800, 10_000)),
        (lambda: esn_space(budget=60_000), (20_000, 111_564, 300_000)),
        (lambda: log_space(budget=30_020), (9_000, 30_020, 60_000)),
    )

    @pytest.mark.parametrize("make, budgets", SPACES)
    def test_pool_matches_pointwise(self, make, budgets):
        """Pool verdicts and one-row ``feasible`` against each row costed
        afresh through its JSON document."""
        space = make()
        rows = np.random.default_rng(21).uniform(
            -0.3, 1.3, size=(2000, space.n_dims))
        fresh = [fresh_totals(space, row) for row in rows]
        for budget in (None,) + budgets:
            verdicts = space.screen(rows, budget=budget)
            assert verdicts.dtype == bool and verdicts.shape == (2000,)
            limit = space.budget if budget is None else budget
            expected = [totals is not None and (
                limit is None or totals[space.metric] <= limit)
                for totals in fresh]
            assert verdicts.tolist() == expected
            assert [space.feasible(row, budget=budget)
                    for row in rows] == expected
            if budget is not None:  # the budget splits the pool
                assert 0 < verdicts.sum() < 2000

    def test_decoder_matches_reference_formulas(self):
        dims = (Dimension("a", "int", 1, 8), Dimension("b", "int", -3, 3),
                Dimension("c", "int", 0, 7), Dimension("d", "int", 4, 4),
                Dimension("e", "cat", values=("x", "y", "z")),
                Dimension("f", "cat", values=([1], )),
                Dimension("g", "float", 0.2, 1.0),
                Dimension("h", "float", -5, 5),
                Dimension("i", "float", 0, 10 ** 6),
                Dimension("j", "float", 0.01, 1.0, log=True),
                Dimension("k", "float", 1e-3, 7.5, log=True),
                Dimension("l", "float", 2, 48, log=True))
        special = [0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, 1e-300, -1e-300,
                   1 - 2 ** -53, 1 + 2 ** -52, 0.125, 0.999999]
        us = np.concatenate([special, np.random.default_rng(3).uniform(
            -0.5, 1.5, size=5000)])
        for dim in dims:
            got = dim._coordinates(us)
            ref = [reference_coordinate(dim, u) for u in us]
            if dim.kind == "float":
                assert got.dtype == np.float64
                np.testing.assert_array_equal(
                    got.view(np.uint64), np.array(ref).view(np.uint64))
            else:
                assert got.dtype == np.int64
                assert got.tolist() == ref
            for u, c in zip(special, ref):
                assert dim.decode(u) == dim._value(c)
        space = SearchSpace(dimensions=dims[:3] + dims[4:5] + dims[6:7]
                            + dims[9:10], template={})
        for theta in np.random.default_rng(4).uniform(-0.2, 1.2,
                                                      size=(200, 6)):
            key = space._key(theta)
            assert key == tuple(reference_coordinate(d, u)
                                for d, u in zip(space.dimensions, theta))
            assert [type(c) for c in key] == [int] * 4 + [float] * 2

    @pytest.mark.parametrize("pool", [
        np.zeros((5, 3)), np.zeros((5, 1)), np.zeros(2), np.zeros((2, 2, 1)),
        np.array([[0.5, np.nan]])])
    def test_bad_pool_raises(self, pool):
        with pytest.raises(DomainError):
            dense_space().screen(pool)

    def test_pointwise_wrong_size_infeasible(self):
        space = dense_space()
        assert not space.feasible(np.zeros(3))
        assert not space.feasible(np.zeros(0))
        assert not space.feasible(np.array([0.5, np.nan]))

    def test_empty_pool(self):
        assert dense_space().screen(np.empty((0, 2))).shape == (0,)

    def test_each_architecture_looked_up_once(self, monkeypatch):
        space = conv_space()
        looked_up = []
        totals = SearchSpace._totals

        def counted(self, key):
            looked_up.append(key)
            return totals(self, key)

        monkeypatch.setattr(SearchSpace, "_totals", counted)
        pool = np.random.default_rng(8).uniform(size=(2048, 3))
        space.screen(pool)
        assert len(looked_up) == len(set(looked_up)) == 8 * 4 * 3


class TestObjectiveReuse:
    def test_sweep_scores_each_architecture_once(self, monkeypatch):
        scored = []
        real = search.kfold_score

        def counted(task, net, *args, **kwargs):
            scored.append(arch.serialize(net))
            return real(task, net, *args, **kwargs)

        monkeypatch.setattr(search, "kfold_score", counted)
        space = dense_space()
        task = synth_task_fir([1.0, 0.4, 0.2], 0.05, 160, seed=88)
        result = complexity_sweep(space, task, [100, 500, 2000, 10_000],
                                  iters=3, seed=0, n_init=3, k=3)
        evaluated = {tuple(sorted(space.decode(t.theta).items()))
                     for history in result.histories for t in history}
        assert sum(len(h) for h in result.histories) > len(evaluated)
        assert len(scored) == len(evaluated) == len(set(scored))

    def test_repeat_returns_same_score_and_cost(self):
        space = conv_space()
        task = synth_task_fir([1.0], 0.0, 30, seed=0)
        objective = search.make_objective(space, task, k=3)
        first = objective(np.array([0.2, 0.9, 0.5]))
        again = objective(np.array([0.21, 0.95, 0.6]))
        assert space.decode([0.2, 0.9, 0.5]) == space.decode([0.21, 0.95,
                                                              0.6])
        assert first == again
        assert first[0] == kfold_score(
            task, space.build_network([0.2, 0.9, 0.5]), k=3, seed=0)


class TestSpaceSchema:
    BASE = {
        "dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8}],
        "template": {"name": "s", "layers": [
            {"type": "esn", "n_i": 2, "N_r": "$res", "s_p": 0.5, "n_o": 1,
             "n_s": 4}]},
    }

    @pytest.mark.parametrize("extra, path", [
        ({"scheme": "foo"}, "scheme"),
        ({"scheme": "apot:x"}, "scheme"),
        ({"scheme": 3}, "scheme"),
        ({"bits": {"b_w": 0}}, "bits.b_w"),
        ({"bits": {"b_a": "8"}}, "bits.b_a"),
        ({"bits": {"b_x": 8}}, "bits.b_x"),
        ({"bits": [8]}, "bits"),
        ({"constraint": {"metric": "xyz"}}, "constraint.metric"),
        ({"constraint": {"metric": 1}}, "constraint.metric"),
        ({"constraint": {"budget": "10"}}, "constraint.budget"),
        ({"constraint": []}, "constraint"),
        ({"scheme": "apotgarbage"}, "scheme"),
        ({"constraint": {"budget": float("nan")}}, "constraint.budget"),
        ({"constraint": {"budget": float("inf")}}, "constraint.budget"),
        ({"dimensions": [{"name": "res", "kind": "int",
                          "low": float("nan"), "high": 8}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float",
                          "low": float("nan"), "high": 8}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float",
                          "low": 2, "high": float("inf")}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float",
                          "low": float("-inf"), "high": 8}]}, "dimensions[0]"),
        ({"template": {"name": "s", "layers": [
            {"type": "esn", "n_i": 2, "N_r": "$res", "s_p": 0.5,
             "n_o": "$outputs", "n_s": 4}]}}, "template.layers[0].n_o"),
        ({"template": {"$name": "$res", "layers": ["$res", "$x"]}},
         "template.layers[1]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                         {"name": "res", "kind": "int", "low": 100,
                          "high": 200}]}, "dimensions[1].name"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                         {"name": "leak", "kind": "float", "low": 0.2,
                          "high": 10 ** 400}]}, "dimensions[1]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": -10 ** 400,
                          "high": 8}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": 10 ** 400,
                          "high": 10 ** 400 + 1}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": 0.5,
                          "high": 10 ** 400, "log": True}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": -1e308,
                          "high": 1e308}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": 1e-200,
                          "high": 1e200, "log": True}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 0.5,
                          "high": 8}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2,
                          "high": 7.9}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": -3.5,
                          "high": -0.5}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "float", "low": 2,
                          "high": 8}]}, "template.layers[0].N_r"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                         {"name": "leak", "kind": "float", "low": 0.2,
                          "high": 1.0, "log": "false"}]}, "dimensions[1]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                         {"name": "leak", "kind": "float", "low": 0.2,
                          "high": 1.0, "log": 1}]}, "dimensions[1]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8,
                          "log": True}]}, "dimensions[0]"),
        ({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                         {"name": "act", "kind": "cat",
                          "values": ["tanh", "relu"], "log": True}]},
         "dimensions[1]"),
        *(({"dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 8},
                           {"name": name, "kind": "int", "low": 1,
                            "high": 2}]}, "dimensions[1].name")
          for name in ({}, [1], None, -0.0, 3, True)),
    ])
    def test_bad_field_names_path(self, extra, path):
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json({**self.BASE, **extra})
        assert err.value.path == path

    def test_fractional_int_bound_message(self):
        for low, high in ((0.5, 7.9), (-3.5, -0.5), (0, 7.5)):
            with pytest.raises(ValueError) as err:
                Dimension("c", "int", low, high)
            assert str(err.value) == "int dimension needs integer low and high"

    def test_integer_valued_float_int_bounds_accepted(self):
        dim = Dimension("n", "int", 2.0, 5.0)
        assert {dim.decode(u) for u in np.linspace(0, 1, 200)} == {2, 3, 4, 5}
        space = SearchSpace.from_json({**self.BASE, "dimensions": [
            {"name": "res", "kind": "int", "low": 4.0, "high": 4.0}]})
        assert space.decode([0.3]) == {"res": 4}

    @pytest.mark.parametrize("layer, path, what", [
        ({"type": "dense", "n_n": "$x", "n_i": 2}, "layers[0].n_n",
         "an integer"),
        ({"type": "esn", "n_i": 2, "N_r": 4, "s_p": 0.5, "n_o": 1,
          "n_s": "$x"}, "layers[0].n_s", "an integer"),
        ({"type": "$x", "n_n": 2, "n_i": 2}, "layers[0].type", "a string"),
        ({"type": "dense", "n_n": 2, "n_i": 2, "activation": "$x"},
         "layers[0].activation", "a string"),
        ({"type": "$cell", "n_i": 2, "n_h": "$x", "n_s": 3},
         "layers[0].n_h", "an integer"),
        ({"type": "$cell", "n_i": "$cell", "n_h": 4, "n_s": "$x"},
         "layers[0].n_s", "an integer"),
    ], ids=["dense-count", "esn-count", "type", "activation",
            "cell-count", "after-cat"])
    def test_float_dimension_where_integer_or_string_taken(self, layer, path,
                                                           what):
        dims = (Dimension("cell", "cat", values=("lstm", "gru")),
                Dimension("x", "float", 0.5, 3.0))
        template = {"name": "s", "layers": [
            {"type": "dense", "n_n": 2, "n_i": 2}, layer]}
        with pytest.raises(SchemaError) as err:
            SearchSpace(dims, template)
        path = path.replace("layers[0]", "layers[1]")
        assert str(err.value) == (f"template.{path}: float dimension 'x' "
                                  f"feeds a place that takes {what}")
        with pytest.raises(SchemaError) as err:
            SearchSpace(dims, {"name": "$x", "layers": [layer]})
        assert err.value.path == "template.name"

    def test_float_dimension_check_comes_last(self):
        float_count = {"name": "h", "kind": "float", "low": 1, "high": 4}
        doc = {"dimensions": [float_count,
                              {"name": "w", "kind": "int", "low": 2,
                               "high": 1.5}],
               "template": {"name": "s", "layers": [
                   {"type": "dense", "n_n": "$h", "n_i": "$w"}]}}
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json(doc)
        assert err.value.path == "dimensions[1]"
        doc["dimensions"] = [float_count, {**float_count, "low": 0}]
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json(doc)
        assert err.value.path == "dimensions[1].name"
        doc["dimensions"] = [float_count, {**float_count, "name": "w",
                                           "kind": "int"}]
        doc["template"]["layers"].append({"type": "dense", "n_n": "$v",
                                          "n_i": "$h"})
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json(doc)
        assert err.value.path == "template.layers[1].n_n"
        assert "unknown dimension 'v'" in str(err.value)
        doc["template"]["layers"][1]["n_n"] = 1
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json({**doc, "scheme": "foo"})
        assert err.value.path == "scheme"
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json(doc)
        assert err.value.path == "template.layers[0].n_n"

    @pytest.mark.parametrize("template", [
        {},
        {"name": "s", "layers": [{"type": "esn", "n_i": 2, "N_r": 4,
                                  "s_p": "$x", "n_o": 1, "n_s": 3,
                                  "leak": "$x"}]},
        {"name": "s", "layers": [{"type": "$cell", "n_i": 2, "N_r": 4,
                                  "s_p": 0.5, "n_o": 1, "n_s": 3,
                                  "leak": "$x"}]},
        {"name": "s", "layers": [{"type": "dense", "n_n": ["$x"],
                                  "n_i": 2}]},
        {"name": "s", "layers": [{"type": "dense", "n_n": 2, "n_i": 2,
                                  "leak": "$x"}]},
        {"name": "s", "layers": [{"type": "bogus", "n_n": "$x"}]},
        {"name": "s", "layers": "$x"},
        {"name": "s", "layers": ["$x"]},
        {"name": "s", "x": "$x", "layers": [{"type": "dense", "n_n": "$x",
                                             "n_i": 2}]},
    ], ids=["empty", "fractions", "cell-fraction", "nested", "unknown-field",
            "unknown-type", "layers", "layer", "unknown-top-field"])
    def test_float_dimension_elsewhere_builds(self, template):
        """A fraction takes a float; a structural fault of the template
        stays a per-candidate verdict."""
        dims = (Dimension("cell", "cat", values=("esn", "gru")),
                Dimension("x", "float", 0.25, 1.0))
        SearchSpace(dims, template)

    def test_duplicate_name_message(self):
        doc = {**self.BASE, "dimensions": [
            {"name": "z", "kind": "int", "low": 1, "high": 8},
            {"name": "res", "kind": "int", "low": 2, "high": 8},
            {"name": "z", "kind": "int", "low": 100, "high": 200}]}
        with pytest.raises(SchemaError) as err:
            SearchSpace.from_json(doc)
        assert str(err.value) == (
            "dimensions[2].name: duplicate dimension name 'z'")

    def test_float_bounds_inside_float_range_accepted(self):
        dims = [{"name": "res", "kind": "int", "low": 2, "high": 8},
                {"name": "x", "kind": "float", "low": -10 ** 300,
                 "high": 10 ** 300}]
        space = SearchSpace.from_json({**self.BASE, "dimensions": dims})
        assert space.decode([0.0, 1.0])["x"] == 1e300
        dims[1] = {"name": "x", "kind": "float", "low": 1e-150, "high": 1e150,
                   "log": True}
        space = SearchSpace.from_json({**self.BASE, "dimensions": dims})
        assert space.decode([0.0, 0.5])["x"] == pytest.approx(1.0)

    def test_huge_integer_budget_accepted(self):
        space = SearchSpace.from_json({
            **self.BASE, "constraint": {"budget": 10 ** 400}})
        assert space.budget == 10 ** 400

    def test_upper_case_fields_accepted(self):
        space = SearchSpace.from_json({
            **self.BASE, "scheme": "PoT",
            "constraint": {"metric": "BOP", "budget": 10}})
        assert space.metric == "bop"
        assert isinstance(space.scheme, quant.PoT)


class TestParseScheme:
    @pytest.mark.parametrize("text, scheme", [
        ("float", quant.Float(8)), ("UNIFORM", quant.FixedUniform(8)),
        ("pot", quant.PoT(8)), ("apot", quant.APoT(8, 2)),
        ("apot:3", quant.APoT(8, 3)), ("APoT:07", quant.APoT(8, 7)),
    ])
    def test_spellings(self, text, scheme):
        assert search.parse_scheme(text, 8) == scheme

    @pytest.mark.parametrize("text", [
        "foo", "", "apotgarbage", "apot2", "apot:", "apot:x", "apot:2:3",
        "apot: 2", "apot:+2", "apot:\u00b2", "pot:2", "float:1", "apot:0",
        "apot:8"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            search.parse_scheme(text, 8)


class TestRecurrentSearchPinned:
    def test_lstm_gru_search_history_csv_pinned(self, tmp_path):
        space = tmp_path / "space.json"
        task = tmp_path / "task.json"
        out = tmp_path / "history.csv"
        space.write_text(json.dumps({
            "dimensions": [
                {"name": "cell", "kind": "cat", "values": ["lstm", "gru"]},
                {"name": "h", "kind": "int", "low": 2, "high": 12},
                {"name": "win", "kind": "int", "low": 1, "high": 4}],
            "template": {"name": "r", "layers": [
                {"type": "$cell", "n_i": "$win", "n_h": "$h", "n_s": 8,
                 "activation": "tanh"}]},
            "constraint": {"metric": "nabs", "budget": 400000}}))
        task.write_text(json.dumps({"taps": [1.0, 0.5, 0.25],
                                    "noise_std": 0.05, "n_samples": 150,
                                    "seed": 7}))
        assert main(["search", str(space), str(task), "--iters", "4",
                     "--init", "3", "--seed", "5", "-o", str(out)]) == 0
        text = out.read_text()
        assert {"lstm", "gru"} <= {row.split(",")[1]
                                   for row in text.splitlines()[1:]}
        assert sha256(text) == ("6ab5d1792b4ab2b259fe614bd7f77ee7"
                                "894de7983d557be6b2c957816feae9c5")


def reference_featurize(net, stream, seed):
    """``featurize`` as it was before it ran through ``interp.run_stream``,
    verbatim except that every forward pass is spelled ``run_layer``."""
    stream = np.asarray(stream, dtype=float)
    features = search._input_windows(stream, net.layers[0].n_i)
    for index, layer in enumerate(net.layers):
        weights = interp.random_weights(
            layer, np.random.default_rng([seed, index]))
        last = index == len(net.layers) - 1
        if isinstance(layer, arch.Dense):
            rows = [interp.run_layer(layer, weights, row)[0]
                    for row in features]
            features = np.stack(rows)
        elif isinstance(layer, arch.Conv1D):
            n = features.shape[0]
            padded = np.vstack([np.zeros((layer.n_s - 1, layer.n_i)),
                                features])
            rows = []
            for t in range(n):
                window = padded[t:t + layer.n_s]
                maps, _, _ = interp.run_layer(layer, weights, window)
                rows.append(maps.reshape(-1))
            features = np.stack(rows)
        elif isinstance(layer, arch.EchoState):
            trace: list = []
            y_seq, _, _ = interp.run_layer(layer, weights, features,
                                           state_trace=trace)
            features = np.stack(trace) if last else y_seq
        else:
            features, _, _ = interp.run_layer(layer, weights, features)
    return features


CONV = arch.Conv1D(n_f=2, n_i=3, n_k=3, n_s=5, padding=1, dilation=2,
                   activation="relu")
ESN = EchoState(n_i=3, N_r=12, s_p=0.3, n_o=2, n_s=8, leak=0.6)


class TestFeaturizeMatchesReference:
    @pytest.mark.parametrize("layers", [
        (Dense(5, 3),),
        (CONV,),
        (arch.Conv1D(n_f=1, n_i=2, n_k=2, n_s=4, activation="linear"),),
        (arch.VanillaRNN(3, 4, 8),),
        (arch.LSTM(3, 6, 8),),
        (arch.GRU(3, 5, 8, activation="relu"),),
        (ESN,),
        (Dense(7, 3, activation="relu"), Dense(4, 7, activation="sigmoid")),
        (CONV, Dense(4, CONV.n_f * CONV.output_size)),
        (arch.LSTM(3, 6, 8), Dense(2, 6)),
        (ESN, Dense(3, 2)),
    ], ids=["dense", "conv1d", "conv1d-nf1", "rnn", "lstm", "gru", "esn",
            "dense-dense", "conv1d-dense", "lstm-dense", "esn-dense"])
    def test_bitwise_equal(self, layers):
        net = NetworkSpec("m", layers)
        for seed in (0, 7):
            task = synth_task_fir([0.8, -0.3, 0.1], 0.05, 257, seed=seed)
            got = featurize(net, task.inputs, seed)
            want = reference_featurize(net, task.inputs, seed)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


class TestKFoldScoreMatchesReference:
    @pytest.mark.parametrize("layers", [
        (Dense(5, 3),),
        (CONV,),
        (arch.LSTM(3, 6, 8),),
        (arch.GRU(3, 5, 8, activation="relu"),),
        (ESN,),
    ], ids=["dense", "conv1d", "lstm", "gru", "esn"])
    def test_bitwise_equal(self, layers):
        """Every k from 2 to 6 leaves a remainder on 97 samples, so folds
        differ in size; alternating seeds replace the kept fold plan."""
        net = NetworkSpec("m", layers)
        task = synth_task_fir([0.8, -0.3, 0.1], 0.05, 97, seed=3)
        for k in range(2, 7):
            assert task.targets.size % k != 0
            for seed in (0, 5, 0):
                got = np.float64(kfold_score(task, net, k=k, seed=seed))
                want = np.float64(reference_kfold_score(task, net, k, seed))
                assert got.view(np.uint64) == want.view(np.uint64)

    def test_fold_arrays_read_only(self):
        plan = kfold_split(23, 4, seed=3)
        pairs = search._fold_pairs(23, 4, 3)
        assert search._fold_pairs(23, 4, 3) is pairs
        assert len(pairs) == 4
        for fold, (train, test) in enumerate(pairs):
            np.testing.assert_array_equal(train, plan.train_indices(fold))
            np.testing.assert_array_equal(test, plan.test_indices(fold))
            for indices in (train, test):
                assert not indices.flags.writeable
                with pytest.raises(ValueError):
                    indices[0] = 0

    def test_mean_is_np_mean(self):
        """The fold and score means against ``np.mean``, bitwise, across
        the lengths where numpy's pairwise sum changes its blocking."""
        rng = np.random.default_rng(6)
        for n in list(range(1, 40)) + [127, 128, 129, 257, 1000, 4099]:
            for values in (rng.standard_normal(n) ** 2,
                           rng.uniform(0, 1e-3, n) * 10.0 ** rng.integers(
                               -20, 20, n)):
                got = np.float64(search._mean(values))
                want = np.float64(float(np.mean(values)))
                assert got.view(np.uint64) == want.view(np.uint64)
                listed = values.tolist()
                assert search._mean(listed) == float(np.mean(listed))

    def test_bad_fold_count_still_raises(self):
        task = synth_task_fir([1.0], 0.0, 10, seed=0)
        net = NetworkSpec("m", (Dense(2, 2),))
        kfold_score(task, net, k=3, seed=0)
        for k in (1, 11):
            with pytest.raises(DomainError):
                kfold_score(task, net, k=k, seed=0)


def mixed_space():
    """A category first, an int with negative ``low`` and one from 0:
    ``h <= 0``, ``w == 0`` and "bogus" fail to build."""
    return SearchSpace(
        dimensions=(Dimension("act", "cat", values=("tanh", "relu", "bogus")),
                    Dimension("h", "int", -2, 5),
                    Dimension("w", "int", 0, 3)),
        template={"name": "m", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w",
             "activation": "$act"}]},
        metric="bop",
    )


def huge_space():
    """Totals from 80 to above 2**110, so some do not fit int64."""
    return SearchSpace(
        dimensions=(Dimension("h", "cat", values=(1, 2 ** 40, 2 ** 52)),
                    Dimension("w", "cat", values=(1, 0, 2 ** 52))),
        template={"name": "b", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w"}]},
        metric="bop",
    )


def fresh_verdicts(space, rows, budgets):
    """Per budget, each row's verdict from its architecture costed afresh
    through its JSON document."""
    fresh = [fresh_totals(space, row) for row in rows]
    verdicts = {}
    for budget in budgets:
        limit = space.budget if budget is None else budget
        verdicts[budget] = np.array([t is not None and (
            limit is None or t[space.metric] <= limit) for t in fresh])
    return fresh, verdicts


class TestIndexTableMatchesDistinctRows:
    """``screen`` on all-int/cat spaces gives every distinct row the verdict
    of that row costed afresh, over pools that repeat, overlap and are
    empty, and the memo holds each architecture's fresh totals."""

    BUDGETS = (None, 0, 1, 80, 500.5, 4095.999, -1, -2.5, 2 ** 63 - 1,
               2 ** 63, 2 ** 64 + 3, 10 ** 40, float(2 ** 70), 1e300)

    @staticmethod
    def run(make, budgets):
        space = make()
        rng = np.random.default_rng(41)
        rows = rng.uniform(-0.3, 1.3, size=(2048, space.n_dims))
        fresh, verdicts = fresh_verdicts(space, rows, budgets)
        pools = [np.arange(3), rng.integers(0, 2048, size=50),
                 np.arange(0), np.arange(2048), np.arange(1500, 2048)]
        for pool in pools:
            for budget in budgets:
                got = space.screen(rows[pool], budget=budget)
                assert got.dtype == bool and got.shape == (len(pool),)
                assert got.tolist() == verdicts[budget][pool].tolist()
        by_key = {space._key(row): t for row, t in zip(rows, fresh)}
        for key, totals in space._costs.items():
            assert totals == (None if by_key[key] is None else tuple(
                by_key[key][metric] for metric in search._METRICS))
        return space

    @pytest.mark.parametrize("make", [dense_space, conv_space, mixed_space],
                             ids=["int-int", "int-int-cat", "cat-int-int"])
    def test_pools(self, make):
        space = self.run(make, self.BUDGETS)
        if make is not dense_space:  # some architectures fail to build
            assert None in space._costs.values()

    def test_space_budget_applies(self):
        def make():
            return dataclasses.replace(mixed_space(), budget=700.5)

        self.run(make, (None, 10 ** 30))

    def test_totals_beyond_int64(self):
        keys = [(h, w) for h in range(3) for w in range(3)]
        exact = sorted(t[1] for t in map(huge_space()._totals, keys) if t)
        assert exact[0] < 2 ** 63 <= exact[-1]
        budgets = [b + d for b in exact for d in (-1, 0, 1)]
        budgets += [float(b) for b in exact] + [None, 2 ** 63 - 1, 0.5]
        self.run(huge_space, budgets)

    @pytest.mark.parametrize("cap", [64, 63], ids=["at-cap", "over-cap"])
    def test_cap(self, cap, monkeypatch):
        monkeypatch.setattr(search, "_COST_MEMO_LIMIT", cap)
        space = self.run(dense_space, self.BUDGETS)  # 64 architectures
        assert len(space._costs) == min(cap, 64)


class TestLookupsPerSpace:
    @pytest.mark.parametrize("make, cap, overflows", [
        (dense_space, 64, False), (mixed_space, 96, False),
        (dense_space, 32, True), (esn_space, 1 << 14, False)],
        ids=["at-cap", "cat-int-int", "over-cap", "float"])
    def test_repeat_pool(self, make, cap, overflows, monkeypatch):
        """Each architecture is costed once per space while the memo has
        room; past it, each row of an architecture the memo does not hold
        is costed again."""
        monkeypatch.setattr(search, "_COST_MEMO_LIMIT", cap)
        space = make()
        pool = np.random.default_rng(44).uniform(size=(300, space.n_dims))
        costed = counted_cost_report(monkeypatch)
        first = space.screen(pool, budget=500)
        n_first = len(costed)
        assert space.screen(pool, budget=500).tolist() == first.tolist()
        unkept = sum(space._key(row) not in space._costs for row in pool)
        assert (unkept > 0) == overflows
        assert len(costed) == n_first + unkept

    @pytest.mark.parametrize("make", [lambda: esn_space(budget=60_000),
                                      lambda: log_space(budget=30_020)],
                             ids=["int-float", "int-logfloat"])
    def test_float_pool_with_repeats(self, make, monkeypatch):
        """A float pool that repeats its rows costs each architecture once,
        and every row's verdict is that row costed afresh."""
        space = make()
        rng = np.random.default_rng(31)
        rows = rng.uniform(-0.3, 1.3, size=(40, space.n_dims))
        pool = rows[rng.integers(0, 40, size=600)]
        _, verdicts = fresh_verdicts(space, pool, (None, 0, 10 ** 6))
        assert 0 < verdicts[None].sum() < len(pool)
        costed = counted_cost_report(monkeypatch)
        for budget, expected in verdicts.items():
            assert space.screen(pool, budget=budget).tolist() == \
                expected.tolist()
        distinct = {space._key(row) for row in pool}
        assert len(costed) == len(distinct) == len(space._costs)


INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "inputs")


def input_space(name):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as handle:
        return SearchSpace.from_json(json.load(handle))


def ref_space(template, *dims):
    return SearchSpace(dimensions=dims, template=template)


H = Dimension("h", "int", -1, 2)
LAYER = {"type": "dense", "n_n": 2, "n_i": 1}
# References outside a field value: the name, a whole layer, the type, the
# layer list, the whole document, and references inside arrays and
# objects. Strings in a value are literal, so "$h" in one is not a
# reference.
ODD_SPACES = {
    "name": lambda: ref_space(
        {"name": "$nm", "layers": [{"type": "dense", "n_n": "$h",
                                    "n_i": 1}]},
        Dimension("nm", "cat", values=("net", 3, None, ["x"], "$h")), H),
    "layer": lambda: ref_space(
        {"name": "s", "layers": ["$L", {"type": "dense", "n_n": "$h",
                                        "n_i": 2}]},
        Dimension("L", "cat", values=(
            LAYER, "dense", [], {"type": "$h", "n_n": 1, "n_i": 1},
            {**LAYER, "bogus": 1}, {"n_n": 1}, {"type": "dense", "n_i": 1},
            {"type": ["dense"]}, {**LAYER, "n_n": 0})), H),
    "type": lambda: ref_space(
        {"name": "s", "layers": [{"type": "$t", "n_i": 2, "n_h": "$h",
                                  "n_s": 3, "activation": "$a"}]},
        Dimension("t", "cat", values=("lstm", "gru", "dense", "nope",
                                      ["lstm"], 7, "$h", None)),
        H, Dimension("a", "cat", values=("relu", "gelu"))),
    "layers": lambda: ref_space(
        {"name": "s", "layers": "$Ls"},
        Dimension("Ls", "cat", values=(
            [LAYER], [], "x", [{"type": "$h"}], [LAYER, LAYER],
            [LAYER, {**LAYER, "n_i": 2}], {"a": 1}))),
    "document": lambda: ref_space(
        "$d",
        Dimension("d", "cat", values=(
            {"name": "x", "layers": [LAYER]}, [], {"name": "x"},
            {"layers": [LAYER]}, {"name": "x", "layers": [LAYER], "y": 1},
            {"name": 1, "layers": [LAYER]}))),
    "nested": lambda: ref_space(
        {"name": {"x": "$h"}, "layers": [LAYER]}, H),
    "nested-fields": lambda: ref_space(
        {"name": "s", "layers": [
            {"type": ["$t"], "n_n": 1, "n_i": 1},
            {"type": "dense", "n_n": ["$h"], "n_i": {"a": "$h"}}]},
        Dimension("t", "cat", values=("dense",)), H),
    "nested-late": lambda: ref_space(
        {"name": "s", "layers": [LAYER, {"type": "dense", "n_n": ["$h"],
                                         "n_i": "$h"}]}, H),
}


def every_key(space):
    """Every decoded architecture of an all-int/cat space."""
    ranges = [range(len(dim.values)) if dim.kind == "cat"
              else range(int(dim.low), int(dim.high) + 1)
              for dim in space.dimensions]
    return itertools.product(*ranges)


def outcome(build):
    """The spec a build returns, with its repr (1 and 1.0 compare equal),
    or the type, path and message of the SchemaError it raises."""
    try:
        net = build()
    except SchemaError as exc:
        return type(exc), exc.path, str(exc)
    return net, repr(net)


class TestTemplateMatchesReference:
    """The compiled template against ``parse_document`` of the substituted
    JSON document, for every architecture of a space: the same spec, or the
    same SchemaError at the same path with the same message."""

    @pytest.mark.parametrize("make", [
        lambda: input_space("sweep_space.json"),
        lambda: input_space("recurrent_space.json"),
        mixed_space, conv_space, huge_space, *ODD_SPACES.values()],
        ids=["sweep-space", "recurrent-space", "mixed", "conv1d", "huge",
             *ODD_SPACES])
    def test_every_key(self, make):
        space = make()
        for key in every_key(space):
            got = outcome(lambda: space._network(key))
            want = outcome(lambda: arch.parse_document(reference_substitute(
                space.template, space._params(key))))
            assert got == want, key

    def test_spaces_cover_both_outcomes(self):
        """The spaces with faults have keys that build and keys that raise
        (in the nested spaces every key raises), and the zero-width
        convolutions of ``conv_space`` are specs, which fail validation."""
        for make in (mixed_space, conv_space, *ODD_SPACES.values()):
            space = make()
            built = [isinstance(outcome(lambda: space._network(key))[0],
                                NetworkSpec) for key in every_key(space)]
            assert not all(built)
            assert any(built) != (make in (ODD_SPACES["nested"],
                                           ODD_SPACES["nested-fields"],
                                           ODD_SPACES["nested-late"]))
        space = conv_space()
        widths = [space._network((k, 1, 0)).layers[0].output_size
                  for k in range(1, 9)]
        assert 0 in widths and widths[0] > 0

    def test_objective_raises_the_reference_error(self):
        space = mixed_space()
        task = synth_task_fir([1.0], 0.0, 30, seed=0)
        objective = search.make_objective(space, task, k=3)
        theta = [0.9, 0.9, 0.9]  # "bogus" activation
        assert space._key(theta)[0] == 2 and not space.feasible(theta)
        with pytest.raises(SchemaError) as err:
            objective(theta)
        assert (err.value.path, str(err.value)) == outcome(
            lambda: arch.parse_document(reference_substitute(
                space.template, space.decode(theta))))[1:]
