#!/usr/bin/env python3
"""Hyperparameter search under a complexity budget.

A Gaussian-process surrogate with expected-improvement acquisition drives
the search; candidates whose NABS exceeds the budget are discarded before
they are ever scored. Scoring is reservoir-style: fixed seeded weights
produce the hidden representation and only a ridge readout is fitted,
k-fold cross-validated, so every run is deterministic.
"""

import numpy as np

import nncost as nc
from nncost import bayesopt, search

# Plain Bayesian optimization on a toy objective first.
best, history = nc.bo_optimize(lambda th: -(th[0] - 0.3) ** 2,
                               bayesopt.CubeSpace(1),
                               max_iters=15, n_init=5, seed=0)
print(f"toy quadratic: best theta {best.theta[0]:.4f} "
      f"(optimum 0.3) after {len(history)} evaluations")

# The real task: recover +/-1 symbols sent through a 3-tap FIR channel
# with additive noise. Architectures see the received stream only.
task = nc.synth_task_fir(taps=[1.0, 0.45, 0.2], noise_std=0.08,
                         n_samples=192, seed=1)

# Search an echo state equalizer: reservoir size and leak rate, NABS
# budgeted under 8-bit uniform weights.
space = nc.SearchSpace(
    dimensions=(nc.Dimension("res", "int", 2, 48),
                nc.Dimension("leak", "float", 0.1, 1.0)),
    template={"name": "esn-eq", "layers": [
        {"type": "esn", "n_i": 4, "N_r": "$res", "s_p": 0.25, "n_o": 1,
         "n_s": 8, "leak": "$leak", "activation": "tanh"}]},
    metric="nabs",
)

# Every candidate is scored under one protocol: the task, a 3-fold plan,
# and the seed of both the fold shuffle and the fixed layer weights.
# Budget i's search draws are seeded with that seed + i.
evaluation = nc.Evaluation(task, folds=3, seed=0)

budgets = [30_000, 120_000, 500_000, 2_000_000]
result = nc.complexity_sweep(space, evaluation, budgets, iters=8, n_init=4)

print(f"\n{'budget':>10} {'best score':>12} {'NABS':>10}  best params")
for point in result.points:
    print(f"{point.budget:>10} {point.best_score:>12.5f} "
          f"{point.nabs:>10}  {point.best_params}")

scores = [p.best_score for p in result.points]
print("\nrunning max is non-decreasing:",
      bool(np.all(np.diff(np.maximum.accumulate(scores)) >= 0)))

# The CSV below is what `nncost sweep` emits; columns are plot-ready for a
# score-vs-complexity frontier.
print()
print(result.to_csv())
