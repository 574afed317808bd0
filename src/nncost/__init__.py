"""Inference-cost metrics, an instrumented reference interpreter, and
complexity-budgeted Bayesian architecture search for small neural networks."""

from .arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                   NetworkSpec, VanillaRNN, conv1d_output_size, parse_spec,
                   serialize, validate_network)
from .bayesopt import (GPParams, Trial, bo_optimize, expected_improvement,
                       gp_fit, gp_predict, kernel, propose_next)
from .costmodel import (CostReport, acc_bits, bop_layer, cost_report,
                        mult_bits, nabs_layer, nenb, rm_layer)
from .interp import (FixedPoint, OpCounters, audit, fir_filter, iir_filter,
                     random_weights, run_layer)
from .quant import (APoT, FixedUniform, Float, PoT, cluster_weights,
                    effective_rm, magnitude_prune, quantize_apot,
                    quantize_pot, quantize_uniform, x_w)
from .search import (Dimension, FoldPlan, SearchSpace, Task, complexity_sweep,
                     featurize, kfold_score, kfold_split, synth_task_fir)

__version__ = "0.1.0"

__all__ = [
    "APoT", "BitwidthConfig", "Conv1D", "CostReport", "Dense", "Dimension",
    "EchoState", "FixedPoint", "FixedUniform", "Float", "FoldPlan", "GPParams",
    "GRU", "LSTM", "NetworkSpec", "OpCounters", "PoT", "SearchSpace", "Task",
    "Trial", "VanillaRNN", "acc_bits", "audit", "bo_optimize", "bop_layer",
    "cluster_weights", "complexity_sweep", "conv1d_output_size", "cost_report",
    "effective_rm", "expected_improvement", "featurize",
    "fir_filter", "gp_fit", "gp_predict", "iir_filter", "kernel",
    "kfold_score", "kfold_split", "magnitude_prune", "mult_bits",
    "nabs_layer", "nenb", "parse_spec", "propose_next", "quantize_apot",
    "quantize_pot", "quantize_uniform", "random_weights", "rm_layer",
    "run_layer", "serialize", "synth_task_fir",
    "validate_network", "x_w",
]
