"""The benchmark's span hooks still see the search's scoring calls.

``perfbench/tracing.py`` wraps nncost functions by their module attribute
names, and a metric whose function is no longer called under that name
reads 0 with no error. These tests load the tracer from its file, unchanged,
and run ``search`` and ``sweep`` through ``cli.main`` under it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import nncost
import nncost.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SPANS = ("search.kfold_score", "search.objective", "search.featurize.dense")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def inputs(tmp_path):
    space, task = tmp_path / "space.json", tmp_path / "task.json"
    space.write_text(json.dumps({
        "dimensions": [{"name": "h", "kind": "int", "low": 1, "high": 4},
                       {"name": "w", "kind": "int", "low": 1, "high": 3}],
        "template": {"name": "eq", "layers": [
            {"type": "dense", "n_n": "$h", "n_i": "$w",
             "activation": "tanh"}]}}))
    task.write_text(json.dumps({"taps": [1.0, 0.4], "noise_std": 0.05,
                                "n_samples": 40, "seed": 3}))
    return str(space), str(task), str(tmp_path / "out.csv")


@pytest.mark.parametrize("command", ["search", "sweep"])
def test_scoring_spans_recorded(command, inputs):
    space, task, out = inputs
    argv = [command, space, task, "--iters", "2", "--init", "2",
            "--seed", "4", "--folds", "4", "-o", out]
    if command == "sweep":
        argv += ["--budgets", "2000,100000"]
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer(), nncost) as tracer:
        assert nncost.cli.main(argv) == 0
    totals = tracing.span_totals(tracer)
    for name in SPANS + (f"cli.main.{command}",):
        assert totals.get(name, {}).get("calls", 0) > 0, name
