"""Tests of the benchmark's own arithmetic, checks and output contract.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --- self time ------------------------------------------------------------

def test_self_time_of_a_synthetic_span_tree():
    # 0: root [0, 10]
    #   1: child [1, 4]
    #     2: grandchild [2, 3]
    #   3: child [3.5, 6]   overlaps child 1 on [3.5, 4]
    #   4: child [9, 12]    runs past the root's end
    # 5: second root [20, 21]
    start = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    own = tracing.self_times(start, end, parent)
    # Root: children cover [1, 6] and [9, 10], so 6 of its 10 s.
    assert own == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])


def test_span_totals_sum_per_name():
    tracer = tracing.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    totals = tracing.span_totals(tracer)
    assert totals["a"]["calls"] == totals["b"]["calls"] == 1
    assert totals["a"]["self_s"] == pytest.approx(
        totals["a"]["busy_s"] - totals["b"]["busy_s"])
    assert tracer.parent.tolist() == [-1, 0]


# --- output checks ----------------------------------------------------------

SWEEP_OK = (workloads.SWEEP_HEADER + "\n"
            '100,nabs,-0.01,"{""h"": 6, ""w"": 1}",6,480,96\n'
            '500,nabs,-0.007,"{""h"": 5, ""w"": 2}",10,810,170\n'
            '2000,nabs,-0.01,"{""h"": 6, ""w"": 2}",12,972,204\n'
            '10000,nabs,-0.01,"{""h"": 6, ""w"": 2}",12,972,204\n')


def _audit_json(mode, deltas):
    return json.dumps({"mode": mode, "per_layer": [
        {"layer_index": i, "delta": d} for i, d in enumerate(deltas)]})


def test_checks_accept_good_outputs():
    assert workloads.check_sweep(SWEEP_OK) is None
    assert workloads.check_audit(_audit_json("fixed", [0]), "fixed",
                                 exact=True) is None
    assert workloads.check_audit(_audit_json("fixed", [5460]), "fixed",
                                 exact=False) is None


@pytest.mark.parametrize("check, text", [
    (workloads.check_sweep, SWEEP_OK.replace(",12,972,204\n10000",
                                             ",12,972,2204\n10000")),
    (lambda t: workloads.check_audit(t, "fixed", exact=True),
     _audit_json("fixed", [0, 3])),
    (lambda t: workloads.check_audit(t, "fixed", exact=False),
     _audit_json("fixed", [-1])),
    (lambda t: workloads.check_estimate(t, (1, 2, 3)),
     workloads.ESTIMATE_HEADER + "\n0,dense,1,2,3\nTOTAL,,1,2,4\n"),
])
def test_checks_reject_tampered_outputs(check, text):
    assert check(text) is not None


class _Stub:
    """A one-op-per-cycle workload whose outputs are scripted."""

    def __init__(self, outputs, check):
        self.cycle = 1
        self.outputs = list(outputs)
        self.check = check

    def op(self, index):
        def call(nc):
            return 0, self.outputs.pop(0)
        return workloads.Op(0, f"stub#{index}", call, self.check)


def test_tampered_output_counts_as_a_failed_op():
    over_budget = SWEEP_OK.replace("10,810,170", "10,810,510")
    stub = _Stub([SWEEP_OK, over_budget, SWEEP_OK],
                 workloads._checked(workloads.check_sweep))
    ledger = run.Ledger()
    timings = run.run_pass(None, stub, ledger, count=3)
    assert len(timings) == ledger.attempted == 3
    assert len(ledger.failures) == 1
    assert "over budget" in ledger.failures[0]


def test_nonzero_uniform_delta_counts_as_a_failed_op():
    stub = _Stub([_audit_json("fixed", [0]), _audit_json("fixed", [2])],
                 lambda t: workloads.check_audit(t, "fixed", exact=True))
    ledger = run.Ledger()
    run.run_pass(None, stub, ledger, count=2)
    assert ledger.failures == ["stub#1: layer 0 delta 2"]


def test_repeated_op_must_be_byte_identical():
    stub = _Stub([SWEEP_OK, SWEEP_OK + " "], lambda t: None)
    ledger = run.Ledger()
    run.run_pass(None, stub, ledger, count=2)
    assert len(ledger.failures) == 1
    assert "differs" in ledger.failures[0]


def test_nonzero_exit_code_counts_as_a_failed_op():
    op = workloads.Op(0, "x", lambda nc: (2, ""), lambda t: None)
    *_, reason = run.execute(None, op)
    assert reason == "exit code 2"


# --- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 50, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, percentile, count = metrics.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == metrics.MIN_BEYOND_TAIL
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# --- nominal speed ----------------------------------------------------------

def test_times_are_scaled_by_the_reference_around_them():
    reference = metrics.Reference()
    nominal = metrics.REFERENCE_NOMINAL_S
    reference.at = [0.0, 1.0, 10.0]
    reference.took = [nominal, nominal, 2 * nominal]
    # The first op sees the two early samples, the second only the late one.
    assert reference.at_nominal_speed([(0.5, 0.1), (10.0, 0.2)]) == \
        pytest.approx([0.1, 0.1])
    # An op far from every sample uses the mean of all of them.
    assert reference.at_nominal_speed([(50.0, 0.4)]) == pytest.approx(
        [0.4 / (4 / 3)])


# --- BENCHMARK.json against the runner --------------------------------------

def test_declared_names_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_runner_prints_the_declared_metrics(trace, section):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "audit-zoo",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}
    for line in (f"  {m['name']} " for m in BENCHMARK[section]):
        assert line in result.stdout
