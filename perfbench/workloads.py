"""The benchmark's workloads: inputs from the seed, ops, and output checks.

A workload turns the committed documents under ``inputs/`` and the
workload seed into the files nncost reads, and into an endless, seeded
sequence of ops. Ops with the same ``key`` are the same call, so their
outputs must agree byte for byte. Runs measure whole cycles of ``cycle``
ops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUTS = Path(__file__).resolve().parent / "inputs"

SWEEP_BUDGETS = (100, 500, 2000, 10000)
SWEEP_ARGS = ("--init", "3", "--iters", "3")
SEARCH_BUDGET_NABS = 1_000_000
SEARCH_INIT, SEARCH_ITERS = 4, 8
ZOO = ("dense", "conv1d", "rnn", "lstm", "gru", "esn")
ESTIMATE_SCHEMES = ("uniform", "pot", "apot:2")
VALIDATE_MODES = ("float", "fixed")
AUDIT_SCHEMES = ("pot", "apot:2")

SWEEP_HEADER = "budget,metric,best_score,best_theta_json,rm,bop,nabs"
ESTIMATE_HEADER = "layer_index,layer_type,rm,bop,nabs"

NAMES = ("sweep-discrete", "search-recurrent", "audit-zoo")


def derive_seed(seed: int, *path) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    text = "/".join(str(part) for part in (seed,) + path)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


@dataclass(frozen=True)
class Op:
    """One call into nncost and what its output must satisfy."""

    key: int
    label: str
    call: Callable[[object], tuple[int, str]]  # nncost -> (exit code, output)
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int
    op: Callable[[int], Op]


def run_cli(nc, argv: list[str]) -> tuple[int, str]:
    """``nncost <argv>`` in process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nc.cli.main(argv)
    return code, out.getvalue()


def _load(name: str) -> dict:
    with open(INPUTS / name, encoding="utf-8") as handle:
        return json.load(handle)


def _write_task(workdir: Path, doc_name: str, seed: int) -> str:
    doc = _load(doc_name)
    doc["seed"] = derive_seed(seed, "task")
    path = workdir / doc_name
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def prepare(name: str, seed: int, workdir: Path, nc) -> Workload:
    """Load and generate the inputs of workload ``name`` under ``workdir``."""
    if name == "sweep-discrete":
        return _sweep(seed, workdir)
    if name == "search-recurrent":
        return _search(seed, workdir)
    if name == "audit-zoo":
        return _audit_zoo(seed, nc)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason.


def _csv_rows(text: str, header: str) -> list[dict]:
    first = text.split("\n", 1)[0]
    if first != header:
        raise ValueError(f"header {first!r}, expected {header!r}")
    return list(csv.DictReader(io.StringIO(text)))


def _checked(check):
    """Turn a check that raises on bad output into one returning a reason."""
    def guarded(text: str) -> str | None:
        try:
            return check(text)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return guarded


def check_sweep(text: str, budgets=SWEEP_BUDGETS,
                metric: str = "nabs") -> str | None:
    rows = _csv_rows(text, SWEEP_HEADER)
    if [int(row["budget"]) for row in rows] != list(budgets):
        return f"budgets {[row['budget'] for row in rows]}"
    for row in rows:
        if row["metric"] != metric:
            return f"metric column {row['metric']!r}"
        if int(row[metric]) > int(row["budget"]):
            return f"{metric} {row[metric]} over budget {row['budget']}"
    return None


def check_search(text: str, budget: int = SEARCH_BUDGET_NABS,
                 trials: int = SEARCH_INIT + SEARCH_ITERS) -> str | None:
    rows = _csv_rows(text, "iteration,theta_cell,theta_h,theta_win,score,"
                           "nabs,feasible")
    if len(rows) != trials:
        return f"{len(rows)} history rows, expected {trials}"
    for row in rows:
        if row["feasible"] != "1":
            return f"iteration {row['iteration']} infeasible"
        if int(row["nabs"]) > budget:
            return f"iteration {row['iteration']} nabs {row['nabs']} over " \
                   f"budget {budget}"
    return None


def check_estimate(text: str, expected: tuple[int, int, int]) -> str | None:
    rows = _csv_rows(text, ESTIMATE_HEADER)
    total = rows[-1]
    if total["layer_index"] != "TOTAL":
        return "no TOTAL row"
    got = (int(total["rm"]), int(total["bop"]), int(total["nabs"]))
    if got != tuple(expected):
        return f"TOTAL {got} != cost_report {tuple(expected)}"
    return None


def check_audit(text: str, mode: str, exact: bool) -> str | None:
    """Audit JSON: delta 0 everywhere when exact, else delta >= 0."""
    doc = json.loads(text)
    if doc["mode"] != mode:
        return f"mode {doc['mode']!r}, expected {mode!r}"
    for layer in doc["per_layer"]:
        delta = layer["delta"]
        if delta < 0 or (exact and delta != 0):
            return f"layer {layer['layer_index']} delta {delta}"
    return None


# ---------------------------------------------------------------------------
# Workloads


def _sweep(seed: int, workdir: Path) -> Workload:
    space = str(INPUTS / "sweep_space.json")
    task = _write_task(workdir, "sweep_task.json", seed)
    budgets = ",".join(str(b) for b in SWEEP_BUDGETS)
    check = _checked(check_sweep)

    def make_op(index: int) -> Op:
        argv = ["sweep", space, task, "--budgets", budgets, *SWEEP_ARGS,
                "--seed", str(derive_seed(seed, "op", index))]
        return Op(index, f"sweep#{index}", lambda nc: run_cli(nc, argv), check)

    return Workload("sweep-discrete", 1, make_op)


def _search(seed: int, workdir: Path) -> Workload:
    space = str(INPUTS / "recurrent_space.json")
    task = _write_task(workdir, "recurrent_task.json", seed)
    check = _checked(check_search)

    def make_op(index: int) -> Op:
        argv = ["search", space, task,
                "--budget-nabs", str(SEARCH_BUDGET_NABS),
                "--init", str(SEARCH_INIT), "--iters", str(SEARCH_ITERS),
                "--seed", str(derive_seed(seed, "op", index))]
        return Op(index, f"search#{index}", lambda nc: run_cli(nc, argv), check)

    return Workload("search-recurrent", 1, make_op)


def _audit_zoo(seed: int, nc) -> Workload:
    bits = nc.arch.BitwidthConfig()
    plans = []
    for spec_name in ZOO:
        path = str(INPUTS / "zoo" / f"{spec_name}.json")
        with open(path, encoding="utf-8") as handle:
            net = nc.arch.parse_spec(handle.read())
        for scheme in ESTIMATE_SCHEMES:
            report = nc.costmodel.cost_report(
                net, bits, nc.search.parse_scheme(scheme, bits.b_w))
            expected = (report.rm, report.bop, report.nabs)
            plans.append((f"estimate:{spec_name}:{scheme}",
                          _estimate_call(path, scheme),
                          _checked(lambda t, e=expected: check_estimate(t, e))))
        for mode in VALIDATE_MODES:
            plans.append((f"validate:{spec_name}:{mode}",
                          _validate_call(path, mode),
                          _checked(lambda t, m=mode: check_audit(t, m, True))))
        for scheme in AUDIT_SCHEMES:
            plans.append((f"audit:{spec_name}:{scheme}",
                          _audit_call(net, bits, scheme),
                          _checked(lambda t, s=scheme:
                                   check_audit(t, "fixed", s == "pot"))))

    # The zoo repeats one fixed cycle of calls, so every cycle must give
    # the same outputs and the same measured counts as the first.
    def make_op(index: int) -> Op:
        key = index % len(plans)
        label, call, check = plans[key]
        return Op(key, f"{label}#{index}",
                  lambda nc: call(nc, derive_seed(seed, "op", key)), check)

    return Workload("audit-zoo", len(plans), make_op)


def _estimate_call(path: str, scheme: str):
    return lambda nc, _seed: run_cli(nc, ["estimate", path,
                                          "--scheme", scheme])


def _validate_call(path: str, mode: str):
    return lambda nc, op_seed: run_cli(
        nc, ["validate", path, "--mode", mode, "--seed", str(op_seed)])


def _audit_call(net, bits, scheme_text: str):
    def call(nc, op_seed):
        scheme = nc.search.parse_scheme(scheme_text, bits.b_w)
        record = nc.interp.audit(net, bits, scheme, seed=op_seed,
                                 mode=nc.interp.FixedPoint(bits, scheme))
        return 0, record.to_json_text() + "\n"
    return call
