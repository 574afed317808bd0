#!/usr/bin/env python3
"""Benchmark of nncost, driven from outside through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded, closed-loop client in one process issues ops (one
``nncost`` command through ``nncost.cli.main``, or one ``interp.audit``
call) back to back, each when the previous one returns. The program under
test is imported from ``src/`` of the checkout the script sits in.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` measures an untraced pass, then repeats the same ops
with spans around nncost's public functions, and reports the per-layer
metrics and the tracing overhead. Every output is checked; the last line of
standard output is one JSON object with the result. A run record with the
environment, sample counts, failures and output digest goes to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import metrics
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
PROBE_REFERENCE_SAMPLES = 20
# Share of --seconds a traced run spends on its untraced pass; the traced
# pass then repeats the same ops and takes somewhat longer.
UNTRACED_SHARE = 0.4


def pin_threads():
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_nncost():
    """Import nncost from the checkout's ``src/``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import nncost
        import nncost.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nncost from {SRC}: {exc}")
    if Path(nncost.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: nncost imported from {nncost.__file__},"
                         f" not from {SRC}")
    return nncost


class Ledger:
    """Attempted and failed ops, and the digest of each op key's first
    output, which every later op with that key must match."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, str] = {}

    def record(self, op, text: str, reason: str | None):
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.first.setdefault(op.key, digest)
        if reason is None and digest != first:
            reason = "output differs from the first run of the same call"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def digest(self, count: int) -> str:
        """Digest of the first outputs of op keys 0 .. count-1."""
        joined = "".join(self.first[i] for i in range(count))
        return hashlib.sha256(joined.encode()).hexdigest()


def execute(nc, op) -> tuple[float, float, str, str | None]:
    """Run one op; returns its start, latency, output and failure reason."""
    start = perf_counter()
    try:
        code, text = op.call(nc)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return start, perf_counter() - start, "", f"raised {exc!r}"
    latency = perf_counter() - start
    if code != 0:
        return start, latency, text, f"exit code {code}"
    return start, latency, text, op.check(text)


def run_pass(nc, workload, ledger: Ledger, seconds: float | None = None,
             count: int | None = None, after_op=None,
             reference: metrics.Reference | None = None
             ) -> list[tuple[float, float]]:
    """Ops 0, 1, ... for ``count`` ops, or whole cycles for ``seconds``.

    Returns each op's (start, latency). ``after_op`` runs after each op,
    outside its latency, and may return a failure reason for it.
    ``reference`` is sampled between ops.
    """
    timings = []
    deadline = None if seconds is None else perf_counter() + seconds
    index = 0
    while count is None or index < count:
        if (deadline is not None and index and index % workload.cycle == 0
                and perf_counter() >= deadline):
            break
        op = workload.op(index)
        start, latency, text, reason = execute(nc, op)
        if after_op is not None:
            reason = after_op() or reason
        ledger.record(op, text, reason)
        timings.append((start, latency))
        index += 1
        if reference is not None:
            reference.tick()
    return timings


def measure_setup(args) -> list[tuple[float, float]]:
    """(set-up time, slowdown) of fresh processes that import nncost and
    prepare the inputs.

    Each probe reports when it was ready, on the system-wide monotonic
    clock ``perf_counter`` reads, and then the slowdown of the reference
    in its own process: a probe may run on the other core, whose speed the
    parent cannot see.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run(command, check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probes.append((probe["ready"] - start, probe["slowdown"]))
    return probes


def setup_probe(args, workdir, nc):
    workloads.prepare(args.workload, args.seed, workdir, nc)
    ready = perf_counter()
    reference = metrics.Reference()
    for _ in range(PROBE_REFERENCE_SAMPLES):
        reference.sample()
    print(json.dumps({"ready": ready, "slowdown": reference.slowdown()}))


def environment(nc) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "one closed-loop client, one process, single-threaded",
        "nncost": str(Path(nc.__file__).resolve().parent),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import nncost and prepare the inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nc = load_nncost()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args, workdir, nc)
            return 0
        setup = None if args.trace else measure_setup(args)
        reference = metrics.Reference()
        workload = workloads.prepare(args.workload, args.seed, workdir, nc)
        ledger = Ledger()
        # Warm-up: the first cycle, untimed. Its outputs are the reference
        # the measured repeats of the same ops must match byte for byte.
        run_pass(nc, workload, ledger, count=workload.cycle)
        record = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(nc),
                  "digest": {"ops": workload.cycle,
                             "sha256": ledger.digest(workload.cycle)}}
        if args.trace:
            values, units = measure_traced(nc, workload, ledger, args,
                                           reference, record)
        else:
            values, units = measure_untraced(nc, workload, ledger, args,
                                             setup, reference, record)
        report(workload, args, ledger, values, units, record)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_untraced(nc, workload, ledger, args, setup, reference, record):
    """End-to-end metrics of ops run for ``--seconds``, at nominal speed."""
    timings = run_pass(nc, workload, ledger, seconds=args.seconds,
                       reference=reference)
    rss = peak_rss_mb()
    counts = (ledger.attempted, len(ledger.failures))
    values = metrics.end_to_end(reference.at_nominal_speed(timings), *counts,
                                [took / slow for took, slow in setup], rss)
    _, percentile, n = metrics.tail([t for _, t in timings])
    slowdown = reference.slowdown()
    record.update(
        samples={"ops": n, "setup_probes": len(setup),
                 "reference": len(reference.took)},
        tail_percentile=percentile, slowdown=slowdown,
        raw_metrics=metrics.end_to_end([t for _, t in timings], *counts,
                                       [took for took, _ in setup], rss),
        timings={"ops": timings, "setup": setup,
                 "reference": list(zip(reference.at, reference.took))})
    print(f"op_tail_ms is p{percentile:.2f} of {n} ops; setup_s is the "
          f"median of {len(setup)} fresh processes; times are at nominal "
          f"speed, the machine ran {slowdown:.3f}x slower")
    return values, metrics.END_TO_END_UNITS


def measure_traced(nc, workload, ledger, args, reference, record):
    """Per-layer metrics: an untraced pass, then the same ops traced.

    The tracing overhead compares the two passes at nominal speed.
    """
    untraced = run_pass(nc, workload, ledger,
                        seconds=args.seconds * UNTRACED_SHARE,
                        reference=reference)
    tracer = tracing.Tracer()

    def after_op():
        tracer.end_op()
        if tracer.inconsistent_counts:
            key, first, now = tracer.inconsistent_counts.pop()
            return f"audit counts of {key} changed: {first} -> {now}"
        return None

    with tracing.installed(tracer, nc):
        traced = run_pass(nc, workload, ledger, count=len(untraced),
                          after_op=after_op, reference=reference)
    values = tracing.layer_metrics(
        tracer, len(traced), sum(t for _, t in traced),
        sum(reference.at_nominal_speed(traced))
        - sum(reference.at_nominal_speed(untraced)))
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
    tracer.dump(spans_path)
    record.update(
        samples={"traced_ops": len(traced), "spans": len(tracer.start)},
        spans=spans_path.name,
        layers_per_op={name: {field: value / len(traced)
                              for field, value in entry.items()}
                       for name, entry in
                       sorted(tracing.span_totals(tracer).items())})
    return values, tracing.PER_LAYER_UNITS


def report(workload, args, ledger, values, units, record):
    """Write the run record; print the metrics, then the result line."""
    failed = len(ledger.failures)
    result = {"correct": failed == 0, "attempted": ledger.attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record.update(attempted=ledger.attempted, failed=failed,
                  error_rate=failed / ledger.attempted,
                  failures=ledger.failures[:20], metrics=result["metrics"])
    record_path = OUT / (f"record-{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")
    for failure in ledger.failures[:5]:
        print(f"FAILED {failure}")
    print(f"{workload.name}: {ledger.attempted} ops attempted, {failed} "
          f"failed, error_rate {failed / ledger.attempted:g}")
    for name in units:
        print(f"  {name:<48} {values[name]:>14.6g} {units[name]}")
    print(json.dumps(result))


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
