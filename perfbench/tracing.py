"""Span tracing of nncost's public functions, installed from outside.

The benchmark wraps named module attributes of nncost for the traced run
only and restores them afterwards, so the program under test carries no
tracing code. Spans (name, start, end, parent) are kept in compact arrays
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from time import perf_counter

SCHEME_LABELS = {"Float": "float", "FixedUniform": "uniform", "PoT": "pot",
                 "APoT": "apot"}
LAYER_TYPES = ("dense", "conv1d", "rnn", "lstm", "gru", "esn")
SEARCH_LAYER_TYPES = ("dense", "lstm", "gru")
AUDIT_SCHEMES = ("float", "uniform", "pot", "apot")
QUANT_SCHEMES = ("uniform", "pot", "apot")
COUNTERS = ("mults", "shifts", "adds", "activations")
COMMANDS = ("estimate", "validate", "search", "sweep")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in ("search.feasible", "arch.parse_spec",
                 "costmodel.cost_report", "search.objective"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_share"] = "ratio"
    units["search.feasible.accept_ratio"] = "ratio"
    units["search.feasible.unique_ratio"] = "ratio"
    units["search.objective.duplicate_ratio"] = "ratio"
    units["bayesopt.gp_fit.busy_share"] = "ratio"
    units["bayesopt.propose_next.self_share"] = "ratio"
    units["bayesopt.expected_improvement.busy_share"] = "ratio"
    units["search.featurize.busy_share"] = "ratio"
    for layer in SEARCH_LAYER_TYPES:
        units[f"search.featurize.{layer}.busy_share"] = "ratio"
    units["search.kfold_score.self_share"] = "ratio"
    for layer in LAYER_TYPES:
        for scheme in AUDIT_SCHEMES:
            units[f"interp.audit.{layer}.{scheme}.busy_share"] = "ratio"
    units["quant.quantize.busy_share"] = "ratio"
    for scheme in QUANT_SCHEMES:
        units[f"quant.quantize.{scheme}.busy_share"] = "ratio"
    units["quant.quantize.calls"] = "count"
    units["quant.quantize.weights"] = "count"
    for scheme in AUDIT_SCHEMES:
        for counter in COUNTERS:
            units[f"interp.audit.{scheme}.{counter}"] = "count"
    for command in COMMANDS:
        units[f"cli.main.{command}.self_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        # Observations made at span boundaries; end_op reduces them.
        self._feasible_seen: list = []
        self._objective_seen: list = []
        self.screened = 0
        self.accepted = 0
        self.distinct = 0
        self.trials = 0
        self.duplicates = 0
        self.quantized_weights = 0
        self.audit_counts: dict = {}
        self.inconsistent_counts: list = []

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = perf_counter()
        self._stack.pop()

    def end_op(self):
        """Fold the op's feasibility and objective calls into the ratios.

        Distinct parameter sets and duplicate trials are counted within one
        op, the scope in which the program could reuse earlier work.
        """
        keys = set()
        for space, theta, ok in self._feasible_seen:
            self.screened += 1
            self.accepted += bool(ok)
            keys.add(_params_key(space, theta))
        self.distinct += len(keys)
        for space, thetas in self._objective_seen:
            scored = set()
            for theta in thetas:
                key = _params_key(space, theta)
                self.trials += 1
                self.duplicates += key in scored
                scored.add(key)
        self._feasible_seen.clear()
        self._objective_seen.clear()

    def record_audit(self, key, counts: dict):
        first = self.audit_counts.setdefault(key, counts)
        if first != counts:
            self.inconsistent_counts.append((key, first, counts))

    def dump(self, path):
        """Write the spans as an .npz of a name table and four columns."""
        import numpy as np
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32))


def _params_key(space, theta):
    return tuple(sorted(space.decode(theta).items()))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children count once. Spans must be listed in start order, which is the
    order ``Tracer.open`` appends them in.
    """
    n = len(start)
    covered = [0.0] * n
    cursor = list(start)  # end of the covered prefix of each span
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], cursor[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def span_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: number of calls, busy seconds and self seconds."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, name_id in enumerate(tracer.name_id):
        entry = totals[tracer.names[name_id]]
        entry["calls"] += 1
        entry["busy_s"] += tracer.end[i] - tracer.start[i]
        entry["self_s"] += own[i]
    return dict(totals)


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float,
                  overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of a traced pass of ``n_ops`` ops.

    Calls and quantized weights are means per op. A busy (self) share is
    the layer's busy (self) time divided by the traced ops' wall time
    ``traced_s``, so a layer an op never enters reads 0. Audit counters
    are summed over the distinct (spec, scheme) audits, each of which must
    have repeated exactly. ``overhead_s`` is the tracing overhead.
    """
    totals = span_totals(tracer)

    def total(stem: str, field: str) -> float:
        return sum(entry[field] for name, entry in totals.items()
                   if name == stem or name.startswith(stem + "."))

    values = {}
    for name in PER_LAYER_UNITS:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = total(stem, "calls") / n_ops
        elif field in ("busy_share", "self_share"):
            values[name] = _ratio(total(stem, field[:4] + "_s"), traced_s)
    values["search.feasible.accept_ratio"] = _ratio(tracer.accepted,
                                                    tracer.screened)
    values["search.feasible.unique_ratio"] = _ratio(tracer.distinct,
                                                    tracer.screened)
    values["search.objective.duplicate_ratio"] = _ratio(tracer.duplicates,
                                                        tracer.trials)
    values["quant.quantize.weights"] = tracer.quantized_weights / n_ops
    for scheme in AUDIT_SCHEMES:
        for counter in COUNTERS:
            values[f"interp.audit.{scheme}.{counter}"] = sum(
                counts[counter]
                for (_, label), counts in tracer.audit_counts.items()
                if label == scheme)
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name in PER_LAYER_UNITS}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _scheme_label(scheme) -> str:
    return SCHEME_LABELS.get(type(scheme).__name__, type(scheme).__name__)


def _audit_label(scheme, mode) -> str:
    return "float" if mode == "float" else _scheme_label(scheme)


def _net_label(nc, net) -> str:
    return "-".join(nc.arch.layer_type_name(layer) for layer in net.layers)


def _traced(tracer: Tracer, fn, name_of):
    def traced(*args, **kwargs):
        index = tracer.open(name_of(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, nc):
    """Wrap nncost's public functions with spans; restore them on exit.

    ``nc`` is the imported ``nncost`` package. Every attribute patched here
    is one that nncost's own code looks up at call time, so calls made
    inside the program are traced as well as the benchmark's own calls.
    """
    import numpy as np

    search, bayesopt, interp = nc.search, nc.bayesopt, nc.interp
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def fixed(name):
        return lambda *args, **kwargs: name

    def wrap(owner, attr, name_of):
        patch(owner, attr, _traced(tracer, getattr(owner, attr), name_of))

    feasible = search.SearchSpace.feasible

    def traced_feasible(space, theta, budget=None):
        index = tracer.open("search.feasible")
        try:
            ok = feasible(space, theta, budget)
        finally:
            tracer.close(index)
        tracer._feasible_seen.append((space, theta, ok))
        return ok

    make_objective = search.make_objective

    def traced_make_objective(space, task, *args, **kwargs):
        objective = make_objective(space, task, *args, **kwargs)
        thetas = []
        tracer._objective_seen.append((space, thetas))

        def traced_objective(theta):
            thetas.append(theta)
            index = tracer.open("search.objective")
            try:
                return objective(theta)
            finally:
                tracer.close(index)

        return traced_objective

    audit = _traced(
        tracer, interp.audit,
        lambda net, bits, scheme, seed, mode="float", **_:
            f"interp.audit.{_net_label(nc, net)}.{_audit_label(scheme, mode)}")

    def traced_audit(net, bits, scheme, seed, mode="float", **kwargs):
        record = audit(net, bits, scheme, seed, mode, **kwargs)
        tracer.record_audit((net.name, _audit_label(scheme, mode)),
                            {k: record.totals[k] for k in COUNTERS})
        return record

    quantize = _traced(
        tracer, nc.quant.quantize,
        lambda weights, scheme: f"quant.quantize.{_scheme_label(scheme)}")

    def traced_quantize(weights, scheme):
        tracer.quantized_weights += int(np.size(weights))
        return quantize(weights, scheme)

    parse_spec = _traced(tracer, nc.arch.parse_spec, fixed("arch.parse_spec"))

    patch(search.SearchSpace, "feasible", traced_feasible)
    patch(search, "make_objective", traced_make_objective)
    wrap(search, "featurize",
         lambda net, *a, **k: f"search.featurize.{_net_label(nc, net)}")
    wrap(search, "kfold_score", fixed("search.kfold_score"))
    for attr in ("gp_fit", "propose_next", "expected_improvement"):
        wrap(bayesopt, attr, fixed(f"bayesopt.{attr}"))
    patch(nc.arch, "parse_spec", parse_spec)
    patch(nc.cli, "parse_spec", parse_spec)
    wrap(nc.costmodel, "cost_report", fixed("costmodel.cost_report"))
    patch(nc.quant, "quantize", traced_quantize)
    patch(interp, "audit", traced_audit)
    wrap(nc.cli, "main", lambda argv: f"cli.main.{argv[0]}")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
