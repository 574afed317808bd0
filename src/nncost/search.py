"""Hyperparameter search spaces, k-fold scoring and budgeted sweeps.

Search spaces pair named dimensions (integer ranges, categorical sets,
continuous intervals) with a JSON layer template whose ``"$name"`` strings
are replaced by decoded dimension values, yielding a NetworkSpec per point.
A complexity constraint (RM, BOP or NABS under a budget) filters candidates
before the optimizer ever scores them, so accepted trials always fit the
budget.

Scoring keeps training out of the toolkit: layer weights are fixed and
seeded, the interpreter produces the hidden representation of the input
stream, and only a linear readout is fitted per fold by ridge-regularized
least squares. This is the reservoir-computing recipe (only the readout is
trainable) applied uniformly to every layer type. The score is the negative
held-out mean squared error, averaged over folds.

The bundled synthetic task is symbol recovery through a known FIR channel:
seeded +/-1 symbols are filtered, Gaussian noise is added, and architectures
are scored on recovering the clean symbols from the received stream.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import arch, bayesopt, costmodel, interp, quant
from .arch import BitwidthConfig, NetworkSpec
from .errors import DomainError, NNCostError, SchemaError
from .interp import fir_filter

_METRICS = ("rm", "bop", "nabs")
RIDGE = 1e-6  # added to the diagonal of the readout's Gram matrix

# Distinct architectures whose cost totals one SearchSpace remembers. A
# float dimension makes every candidate distinct; past this many entries
# new architectures are costed without being stored.
_COST_MEMO_LIMIT = 1 << 14


def _number(value) -> bool:
    """A finite real number (NaN and +/-inf are not); bools are not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def _float_range(low, high, log: bool) -> bool:
    """Whether the interval decoder's low, high and high - low (high / low
    on a log scale, low > 0) are finite floats. An integer bound may lie
    beyond the float range, and a float ratio may overflow."""
    try:
        return all(math.isfinite(float(x)) for x in (
            low, high, high / low if log else high - low))
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# Search space


@dataclass(frozen=True)
class Dimension:
    """One named search dimension: integer range, interval or category set."""

    name: str
    kind: str  # "int" | "float" | "cat"
    low: float | None = None
    high: float | None = None
    values: tuple | None = None
    log: bool = False  # float only: decode the interval on a log scale

    def __post_init__(self):
        if self.kind not in ("int", "float", "cat"):
            raise ValueError(f"unknown dimension kind {self.kind!r}")
        if not isinstance(self.log, bool):
            raise ValueError(f"log must be true or false, got {self.log!r}")
        if self.log and self.kind != "float":
            raise ValueError("log scaling needs a float dimension")
        if self.kind == "cat":
            if not self.values:
                raise ValueError("categorical dimension needs values")
        else:
            if not (_number(self.low) and _number(self.high)):
                raise ValueError("range dimension needs finite numeric low "
                                 "and high")
            if self.low > self.high:
                raise ValueError("range dimension needs low <= high")
            if self.kind == "int" and max(-self.low, self.high) >= 2 ** 53:
                # the decoder works in int64 on float products
                raise ValueError("int dimension needs |low|, |high| < 2**53")
            if self.kind == "int" and not (float(self.low).is_integer()
                                           and float(self.high).is_integer()):
                raise ValueError("int dimension needs integer low and high")
            if self.log and self.low <= 0:
                raise ValueError("log scaling needs positive low")
            if self.kind == "float" and not _float_range(self.low, self.high,
                                                         self.log):
                raise ValueError("float dimension needs low, high and "
                                 "high - low (high / low with log) within "
                                 "the float range")

    def _coordinates(self, u: np.ndarray) -> np.ndarray:
        """Decoded coordinates of a column of unit-interval values: the
        integers, the float values, or indices into ``values`` (category
        values may be unhashable). Values outside [0, 1] are clipped."""
        if np.isnan(u).any():
            raise DomainError(f"dimension {self.name!r}: NaN coordinate")
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        if self.kind == "cat":
            n = len(self.values)
            return np.minimum((u * n).astype(np.int64), n - 1)
        if self.kind == "int":
            lo, hi = int(self.low), int(self.high)
            return np.minimum(lo + (u * (hi - lo + 1)).astype(np.int64), hi)
        if self.log:
            # Python's ** (libm pow) per element: np.power may round the
            # last bit differently, which would move decoded values.
            ratio = self.high / self.low
            return np.array([self.low * ratio ** x for x in u.tolist()],
                            dtype=float)
        return self.low + u * (self.high - self.low)

    def _value(self, coordinate):
        return self.values[coordinate] if self.kind == "cat" else coordinate

    def decode(self, u: float):
        """Map a unit-interval coordinate to a concrete value."""
        return self._value(self._coordinates(np.array([float(u)])).item())


@dataclass
class _CostTable:
    """Validity and constrained-metric total of every architecture of a
    small all-``int``/``cat`` space, by mixed-radix index, filled the first
    time a screened pool holds an index.

    The index of decoded coordinates ``c`` is ``sum_j (c_j - offsets[j]) *
    prod(radices[j+1:])``: the first dimension is most significant.
    """

    offsets: tuple  # each dimension's lowest coordinate
    radices: tuple
    metric: int  # position of the constrained metric in a totals tuple
    known: np.ndarray
    valid: np.ndarray  # built and costed
    # int64, or Python ints (object) once a total does not fit int64, so
    # every comparison stays exact.
    cost: np.ndarray

    def screen(self, columns, totals, limit) -> np.ndarray:
        """Verdict per row of decoded ``columns`` under ``limit`` (None for
        no budget). ``totals(key)`` looks up each index not yet known."""
        index = np.zeros(columns[0].shape, dtype=np.int64)
        for column, offset, radix in zip(columns, self.offsets, self.radices):
            index *= radix
            index += column - offset
        unseen = np.zeros(self.known.size, dtype=bool)
        unseen[index] = True
        unseen[self.known] = False
        fresh = np.flatnonzero(unseen)
        coordinates = np.unravel_index(fresh, self.radices)
        keys = zip(*((c + offset).tolist()
                     for c, offset in zip(coordinates, self.offsets)))
        for i, found in zip(fresh.tolist(), map(totals, keys)):
            self.known[i] = True
            if found is None:
                continue
            self.valid[i] = True
            try:
                self.cost[i] = found[self.metric]
            except OverflowError:
                self.cost = self.cost.astype(object)
                self.cost[i] = found[self.metric]
        verdict = self.valid[index]
        if limit is not None:
            if not isinstance(limit, numbers.Integral) and \
                    math.isfinite(limit):
                # an integer total t <= limit exactly when t <= floor(limit)
                limit = math.floor(limit)
            verdict &= self.cost[index] <= limit
        return verdict


def _references(node, path: str):
    """(path, name) of every ``"$name"`` string in a template node."""
    if isinstance(node, str) and node.startswith("$"):
        yield path, node[1:]
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _references(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _references(value, f"{path}[{i}]")


@dataclass(frozen=True)
class SearchSpace:
    """Dimensions plus a network template and an optional complexity budget.

    ``screen`` decides a whole candidate pool in one pass: it decodes every
    column at once and gives each row the verdict that costing its decoded
    architecture (the tuple of integer values, float values and category
    indices) afresh would give. In a space of only ``int`` and ``cat``
    dimensions with at most ``_COST_MEMO_LIMIT`` architectures, each row
    maps to its mixed-radix index (first dimension most significant,
    ``value - low`` for an int dimension) into per-space arrays of validity
    and constrained-metric totals, filled the first time a pool holds an
    index; in other spaces each row's totals are looked up through the
    cost memo. ``screen`` is the constraint the optimizer calls: an
    (m, n_dims) pool in, m booleans out. ``feasible`` is a one-row
    ``screen``. Dimension names must be distinct, and every ``"$name"`` in
    the template must name a dimension; SchemaError names the path.

    The template is compiled once, when the space is made
    (``arch.compile_template``), and every architecture is built from it:
    the same spec, or the same SchemaError, as ``parse_document`` of the
    template with each ``"$name"`` replaced by its decoded value. A
    ``float`` dimension fed straight into a place that takes only an
    integer (a count field) or only a string (``name``, ``type``,
    ``activation``) is a SchemaError at its template path, checked after
    the names; other faults of the template make candidates infeasible.

    Cost totals are computed once per distinct decoded architecture and
    kept for the life of the space. Budgets apply when the totals are
    looked up, so every BO round, every budget of a sweep and every seed
    that reuses the space shares them; results are the same as costing
    each candidate afresh. At most ``_COST_MEMO_LIMIT`` architectures are
    kept.
    """

    dimensions: tuple
    template: dict
    metric: str = "nabs"
    budget: int | None = None
    bits: BitwidthConfig = field(default_factory=BitwidthConfig)
    scheme: quant.QuantScheme = field(default_factory=quant.FixedUniform)
    # Decoded coordinates -> (rm, bop, nabs), or None for an architecture
    # that failed to build or cost.
    _costs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _template: arch.Template = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise ValueError("search space needs at least one dimension")
        if not isinstance(self.metric, str) or \
                self.metric.lower() not in _METRICS:
            raise ValueError("metric must be one of rm, bop, nabs")
        object.__setattr__(self, "metric", self.metric.lower())
        names = [dim.name for dim in self.dimensions]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SchemaError(f"dimensions[{i}].name",
                                  f"duplicate dimension name {name!r}")
        for path, name in _references(self.template, "template"):
            if name not in names:
                raise SchemaError(path, f"unknown dimension {name!r}")
        template = arch.compile_template(self.template, names)
        kinds = {dim.name: dim.kind for dim in self.dimensions}
        for path, name, what in template.typed:
            if kinds[name] == "float":
                raise SchemaError(f"template{path}",
                                  f"float dimension {name!r} feeds a place "
                                  f"that takes {what}")
        object.__setattr__(self, "_template", template)

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    @functools.cached_property
    def _table(self) -> _CostTable | None:
        """The index table ``screen`` fills, for a space of only int and
        cat dimensions with at most ``_COST_MEMO_LIMIT`` architectures;
        None for any other space."""
        if any(dim.kind == "float" for dim in self.dimensions):
            return None
        offsets = tuple(0 if dim.kind == "cat" else int(dim.low)
                        for dim in self.dimensions)
        radices = tuple(len(dim.values) if dim.kind == "cat"
                        else int(dim.high) - low + 1
                        for dim, low in zip(self.dimensions, offsets))
        size = math.prod(radices)
        if size > _COST_MEMO_LIMIT:
            return None
        return _CostTable(offsets, radices, _METRICS.index(self.metric),
                          np.zeros(size, dtype=bool),
                          np.zeros(size, dtype=bool),
                          np.zeros(size, dtype=np.int64))

    def _columns(self, pool: np.ndarray) -> list:
        """Decoded coordinates of an (m, n_dims) pool, one array per
        dimension."""
        return [dim._coordinates(pool[:, j])
                for j, dim in enumerate(self.dimensions)]

    def _key(self, theta) -> tuple:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_dims:
            raise DomainError(
                f"theta has {theta.size} components, space has {self.n_dims}")
        return tuple(column.item() for column in self._columns(theta[None]))

    def _params(self, key: tuple) -> dict:
        return {dim.name: dim._value(c) for dim, c in zip(self.dimensions, key)}

    def _network(self, key: tuple) -> NetworkSpec:
        return self._template.build(tuple(map(Dimension._value,
                                              self.dimensions, key)))

    def _totals(self, key: tuple) -> tuple | None:
        """(rm, bop, nabs) of the architecture at ``key``; None if invalid."""
        if key in self._costs:
            return self._costs[key]
        try:
            report = costmodel.cost_report(self._network(key), self.bits,
                                           self.scheme)
            totals = (report.rm, report.bop, report.nabs)
        except NNCostError:
            totals = None
        if len(self._costs) < _COST_MEMO_LIMIT:
            self._costs[key] = totals
        return totals

    def decode(self, theta) -> dict:
        return self._params(self._key(theta))

    def build_network(self, theta) -> NetworkSpec:
        return self._network(self._key(theta))

    def feasible(self, theta, budget: int | None = None) -> bool:
        """``screen`` of one point; a point of the wrong size or holding NaN
        is infeasible."""
        try:
            return bool(self.screen(np.reshape(theta, (1, -1)), budget)[0])
        except DomainError:
            return False

    def screen(self, pool, budget: int | None = None) -> np.ndarray:
        """Per row of an (m, n_dims) pool, whether it decodes to a valid
        network within the budget (``self.budget`` when None), as m booleans.

        Each architecture is costed at most once per space while the cost
        memo has room. A pool of the wrong shape, or one holding NaN,
        raises DomainError.
        """
        pool = np.asarray(pool, dtype=float)
        if pool.ndim != 2 or pool.shape[1] != self.n_dims:
            raise DomainError(f"pool has shape {pool.shape}, expected "
                              f"(m, {self.n_dims})")
        columns = self._columns(pool)
        limit = self.budget if budget is None else budget
        if self._table is not None:
            return self._table.screen(columns, self._totals, limit)
        index = _METRICS.index(self.metric)
        keys = zip(*(column.tolist() for column in columns))
        return np.array([t is not None and (limit is None or t[index] <= limit)
                         for t in map(self._totals, keys)], dtype=bool)

    @staticmethod
    def from_json(doc: dict) -> "SearchSpace":
        """Space from its JSON document; SchemaError names the bad field."""
        if not isinstance(doc, dict):
            raise SchemaError("$", "space must be an object")
        for name in ("dimensions", "template"):
            if name not in doc:
                raise SchemaError(name, "missing field")
        if not isinstance(doc["template"], dict):
            raise SchemaError("template", "must be an object")
        entries = doc["dimensions"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("dimensions", "must be a nonempty array")
        dims = []
        for i, entry in enumerate(entries):
            path = f"dimensions[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(path, "dimension must be an object")
            for name in ("name", "kind"):
                if name not in entry:
                    raise SchemaError(f"{path}.{name}", "missing field")
            if not isinstance(entry["name"], str):
                raise SchemaError(f"{path}.name", "must be a string")
            values = entry.get("values")
            if values is not None and not isinstance(values, list):
                raise SchemaError(f"{path}.values", "must be an array")
            try:
                dims.append(Dimension(
                    name=entry["name"],
                    kind=entry["kind"],
                    low=entry.get("low"),
                    high=entry.get("high"),
                    values=tuple(values) if values is not None else None,
                    log=entry.get("log", False),
                ))
            except ValueError as exc:
                raise SchemaError(path, str(exc)) from exc
        constraint = doc.get("constraint", {})
        if not isinstance(constraint, dict):
            raise SchemaError("constraint", "must be an object")
        metric = constraint.get("metric", "nabs")
        if not isinstance(metric, str) or metric.lower() not in _METRICS:
            raise SchemaError("constraint.metric",
                              f"must be one of rm, bop, nabs, got {metric!r}")
        budget = constraint.get("budget")
        if budget is not None and not _number(budget):
            raise SchemaError("constraint.budget", "must be a finite number")
        bits_doc = doc.get("bits", {})
        if not isinstance(bits_doc, dict):
            raise SchemaError("bits", "must be an object")
        for name, value in bits_doc.items():
            try:
                BitwidthConfig(**{name: value})
            except TypeError:
                raise SchemaError(f"bits.{name}", "unknown field") from None
            except ValueError as exc:
                raise SchemaError(f"bits.{name}", str(exc)) from exc
        bits = BitwidthConfig(**bits_doc)
        scheme = doc.get("scheme", "uniform")
        if not isinstance(scheme, str):
            raise SchemaError("scheme", "must be a string")
        try:
            scheme = parse_scheme(scheme, bits.b_w)
        except (ValueError, NNCostError) as exc:
            raise SchemaError("scheme", str(exc)) from exc
        return SearchSpace(
            dimensions=tuple(dims),
            template=doc["template"],
            metric=metric,
            budget=budget,
            bits=bits,
            scheme=scheme,
        )


def parse_scheme(text: str, b_w: int) -> quant.QuantScheme:
    """Scheme from its CLI spelling, any case: float | uniform | pot | apot
    | apot:K (apot is apot:2). ValueError for any other text."""
    name, colon, k = text.lower().partition(":")
    simple = {"float": quant.Float, "uniform": quant.FixedUniform,
              "pot": quant.PoT}
    if name in simple and not colon:
        return simple[name](b_w)
    if name == "apot" and (not colon or k.isascii() and k.isdigit()):
        return quant.APoT(b_w, int(k) if colon else 2)
    raise ValueError(f"unknown scheme {text!r}; expected float, uniform, pot, "
                     f"apot or apot:K")


# ---------------------------------------------------------------------------
# Tasks and cross-validation


@dataclass(frozen=True)
class Task:
    """Input stream plus the targets a readout is fitted to."""

    inputs: np.ndarray
    targets: np.ndarray


def synth_task_fir(taps, noise_std: float, n_samples: int, seed: int) -> Task:
    """Symbol recovery through a FIR channel with additive Gaussian noise."""
    if noise_std < 0:
        raise DomainError("noise_std must be >= 0")
    taps = list(map(float, taps))
    if not taps:
        raise DomainError("taps must be nonempty")
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, 2, size=n_samples) * 2.0 - 1.0
    received = fir_filter(taps, symbols)
    if noise_std > 0:
        received = received + noise_std * rng.standard_normal(n_samples)
    return Task(inputs=received, targets=symbols)


MAX_SAMPLES = 2 ** 20  # a task's stream length: bounds what scoring allocates


def task_from_json(doc: dict) -> Task:
    """Task from its JSON document; SchemaError names the bad field."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "task must be an object")
    for name in ("taps", "noise_std", "n_samples", "seed"):
        if name not in doc:
            raise SchemaError(name, "missing field")
    taps, noise_std = doc["taps"], doc["noise_std"]
    if not isinstance(taps, list) or not taps or not all(map(_number, taps)):
        raise SchemaError("taps", "must be a nonempty array of finite numbers")
    if not _number(noise_std) or not noise_std >= 0:
        raise SchemaError("noise_std", "must be a finite number >= 0")
    n_samples, seed = doc["n_samples"], doc["seed"]  # type(): bool excluded
    if type(n_samples) is not int or not 1 <= n_samples <= MAX_SAMPLES:
        raise SchemaError("n_samples", f"must be an integer from 1 to "
                                       f"2**20 = {MAX_SAMPLES}")
    if type(seed) is not int or seed < 0:
        raise SchemaError("seed", "must be an integer >= 0")
    return synth_task_fir(taps, noise_std, n_samples, seed)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every sample index to exactly one of k folds."""

    k: int
    assignment: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def kfold_split(n: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle then contiguous partition into folds of near-equal size."""
    if k < 2 or k > n:
        raise DomainError("fold count must satisfy 2 <= k <= n")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    base, rem = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < rem else 0)
        assignment[perm[start:start + size]] = fold
        start += size
    return FoldPlan(k=k, assignment=assignment)


def _input_windows(stream: np.ndarray, width: int) -> np.ndarray:
    """Causal windows: row t holds the last ``width`` samples ending at t."""
    n = stream.size
    out = np.zeros((n, width))
    for j in range(width):
        out[j:, j] = stream[:n - j] if j else stream
    return out


def featurize(net: NetworkSpec, stream, seed: int) -> np.ndarray:
    """Hidden representation of the stream under seeded fixed weights.

    Each layer transforms the per-step feature vectors of its predecessor
    (``interp.run_stream``): recurrent layers run statefully over the whole
    stream from zero state, feedforward layers per step. The final features
    come from the last layer: its per-step output, or the reservoir state
    when the last layer is an echo state network (the readout of a
    reservoir is fitted, not random).
    """
    stream = np.asarray(stream, dtype=float)
    features = _input_windows(stream, net.layers[0].n_i)
    for index, layer in enumerate(net.layers):
        weights = interp.random_weights(
            layer, np.random.default_rng([seed, index]))
        outputs, states = interp.run_stream(layer, weights, features)
        features = states if index == len(net.layers) - 1 else outputs
    return features


@functools.lru_cache(maxsize=1, typed=True)
def _fold_pairs(n: int, k: int, seed: int) -> tuple:
    """Read-only (train, test) index arrays of each fold of
    ``kfold_split(n, k, seed)``. A search or sweep scores every candidate
    on one plan, so only the last plan asked for is kept."""
    plan = kfold_split(n, k, seed)
    pairs = tuple((plan.train_indices(fold), plan.test_indices(fold))
                  for fold in range(k))
    for pair in pairs:
        for indices in pair:
            indices.flags.writeable = False
    return pairs


def _ridge_fit(Fb: np.ndarray, y: np.ndarray,
               penalty: np.ndarray) -> np.ndarray:
    """Readout weights for the design matrix ``Fb`` (features plus a final
    column of ones) under the ridge term ``penalty`` (ridge times I)."""
    gram = Fb.T @ Fb + penalty
    return np.linalg.solve(gram, Fb.T @ y)


def _mean(values) -> float:
    """``np.mean`` of a 1-D float sequence, computed as it computes it (one
    pairwise ``np.add.reduce``, divided by the count) without its
    per-call dispatch."""
    values = np.asarray(values, dtype=float)
    return float(np.add.reduce(values) / values.size)


def kfold_score(task: Task, net: NetworkSpec, k: int = 5,
                seed: int = 0) -> float:
    """Mean held-out score (negative MSE) over a seeded k-fold plan.

    Features are computed once on the full stream (they depend only on the
    inputs), and so is the design matrix (features plus a bias column). The
    readout is refitted per fold on that matrix's training rows, and every
    sample is tested exactly once. The fold plan of the last (n, k, seed)
    is kept, since every candidate of a search is scored on the same one.
    """
    features = featurize(net, task.inputs, seed)
    design = np.concatenate((features, np.ones((features.shape[0], 1))),
                            axis=1)
    penalty = RIDGE * np.eye(design.shape[1])
    mses = []
    for train, test in _fold_pairs(task.targets.size, k, seed):
        beta = _ridge_fit(design[train], task.targets[train], penalty)
        pred = design[test] @ beta
        mses.append(_mean((pred - task.targets[test]) ** 2))
    return -_mean(mses)


def evaluate_arch(task: Task, net: NetworkSpec, k: int = 5, seed: int = 0,
                  bits: BitwidthConfig | None = None,
                  scheme: quant.QuantScheme | None = None) -> bayesopt.Trial:
    """Score an architecture and bundle it with its cost totals."""
    bits = bits or BitwidthConfig()
    scheme = scheme or quant.FixedUniform(bits.b_w)
    score = kfold_score(task, net, k=k, seed=seed)
    report = costmodel.cost_report(net, bits, scheme)
    return bayesopt.Trial(theta=np.zeros(0), score=score,
                          cost={"rm": report.rm, "bop": report.bop,
                                "nabs": report.nabs})


# ---------------------------------------------------------------------------
# Constrained search and sweeps


def make_objective(space: SearchSpace, task: Task, k: int = 3,
                   eval_seed: int = 0):
    """Objective closure mapping a cube point to (score, cost totals).

    The score depends only on the decoded architecture (given the task,
    ``k`` and ``eval_seed``), so the closure scores each one once and
    returns the same score when a later point decodes to it again.
    """
    scores: dict = {}

    def objective(theta):
        key = space._key(theta)
        totals = space._totals(key)
        if key not in scores:
            net = space._network(key)
            if totals is None:  # raise the cost model's own error
                costmodel.cost_report(net, space.bits, space.scheme)
            scores[key] = kfold_score(task, net, k=k, seed=eval_seed)
        return scores[key], dict(zip(_METRICS, totals))

    return objective


def format_score(score: float) -> str:
    """A score as CSVs and best-score lines print it: 6 significant digits,
    which keep the last-bit rounding of BLAS kernels and numpy SIMD levels
    out of the text. The search itself keeps full precision."""
    return format(score, ".6g")


def search_history_csv(space: SearchSpace, history) -> str:
    """History rows: iteration, decoded theta, score, cost, feasible flag.

    The cost column is the space's constraint metric (``rm``, ``bop`` or
    ``nabs``), named after it in the header.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [dim.name for dim in space.dimensions]
    writer.writerow(["iteration"] + [f"theta_{n}" for n in names]
                    + ["score", space.metric, "feasible"])
    for i, trial in enumerate(history):
        params = space.decode(trial.theta)
        cost = trial.cost.get(space.metric) if trial.cost else ""
        feasible = (space.budget is None or trial.cost is None
                    or trial.cost[space.metric] <= space.budget)
        writer.writerow([i] + [params[n] for n in names]
                        + [format_score(trial.score), cost, int(feasible)])
    return buf.getvalue()


@dataclass(frozen=True)
class SweepPoint:
    budget: int
    metric: str
    best_score: float
    best_params: dict
    rm: int
    bop: int
    nabs: int


@dataclass(frozen=True)
class SweepResult:
    """Best point per budget; ``histories`` holds each budget's full trials."""

    points: tuple
    histories: tuple = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["budget", "metric", "best_score", "best_theta_json",
                         "rm", "bop", "nabs"])
        for p in self.points:
            writer.writerow([p.budget, p.metric, format_score(p.best_score),
                             json.dumps(p.best_params, sort_keys=True),
                             p.rm, p.bop, p.nabs])
        return buf.getvalue()


def complexity_sweep(space: SearchSpace, task: Task, budgets, iters: int,
                     seed: int, n_init: int = 5, k: int = 3) -> SweepResult:
    """One constrained optimization per budget, cheapest budget first.

    Budget point i derives its seed as seed + i, so points are independent
    and could run concurrently. Raises InfeasibleSpace for budgets below
    the cheapest candidate architecture.
    """
    budgets = list(budgets)
    if budgets != sorted(budgets):
        raise DomainError("budgets must be sorted ascending")
    objective = make_objective(space, task, k=k, eval_seed=seed)
    points = []
    histories = []
    for i, budget in enumerate(budgets):
        budget = int(budget)

        def constraint(pool, _b=budget):
            return space.screen(pool, budget=_b)

        best, history = bayesopt.bo_optimize(objective, space,
                                             max_iters=iters, n_init=n_init,
                                             seed=seed + i,
                                             constraint=constraint)
        histories.append(tuple(history))
        points.append(SweepPoint(
            budget=budget,
            metric=space.metric,
            best_score=best.score,
            best_params=space.decode(best.theta),
            rm=best.cost["rm"],
            bop=best.cost["bop"],
            nabs=best.cost["nabs"],
        ))
    return SweepResult(points=tuple(points), histories=tuple(histories))
