"""Weight quantization schemes, their shift-add cost, and weight compression.

Each scheme is one ``QuantScheme`` class holding all nncost knows of it:
its spelling, b_w range, adder count ``x_w`` for the cost formulas,
quantizer, and what one product with a matrix it quantized counts. A full
b_w-bit multiplier (``Float``, ``FixedUniform``) is at most b_w - 1 adders,
a signed power of two (``PoT``) one barrel shift and no adder, a signed sum
of k distinct powers of two (``APoT``) k shifts and k - 1 adders. PoT and
APoT quantize a whole matrix in one vectorized numpy pass (APoT: one pass
per term), bit-identical to the greedy per-weight definition in their
docstrings. The module also implements magnitude pruning, weight-sharing
clustering and the pruning-aware multiplication count ``effective_rm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import arch
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class QuantScheme:
    """Base of the scheme classes, each with a ``tag`` (``tag:K`` sets field
    ``suffix``), ``min_bw``, ``x_w``, ``quantizer`` and ``products``."""

    tag: ClassVar[str]
    suffix: ClassVar[str | None] = None
    min_bw: ClassVar[int] = 2
    b_w: int = 8

    def __post_init__(self):
        arch._require_count(self.b_w, "b_w", self.min_bw, 64)

    def x_w(self) -> int:
        """Adders required at most to realize one multiplication."""
        return self.b_w - 1

    def products(self, qw: QuantizedWeights, nonzero: int) -> dict[str, int]:
        """Counts of one product of the quantized matrix ``qw`` with a vector
        besides accumulation: one multiplication per ``nonzero`` weight."""
        return {"mults": nonzero}


@dataclass(frozen=True)
class Float(QuantScheme):
    """No quantization; b_w is the multiplier-width surrogate for cost formulas."""

    tag: ClassVar[str] = "float"
    min_bw: ClassVar[int] = 1
    b_w: int = 32

    def quantizer(self, weights) -> QuantizedWeights:
        w = np.asarray(weights, dtype=float)
        return QuantizedWeights(self, w.copy(), w == 0.0)


@dataclass(frozen=True)
class FixedUniform(QuantScheme):
    """Symmetric uniform fixed-point weights with b_w bits."""

    tag: ClassVar[str] = "uniform"

    def quantizer(self, weights) -> QuantizedWeights:
        return quantize_uniform(weights, self.b_w)


@dataclass(frozen=True)
class PoT(QuantScheme):
    """Signed power-of-two weights: one sign bit plus an exponent field."""

    tag: ClassVar[str] = "pot"

    def x_w(self) -> int:
        return 0

    def quantizer(self, weights) -> QuantizedWeights:
        return quantize_pot(weights, self.b_w)

    def products(self, qw: QuantizedWeights, nonzero: int) -> dict[str, int]:
        """One barrel shift per nonzero weight."""
        return {"shifts": nonzero}


@dataclass(frozen=True)
class APoT(QuantScheme):
    """Signed sums of k_terms distinct powers of two."""

    tag: ClassVar[str] = "apot"
    suffix: ClassVar[str] = "k_terms"
    k_terms: int = 2

    def __post_init__(self):
        super().__post_init__()
        arch._require_count(self.k_terms, "k_terms")
        if self.k_terms > self.b_w - 1:
            raise ValueError("k_terms must be <= b_w - 1 (one sign bit reserved)")

    def x_w(self) -> int:
        return self.k_terms - 1

    def quantizer(self, weights) -> QuantizedWeights:
        return quantize_apot(weights, self.b_w, self.k_terms)

    def products(self, qw: QuantizedWeights, nonzero: int) -> dict[str, int]:
        """One shift per term, and one add joins each two consecutive terms."""
        shifts = int(qw.term_counts.sum())
        return {"shifts": shifts,
                "adds": shifts - int(np.count_nonzero(qw.term_counts))}


def parse_scheme(text: str, b_w: int) -> QuantScheme:
    """Scheme from its tag, any case: float | uniform | pot | apot | apot:K
    (apot is apot:2). ValueError for any other text."""
    name, colon, k = text.lower().partition(":")
    schemes = QuantScheme.__subclasses__()
    for cls in schemes:
        if cls.tag == name and not colon:
            return cls(b_w)
        if cls.tag == name and cls.suffix and k.isascii() and k.isdigit():
            return cls(b_w, **{cls.suffix: int(k)})
    spellings = ([cls.tag for cls in schemes]
                 + [f"{cls.tag}:K" for cls in schemes if cls.suffix])
    raise ValueError(f"unknown scheme {text!r}; expected "
                     f"{', '.join(spellings[:-1])} or {spellings[-1]}")


def x_w(scheme: QuantScheme) -> int:
    """Adders required at most to realize one multiplication under the scheme."""
    return scheme.x_w()


def _pot_exponent_range(b_w: int) -> int:
    # One sign bit, the rest encodes a nonpositive exponent down to -(2^(b_w-1)-1).
    return (1 << (b_w - 1)) - 1


@dataclass
class QuantizedWeights:
    """Quantized representation plus the exactly-representable dequantized values.

    APoT terms: row i of the int16 ``(n, k_terms)`` table ``term_exponents``
    holds flattened weight i's exponents in the order chosen, the first
    ``term_counts[i]`` (an int8 array) of them used, the rest 0. ``terms``
    is a read-only view of the same data as a list of exponent tuples.
    """

    scheme: QuantScheme
    values: np.ndarray
    zero_mask: np.ndarray
    codes: np.ndarray | None = None
    scale: float = 1.0
    signs: np.ndarray | None = None
    exponents: np.ndarray | None = None
    term_exponents: np.ndarray | None = None
    term_counts: np.ndarray | None = None

    @property
    def terms(self) -> list | None:
        """APoT terms per flattened weight, as tuples of exponents."""
        if self.term_counts is None:
            return None
        return [tuple(row[:n]) for row, n in
                zip(self.term_exponents.tolist(), self.term_counts.tolist())]

    def to_json(self) -> dict:
        payload = {
            "scheme": self.scheme.tag,
            "values": self.values.tolist(),
            "zero_mask": self.zero_mask.tolist(),
            "scale": self.scale,
        }
        if self.codes is not None:
            payload["codes"] = self.codes.tolist()
        if self.signs is not None:
            payload["signs"] = self.signs.tolist()
        if self.exponents is not None:
            payload["exponents"] = self.exponents.tolist()
        if self.term_counts is not None:
            payload["terms"] = [list(t) for t in self.terms]
        return payload


def _finite_weights(weights) -> tuple[np.ndarray, float]:
    """Weights as a float array, rejecting NaN and infinities, and max|w|."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    return w, float(np.max(np.abs(w))) if w.size else 0.0


def quantize_uniform(weights, b_w: int) -> QuantizedWeights:
    """Symmetric uniform quantizer: scale = max|w| / (2^(b_w-1) - 1).

    An all-zero input has no defined scale and degenerates to the all-zero
    representation.
    """
    scheme = FixedUniform(b_w)
    w, max_abs = _finite_weights(weights)
    if max_abs == 0.0:
        return QuantizedWeights(scheme, np.zeros_like(w),
                                np.ones(w.shape, dtype=bool),
                                codes=np.zeros(w.shape, dtype=np.int64))
    q_max = (1 << (b_w - 1)) - 1
    scale = max_abs / q_max
    limit = float(q_max)  # clip at the largest double <= q_max:
    if limit > q_max:  # float() rounds q_max up from b_w = 55 on
        limit = math.nextafter(limit, 0.0)
    codes = np.clip(np.round(w / scale), -limit, limit).astype(np.int64)
    values = codes * scale
    return QuantizedWeights(scheme, values, codes == 0, codes=codes,
                            scale=scale)


def _nearest_exponents(magnitudes: np.ndarray, e_min: int,
                       ties_up: bool) -> np.ndarray:
    """Per positive magnitude, the exponent in [e_min, 0] of the closest
    power of two. Exact ties go up if ``ties_up`` (PoT), else down (APoT
    residuals: later terms can still cancel an undershoot). frexp's mantissa
    is in [0.5, 1), so ``e - 1`` is floor(log2) exactly, never below -1074;
    clipping at 0 maps magnitudes >= 1 to exponent 0.
    """
    lo = np.clip(np.frexp(magnitudes)[1] - 1, max(e_min, -1074), 0)
    hi = np.minimum(lo + 1, 0)  # lo, hi stay int32: ldexp's fast path
    err_lo = np.abs(magnitudes - np.ldexp(1.0, lo))
    err_hi = np.abs(magnitudes - np.ldexp(1.0, hi))
    pick_hi = err_hi <= err_lo if ties_up else err_hi < err_lo
    return lo + pick_hi * (hi - lo)  # a branch-free np.where(pick_hi, hi, lo)


def quantize_pot(weights, b_w: int) -> QuantizedWeights:
    """Round each weight to the nearest signed power of two.

    Weights with max magnitude above 1 are normalized first; the
    normalization scale is recorded so dequantization is exact. Zeros keep a
    dedicated zero code.
    """
    scheme = PoT(b_w)
    w, max_abs = _finite_weights(weights)
    scale = max(max_abs, 1.0)
    nonzero = w != 0.0
    e = _nearest_exponents(np.abs(w[nonzero]) / scale,
                           -_pot_exponent_range(b_w), ties_up=True)
    exponents = np.zeros(w.shape, dtype=np.int64)
    exponents[nonzero] = e
    values = np.zeros(w.shape)
    values[nonzero] = np.ldexp(1.0, e) * scale
    np.copysign(values, w, out=values, where=nonzero)
    return QuantizedWeights(scheme, values, ~nonzero, scale=scale,
                            signs=np.sign(w).astype(np.int64),
                            exponents=exponents)


def quantize_apot(weights, b_w: int, k_terms: int) -> QuantizedWeights:
    """Quantize to signed sums of up to k_terms distinct powers of two.

    Greedy per weight, all weights in one pass per term: each step adds
    the exponent nearest the residual; a weight stops once its residual is
    0, the exponent repeats, or the term does not strictly reduce the error.
    This never does worse than the single-term PoT quantizer at equal b_w.
    """
    scheme = APoT(b_w, k_terms)
    e_min = -_pot_exponent_range(b_w)
    w, max_abs = _finite_weights(weights)
    scale = max(max_abs, 1.0)
    flat = w.reshape(-1)
    residual = np.abs(flat) / scale
    table = np.zeros((flat.size, k_terms), dtype=np.int16)
    counts = np.zeros(flat.size, dtype=np.int8)
    total = np.zeros(flat.size)
    active = np.flatnonzero(residual > 0.0)
    for t in range(k_terms):
        r = residual[active]
        e = _nearest_exponents(r, e_min, ties_up=False)
        keep = ((np.abs(r - np.ldexp(1.0, e)) < r)
                & ~np.any(table[active, :t] == e[:, None], axis=1))
        active, e = active[keep], e[keep]
        power = np.ldexp(1.0, e)
        table[active, t] = e
        counts[active] = t + 1
        residual[active] -= power
        total[active] += power
        active = active[residual[active] > 0.0]
    total *= scale
    np.copysign(total, flat, out=total, where=flat != 0.0)
    return QuantizedWeights(scheme, total.reshape(w.shape), w == 0.0,
                            scale=scale, signs=np.sign(w).astype(np.int64),
                            term_exponents=table, term_counts=counts)


def quantize(weights, scheme: QuantScheme) -> QuantizedWeights:
    """The scheme's quantizer; Float passes values through."""
    return scheme.quantizer(weights)


@dataclass
class PruneMask:
    """Per-weight keep flags; ``sparsity`` is the fraction actually pruned."""

    keep: np.ndarray
    sparsity: float = field(init=False)

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        pruned = int(self.keep.size - np.count_nonzero(self.keep))
        self.sparsity = pruned / self.keep.size if self.keep.size else 0.0

    def to_json(self) -> dict:
        return {"keep": self.keep.tolist(), "sparsity": self.sparsity}


def magnitude_prune(weights, sparsity: float) -> PruneMask:
    """Prune the ceil(sparsity * n) smallest-magnitude weights.

    Equal magnitudes are pruned lowest-index first. Kept weights are left
    untouched; the mask records which survive.
    """
    if not 0.0 <= sparsity < 1.0:
        raise DomainError("sparsity must be in [0, 1)")
    w = _finite_weights(weights)[0].reshape(-1)
    n = w.size
    n_prune = math.ceil(sparsity * n - 1e-12)
    keep = np.ones(n, dtype=bool)
    if n_prune > 0:
        order = np.argsort(np.abs(w), kind="stable")
        keep[order[:n_prune]] = False
    return PruneMask(keep)


@dataclass
class SharedWeights:
    """Clustered weights: shared centroid values plus per-weight assignments."""

    centroids: np.ndarray
    assignments: np.ndarray

    def distortion(self, weights) -> float:
        w = np.asarray(weights, dtype=float).reshape(-1)
        return float(np.sum((w - self.centroids[self.assignments]) ** 2))

    def to_json(self) -> dict:
        return {"centroids": self.centroids.tolist(),
                "assignments": self.assignments.tolist()}


def cluster_weights(weights, c: int) -> SharedWeights:
    """Share weight values via 1-D Lloyd clustering.

    Centroids start linearly spaced on [min w, max w] and iterate to a fixed
    point of assignments (at most 100 rounds). When c reaches the number of
    distinct values every distinct value becomes its own centroid, which is
    the zero-distortion fixed point that linear initialization can miss.
    """
    w = _finite_weights(weights)[0].reshape(-1)
    n = w.size
    if not 1 <= c <= n:
        raise DomainError("cluster count must satisfy 1 <= c <= n")
    distinct = np.unique(w)
    if c >= distinct.size:
        return SharedWeights(distinct,
                             np.searchsorted(distinct, w).astype(np.int64))
    centroids = np.linspace(w.min(), w.max(), c)
    assignments = np.argmin(np.abs(w[:, None] - centroids[None, :]), axis=1)
    for _ in range(100):
        for j in range(c):
            members = w[assignments == j]
            if members.size:
                centroids[j] = members.mean()
        new_assignments = np.argmin(
            np.abs(w[:, None] - centroids[None, :]), axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return SharedWeights(centroids, assignments.astype(np.int64))


def multiplicative_weight_count(layer: arch.LayerSpec) -> int:
    """Number of stored weights that each feed a multiplication."""
    kind = arch.layer_kind(layer)
    shapes = kind.weights(layer)
    return sum(shapes[name][0] * layer.row_nonzeros if name == kind.sparse
               else math.prod(shapes[name]) for name in kind.pruned)


def effective_rm(layer: arch.LayerSpec, mask: PruneMask) -> int:
    """Multiplication count after zero-skipping the pruned weights."""
    expected = multiplicative_weight_count(layer)
    if mask.keep.size != expected:
        raise ShapeError(
            f"mask has {mask.keep.size} entries, layer has {expected} "
            f"multiplicative weights")
    pruned = int(mask.keep.size - np.count_nonzero(mask.keep))
    kind = arch.layer_kind(layer)
    return kind.rm(layer) - pruned * kind.reuse(layer)
