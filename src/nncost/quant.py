"""Weight quantization schemes, their shift-add cost, and weight compression.

Each scheme is one ``QuantScheme`` class holding all nncost knows of it: its
spelling, b_w range, adder count ``x_w`` for the cost formulas, quantizer, and
what one product with a matrix it quantized counts. A full b_w-bit multiplier
(``Float``, ``FixedUniform``) is at most b_w - 1 adders, a signed power of two
(``PoT``) one barrel shift and no adder, a signed sum of k distinct powers of
two (``APoT``) k shifts and k - 1 adders. PoT and APoT quantize a matrix in
masked whole-array passes, reading each nearest power of two off ``frexp``'s
mantissa, bit-identical to their docstrings' per-weight rule. The module also
implements magnitude pruning, weight-sharing clustering and the pruning-aware
multiplication count ``effective_rm``.
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
        w = _finite_weights(weights)[0]
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
    max_abs = float(max(w.max(), -w.min())) if w.size else 0.0
    if not math.isfinite(max_abs):  # NaN propagates through max and min
        raise DomainError("weights must be finite")
    return w, max_abs


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
    # the largest double <= q_max: float() rounds q_max up from b_w = 55 on
    limit = math.nextafter(q_max, 0.0) if float(q_max) > q_max else q_max
    codes = np.minimum(np.maximum(np.rint(w / scale), -limit),
                       limit).astype(np.int64)
    values = codes * scale
    return QuantizedWeights(scheme, values, codes == 0, codes=codes,
                            scale=scale)


def _nearest_exponents(magnitudes: np.ndarray, e_min: int, ties_up: bool,
                       out=(None, None, None)) -> np.ndarray:
    """Per positive magnitude, the exponent in [e_min, 0] of the closest
    power of two. Exact ties go up if ``ties_up`` (PoT), else down (APoT
    residuals: later terms can still cancel an undershoot). With m = f *
    2**e from frexp, f in [0.5, 1), the errors to 2**(e-1) and 2**e are
    (f - 0.5) * 2**e and (1 - f) * 2**e, both exact by Sterbenz's lemma, so
    comparing them is comparing f with 0.75; the clamp then keeps the
    nearest power in range, and the pick is never below -1074. ``out``
    may give buffers for the mantissa, the exponents and the compare."""
    mantissa, e = np.frexp(magnitudes, out[0], out[1])  # int32: fast ldexp
    e -= (np.less if ties_up else np.less_equal)(mantissa, 0.75, out[2])
    return e.clip(max(e_min, -1074), 0, out=e)


def quantize_pot(weights, b_w: int) -> QuantizedWeights:
    """Round each weight to the nearest signed power of two.

    Weights with max magnitude above 1 are normalized first; the
    normalization scale is recorded so dequantization is exact. Zeros keep a
    dedicated zero code.
    """
    scheme = PoT(b_w)
    w, max_abs = _finite_weights(weights)
    scale = max(max_abs, 1.0)
    sign, values = np.sign(w), np.abs(w.reshape(-1))  # sign(-0.0) is +0.0
    values /= scale
    e = _nearest_exponents(values, -_pot_exponent_range(b_w), ties_up=True,
                           out=(values, None, None))
    np.ldexp(sign.reshape(-1), e, values)  # +-2**e, +0.0 for a zero weight
    values *= scale
    sign, zero = sign.astype(np.int64), w == 0.0
    exponents = e.astype(np.int64).reshape(w.shape)
    np.copyto(exponents, 0, where=zero)
    return QuantizedWeights(scheme, values.reshape(w.shape), zero,
                            scale=scale, signs=sign, exponents=exponents)


def quantize_apot(weights, b_w: int, k_terms: int) -> QuantizedWeights:
    """Quantize to signed sums of up to k_terms distinct powers of two.

    Greedy per weight, all weights in one whole-array pass per term: each
    step adds the exponent nearest the residual; a weight stops once its
    residual is 0 or the term does not strictly reduce the error (after a
    term 2**e a residual is at most 2**(e-1), so e repeats only where e_min
    clamps it, and then fails that test). Never worse than PoT at equal b_w.
    """
    scheme = APoT(b_w, k_terms)
    e_min = -_pot_exponent_range(b_w)
    w, max_abs = _finite_weights(weights)
    scale = max(max_abs, 1.0)
    table = np.zeros((w.size, k_terms), dtype=np.int16)
    counts, total = np.zeros(w.size, dtype=np.int8), np.zeros(w.size)
    r, power = np.abs(w.reshape(-1)), np.empty(w.size)  # residuals, terms
    e, keep = np.empty(w.size, dtype=np.int32), np.empty(w.size, dtype=bool)
    r /= scale
    for t in range(k_terms):
        _nearest_exponents(r, e_min, False, out=(power, e, keep))
        np.ldexp(0.5, e, power)  # 2**-1075 rounds to 0, and 0 < r keeps
        np.less(power, r, keep)  # |r - 2**e| < r, exact for r <= 1
        np.multiply(e, keep, table[:, t])
        counts += keep
        np.ldexp(keep, e, power, dtype=float)  # 2**e or 0, in float64
        total += power  # a stopped weight's sum and residual stay put, so
        r -= power      # its verdict stays no
    del r, power, e, keep  # before the signs' temporaries: a lower peak
    sign, values = np.sign(w), total.reshape(w.shape)
    values *= scale
    values *= sign  # copysign for a nonzero weight, +0.0 for a zero one
    return QuantizedWeights(scheme, values, w == 0.0, scale=scale,
                            signs=sign.astype(np.int64), term_exponents=table,
                            term_counts=counts)


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
