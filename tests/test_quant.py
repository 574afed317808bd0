"""Quantizer, pruning and weight-sharing tests."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nncost import interp, quant
from nncost.arch import Conv1D, Dense, VanillaRNN
from nncost.costmodel import rm_layer
from nncost.errors import DomainError, ShapeError
from nncost.quant import (APoT, FixedUniform, Float, PoT, cluster_weights,
                          effective_rm, magnitude_prune, quantize,
                          quantize_apot, quantize_pot, quantize_uniform, x_w)


class TestXw:
    def test_values(self):
        assert x_w(PoT(8)) == 0
        assert x_w(APoT(8, 2)) == 1
        assert x_w(FixedUniform(8)) == 7
        assert x_w(Float(32)) == 31

    def test_ordering(self):
        for b_w in (2, 4, 8, 16):
            for k in range(1, b_w):
                assert x_w(PoT(b_w)) <= x_w(APoT(b_w, k)) \
                    <= x_w(FixedUniform(b_w))

    def test_apot_term_bound(self):
        with pytest.raises(ValueError):
            APoT(8, 8)


class TestUniform:
    def test_all_zero_degenerates(self):
        qw = quantize_uniform(np.zeros(5), 8)
        assert np.all(qw.values == 0)
        assert np.all(qw.zero_mask)

    def test_endpoints_exact(self):
        qw = quantize_uniform([1.0, -1.0], 2)
        assert qw.scale == 1.0
        assert list(qw.codes) == [1, -1]
        np.testing.assert_array_equal(qw.values, [1.0, -1.0])

    def test_three_bit_example(self):
        qw = quantize_uniform([0.5, 0.26], 3)
        np.testing.assert_allclose(qw.scale, 0.5 / 3)
        assert list(qw.codes) == [3, 2]
        np.testing.assert_allclose(qw.values, [0.5, 1.0 / 3.0])

    def test_error_bound(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-2, 2, 500)
        qw = quantize_uniform(w, 8)
        assert np.max(np.abs(qw.values - w)) <= qw.scale / 2 + 1e-15

    def test_widest_codes_keep_their_sign(self):
        # float(2**63 - 1) rounds up to 2**63, which int64 cannot hold.
        w = np.array([1.0, -1.0, 0.3, -0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qw = quantize_uniform(w, 64)
        np.testing.assert_array_equal(np.sign(qw.codes), np.sign(w))
        np.testing.assert_allclose(qw.values, w, rtol=2.0 ** -52, atol=0.0)

    @staticmethod
    def old_codes(w, b_w):
        """The codes before the clip limit became the largest double <=
        q_max: a float(q_max) limit, capped below 2**63."""
        w = np.asarray(w, dtype=float)
        q_max = (1 << (b_w - 1)) - 1
        scale = np.max(np.abs(w)) / q_max
        limit = min(float(q_max), np.nextafter(2.0 ** 63, 0.0))
        return np.clip(np.round(w / scale), -limit, limit).astype(np.int64)

    @staticmethod
    def weights(seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([[1.0, -1.0], rng.uniform(-1.0, 1.0, 200),
                               rng.normal(scale=1e-3, size=50)])

    @pytest.mark.parametrize("b_w", range(2, 65))
    def test_codes_stay_in_range(self, b_w):
        q_max = (1 << (b_w - 1)) - 1
        for seed in range(3):
            codes = quantize_uniform(self.weights(seed), b_w).codes
            assert all(abs(int(c)) <= q_max for c in codes)

    @pytest.mark.parametrize("b_w", range(2, 55))
    def test_codes_up_to_54_bits_unchanged(self, b_w):
        for seed in range(3):
            w = self.weights(seed)
            np.testing.assert_array_equal(quantize_uniform(w, b_w).codes,
                                          self.old_codes(w, b_w))


class TestPoT:
    def test_exact_power(self):
        qw = quantize_pot([0.5], 8)
        assert qw.values[0] == 0.5

    def test_nearest_in_linear_distance(self):
        # |0.3 - 0.25| = 0.05 beats |0.3 - 0.5| = 0.2
        qw = quantize_pot([0.3], 8)
        assert qw.values[0] == 0.25

    def test_zero_stays_zero(self):
        qw = quantize_pot([0.0, 0.4], 8)
        assert qw.values[0] == 0.0
        assert qw.zero_mask[0] and not qw.zero_mask[1]

    def test_tie_goes_to_larger_magnitude(self):
        qw = quantize_pot([0.75, -0.75], 8)
        np.testing.assert_array_equal(qw.values, [1.0, -1.0])

    def test_relative_error_bound(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(1e-6, 1e3, 2000) * rng.choice([-1.0, 1.0], 2000)
        qw = quantize_pot(w, 8)
        assert np.all(np.abs(qw.values - w) <= np.abs(w) / 3 + 1e-12)

    def test_normalization_recorded_for_large_weights(self):
        qw = quantize_pot([4.0, 2.0], 8)
        assert qw.scale == 4.0
        np.testing.assert_array_equal(qw.values, [4.0, 2.0])


class TestAPoT:
    def test_two_terms_exact(self):
        qw = quantize_apot([0.75], 8, 2)
        assert qw.values[0] == 0.75
        assert qw.terms[0] == (-1, -2)

    def test_second_term_unused_when_exact(self):
        qw = quantize_apot([0.5], 8, 2)
        assert qw.values[0] == 0.5
        assert qw.terms[0] == (-1,)

    def test_k1_reduces_to_pot(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, 500)
        np.testing.assert_array_equal(quantize_apot(w, 8, 1).values,
                                      quantize_pot(w, 8).values)

    def test_error_never_exceeds_pot(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1, 1, 2000)
        for k in (1, 2, 3):
            apot_err = np.abs(quantize_apot(w, 8, k).values - w)
            pot_err = np.abs(quantize_pot(w, 8).values - w)
            assert np.all(apot_err <= pot_err + 1e-15)


@pytest.mark.kernel
@pytest.mark.filterwarnings("error")
class TestNonFinite:
    QUANTIZERS = (
        lambda w: quantize_pot(w, 8),
        lambda w: quantize_apot(w, 8, 2),
        lambda w: quantize(w, PoT(8)),
        lambda w: quantize(w, APoT(8, 3)),
        lambda w: cluster_weights(w, 2),
        lambda w: magnitude_prune(w, 0.34),
        lambda w: quantize(w, Float(8)),
        lambda w: quantize(w, FixedUniform(8)),
        lambda w: quantize_uniform(w, 8),
    )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", range(len(QUANTIZERS)))
    def test_rejected(self, bad, which):
        with pytest.raises(DomainError, match="weights must be finite"):
            self.QUANTIZERS[which](np.array([[0.5, bad], [0.0, -0.25]]))


class TestTemporaryMemory:
    """Traced memory a quantizer holds at its peak above the result it
    returns, on a 128 x 128 matrix: no full-size temporary per term."""

    @pytest.mark.parametrize("scheme, bound", [
        (PoT(8), 1.0), (APoT(8, 2), 2.5), (APoT(8, 3), 2.5)], ids=str)
    def test_peak_above_result(self, scheme, bound):
        w = np.random.default_rng(26).uniform(-1.0, 1.0, (128, 128))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            qw = quantize(w, scheme)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qw.values.shape == w.shape
        assert peak - current <= bound * w.nbytes


def _ladder_x_w(scheme):
    """x_w as the isinstance ladder before the scheme classes gave it."""
    if isinstance(scheme, (Float, FixedUniform)):
        return scheme.b_w - 1
    if isinstance(scheme, PoT):
        return 0
    return scheme.k_terms - 1


@pytest.mark.parametrize("cls", [Float, FixedUniform, PoT, APoT])
class TestSchemeTable:
    W = np.array([[0.5, -0.2], [0.0, 1.5]])

    def test_tag_parses_to_the_class(self, cls):
        assert isinstance(quant.parse_scheme(cls.tag, 8), cls)

    def test_quantized_weights_carry_the_scheme_and_tag(self, cls):
        scheme = quant.parse_scheme(cls.tag, 8)
        qw = quantize(self.W, scheme)
        assert qw.scheme == scheme
        assert qw.to_json()["scheme"] == scheme.tag

    def test_x_w_matches_the_ladder(self, cls):
        for b_w in range(cls.min_bw, 65):
            schemes = ([APoT(b_w, k) for k in range(1, b_w)] if cls is APoT
                       else [cls(b_w)])
            for scheme in schemes:
                assert x_w(scheme) == _ladder_x_w(scheme)


# Reference: the per-weight greedy quantizers the vectorized ones replaced,
# kept verbatim so every output can be compared bit for bit.

def _ref_nearest_exponent(magnitude, e_min):
    if magnitude >= 1.0:
        return 0
    lo = max(e_min, math.floor(math.log2(magnitude)))
    hi = min(0, lo + 1)
    err_lo = abs(magnitude - 2.0 ** lo)
    err_hi = abs(magnitude - 2.0 ** hi)
    return hi if err_hi <= err_lo else lo


def _ref_nearest_exponent_to_residual(residual, e_min):
    if residual >= 1.0:
        return 0
    lo = max(e_min, math.floor(math.log2(residual)))
    hi = min(0, lo + 1)
    err_lo = abs(residual - 2.0 ** lo)
    err_hi = abs(residual - 2.0 ** hi)
    return lo if err_lo <= err_hi else hi


def _ref_apot_terms(magnitude, e_min, k_terms):
    chosen = []
    residual = magnitude
    for _ in range(k_terms):
        if residual <= 0.0:
            break
        e = _ref_nearest_exponent_to_residual(residual, e_min)
        if e in chosen or abs(residual - 2.0 ** e) >= residual:
            break
        chosen.append(e)
        residual -= 2.0 ** e
    return tuple(chosen)


def _ref_scale(w):
    max_abs = float(np.max(np.abs(w))) if w.size else 0.0
    return max_abs if max_abs > 1.0 else 1.0


def _ref_quantize_pot(w, b_w):
    e_min = -((1 << (b_w - 1)) - 1)
    scale = _ref_scale(w)
    flat = w.reshape(-1)
    exponents = np.zeros(flat.size, dtype=np.int64)
    values = np.zeros(flat.size)
    for idx, wi in enumerate(flat):
        if wi == 0.0:
            continue
        e = _ref_nearest_exponent(abs(wi) / scale, e_min)
        exponents[idx] = e
        values[idx] = math.copysign(2.0 ** e * scale, wi)
    return values.reshape(w.shape), scale, exponents.reshape(w.shape)


def _ref_quantize_apot(w, b_w, k_terms):
    e_min = -((1 << (b_w - 1)) - 1)
    scale = _ref_scale(w)
    flat = w.reshape(-1)
    values = np.zeros(flat.size)
    terms = []
    for idx, wi in enumerate(flat):
        if wi == 0.0:
            terms.append(())
            continue
        chosen = _ref_apot_terms(abs(wi) / scale, e_min, k_terms)
        terms.append(chosen)
        total = sum(2.0 ** e for e in chosen) * scale
        values[idx] = math.copysign(total, wi)
    return values.reshape(w.shape), scale, terms


def _edge_magnitudes():
    """Exact powers, their nextafter neighbours and 1.5 and 1.25 multiples
    over the whole exponent range (subnormals, the subnormal boundary, the
    8-bit e_min and the top of the range are covered densely), plus the
    subnormals 5e-324 and 1e-310."""
    ks = sorted(set(range(-1074, 1, 23)) | set(range(-1074, -1068))
                | set(range(-1025, -1019)) | set(range(-129, -124))
                | set(range(-9, 1)))
    out = [5e-324, 1e-310]
    for k in ks:
        p = 2.0 ** k
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, 2.0), 1.5 * p,
                1.25 * p]
    return np.array([m for m in out if m <= 1.0])


def _tie_and_clamp_magnitudes():
    """0.75 * 2**k, the tie between 2**(k-1) and 2**k, with its nextafter
    neighbours for every k that keeps it exact, and magnitudes in and below
    [2**(L-1), 2**L) for the clamp L = max(e_min, -1074) of each b_w in
    2, 3, 4, 8, 11, 12, 16 and 64."""
    ties = np.ldexp(0.75, np.arange(-1072, 1))
    out = [ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)]
    fractions = np.array([1.0, 1.25, 1.5, 1.75, 0.5, 0.75, 0.9, 2.0**-20])
    for b_w in (2, 3, 4, 8, 11, 12, 16, 64):
        low = max(-((1 << (b_w - 1)) - 1), -1074)
        inside = np.ldexp(fractions, low - 1)
        out += [inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
                [np.nextafter(2.0**low, 0.0)]]
    out = np.concatenate(out)
    return np.unique(out[out > 0.0])


def _bitwise_cases():
    rng = np.random.default_rng(30)
    edge = _edge_magnitudes()
    ties = _tie_and_clamp_magnitudes()
    signed = np.concatenate([edge, -edge, [0.0, -0.0]])
    return {
        "uniform_unit": rng.uniform(-1, 1, 400),
        "uniform_scaled": rng.uniform(-7, 7, 400),
        "edges": signed,
        "edges_scaled": signed * 7.0,
        "zeros": np.zeros(6),
        "empty": np.zeros(0),
        "matrix": rng.uniform(-1, 1, (12, 9)) * (rng.random((12, 9)) > 0.2),
        "tensor": rng.uniform(-3, 3, (3, 4, 5)),
        "ties_and_clamps": np.concatenate([ties, -ties]),
    }


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _ref_quantize_uniform(w, b_w):
    """quantize_uniform's expression when its bitwise test was added, kept
    verbatim: values, codes, zero_mask and scale."""
    max_abs = float(np.max(np.abs(w))) if w.size else 0.0
    if max_abs == 0.0:
        return (np.zeros_like(w), np.zeros(w.shape, dtype=np.int64),
                np.ones(w.shape, dtype=bool), 1.0)
    q_max = (1 << (b_w - 1)) - 1
    scale = max_abs / q_max
    # the largest double <= q_max: float() rounds q_max up from b_w = 55 on
    limit = math.nextafter(q_max, 0.0) if float(q_max) > q_max else q_max
    codes = np.minimum(np.maximum(np.rint(w / scale), -limit),
                       limit).astype(np.int64)
    values = codes * scale
    return values, codes, codes == 0, scale


@pytest.mark.kernel
class TestMatchesPerWeightReference:
    @pytest.mark.parametrize("b_w", [2, 3, 4, 8, 16, 53, 54, 55, 64])
    def test_uniform(self, b_w):
        for name, w in _bitwise_cases().items():
            qw = quantize_uniform(w, b_w)
            values, codes, zero_mask, scale = _ref_quantize_uniform(w, b_w)
            assert qw.values.shape == w.shape, name
            np.testing.assert_array_equal(_bits(qw.values), _bits(values),
                                          err_msg=name)
            assert qw.codes.dtype == np.int64, name
            np.testing.assert_array_equal(qw.codes, codes, err_msg=name)
            np.testing.assert_array_equal(qw.zero_mask, zero_mask,
                                          err_msg=name)
            assert qw.scale == scale, name

    @pytest.mark.parametrize("b_w", [2, 3, 4, 8, 16, 64])
    def test_pot(self, b_w):
        for name, w in _bitwise_cases().items():
            qw = quantize_pot(w, b_w)
            values, scale, exponents = _ref_quantize_pot(w, b_w)
            signs = np.sign(w).astype(np.int64)
            assert qw.values.shape == w.shape, name
            np.testing.assert_array_equal(_bits(qw.values), _bits(values),
                                          err_msg=name)
            assert qw.exponents.dtype == np.int64, name
            np.testing.assert_array_equal(qw.exponents, exponents,
                                          err_msg=name)
            np.testing.assert_array_equal(qw.signs, signs, err_msg=name)
            np.testing.assert_array_equal(qw.zero_mask, w == 0.0,
                                          err_msg=name)
            assert qw.scale == scale, name
            assert json.dumps(qw.to_json()) == json.dumps({
                "scheme": "pot", "values": values.tolist(),
                "zero_mask": (w == 0.0).tolist(), "scale": scale,
                "signs": signs.tolist(), "exponents": exponents.tolist(),
            }), name

    @pytest.mark.parametrize("b_w", [2, 3, 4, 8, 16, 64])
    def test_apot(self, b_w):
        for k in range(1, min(b_w - 1, 5) + 1):
            for name, w in _bitwise_cases().items():
                label = f"{name} k={k}"
                qw = quantize_apot(w, b_w, k)
                values, scale, terms = _ref_quantize_apot(w, b_w, k)
                signs = np.sign(w).astype(np.int64)
                assert qw.values.shape == w.shape, label
                np.testing.assert_array_equal(_bits(qw.values),
                                              _bits(values), err_msg=label)
                assert qw.terms == terms, label
                np.testing.assert_array_equal(
                    qw.term_counts, [len(t) for t in terms], err_msg=label)
                np.testing.assert_array_equal(qw.signs, signs, err_msg=label)
                np.testing.assert_array_equal(qw.zero_mask, w == 0.0,
                                              err_msg=label)
                assert qw.scale == scale, label
                assert json.dumps(qw.to_json()) == json.dumps({
                    "scheme": "apot", "values": values.tolist(),
                    "zero_mask": (w == 0.0).tolist(), "scale": scale,
                    "signs": signs.tolist(),
                    "terms": [list(t) for t in terms],
                }), label


def _two_error_nearest_exponents(magnitudes, e_min, ties_up):
    """The vectorized rule before it read frexp's mantissa: both rounding
    errors formed and compared (kept verbatim)."""
    lo = np.clip(np.frexp(magnitudes)[1] - 1, max(e_min, -1074), 0)
    hi = np.minimum(lo + 1, 0)  # lo, hi stay int32: ldexp's fast path
    err_lo = np.abs(magnitudes - np.ldexp(1.0, lo))
    err_hi = np.abs(magnitudes - np.ldexp(1.0, hi))
    pick_hi = err_hi <= err_lo if ties_up else err_hi < err_lo
    return lo + pick_hi * (hi - lo)  # a branch-free np.where(pick_hi, hi, lo)


@pytest.mark.kernel
@pytest.mark.parametrize("ties_up", [True, False])
@pytest.mark.parametrize("b_w", [2, 3, 4, 8, 12, 16, 64])
class TestNearestExponents:
    def test_matches_two_error_rule(self, b_w, ties_up):
        e_min = -((1 << (b_w - 1)) - 1)
        m = np.concatenate([_tie_and_clamp_magnitudes(), _edge_magnitudes(),
                            [1.5, 2.0, 7.0]])
        got = quant._nearest_exponents(m, e_min, ties_up)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(
            got, _two_error_nearest_exponents(m, e_min, ties_up))


class TestPrune:
    def test_keeps_two_largest(self):
        mask = magnitude_prune([0.1, -0.5, 0.05, 0.9], 0.5)
        assert list(mask.keep) == [False, True, False, True]
        assert mask.sparsity == 0.5

    def test_zero_sparsity_keeps_all(self):
        mask = magnitude_prune([0.3, 0.1], 0.0)
        assert mask.keep.all()

    def test_tie_prunes_lower_index(self):
        mask = magnitude_prune([0.2, -0.2, 0.3], 1.0 / 3.0)
        assert list(mask.keep) == [False, True, True]

    def test_domain(self):
        with pytest.raises(DomainError):
            magnitude_prune([1.0], 1.0)
        with pytest.raises(DomainError):
            magnitude_prune([1.0], -0.1)

    def test_kept_min_at_least_pruned_max(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.normal(size=int(rng.integers(2, 40)))
            s = float(rng.uniform(0, 0.95))
            mask = magnitude_prune(w, s)
            pruned = np.abs(w[~mask.keep])
            kept = np.abs(w[mask.keep])
            if pruned.size and kept.size:
                assert kept.min() >= pruned.max() - 1e-15


class TestCluster:
    def test_exact_when_clusters_cover_values(self):
        w = np.array([0.3, -0.7, 0.1, 0.9])
        shared = cluster_weights(w, 4)
        assert shared.distortion(w) == 0.0
        np.testing.assert_array_equal(np.sort(shared.centroids), np.sort(w))

    def test_single_cluster_is_mean(self):
        w = np.array([1.0, 2.0, 6.0])
        shared = cluster_weights(w, 1)
        np.testing.assert_allclose(shared.centroids, [3.0])

    def test_two_cluster_example(self):
        w = np.array([0.0, 0.1, 0.9, 1.0])
        shared = cluster_weights(w, 2)
        np.testing.assert_allclose(np.sort(shared.centroids), [0.05, 0.95])
        assert list(shared.assignments) == [0, 0, 1, 1]

    def test_distinct_values_bounded_by_c(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=60)
        for c in (1, 2, 5, 10):
            shared = cluster_weights(w, c)
            assert np.unique(shared.centroids[shared.assignments]).size <= c

    def test_objective_not_above_initial_assignment(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.normal(size=40)
            c = int(rng.integers(2, 8))
            init = np.linspace(w.min(), w.max(), c)
            first = np.argmin(np.abs(w[:, None] - init[None, :]), axis=1)
            initial_obj = float(np.sum((w - init[first]) ** 2))
            shared = cluster_weights(w, c)
            assert shared.distortion(w) <= initial_obj + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            cluster_weights([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            cluster_weights([1.0], 0)


class TestSerialization:
    def test_quantized_weights_json(self):
        for qw in (quantize_uniform([0.5, -0.2, 0.0], 8),
                   quantize_pot([0.5, -0.2, 0.0], 8),
                   quantize_apot([0.5, -0.2, 0.0], 8, 2)):
            payload = qw.to_json()
            assert payload["values"][2] == 0.0
            assert payload["zero_mask"] == [False, False, True]

    def test_prune_mask_json(self):
        mask = magnitude_prune([0.1, 0.9], 0.5)
        assert mask.to_json() == {"keep": [False, True], "sparsity": 0.5}


class TestEffectiveRM:
    def test_no_pruning_equals_rm(self):
        layer = Dense(4, 6)
        mask = magnitude_prune(np.ones(24), 0.0)
        assert effective_rm(layer, mask) == rm_layer(layer)

    def test_half_pruned_dense(self):
        layer = Dense(1, 4)
        mask = magnitude_prune([0.1, 0.9, 0.05, 0.8], 0.5)
        assert effective_rm(layer, mask) == 2

    def test_shape_error(self):
        layer = Dense(2, 3)
        with pytest.raises(ShapeError):
            effective_rm(layer, magnitude_prune(np.ones(5), 0.0))

    @pytest.mark.parametrize("layer", [
        Dense(5, 7),
        Conv1D(n_f=2, n_i=3, n_k=3, n_s=10),
        VanillaRNN(3, 4, 5),
    ])
    def test_matches_zero_skipping_interpreter(self, layer):
        rng = np.random.default_rng(8)
        weights = interp.random_weights(layer, rng)
        n = quant.multiplicative_weight_count(layer)
        mask = magnitude_prune(rng.uniform(-1, 1, n), 0.4)
        pruned = interp.apply_prune_mask(weights, mask)
        x = interp._nominal_input(layer, rng)
        _, _, counters = interp.run_layer(layer, pruned, x)
        assert counters.mults == effective_rm(layer, mask)
