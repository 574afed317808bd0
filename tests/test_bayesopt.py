"""Surrogate model and acquisition tests."""

import math

import numpy as np
import pytest

from nncost import bayesopt
from nncost.bayesopt import (CubeSpace, GPParams, Trial, bo_optimize,
                             expected_improvement, gp_fit, gp_predict, kernel,
                             propose_next)
from nncost.errors import (DimensionMismatch, DomainError, InfeasibleSpace,
                           ObjectiveError, SingularCovariance)


def trial(theta, score):
    return Trial(theta=np.atleast_1d(np.asarray(theta, float)), score=score)


def reject_all(pool):
    return np.zeros(len(pool), dtype=bool)


def draw_separated(rng, d, n_target, sep):
    """Uniform points with a minimum pairwise distance, capped attempts."""
    pts = []
    attempts = 0
    while len(pts) < n_target and attempts < 2000:
        p = rng.uniform(size=d)
        attempts += 1
        if all(np.linalg.norm(p - q) >= sep for q in pts):
            pts.append(p)
    return np.array(pts)


class TestKernel:
    def test_zero_distance(self):
        params = GPParams(length_scales=1.0, signal_var=2.5)
        assert kernel([0.2, 0.4], [0.2, 0.4], params) == pytest.approx(2.5)

    def test_decay_to_zero(self):
        params = GPParams(length_scales=0.3, signal_var=1.0)
        assert kernel([0.0], [100.0], params) < 1e-300

    def test_unit_distance_closed_form(self):
        params = GPParams(length_scales=1.0, signal_var=1.0)
        assert kernel([0.0], [1.0], params) == pytest.approx(math.exp(-0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel([0.0], [0.0, 1.0], GPParams())

    @staticmethod
    def reference_kernel(x, x_prime, params):
        """The per-pair formula ``kernel`` had before it read its value from
        ``_kernel_matrix``, kept verbatim (its shape check left out)."""
        x = np.asarray(x, dtype=float)
        x_prime = np.asarray(x_prime, dtype=float)
        ell = np.broadcast_to(np.asarray(params.length_scales, dtype=float),
                              x.shape)
        sv = 1.0 if params.signal_var is None else params.signal_var
        sq = np.sum(((x - x_prime) / ell) ** 2)
        return float(sv * math.exp(-0.5 * sq))

    def test_matches_old_formula(self):
        rng = np.random.default_rng(31)
        got, want = [], []
        for i in range(3000):
            d = int(rng.integers(1, 8))
            ell = (rng.uniform(0.05, 2.0, d) if i % 2
                   else float(rng.uniform(0.05, 2.0)))
            params = GPParams(length_scales=ell,
                              signal_var=None if i % 3 == 0
                              else float(rng.uniform(0.1, 3.0)))
            x, x_prime = rng.uniform(-2.0, 2.0, (2, d))
            if i % 7 == 0:
                x_prime = x
            got.append(kernel(x, x_prime, params))
            want.append(self.reference_kernel(x, x_prime, params))
        # np.exp and math.exp may round the last bit apart, and the product
        # with the signal variance once more.
        np.testing.assert_array_max_ulp(np.array(got), np.array(want),
                                        maxulp=2)

    def test_is_an_entry_of_the_fitted_covariance(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(size=(7, 3))
        model = gp_fit([trial(x, float(rng.normal())) for x in X],
                       GPParams(length_scales=np.array([0.2, 0.5, 0.9])))
        K = bayesopt._kernel_matrix(X, X, model.signal_var,
                                    model.length_scales)
        params = GPParams(length_scales=model.length_scales,
                          signal_var=model.signal_var)
        for i in range(7):
            for j in range(7):
                assert kernel(X[i], X[j], params) == K[i, j]


@pytest.mark.kernel
class TestKernelMatrixMatchesReference:
    @staticmethod
    def reference(A, B, signal_var, ell):
        """The (m, n, d) broadcast ``_kernel_matrix`` was first written as:
        numpy sums the last axis pairwise, so the per-dimension planes
        must be added in that order to round the same."""
        diff = A[:, None, :] - B[None, :, :]
        sq = np.sum((diff / ell) ** 2, axis=2)
        return signal_var * np.exp(-0.5 * sq)

    @pytest.mark.parametrize("d", list(range(1, 41)) + [129, 300])
    def test_bitwise(self, d):
        rng = np.random.default_rng([33, d])
        for m, n in ((2048, 9), (5, 5), (1, 1), (3, 0)):
            A = rng.uniform(-0.2, 1.2, size=(m, d))
            B = A[:n] if m == n else rng.uniform(size=(n, d))
            ell = rng.uniform(0.05, 2.0, size=d)
            got = bayesopt._kernel_matrix(A, B, 0.7, ell)
            want = self.reference(A, B, 0.7, ell)
            assert got.shape == want.shape == (m, n)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_no_dimensions(self):
        A, B = np.zeros((4, 0)), np.zeros((2, 0))
        np.testing.assert_array_equal(
            bayesopt._kernel_matrix(A, B, 1.5, np.zeros(0)),
            np.full((4, 2), 1.5))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def reference_gp_fit(trials, params=None):
    """``gp_fit`` as first written, from its collapse of duplicate points
    on: K + jitter I formed once for each Cholesky attempt and again for
    the refinement step. Returns the jitter, the Cholesky factor L, its
    inverse as the solve of L against the identity, and alpha."""
    params = params or GPParams()
    best = {}
    for t in trials:
        key = np.ascontiguousarray(t.theta).tobytes()
        if key not in best or t.score > best[key].score:
            best[key] = t
    kept = list(best.values())
    X = np.stack([t.theta for t in kept])
    y = np.array([t.score for t in kept], dtype=float)
    y_mean = float(y.mean())
    yc = y - y_mean
    signal_var = params.signal_var
    if signal_var is None:
        signal_var = float(yc.var())
        if signal_var < 1e-12:
            signal_var = 1.0
    ell = np.broadcast_to(np.asarray(params.length_scales, dtype=float),
                          (X.shape[1],)).astype(float)
    K = TestKernelMatrixMatchesReference.reference(X, X, signal_var, ell)
    jitter = params.jitter
    while True:
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(X.shape[0]))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-4:
                raise SingularCovariance("jitter")
    Kj = K + jitter * np.eye(X.shape[0])

    def cho_solve(rhs):
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))

    alpha = cho_solve(yc)
    alpha += cho_solve(yc - Kj @ alpha)
    return jitter, L, np.linalg.solve(L, np.eye(X.shape[0])), alpha


def reference_gp_predict(model, pts):
    """``gp_predict`` of an (m, d) batch as a plain expression."""
    k_star = TestKernelMatrixMatchesReference.reference(
        pts, model.X, model.signal_var, model.length_scales)
    mu = model.y_mean + k_star @ model.alpha
    v = model.L_inv @ k_star.T
    var = model.signal_var - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    return mu, np.sqrt(var)


def solve_gp_predict(model, L, pts):
    """``gp_predict`` of an (m, d) batch as first written: the variance
    from a solve with the Cholesky factor L for every row."""
    k_star = TestKernelMatrixMatchesReference.reference(
        pts, model.X, model.signal_var, model.length_scales)
    mu = model.y_mean + k_star @ model.alpha
    v = np.linalg.solve(L, k_star.T)
    return mu, np.maximum(model.signal_var - np.sum(v * v, axis=0), 0.0)


def reference_expected_improvement(mu, sigma, f_plus):
    """``expected_improvement`` of 1-D arrays as first written: (mu -
    f_plus) and sigma gathered at sigma > 0, the normal pdf as one
    expression, the result scattered into a copy."""
    ei = np.maximum(mu - f_plus, 0.0)
    pos = sigma > 0
    if np.any(pos):
        z = (mu[pos] - f_plus) / sigma[pos]
        cdf = 0.5 * (1.0 + bayesopt._erf(z / math.sqrt(2.0)))
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
        ei_pos = (mu[pos] - f_plus) * cdf + sigma[pos] * pdf
        ei = ei.copy()
        ei[pos] = np.maximum(ei_pos, 0.0)
    return ei


@pytest.mark.kernel
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestPosteriorMatchesReference:
    """``gp_fit``, ``gp_predict`` and ``expected_improvement`` round every
    value as the expressions they were first written as: bitwise on each
    BLAS kernel and numpy SIMD level."""

    @staticmethod
    def models(seed):
        rng = np.random.default_rng(seed)
        for i in range(12):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 25))
            X = rng.uniform(size=(n, d))
            if i % 4 == 3:  # a repeated point, and near-duplicates
                X[-1] = X[0]
                X[1:3] = X[0] + 1e-9
            trials = [trial(x, float(rng.normal())) for x in X]
            ell = rng.uniform(0.1, 1.5, d) if i % 2 else 0.3
            # at a signal variance of 1e9 the posterior variance at an
            # observed point rounds to <= 0 as often as not: sigma = 0
            params = GPParams(length_scales=ell,
                              signal_var=(None, 0.8, 1e9)[i % 3])
            yield rng, X, trials, params

    @pytest.mark.parametrize("failures", [0, 2])
    def test_fit(self, failures, monkeypatch):
        """The first ``failures`` Cholesky attempts of each fit fail, so
        the fit goes on at 10**failures times the first jitter or more (a
        signal variance of 1e9 escalates it too)."""
        cholesky = np.linalg.cholesky
        attempts = []

        def failing(matrix):
            attempts.append(matrix)
            if len(attempts) <= failures:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        for _, _, trials, params in self.models(51):
            attempts.clear()
            model = gp_fit(trials, params)
            attempts.clear()
            jitter, _, L_inv, alpha = reference_gp_fit(trials, params)
            assert model.jitter == jitter
            assert jitter > params.jitter * 10 ** failures / 2
            np.testing.assert_array_equal(bits(model.L_inv), bits(L_inv))
            np.testing.assert_array_equal(bits(model.alpha), bits(alpha))

    def test_predict_and_ei(self):
        zero, mixed, positive = 0, 0, 0
        for rng, X, trials, params in self.models(52):
            model = gp_fit(trials, params)
            f_plus = max(t.score for t in trials)
            pool = rng.uniform(-0.2, 1.2, size=(300, X.shape[1]))
            # observed points, where sigma is often exactly 0
            pool[::7][:len(X)] = X[:len(pool[::7])]
            for rows in (pool, pool[1::7], pool[::7][:1]):
                mu, sigma = gp_predict(model, rows)
                want_mu, want_sigma = reference_gp_predict(model, rows)
                np.testing.assert_array_equal(bits(mu), bits(want_mu))
                np.testing.assert_array_equal(bits(sigma), bits(want_sigma))
                on = sigma > 0
                zero += not on.any()
                mixed += 0 < on.sum() < on.size
                positive += on.all()
                for best in (f_plus, f_plus - 1.0, float(mu.max()) + 0.5):
                    np.testing.assert_array_equal(
                        bits(expected_improvement(mu, sigma, best)),
                        bits(reference_expected_improvement(mu, sigma, best)))
        assert zero and mixed and positive

    @pytest.mark.parametrize("seed", range(50, 60))
    def test_variance_near_solve(self, seed):
        """The inverse factor's variance against the solve's: the mean
        bitwise, the variance within 1e-7 signal_var, near-duplicate
        points at a signal variance of 1e9 included."""
        for rng, X, trials, params in self.models(seed):
            model = gp_fit(trials, params)
            _, L, _, _ = reference_gp_fit(trials, params)
            pool = rng.uniform(-0.2, 1.2, size=(300, X.shape[1]))
            pool[::7][:len(X)] = X[:len(pool[::7])]
            mu, sigma = gp_predict(model, pool)
            want_mu, want_var = solve_gp_predict(model, L, pool)
            np.testing.assert_array_equal(bits(mu), bits(want_mu))
            assert np.abs(sigma ** 2 - want_var).max() <= (
                1e-7 * model.signal_var)

    @pytest.mark.parametrize("zeros", ["none", "some", "all"])
    def test_ei_drawn(self, zeros):
        rng = np.random.default_rng(53)
        for _ in range(20):
            mu = rng.normal(scale=3.0, size=500)
            sigma = rng.uniform(0.0, 2.0, size=500) ** 3
            if zeros == "some":
                sigma[rng.uniform(size=500) < 0.3] = 0.0
            elif zeros == "all":
                sigma[:] = 0.0
            mu[:5] = [0.0, -0.0, 1e300, -1e300, 0.4]
            for f_plus in (0.0, 0.4, float(rng.normal())):
                np.testing.assert_array_equal(
                    bits(expected_improvement(mu, sigma, f_plus)),
                    bits(reference_expected_improvement(mu, sigma, f_plus)))

    def test_ei_scalar(self):
        for mu, sigma in ((0.3, 0.0), (0.3, 0.7), (-2.0, 1e-300)):
            got = expected_improvement(mu, sigma, 0.1)
            want = reference_expected_improvement(
                np.array([mu]), np.array([sigma]), 0.1)[0]
            assert isinstance(got, float)
            assert bits(got) == bits(want)


class TestGP:
    def test_single_trial_interpolates(self):
        model = gp_fit([trial(0.4, 3.0)])
        mu, sigma = gp_predict(model, np.array([0.4]))
        assert mu == pytest.approx(3.0, abs=1e-6)
        assert sigma < 1e-3

    def test_far_field_reverts_to_mean(self):
        trials = [trial(0.1, 1.0), trial(0.2, 3.0)]
        model = gp_fit(trials)
        mu, sigma = gp_predict(model, np.array([50.0]))
        assert mu == pytest.approx(2.0, abs=1e-9)
        assert sigma == pytest.approx(math.sqrt(model.signal_var), rel=1e-6)

    def test_midpoint_of_colinear_points(self):
        trials = [trial(t, t) for t in (0.0, 0.5, 1.0)]
        model = gp_fit(trials, GPParams(length_scales=1.0))
        mu, _ = gp_predict(model, np.array([0.25]))
        assert abs(mu - 0.25) < 0.05

    def test_interpolation_many_random_sets(self):
        # Interpolation to 1e-6 under the 1e-8 jitter needs datasets the
        # kernel can resolve: points separated on the length-scale order.
        # Nearly coincident points with independent scores are a noisy
        # dataset, which the jitter rightly refuses to interpolate.
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            X = draw_separated(rng, d, n_target=20, sep=0.35)
            n = X.shape[0]
            y = rng.normal(size=n)
            trials = [Trial(theta=X[i], score=float(y[i])) for i in range(n)]
            model = gp_fit(trials)
            mu, _ = gp_predict(model, X)
            assert np.max(np.abs(mu - y)) < 1e-6

    def test_factorization_residual(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(15, 3))
        trials = [Trial(theta=X[i], score=float(rng.normal()))
                  for i in range(15)]
        model = gp_fit(trials)
        K = bayesopt._kernel_matrix(model.X, model.X, model.signal_var,
                                    model.length_scales)
        K += model.jitter * np.eye(15)
        residual = np.linalg.norm(model.L_inv @ K @ model.L_inv.T - np.eye(15))
        assert residual <= 1e-12

    def test_predict_calls_no_linalg(self, monkeypatch):
        """A pool's posterior is products with the fit's arrays: no
        factorization, solve or inverse runs per round."""
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(12, 2))
        model = gp_fit([Trial(theta=x, score=float(rng.normal()))
                        for x in X])

        def forbidden(*args, **kwargs):
            raise AssertionError("gp_predict called np.linalg")

        for name in ("solve", "inv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        mu, sigma = gp_predict(model, rng.uniform(size=(2048, 2)))
        assert mu.shape == sigma.shape == (2048,)
        assert isinstance(gp_predict(model, X[0])[1], float)

    def test_duplicate_thetas_keep_best(self):
        trials = [trial(0.5, 1.0), trial(0.5, 4.0), trial(0.2, 2.0)]
        model = gp_fit(trials)
        assert model.X.shape[0] == 2
        mu, _ = gp_predict(model, np.array([0.5]))
        assert mu == pytest.approx(4.0, abs=1e-5)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(20, 2))
        trials = [Trial(theta=X[i], score=float(rng.normal()))
                  for i in range(20)]
        model = gp_fit(trials)
        _, sigma = gp_predict(model, rng.uniform(size=(500, 2)))
        assert np.all(sigma >= 0.0)

    def test_empty_fit_rejected(self):
        with pytest.raises(DomainError):
            gp_fit([])

    def test_jitter_escalation_then_singular(self, monkeypatch):
        attempts = []

        def always_fails(matrix):
            attempts.append(matrix[0, 0])
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", always_fails)
        with pytest.raises(SingularCovariance):
            gp_fit([trial(0.1, 1.0), trial(0.9, 2.0)])
        # jitter climbed 1e-8 -> 1e-4 in tenfold steps before giving up
        assert len(attempts) == 5


class TestExpectedImprovement:
    def test_at_incumbent(self):
        expected = 1.0 / math.sqrt(2 * math.pi)
        assert expected_improvement(2.0, 1.0, 2.0) == pytest.approx(expected)

    def test_zero_sigma_no_improvement(self):
        assert expected_improvement(1.0, 0.0, 2.0) == 0.0

    def test_zero_sigma_positive_gap(self):
        assert expected_improvement(3.0, 0.0, 2.0) == 1.0

    def test_unit_gap_closed_form(self):
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        cdf1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert expected_improvement(3.0, 1.0, 2.0) == pytest.approx(
            cdf1 + phi1)
        assert expected_improvement(3.0, 1.0, 2.0) == pytest.approx(
            1.0833, abs=5e-5)

    def test_norm_cdf_matches_math_erf_bitwise(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 40.0, -40.0,
                             5e-324, -5e-324], rng.normal(scale=3, size=300)])
        want = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                         for v in z])
        got = bayesopt._norm_cdf(z)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        assert bayesopt._norm_cdf(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("z", [
        np.array(0.75), np.array(np.nan), np.array(-0.0),
        np.append(np.linspace(-6.0, 6.0, 11), np.nan).reshape(3, 4),
    ], ids=["0d", "0d-nan", "0d-negzero", "3x4"])
    def test_norm_cdf_keeps_shape(self, z):
        want = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                         for v in z.ravel().tolist()]).reshape(z.shape)
        got = bayesopt._norm_cdf(z)
        assert np.shape(got) == z.shape
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      want.view(np.uint64))

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            expected_improvement(0.0, -1.0, 0.0)

    @pytest.mark.parametrize("x", [0.0, 5e-324, 0.5, 5.9, 6.0, 27.0, 1e300,
                                   math.inf])
    def test_erf_sign_and_range(self, x):
        """The premise of propose_next's bounds: libm's erf lies in
        [-1, 1] and has the sign of its argument, signed zeros included."""
        for v in (x, -x):
            got = math.erf(v)
            assert -1.0 <= got <= 1.0
            assert math.copysign(1.0, got) == math.copysign(1.0, v)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(scale=5, size=1000)
        sigma = rng.uniform(0, 5, size=1000)
        assert np.all(expected_improvement(mu, sigma, 0.7) >= 0.0)

    def test_monotone_in_mu(self):
        mus = np.linspace(-3, 3, 200)
        ei = expected_improvement(mus, np.full_like(mus, 0.8), 0.0)
        assert np.all(np.diff(ei) > 0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(4)
        n = 200_000
        draws = rng.standard_normal(n)
        for gap in (-1.0, 0.0, 1.5):
            for sigma in (0.3, 1.0, 2.0):
                samples = np.maximum(gap + sigma * draws, 0.0)
                mc = samples.mean()
                se = samples.std(ddof=1) / math.sqrt(n)
                closed = expected_improvement(gap, sigma, 0.0)
                assert abs(closed - mc) <= 3 * se + 1e-12


class TestPropose:
    def test_single_feasible_candidate_wins(self):
        trials = [trial(0.5, 1.0), trial(0.2, 0.5)]
        model = gp_fit(trials)
        target = None

        def constraint(pool):
            nonlocal target
            target = pool[0].copy()
            keep = np.zeros(len(pool), dtype=bool)
            keep[0] = True
            return keep

        chosen = propose_next(model, CubeSpace(1), f_plus=1.0,
                              constraint=constraint, seed=9)
        np.testing.assert_array_equal(chosen, target)

    def test_deterministic_under_seed(self):
        trials = [trial(0.1, 0.0), trial(0.9, 1.0)]
        model = gp_fit(trials)
        a = propose_next(model, CubeSpace(1), f_plus=1.0, seed=5)
        b = propose_next(model, CubeSpace(1), f_plus=1.0, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_quadratic_proposal_interior(self):
        trials = [trial(0.0, -(0.0 - 0.3) ** 2), trial(1.0, -(1.0 - 0.3) ** 2)]
        model = gp_fit(trials)
        chosen = propose_next(model, CubeSpace(1), f_plus=-0.09, seed=1)
        assert 0.0 < chosen[0] < 1.0

    def test_infeasible_space(self):
        model = gp_fit([trial(0.5, 1.0)])
        with pytest.raises(InfeasibleSpace):
            propose_next(model, CubeSpace(1), f_plus=1.0,
                         constraint=reject_all, seed=0)


class TestShapeMismatch:
    """Shapes that do not fit raise DimensionMismatch naming both, rather
    than being broadcast or failing inside numpy."""

    @pytest.mark.parametrize("mu, sigma", [
        (0.5, np.array([1.0, 2.0, 0.1])),
        (np.array([1.0, 2.0, 0.1]), 0.5),
        (np.zeros(3), np.ones(2)),
        (np.zeros((2, 1)), np.ones(2)),
    ], ids=["scalar-mu", "scalar-sigma", "lengths", "2d-mu"])
    def test_expected_improvement(self, mu, sigma):
        with pytest.raises(DimensionMismatch) as err:
            expected_improvement(mu, sigma, 0.0)
        assert str(np.shape(mu)) in str(err.value)
        assert str(np.shape(sigma)) in str(err.value)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (2, 3, 2), (5, 1)],
                             ids=["0d", "point", "batch", "3d", "columns"])
    def test_gp_predict(self, shape):
        model = gp_fit([trial([0.1, 0.2], 1.0), trial([0.7, 0.4], 2.0)])
        with pytest.raises(DimensionMismatch) as err:
            gp_predict(model, np.full(shape, 0.5))
        assert str(shape) in str(err.value)
        assert str(model.X.shape) in str(err.value)


@pytest.mark.kernel
class TestEIArgmaxMatchesFullPool:
    """propose_next computes the expected improvement only at the rows its
    erf-free bounds keep; the row it picks is the full pool's argmax,
    earliest-drawn among ties."""

    @staticmethod
    def full_argmax(mu, sigma, f_plus):
        return int(np.argmax(expected_improvement(mu, sigma, f_plus)))

    @pytest.mark.parametrize("size", [1, 2, 17, 500, 1471, 2047, 2048])
    def test_propose_next(self, size):
        def first_rows(pool):
            return np.arange(len(pool)) < size

        rng = np.random.default_rng([61, size])
        for i in range(6):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 25))
            trials = [trial(x, float(rng.normal()))
                      for x in rng.uniform(size=(n, d))]
            model = gp_fit(trials, GPParams(rng.uniform(0.1, 1.0, d)))
            best = max(t.score for t in trials)
            # at best + 100 the expected improvement is 0 everywhere
            for f_plus in (best, best - 1.0, best + 100.0):
                seed = [61, size, i]
                cands = bayesopt._draw_feasible(np.random.default_rng(seed),
                                                d, first_rows)
                assert len(cands) == size
                mu, sigma = gp_predict(model, cands)
                got = propose_next(model, CubeSpace(d), f_plus, first_rows,
                                   seed=seed)
                np.testing.assert_array_equal(
                    got, cands[self.full_argmax(mu, sigma, f_plus)])

    @staticmethod
    def pools(rng):
        """(kind, mu, sigma, f_plus) of 1 to 2048 rows."""
        kinds = ("drawn", "ties", "sigma-zero", "ei-zero", "gains-positive",
                 "subnormal", "wide-z")
        for i in range(210):
            kind = kinds[i % len(kinds)]
            m = int(rng.integers(1, 2049))
            mu = rng.normal(size=m)
            sigma = rng.uniform(0.01, 1.5, m)
            f_plus = float(rng.normal(1.0))
            if kind == "ties":  # a few distinct rows, each many times over
                rows = rng.integers(0, int(rng.integers(1, 6)), m)
                mu, sigma = mu[rows], sigma[rows]
            elif kind == "sigma-zero":
                sigma[rng.uniform(size=m) < 0.2] = 0.0
            elif kind == "ei-zero":
                f_plus = float(mu.max() + 50.0 * sigma.max())
            elif kind == "gains-positive":
                f_plus = float(mu.min()) - float(rng.uniform(0.0, 0.5))
            elif kind == "subnormal":  # gains of a few 5e-324 steps
                f_plus = 0.0
                mu = rng.integers(-4, 5, m) * 5e-324
                sigma = rng.choice([1e-323, 3e-323, 1e-300, 1.0], m)
            elif kind == "wide-z":  # |z| from 50 to 10^4
                sigma = rng.uniform(1e-4, 1e-3, m)
                mu = f_plus + rng.choice([-1.0, 1.0], m) * rng.uniform(
                    0.05, 1.0, m)
            yield kind, mu, sigma, f_plus

    def test_crafted_pools(self):
        seen, tied = set(), 0
        for kind, mu, sigma, f_plus in self.pools(np.random.default_rng(62)):
            want = self.full_argmax(mu, sigma, f_plus)
            assert bayesopt._ei_argmax(mu, sigma, f_plus) == want, kind
            ei = expected_improvement(mu, sigma, f_plus)
            if kind == "ei-zero":
                assert not ei.any()
            if kind == "ties":
                tied += np.count_nonzero(ei == ei[want]) > 1
            seen.add(kind)
        assert len(seen) == 7
        assert tied == 30


class TestBOLoop:
    def test_constant_objective(self):
        best, history = bo_optimize(lambda theta: 7.5, CubeSpace(2),
                                    max_iters=3, n_init=2, seed=0)
        assert best.score == 7.5
        assert len(history) == 5

    def test_history_length(self):
        _, history = bo_optimize(lambda theta: float(theta[0]), CubeSpace(1),
                                 max_iters=4, n_init=3, seed=1)
        assert len(history) == 7

    def test_deterministic_history(self):
        def objective(theta):
            return -float((theta[0] - 0.3) ** 2)

        _, h1 = bo_optimize(objective, CubeSpace(1), 5, 3, seed=2)
        _, h2 = bo_optimize(objective, CubeSpace(1), 5, 3, seed=2)
        for a, b in zip(h1, h2):
            np.testing.assert_array_equal(a.theta, b.theta)
            assert a.score == b.score

    def test_infeasible_space(self):
        with pytest.raises(InfeasibleSpace):
            bo_optimize(lambda theta: 0.0, CubeSpace(1), 1, 1, seed=0,
                        constraint=reject_all)

    def test_objective_error_carries_theta(self):
        def objective(theta):
            raise RuntimeError("boom")

        with pytest.raises(ObjectiveError) as err:
            bo_optimize(objective, CubeSpace(1), 1, 1, seed=0)
        assert err.value.theta is not None

    def test_constraint_respected_in_history(self):
        def constraint(pool):
            return pool[:, 0] < 0.5

        def objective(theta):
            return float(theta[0])

        _, history = bo_optimize(objective, CubeSpace(1), 5, 3, seed=3,
                                 constraint=constraint)
        assert all(t.theta[0] < 0.5 for t in history)


class TestPoolConstraint:
    @pytest.mark.parametrize("mask", [
        lambda pool: True,  # a per-point callable's scalar
        lambda pool: np.bool_(False),
        lambda pool: np.ones(len(pool) - 1, dtype=bool),
        lambda pool: np.ones((len(pool), 1), dtype=bool),
        lambda pool: np.ones(len(pool)),  # not boolean
        lambda pool: [True] * len(pool) + [False],
    ])
    def test_draw_rejects_bad_mask(self, mask):
        with pytest.raises(DomainError):
            bayesopt._draw_feasible(np.random.default_rng(0), 2, mask)

    def test_draw_keeps_masked_rows_in_order(self):
        cands = np.random.default_rng(5).uniform(size=(bayesopt.N_CANDIDATES,
                                                       2))
        kept = bayesopt._draw_feasible(np.random.default_rng(5), 2,
                                       lambda pool: pool[:, 1] > 0.7)
        np.testing.assert_array_equal(kept, cands[cands[:, 1] > 0.7])

    @pytest.mark.parametrize("threshold", [1.0, 0.002])
    def test_bo_calls_constraint_once_per_pool(self, threshold):
        accepted = []

        def constraint(pool):
            assert pool.shape == (bayesopt.N_CANDIDATES, 2)
            keep = pool[:, 0] < threshold
            accepted.append(int(keep.sum()))
            return keep

        n_init, iters = 6, 3
        _, history = bo_optimize(lambda theta: float(theta[1]), CubeSpace(2),
                                 iters, n_init, seed=4, constraint=constraint)
        assert len(history) == n_init + iters
        # Initial pools are drawn until n_init points pass, then one pool
        # per proposal.
        init_pools = int(np.searchsorted(np.cumsum(accepted), n_init)) + 1
        assert len(accepted) == init_pools + iters
        assert (init_pools > 1) == (threshold < 1.0)
