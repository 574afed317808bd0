"""Gaussian-process surrogate regression with expected-improvement search.

The optimizer works on the unit cube [0, 1]^d; callers map cube points to
whatever parameters they search over. Each round fits an exact GP to the
observed (theta, score) pairs, scores a fixed pool of 2048 seeded uniform
candidates by expected improvement over the incumbent best, evaluates the
winner and repeats. Candidates failing the caller's feasibility constraint
are discarded before ranking, so every evaluated point satisfies it.

The constraint sees a whole pool at a time: ``constraint(pool)`` receives
an (m, d) array of candidates and returns m booleans, one per row. Any
other shape (a scalar from a per-point callable, a wrong length) or a
non-boolean mask raises DomainError rather than being broadcast.

Kernel: squared exponential with per-dimension length scales (default 0.3
of the normalized range), signal variance set to the sample variance of the
observed scores, and a 1e-8 diagonal jitter escalated tenfold up to 1e-4
before giving up. These fixed heuristics interpolate exactly at observed
points when the jitter is the only noise, which is all that desk-scale
hyperparameter search needs; marginal-likelihood fitting is out of scope.

Each fit also forms the inverse L_inv of its Cholesky factor, once. A
round's posterior variance at m pool rows is then one (n, n) by (n, m)
product, where a solve with the factor would LU-factor it again and
substitute through every row: over ten times the cost at m = 2048 and the
3 to 24 distinct trials n a search observes. The variance moves from the
solve's by rounding only, by at most 1e-7 of the signal variance
(near-duplicate points at a signal variance of 1e9 included), as the tests
hold.

At sigma = 0 the expected improvement uses the analytic limit
max(mu - best, 0), which keeps the acquisition nonnegative everywhere.

A round calls erf only at the pool rows that can win the argmax. With
gain = mu - best and t = sigma pdf(gain / sigma), each rounded as the
expected improvement rounds them, a row's value is max(gain cdf + t, 0).
libm's erf has the sign of its argument and |erf| <= 1, so the computed
cdf lies in [0, 1/2] when gain < 0 and in [1/2, 1] otherwise. IEEE
rounding is monotone, so the computed value lies in [lo, hi] with
lo = max(fl(gain / 2 + t), 0) and hi = fl(max(gain, 0) + t). A row whose
hi is below the largest lo cannot win. The rows kept, every row that ties
the maximum among them, get the expected improvement, bit for bit as over
the whole pool, and the earliest of the best wins as before. On a
criterion-10 sweep the bounds keep about a quarter of the rows. A pool
with a sigma of 0 or a non-finite gain is scored whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, DomainError, InfeasibleSpace,
                     ObjectiveError, SingularCovariance)

N_CANDIDATES = 2048

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _erf(x: np.ndarray) -> np.ndarray:
    """``math.erf`` of every element, same shape: libm's erf per value, as
    numpy has no erf of its own."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _norm_cdf(z):
    cdf = _erf(np.asarray(z, dtype=float) / _SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


@dataclass(frozen=True)
class Trial:
    """One observed point: parameters, objective score, optional cost totals."""

    theta: np.ndarray
    score: float
    cost: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta",
                           np.atleast_1d(np.asarray(self.theta, dtype=float)))
        if not math.isfinite(self.score):
            raise DomainError("trial score must be finite")


@dataclass(frozen=True)
class GPParams:
    """Kernel hyperparameters; None fields resolve from the data at fit time."""

    length_scales: float | np.ndarray = 0.3
    signal_var: float | None = None
    jitter: float = 1e-8


@dataclass
class GPModel:
    """A fitted GP: the distinct observed points X, the centred scores'
    weights alpha = (K + jitter I)^-1 (y - y_mean), and the inverse L_inv of
    the Cholesky factor of K + jitter I, formed once per fit so that each
    pool's posterior variance is one product with it."""

    X: np.ndarray
    y_mean: float
    signal_var: float
    length_scales: np.ndarray
    jitter: float
    L_inv: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)


def kernel(x, x_prime, params: GPParams) -> float:
    """Squared-exponential covariance between two points: the pair's entry
    of ``_kernel_matrix``, which the GP is fitted with."""
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if x.shape != x_prime.shape:
        raise DimensionMismatch(
            f"kernel arguments have shapes {x.shape} and {x_prime.shape}")
    ell = np.broadcast_to(np.asarray(params.length_scales, dtype=float),
                          x.shape)
    sv = 1.0 if params.signal_var is None else params.signal_var
    return float(_kernel_matrix(x.reshape(1, -1), x_prime.reshape(1, -1), sv,
                                ell.reshape(-1))[0, 0])


def _kernel_matrix(A: np.ndarray, B: np.ndarray, signal_var: float,
                   ell: np.ndarray) -> np.ndarray:
    # One (m, n) plane of squared scaled differences per dimension, summed
    # in np.add.reduce's order: bitwise the sum over the last axis of the
    # (m, n, d) array of differences. Below 8 terms that order is one by
    # one, in place, without numpy's inner loop running over runs of
    # length d; from 8 on it is pairwise, and the stacked planes are
    # reduced. Every rounding is the one of
    # signal_var * exp(-0.5 * sum_j ((A_j - B_j) / ell_j) ** 2).
    planes = []
    for j in range(A.shape[1]):
        plane = A[:, j, None] - B[None, :, j]
        plane /= ell[j]
        planes.append(np.square(plane, out=plane))
    if not planes:
        sq = np.zeros((len(A), len(B)))
    elif len(planes) < 8:
        sq = planes[0]
        for plane in planes[1:]:
            sq += plane
    else:
        sq = np.add.reduce(np.stack(planes, axis=-1), axis=-1)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_var
    return sq


def gp_fit(trials, params: GPParams | None = None) -> GPModel:
    """Exact GP regression over the observed trials.

    Duplicate parameter vectors collapse to their best score before fitting
    so the covariance stays nonsingular.
    """
    if not trials:
        raise DomainError("gp_fit needs at least one trial")
    params = params or GPParams()
    best: dict[bytes, Trial] = {}  # replacing a value keeps its position
    for trial in trials:
        key = np.ascontiguousarray(trial.theta).tobytes()
        if key not in best or trial.score > best[key].score:
            best[key] = trial
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
    K = _kernel_matrix(X, X, signal_var, ell)
    jitter = params.jitter
    while True:
        Kj = K + jitter * np.eye(X.shape[0])
        try:
            L = np.linalg.cholesky(Kj)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-4:
                raise SingularCovariance(
                    "covariance not positive definite at jitter 1e-4")

    def cho_solve(rhs):
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))

    alpha = cho_solve(yc)
    alpha += cho_solve(yc - Kj @ alpha)  # one refinement step
    return GPModel(X=X, y_mean=y_mean, signal_var=signal_var,
                   length_scales=ell, jitter=jitter,
                   L_inv=np.linalg.solve(L, np.eye(len(X))), alpha=alpha)


def gp_predict(model: GPModel, theta):
    """Posterior mean and standard deviation at theta (point or batch).

    A single point returns floats; an (m, d) batch returns arrays. The
    variance is signal_var - |L_inv k*|^2 with the fit's inverse factor, one
    product for the whole batch and no LAPACK call; it lies within 1e-7
    signal_var of the one a solve with the factor gives.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    pts = theta[None, :] if single else theta
    if pts.ndim != 2 or pts.shape[1] != model.X.shape[1]:
        raise DimensionMismatch(f"query of shape {theta.shape} does not fit "
                                f"the model's points of shape {model.X.shape}")
    k_star = _kernel_matrix(pts, model.X, model.signal_var,
                            model.length_scales)
    mu = k_star @ model.alpha
    mu += model.y_mean
    v = model.L_inv @ k_star.T
    # signal_var - sum(v * v, axis=0), clipped at 0, square-rooted
    sigma = np.add.reduce(np.square(v, out=v), axis=0)
    np.subtract(model.signal_var, sigma, out=sigma)
    np.maximum(sigma, 0.0, out=sigma)
    np.sqrt(sigma, out=sigma)
    if single:
        return float(mu[0]), float(sigma[0])
    return mu, sigma


def expected_improvement(mu, sigma, f_plus):
    """E[max(X - f_plus, 0)] for X ~ N(mu, sigma^2); nonnegative by
    construction. mu and sigma of different shapes raise DimensionMismatch
    rather than being broadcast."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != sigma.shape:
        raise DimensionMismatch(
            f"mu of shape {mu.shape} and sigma of shape {sigma.shape} differ")
    if np.any(sigma < 0):
        raise DomainError("sigma must be nonnegative")
    scalar = mu.ndim == 0
    gain = np.atleast_1d(mu - f_plus)
    sigma = np.atleast_1d(sigma)
    pos = sigma > 0
    if pos.all():  # the usual case: no point sits on an observation
        ei = _positive_ei(gain, sigma)
    else:
        ei = np.maximum(gain, 0.0)
        if pos.any():
            ei[pos] = _positive_ei(gain[pos], sigma[pos])
    return float(ei[0]) if scalar else ei


def _z_and_pdf_term(gain: np.ndarray, sigma: np.ndarray):
    """z = gain / sigma and the term sigma pdf(z) of the expected
    improvement, pdf(z) rounded as ((-0.5 z) z), its exp, then the product
    with 1 / sqrt(2 pi)."""
    z = gain / sigma
    term = -0.5 * z
    term *= z
    np.exp(term, out=term)
    term *= _INV_SQRT_2PI
    term *= sigma
    return z, term


def _positive_ei(gain: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """max(gain cdf(z) + sigma pdf(z), 0) for z = gain / sigma, given 1-D
    arrays of gains mu - f_plus and of sigmas > 0."""
    z, term = _z_and_pdf_term(gain, sigma)
    ei = gain * _norm_cdf(z)
    ei += term
    return np.maximum(ei, 0.0, out=ei)


def _ei_argmax(mu: np.ndarray, sigma: np.ndarray, f_plus: float) -> int:
    """np.argmax(expected_improvement(mu, sigma, f_plus)) for 1-D arrays,
    with the expected improvement computed only at the rows that bounds
    free of erf cannot rule out (see the module docstring)."""
    gain = mu - f_plus
    if not (np.isfinite(gain).all() and (sigma > 0).all()):
        return int(np.argmax(expected_improvement(mu, sigma, f_plus)))
    _, term = _z_and_pdf_term(gain, sigma)
    low = 0.5 * gain
    low += term
    high = np.maximum(gain, 0.0)
    high += term
    # high >= 0, so the largest low needs no clipping at 0 to compare
    keep = np.flatnonzero(high >= low.max())
    ei = expected_improvement(mu[keep], sigma[keep], f_plus)
    return int(keep[np.argmax(ei)])


def _draw_feasible(rng: np.random.Generator, n_dims: int,
                   constraint) -> np.ndarray:
    """One candidate pool with infeasible points removed, order kept."""
    cands = rng.uniform(size=(N_CANDIDATES, n_dims))
    if constraint is None:
        return cands
    keep = np.asarray(constraint(cands))
    if keep.shape != (N_CANDIDATES,) or keep.dtype != bool:
        raise DomainError(
            f"constraint must map a ({N_CANDIDATES}, {n_dims}) pool to "
            f"{N_CANDIDATES} booleans, got shape {keep.shape} of {keep.dtype}")
    return cands.compress(keep, axis=0)  # cands[keep], in one gather


def propose_next(model: GPModel, space, f_plus: float, constraint=None,
                 seed=0) -> np.ndarray:
    """Highest-EI point among 2048 seeded uniform feasible candidates.

    ``constraint(pool)``, if given, maps the (2048, d) candidate pool to
    2048 booleans and is called once. Ties break toward the earliest-drawn
    candidate. Raises InfeasibleSpace when the whole pool fails the
    constraint.
    """
    rng = np.random.default_rng(seed)
    cands = _draw_feasible(rng, space.n_dims, constraint)
    if cands.shape[0] == 0:
        raise InfeasibleSpace("no candidate satisfies the constraint")
    mu, sigma = gp_predict(model, cands)
    return cands[_ei_argmax(mu, sigma, f_plus)]


@dataclass
class CubeSpace:
    """Plain unit-cube search domain for direct use of the optimizer."""

    n_dims: int


def _evaluate(objective, theta: np.ndarray) -> Trial:
    try:
        result = objective(theta)
    except Exception as exc:  # objective failures carry the offending theta
        raise ObjectiveError(theta, exc) from exc
    if isinstance(result, tuple):
        score, cost = result
        return Trial(theta=theta, score=float(score), cost=cost)
    return Trial(theta=theta, score=float(result))


def bo_optimize(objective, space, max_iters: int, n_init: int, seed: int = 0,
                constraint=None) -> tuple[Trial, list[Trial]]:
    """Fit-propose-evaluate loop; returns the best trial and the full history.

    ``objective(theta)`` maps a unit-cube point to a finite score (or a
    (score, cost) pair). ``constraint(pool)``, if given, maps an (m, d)
    candidate pool to m booleans; it is called once per drawn pool. The
    history holds exactly n_init random trials followed by max_iters
    proposals, all satisfying the constraint.
    """
    if max_iters < 1:
        raise DomainError("max_iters must be >= 1")
    if n_init < 1:
        raise DomainError("n_init must be >= 1")
    init_rng = np.random.default_rng([seed, 0])
    init, pools = np.empty((0, space.n_dims)), 0
    while init.shape[0] < n_init and pools < 100:
        more = _draw_feasible(init_rng, space.n_dims, constraint)
        init = np.concatenate([init, more])
        pools += 1
    if init.shape[0] < n_init:
        raise InfeasibleSpace(
            "could not collect enough feasible initial points")
    history = [_evaluate(objective, theta) for theta in init[:n_init]]
    for it in range(max_iters):
        model = gp_fit(history)
        f_plus = max(t.score for t in history)
        theta = propose_next(model, space, f_plus, constraint,
                             seed=[seed, 1, it])
        history.append(_evaluate(objective, theta))
    best = max(history, key=lambda t: t.score)
    return best, history
