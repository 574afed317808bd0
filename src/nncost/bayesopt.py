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

At sigma = 0 the expected improvement uses the analytic limit
max(mu - best, 0), which keeps the acquisition nonnegative everywhere.
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
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / _SQRT2))


def _norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


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
    X: np.ndarray
    y_mean: float
    signal_var: float
    length_scales: np.ndarray
    jitter: float
    L: np.ndarray = field(repr=False)
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
    # (m, n, d) array of differences, without numpy's inner loop running
    # over runs of length d.
    planes = [((A[:, j, None] - B[None, :, j]) / ell[j]) ** 2
              for j in range(A.shape[1])]
    sq = _reduce_sum(planes) if planes else np.zeros((len(A), len(B)))
    return signal_var * np.exp(-0.5 * sq)


def _reduce_sum(terms: list) -> np.ndarray:
    """Sum of equal-shape arrays, added in the order np.add.reduce adds the
    elements of a contiguous axis of length len(terms) (its pairwise sum):
    one by one below 8 terms; up to 128 terms, eight running sums over
    blocks of 8, combined pairwise, then the leftover terms one by one;
    above 128, the halves apart, the first rounded down to a multiple of 8.
    Accumulates into the arrays of ``terms``."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reduce_sum(terms[:half]) + _reduce_sum(terms[half:])
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    r = terms[:8]
    for start in range(8, n - n % 8, 8):
        for j in range(8):
            r[j] += terms[start + j]
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    total = r[0]
    for term in terms[n - n % 8:]:
        total += term
    return total


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
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(X.shape[0]))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-4:
                raise SingularCovariance(
                    "covariance not positive definite at jitter 1e-4")
    Kj = K + jitter * np.eye(X.shape[0])

    def cho_solve(rhs):
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))

    alpha = cho_solve(yc)
    alpha += cho_solve(yc - Kj @ alpha)  # one refinement step
    return GPModel(X=X, y_mean=y_mean, signal_var=signal_var,
                   length_scales=ell, jitter=jitter, L=L, alpha=alpha)


def gp_predict(model: GPModel, theta):
    """Posterior mean and standard deviation at theta (point or batch).

    A single point returns floats; an (m, d) batch returns arrays.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    pts = theta[None, :] if single else theta
    if pts.shape[1] != model.X.shape[1]:
        raise DimensionMismatch(
            f"query dimension {pts.shape[1]} != model dimension "
            f"{model.X.shape[1]}")
    k_star = _kernel_matrix(pts, model.X, model.signal_var,
                            model.length_scales)
    mu = model.y_mean + k_star @ model.alpha
    v = np.linalg.solve(model.L, k_star.T)
    var = model.signal_var - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    sigma = np.sqrt(var)
    if single:
        return float(mu[0]), float(sigma[0])
    return mu, sigma


def expected_improvement(mu, sigma, f_plus):
    """E[max(X - f_plus, 0)] for X ~ N(mu, sigma^2); nonnegative by construction."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise DomainError("sigma must be nonnegative")
    scalar = mu.ndim == 0
    mu, sigma = np.atleast_1d(mu), np.atleast_1d(sigma)
    ei = np.maximum(mu - f_plus, 0.0)
    pos = sigma > 0
    if np.any(pos):
        z = (mu[pos] - f_plus) / sigma[pos]
        ei_pos = (mu[pos] - f_plus) * _norm_cdf(z) + sigma[pos] * _norm_pdf(z)
        ei = ei.copy()
        ei[pos] = np.maximum(ei_pos, 0.0)
    return float(ei[0]) if scalar else ei


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
    return cands[keep]


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
    ei = expected_improvement(mu, sigma, f_plus)
    return cands[int(np.argmax(ei))]


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
    init = _draw_feasible(init_rng, space.n_dims, constraint)
    pools = 1
    while init.shape[0] < n_init and pools < 100:
        more = _draw_feasible(init_rng, space.n_dims, constraint)
        init = np.concatenate([init, more])
        pools += 1
    if init.shape[0] == 0 or init.shape[0] < n_init:
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
