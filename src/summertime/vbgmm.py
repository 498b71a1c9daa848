"""Variational Bayesian Gaussian mixture with automatic component pruning.

Coordinate-ascent inference for a mixture with a symmetric Dirichlet prior on
the weights and independent Gaussian-Wishart priors on each component's mean
and precision.  Fitting starts from a generous component budget, and the
variational posterior decides the component count: the expected counts N_k
of surplus components fall below 1e-8 on their own, where maximum-likelihood
EM from the same start keeps every component.  A component whose N_k is
below a tenth of one point is empty.  After each E-step every empty
component leaves the fit, the remaining responsibilities are renormalized,
and later iterations update, score and bound the live components only; the
bound has stayed nondecreasing across every prune measured.  So the prune
removes only components the posterior has already emptied: a threshold of
1e-8 keeps the same count as 0.1.  The fitted model keeps the components of
the last posterior that are not empty.

Fitting runs in z-scored feature space under one fixed prior: a symmetric
Dirichlet with concentration ``PRIOR_ALPHA0`` on the weights, and per
component a Gaussian-Wishart with mean zero, precision scale
``PRIOR_BETA0``, identity Wishart scale and D + 1 degrees of freedom.  The
prior is not a setting because the count does not hang on it: on the
default corpus every Dirichlet concentration from 1e-3 to 100 keeps the
same count; the convergence test ``CONVERGENCE_TOL`` is fixed too.  Each
iteration's posterior is the conjugate update for the current
responsibilities, so the objective needs no expectations: it is the bound's
closed form at that posterior, normalizer ratios plus the entropy of the
responsibilities.  The reported model carries posterior
expected parameters mapped back to the original feature space, plus the
standardizer so new points can be scored.

Both CAVI updates read one array built once per fit: the products z_i z_j
(i <= j) of every point, N * D(D+1)/2 floats.  The M-step takes every
component's second moments from it as one matrix product with the
responsibilities.  ``_quadratic`` forms every component's Gaussian quadratic
(z - m_k)^T P_k (z - m_k) from it as one matrix product with the packed
precision coefficients; the E-step and mixture scoring both call it, so no
update or score loops over components or holds a per-component (N, D) array.

The special functions are numpy code, so the package needs no library
beyond numpy.  ``_digamma`` (psi) and ``_gammaln`` (ln Gamma, ``math.lgamma``
elementwise) take x > 0, and every argument a fit passes is at least
``PRIOR_ALPHA0``; ``_logsumexp`` reduces the rows of a 2-d score array.  On a
log grid from 1e-4 to 1e7 both special functions are within 1e-14 of the
tests' reference values, relative to max(1, |value|): the error is relative
away from their roots (psi's at 1.46, ln Gamma's at 1 and 2) and absolute
near them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (ConsistencyError, FitError, require_count, require_finite,
                     require_rows)

LOG_2PI = math.log(2.0 * math.pi)

# Smallest admissible covariance eigenvalue; keeps every reported component
# usable as a density even when a cluster collapses onto a subspace.
COVARIANCE_EIGENVALUE_FLOOR = 1e-6

# Expected count below which a component is empty: a tenth of one point.
# Empty components leave the fit during CAVI and the fitted model.
EMPTY_COUNT = 0.1

# The prior's Dirichlet concentration and Gaussian-Wishart precision scale;
# its mean is zero, its Wishart scale the identity and its degrees of
# freedom the data's dimension plus one.
PRIOR_ALPHA0 = 1e-3
PRIOR_BETA0 = 1.0

# CAVI stops once the bound changes by less than this, relative.  No tighter
# value, down to 1e-10, changed a count or a hard label in any fit probed.
CONVERGENCE_TOL = 1e-6

# psi(y) - ln y + 1/(2y) as a polynomial in 1/y^2, highest power first: the
# Bernoulli terms -B_2n / (2n y^2n) for n = 7 down to 1.  Past y = 10 the
# first term left out is below 1e-16.
_DIGAMMA_SERIES = (-1 / 12, 691 / 32760, -1 / 132, 1 / 240, -1 / 252, 1 / 120,
                   -1 / 12, 0.0)
_DIGAMMA_SHIFT = np.arange(10.0)
_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0: psi(x + 10) by its asymptotic series, less the
    recurrence's sum of 1 / (x + i) for i < 10."""
    x = np.asarray(x, dtype=float)
    y = x + 10.0
    return (np.log(y) - 0.5 / y + np.polyval(_DIGAMMA_SERIES, 1.0 / (y * y))
            - (1.0 / np.add.outer(x, _DIGAMMA_SHIFT)).sum(axis=-1))


def _gammaln(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x) for x > 0, elementwise ``math.lgamma``."""
    return np.asarray(_LGAMMA(x), dtype=float)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mean) != 1 or np.shape(self.mean) != np.shape(self.std):
            raise ValueError(f"standardizer mean and std must be 1-d and of one length, "
                             f"got shapes {np.shape(self.mean)} and {np.shape(self.std)}")
        require_finite({"standardizer mean": self.mean, "standardizer std": self.std})
        if not np.all(np.asarray(self.std) > 0):
            raise ValueError("standardizer std must be positive")

    @classmethod
    def fit(cls, data: np.ndarray) -> "Standardizer":
        data = np.asarray(data, dtype=float)
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        # Constant features carry no information; unit scale leaves them at 0.
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (np.asarray(data, dtype=float) - self.mean) / self.std

    def inverse(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=float) * self.std + self.mean


@dataclass(frozen=True)
class FitSettings:
    """The fit budget: the starting component count ``k_max`` and the CAVI
    iteration cap ``max_iter``.  The prior (``PRIOR_ALPHA0``, ``PRIOR_BETA0``)
    and the convergence test (``CONVERGENCE_TOL``) are fixed."""

    k_max: int = 20
    max_iter: int = 500

    def validate(self) -> None:
        for name in ("k_max", "max_iter"):
            require_count(name, getattr(self, name))


@dataclass(frozen=True)
class MixtureModel:
    """Fitted mixture: weights, means and covariances in original feature space.

    ``weights`` sum to 1 over the surviving components; ``means`` is (K, D)
    and ``covariances`` is (K, D, D), each symmetric positive definite.
    ``elbo_trace`` is the objective value after each training iteration
    (nondecreasing), in z-scored space.  The z-space terms that scoring
    reads are computed when the model is built, so a malformed covariance
    fails on load.
    """

    FORMAT: ClassVar = ("vbgmm", "mixture model")

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    standardizer: Standardizer
    elbo_trace: tuple[float, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if weights.ndim != 1 or means.ndim != 2 or covs.ndim != 3:
            raise ValueError("malformed mixture parameter shapes")
        k, d = means.shape
        if weights.shape != (k,) or covs.shape != (k, d, d):
            raise ValueError("mixture parameter shapes disagree")
        if k < 1:
            raise ValueError("mixture must keep at least one component")
        if self.standardizer.mean.shape != (d,):
            raise ValueError(
                f"standardizer has shape {self.standardizer.mean.shape}, "
                f"mixture has dimension {d}"
            )
        require_finite({"weights": weights, "means": means, "covariances": covs})
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        asymmetry = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(asymmetry > 1e-12 * np.abs(covs).max(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"component {bad[0]}: covariance is not symmetric")
        self._z_terms  # computed now, so a covariance that is not PD fails here

    @functools.cached_property
    def _z_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The z-space means, precisions and log-determinants of the
        components, from one batched eigendecomposition of the z-space
        covariances; raises ValueError naming the first component whose
        covariance is not positive definite."""
        scale = self.standardizer.std
        vals, vecs = np.linalg.eigh(self.covariances / np.outer(scale, scale))
        bad = np.flatnonzero(vals[:, 0] <= 0)
        if bad.size:
            raise ValueError(f"component {bad[0]}: covariance is not positive definite")
        precisions = (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        return ((self.means - self.standardizer.mean) / scale, precisions,
                np.log(vals).sum(axis=1))

    @property
    def component_count(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def component_log_scores(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """(N, K) unnormalized log posterior over components: ln w_k + ln N_k(z),
    with N_k component k's density in z-scored space.

    Raises ValueError (``errors.require_rows``) unless ``data`` is finite, 1-d or (N, D).
    """
    z = model.standardizer.transform(require_rows(data, model.dim))
    means, precisions, log_dets = model._z_terms
    quad = _quadratic(z, _pair_products(z), precisions, means)
    return np.log(model.weights) - 0.5 * (model.dim * LOG_2PI + log_dets + quad)


def _softmax_rows(log_weights: np.ndarray) -> np.ndarray:
    """Normalize each row of log weights to probabilities."""
    row = np.maximum.reduce(log_weights, axis=1, keepdims=True)
    out = np.exp(log_weights - row)
    return np.divide(out, np.add.reduce(out, axis=1, keepdims=True, out=row), out=out)


def _logsumexp(scores: np.ndarray) -> np.ndarray:
    """ln sum_k exp(scores[:, k]) of each row, shifted by the row maximum."""
    row = np.maximum.reduce(scores, axis=1)
    return row + np.log(np.add.reduce(np.exp(scores - row[:, None]), axis=1))


def assign(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Hard assignment: index of the most probable component per point.

    Ties go to the lowest component index.
    """
    return np.argmax(component_log_scores(model, data), axis=1)


def log_density(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Per-point log density of the mixture in original feature space."""
    scores = component_log_scores(model, data)
    jacobian = np.log(model.standardizer.std).sum()
    return _logsumexp(scores) - jacobian


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


def _initial_responsibilities(z: np.ndarray, k: int,
                              rng: np.random.Generator) -> np.ndarray:
    """One-hot start: each point joins its nearest of k seeded k-means++
    centres (selection only, no Lloyd iterations).

    A point changes centre only on a strictly smaller distance, so ties go
    to the lowest centre index.
    """
    n = z.shape[0]
    d2 = np.sum((z - z[rng.integers(n)]) ** 2, axis=1)
    nearest = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass sits on already-chosen points; fall back to
            # a uniform draw so we still draw k centres.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        dist = np.sum((z - z[idx]) ** 2, axis=1)
        nearest[dist < d2] = j
        d2 = np.minimum(d2, dist)
    resp = np.zeros((n, k))
    resp[np.arange(n), nearest] = 1.0
    return resp


@functools.cache
def _upper_triangle(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dim)``, computed once per dimension and read-only:
    the (i, j) of each column of ``_pair_products``."""
    rows, cols = np.triu_indices(dim)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _pair_products(z: np.ndarray) -> np.ndarray:
    """(N, D(D+1)/2) products z_i z_j for i <= j, in ``_upper_triangle`` order."""
    n, dim = z.shape
    pairs = np.empty((n, dim * (dim + 1) // 2))
    start = 0
    for i in range(dim):
        stop = start + dim - i
        np.multiply(z[:, i, None], z[:, i:], out=pairs[:, start:stop])
        start = stop
    return pairs


@dataclass(frozen=True)
class _Posterior:
    """Variational posterior over K components in z-scored space, with the
    expected counts ``nk`` (N_k) of the responsibilities it was computed
    from, and the expectations the E-step reads."""

    nk: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    nu: np.ndarray
    w_inv: np.ndarray
    w: np.ndarray
    log_det_w: np.ndarray
    e_log_pi: np.ndarray
    e_log_det: np.ndarray


def _update_posterior(z: np.ndarray, pairs: np.ndarray, resp: np.ndarray) -> _Posterior:
    """Bishop (10.58)-(10.63) under the fixed prior.

    ``z`` is z-scored and ``pairs`` is ``_pair_products(z)``.  The scatter
    is formed from raw second moments, which stays accurate because z-scored
    data has mean zero and unit scale; on data far from the origin the
    subtraction of N_k xbar xbar^T would cancel digits.
    """
    dim = z.shape[1]
    nk = resp.sum(axis=0)
    alpha, beta, nu = PRIOR_ALPHA0 + nk, PRIOR_BETA0 + nk, dim + 1.0 + nk
    xbar = (resp.T @ z) / np.maximum(nk, 1e-300)[:, None]
    outer = xbar[:, :, None] * xbar[:, None, :]
    rows, cols = _upper_triangle(dim)
    moments = resp.T @ pairs
    second = np.empty((len(nk), dim, dim))
    second[:, rows, cols] = moments
    second[:, cols, rows] = moments
    scatter = second - nk[:, None, None] * outer
    w_inv = np.eye(dim) + scatter + (PRIOR_BETA0 * nk / beta)[:, None, None] * outer
    chols = np.linalg.cholesky(w_inv)
    inv_chols = np.linalg.inv(chols)
    w = inv_chols.transpose(0, 2, 1) @ inv_chols
    w = 0.5 * (w + w.transpose(0, 2, 1))
    log_det_w = -2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    return _Posterior(
        nk=nk, alpha=alpha, beta=beta,
        m=(nk[:, None] * xbar) / beta[:, None], nu=nu, w_inv=w_inv, w=w,
        log_det_w=log_det_w,
        e_log_pi=_digamma(alpha) - _digamma(alpha.sum()),
        e_log_det=(_digamma((nu[:, None] - np.arange(dim)) / 2.0).sum(axis=1)
                   + dim * math.log(2.0) + log_det_w),
    )


def _quadratic(z: np.ndarray, pairs: np.ndarray, precisions: np.ndarray,
               means: np.ndarray) -> np.ndarray:
    """(N, K) quadratic (z_n - m_k)^T P_k (z_n - m_k) of every point and
    component, for (K, D, D) symmetric ``precisions`` and (K, D) ``means``.

    ``pairs`` is ``_pair_products(z)``.  The quadratic expands to
    ``pairs @ C^T - 2 z (P_k m_k)^T + m_k^T P_k m_k``, where a row of C
    holds P_k's upper triangle with off-diagonal terms doubled.
    """
    rows, cols = _upper_triangle(z.shape[1])
    coef = np.where(rows == cols, 1.0, 2.0) * precisions[:, rows, cols]
    pm = (precisions @ means[:, :, None])[:, :, 0]
    return pairs @ coef.T - 2.0 * (z @ pm.T) + np.sum(pm * means, axis=1)


def _expected_log_likelihood_terms(z: np.ndarray, pairs: np.ndarray,
                                   post: _Posterior) -> np.ndarray:
    """(N, K) matrix of E_q[ln pi_k] + 0.5 E_q[ln|Lambda_k|] - 0.5 E_q[quad],
    where E_q[quad] is D / beta_k plus the quadratic of nu_k W_k about m_k."""
    dim = z.shape[1]
    quad = _quadratic(z, pairs, post.nu[:, None, None] * post.w, post.m)
    return (post.e_log_pi + 0.5 * post.e_log_det
            - 0.5 * (dim * LOG_2PI + dim / post.beta + quad))


def _log_dirichlet_const(alpha: np.ndarray) -> float:
    return float(_gammaln(alpha.sum()) - _gammaln(alpha).sum())


def _log_wishart_b(log_det_w: np.ndarray, nu: np.ndarray, dim: int) -> np.ndarray:
    """ln B(W, nu) of PRML (B.79) for each entry of ``log_det_w`` and ``nu``."""
    nu = np.asarray(nu, dtype=float)
    i = np.arange(1, dim + 1)
    return (-0.5 * nu * log_det_w
            - 0.5 * nu * dim * math.log(2.0)
            - 0.25 * dim * (dim - 1) * math.log(math.pi)
            - _gammaln((nu[..., None] + 1 - i) / 2.0).sum(axis=-1))


def _elbo(resp: np.ndarray, post: _Posterior) -> float:
    """Bishop's bound (10.70)-(10.77) under the fixed prior.

    ``post`` must be ``_update_posterior`` of this same ``resp``.  At that
    posterior the expected log terms of each prior and its conjugate update
    cancel, and the bound is the log normalizer ratios of the Dirichlet and
    the Gaussian-Wisharts, the data's Gaussian constant and the entropy of
    ``resp`` (PRML section 10.2).  Every constant is kept: K shrinks during
    a fit, and the bound is compared across those prunes.
    """
    k, dim = post.m.shape
    gauss_wishart = (0.5 * dim * np.log(PRIOR_BETA0 / post.beta).sum()
                     + k * _log_wishart_b(0.0, dim + 1.0, dim)
                     - _log_wishart_b(post.log_det_w, post.nu, dim).sum())
    dirichlet = (_log_dirichlet_const(np.full(k, PRIOR_ALPHA0))
                 - _log_dirichlet_const(post.alpha))
    log_r = np.where(resp > 0, np.log(np.maximum(resp, 1e-300)), 0.0)
    return float(-0.5 * dim * LOG_2PI * post.nk.sum() + gauss_wishart + dirichlet
                 - (resp * log_r).sum())


def fit_mixture(data: np.ndarray, settings: FitSettings | None = None,
                seed: int = 0) -> MixtureModel:
    """Fit the mixture to (N, D) training data.

    Raises FitError on invalid settings, non-finite input or too few points;
    raises ConsistencyError if the objective ever decreases by more than
    1e-8, which would indicate a broken update, not bad data.
    """
    settings = settings or FitSettings()
    settings.validate()
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise FitError(f"training data must be 2-d, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise FitError("training data contains non-finite values")
    n = data.shape[0]
    if n < 2:
        raise FitError(f"need at least 2 training points, got {n}")

    standardizer = Standardizer.fit(data)
    z = standardizer.transform(data)
    k = min(settings.k_max, n)

    rng = np.random.default_rng(seed)
    resp = _initial_responsibilities(z, k, rng)
    pairs = _pair_products(z)

    elbo_trace: list[float] = []
    for _ in range(settings.max_iter):
        post = _update_posterior(z, pairs, resp)
        elbo = _elbo(resp, post)
        if not math.isfinite(elbo):
            raise FitError("objective became non-finite during fitting")
        previous = elbo_trace[-1] if elbo_trace else None
        if previous is not None and elbo < previous - 1e-8:
            raise ConsistencyError(
                f"objective decreased from {previous:.10f} to {elbo:.10f}"
            )
        converged = (
            previous is not None
            and abs(elbo - previous) / max(1.0, abs(elbo)) < CONVERGENCE_TOL
        )
        elbo_trace.append(elbo)
        if converged:
            break
        log_lik = _expected_log_likelihood_terms(z, pairs, post)
        resp = _softmax_rows(log_lik)
        # Some column holds at least n / k >= 1 point, so one always stays.
        live = np.flatnonzero(resp.sum(axis=0) >= EMPTY_COUNT)
        if live.size < resp.shape[1]:
            resp = _softmax_rows(log_lik[:, live])

    # Only the first posterior, from the start, can hold empty columns (from
    # duplicate centres); it is the last when the loop stops after one step.
    keep = np.flatnonzero(post.nk >= EMPTY_COUNT)
    weights = post.alpha[keep] / post.alpha[keep].sum()

    # Floor the z-space covariances' eigenvalues, keeping each one PD.
    cov_z = post.w_inv[keep] / post.nu[keep, None, None]
    vals, vecs = np.linalg.eigh(0.5 * (cov_z + cov_z.transpose(0, 2, 1)))
    floored = (vecs * np.maximum(vals, COVARIANCE_EIGENVALUE_FLOOR)[:, None, :]
               @ vecs.transpose(0, 2, 1))
    scale = standardizer.std
    return MixtureModel(
        weights=weights,
        means=standardizer.inverse(post.m[keep]),
        covariances=0.5 * (floored + floored.transpose(0, 2, 1)) * np.outer(scale, scale),
        standardizer=standardizer,
        elbo_trace=tuple(elbo_trace),
        seed=seed,
    )

