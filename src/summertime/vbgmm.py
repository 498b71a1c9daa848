"""Variational Bayesian Gaussian mixture with automatic component pruning.

Coordinate-ascent inference for a mixture with a symmetric Dirichlet prior on
the weights and independent Gaussian-Wishart priors on each component's mean
and precision.  A near-zero Dirichlet concentration drives the posterior
weight of unneeded components toward zero, so fitting with a generous
component budget selects the component count from the data.  One rule
decides which components a fit keeps: a component whose expected count N_k
is below a tenth of one point is empty.  After each E-step every empty
component leaves the fit, the remaining responsibilities are renormalized,
and later iterations update, score and bound the live components only; the
bound has stayed nondecreasing across every prune measured.  The fitted
model keeps the components of the last posterior that are not empty.

Fitting runs in z-scored feature space under a fixed prior: zero mean and
identity Wishart scale.  Each iteration's posterior is the conjugate update
for the current responsibilities, so the objective needs no expectations: it
is the bound's closed form at that posterior, normalizer ratios plus the
entropy of the responsibilities.  The reported model carries posterior
expected parameters mapped back to the original feature space, plus the
standardizer so new points can be scored.

The E-step forms each component's expected quadratic term as
``sum((diff @ W_k) * diff, axis=1)``: one (N, D) x (D, D) matrix product and
an elementwise row sum per component, so BLAS does the work.  A batched
(K, N, D) product was measured slower and holds K copies of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import digamma, gammaln, logsumexp

from .errors import (ConsistencyError, FitError, load_payload, reading_payload,
                     require_finite, save_payload)

LOG_2PI = math.log(2.0 * math.pi)

# Smallest admissible covariance eigenvalue; keeps every reported component
# usable as a density even when a cluster collapses onto a subspace.
COVARIANCE_EIGENVALUE_FLOOR = 1e-6

# Expected count below which a component is empty: a tenth of one point.
# Empty components leave the fit during CAVI and the fitted model.
EMPTY_COUNT = 0.1


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

    def to_dict(self) -> dict:
        """The payload that every model file stores its standardizer as."""
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Standardizer":
        return cls(mean=np.array(payload["mean"], dtype=float),
                   std=np.array(payload["std"], dtype=float))


@dataclass(frozen=True)
class FitSettings:
    """Component budget, stopping rule and prior hyperparameters.

    The prior acts in z-scored space: a symmetric Dirichlet with
    concentration ``dirichlet_alpha0`` on the weights, and per component a
    Gaussian-Wishart with mean zero, precision scale ``beta0``, Wishart
    scale the identity and ``nu0`` degrees of freedom.
    """

    k_max: int = 20
    dirichlet_alpha0: float = 1e-3
    beta0: float = 1.0
    nu0: float | None = None  # None: feature dimension + 1
    tol: float = 1e-6
    max_iter: int = 500

    def validate(self) -> None:
        if self.k_max < 1:
            raise FitError("k_max must be positive")
        if self.dirichlet_alpha0 <= 0:
            raise FitError("dirichlet_alpha0 must be positive")
        if self.beta0 <= 0:
            raise FitError("beta0 must be positive")
        if self.tol <= 0:
            raise FitError("tol must be positive")
        if self.max_iter < 1:
            raise FitError("max_iter must be positive")
        for name in ("dirichlet_alpha0", "beta0", "nu0", "tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise FitError(f"{name} must be finite")


@dataclass(frozen=True)
class MixtureModel:
    """Fitted mixture: weights, means and covariances in original feature space.

    ``weights`` sum to 1 over the surviving components; ``means`` is (K, D)
    and ``covariances`` is (K, D, D).  ``elbo_trace`` is the objective value
    after each training iteration (nondecreasing), in z-scored space.
    """

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
        # Cache z-space Cholesky factors once; scoring happens per window and
        # is on the hot path of every cross-validation fold.
        scale = self.standardizer.std
        z_means = (means - self.standardizer.mean) / scale
        z_covs = covs / np.outer(scale, scale)[None, :, :]
        chols = np.empty_like(z_covs)
        log_dets = np.empty(k)
        for j in range(k):
            try:
                chols[j] = np.linalg.cholesky(z_covs[j])
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"component {j}: covariance is not positive definite"
                ) from None
            log_dets[j] = 2.0 * np.log(np.diag(chols[j])).sum()
        object.__setattr__(self, "_z_means", z_means)
        object.__setattr__(self, "_z_chols", chols)
        object.__setattr__(self, "_z_log_dets", log_dets)

    @property
    def component_count(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _z_log_component_densities(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """(N, K) log N(z_n | mu_k, Sigma_k) in z-scored space."""
    data = np.atleast_2d(data)
    if data.shape[1] != model.dim:
        raise ValueError(
            f"input has {data.shape[1]} features, model expects {model.dim}"
        )
    z = model.standardizer.transform(data)
    n, d = z.shape
    out = np.empty((n, model.component_count))
    for j in range(model.component_count):
        diff = z - model._z_means[j]
        sol = solve_triangular(model._z_chols[j], diff.T, lower=True)
        quad = np.sum(sol * sol, axis=0)
        out[:, j] = -0.5 * (d * LOG_2PI + model._z_log_dets[j] + quad)
    return out


def component_log_scores(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """(N, K) unnormalized log posterior over components: ln w_k + ln N_k(z)."""
    return np.log(model.weights)[None, :] + _z_log_component_densities(model, data)


def _softmax_rows(log_weights: np.ndarray) -> np.ndarray:
    return np.exp(log_weights - logsumexp(log_weights, axis=1, keepdims=True))


def responsibilities(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """(N, K) posterior component probabilities; rows sum to 1."""
    return _softmax_rows(component_log_scores(model, data))


def assign(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Hard assignment: index of the most probable component per point.

    Ties go to the lowest component index.
    """
    return np.argmax(component_log_scores(model, data), axis=1)


def log_density(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Per-point log density of the mixture in original feature space."""
    scores = component_log_scores(model, data)
    jacobian = np.log(model.standardizer.std).sum()
    return logsumexp(scores, axis=1) - jacobian


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


def _kmeans_pp_centers(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ center selection (selection only, no Lloyd iterations)."""
    n = z.shape[0]
    centers = [z[rng.integers(n)]]
    d2 = np.sum((z - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass sits on already-chosen points; fall back to
            # a uniform draw so we still return k centers.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers.append(z[idx])
        d2 = np.minimum(d2, np.sum((z - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _initial_responsibilities(z: np.ndarray, k: int,
                              rng: np.random.Generator) -> np.ndarray:
    centers = _kmeans_pp_centers(z, k, rng)
    d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((z.shape[0], k))
    resp[np.arange(z.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return resp


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


def _update_posterior(z: np.ndarray, resp: np.ndarray, alpha0: float, beta0: float,
                      nu0: float) -> _Posterior:
    """Bishop (10.58)-(10.63) under the fixed prior m0 = 0, W0 = I."""
    dim = z.shape[1]
    nk = resp.sum(axis=0)
    alpha, beta, nu = alpha0 + nk, beta0 + nk, nu0 + nk
    xbar = (resp.T @ z) / np.maximum(nk, 1e-300)[:, None]
    scatter = np.empty((len(nk), dim, dim))
    for j, (r, x) in enumerate(zip(resp.T, xbar)):
        centred = z - x
        scatter[j] = (r[:, None] * centred).T @ centred
    eye = np.eye(dim)
    w_inv = (eye + scatter
             + (beta0 * nk / beta)[:, None, None] * (xbar[:, :, None] * xbar[:, None, :]))
    chols = [cho_factor(matrix, lower=True) for matrix in w_inv]
    inverses = np.array([cho_solve(chol, eye) for chol in chols])
    w = 0.5 * (inverses + inverses.transpose(0, 2, 1))
    log_det_w = np.array([-2.0 * np.log(np.diag(chol)).sum() for chol, _ in chols])
    rows = np.arange(dim)[None, :]
    return _Posterior(
        nk=nk, alpha=alpha, beta=beta,
        m=(nk[:, None] * xbar) / beta[:, None], nu=nu, w_inv=w_inv, w=w,
        log_det_w=log_det_w,
        e_log_pi=digamma(alpha) - digamma(alpha.sum()),
        e_log_det=(digamma((nu[:, None] - rows) / 2.0).sum(axis=1)
                   + dim * math.log(2.0) + log_det_w),
    )


def _expected_log_likelihood_terms(z: np.ndarray, post: _Posterior) -> np.ndarray:
    """(N, K) matrix of E_q[ln pi_k] + 0.5 E_q[ln|Lambda_k|] - 0.5 E_q[quad]."""
    n, dim = z.shape
    k = len(post.alpha)
    out = np.empty((n, k))
    for j in range(k):
        diff = z - post.m[j]
        quad = post.nu[j] * np.sum((diff @ post.w[j]) * diff, axis=1)
        out[:, j] = (post.e_log_pi[j] + 0.5 * post.e_log_det[j]
                     - 0.5 * (dim * LOG_2PI + dim / post.beta[j] + quad))
    return out


def _log_dirichlet_const(alpha: np.ndarray) -> float:
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum())


def _log_wishart_b(log_det_w: float, nu: float, dim: int) -> float:
    i = np.arange(1, dim + 1)
    return float(
        -0.5 * nu * log_det_w
        - 0.5 * nu * dim * math.log(2.0)
        - 0.25 * dim * (dim - 1) * math.log(math.pi)
        - gammaln((nu + 1 - i) / 2.0).sum()
    )


def _elbo(resp: np.ndarray, post: _Posterior, alpha0: float, beta0: float,
          nu0: float) -> float:
    """Bishop's bound (10.70)-(10.77) under the fixed prior m0 = 0, W0 = I.

    ``post`` must be ``_update_posterior`` of this same ``resp``.  At that
    posterior the expected log terms of each prior and its conjugate update
    cancel, and the bound is the log normalizer ratios of the Dirichlet and
    the Gaussian-Wisharts, the data's Gaussian constant and the entropy of
    ``resp`` (PRML section 10.2).  Every constant is kept: K shrinks during
    a fit, and the bound is compared across those prunes.
    """
    k, dim = post.m.shape
    gauss_wishart = (0.5 * dim * np.log(beta0 / post.beta).sum()
                     + k * _log_wishart_b(0.0, nu0, dim)
                     - sum(_log_wishart_b(log_det_w, nu, dim)
                           for log_det_w, nu in zip(post.log_det_w, post.nu)))
    dirichlet = _log_dirichlet_const(np.full(k, alpha0)) - _log_dirichlet_const(post.alpha)
    log_r = np.where(resp > 0, np.log(np.maximum(resp, 1e-300)), 0.0)
    return float(-0.5 * dim * LOG_2PI * post.nk.sum() + gauss_wishart + dirichlet
                 - (resp * log_r).sum())


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    """Clip covariance eigenvalues from below; keeps the matrix symmetric PD."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, COVARIANCE_EIGENVALUE_FLOOR)
    floored = (vecs * vals) @ vecs.T
    return 0.5 * (floored + floored.T)


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
    n, dim = data.shape
    if n < 2:
        raise FitError(f"need at least 2 training points, got {n}")
    nu0 = float(settings.nu0) if settings.nu0 is not None else dim + 1.0
    if nu0 < dim:
        raise FitError(f"degrees of freedom {nu0} below dimension {dim}")

    standardizer = Standardizer.fit(data)
    z = standardizer.transform(data)
    k = min(settings.k_max, n)
    alpha0, beta0 = settings.dirichlet_alpha0, settings.beta0

    rng = np.random.default_rng(seed)
    resp = _initial_responsibilities(z, k, rng)

    elbo_trace: list[float] = []
    for _ in range(settings.max_iter):
        post = _update_posterior(z, resp, alpha0, beta0, nu0)
        elbo = _elbo(resp, post, alpha0, beta0, nu0)
        if not math.isfinite(elbo):
            raise FitError("objective became non-finite during fitting")
        previous = elbo_trace[-1] if elbo_trace else None
        if previous is not None and elbo < previous - 1e-8:
            raise ConsistencyError(
                f"objective decreased from {previous:.10f} to {elbo:.10f}"
            )
        converged = (
            previous is not None
            and abs(elbo - previous) / max(1.0, abs(elbo)) < settings.tol
        )
        elbo_trace.append(elbo)
        if converged:
            break
        log_lik = _expected_log_likelihood_terms(z, post)
        resp = _softmax_rows(log_lik)
        # Some column holds at least n / k >= 1 point, so one always stays.
        live = np.flatnonzero(resp.sum(axis=0) >= EMPTY_COUNT)
        if live.size < resp.shape[1]:
            resp = _softmax_rows(log_lik[:, live])

    # Only the first posterior, from the start, can hold empty columns (from
    # duplicate centres); it is the last when the loop stops after one step.
    keep = np.flatnonzero(post.nk >= EMPTY_COUNT)
    weights = post.alpha[keep] / post.alpha[keep].sum()

    scale = standardizer.std
    means = standardizer.inverse(post.m[keep])
    covariances = np.empty((keep.size, dim, dim))
    for out_j, j in enumerate(keep):
        cov_z = _floor_covariance(post.w_inv[j] / post.nu[j])
        covariances[out_j] = cov_z * np.outer(scale, scale)

    return MixtureModel(
        weights=weights,
        means=means,
        covariances=covariances,
        standardizer=standardizer,
        elbo_trace=tuple(elbo_trace),
        seed=seed,
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "format": "vbgmm",
        "version": 1,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
        "standardizer": model.standardizer.to_dict(),
        "elbo_trace": list(model.elbo_trace),
        "seed": model.seed,
    }


def model_from_dict(payload: dict) -> MixtureModel:
    with reading_payload(payload, "vbgmm", "mixture model"):
        standardizer = Standardizer.from_dict(payload["standardizer"])
        return MixtureModel(
            weights=np.array(payload["weights"], dtype=float),
            means=np.array(payload["means"], dtype=float),
            covariances=np.array(payload["covariances"], dtype=float),
            standardizer=standardizer,
            elbo_trace=tuple(payload.get("elbo_trace", ())),
            seed=payload.get("seed"),
        )


def save_model(model: MixtureModel, path: str | Path) -> None:
    save_payload(model_to_dict(model), path)


def load_model(path: str | Path) -> MixtureModel:
    return load_payload(path, model_from_dict)
