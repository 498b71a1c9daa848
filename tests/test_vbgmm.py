"""Variational mixture fitting: recovery, monotonicity, densities, pruning."""

import hashlib

import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma, gammaln, multigammaln, xlogy
from scipy.stats import wishart

from summertime import vbgmm
from summertime.dataset import SyntheticConfig, generate_synthetic
from summertime.errors import FitError
from summertime.features import featurize_corpus, stack_features
from summertime.vbgmm import (
    FitSettings,
    Standardizer,
    _elbo,
    _expected_log_likelihood_terms,
    _initial_responsibilities,
    _update_posterior,
    assign,
    fit_mixture,
    load_model,
    log_density,
    model_from_dict,
    model_to_dict,
    responsibilities,
    save_model,
)


def three_blob_data(rng, separation=20.0, std=1.0, per_cluster=300):
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    parts = [rng.normal(c, std, size=(per_cluster, 2)) for c in centers]
    return np.vstack(parts)


@pytest.fixture(scope="module")
def default_windows():
    """Window features of the default corpus at generator seed 7."""
    return stack_features(featurize_corpus(generate_synthetic(SyntheticConfig(), 7), 12))


def recorded_updates(monkeypatch):
    """Make every ``_update_posterior`` call of a fit append its (z, resp) to
    the returned list."""
    calls = []
    update = vbgmm._update_posterior

    def recording(z, resp, *args):
        calls.append((z, resp))
        return update(z, resp, *args)

    monkeypatch.setattr(vbgmm, "_update_posterior", recording)
    return calls


def test_recovers_three_components_and_monotone_elbo():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = three_blob_data(rng)
        model = fit_mixture(data, FitSettings(k_max=10), seed=seed)
        diffs = np.diff(model.elbo_trace)
        assert np.all(diffs >= -1e-8), f"seed {seed}: ELBO decreased"
        if model.component_count == 3:
            hits += 1
    assert hits >= 19


def test_weights_form_a_distribution_and_match_cluster_sizes():
    rng = np.random.default_rng(7)
    data = three_blob_data(rng)
    model = fit_mixture(data, FitSettings(k_max=10), seed=0)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.weights > 0)
    np.testing.assert_allclose(model.weights, [1 / 3] * 3, atol=0.05)


def test_responsibilities_normalize_and_assign_is_argmax():
    rng = np.random.default_rng(21)
    data = three_blob_data(rng)
    model = fit_mixture(data, FitSettings(k_max=6), seed=1)
    points = rng.normal(10.0, 8.0, size=(1000, 2))
    gamma = responsibilities(model, points)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(assign(model, points), gamma.argmax(axis=1))


def test_assignments_recover_true_clusters():
    rng = np.random.default_rng(3)
    data = three_blob_data(rng, per_cluster=200)
    model = fit_mixture(data, FitSettings(k_max=8), seed=3)
    assert model.component_count == 3
    labels = assign(model, data)
    # each true blob maps to one component, purely
    for i in range(3):
        block = labels[i * 200:(i + 1) * 200]
        counts = np.bincount(block, minlength=3)
        assert counts.max() == 200


def test_log_density_integrates_to_one_in_1d():
    rng = np.random.default_rng(5)
    data = np.concatenate([
        rng.normal(-4.0, 1.0, size=400),
        rng.normal(4.0, 0.7, size=400),
    ]).reshape(-1, 1)
    model = fit_mixture(data, FitSettings(k_max=5), seed=2)

    def dens(x):
        return float(np.exp(log_density(model, np.array([[x]]))[0]))

    total, err = integrate.quad(dens, -30.0, 30.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_is_higher_on_cluster_centers_than_off():
    rng = np.random.default_rng(9)
    data = three_blob_data(rng)
    model = fit_mixture(data, FitSettings(k_max=6), seed=4)
    on = log_density(model, np.array([[0.0, 0.0], [20.0, 0.0]]))
    off = log_density(model, np.array([[10.0, 10.0]]))
    assert on.min() > off.max() + 5.0


def test_single_component_cap():
    rng = np.random.default_rng(17)
    data = rng.normal(5.0, 2.0, size=(300, 3))
    model = fit_mixture(data, FitSettings(k_max=1), seed=0)
    assert model.component_count == 1
    np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=0.3)


def test_small_components_are_pruned():
    rng = np.random.default_rng(2)
    data = three_blob_data(rng, per_cluster=250)
    model = fit_mixture(data, FitSettings(k_max=20), seed=5)
    # a kept component holds at least a tenth of one point
    assert np.all(model.weights >= 1.0 / (10 * len(data)))
    assert model.component_count <= 6


def test_fit_rejects_bad_inputs():
    with pytest.raises(FitError, match="non-finite"):
        fit_mixture(np.array([[np.inf, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(FitError, match="at least 2"):
        fit_mixture(np.array([[1.0, 2.0]]))
    data = three_blob_data(np.random.default_rng(0), per_cluster=10)
    for settings, field in [
        (FitSettings(max_iter=0), "max_iter"),
        (FitSettings(tol=0.0), "tol"),
        (FitSettings(k_max=0), "k_max"),
        (FitSettings(tol=float("nan")), "tol"),
        (FitSettings(beta0=float("inf")), "beta0"),
        (FitSettings(dirichlet_alpha0=float("inf")), "dirichlet_alpha0"),
    ]:
        with pytest.raises(FitError, match=f"^{field} must be"):
            fit_mixture(data, settings)


def bishop_posterior_and_elbo(z, resp, alpha0, beta0, nu0):
    """PRML (10.58)-(10.63) with explicit inverses, and the bound as the sum of
    (10.71)-(10.77) with every data term taken per point.  The prior mean is
    zero and the Wishart scale the identity."""
    n, d = z.shape
    k = resp.shape[1]
    m0, w0 = np.zeros(d), np.eye(d)
    nk = resp.sum(axis=0)
    xbar = np.array([resp[:, j] @ z / nk[j] for j in range(k)])
    s = [sum(resp[i, j] * np.outer(z[i] - xbar[j], z[i] - xbar[j]) for i in range(n))
         / nk[j] for j in range(k)]
    alpha, beta, nu = alpha0 + nk, beta0 + nk, nu0 + nk
    m = np.array([(beta0 * m0 + nk[j] * xbar[j]) / beta[j] for j in range(k)])
    w_inv = np.array([
        np.linalg.inv(w0) + nk[j] * s[j]
        + beta0 * nk[j] / (beta0 + nk[j]) * np.outer(xbar[j] - m0, xbar[j] - m0)
        for j in range(k)
    ])
    w = np.array([np.linalg.inv(w_inv[j]) for j in range(k)])

    def log_b(scale, dof):
        return (-0.5 * dof * np.linalg.slogdet(scale)[1] - 0.5 * dof * d * np.log(2.0)
                - multigammaln(dof / 2.0, d))

    def log_c(a):
        return gammaln(a.sum()) - gammaln(a).sum()

    ln_pi = digamma(alpha) - digamma(alpha.sum())
    ln_lam = np.array([digamma((nu[j] + 1 - np.arange(1, d + 1)) / 2.0).sum()
                       + d * np.log(2.0) + np.linalg.slogdet(w[j])[1]
                       for j in range(k)])
    p_x = sum(0.5 * resp[i, j] * (ln_lam[j] - d / beta[j]
                                  - nu[j] * (z[i] - m[j]) @ w[j] @ (z[i] - m[j])
                                  - d * np.log(2.0 * np.pi))
              for i in range(n) for j in range(k))
    p_z = sum(resp[i, j] * ln_pi[j] for i in range(n) for j in range(k))
    p_pi = log_c(np.full(k, alpha0)) + (alpha0 - 1.0) * ln_pi.sum()
    p_mu_lam = k * log_b(w0, nu0) + 0.5 * (nu0 - d - 1.0) * ln_lam.sum() + sum(
        0.5 * (d * np.log(beta0 / (2.0 * np.pi)) + ln_lam[j] - d * beta0 / beta[j]
               - beta0 * nu[j] * (m[j] - m0) @ w[j] @ (m[j] - m0))
        - 0.5 * nu[j] * np.trace(np.linalg.inv(w0) @ w[j])
        for j in range(k)
    )
    q_z = xlogy(resp, resp).sum()
    q_pi = ((alpha - 1.0) * ln_pi).sum() + log_c(alpha)
    q_mu_lam = sum(0.5 * ln_lam[j] + 0.5 * d * np.log(beta[j] / (2.0 * np.pi)) - 0.5 * d
                   - wishart(df=nu[j], scale=w[j]).entropy()
                   for j in range(k))
    posterior = {"alpha": alpha, "beta": beta, "m": m, "nu": nu, "w_inv": w_inv, "w": w,
                 "e_log_pi": ln_pi, "e_log_det": ln_lam}
    return posterior, p_x + p_z + p_pi + p_mu_lam - q_z - q_pi - q_mu_lam


def bishop_log_rho(z, posterior):
    """PRML (10.46) per point and component, with the expectations (10.64)-(10.66)
    read from a posterior whose W_k are explicit inverses; normalizing each row
    gives the responsibilities (10.67)."""
    n, d = z.shape
    k = len(posterior["alpha"])
    out = np.empty((n, k))
    for i in range(n):
        for j in range(k):
            diff = z[i] - posterior["m"][j]
            quad = d / posterior["beta"][j] + posterior["nu"][j] * diff @ posterior["w"][j] @ diff
            out[i, j] = (posterior["e_log_pi"][j] + 0.5 * posterior["e_log_det"][j]
                         - 0.5 * d * np.log(2.0 * np.pi) - 0.5 * quad)
    return out


def assert_matches_the_per_point_textbook_bound(z, resp, alpha0, beta0, nu0):
    post = _update_posterior(z, resp, alpha0, beta0, nu0)
    want, want_elbo = bishop_posterior_and_elbo(z, resp, alpha0, beta0, nu0)
    for name, value in want.items():
        np.testing.assert_allclose(getattr(post, name), value, rtol=1e-10, atol=0,
                                   err_msg=name)
    assert _elbo(resp, post, alpha0, beta0, nu0) == pytest.approx(want_elbo, rel=1e-10)
    np.testing.assert_allclose(_expected_log_likelihood_terms(z, post),
                               bishop_log_rho(z, want), rtol=1e-10, atol=0)


@pytest.mark.parametrize("start", ["dirichlet", "one_hot"])
def test_update_and_objective_match_the_per_point_textbook_bound(start):
    # The one-hot k-means++ start is where every fit takes its first bound;
    # its exact zeros take the 0 ln 0 = 0 convention in the entropy.
    rng = np.random.default_rng(61)
    n, d, k = 60, 3, 4
    z = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
    if start == "dirichlet":
        resp = rng.dirichlet(np.ones(k), size=n)
    else:
        resp = _initial_responsibilities(z, k, rng)
        assert np.all(resp.sum(axis=0) > 0) and np.any(resp == 0)
    assert_matches_the_per_point_textbook_bound(z, resp, 1e-3, 1.0, d + 1.0)


def test_default_corpus_fit_is_pinned(default_windows):
    """Iteration counts, K, the final bound and every window's label on the
    default corpus.  K and the labels date from before the E-step became a
    matrix product; the iterations and the bound from when components began
    leaving the fit during CAVI, which sums the bound over fewer components."""
    data = default_windows
    label_digests = ["011d1b78a35af4df9c3954c86ffef1931b7955d391fff44b1222c368fe56926a",
                     "a1549ea229b7c00a066d9847545313aa9bc53c1132fb81adb8899b499076836b",
                     "54f1f309877b0d40accc32605b66eff609366f087835e450f4a0f5870edf38e5",
                     "d57b2f3002636da9670c588f4993775b8008a4c4c49b1d933326b9fa41598365"]
    for seed, (iterations, digest) in enumerate(zip([11, 7, 11, 6], label_digests)):
        model = fit_mixture(data, seed=seed)
        assert len(model.elbo_trace) == iterations, seed
        assert model.component_count == 5, seed
        assert model.elbo_trace[-1] == pytest.approx(21647.242227010487, rel=1e-12), seed
        labels = assign(model, data).astype(np.int64)
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest, seed


def test_components_leave_the_fit_during_cavi(default_windows, monkeypatch):
    calls = recorded_updates(monkeypatch)
    model = fit_mixture(default_windows, seed=0)
    widths = [resp.shape[1] for _, resp in calls]
    assert len(widths) == len(model.elbo_trace)
    assert widths[0] == 20
    assert all(later <= earlier for earlier, later in zip(widths, widths[1:])), widths
    assert min(widths[:-1]) < 20, widths
    assert widths[-1] == model.component_count
    assert np.all(np.diff(model.elbo_trace) >= -1e-8)


def test_update_after_a_prune_matches_the_per_point_textbook_bound(monkeypatch):
    calls = recorded_updates(monkeypatch)
    settings = FitSettings(k_max=8)
    fit_mixture(three_blob_data(np.random.default_rng(3), per_cluster=15), settings, seed=1)
    widths = [resp.shape[1] for _, resp in calls]
    pruned = next(i for i in range(1, len(widths)) if widths[i] < widths[i - 1])
    z, resp = calls[pruned]
    assert np.all(resp.sum(axis=0) >= 0.1)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)
    assert_matches_the_per_point_textbook_bound(
        z, resp, settings.dirichlet_alpha0, settings.beta0, z.shape[1] + 1.0)


def test_in_loop_pruning_edge_cases():
    two = np.array([[0.0, 1.0], [2.0, 3.0]])
    model = fit_mixture(two, FitSettings(k_max=1))
    assert (model.component_count, len(model.elbo_trace)) == (1, 2)
    model = fit_mixture(two)
    assert (model.component_count, len(model.elbo_trace)) == (2, 6)
    assert np.all(np.diff(model.elbo_trace) >= -1e-8)


def test_empty_start_components_leave_the_fitted_model():
    # Three distinct points, five copies each, and k = 10 start centres: the
    # k-means++ draw runs out of distance mass and repeats centres, which
    # leave empty columns.  After one iteration the last posterior is that
    # start, so the post-loop rule alone removes them.
    data = np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 5, axis=0)
    for max_iter in (1, FitSettings().max_iter):
        for seed in range(3):
            model = fit_mixture(data, FitSettings(k_max=10, max_iter=max_iter), seed=seed)
            assert model.component_count == 3, (max_iter, seed)
            np.testing.assert_allclose(model.weights, 1 / 3, atol=1e-3)


def test_prior_degrees_of_freedom_floor():
    data = np.random.default_rng(0).normal(size=(30, 3))
    with pytest.raises(FitError, match="degrees of freedom"):
        fit_mixture(data, FitSettings(nu0=1.0))


def test_standardizer_guards_constant_columns():
    data = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
    st = Standardizer.fit(data)
    z = st.transform(data)
    np.testing.assert_allclose(z[:, 0], 0.0)
    np.testing.assert_allclose(st.inverse(z), data, atol=1e-12)


def test_covariances_are_symmetric_positive_definite():
    rng = np.random.default_rng(13)
    data = three_blob_data(rng)
    model = fit_mixture(data, FitSettings(k_max=8), seed=6)
    for cov in model.covariances:
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() > 0


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    data = three_blob_data(rng)
    model = fit_mixture(data, FitSettings(k_max=6), seed=7)
    path = tmp_path / "mix.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = rng.normal(5.0, 10.0, size=(50, 2))
    np.testing.assert_allclose(
        log_density(loaded, probe), log_density(model, probe), rtol=1e-12
    )
    np.testing.assert_array_equal(assign(loaded, probe), assign(model, probe))
    assert loaded.component_count == model.component_count


def test_serialization_rejects_foreign_payloads():
    with pytest.raises(ValueError, match="format"):
        model_from_dict({"format": "something_else", "version": 1})
    with pytest.raises(ValueError, match="no key 'standardizer'"):
        model_from_dict({"format": "vbgmm", "version": 1})
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        model_from_dict([])
    with pytest.raises(ValueError,
                       match="mixture model payload has a value of the wrong type"):
        model_from_dict({"format": "vbgmm", "version": 1, "weights": [1.0],
                         "means": [[0.0]], "covariances": [[[1.0]]],
                         "standardizer": []})
    valid = {"format": "vbgmm", "version": 1, "weights": [0.5, 0.5],
             "means": [[0.0], [1.0]], "covariances": [[[1.0]], [[1.0]]],
             "standardizer": {"mean": [0.0], "std": [1.0]}}
    model_from_dict(valid)
    nan, inf = float("nan"), float("inf")
    for key, value, message in [
        ("weights", [nan, nan], "^weights must be finite"),
        ("means", [[0.0], [inf]], "^means must be finite"),
        ("covariances", [[[1.0]], [[nan]]], "^covariances must be finite"),
        ("standardizer", {"mean": [nan], "std": [1.0]}, "^standardizer mean must be finite"),
        ("standardizer", {"mean": [0.0], "std": [inf]}, "^standardizer std must be finite"),
        ("standardizer", {"mean": [0.0], "std": [0.0]}, "^standardizer std must be positive"),
        ("standardizer", {"mean": [0.0, 0.0], "std": [1.0]},
         r"^standardizer mean and std must be 1-d and of one length, got shapes \(2,\) and \(1,\)"),
        ("standardizer", {"mean": [[0.0]], "std": [[1.0]]},
         r"^standardizer mean and std must be 1-d"),
    ]:
        with pytest.raises(ValueError, match=message):
            model_from_dict({**valid, key: value})
    # The standardizer must have one entry per mixture dimension.
    planar = {**valid, "means": [[0.0, 0.0], [1.0, 1.0]],
              "covariances": [np.eye(2).tolist()] * 2}
    with pytest.raises(ValueError,
                       match=r"^standardizer has shape \(1,\), mixture has dimension 2"):
        model_from_dict(planar)
    model_from_dict({**planar, "standardizer": {"mean": [0.0, 0.0], "std": [1.0, 1.0]}})


def test_model_dict_is_json_clean():
    import json

    rng = np.random.default_rng(41)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=5), seed=8)
    payload = model_to_dict(model)
    again = model_from_dict(json.loads(json.dumps(payload)))
    np.testing.assert_allclose(again.means, model.means, rtol=1e-15)


def test_dimension_mismatch_is_reported():
    rng = np.random.default_rng(51)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=5), seed=9)
    with pytest.raises(ValueError, match="expects 2"):
        log_density(model, np.zeros((4, 3)))
