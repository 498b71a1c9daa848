"""Variational mixture fitting: recovery, monotonicity, densities, pruning."""

import hashlib
import json
import re

import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma, gammaln, logsumexp, multigammaln, xlogy
from scipy.stats import multivariate_normal, wishart

from summertime import vbgmm
from summertime.dataset import SyntheticConfig, generate_synthetic
from summertime.errors import FitError, from_payload, load_payload, save_payload, to_payload
from summertime.features import WindowFeatures, featurize_corpus, stack_features
from summertime.summarize import summarize_corpus
from summertime.vbgmm import (
    FitSettings,
    MixtureModel,
    Standardizer,
    _digamma,
    _elbo,
    _expected_log_likelihood_terms,
    _gammaln,
    _initial_responsibilities,
    _pair_products,
    _softmax_rows,
    _update_posterior,
    _upper_triangle,
    assign,
    component_log_scores,
    fit_mixture,
    log_density,
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

    def recording(z, pairs, resp):
        calls.append((z, resp))
        return update(z, pairs, resp)

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


def test_the_posterior_not_the_prune_decides_the_component_count(monkeypatch):
    """Surplus components empty out on their own: a prune threshold of 1e-8
    keeps the same count as the default tenth of a point."""
    for seed in range(3):
        data = three_blob_data(np.random.default_rng(seed))
        counts = []
        for threshold in (0.1, 1e-8):
            monkeypatch.setattr(vbgmm, "EMPTY_COUNT", threshold)
            counts.append(fit_mixture(data, FitSettings(k_max=10), seed=seed).component_count)
        assert counts == [3, 3], f"seed {seed}: K {counts[0]} at 0.1, {counts[1]} at 1e-8"


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
    gamma = _softmax_rows(component_log_scores(model, points))
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


def special_error(got, want):
    """Largest |got - want| / max(1, |want|): relative error away from the
    function's roots, absolute error near them, where no evaluation by
    subtraction keeps relative digits (psi has a root at 1.46, ln Gamma at 1
    and 2)."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("ours, oracle", [(_digamma, digamma), (_gammaln, gammaln)],
                         ids=["digamma", "gammaln"])
def test_special_functions_match_scipy(ours, oracle):
    grid = np.logspace(-4, 7, 25_001)
    assert special_error(ours(grid), oracle(grid)) < 1e-14
    shaped = grid[:360].reshape(20, 18)
    assert ours(shaped).shape == shaped.shape
    for x in (1e-3, 0.5, 1.0, 1.4616321449683622, 2.0, 17.5, 3e6):
        value = ours(np.float64(x))
        assert np.ndim(value) == 0
        assert special_error(value, oracle(x)) < 1e-14


def test_digamma_identities():
    assert _digamma(1.0) == pytest.approx(-np.euler_gamma, rel=1e-14)
    # Each term is within 1e-14 of max(1, |psi|), so their difference is
    # within the sum of those two bounds.
    x = np.logspace(-4, 6, 2_001)
    error = np.abs(_digamma(x + 1.0) - _digamma(x) - 1.0 / x)
    bound = 1e-14 * (np.maximum(1.0, np.abs(digamma(x)))
                     + np.maximum(1.0, np.abs(digamma(x + 1.0))))
    assert np.all(error < bound)


def test_log_density_matches_scipy_logsumexp():
    rng = np.random.default_rng(9)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=6), seed=4)
    probe = np.vstack([rng.normal(scale=15.0, size=(200, 2)), [[1e3, -1e3], [0.0, 0.0]]])
    want = (logsumexp(component_log_scores(model, probe), axis=1)
            - np.log(model.standardizer.std).sum())
    np.testing.assert_allclose(log_density(model, probe), want, rtol=1e-14)


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
        (FitSettings(k_max=0), "k_max"),
    ]:
        with pytest.raises(FitError, match=f"^{field} must be"):
            fit_mixture(data, settings)


@pytest.mark.parametrize("field, value", [("k_max", 3.5), ("max_iter", 3.5),
                                          ("k_max", True), ("max_iter", 10.0)])
def test_settings_counts_must_be_integers(field, value):
    settings = FitSettings(**{field: value})
    with pytest.raises(FitError, match=f"^{field} must be an integer"):
        settings.validate()
    with pytest.raises(FitError, match=f"^{field} must be an integer"):
        fit_mixture(three_blob_data(np.random.default_rng(0), per_cluster=10), settings)


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


def assert_matches_the_per_point_textbook_bound(z, resp):
    pairs = _pair_products(z)
    post = _update_posterior(z, pairs, resp)
    want, want_elbo = bishop_posterior_and_elbo(z, resp, 1e-3, 1.0, z.shape[1] + 1.0)
    for name, value in want.items():
        np.testing.assert_allclose(getattr(post, name), value, rtol=1e-10, atol=0,
                                   err_msg=name)
    assert _elbo(resp, post) == pytest.approx(want_elbo, rel=1e-10)
    np.testing.assert_allclose(_expected_log_likelihood_terms(z, pairs, post),
                               bishop_log_rho(z, want), rtol=1e-10, atol=0)


@pytest.mark.parametrize("data, start", [
    pytest.param("offset", "dirichlet", id="dirichlet"),
    pytest.param("offset", "one_hot", id="one_hot"),
    pytest.param("windows", "dirichlet", id="windows-dirichlet"),
    pytest.param("windows", "one_hot", id="windows-one_hot"),
])
def test_update_and_objective_match_the_per_point_textbook_bound(default_windows, data, start):
    # The one-hot k-means++ start is where every fit takes its first bound;
    # its exact zeros take the 0 ln 0 = 0 convention in the entropy.  The
    # pair layout depends on D, so one input has the width every fit of the
    # pipeline sees: 80 default-corpus windows, z-scored as fit_mixture does.
    if data == "offset":
        rng = np.random.default_rng(61)
        n, d, k = 60, 3, 4
        z = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
    else:
        rng = np.random.default_rng(62)
        windows = default_windows[::21][:80]
        z = Standardizer.fit(windows).transform(windows)
        n, d, k = 80, 18, 5
        assert z.shape == (n, d)
    if start == "dirichlet":
        resp = rng.dirichlet(np.ones(k), size=n)
    else:
        resp = _initial_responsibilities(z, k, rng)
        assert np.all(resp.sum(axis=0) > 0) and np.any(resp == 0)
    assert_matches_the_per_point_textbook_bound(z, resp)


def two_pass_start(z, k, rng):
    """The k-means++ start in two passes: draw k centres, then give each point
    the first centre of least distance, by argmin over the (N, k, D)
    differences.  Also returns those distances."""
    n = z.shape[0]
    centers = [z[rng.integers(n)]]
    d2 = np.sum((z - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
        centers.append(z[idx])
        d2 = np.minimum(d2, np.sum((z - centers[-1]) ** 2, axis=1))
    d2 = ((z[:, None, :] - np.array(centers)[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((n, k))
    resp[np.arange(n), np.argmin(d2, axis=1)] = 1.0
    return resp, d2


def test_start_equals_the_two_pass_start(default_windows):
    grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    inputs = {
        "windows": (Standardizer.fit(default_windows).transform(default_windows), 20),
        "duplicates": (np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 5, axis=0), 10),
        "grid": (grid, 6),
    }
    for name, (z, k) in inputs.items():
        ties = 0
        for seed in range(10):
            want, d2 = two_pass_start(z, k, np.random.default_rng(seed))
            got = _initial_responsibilities(z, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want, err_msg=f"{name}, seed {seed}")
            ties += np.sum(np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1)
        if name != "windows":
            assert ties > 0, name


@pytest.mark.parametrize("dim", [1, 2, 18])
def test_pair_layout_is_one_read_only_index_pair_per_dimension(dim):
    rows, cols = _upper_triangle(dim)
    assert _upper_triangle(dim)[0] is rows and _upper_triangle(dim)[1] is cols
    want_rows, want_cols = np.triu_indices(dim)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(cols, want_cols)
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cols[0] = 1
    z = np.random.default_rng(dim).normal(size=(7, dim))
    np.testing.assert_array_equal(_pair_products(z), z[:, rows] * z[:, cols])


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
    fit_mixture(three_blob_data(np.random.default_rng(3), per_cluster=15),
                FitSettings(k_max=8), seed=1)
    widths = [resp.shape[1] for _, resp in calls]
    pruned = next(i for i in range(1, len(widths)) if widths[i] < widths[i - 1])
    z, resp = calls[pruned]
    assert np.all(resp.sum(axis=0) >= 0.1)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)
    assert_matches_the_per_point_textbook_bound(z, resp)


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
    save_payload(model, path)
    loaded = load_payload(path, MixtureModel)
    probe = rng.normal(5.0, 10.0, size=(50, 2))
    np.testing.assert_allclose(
        log_density(loaded, probe), log_density(model, probe), rtol=1e-12
    )
    np.testing.assert_array_equal(assign(loaded, probe), assign(model, probe))
    assert loaded.component_count == model.component_count


def test_serialization_rejects_foreign_payloads():
    with pytest.raises(ValueError, match="format"):
        from_payload(MixtureModel, {"format": "something_else", "version": 1})
    with pytest.raises(ValueError, match="no key 'weights'"):
        from_payload(MixtureModel, {"format": "vbgmm", "version": 1})
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        from_payload(MixtureModel, [])
    with pytest.raises(ValueError,
                       match="mixture model payload has a value of the wrong type"):
        from_payload(MixtureModel, {"format": "vbgmm", "version": 1, "weights": [1.0],
                                    "means": [[0.0]], "covariances": [[[1.0]]],
                                    "standardizer": []})
    valid = {"format": "vbgmm", "version": 1, "weights": [0.5, 0.5],
             "means": [[0.0], [1.0]], "covariances": [[[1.0]], [[1.0]]],
             "standardizer": {"mean": [0.0], "std": [1.0]}}
    from_payload(MixtureModel, valid)
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
            from_payload(MixtureModel, {**valid, key: value})
    # The standardizer must have one entry per mixture dimension.
    planar = {**valid, "means": [[0.0, 0.0], [1.0, 1.0]],
              "covariances": [np.eye(2).tolist()] * 2}
    with pytest.raises(ValueError,
                       match=r"^standardizer has shape \(1,\), mixture has dimension 2"):
        from_payload(MixtureModel, planar)
    from_payload(MixtureModel, {**planar, "standardizer": {"mean": [0.0, 0.0], "std": [1.0, 1.0]}})


def test_model_dict_is_json_clean():
    rng = np.random.default_rng(41)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=5), seed=8)
    payload = to_payload(model)
    again = from_payload(MixtureModel, json.loads(json.dumps(payload)))
    np.testing.assert_allclose(again.means, model.means, rtol=1e-15)


def test_dimension_mismatch_is_reported():
    rng = np.random.default_rng(51)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=5), seed=9)
    with pytest.raises(ValueError, match="expects 2"):
        log_density(model, np.zeros((4, 3)))


def test_scoring_rejects_non_finite_input_by_name():
    rng = np.random.default_rng(52)
    model = fit_mixture(three_blob_data(rng), FitSettings(k_max=5), seed=9)
    for bad in (np.nan, np.inf, -np.inf):
        data = rng.normal(size=(6, 2))
        data[3, 1] = bad
        for score in (assign, log_density, component_log_scores):
            with pytest.raises(ValueError, match="^input contains non-finite values$"):
                score(model, data)
        bouts = [WindowFeatures("a", "s", "Walk", data[:2]),
                 WindowFeatures("b", "s", "Walk", data[2:])]
        with pytest.raises(ValueError, match="^input contains non-finite values$"):
            summarize_corpus(model, bouts)


def test_scoring_rejects_an_array_of_more_than_two_dimensions():
    model = from_payload(MixtureModel, {
        "format": "vbgmm", "version": 1, "weights": [0.5, 0.5],
        "means": [[0.0] * 3, [1.0] * 3], "covariances": [np.eye(3).tolist()] * 2,
        "standardizer": {"mean": [0.0] * 3, "std": [1.0] * 3}})
    for shape in ((2, 3, 3), (4, 2, 3)):
        for score in (assign, log_density, component_log_scores):
            with pytest.raises(ValueError, match=re.escape(
                    f"input must be 1-d or 2-d, got shape {shape}")):
                score(model, np.zeros(shape))


def planar_payload(covariances):
    return {"format": "vbgmm", "version": 1, "weights": [0.5, 0.5],
            "means": [[0.0, 0.0], [1.0, 1.0]], "covariances": covariances,
            "standardizer": {"mean": [0.0, 0.0], "std": [1.0, 2.0]}}


def test_an_asymmetric_covariance_is_rejected(tmp_path):
    # Cholesky and eigh read one triangle only, so this model would score
    # its first component as if both off-diagonal entries were -0.9.
    payload = planar_payload([[[1.0, 0.9], [-0.9, 1.0]], np.eye(2).tolist()])
    with pytest.raises(ValueError, match="^component 0: covariance is not symmetric$"):
        from_payload(MixtureModel, payload)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: component 0: covariance is not symmetric$"):
        load_payload(path, MixtureModel)
    # Rounding-level asymmetry, relative to the component's largest entry, loads.
    from_payload(MixtureModel, planar_payload([np.eye(2).tolist(),
                                               [[1e6, 0.5], [0.5 + 1e-7, 1.0]]]))


@pytest.mark.parametrize("second", [-1.0, 0.0])
def test_a_covariance_that_is_not_positive_definite_is_rejected(second):
    payload = {"format": "vbgmm", "version": 1, "weights": [0.5, 0.5],
               "means": [[0.0], [1.0]], "covariances": [[[1.0]], [[second]]],
               "standardizer": {"mean": [0.0], "std": [1.0]}}
    with pytest.raises(ValueError,
                       match="^component 1: covariance is not positive definite$"):
        from_payload(MixtureModel, payload)


def test_component_scores_match_scipy_densities():
    # A standardizer that shifts and rescales, and a component whose
    # covariance has eigenvalues 1e-6 and 1: near that component's mean the
    # pair-product expansion cancels most of its digits.
    angle = 0.4
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    tight = rotation @ np.diag([1e-6, 1.0]) @ rotation.T
    tight = 0.5 * (tight + tight.T)
    weights = np.array([0.2, 0.5, 0.3])
    means = np.array([[1.0, -2.0], [4.0, 3.0], [-3.0, 0.5]])
    covs = np.array([tight, [[2.0, 0.3], [0.3, 0.5]], [[0.7, -0.2], [-0.2, 9.0]]])
    std = np.array([0.5, 3.0])
    model = from_payload(MixtureModel, {
        "format": "vbgmm", "version": 1, "weights": weights.tolist(),
        "means": means.tolist(), "covariances": covs.tolist(),
        "standardizer": {"mean": [1.5, -0.5], "std": std.tolist()}})
    rng = np.random.default_rng(24)
    near = np.repeat(means, 10, axis=0) + rng.uniform(-1e-3, 1e-3, size=(30, 2))
    for points in (near, rng.normal(scale=5.0, size=(50, 2)),
                   rng.normal(scale=200.0, size=(20, 2))):
        want = np.column_stack([
            np.log(w) + multivariate_normal(m, c).logpdf(points) + np.log(std).sum()
            for w, m, c in zip(weights, means, covs)])
        np.testing.assert_allclose(component_log_scores(model, points), want,
                                   rtol=1e-10, atol=1e-8)
