"""Acceptance gate: eleven end-to-end checks with one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from summertime.classify import loss_and_gradients
from summertime.cli import main
from summertime.config import PipelineConfig
from summertime.dataset import DEFAULT_REGIMES, generate_synthetic
from summertime.evaluate import FoldResult, fit_pipeline, run_loso
from summertime.features import (PERCENTILE_FRACTIONS, percentile_rank, stack_features,
                                 window_matrix)
from summertime.reference import reference_panel
from summertime.summarize import summarize_bout
from summertime.vbgmm import (CONVERGENCE_TOL, EMPTY_COUNT, FitSettings, MixtureModel,
                              Standardizer, _initial_responsibilities, _softmax_rows,
                              assign, component_log_scores, fit_mixture)


def verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---- shared fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def default_config():
    return PipelineConfig()


@pytest.fixture(scope="module")
def default_corpus(default_config):
    return generate_synthetic(
        default_config.synthetic.generator_config(default_config.window_length),
        default_config.synthetic.seed,
    )


@pytest.fixture(scope="module")
def loso_runs(default_corpus, default_config):
    start = time.time()
    reports = {
        method: run_loso(default_corpus, method, default_config)
        for method in ("summertime", "ann_voting")
    }
    return reports, reports["summertime"].regression_modes, time.time() - start


# ---- criterion 1: mixture model selection --------------------------------


def test_criterion_1_component_recovery():
    start = time.time()
    hits = 0
    monotone = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        data = np.vstack([rng.normal(c, 1.0, size=(300, 2)) for c in centers])
        model = fit_mixture(data, FitSettings(k_max=10), seed=seed)
        if model.component_count == 3:
            hits += 1
        if np.any(np.diff(model.elbo_trace) < -1e-8):
            monotone = False
    elapsed = time.time() - start
    ok = hits >= 95 and monotone and elapsed < 60.0
    verdict(1, ok, f"3 components in {hits}/100 seeds, "
                   f"monotone objective {monotone}, {elapsed:.1f}s")


# ---- criterion 2: responsibilities and assignment ------------------------


def test_criterion_2_responsibilities_normalize():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    data = np.vstack([rng.normal(c, 1.0, size=(300, 2)) for c in centers])
    model = fit_mixture(data, FitSettings(k_max=10), seed=0)
    points = rng.uniform(-10, 30, size=(1000, 2))
    gamma = _softmax_rows(component_log_scores(model, points))
    sums_ok = bool(np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-9))
    argmax_ok = bool(np.all(assign(model, points) == gamma.argmax(axis=1)))
    verdict(2, sums_ok and argmax_ok,
            f"rows sum to 1 within 1e-9 ({sums_ok}), "
            f"assignment equals argmax for 1000/1000 points ({argmax_ok})")


# ---- criterion 3: feature oracles ----------------------------------------


def test_criterion_3_feature_oracles():
    rng = np.random.default_rng(1)
    windows = rng.normal(30.0, 20.0, size=(1000, 12, 1))
    feats = window_matrix(windows)
    worst = 0.0
    for window, got in zip(windows[:, :, 0], feats):
        ordered = np.sort(window)
        for q, got_p in zip(PERCENTILE_FRACTIONS, got[:5]):
            want = ordered[min(max(math.ceil(q * 12), 1), 12) - 1]
            worst = max(worst, abs(got_p - want) / max(abs(want), 1e-300))
        mean = window.mean()
        num = sum((window[i] - mean) * (window[i + 1] - mean) for i in range(11))
        den = sum((v - mean) ** 2 for v in window)
        want_ac = num / den
        worst = max(worst, abs(got[5] - want_ac) / max(abs(want_ac), 1e-300))
    ranks = [percentile_rank(q, 12) + 1 for q in PERCENTILE_FRACTIONS]
    ranks_ok = ranks == [2, 3, 6, 9, 11]
    ok = worst < 1e-12 and ranks_ok
    verdict(3, ok, f"max relative error vs oracles {worst:.2e}, "
                   f"n=12 sample ranks {ranks}")


# ---- criterion 4: summary invariants -------------------------------------


def test_criterion_4_summary_invariants():
    from summertime.features import WindowFeatures

    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [15.0, 0.0], [0.0, 15.0], [15.0, 15.0]])
    data = np.vstack([rng.normal(c, 1.0, size=(150, 2)) for c in centers])
    model = fit_mixture(data, FitSettings(k_max=8), seed=0)
    simplex_ok = reorder_ok = oracle_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 50))
        rows = centers[rng.integers(0, 4, size=n)] + rng.normal(0, 1, size=(n, 2))
        feats = WindowFeatures("b", "s", "Walk", rows)
        summary = summarize_bout(model, feats)
        if abs(summary.ratios.sum() - 1.0) > 1e-12 or np.any(summary.ratios < 0):
            simplex_ok = False
        perm = rng.permutation(n)
        shuffled = summarize_bout(model, WindowFeatures("b", "s", "Walk", rows[perm]))
        if not np.array_equal(summary.ratios, shuffled.ratios):
            reorder_ok = False
        labels = assign(model, rows)
        counts = np.zeros(model.component_count)
        for lab in labels:
            counts[lab] += 1
        if not np.array_equal(summary.ratios, counts / n):
            oracle_ok = False
    ok = simplex_ok and reorder_ok and oracle_ok
    verdict(4, ok, f"100 bouts: simplex {simplex_ok}, "
                   f"order-invariant {reorder_ok}, histogram oracle {oracle_ok}")


# ---- criterion 5: least-squares oracle -----------------------------------


def test_criterion_5_ols_oracle():
    from summertime.regress import fit_ols

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 201))
        p = int(rng.integers(2, 26))
        design = rng.normal(size=(n, p))
        targets = rng.normal(size=n)
        got = fit_ols(design, targets)
        want = np.linalg.solve(design.T @ design, design.T @ targets)
        worst = max(worst, float(np.max(np.abs(got - want)
                                        / np.maximum(np.abs(want), 1e-12))))
    design = rng.normal(size=(150, 10))
    beta = rng.normal(size=10)
    fitted = fit_ols(design, design @ beta)
    residual = float(np.linalg.norm(design @ fitted - design @ beta))
    ok = worst < 1e-8 and residual < 1e-9
    verdict(5, ok, f"50 systems, max relative gap {worst:.2e}; "
                   f"noiseless residual {residual:.2e}")


# ---- criterion 6: gradient check -----------------------------------------


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(4)
    eps = 1e-5
    worst = 0.0
    for head, out_dim in (("softmax", 3), ("linear", 1)):
        params = {
            "w1": rng.normal(0, 0.5, size=(4, 6)),
            "b1": rng.normal(0, 0.1, size=6),
            "w2": rng.normal(0, 0.5, size=(6, out_dim)),
            "b2": rng.normal(0, 0.1, size=out_dim),
        }
        x = rng.normal(size=(5, 4))
        if head == "softmax":
            y = np.zeros((5, 3))
            y[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
        else:
            y = rng.normal(size=(5, 1))
        _, grads = loss_and_gradients(params, x, y, head, 1e-4)
        for key in ("w1", "b1", "w2", "b2"):
            it = np.nditer(grads[key], flags=["multi_index"])
            for analytic in it:
                idx = it.multi_index
                bumped = {k: v.copy() for k, v in params.items()}
                bumped[key][idx] += eps
                up, _ = loss_and_gradients(bumped, x, y, head, 1e-4)
                bumped[key][idx] -= 2 * eps
                down, _ = loss_and_gradients(bumped, x, y, head, 1e-4)
                fd = (up - down) / (2 * eps)
                rel = abs(fd - float(analytic)) / max(
                    abs(fd), abs(float(analytic)), 1e-8
                )
                worst = max(worst, rel)
    ok = worst < 1e-4
    verdict(6, ok, f"both heads, every parameter: "
                   f"max relative gap vs central differences {worst:.2e}")


# ---- criterion 7: end-to-end LOSO ----------------------------------------


def test_criterion_7_end_to_end(loso_runs, default_corpus):
    reports, modes, elapsed = loso_runs
    ours = reports["summertime"]
    voting = reports["ann_voting"]
    recall_floor = float(ours.recall_per_class.min())
    a_ok = recall_floor > 0.2
    b_ok = ours.overall_recall >= voting.overall_recall
    train_ok = modes["train_rmse_augmented"] <= modes["train_rmse_window_only"] + 1e-9
    test_ok = modes["test_rmse_augmented"] <= 1.1 * modes["test_rmse_window_only"]
    time_ok = elapsed < 600.0
    ok = a_ok and b_ok and train_ok and test_ok and time_ok
    verdict(7, ok,
            f"(a) min recall {recall_floor:.3f} > 0.2 {a_ok}; "
            f"(b) overall {ours.overall_recall:.3f} >= {voting.overall_recall:.3f} "
            f"{b_ok}; (c) train {modes['train_rmse_augmented']:.4f} <= "
            f"{modes['train_rmse_window_only']:.4f} {train_ok}, test "
            f"{modes['test_rmse_augmented']:.4f} <= 1.1x "
            f"{modes['test_rmse_window_only']:.4f} {test_ok}; {elapsed:.0f}s")


# ---- criterion 8: byte determinism ---------------------------------------


def test_criterion_8_run_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["run", "--out", str(out), "--methods", "summertime"])
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    ok = outs[0] == outs[1]
    verdict(8, ok, f"two identical runs, report.json "
                   f"{'byte-identical' if ok else 'DIFFERS'} "
                   f"({len(outs[0])} bytes)")


# ---- criterion 9: reference fixtures -------------------------------------


def test_criterion_9_reference_fixtures():
    panel = reference_panel()
    diag_ok = panel["recall_diagonal_percent"] == [99.88, 83.23, 82.17, 97.62, 72.16]
    run_ok = panel["voting_recall_diagonal_percent"][4] == 8.25
    ours = panel["rmse_met"]["summertime"]
    rmse_ok = (ours["per_class"] == [0.1741, 1.0406, 1.4231, 1.2268, 1.2693]
               and ours["overall"] == 0.7206)
    counts_ok = list(panel["window_counts"].values()) == [16475, 2505, 1570, 3775, 485]
    json.dumps(panel, allow_nan=False)
    ok = diag_ok and run_ok and rmse_ok and counts_ok
    verdict(9, ok, f"recall diagonal {diag_ok}, voting recall for running {run_ok}, "
                   f"per-class RMSE row {rmse_ok}, window counts {counts_ok}")


# ---- criteria 10 and 11: the overlap corpora ----------------------------

# The default regimes with overlapping classes: a Run window is drawn from
# the Walk regime with probability 0.6, and an MtV window from LHH with
# probability 0.55.  Fixed parameters, not tuned to the outcome.
OVERLAP_REGIMES = tuple(
    replace(r, interleave={"Run": ("Walk", 0.6), "MtV": ("LHH", 0.55)}.get(r.label))
    for r in DEFAULT_REGIMES
)
OVERLAP_SEEDS = (7, 11, 12, 13, 14)
OVERLAP_LABELS = [r.label for r in OVERLAP_REGIMES]
RUN, MTV = OVERLAP_LABELS.index("Run"), OVERLAP_LABELS.index("MtV")


@pytest.fixture(scope="module")
def overlap_runs(default_config):
    """Per overlap seed, the 6-subject corpus and its ``summertime`` and
    ``ann_voting`` reports; and the seconds they took."""
    start = time.time()
    generator = replace(
        default_config.synthetic.generator_config(default_config.window_length),
        subjects=6, regimes=OVERLAP_REGIMES,
    )
    runs = {}
    for seed in OVERLAP_SEEDS:
        corpus = generate_synthetic(generator, seed)
        runs[seed] = (corpus, *(run_loso(corpus, method, default_config)
                                for method in ("summertime", "ann_voting")))
    return runs, time.time() - start


def contest(ours, theirs, strict):
    """Whether ``ours`` wins Run and MtV recall (strictly, or at least ties)
    with overall RMSE no higher; and the figures as one table row."""
    recall_won = (np.greater if strict else np.greater_equal)(
        ours.recall_per_class[[RUN, MTV]], theirs.recall_per_class[[RUN, MTV]])
    won = bool(recall_won.all()) and ours.rmse_overall <= theirs.rmse_overall
    row = (f"Run {ours.recall_per_class[RUN]:.3f}/{theirs.recall_per_class[RUN]:.3f} "
           f"MtV {ours.recall_per_class[MTV]:.3f}/{theirs.recall_per_class[MTV]:.3f} "
           f"RMSE {ours.rmse_overall:.3f}/{theirs.rmse_overall:.3f}")
    return won, row


# ---- criterion 10: summaries against voting ------------------------------


def test_criterion_10_summaries_beat_voting_on_overlapping_classes(overlap_runs):
    runs, elapsed = overlap_runs
    results = {seed: contest(ours, voting, strict=True)
               for seed, (_, ours, voting) in runs.items()}
    wins = sum(won for won, _ in results.values())
    ok = wins == len(OVERLAP_SEEDS)
    verdict(10, ok, f"summertime/ann_voting at 6 subjects, won {wins}/"
                    f"{len(OVERLAP_SEEDS)} seeds ("
                    + "; ".join(f"seed {seed} {row}" for seed, (_, row) in results.items())
                    + f"); {elapsed:.0f}s")


# ---- criterion 11: the variational mixture against maximum likelihood ----


def fit_em_mixture(data, seed):
    """Reference maximum-likelihood EM for a full-covariance Gaussian mixture
    (PRML section 9.2), the baseline of the variational fit, on the same
    budget: ``FitSettings``' defaults for ``k_max`` (20) and ``max_iter``.

    It runs in z-scored space from ``fit_mixture``'s one-hot k-means++
    start, adds 1e-6 to each covariance diagonal, stops when the mean
    log-likelihood changes by less than ``CONVERGENCE_TOL`` relative, and
    keeps the components whose expected count is at least ``EMPTY_COUNT``
    (dropped before each M-step).
    """
    budget = FitSettings()
    standardizer = Standardizer.fit(data)
    z = standardizer.transform(data)
    n, dim = z.shape
    scale = np.outer(standardizer.std, standardizer.std)
    resp = _initial_responsibilities(z, min(budget.k_max, n), np.random.default_rng(seed))
    previous = None
    for _ in range(budget.max_iter):
        resp = resp[:, resp.sum(axis=0) >= EMPTY_COUNT]
        resp /= resp.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        means = (resp.T @ z) / nk[:, None]
        diffs = z[None, :, :] - means[:, None, :]
        covs = (np.matmul((resp.T[:, :, None] * diffs).transpose(0, 2, 1), diffs)
                / nk[:, None, None] + 1e-6 * np.eye(dim))
        model = MixtureModel(weights=nk / nk.sum(), means=standardizer.inverse(means),
                             covariances=covs * scale, standardizer=standardizer)
        scores = component_log_scores(model, data)
        mean_log_likelihood = logsumexp(scores, axis=1).mean()
        if previous is not None and (abs(mean_log_likelihood - previous)
                                     < CONVERGENCE_TOL * abs(mean_log_likelihood)):
            break
        previous = mean_log_likelihood
        resp = _softmax_rows(scores)
    return model


def em_runner(train_feats, test_feats, config, seeds, labels):
    """The ``summertime`` chain with the EM mixture in place of the VB fit."""
    mixture = fit_em_mixture(stack_features(train_feats), seeds.mixture)
    fitted, _ = fit_pipeline(train_feats, labels, config, mixture, seeds.classifier)
    return FoldResult(fitted.predict(test_feats)[0])


def test_criterion_11_vb_summaries_match_or_beat_maximum_likelihood(overlap_runs,
                                                                     default_config):
    start = time.time()
    runs, _ = overlap_runs
    results = {
        seed: contest(ours, run_loso(corpus, "summertime_em", default_config,
                                     runner=em_runner), strict=False)
        for seed, (corpus, ours, _) in runs.items()
    }
    wins = sum(won for won, _ in results.values())
    ok = wins == len(OVERLAP_SEEDS)
    verdict(11, ok, f"summertime VB/EM mixture at 6 subjects, VB at least as good "
                    f"on {wins}/{len(OVERLAP_SEEDS)} seeds ("
                    + "; ".join(f"seed {seed} {row}" for seed, (_, row) in results.items())
                    + f"); {time.time() - start:.0f}s")
