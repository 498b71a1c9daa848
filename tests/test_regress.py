"""Per-class OLS: normal-equations oracle, routing, aggregation, fallback."""

import logging

import numpy as np
import pytest

from summertime.errors import FitError, load_payload, save_payload
from summertime.features import WindowFeatures
from summertime.regress import (
    LinearModel,
    RegressionSuite,
    aggregate,
    bout_met,
    build_design_rows,
    fit_ols,
    fit_regression_suite,
    predict_bout_met,
    predict_windows,
    suite_from_dict,
    suite_to_dict,
)
from summertime.summarize import SummaryVector


def normal_equations(design, targets):
    """Textbook solve of (X'X) beta = X'y, valid on full-rank designs."""
    xtx = design.T @ design
    xty = design.T @ targets
    return np.linalg.solve(xtx, xty)


def test_ols_matches_normal_equations_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(30, 201))
        p = int(rng.integers(2, 26))
        design = rng.normal(size=(n, p))
        targets = rng.normal(size=n)
        got = fit_ols(design, targets)
        want = normal_equations(design, targets)
        denom = np.maximum(np.abs(want), 1e-12)
        assert np.max(np.abs(got - want) / denom) < 1e-8


def test_ols_recovers_noiseless_coefficients():
    rng = np.random.default_rng(9)
    design = rng.normal(size=(120, 8))
    beta = rng.normal(size=8)
    targets = design @ beta
    got = fit_ols(design, targets)
    assert np.max(np.abs(got - beta)) < 1e-9
    residual = np.linalg.norm(design @ got - targets)
    assert residual < 1e-9


def test_fitted_beta_is_a_local_sse_minimum():
    rng = np.random.default_rng(11)
    design = rng.normal(size=(80, 5))
    targets = design @ rng.normal(size=5) + rng.normal(0, 0.3, size=80)
    beta = fit_ols(design, targets)
    base = np.sum((design @ beta - targets) ** 2)
    for _ in range(20):
        bumped = beta + rng.normal(0, 1e-3, size=5)
        assert np.sum((design @ bumped - targets) ** 2) >= base


def test_intercept_absorbs_constant_shifts():
    rng = np.random.default_rng(13)
    features = rng.normal(size=(60, 4))
    targets = rng.normal(size=60)
    design = build_design_rows(features, None)
    base = fit_ols(design, targets)
    shifted = fit_ols(design, targets + 5.0)
    assert shifted[0] == pytest.approx(base[0] + 5.0, abs=1e-9)
    np.testing.assert_allclose(shifted[1:], base[1:], atol=1e-9)


def test_design_row_layout():
    features = np.array([[2.0, 3.0], [4.0, 5.0]])
    ratios = np.array([0.25, 0.75])
    rows = build_design_rows(features, ratios)
    np.testing.assert_array_equal(
        rows, [[1.0, 2.0, 3.0, 0.25, 0.75], [1.0, 4.0, 5.0, 0.25, 0.75]]
    )
    bare = build_design_rows(features, None)
    assert bare.shape == (2, 3)
    np.testing.assert_array_equal(bare[:, 0], 1.0)


def toy_training_set(rng, n_bouts=6, windows_per=8):
    """Two classes with distinct linear MET rules on 2 features."""
    feats, summaries = [], []
    rules = {"slow": (1.0, np.array([0.02, 0.0])), "fast": (2.0, np.array([0.01, 0.03]))}
    for i in range(n_bouts):
        label = "slow" if i % 2 == 0 else "fast"
        matrix = rng.uniform(0, 100, size=(windows_per, 2))
        intercept, slope = rules[label]
        targets = intercept + matrix @ slope
        feats.append(WindowFeatures(f"b{i}", f"s{i % 3}", label, matrix, targets))
        ratios = np.array([0.7, 0.3]) if label == "slow" else np.array([0.2, 0.8])
        summaries.append(SummaryVector(f"b{i}", f"s{i % 3}", label, ratios, windows_per))
    return feats, summaries


def test_suite_fits_one_model_per_class_in_order():
    rng = np.random.default_rng(17)
    feats, summaries = toy_training_set(rng)
    suite = fit_regression_suite(feats, summaries, ("slow", "fast"))
    assert suite.class_labels == ("slow", "fast")
    assert [m.activity_class for m in suite.models] == ["slow", "fast"]
    assert all(m.mode == "augmented" for m in suite.models)
    assert suite.feature_dim == 2
    assert suite.summary_dim == 2


def test_suite_recovers_per_class_rules_without_summaries():
    rng = np.random.default_rng(19)
    feats, _ = toy_training_set(rng, n_bouts=10, windows_per=20)
    suite = fit_regression_suite(feats, None, ("slow", "fast"))
    slow = suite.model_for("slow")
    assert slow.mode == "window_only"
    np.testing.assert_allclose(slow.coefficients, [1.0, 0.02, 0.0], atol=1e-9)
    fast = suite.model_for("fast")
    np.testing.assert_allclose(fast.coefficients, [2.0, 0.01, 0.03], atol=1e-9)


def test_fallback_to_window_only_when_rows_are_scarce(caplog):
    rng = np.random.default_rng(21)
    # 2 windows per class and a 5-column augmented design forces the fallback
    feats, summaries = toy_training_set(rng, n_bouts=2, windows_per=2)
    with caplog.at_level(logging.WARNING):
        suite = fit_regression_suite(feats, summaries, ("slow", "fast"))
    assert all(m.mode == "window_only" for m in suite.models)
    assert "falling back" in caplog.text
    window_only = fit_regression_suite(feats, None, ("slow", "fast"))
    for fallback, direct in zip(suite.models, window_only.models):
        assert np.array_equal(fallback.coefficients, direct.coefficients)


def test_fallback_is_per_class():
    rng = np.random.default_rng(22)
    # slow has 6 windows for a 5-column augmented design, fast only 3
    feats, summaries = toy_training_set(rng, n_bouts=3, windows_per=3)
    suite = fit_regression_suite(feats, summaries, ("slow", "fast"))
    assert [m.mode for m in suite.models] == ["augmented", "window_only"]
    assert len(suite.model_for("slow").coefficients) == 5
    window_only = fit_regression_suite(feats, None, ("slow", "fast"))
    assert np.array_equal(suite.model_for("fast").coefficients,
                          window_only.model_for("fast").coefficients)
    # routing hands every model the bout's ratios; the fallback ignores them
    for feat, summary in zip(feats, summaries):
        assert np.array_equal(predict_windows(suite, "fast", feat.matrix, summary.ratios),
                              predict_windows(window_only, "fast", feat.matrix, None))


def test_class_without_targets_is_an_error():
    rng = np.random.default_rng(23)
    feats, summaries = toy_training_set(rng)
    feats = [f for f in feats if f.activity_class != "fast"]
    with pytest.raises(FitError, match="'fast' has no training windows"):
        fit_regression_suite(feats, summaries, ("slow", "fast"))


def test_unknown_class_lookup_raises_keyerror():
    rng = np.random.default_rng(25)
    feats, summaries = toy_training_set(rng)
    suite = fit_regression_suite(feats, summaries, ("slow", "fast"))
    with pytest.raises(KeyError, match="sprint"):
        suite.model_for("sprint")


def test_prediction_routes_by_class_and_aggregates():
    slow = LinearModel("slow", np.array([1.0, 0.5]), "window_only")
    fast = LinearModel("fast", np.array([10.0, 0.5]), "window_only")
    suite = RegressionSuite((slow, fast), ("slow", "fast"), 1, 0)
    feats = WindowFeatures("b", "s", "slow", np.array([[2.0], [4.0]]),
                           np.array([0.0, 0.0]))
    per_window = predict_windows(suite, "slow", feats.matrix, None)
    np.testing.assert_allclose(per_window, [2.0, 3.0])
    assert predict_bout_met(suite, "slow", feats, None, "mean") == pytest.approx(2.5)
    assert predict_bout_met(suite, "slow", feats, None, "sum") == pytest.approx(5.0)
    # routing to the other class moves every estimate by the intercept gap
    assert predict_bout_met(suite, "fast", feats, None, "mean") == pytest.approx(11.5)


def test_bout_estimates_are_clamped_at_zero():
    model = LinearModel("slow", np.array([-5.0, 0.0]), "window_only")
    suite = RegressionSuite((model,) * 1, ("slow",), 1, 0)
    feats = WindowFeatures("b", "s", "slow", np.array([[1.0]]))
    assert predict_bout_met(suite, "slow", feats, None) == 0.0


def test_aggregate_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown aggregation"):
        aggregate(np.array([1.0]), "median")


def test_bout_met_aggregates_then_clamps_at_zero():
    windows = np.array([3.0, -1.0, 1.0])
    assert bout_met(windows, "mean") == 1.0
    assert bout_met(windows, "sum") == 3.0
    assert bout_met(-windows, "mean") == 0.0
    assert bout_met(-windows, "sum") == 0.0
    with pytest.raises(ValueError, match="unknown aggregation"):
        bout_met(windows, "median")


def test_mean_aggregation_is_sum_over_count():
    rng = np.random.default_rng(27)
    values = rng.uniform(0, 5, size=9)
    assert aggregate(values, "mean") == pytest.approx(aggregate(values, "sum") / 9)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    feats, summaries = toy_training_set(rng)
    suite = fit_regression_suite(feats, summaries, ("slow", "fast"))
    path = tmp_path / "suite.json"
    save_payload(suite_to_dict(suite), path)
    loaded = load_payload(path, suite_from_dict)
    assert loaded.class_labels == suite.class_labels
    for a, b in zip(loaded.models, suite.models):
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-15)
        assert a.mode == b.mode


def test_serialization_rejects_foreign_payloads(tmp_path):
    with pytest.raises(ValueError, match="format"):
        suite_from_dict({"format": "nope", "version": 1})
    with pytest.raises(ValueError, match="must be a JSON object, got str"):
        suite_from_dict("x")
    for models in (["x"], 5):
        with pytest.raises(ValueError,
                           match="regression suite payload has a value of the wrong type"):
            suite_from_dict({"format": "regression_suite", "version": 1,
                             "models": models})
    valid = {"format": "regression_suite", "version": 1,
             "class_labels": ["slow", "fast"], "feature_dim": 18, "summary_dim": 5,
             "models": [{"activity_class": "slow", "mode": "augmented",
                         "coefficients": [0.0] * 24},
                        {"activity_class": "fast", "mode": "window_only",
                         "coefficients": [0.0] * 19}]}
    suite_from_dict(valid)
    for slow, fast, message in [
        ([0.0] * 2, [0.0], "'slow': augmented model has 2 coefficients, expected 24"),
        ([0.0] * 24, [0.0], "'fast': window_only model has 1 coefficients, expected 19"),
        ([0.0] * 19, [0.0] * 19, "'slow': augmented model has 19 coefficients"),
        ([0.0] * 23 + [float("nan")], [0.0] * 19,
         "^class 'slow' coefficients must be finite"),
    ]:
        models = [{**valid["models"][0], "coefficients": slow},
                  {**valid["models"][1], "coefficients": fast}]
        with pytest.raises(ValueError, match=message):
            suite_from_dict({**valid, "models": models})
    # Dimensions are nonnegative integers as written: no rounding, no booleans.
    window_only = [{"activity_class": label, "mode": "window_only", "coefficients": []}
                   for label in ("slow", "fast")]
    for key, value in [("feature_dim", -1), ("feature_dim", 1.9), ("feature_dim", True),
                       ("summary_dim", -1), ("summary_dim", 1.9), ("summary_dim", True)]:
        with pytest.raises(ValueError,
                           match=f"^{key} must be a nonnegative integer, got {value!r}$"):
            suite_from_dict({**valid, "feature_dim": 0, "summary_dim": 0,
                             "models": window_only, key: value})
    path = tmp_path / "suite.json"
    path.write_text('{"format": "regression_suite", "version": 1}')
    with pytest.raises(ValueError, match=r"suite\.json: .* no key 'models'"):
        load_payload(path, suite_from_dict)
