"""LOSO harness: oracle stubs, fingerprints, fold isolation, report shape."""

import json

import numpy as np
import pytest

from summertime.config import METHOD_NAMES, PipelineConfig, apply_overrides
from summertime.dataset import Corpus, SyntheticConfig, generate_synthetic
from summertime.errors import EvaluationError, FitError
from summertime.evaluate import (
    METHOD_RUNNERS,
    compare_methods,
    compare_regression_modes,
    corpus_fingerprint,
    derive_stage_seeds,
    report_to_dict,
    rmse,
    run_loso,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SyntheticConfig(subjects=4, bouts_per_class=1), 11)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


def oracle_runner(train, test, config, seeds, labels):
    """Copies the truth: every bout gets its own class and exact mean MET."""
    return [(feat.activity_class, float(np.mean(feat.targets))) for feat in test]


@pytest.fixture(scope="module")
def oracle_report(corpus, config):
    return run_loso(corpus, "stub", config, runner=oracle_runner)


# ---- rmse ----------------------------------------------------------------


def test_rmse_examples():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        np.sqrt(12.5)
    )


def test_rmse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rmse(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        rmse(np.array([]), np.array([]))


# ---- fingerprints and seeds ----------------------------------------------


def test_corpus_fingerprint_tracks_content(corpus):
    again = generate_synthetic(SyntheticConfig(subjects=4, bouts_per_class=1), 11)
    assert corpus_fingerprint(corpus) == corpus_fingerprint(again)
    other = generate_synthetic(SyntheticConfig(subjects=4, bouts_per_class=1), 12)
    assert corpus_fingerprint(corpus) != corpus_fingerprint(other)


def test_stage_seeds_are_deterministic_and_distinct(config):
    a = derive_stage_seeds(config, 5)
    b = derive_stage_seeds(config, 5)
    assert a == b
    assert len(a) == 5
    assert len({s.mixture for s in a}) == 5
    for s in a:
        assert len({s.mixture, s.classifier, s.regressor}) == 3


def test_config_fingerprint_ignores_execution_knobs(config, corpus):
    extra = {"corpus": corpus_fingerprint(corpus)}
    elsewhere = apply_overrides(config, out="another_dir")
    assert config.fingerprint(extra) == elsewhere.fingerprint(extra)
    reseeded = apply_overrides(config, seed=99)
    assert config.fingerprint(extra) != reseeded.fingerprint(extra)


# ---- oracle runs ---------------------------------------------------------


def test_oracle_runner_scores_perfectly(oracle_report, corpus):
    report = oracle_report
    np.testing.assert_array_equal(report.recall_per_class, 1.0)
    assert report.overall_recall == 1.0
    assert np.trace(report.confusion) == len(corpus.bouts)
    assert report.rmse_overall == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(report.rmse_per_class, 0.0, atol=1e-12)


def test_confusion_totals_match_bout_and_window_counts(oracle_report, corpus, config):
    report = oracle_report
    assert report.confusion.sum() == len(corpus.bouts)
    windows = sum(
        b.sample_count // config.window_length for b in corpus.bouts
    )
    assert report.confusion_windows.sum() == windows
    np.testing.assert_array_equal(report.recall_windows, 1.0)


def test_fold_structure(oracle_report, corpus):
    report = oracle_report
    assert report.fold_count == len(corpus.subject_ids)
    assert [f.fold_index for f in report.folds] == list(range(report.fold_count))
    assert [f.test_subject for f in report.folds] == sorted(corpus.subject_ids)
    assert len(report.outcomes) == len(corpus.bouts)
    covered = {o.bout_id for o in report.outcomes}
    assert covered == {b.bout_id for b in corpus.bouts}


def test_train_fingerprints_differ_per_fold_and_repeat(corpus, config):
    report = run_loso(corpus, "stub", config, runner=oracle_runner)
    prints = [f.train_fingerprint for f in report.folds]
    assert len(set(prints)) == len(prints)
    again = run_loso(corpus, "stub", config, runner=oracle_runner)
    assert [f.train_fingerprint for f in again.folds] == prints


def test_single_subject_corpus_is_rejected(corpus, config):
    solo = Corpus(
        bouts=tuple(b for b in corpus.bouts if b.subject_id == corpus.subject_ids[0]),
        axis_count=corpus.axis_count,
        label_set=corpus.label_set,
        provenance="solo",
    )
    with pytest.raises(EvaluationError, match="LOSO requires >=2 subjects"):
        run_loso(solo, "stub", config, runner=oracle_runner)


def test_every_config_method_has_a_runner():
    assert set(METHOD_RUNNERS) == set(METHOD_NAMES)


def test_unknown_method_is_rejected(corpus, config):
    with pytest.raises(EvaluationError, match="unknown method"):
        run_loso(corpus, "not_a_method", config)


def test_fold_failures_carry_fold_context(corpus, config):
    def broken(train, test, config, seeds, labels):
        if test[0].subject_id == sorted(corpus.subject_ids)[1]:
            raise FitError("synthetic failure")
        return oracle_runner(train, test, config, seeds, labels)

    with pytest.raises(EvaluationError, match=r"fold 1 \(test subject .*: synthetic"):
        run_loso(corpus, "stub", config, runner=broken)


def test_wrong_prediction_count_is_rejected(corpus, config):
    def short(train, test, config, seeds, labels):
        return oracle_runner(train, test, config, seeds, labels)[:-1]

    with pytest.raises(EvaluationError, match="predictions"):
        run_loso(corpus, "stub", config, runner=short)


def test_report_dict_is_json_clean_with_none_for_nan(corpus, config):
    def classless(train, test, config, seeds, labels):
        # always predict the first label and give no MET estimate
        return [(labels[0], None) for _ in test]

    report = run_loso(corpus, "stub", config, runner=classless)
    payload = report_to_dict(report)
    text = json.dumps(payload, allow_nan=False)  # raises if NaN leaks through
    assert set(payload) == {
        "method", "labels", "confusion", "recall_per_class", "overall_recall",
        "confusion_windows", "recall_windows", "rmse_per_class", "rmse_overall",
        "fold_count", "config_fingerprint", "folds", "outcomes",
    }
    assert payload["rmse_overall"] is None
    assert all(v is None for v in payload["rmse_per_class"])
    assert json.loads(text)["method"] == "stub"


# ---- real pipelines on a small corpus ------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus():
    from summertime.dataset import DEFAULT_REGIMES

    config = SyntheticConfig(subjects=3, bouts_per_class=1,
                             regimes=DEFAULT_REGIMES[:2])
    return generate_synthetic(config, 23)


def test_compare_methods_payload_shape(tiny_corpus, config):
    payload = compare_methods(tiny_corpus, ("summertime",), config)
    assert set(payload) == {
        "config", "config_fingerprint", "corpus_fingerprint", "labels",
        "methods", "reference_panel",
    }
    assert payload["labels"] == list(tiny_corpus.label_set)
    assert "io" not in payload["config"]
    assert "parallel_folds" not in payload["config"]["evaluation"]
    method = payload["methods"]["summertime"]
    assert method["fold_count"] == 3
    assert len(method["confusion"]) == len(tiny_corpus.label_set)
    json.dumps(payload, allow_nan=False)
    panel = payload["reference_panel"]
    assert list(panel["window_counts"].values()) == [16475, 2505, 1570, 3775, 485]


def test_compare_regression_modes_train_inequality(tiny_corpus, config):
    result = compare_regression_modes(tiny_corpus, config)
    assert set(result) == {
        "train_rmse_augmented", "train_rmse_window_only",
        "test_rmse_augmented", "test_rmse_window_only",
    }
    assert result["train_rmse_augmented"] <= result["train_rmse_window_only"] + 1e-9
    assert all(v >= 0 for v in result.values())

