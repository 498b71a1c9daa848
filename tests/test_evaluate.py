"""LOSO harness: oracle stubs, fingerprints, fold isolation, report shape."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from summertime import regress
from summertime.config import METHOD_NAMES, PipelineConfig, apply_overrides
from summertime.dataset import (Bout, Corpus, SyntheticConfig, generate_synthetic,
                                load_corpus, loso_folds, save_corpus)
from summertime.errors import EvaluationError, FitError
from summertime.evaluate import (
    METHOD_RUNNERS,
    FoldResult,
    _train_fingerprint,
    compare_methods,
    corpus_fingerprint,
    derive_stage_seeds,
    report_to_dict,
    rmse,
    run_loso,
    write_report_files,
)
from summertime.features import featurize_corpus, stack_features
from summertime.summarize import summarize_corpus
from summertime.vbgmm import fit_mixture


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SyntheticConfig(subjects=4, bouts_per_class=1), 11)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


def oracle_runner(train, test, config, seeds, labels):
    """Copies the truth: every bout gets its own class and window targets."""
    return FoldResult([(feat.activity_class, feat.targets) for feat in test])


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


def test_corpus_fingerprint_frames_targets_apart_from_signal(tmp_path):
    # A 12x3 bout with three window targets, and the same bout with those
    # targets as a 13th signal row and none: one byte stream, two corpora.
    signal = np.arange(36, dtype=float).reshape(12, 3)
    targets = np.array([1.5, 2.0, 2.5])
    corpora = [Corpus((Bout("b1", "s1", "Walk", bout_signal, bout_targets),), 3,
                      ("Sed", "Walk"))
               for bout_signal, bout_targets in ((signal, targets),
                                                 (np.vstack([signal, targets]), None))]
    assert corpora[1].bouts[0].signal.tobytes() == signal.tobytes() + targets.tobytes()
    for i, corpus in enumerate(corpora):
        save_corpus(corpus, tmp_path / str(i), window_length=4)
        loaded = load_corpus(tmp_path / str(i), window_length=4)
        assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)
    assert corpus_fingerprint(corpora[0]) != corpus_fingerprint(corpora[1])


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


def test_train_fingerprint_frames_each_bout_id(corpus):
    bout = corpus.bouts[0]
    joined = [replace(bout, bout_id="a|b")]
    apart = [replace(bout, bout_id="a"), replace(bout, bout_id="b")]
    assert _train_fingerprint(joined) != _train_fingerprint(apart)


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
        return FoldResult(oracle_runner(train, test, config, seeds, labels).predictions[:-1])

    with pytest.raises(EvaluationError, match="predictions"):
        run_loso(corpus, "stub", config, runner=short)


def test_report_dict_is_json_clean_with_none_for_nan(corpus, config):
    def classless(train, test, config, seeds, labels):
        # always predict the first label and give no MET estimate
        return FoldResult([(labels[0], None) for _ in test])

    report = run_loso(corpus, "stub", config, runner=classless)
    payload = report_to_dict(report)
    text = json.dumps(payload, allow_nan=False)  # raises if NaN leaks through
    assert set(payload) == {
        "method", "labels", "confusion", "recall_per_class", "overall_recall",
        "confusion_windows", "recall_windows", "rmse_per_class", "rmse_overall",
        "fold_count", "config_fingerprint", "folds", "outcomes", "regression_modes",
    }
    assert payload["regression_modes"] is None
    assert payload["rmse_overall"] is None
    assert all(v is None for v in payload["rmse_per_class"])
    assert json.loads(text)["method"] == "stub"
    assert all(o.predicted_met is None for o in report.outcomes)


@pytest.mark.parametrize("how", ["mean", "sum"])
def test_the_harness_clamps_every_bout_met_at_zero(corpus, config, how):
    def negative(train, test, config, seeds, labels):
        return FoldResult([(f.activity_class, np.full(f.window_count, -0.5))
                           for f in test])

    report = run_loso(corpus, "stub", apply_overrides(config, aggregation=how),
                      runner=negative)
    assert all(o.predicted_met == 0.0 for o in report.outcomes)


def test_report_csvs_keep_a_label_with_a_comma_and_a_quote(tmp_path):
    labels = ["Walk, fast", 'Run "hard"']
    payload = {"confusion": [[2, 0], [1, 1]], "recall_per_class": [1.0, 0.5],
               "rmse_per_class": [0.25, None], "rmse_overall": 0.125}
    write_report_files({"labels": labels, "methods": {"m": payload}}, tmp_path)
    with open(tmp_path / "confusion_m.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["actual", *labels, "recall"],
                                        ["Walk, fast", "2", "0", "1.0"],
                                        ['Run "hard"', "1", "1", "0.5"]]
    with open(tmp_path / "rmse_m.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["class", "rmse_met"], ["Walk, fast", "0.25"],
                                        ['Run "hard"', ""], ["overall", "0.125"]]


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


def reference_regression_modes(corpus, config):
    """The second LOSO pass that computed the regression-design comparison
    before the ``summertime`` folds recorded it: refit each fold's mixture,
    fit both per-class suites, and pool unclamped true-class window
    estimates.  Kept as an oracle for ``EvaluationReport.regression_modes``.
    """
    pooled = {f"{split}_{kind}": [] for split in ("train", "test")
              for kind in ("actual", "augmented", "window_only")}
    labels = corpus.label_set
    seeds = derive_stage_seeds(config, len(corpus.subject_ids))
    for (train, test), fold_seeds in zip(loso_folds(corpus), seeds):
        train_feats = featurize_corpus(train, config.window_length)
        test_feats = featurize_corpus(test, config.window_length)
        mixture = fit_mixture(stack_features(train_feats), settings=config.gmm,
                              seed=fold_seeds.mixture)
        train_sums = summarize_corpus(mixture, train_feats)
        test_sums = summarize_corpus(mixture, test_feats)
        suites = {
            "augmented": regress.fit_regression_suite(train_feats, train_sums, labels),
            "window_only": regress.fit_regression_suite(train_feats, None, labels),
        }
        for split, feats, sums in (("train", train_feats, train_sums),
                                   ("test", test_feats, test_sums)):
            for feat, summary in zip(feats, sums):
                if feat.targets is None:
                    continue
                pooled[f"{split}_actual"].append(np.asarray(feat.targets, dtype=float))
                for mode, suite in suites.items():
                    pooled[f"{split}_{mode}"].append(regress.predict_windows(
                        suite, feat.activity_class, feat.matrix, summary.ratios))
    result = {}
    for split in ("train", "test"):
        actual = np.concatenate(pooled[f"{split}_actual"])
        for mode in ("augmented", "window_only"):
            predicted = np.concatenate(pooled[f"{split}_{mode}"])
            result[f"{split}_rmse_{mode}"] = rmse(predicted, actual)
    return result


@pytest.fixture(scope="module")
def tiny_summertime(tiny_corpus, config):
    return run_loso(tiny_corpus, "summertime", config)


def test_regression_modes_equal_the_second_pass_exactly(tiny_summertime,
                                                        tiny_corpus, config):
    assert tiny_summertime.regression_modes == reference_regression_modes(
        tiny_corpus, config)


def test_methods_without_facts_report_no_regression_modes(tiny_corpus, config,
                                                          oracle_report):
    assert oracle_report.regression_modes is None
    for method in METHOD_NAMES:
        if method != "summertime":
            assert run_loso(tiny_corpus, method, config).regression_modes is None


def test_a_split_without_target_windows_reports_none(corpus, config):
    def train_facts_only(train, test, config, seeds, labels):
        facts = {"train": [(f.targets, f.targets, f.targets) for f in train],
                 "test": []}
        return FoldResult(oracle_runner(train, test, config, seeds, labels).predictions,
                          facts)

    modes = run_loso(corpus, "stub", config, runner=train_facts_only).regression_modes
    assert modes == {"train_rmse_augmented": 0.0, "train_rmse_window_only": 0.0,
                     "test_rmse_augmented": None, "test_rmse_window_only": None}


def test_compare_regression_modes_train_inequality(tiny_summertime):
    result = tiny_summertime.regression_modes
    assert set(result) == {
        "train_rmse_augmented", "train_rmse_window_only",
        "test_rmse_augmented", "test_rmse_window_only",
    }
    assert result["train_rmse_augmented"] <= result["train_rmse_window_only"] + 1e-9
    assert all(v >= 0 for v in result.values())
