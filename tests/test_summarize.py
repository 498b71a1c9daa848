"""Cluster-ratio summaries: simplex, ordering invariance, histogram oracle."""

import numpy as np
import pytest

from summertime import summarize
from summertime.dataset import Bout, SyntheticConfig, generate_synthetic
from summertime.features import WindowFeatures, featurize_bout, featurize_corpus, stack_features
from summertime.summarize import (
    SummaryVector,
    summarize_bout,
    summarize_corpus,
    summary_matrix,
    write_summaries_csv,
)
from summertime.vbgmm import FitSettings, assign, fit_mixture


@pytest.fixture(scope="module")
def mixture():
    rng = np.random.default_rng(23)
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 25.0], [25.0, 25.0]])
    data = np.vstack([rng.normal(c, 1.0, size=(200, 2)) for c in centers])
    return fit_mixture(data, FitSettings(k_max=8), seed=0)


def random_features(rng, mixture, n_windows):
    centers = mixture.means
    rows = [centers[rng.integers(len(centers))] + rng.normal(0, 1.0, size=2)
            for _ in range(n_windows)]
    return WindowFeatures("b", "s", "Walk", np.array(rows))


def test_summaries_are_simplex_vectors(mixture):
    rng = np.random.default_rng(1)
    for _ in range(100):
        feats = random_features(rng, mixture, int(rng.integers(1, 40)))
        summary = summarize_bout(mixture, feats)
        assert summary.ratios.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(summary.ratios >= 0)
        assert len(summary.ratios) == mixture.component_count
        assert summary.window_count == feats.window_count


def test_summary_equals_histogram_oracle(mixture):
    rng = np.random.default_rng(2)
    for _ in range(100):
        feats = random_features(rng, mixture, int(rng.integers(1, 40)))
        summary = summarize_bout(mixture, feats)
        labels = assign(mixture, feats.matrix)
        counts = np.zeros(mixture.component_count)
        for lab in labels:
            counts[lab] += 1
        np.testing.assert_array_equal(summary.ratios, counts / len(labels))


def test_summary_is_invariant_to_window_order(mixture):
    rng = np.random.default_rng(3)
    feats = random_features(rng, mixture, 30)
    base = summarize_bout(mixture, feats)
    perm = rng.permutation(30)
    shuffled = WindowFeatures("b", "s", "Walk", feats.matrix[perm])
    again = summarize_bout(mixture, shuffled)
    np.testing.assert_array_equal(base.ratios, again.ratios)


def test_summary_vector_validates_simplex():
    with pytest.raises(ValueError, match="sum"):
        SummaryVector("b", "s", "Walk", np.array([0.5, 0.4]), window_count=10)
    with pytest.raises(ValueError, match="window"):
        SummaryVector("b", "s", "Walk", np.array([1.0]), window_count=0)
    with pytest.raises(ValueError, match="'a': ratios must be finite"):
        SummaryVector("a", "s", "Walk", np.array([np.nan]), window_count=1)
    with pytest.raises(ValueError, match="'a': feature matrix has no windows"):
        WindowFeatures("a", "s", "Walk", np.empty((0, 2)))


def test_summarize_corpus_keeps_bout_alignment(mixture):
    rng = np.random.default_rng(4)
    bouts = [
        Bout(f"b{i}", f"s{i % 2}", "Walk",
             rng.normal(10, 3, size=(36, 1)) @ np.ones((1, 2)))
        for i in range(4)
    ]
    feats = [featurize_bout(b, 12) for b in bouts]
    # features here are 12-wide; build a mixture in that space
    stacked = np.vstack([f.matrix for f in feats])
    model = fit_mixture(stacked, FitSettings(k_max=4), seed=1)
    summaries = summarize_corpus(model, feats)
    assert [s.bout_id for s in summaries] == [f"b{i}" for i in range(4)]
    mat = summary_matrix(summaries)
    assert mat.shape == (4, model.component_count)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


def test_summaries_csv_round_trip(tmp_path, mixture):
    rng = np.random.default_rng(5)
    feats = [random_features(rng, mixture, 12) for _ in range(3)]
    summaries = [summarize_bout(mixture, f) for f in feats]
    path = tmp_path / "summaries.csv"
    write_summaries_csv(summaries, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:4] == ["bout_id", "subject_id", "label", "windows"]
    assert header[4:] == [f"cluster{j}" for j in range(mixture.component_count)]
    got = np.array([[float(v) for v in line.split(",")[4:]] for line in lines[1:]])
    np.testing.assert_allclose(got, summary_matrix(summaries), atol=1e-12)


def assert_same_summaries(got, want):
    assert [(s.bout_id, s.subject_id, s.activity_class, s.window_count) for s in got] == \
        [(s.bout_id, s.subject_id, s.activity_class, s.window_count) for s in want]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.ratios, w.ratios)


def test_summarize_corpus_equals_per_bout_summaries(mixture):
    feats = featurize_corpus(generate_synthetic(SyntheticConfig(), 7), 12)
    model = fit_mixture(stack_features(feats), seed=0)
    assert_same_summaries(summarize_corpus(model, feats),
                          [summarize_bout(model, f) for f in feats])

    rng = np.random.default_rng(6)
    mixed = [WindowFeatures(f"b{i}", "s", "Walk",
                            random_features(rng, mixture, n).matrix)
             for i, n in enumerate([1, 37, 2, 1, 15, 40, 3])]
    assert_same_summaries(summarize_corpus(mixture, mixed),
                          [summarize_bout(mixture, f) for f in mixed])


def test_summarize_corpus_calls_assign_once(mixture, monkeypatch):
    calls = []

    def counting_assign(model, data):
        calls.append(len(data))
        return assign(model, data)

    monkeypatch.setattr(summarize, "assign", counting_assign)
    rng = np.random.default_rng(7)
    feats = [random_features(rng, mixture, n) for n in (4, 9, 1)]
    summarize_corpus(mixture, feats)
    assert calls == [14]


def test_summarize_corpus_edge_cases(mixture):
    assert summarize_corpus(mixture, []) == []
    rng = np.random.default_rng(8)
    good = random_features(rng, mixture, 5)
    wide = WindowFeatures("wide-bout", "s", "Walk", np.zeros((3, 5)))
    with pytest.raises(ValueError, match="'wide-bout': 5 features, model expects 2"):
        summarize_corpus(mixture, [good, wide])
    with pytest.raises(ValueError, match="^bout 'wide-bout': 5 features, model expects 2$"):
        summarize_bout(mixture, wide)


def test_ragged_summaries_are_rejected_naming_the_bout(tmp_path):
    summaries = [SummaryVector("short", "s", "Walk", np.array([1.0]), 1),
                 SummaryVector("long", "s", "Walk", np.array([0.5, 0.5]), 2)]
    message = "bout 'long' has 2 ratios, bout 'short' has 1"
    with pytest.raises(ValueError, match=message):
        summary_matrix(summaries)
    with pytest.raises(ValueError, match=message):
        write_summaries_csv(summaries, tmp_path / "summaries.csv")
