"""Window feature extraction against brute-force oracles."""

import hashlib
import math

import numpy as np
import pytest

from summertime.dataset import Bout, SyntheticConfig, generate_synthetic
from summertime.features import (
    PERCENTILE_FRACTIONS,
    STAT_NAMES,
    feature_names,
    featurize_bout,
    featurize_corpus,
    percentile_rank,
    segment,
    stack_features,
    window_matrix,
    write_features_csv,
)

# Short, default and long window lengths, odd and even.
WINDOW_LENGTHS = (2, 3, 7, 12, 17, 40)


def sort_oracle_percentile(values, fraction):
    """Nearest-rank percentile via an explicit sorted copy."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


def double_loop_ac1(values):
    """Lag-1 autocorrelation with explicit loops, no vectorization."""
    n = len(values)
    mean = sum(values) / n
    denom = 0.0
    for v in values:
        denom += (v - mean) ** 2
    if denom == 0.0:
        return 0.0
    num = 0.0
    for i in range(n - 1):
        num += (values[i] - mean) * (values[i + 1] - mean)
    return num / denom


def test_percentile_ranks_for_n12_are_the_published_points():
    ranks = [percentile_rank(q, 12) for q in PERCENTILE_FRACTIONS]
    # 1-based sample ranks 2, 3, 6, 9, 11
    assert [r + 1 for r in ranks] == [2, 3, 6, 9, 11]


def test_percentile_rank_clamps_to_valid_range():
    assert percentile_rank(0.0001, 5) == 0
    assert percentile_rank(0.9999, 5) == 4
    with pytest.raises(ValueError, match="fraction"):
        percentile_rank(1.0, 7)


def random_bout_windows(rng, window_length):
    """A random float bout, featurized, and its windows as (n, L, A)."""
    n, axes = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    signal = rng.normal(rng.normal(0.0, 50.0), 30.0,
                        size=(n * window_length + int(rng.integers(0, window_length)), axes))
    matrix = featurize_bout(Bout("b", "s", "Walk", signal), window_length).matrix
    assert matrix.shape == (n, 6 * axes)
    return matrix.reshape(n, axes, 6), segment(signal, window_length)


def test_percentile_matches_sort_oracle_on_random_windows():
    rng = np.random.default_rng(11)
    for window_length in WINDOW_LENGTHS * 40:
        feats, windows = random_bout_windows(rng, window_length)
        for w, window in enumerate(windows):
            for axis in range(window.shape[1]):
                values = window[:, axis].tolist()
                want = [sort_oracle_percentile(values, q) for q in PERCENTILE_FRACTIONS]
                assert feats[w, axis, :5].tolist() == want


def test_ac1_matches_double_loop_oracle_on_random_windows():
    rng = np.random.default_rng(12)
    for window_length in WINDOW_LENGTHS * 40:
        feats, windows = random_bout_windows(rng, window_length)
        for w, window in enumerate(windows):
            for axis in range(window.shape[1]):
                want = double_loop_ac1(window[:, axis].tolist())
                assert feats[w, axis, 5] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ac1_closed_forms():
    constant = np.full((1, 4, 1), 3.0)
    assert window_matrix(constant)[0, 5] == 0.0
    # alternating +1/-1: numerator pairs all -1, denominator n; at any scale,
    # since only an exactly constant window is undefined
    for scale in (1.0, 1e-6):
        alt = scale * np.array([1.0, -1.0] * 6).reshape(1, 12, 1)
        assert window_matrix(alt)[0, 5] == pytest.approx(-11.0 / 12.0, rel=1e-12)


def test_segment_drops_the_tail():
    signal = np.arange(30, dtype=float).reshape(30, 1)
    windows = segment(signal, 12)
    assert windows.shape == (2, 12, 1)
    assert windows[0, 0, 0] == 0.0
    assert windows[1, 11, 0] == 23.0


def test_segment_rejects_short_bouts():
    with pytest.raises(ValueError, match="shorter than one window"):
        segment(np.zeros((5, 2)), 12)


def test_window_features_layout_is_axis_major():
    rng = np.random.default_rng(13)
    windows = rng.normal(size=(4, 12, 3))
    feats = window_matrix(windows)
    assert feats.shape == (4, 18)
    for w in range(4):
        for axis in range(3):
            col = windows[w, :, axis].tolist()
            expected = [sort_oracle_percentile(col, q) for q in PERCENTILE_FRACTIONS]
            expected.append(double_loop_ac1(col))
            np.testing.assert_allclose(feats[w, axis * 6:(axis + 1) * 6], expected,
                                       rtol=1e-12, atol=1e-12)


def test_feature_names_align_with_layout():
    names = feature_names(2)
    assert len(names) == 12
    assert names[0] == "axis1_p10"
    assert names[5] == "axis1_ac1"
    assert names[6] == "axis2_p10"
    assert [n.split("_")[1] for n in names[:6]] == list(STAT_NAMES)


def test_featurize_bout_keeps_one_target_per_window():
    signal = np.arange(40, dtype=float).reshape(40, 1)
    bout = Bout("b1", "s1", "Walk", signal, targets=np.array([2.0, 3.0, 4.0]))
    feats = featurize_bout(bout, 12)
    assert feats.window_count == 3
    np.testing.assert_array_equal(feats.targets, [2.0, 3.0, 4.0])
    # without targets the field stays None
    bare = Bout("b2", "s1", "Walk", signal)
    assert featurize_bout(bare, 12).targets is None


@pytest.mark.parametrize("samples, targets", [
    (40, 2),
    (40, 4),
    (120, 12),  # targets built for 10-sample windows
])
def test_featurize_bout_rejects_a_target_count_other_than_the_window_count(
        samples, targets):
    signal = np.arange(samples, dtype=float).reshape(samples, 1)
    bout = Bout("b1", "s1", "Walk", signal, targets=np.ones(targets))
    with pytest.raises(ValueError, match=f"^bout 'b1': {samples // 12} windows "
                                         f"but {targets} targets$"):
        featurize_bout(bout, 12)


def test_stack_features_concatenates_in_order():
    rng = np.random.default_rng(14)
    bouts = [
        Bout(f"b{i}", "s1", "Run", rng.normal(size=(24, 2)))
        for i in range(3)
    ]
    feats = [featurize_bout(b, 12) for b in bouts]
    stacked = stack_features(feats)
    assert stacked.shape == (6, 12)
    np.testing.assert_array_equal(stacked[:2], feats[0].matrix)
    np.testing.assert_array_equal(stacked[4:], feats[2].matrix)


def test_features_csv_header_matches_its_rows(tmp_path):
    """The header names one column per cell of a 2-axis corpus's rows."""
    rng = np.random.default_rng(2)
    bouts = [Bout(f"b{i}", "s1", "Sed", rng.normal(size=(30, 2)), np.ones(2))
             for i in range(2)]
    path = tmp_path / "features.csv"
    write_features_csv([featurize_bout(b, 12) for b in bouts], path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header[4:-1] == feature_names(2)
    assert len(rows) == 4 and {len(row) for row in rows} == {len(header)} == {17}


def test_featurized_default_corpus_is_pinned():
    corpus = generate_synthetic(SyntheticConfig(), 7)
    digest = hashlib.sha256(stack_features(featurize_corpus(corpus, 12)).tobytes())
    assert digest.hexdigest() == (
        "e6df36126018937e712f93f1da4af32bbfcaf8cfbf66f350d8442c815067b32b")
