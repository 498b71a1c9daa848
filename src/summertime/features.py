"""Window segmentation and per-window feature extraction.

Each bout is cut into disjoint windows of ``window_length`` consecutive
samples (default 12, i.e. 12 seconds at 1 Hz); a trailing partial window is
dropped.  Every window yields six statistics per axis:

* five order statistics approximating the 10th, 25th, 50th, 75th and 90th
  percentiles, taken as sorted-sample ranks so no interpolation is involved;
* the lag-1 autocorrelation of the window's samples.

Features are laid out axis-major: all six statistics for axis 1, then axis 2,
and so on, giving ``6 * A`` columns (18 for a triaxial device).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Bout, Corpus, DEFAULT_WINDOW_LENGTH
from .errors import write_csv

PERCENTILE_FRACTIONS = (0.10, 0.25, 0.50, 0.75, 0.90)
STAT_NAMES = ("p10", "p25", "p50", "p75", "p90", "ac1")


@dataclass(frozen=True)
class WindowFeatures:
    """Per-window feature matrix for one bout, with provenance columns.

    ``matrix`` has shape (n_windows, 6 * A).  ``targets`` is aligned with the
    rows when the bout carries MET values, else None.
    """

    bout_id: str
    subject_id: str
    activity_class: str
    matrix: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("feature matrix must be 2-d")
        if self.matrix.shape[0] == 0:
            raise ValueError(f"bout {self.bout_id!r}: feature matrix has no windows")
        if self.targets is not None and len(self.targets) != len(self.matrix):
            raise ValueError(
                f"bout {self.bout_id!r}: {len(self.matrix)} windows but "
                f"{len(self.targets)} targets"
            )

    @property
    def window_count(self) -> int:
        return self.matrix.shape[0]


def segment(signal: np.ndarray, window_length: int) -> np.ndarray:
    """Split (T, A) into (n, window_length, A) disjoint windows, dropping the tail."""
    if window_length < 2:
        raise ValueError(f"window length must be >= 2, got {window_length}")
    signal = np.asarray(signal, dtype=float)
    n = signal.shape[0] // window_length
    if n == 0:
        raise ValueError(
            f"bout shorter than one window ({signal.shape[0]} < {window_length} samples)"
        )
    return signal[: n * window_length].reshape(n, window_length, signal.shape[1])


def percentile_rank(fraction: float, n: int) -> int:
    """0-based sorted index of the nearest-rank percentile: ceil(q*n), clamped.

    For n=12 this selects 1-based ranks 2, 3, 6, 9 and 11 for the five
    fractions used here.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"percentile fraction must be in (0, 1), got {fraction}")
    rank = math.ceil(fraction * n)
    return min(max(rank, 1), n) - 1


def window_matrix(windows: np.ndarray) -> np.ndarray:
    """Feature matrix of (n, window_length, A) windows: (n, 6 * A), axis-major.

    The lag-1 autocorrelation puts the full-sample variance in the
    denominator and is 0.0 for constant windows, where the ratio is undefined.
    """
    n, length, _ = windows.shape
    series = np.ascontiguousarray(windows.transpose(0, 2, 1))
    ranks = [percentile_rank(q, length) for q in PERCENTILE_FRACTIONS]
    points = np.sort(series, axis=-1)[..., ranks]
    centered = series - series.mean(axis=-1, keepdims=True)
    # matmul sums each window in the order of a 1-d dot product, the order
    # the pinned feature digest fixes; np.sum or einsum change the last bit.
    denom = (centered[..., None, :] @ centered[..., :, None])[..., 0, 0]
    lagged = (centered[..., None, 1:] @ centered[..., :-1, None])[..., 0, 0]
    ac1 = np.divide(lagged, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return np.concatenate([points, ac1[..., None]], axis=-1).reshape(n, -1)


def featurize_bout(bout: Bout,
                   window_length: int = DEFAULT_WINDOW_LENGTH) -> WindowFeatures:
    return WindowFeatures(
        bout_id=bout.bout_id,
        subject_id=bout.subject_id,
        activity_class=bout.activity_class,
        matrix=window_matrix(segment(bout.signal, window_length)),
        targets=bout.targets,
    )


def featurize_corpus(corpus: Corpus,
                     window_length: int = DEFAULT_WINDOW_LENGTH) -> list[WindowFeatures]:
    return [featurize_bout(b, window_length) for b in corpus.bouts]


def feature_names(axis_count: int) -> list[str]:
    return [f"axis{a + 1}_{stat}" for a in range(axis_count) for stat in STAT_NAMES]


def stack_features(features: Sequence[WindowFeatures]) -> np.ndarray:
    """All windows of all bouts as one (N, 6*A) matrix, bout order preserved."""
    if not features:
        raise ValueError("no window features to stack")
    return np.vstack([f.matrix for f in features])


def write_features_csv(features: Sequence[WindowFeatures], path: str | Path) -> None:
    """Tabular export: one row per window with bout provenance and target."""
    if not features:
        raise ValueError("no window features to write")
    names = feature_names(features[0].matrix.shape[1] // len(STAT_NAMES))
    write_csv(path, ["bout_id", "subject_id", "label", "window", *names, "met"], (
        [feat.bout_id, feat.subject_id, feat.activity_class, str(w),
         *(repr(float(v)) for v in feat.matrix[w]),
         "" if feat.targets is None else repr(float(feat.targets[w]))]
        for feat in features for w in range(feat.window_count)))
