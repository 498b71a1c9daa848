"""Fixed-length bout summaries from per-window cluster assignments.

A fitted mixture turns each window's feature vector into a component index;
a bout's summary is the histogram of those indices normalized to fractions.
Bouts of any duration therefore map to vectors of one shared length K (the
mixture's component count), suitable as classifier input.  A corpus is
labelled with one ``assign`` call over all of its windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import write_csv
from .features import WindowFeatures, stack_features
from .vbgmm import MixtureModel, assign


@dataclass(frozen=True)
class SummaryVector:
    """Cluster-membership fractions for one bout.

    ``ratios`` has length K, entries in [0, 1] summing to 1; entry k is the
    fraction of the bout's windows assigned to mixture component k.
    """

    bout_id: str
    subject_id: str
    activity_class: str
    ratios: np.ndarray
    window_count: int

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=float)
        if ratios.ndim != 1:
            raise ValueError("summary ratios must be 1-d")
        if (not np.all(np.isfinite(ratios)) or np.any(ratios < 0)
                or abs(ratios.sum() - 1.0) > 1e-9):
            raise ValueError(
                f"bout {self.bout_id!r}: ratios must be finite, nonnegative and sum to 1"
            )
        if self.window_count < 1:
            raise ValueError(f"bout {self.bout_id!r}: summary needs >= 1 window")
        object.__setattr__(self, "ratios", ratios)


def _summary(features: WindowFeatures, labels: np.ndarray, k: int) -> SummaryVector:
    """The summary of one bout from its windows' component labels."""
    counts = np.bincount(labels, minlength=k).astype(float)
    return SummaryVector(
        bout_id=features.bout_id,
        subject_id=features.subject_id,
        activity_class=features.activity_class,
        ratios=counts / counts.sum(),
        window_count=features.window_count,
    )


def summarize_bout(model: MixtureModel, features: WindowFeatures) -> SummaryVector:
    return summarize_corpus(model, [features])[0]


def summarize_corpus(model: MixtureModel,
                     features: Sequence[WindowFeatures]) -> list[SummaryVector]:
    """Summaries of every bout, in order, from one ``assign`` over all windows."""
    if not features:
        return []
    for f in features:
        width = f.matrix.shape[1]
        if width != model.dim:
            raise ValueError(
                f"bout {f.bout_id!r}: {width} features, model expects {model.dim}"
            )
    labels = assign(model, stack_features(features))
    ends = np.cumsum([f.window_count for f in features])
    return [_summary(f, part, model.component_count)
            for f, part in zip(features, np.split(labels, ends[:-1]))]


def _summary_length(summaries: Sequence[SummaryVector]) -> int:
    """The one ratio length K that every summary shares."""
    k = len(summaries[0].ratios)
    for s in summaries:
        if len(s.ratios) != k:
            raise ValueError(
                f"bout {s.bout_id!r} has {len(s.ratios)} ratios, "
                f"bout {summaries[0].bout_id!r} has {k}"
            )
    return k


def summary_matrix(summaries: Sequence[SummaryVector]) -> np.ndarray:
    """(B, K) matrix of ratio vectors in bout order."""
    if not summaries:
        raise ValueError("no summaries to stack")
    _summary_length(summaries)
    return np.vstack([s.ratios for s in summaries])


def write_summaries_csv(summaries: Sequence[SummaryVector], path: str | Path) -> None:
    if not summaries:
        raise ValueError("no summaries to write")
    k = _summary_length(summaries)
    write_csv(path, ["bout_id", "subject_id", "label", "windows",
                     *(f"cluster{j}" for j in range(k))], (
        [s.bout_id, s.subject_id, s.activity_class, str(s.window_count),
         *(repr(float(v)) for v in s.ratios)]
        for s in summaries))
