"""Energy-expenditure regression from window features and bout summaries.

Two estimator families:

* ``LinearModel`` / ``RegressionSuite``: one ordinary-least-squares model per
  activity class, fitted on the training windows of that class (true labels).
  Each design row is the window's feature vector optionally augmented with
  its bout's cluster-ratio summary, plus an intercept; a class with too few
  rows for that design fits its first ``1 + feature_dim`` columns, the
  window-only design.  At prediction time the bout's *predicted* class routes
  every window to that class's model.
* a linear-head network (see classify.train_mlp) regressing MET directly from
  window features, used by the network-regression method.

Both estimate MET per window.  ``bout_met``, the one bout rule, aggregates a
bout's window estimates by mean (default, a MET-rate reading) or sum (total
accumulated load), then clamps at zero.  The LOSO harness applies it to every
method's estimates (``evaluate._run_fold``); so does ``predict_bout_met``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitError, reading_payload, require_finite
from .features import WindowFeatures
from .summarize import SummaryVector

log = logging.getLogger(__name__)

# The value lists of the per-bout aggregation and of the design mode; the
# first entry of each is the pipeline default.
AGGREGATIONS = ("mean", "sum")
DESIGN_MODES = ("augmented", "window_only")


@dataclass(frozen=True)
class LinearModel:
    """OLS coefficients for one class; ``coefficients[0]`` is the intercept."""

    activity_class: str
    coefficients: np.ndarray
    mode: str  # 'augmented' (features + summary ratios) or 'window_only'

    def __post_init__(self):
        if self.mode not in DESIGN_MODES:
            raise ValueError(f"unknown design mode {self.mode!r}")
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be 1-d")
        require_finite({f"class {self.activity_class!r} coefficients": self.coefficients})


@dataclass(frozen=True)
class RegressionSuite:
    """One LinearModel per class, keyed by the shared label order."""

    models: tuple[LinearModel, ...]
    class_labels: tuple[str, ...]
    feature_dim: int
    summary_dim: int

    def __post_init__(self):
        for name in ("feature_dim", "summary_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if len(self.models) != len(self.class_labels):
            raise ValueError("need exactly one model per class")
        for model, label in zip(self.models, self.class_labels):
            if model.activity_class != label:
                raise ValueError(
                    f"model order mismatch: {model.activity_class!r} vs {label!r}"
                )
            width = 1 + self.feature_dim
            width += self.summary_dim if model.mode == "augmented" else 0
            if len(model.coefficients) != width:
                raise ValueError(f"class {label!r}: {model.mode} model has "
                                 f"{len(model.coefficients)} coefficients, expected {width}")

    def model_for(self, label: str) -> LinearModel:
        try:
            return self.models[self.class_labels.index(label)]
        except ValueError:
            raise KeyError(f"no regression model for class {label!r}") from None


def fit_ols(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via SVD; minimum-norm on rank deficiency."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or design.shape[0] != len(targets):
        raise FitError(
            f"design shape {design.shape} does not match {len(targets)} targets"
        )
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(targets))):
        raise FitError("regression inputs contain non-finite values")
    coefficients, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    return coefficients


def build_design_rows(features: np.ndarray, ratios: np.ndarray | None) -> np.ndarray:
    """Design matrix rows: [1, feature..., ratio...] or [1, feature...].

    The same ratio vector (the bout's summary) repeats across all of that
    bout's windows.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    columns = [np.ones((len(features), 1)), features]
    if ratios is not None:
        ratios = np.asarray(ratios, dtype=float)
        columns.append(np.broadcast_to(ratios, (len(features), len(ratios))))
    return np.hstack(columns)


def stack_targets(features: Sequence[WindowFeatures],
                  summaries: Sequence[SummaryVector] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the windows that carry MET targets, in input order.

    Returns (inputs, targets, classes), one row per window.  An input row is
    the window's feature vector, followed by its bout's summary ratios when
    ``summaries`` is given; ``classes`` holds each row's true label.
    """
    ratio_of = None if summaries is None else {s.bout_id: s.ratios for s in summaries}
    inputs, targets, classes = [], [], []
    for feat in features:
        if feat.targets is None:
            continue
        rows = feat.matrix
        if ratio_of is not None:
            if feat.bout_id not in ratio_of:
                raise FitError(f"bout {feat.bout_id!r} has no summary vector")
            rows = np.hstack([rows, np.tile(ratio_of[feat.bout_id], (len(rows), 1))])
        inputs.append(rows)
        targets.append(np.asarray(feat.targets, dtype=float))
        classes += [feat.activity_class] * len(rows)
    if not inputs:
        raise FitError("no training windows carry energy-expenditure targets")
    return np.vstack(inputs), np.concatenate(targets), np.array(classes)


def fit_regression_suite(features: Sequence[WindowFeatures],
                         summaries: Sequence[SummaryVector] | None,
                         class_labels: Sequence[str]) -> RegressionSuite:
    """Fit one per-class OLS model, grouping training windows by true label.

    With ``summaries`` given, each class model uses the augmented design
    unless that class has fewer target windows than design columns, in which
    case it fits the window-only design, the first ``1 + feature_dim``
    columns (logged).  A class with no target windows at all is an error.
    """
    class_labels = tuple(class_labels)
    inputs, targets, classes = stack_targets(features, summaries)
    design = build_design_rows(inputs, None)
    summary_dim = len(summaries[0].ratios) if summaries else 0
    feature_dim = inputs.shape[1] - summary_dim

    models = []
    for label in class_labels:
        rows = classes == label
        if not rows.any():
            raise FitError(
                f"class {label!r} has no training windows with targets; "
                "cannot fit its regression model"
            )
        mode = "window_only" if summaries is None else "augmented"
        width = design.shape[1]
        if mode == "augmented" and rows.sum() < width:
            log.warning(
                "class %r has %d target windows for %d augmented coefficients; "
                "falling back to the window-only design",
                label, rows.sum(), width,
            )
            mode, width = "window_only", 1 + feature_dim
        models.append(LinearModel(label, fit_ols(design[rows, :width], targets[rows]), mode))
    return RegressionSuite(
        models=tuple(models),
        class_labels=class_labels,
        feature_dim=feature_dim,
        summary_dim=summary_dim,
    )


def predict_windows(suite: RegressionSuite, label: str, features: np.ndarray,
                    ratios: np.ndarray | None) -> np.ndarray:
    """Per-window MET estimates from the model routed to ``label``."""
    model = suite.model_for(label)
    design = build_design_rows(
        features, ratios if model.mode == "augmented" else None
    )
    if design.shape[1] != len(model.coefficients):
        raise FitError(
            f"class {label!r}: design has {design.shape[1]} columns, "
            f"model has {len(model.coefficients)}"
        )
    return design @ model.coefficients


def aggregate(per_window: np.ndarray, how: str) -> float:
    if how not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {how!r}; expected one of {AGGREGATIONS}")
    return float(per_window.sum() if how == "sum" else per_window.mean())


def bout_met(per_window: np.ndarray, how: str) -> float:
    """A bout's MET estimate from its window estimates: aggregate, clamp at 0."""
    return max(aggregate(per_window, how), 0.0)


def predict_bout_met(suite: RegressionSuite, predicted_class: str,
                     features: WindowFeatures, ratios: np.ndarray | None,
                     how: str = "mean") -> float:
    """Bout-level estimate: route to the predicted class, then ``bout_met``."""
    return bout_met(predict_windows(suite, predicted_class, features.matrix, ratios), how)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def suite_to_dict(suite: RegressionSuite) -> dict:
    return {
        "format": "regression_suite",
        "version": 1,
        "class_labels": list(suite.class_labels),
        "feature_dim": suite.feature_dim,
        "summary_dim": suite.summary_dim,
        "models": [
            {
                "activity_class": m.activity_class,
                "mode": m.mode,
                "coefficients": m.coefficients.tolist(),
            }
            for m in suite.models
        ],
    }


def suite_from_dict(payload: dict) -> RegressionSuite:
    with reading_payload(payload, "regression_suite", "regression suite"):
        models = tuple(
            LinearModel(
                activity_class=m["activity_class"],
                coefficients=np.array(m["coefficients"], dtype=float),
                mode=m["mode"],
            )
            for m in payload["models"]
        )
        return RegressionSuite(
            models=models,
            class_labels=tuple(payload["class_labels"]),
            feature_dim=payload["feature_dim"],
            summary_dim=payload["summary_dim"],
        )
