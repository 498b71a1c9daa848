"""Leave-one-subject-out evaluation of the full pipeline and its baselines.

Each fold withholds every bout of one subject.  All trainable stages (the
feature standardizers, the mixture model, the classifiers, the regression
models) are refit from the remaining subjects only, then applied to the
held-out bouts.  Classification is scored per bout; a window-weighted view
(each bout's prediction counted once per window) is reported alongside.

Five method pipelines share this harness.  The harness featurizes each
fold's train and test split and hands the window features to the method's
runner, which returns a ``FoldResult``: one (class, per-window MET estimates)
prediction per test bout and the facts its fits recorded.  ``_run_fold`` then
turns every bout's estimates into its MET with ``regress.bout_met``, one rule
for all five methods, beside the bout's actual MET.

* ``summertime``     -- cluster-ratio summaries -> summary classifier ->
                        per-class regression on summary-augmented designs.
* ``ann_voting``     -- per-window classifier with majority voting ->
                        per-class regression on window-only designs.
* ``fivereg_ann``    -- same pipeline as ann_voting (the two names expose its
                        classification and regression faces, matching how the
                        baselines are usually cited).
* ``linreg_local``   -- voting classifier; one global regression over all
                        windows, no class routing.
* ``ann_regression`` -- voting classifier; a linear-head network regressing
                        MET directly from window features.

The ``summertime`` runner fits the mixture with ``fit_mixture`` and the rest
of the pipeline with ``fit_pipeline``, as the CLI's whole-corpus fit does,
and labels its test bouts with ``FittedPipeline.predict``, the one
summarize -> classify -> regress chain; its payload (``errors.save_payload``)
is the CLI's one model file, ``model_pipeline.json``, which
``errors.load_payload(path, FittedPipeline)`` reads back whole.  The four
voting baselines share one runner and differ only in their MET estimator; they
record no facts.  Each report's ``regression_modes`` is read from the facts
of the ``summertime`` folds (see ``_run_summertime``).

Reports are deterministic functions of (corpus, config): per-fold seeds are
derived from the config seeds, and folds run serially in fold order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import classify, regress
from .config import PipelineConfig
from .dataset import Bout, Corpus, loso_folds
from .errors import EvaluationError, SummertimeError, write_csv
from .features import WindowFeatures, featurize_corpus, stack_features
from .reference import reference_panel
from .summarize import SummaryVector, summarize_corpus, summary_matrix
from .vbgmm import MixtureModel, fit_mixture


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Root mean squared difference of two equal-length nonempty vectors."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.ndim != 1 or actual.ndim != 1:
        raise ValueError("rmse expects 1-d vectors")
    if len(predicted) != len(actual):
        raise ValueError(
            f"rmse length mismatch: {len(predicted)} vs {len(actual)}"
        )
    if len(predicted) == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def corpus_fingerprint(corpus: Corpus) -> str:
    """Content hash over bout identities, labels, signals and targets.

    Each bout's bytes follow a JSON record of its identity, signal shape and
    target count (null without targets), so no two corpora share one byte
    stream: a bout's targets cannot pass for more signal samples."""
    digest = hashlib.sha256()
    digest.update(json.dumps([corpus.axis_count, corpus.label_set]).encode())
    for bout in corpus.bouts:
        targets = None if bout.targets is None else len(bout.targets)
        digest.update(json.dumps([bout.bout_id, bout.subject_id, bout.activity_class,
                                  bout.signal.shape, targets]).encode())
        digest.update(np.ascontiguousarray(bout.signal).tobytes())
        if bout.targets is not None:
            digest.update(np.ascontiguousarray(bout.targets).tobytes())
    return digest.hexdigest()


def _train_fingerprint(bouts: Sequence[Bout]) -> str:
    ids = json.dumps(sorted(b.bout_id for b in bouts))  # framed: "a|b" is not a, b
    return hashlib.sha256(ids.encode()).hexdigest()


@dataclass(frozen=True)
class StageSeeds:
    """Per-fold seeds for each trainable stage, derived from the config."""

    mixture: int
    classifier: int
    regressor: int


def derive_stage_seeds(config: PipelineConfig, fold_count: int) -> list[StageSeeds]:
    streams = {
        name: np.random.SeedSequence([base, tag]).generate_state(fold_count)
        for name, (base, tag) in {
            "mixture": (config.gmm.seed, 101),
            "classifier": (config.mlp.seed, 202),
            "regressor": (config.mlp.seed, 303),
        }.items()
    }
    return [
        StageSeeds(
            mixture=int(streams["mixture"][i]),
            classifier=int(streams["classifier"][i]),
            regressor=int(streams["regressor"][i]),
        )
        for i in range(fold_count)
    ]


@dataclass(frozen=True)
class BoutOutcome:
    fold_index: int
    bout_id: str
    subject_id: str
    actual_class: str
    predicted_class: str
    window_count: int
    actual_met: float | None
    predicted_met: float | None


@dataclass(frozen=True)
class FoldSummary:
    fold_index: int
    test_subject: str
    train_fingerprint: str
    test_bout_ids: tuple[str, ...]


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    labels: tuple[str, ...]
    confusion: np.ndarray  # bout counts; rows actual, columns predicted
    recall_per_class: np.ndarray
    confusion_windows: np.ndarray  # same layout, weighted by window count
    recall_windows: np.ndarray
    rmse_per_class: np.ndarray  # NaN where a class has no scored bouts
    rmse_overall: float | None
    fold_count: int
    config_fingerprint: str
    folds: tuple[FoldSummary, ...]
    outcomes: tuple[BoutOutcome, ...]
    regression_modes: dict[str, float | None] | None  # see _regression_modes

    @property
    def overall_recall(self) -> float:
        """Fraction of all bouts classified correctly."""
        total = self.confusion.sum()
        return float(np.trace(self.confusion) / total) if total else 0.0


# --------------------------------------------------------------------------
# The fitted pipeline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FittedPipeline:
    """Every trained stage of the summary pipeline, fitted on one training set;
    its payload is the one model file.  Construction checks the stages fit."""

    FORMAT: ClassVar = ("pipeline", "pipeline")

    mixture: MixtureModel
    classifier: classify.MlpModel
    regression: regress.RegressionSuite

    def __post_init__(self):
        k = self.mixture.component_count
        if self.classifier.input_dim != k:
            raise ValueError(f"classifier takes {self.classifier.input_dim} inputs, "
                             f"mixture has {k} components")
        if self.classifier.class_labels != self.regression.class_labels:
            raise ValueError(f"classifier labels {list(self.classifier.class_labels)} "
                             f"differ from regression suite labels "
                             f"{list(self.regression.class_labels)}")
        shape = (self.regression.feature_dim, self.regression.summary_dim)
        if shape != (self.mixture.dim, k):
            raise ValueError(f"regression suite has (feature_dim, summary_dim) {shape}, "
                             f"mixture has {(self.mixture.dim, k)}")

    def predict(self, feats: Sequence[WindowFeatures]
                ) -> tuple[list[tuple[str, np.ndarray]], list[SummaryVector]]:
        """Each bout's (predicted class, per-window MET estimates), in order,
        and the summaries they were computed from: summarize with the
        mixture, classify the summary, and estimate each window's MET with
        the predicted class's summary-augmented model."""
        summaries = summarize_corpus(self.mixture, feats)
        predictions = []
        for feat, summary in zip(feats, summaries):
            label = classify.predict_class(self.classifier, summary.ratios).label
            predictions.append((label, regress.predict_windows(
                self.regression, label, feat.matrix, summary.ratios)))
        return predictions, summaries


def fit_pipeline(train_feats: Sequence[WindowFeatures], labels: tuple[str, ...],
                 config: PipelineConfig, mixture: MixtureModel,
                 classifier_seed: int) -> tuple[FittedPipeline, list[SummaryVector]]:
    """Summarize the training bouts with a fitted mixture, train the summary
    classifier and fit the per-class regression suite on summary-augmented
    designs; returns the pipeline and the training bouts' summaries.

    The CLI fits the whole corpus with the config seeds; the ``summertime``
    method fits each LOSO fold's training set with that fold's seeds.  Both
    fit the mixture first, with ``fit_mixture``.
    """
    summaries = summarize_corpus(mixture, train_feats)
    classifier = classify.train_mlp(
        summary_matrix(summaries),
        [s.activity_class for s in summaries],
        class_labels=labels,
        settings=config.mlp,
        seed=classifier_seed,
    )
    suite = regress.fit_regression_suite(train_feats, summaries, labels)
    return FittedPipeline(mixture, classifier, suite), summaries


# --------------------------------------------------------------------------
# Per-method fold runners
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldResult:
    """One fold's (predicted class, window MET estimates or None) per test bout,
    in test-bout order, and the lists of rows its fits recorded, by name."""

    predictions: list[tuple[str, np.ndarray | None]]
    facts: dict[str, list] | None = None


FoldRunner = Callable[
    [list[WindowFeatures], list[WindowFeatures], PipelineConfig, StageSeeds,
     tuple[str, ...]],
    FoldResult,
]
# A runner maps one fold's (train, test) window features to its FoldResult,
# estimating MET per window.  Registered under METHOD_RUNNERS; tests may inject stubs.

MetEstimator = Callable[
    [Sequence[WindowFeatures], PipelineConfig, StageSeeds, tuple[str, ...]],
    Callable[[str, np.ndarray], np.ndarray],
]
# An estimator fits on the training features and returns
# met_of(predicted_class, test_window_matrix), the per-window estimates.


def _run_summertime(train_feats: list[WindowFeatures],
                    test_feats: list[WindowFeatures], config: PipelineConfig,
                    seeds: StageSeeds, labels: tuple[str, ...]) -> FoldResult:
    """Facts: under ``train`` and ``test``, one row per bout with targets: its
    window targets, then each ``regress.DESIGN_MODES`` suite's estimates,
    routed to the true class and unclamped.  On the training split that is a
    least-squares contest the augmented design, a column superset, cannot
    lose."""
    mixture = fit_mixture(stack_features(train_feats), settings=config.gmm,
                          seed=seeds.mixture)
    fitted, train_sums = fit_pipeline(train_feats, labels, config, mixture,
                                      seeds.classifier)
    predictions, test_sums = fitted.predict(test_feats)
    suites = (fitted.regression, regress.fit_regression_suite(train_feats, None, labels))
    facts = {"train": [], "test": []}
    for split, feats, sums in (("train", train_feats, train_sums),
                               ("test", test_feats, test_sums)):
        for feat, summary in zip(feats, sums):
            if feat.targets is not None:
                facts[split].append((np.asarray(feat.targets, dtype=float), *(
                    regress.predict_windows(suite, feat.activity_class, feat.matrix,
                                            summary.ratios) for suite in suites)))
    return FoldResult(predictions, facts)


def _per_class_ols(train_feats, config, seeds, labels):
    """``ann_voting``, ``fivereg_ann``: OLS of the predicted class, window-only."""
    suite = regress.fit_regression_suite(train_feats, None, labels)
    return lambda label, matrix: regress.predict_windows(suite, label, matrix, None)


def _global_ols(train_feats, config, seeds, labels):
    """``linreg_local``: one OLS over every training window, no class routing."""
    x, y, _ = regress.stack_targets(train_feats)
    beta = regress.fit_ols(regress.build_design_rows(x, None), y)
    return lambda label, matrix: regress.build_design_rows(matrix, None) @ beta


def _mlp_regressor(train_feats, config, seeds, labels):
    """``ann_regression``: a linear-head network on window features."""
    x, y, _ = regress.stack_targets(train_feats)
    regressor = classify.train_mlp(x, y, class_labels=None, settings=config.mlp,
                                   seed=seeds.regressor, standardize_inputs=True)
    return lambda label, matrix: classify.predict_values(regressor, matrix)


def _voting(fit_met: MetEstimator) -> FoldRunner:
    """A baseline runner: a per-window classifier whose majority vote labels
    each test bout, and ``fit_met``'s estimates of the bout's window METs."""
    def run(train_feats, test_feats, config, seeds, labels):
        classifier = classify.train_mlp(
            stack_features(train_feats),
            [f.activity_class for f in train_feats for _ in range(f.window_count)],
            class_labels=labels,
            settings=config.mlp,
            seed=seeds.classifier,
            standardize_inputs=True,
        )
        met_of = fit_met(train_feats, config, seeds, labels)
        predictions = []
        for feat in test_feats:
            label = classify.classify_bout_voting(classifier, feat.matrix).label
            predictions.append((label, met_of(label, feat.matrix)))
        return FoldResult(predictions)
    return run


METHOD_RUNNERS: dict[str, FoldRunner] = {
    "summertime": _run_summertime,
    "ann_voting": _voting(_per_class_ols),
    "fivereg_ann": _voting(_per_class_ols),
    "linreg_local": _voting(_global_ols),
    "ann_regression": _voting(_mlp_regressor),
}


# --------------------------------------------------------------------------
# The harness
# --------------------------------------------------------------------------


def _folds(corpus: Corpus, config: PipelineConfig
           ) -> list[tuple[Corpus, Corpus, StageSeeds]]:
    """LOSO (train, test, seeds) triples in sorted subject order."""
    try:
        splits = loso_folds(corpus)
    except ValueError as exc:
        raise EvaluationError(str(exc)) from None
    seeds = derive_stage_seeds(config, len(splits))
    return [(train, test, seeds[i]) for i, (train, test) in enumerate(splits)]


def _run_fold(runner: FoldRunner, fold_index: int, train: Corpus, test: Corpus,
              config: PipelineConfig, seeds: StageSeeds,
              labels: tuple[str, ...]
              ) -> tuple[FoldSummary, list[BoutOutcome], dict | None]:
    test_subject = test.bouts[0].subject_id
    try:
        train_feats = featurize_corpus(train, config.window_length)
        test_feats = featurize_corpus(test, config.window_length)
        result = runner(train_feats, test_feats, config, seeds, labels)
    except SummertimeError as exc:
        raise EvaluationError(
            f"fold {fold_index} (test subject {test_subject}): {exc}"
        ) from exc
    if len(result.predictions) != len(test_feats):
        raise EvaluationError(
            f"fold {fold_index}: runner returned {len(result.predictions)} predictions "
            f"for {len(test_feats)} test bouts"
        )
    aggregation = config.regression.aggregation
    outcomes = [
        BoutOutcome(
            fold_index=fold_index,
            bout_id=feat.bout_id,
            subject_id=feat.subject_id,
            actual_class=feat.activity_class,
            predicted_class=predicted_class,
            window_count=feat.window_count,
            actual_met=(None if feat.targets is None
                        else regress.aggregate(feat.targets, aggregation)),
            predicted_met=(None if estimates is None
                           else regress.bout_met(estimates, aggregation)),
        )
        for feat, (predicted_class, estimates) in zip(test_feats, result.predictions)
    ]
    summary = FoldSummary(
        fold_index=fold_index,
        test_subject=test_subject,
        train_fingerprint=_train_fingerprint(train.bouts),
        test_bout_ids=tuple(b.bout_id for b in test.bouts),
    )
    return summary, outcomes, result.facts


def _regression_modes(pooled: dict[str, list]) -> dict[str, float | None] | None:
    """Window-level RMSE of the augmented and window-only designs on each
    split, from ``_run_summertime``'s facts pooled in fold order.  None when
    no fold recorded facts, and for a split without target windows."""
    if not pooled:
        return None
    modes = {}
    for split in ("train", "test"):
        columns = [np.concatenate(column) for column in zip(*pooled[split])]
        for i, mode in enumerate(regress.DESIGN_MODES, start=1):
            modes[f"{split}_rmse_{mode}"] = (rmse(columns[i], columns[0])
                                             if columns else None)
    return modes


def run_loso(corpus: Corpus, method: str, config: PipelineConfig,
             runner: FoldRunner | None = None) -> EvaluationReport:
    """Evaluate one method across all LOSO folds of the corpus, in fold order.

    ``runner`` overrides the registry entry for ``method``; tests use this to
    inject oracle stubs.  It is called once per fold with the fold's train
    and test ``WindowFeatures`` (see ``FoldRunner``).  The report's
    ``regression_modes`` comes from the facts its folds record.
    """
    if runner is None:
        if method not in METHOD_RUNNERS:
            raise EvaluationError(
                f"unknown method {method!r}; expected one of "
                f"{', '.join(sorted(METHOD_RUNNERS))}"
            )
        runner = METHOD_RUNNERS[method]
    labels = corpus.label_set
    summaries = []
    outcomes: list[BoutOutcome] = []
    pooled: dict[str, list] = {}
    for i, (train, test, seeds) in enumerate(_folds(corpus, config)):
        summary, fold_outcomes, facts = _run_fold(runner, i, train, test, config,
                                                  seeds, labels)
        summaries.append(summary)
        outcomes.extend(fold_outcomes)
        for key, rows in (facts or {}).items():
            pooled.setdefault(key, []).extend(rows)
    fingerprint = config.fingerprint({"corpus": corpus_fingerprint(corpus)})
    return _build_report(method, labels, tuple(summaries), tuple(outcomes),
                         fingerprint, _regression_modes(pooled))


def _build_report(method: str, labels: tuple[str, ...],
                  summaries: tuple[FoldSummary, ...],
                  outcomes: tuple[BoutOutcome, ...], fingerprint: str,
                  regression_modes: dict | None) -> EvaluationReport:
    index = {label: i for i, label in enumerate(labels)}
    size = len(labels)
    confusion = np.zeros((size, size), dtype=int)
    confusion_windows = np.zeros((size, size), dtype=int)
    for outcome in outcomes:
        row = index[outcome.actual_class]
        col = index[outcome.predicted_class]
        confusion[row, col] += 1
        confusion_windows[row, col] += outcome.window_count

    def recall_of(matrix: np.ndarray) -> np.ndarray:
        row_sums = matrix.sum(axis=1)
        out = np.zeros(size)
        present = row_sums > 0
        out[present] = np.diag(matrix)[present] / row_sums[present]
        return out

    rmse_per_class = np.full(size, np.nan)
    pooled_pred: list[float] = []
    pooled_actual: list[float] = []
    for label, i in index.items():
        pairs = [
            (o.predicted_met, o.actual_met)
            for o in outcomes
            if o.actual_class == label
            and o.actual_met is not None
            and o.predicted_met is not None
        ]
        if pairs:
            predicted, actual = map(np.array, zip(*pairs))
            rmse_per_class[i] = rmse(predicted, actual)
            pooled_pred.extend(predicted)
            pooled_actual.extend(actual)
    rmse_overall = (
        rmse(np.array(pooled_pred), np.array(pooled_actual)) if pooled_pred else None
    )
    return EvaluationReport(
        method=method,
        labels=labels,
        confusion=confusion,
        recall_per_class=recall_of(confusion),
        confusion_windows=confusion_windows,
        recall_windows=recall_of(confusion_windows),
        rmse_per_class=rmse_per_class,
        rmse_overall=rmse_overall,
        fold_count=len(summaries),
        config_fingerprint=fingerprint,
        folds=summaries,
        outcomes=outcomes,
        regression_modes=regression_modes,
    )


def compare_methods(corpus: Corpus, methods: Sequence[str],
                    config: PipelineConfig) -> dict:
    """Run every method on identical folds and seeds; side-by-side payload."""
    reports = {method: run_loso(corpus, method, config) for method in methods}
    corpus_print = corpus_fingerprint(corpus)
    return {
        "config": config.semantic_dict(),
        "config_fingerprint": config.fingerprint({"corpus": corpus_print}),
        "corpus_fingerprint": corpus_print,
        "labels": list(corpus.label_set),
        "methods": {m: report_to_dict(r) for m, r in reports.items()},
        "reference_panel": reference_panel(),
    }


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if np.isnan(value) else value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def report_to_dict(report: EvaluationReport) -> dict:
    return _jsonify({**asdict(report), "overall_recall": report.overall_recall})


def write_report_files(comparison: dict, out_dir: str | Path) -> list[Path]:
    """Write report.json plus per-method confusion and RMSE CSV tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(comparison), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    written.append(report_path)
    labels = comparison["labels"]

    def cell(value) -> str:
        return "" if value is None else repr(value)

    for method, payload in comparison["methods"].items():
        confusion = zip(labels, payload["confusion"], payload["recall_per_class"])
        rmse = zip([*labels, "overall"],
                   [*payload["rmse_per_class"], payload["rmse_overall"]])
        tables = {
            f"confusion_{method}.csv": (["actual", *labels, "recall"], (
                [label, *(str(int(v)) for v in row), cell(recall)]
                for label, row, recall in confusion)),
            f"rmse_{method}.csv": (["class", "rmse_met"], (
                [label, cell(value)] for label, value in rmse)),
        }
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
            written.append(out / name)
    return written
