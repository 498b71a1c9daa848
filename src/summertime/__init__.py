"""Fixed-length cluster-ratio summaries of variable-length activity bouts.

Pipeline: window features -> variational Gaussian mixture with automatic
component selection -> per-bout cluster-ratio summary vectors -> activity
classification and per-class MET regression, evaluated by
leave-one-subject-out cross-validation against four baseline methods.
"""

from .dataset import (Bout, ClassRegime, Corpus, DEFAULT_LABELS, SyntheticConfig,
                      generate_synthetic, load_corpus, loso_folds, save_corpus)
from .features import WindowFeatures, featurize_bout, featurize_corpus
from .vbgmm import FitSettings, MixtureModel, fit_mixture
from .summarize import SummaryVector, summarize_bout, summarize_corpus
from .classify import ClassPrediction, MlpModel, MlpSettings, train_mlp
from .regress import LinearModel, RegressionSuite, fit_regression_suite
from .config import PipelineConfig, load_config
from .evaluate import EvaluationReport, compare_methods, rmse, run_loso
from .errors import (ConfigError, ConsistencyError, CorpusLoadError,
                     EvaluationError, FitError, SummertimeError)

__version__ = "0.1.0"

__all__ = [
    "Bout", "ClassRegime", "Corpus", "DEFAULT_LABELS", "SyntheticConfig",
    "generate_synthetic", "load_corpus", "loso_folds", "save_corpus",
    "WindowFeatures", "featurize_bout", "featurize_corpus",
    "FitSettings", "MixtureModel", "fit_mixture",
    "SummaryVector", "summarize_bout", "summarize_corpus",
    "ClassPrediction", "MlpModel", "MlpSettings", "train_mlp",
    "LinearModel", "RegressionSuite", "fit_regression_suite",
    "PipelineConfig", "load_config",
    "EvaluationReport", "compare_methods", "rmse", "run_loso",
    "ConfigError", "ConsistencyError", "CorpusLoadError", "EvaluationError",
    "FitError", "SummertimeError",
    "__version__",
]
