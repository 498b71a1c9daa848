"""Which summertime functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  A layer's time is the sum of the self times
of its spans, so nested calls inside one layer are counted once and calls
into another layer are charged to that layer.  Counts come from arguments
and return values only, never from program internals.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from spantrace import Span, Target

PACKAGE = "summertime"

FEATURIZE = ("features.featurize_corpus", "features.featurize_bout")
SUMMARIZE = ("summarize.summarize_corpus", "summarize.summarize_bout")
EVALUATE = ("evaluate.compare_methods", "evaluate.run_loso")
CLASSIFY_PREDICT = ("classify.predict_class", "classify.classify_bout_voting",
                    "classify.predict_values")
REGRESS_FIT = ("regress.fit_regression_suite", "regress.fit_ols")
REGRESS_PREDICT = ("regress.predict_bout_met", "regress.predict_windows")


def _windows(bound, result) -> dict:
    if isinstance(result, (list, tuple)):
        return {"windows": sum(f.window_count for f in result)}
    return {"windows": result.window_count}


def _mixture(bound, result) -> dict:
    from summertime.vbgmm import FitSettings

    settings = bound.arguments.get("settings") or FitSettings()
    iterations = len(result.elbo_trace)
    return {
        "iterations": iterations,
        "components": result.component_count,
        "nonconverged": int(iterations >= settings.max_iter),
    }


def _assign(bound, result) -> dict:
    return {"rows": len(result)}


def _train(bound, result) -> dict:
    from summertime.classify import MlpSettings

    args = bound.arguments
    settings = args.get("settings") or MlpSettings()
    inputs = np.ascontiguousarray(args["inputs"], dtype=float)
    labels = args.get("class_labels")
    if labels is None:
        head = "regressor"
    elif args.get("standardize_inputs"):
        head = "window"
    else:
        head = "summary"
    digest = hashlib.sha256(inputs.tobytes() + repr(inputs.shape).encode())
    targets = args["targets"]
    if labels is None:
        digest.update(np.ascontiguousarray(targets, dtype=float).tobytes())
    else:
        digest.update("\x1f".join(map(str, targets)).encode())
    digest.update(repr((tuple(labels or ()), settings, args.get("seed"),
                        bool(args.get("standardize_inputs")))).encode())
    epochs = len(result.training_log)
    return {
        "head": head,
        "key": digest.hexdigest(),
        "steps": epochs * math.ceil(len(inputs) / settings.batch_size),
    }


def _suite(bound, result) -> dict:
    augmented = bound.arguments.get("summaries") is not None
    fallbacks = sum(m.mode == "window_only" for m in result.models) if augmented else 0
    return {"fallbacks": fallbacks}


TARGETS = (
    Target("cli", "main"),
    Target("dataset", "load_corpus"),
    Target("features", "featurize_corpus", _windows),
    Target("features", "featurize_bout", _windows),
    Target("vbgmm", "fit_mixture", _mixture),
    Target("vbgmm", "assign", _assign),
    Target("summarize", "summarize_corpus"),
    Target("summarize", "summarize_bout"),
    Target("classify", "train_mlp", _train),
    Target("classify", "predict_class"),
    Target("classify", "classify_bout_voting"),
    Target("classify", "predict_values"),
    Target("regress", "fit_regression_suite", _suite),
    Target("regress", "fit_ols"),
    Target("regress", "predict_bout_met"),
    Target("regress", "predict_windows"),
    Target("evaluate", "compare_methods"),
    Target("evaluate", "run_loso"),
    Target("evaluate", "write_report_files"),
)

# Counts that must repeat exactly between traced passes of one input.
EXACT_COUNTS = ("features.windows", "vbgmm.cavi_iters", "classify.sgd_steps",
                "classify.duplicate_fits")


_UNITS = {"vbgmm.ms_per_iter": "ms", "classify.us_per_step": "us",
          "features.recompute_ratio": "ratio", "trace.overhead_frac": "fraction",
          "classify.recall_min": "fraction", "regress.rmse_met_max": "MET"}


def unit(name: str) -> str:
    """Unit of a per-layer metric: seconds for ``*_s``, else a count."""
    return "s" if name.endswith("_s") else _UNITS.get(name, "count")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], self_s: Sequence[float],
                  input_windows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``input_windows`` is the number of distinct windows in the pass's input
    corpus, the base of ``features.recompute_ratio``.
    """
    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def seconds(*names):
        return sum(self_s[i] for i in named(*names))

    def total(indices, fact):
        return sum(spans[i].facts.get(fact, 0) for i in indices)

    # Count windows at the outermost featurize span only, so a corpus call
    # and the per-bout calls it makes are not counted twice.
    outer_features = [i for i in named(*FEATURIZE)
                      if spans[i].parent is None
                      or spans[spans[i].parent].name not in FEATURIZE]
    windows = total(outer_features, "windows")

    fits = named("vbgmm.fit_mixture")
    fit_s = seconds("vbgmm.fit_mixture")
    iterations = total(fits, "iterations")
    assigns = named("vbgmm.assign")

    trains = named("classify.train_mlp")
    train_s = {"window": 0.0, "regressor": 0.0, "summary": 0.0}
    seen, duplicates = set(), 0
    for i in trains:
        facts = spans[i].facts
        if facts.get("head") in train_s:
            train_s[facts["head"]] += self_s[i]
        key = facts.get("key")
        duplicates += key in seen
        seen.add(key)
    steps = total(trains, "steps")

    return {
        "dataset.load_s": seconds("dataset.load_corpus"),
        "features.featurize_s": seconds(*FEATURIZE),
        "features.windows": windows,
        "features.recompute_ratio": _ratio(windows, input_windows),
        "vbgmm.fit_s": fit_s,
        "vbgmm.fits": len(fits),
        "vbgmm.cavi_iters": iterations,
        "vbgmm.ms_per_iter": 1e3 * _ratio(fit_s, iterations),
        "vbgmm.components_kept": _ratio(total(fits, "components"), len(fits)),
        "vbgmm.nonconverged_fits": total(fits, "nonconverged"),
        "vbgmm.assign_s": seconds("vbgmm.assign"),
        "vbgmm.assign_calls": len(assigns),
        "vbgmm.windows_per_assign": _ratio(total(assigns, "rows"), len(assigns)),
        "summarize.self_s": seconds(*SUMMARIZE),
        "classify.window_train_s": train_s["window"],
        "classify.regressor_train_s": train_s["regressor"],
        "classify.summary_train_s": train_s["summary"],
        "classify.fits": len(trains),
        "classify.duplicate_fits": duplicates,
        "classify.sgd_steps": steps,
        "classify.us_per_step": 1e6 * _ratio(sum(train_s.values()), steps),
        "classify.predict_s": seconds(*CLASSIFY_PREDICT),
        "regress.fit_s": seconds(*REGRESS_FIT),
        "regress.ols_fits": len(named("regress.fit_ols")),
        "regress.fallback_classes": total(named("regress.fit_regression_suite"),
                                          "fallbacks"),
        "regress.predict_s": seconds(*REGRESS_PREDICT),
        "evaluate.self_s": seconds(*EVALUATE),
        "evaluate.write_report_s": seconds("evaluate.write_report_files"),
        "cli.self_s": seconds("cli.main"),
    }
