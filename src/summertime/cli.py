"""Command-line orchestrator for the full pipeline.

Subcommands: generate, featurize, fit, summarize, evaluate, run.  All
diagnostics go to standard error; data tables go to standard output or to
files under the output directory.  Config values come from an optional JSON
file; command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import regress, vbgmm
from .config import (METHOD_NAMES, PipelineConfig, apply_overrides, load_config)
from .dataset import Corpus, generate_synthetic, load_corpus, save_corpus
from .errors import (ConfigError, ConsistencyError, CorpusLoadError,
                     EvaluationError, FitError, SummertimeError, load_payload,
                     save_payload)
from .evaluate import (FittedPipeline, compare_methods, fit_pipeline,
                       write_report_files)
from .features import featurize_corpus, stack_features, write_features_csv
from .summarize import SummaryVector, summarize_corpus, write_summaries_csv

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON config file")
    shared.add_argument("--seed", type=int, metavar="N",
                        help="synthetic corpus seed (overrides config)")
    shared.add_argument("--window-length", type=int, metavar="N",
                        help="samples per window (overrides config)")
    shared.add_argument("--methods", metavar="LIST",
                        help=f"comma-separated subset of: {', '.join(METHOD_NAMES)}")
    shared.add_argument("--aggregation", choices=regress.AGGREGATIONS,
                        help="per-bout aggregation of window MET estimates")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--corpus", metavar="DIR",
                        help="corpus directory to load (default: synthesize)")

    parser = argparse.ArgumentParser(
        prog="summertime",
        description=(
            "Cluster-ratio summarization of activity time series, with "
            "activity classification and MET regression under "
            "leave-one-subject-out evaluation."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", parents=[shared],
                              help="write a seeded synthetic corpus")
    gen.set_defaults(handler=cmd_generate)

    feat = commands.add_parser("featurize", parents=[shared],
                               help="write per-window features as CSV")
    feat.set_defaults(handler=cmd_featurize)

    fit = commands.add_parser("fit", parents=[shared],
                              help="fit mixture, classifier and regressions "
                                   "on the whole corpus")
    fit.set_defaults(handler=cmd_fit)

    summ = commands.add_parser("summarize", parents=[shared],
                               help="write per-bout cluster-ratio summaries")
    summ.add_argument("--model", metavar="PATH",
                      help="fitted pipeline file, whose mixture is used "
                           "(default OUT/model_pipeline.json)")
    summ.set_defaults(handler=cmd_summarize)

    ev = commands.add_parser("evaluate", parents=[shared],
                             help="leave-one-subject-out evaluation report")
    ev.set_defaults(handler=cmd_evaluate)

    run = commands.add_parser("run", parents=[shared],
                              help="full pipeline: fit, summarize, evaluate")
    run.set_defaults(handler=cmd_run)
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    return apply_overrides(
        config,
        seed=args.seed,
        window_length=args.window_length,
        methods=args.methods or None,  # --methods "" keeps the config's list
        aggregation=args.aggregation,
        out=args.out,
        corpus=args.corpus,
    )


def _synthesize(config: PipelineConfig) -> Corpus:
    """The synthetic corpus that the config describes."""
    synthetic = config.synthetic
    return generate_synthetic(synthetic.generator_config(config.window_length),
                              synthetic.seed)


def _obtain_corpus(config: PipelineConfig) -> Corpus:
    if config.io.corpus is not None:
        log.info("loading corpus from %s", config.io.corpus)
        return load_corpus(config.io.corpus, config.window_length)
    log.info("generating synthetic corpus (seed %d)", config.synthetic.seed)
    return _synthesize(config)


def _fit_and_save(corpus: Corpus, config: PipelineConfig
                  ) -> tuple[FittedPipeline, list[SummaryVector], Path]:
    """Fit every stage on the whole corpus and write the pipeline file;
    returns the pipeline, the corpus's summaries and the output directory."""
    features = featurize_corpus(corpus, config.window_length)
    log.info("fitting mixture on %d windows", sum(f.window_count for f in features))
    mixture = vbgmm.fit_mixture(stack_features(features), settings=config.gmm,
                                seed=config.gmm.seed)
    fitted, summaries = fit_pipeline(features, corpus.label_set, config, mixture,
                                     config.mlp.seed)
    log.info("mixture kept %d components", fitted.mixture.component_count)
    out = Path(config.io.out)
    out.mkdir(parents=True, exist_ok=True)
    save_payload(fitted.to_dict(), out / "model_pipeline.json")
    return fitted, summaries, out


def _echo_comparison(comparison: dict) -> None:
    labels = comparison["labels"]
    for method, payload in comparison["methods"].items():
        print(f"method: {method}")
        print(f"{'class':<10}{'recall':>10}{'rmse_met':>12}")
        for i, label in enumerate(labels):
            recall = payload["recall_per_class"][i]
            value = payload["rmse_per_class"][i]
            rmse_text = "-" if value is None else f"{value:.4f}"
            print(f"{label:<10}{recall:>10.4f}{rmse_text:>12}")
        overall_rmse = payload["rmse_overall"]
        rmse_text = "-" if overall_rmse is None else f"{overall_rmse:.4f}"
        print(f"{'overall':<10}{payload['overall_recall']:>10.4f}{rmse_text:>12}")
        print()


def cmd_generate(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = _synthesize(config)
    save_corpus(corpus, config.io.out, config.window_length)
    print(f"wrote {len(corpus)} bouts for {len(corpus.subject_ids)} subjects "
          f"to {config.io.out}")
    return 0


def cmd_featurize(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = _obtain_corpus(config)
    features = featurize_corpus(corpus, config.window_length)
    out = Path(config.io.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "features.csv"
    write_features_csv(features, path)
    print(f"wrote {sum(f.window_count for f in features)} windows to {path}")
    return 0


def cmd_fit(args: argparse.Namespace, config: PipelineConfig) -> int:
    fitted, _, out = _fit_and_save(_obtain_corpus(config), config)
    print(f"fitted {fitted.mixture.component_count} mixture components; "
          f"models written to {out}")
    return 0


def cmd_summarize(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = _obtain_corpus(config)
    out = Path(config.io.out)
    model_path = Path(args.model) if args.model else out / "model_pipeline.json"
    if not model_path.is_file():
        raise FitError(f"fitted pipeline not found at {model_path}; run fit first")
    mixture = load_payload(model_path, FittedPipeline.from_dict).mixture
    features = featurize_corpus(corpus, config.window_length)
    summaries = summarize_corpus(mixture, features)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summaries.csv"
    write_summaries_csv(summaries, path)
    print(f"wrote {len(summaries)} summaries ({mixture.component_count} "
          f"ratio columns) to {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = _obtain_corpus(config)
    comparison = compare_methods(corpus, config.evaluation.methods, config)
    written = write_report_files(comparison, config.io.out)
    _echo_comparison(comparison)
    print(f"config fingerprint: {comparison['config_fingerprint']}")
    log.info("wrote %s", ", ".join(str(p) for p in written))
    return 0


def cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = _obtain_corpus(config)
    _, summaries, out = _fit_and_save(corpus, config)
    write_summaries_csv(summaries, out / "summaries.csv")
    comparison = compare_methods(corpus, config.evaluation.methods, config)
    write_report_files(comparison, out)
    _echo_comparison(comparison)
    print(f"config fingerprint: {comparison['config_fingerprint']}")
    return 0


_STAGE_BY_ERROR = (
    (CorpusLoadError, "corpus loading"),
    (ConsistencyError, "internal consistency"),
    (FitError, "model fitting"),
    (EvaluationError, "evaluation"),
)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SummertimeError as exc:
        stage = next(
            (name for err, name in _STAGE_BY_ERROR if isinstance(exc, err)),
            "pipeline",
        )
        print(f"{stage} failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
