"""The benchmark's workloads: set-up, one timed pass, and checked outputs.

Every workload runs the default ``PipelineConfig`` serially in one process
and calls only stable entry points: ``cli.main``, ``generate_synthetic``,
``save_corpus`` and the public fit and predict functions.  Inputs come from
the workload seed alone.

A pass's outputs have one shape for every workload::

    {"labels": [...], "methods": {method: {
        "confusion": [[...]], "rmse_per_class": [...], "rmse_overall": x,
        "bouts": {bout_id: [predicted_class, predicted_met]}}}}
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

# Calls go through module attributes, so the traced run sees them.
from summertime import (classify, cli, dataset, features, regress, summarize,
                        vbgmm)
from summertime.config import PipelineConfig
from summertime.dataset import DEFAULT_REGIMES, SyntheticConfig
from summertime.evaluate import corpus_fingerprint

# Relative tolerance on RMSE and MET against the committed reference; the
# vectorized layers the roadmap plans reorder float sums.  Confusion
# matrices and predicted classes must match exactly.
MET_RTOL = 1e-6
VOTING_METHODS = ("ann_voting", "fivereg_ann", "linreg_local", "ann_regression")
LONG_BOUTS = tuple(replace(r, duration_range=(600, 3600)) for r in DEFAULT_REGIMES)
# Every bout at the middle of its class's default duration range, so the
# window count, and with it the SGD work of a pass, is the same at every seed.
FIXED_BOUTS = tuple(replace(r, duration_range=(sum(r.duration_range) // 2,) * 2)
                    for r in DEFAULT_REGIMES)


@dataclass(frozen=True)
class Sizes:
    subjects: int  # corpus the CLI reads, or the score-long training corpus
    heldout_subjects: int = 0  # score-long held-out corpus, one bout per class


@dataclass
class Input:
    """What set-up leaves for the timed passes."""

    bout_count: int
    window_count: int  # distinct windows of the corpus a pass reads
    fingerprint: str
    run: Callable[[], "PassResult"]


@dataclass
class PassResult:
    outputs: dict
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    bout_seconds: list[float] = field(default_factory=list)


def _windows(corpus, window_length: int) -> int:
    return sum(b.sample_count // window_length for b in corpus.bouts)


def _close(a: float | None, b: float | None, rtol: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def compare_outputs(got: dict, want: dict, rtol: float) -> list[tuple[str | None, str]]:
    """Differences between two pass outputs as (bout_id or None, message)."""
    problems: list[tuple[str | None, str]] = []
    if got["labels"] != want["labels"]:
        return [(None, f"labels {got['labels']} != {want['labels']}")]
    for method, w in want["methods"].items():
        g = got["methods"].get(method)
        if g is None:
            problems.append((None, f"{method}: no output"))
            continue
        if g["confusion"] != w["confusion"]:
            problems.append((None, f"{method}: confusion {g['confusion']} "
                                   f"!= {w['confusion']}"))
        pairs = zip(want["labels"] + ["overall"],
                    g["rmse_per_class"] + [g["rmse_overall"]],
                    w["rmse_per_class"] + [w["rmse_overall"]])
        for label, a, b in pairs:
            if not _close(a, b, rtol):
                problems.append((None, f"{method}: {label} rmse {a!r} != {b!r}"))
        if g["bouts"].keys() != w["bouts"].keys():
            problems.append((None, f"{method}: scored bouts differ"))
            continue
        for bout_id, (cls, met) in w["bouts"].items():
            got_cls, got_met = g["bouts"][bout_id]
            if got_cls != cls or not _close(got_met, met, rtol):
                problems.append((bout_id, f"{method}: {bout_id} predicted "
                                          f"({got_cls}, {got_met!r}) != ({cls}, {met!r})"))
    extra = sorted(got["methods"].keys() - want["methods"].keys())
    if extra:
        problems.append((None, f"unexpected methods {extra}"))
    return problems


def _sanity(outputs: dict, bout_count: int) -> list[str]:
    """Checks that need no reference: counts add up, MET is finite and
    nonnegative, and every method beats chance."""
    problems = []
    chance = 1.0 / len(outputs["labels"])
    for method, payload in outputs["methods"].items():
        confusion = np.asarray(payload["confusion"])
        if confusion.sum() != bout_count:
            problems.append(f"{method}: confusion holds {confusion.sum()} of "
                            f"{bout_count} bouts")
        elif np.trace(confusion) / bout_count <= chance:
            problems.append(f"{method}: accuracy at or below chance")
        bad = [b for b, (_, met) in payload["bouts"].items()
               if met is None or not math.isfinite(met) or met < 0]
        if bad:
            problems.append(f"{method}: {len(bad)} bouts without a valid MET "
                            f"(first {bad[0]})")
    return problems


def _rmse(errors: np.ndarray) -> float | None:
    return float(np.sqrt(np.mean(np.square(errors)))) if len(errors) else None


def rmse_met_max(outputs: dict) -> float:
    """Highest overall bout-level MET RMSE across the outputs' methods."""
    return max(p["rmse_overall"] for p in outputs["methods"].values())


def recall_min(outputs: dict) -> float:
    """Lowest mean per-class bout recall across the outputs' methods."""
    worst = math.inf
    for payload in outputs["methods"].values():
        confusion = np.asarray(payload["confusion"], dtype=float)
        rows = confusion.sum(axis=1)
        recall = np.divide(np.diag(confusion), rows, out=np.zeros(len(rows)),
                           where=rows > 0)
        worst = min(worst, float(recall.mean()))
    return worst


# --------------------------------------------------------------------------
# cli-run and voting-baselines: one ``summertime`` CLI invocation per pass
# --------------------------------------------------------------------------


def _report_outputs(report: dict) -> dict:
    return {
        "labels": report["labels"],
        "methods": {
            method: {
                "confusion": payload["confusion"],
                "rmse_per_class": payload["rmse_per_class"],
                "rmse_overall": payload["rmse_overall"],
                "bouts": {o["bout_id"]: [o["predicted_class"], o["predicted_met"]]
                          for o in payload["outcomes"]},
            }
            for method, payload in report["methods"].items()
        },
    }


def _cli_setup(command: list[str], methods: tuple[str, ...],
               regimes=DEFAULT_REGIMES):
    def setup(seed: int, workdir: Path, sizes: Sizes) -> Input:
        config = PipelineConfig()
        corpus = dataset.generate_synthetic(
            SyntheticConfig(subjects=sizes.subjects,
                            bouts_per_class=config.synthetic.bouts_per_class,
                            regimes=regimes, window_length=config.window_length),
            seed,
        )
        corpus_dir, out_dir = workdir / "corpus", workdir / "out"
        dataset.save_corpus(corpus, corpus_dir, config.window_length)
        argv = command + ["--corpus", str(corpus_dir), "--out", str(out_dir)]
        bout_count = len(corpus)

        def run() -> PassResult:
            report_path = out_dir / "report.json"
            report_path.unlink(missing_ok=True)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception as exc:  # what an uncaught error would exit with
                return PassResult({}, 1, 1, [f"summertime raised {exc!r}"])
            if code != 0:
                return PassResult({}, 1, 1, [f"summertime exited with {code}"])
            with open(report_path, encoding="utf-8") as fh:
                outputs = _report_outputs(json.load(fh))
            problems = _sanity(outputs, bout_count)
            if sorted(outputs["methods"]) != sorted(methods):
                problems.append(f"report has methods {sorted(outputs['methods'])}")
            return PassResult(outputs, 1, int(bool(problems)), problems)

        return Input(bout_count, _windows(corpus, config.window_length),
                     corpus_fingerprint(corpus), run)

    return setup


# --------------------------------------------------------------------------
# score-long: fit once in set-up, then score long held-out bouts one by one
# --------------------------------------------------------------------------


def _heldout_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def _score_setup(seed: int, workdir: Path, sizes: Sizes) -> Input:
    config = PipelineConfig()
    wl = config.window_length
    train = dataset.generate_synthetic(
        SyntheticConfig(subjects=sizes.subjects,
                        bouts_per_class=config.synthetic.bouts_per_class,
                        window_length=wl),
        seed,
    )
    feats = features.featurize_corpus(train, wl)
    mixture = vbgmm.fit_mixture(features.stack_features(feats), seed=config.gmm.seed)
    summaries = summarize.summarize_corpus(mixture, feats)
    classifier = classify.train_mlp(summarize.summary_matrix(summaries),
                                    [s.activity_class for s in summaries],
                                    class_labels=train.label_set,
                                    seed=config.mlp.seed)
    suite = regress.fit_regression_suite(feats, summaries, train.label_set)
    heldout = dataset.generate_synthetic(
        SyntheticConfig(subjects=sizes.heldout_subjects, bouts_per_class=1,
                        regimes=LONG_BOUTS, window_length=wl),
        _heldout_seed(seed),
    )
    labels = list(heldout.label_set)
    aggregation = config.regression.aggregation

    def run() -> PassResult:
        bouts, seconds, problems = {}, [], []
        actual, predicted = [], []
        confusion = np.zeros((len(labels), len(labels)), dtype=int)
        failed = 0
        for bout in heldout.bouts:
            start = time.perf_counter()
            try:
                feat = features.featurize_bout(bout, wl)
                summary = summarize.summarize_bout(mixture, feat)
                label = classify.predict_class(classifier, summary.ratios).label
                met = regress.predict_bout_met(suite, label, feat, summary.ratios, aggregation)
            except Exception as exc:  # one failed bout must not end the pass
                failed += 1
                problems.append(f"{bout.bout_id}: {type(exc).__name__}: {exc}")
                continue
            seconds.append(time.perf_counter() - start)
            if not math.isfinite(met):
                failed += 1
                problems.append(f"{bout.bout_id}: non-finite MET {met!r}")
            bouts[bout.bout_id] = [label, met]
            confusion[labels.index(bout.activity_class), labels.index(label)] += 1
            actual.append(regress.aggregate(
                np.asarray(bout.targets[: feat.window_count], dtype=float), aggregation))
            predicted.append(met)
        errors = np.array(predicted) - np.array(actual)
        true_labels = np.array([b.activity_class for b in heldout.bouts
                                if b.bout_id in bouts])
        rmse = [_rmse(errors[true_labels == label]) for label in labels]
        outputs = {"labels": labels, "methods": {"summertime": {
            "confusion": confusion.tolist(), "rmse_per_class": rmse,
            "rmse_overall": _rmse(errors), "bouts": bouts}}}
        return PassResult(outputs, len(heldout), failed, problems, seconds)

    return Input(len(heldout), _windows(heldout, wl), corpus_fingerprint(heldout), run)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, Sizes], Input]
    sizes: Sizes
    tiny: Sizes  # for the smoke test


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-run",
            _cli_setup(["run"], ("summertime",)),
            Sizes(subjects=10), Sizes(subjects=2),
        ),
        Workload(
            "voting-baselines",
            _cli_setup(["evaluate", "--methods", ",".join(VOTING_METHODS)],
                       VOTING_METHODS, FIXED_BOUTS),
            Sizes(subjects=3), Sizes(subjects=2),
        ),
        Workload(
            "score-long",
            _score_setup,
            Sizes(subjects=10, heldout_subjects=60),
            Sizes(subjects=2, heldout_subjects=2),
        ),
    )
}
