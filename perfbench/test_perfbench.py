"""Tests of the benchmark itself: tracing, output checks, inputs, workloads.

Run with the repository's test command, or alone:
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import copy
import json
import time
from pathlib import Path

import pytest

import summertime
from layers import PACKAGE, TARGETS, layer_metrics
from spantrace import Span, Target, Tracer, self_times
from workloads import MET_RTOL, WORKLOADS, compare_outputs

REFERENCE = Path(__file__).resolve().parent / "reference"
SEED = 7


def test_wrapper_returns_the_wrapped_value_and_records_nesting():
    tracer = Tracer()
    sentinel = object()
    inner = tracer.wrap(lambda: sentinel, "inner")
    outer = tracer.wrap(lambda x, y=2: (inner(), inner(), x + y), "outer")
    assert outer(1, y=3) == (sentinel, sentinel, 4)
    spans = tracer.take()
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0]
    own = self_times(spans)
    assert own[0] == pytest.approx(spans[0].duration - spans[1].duration
                                   - spans[2].duration)
    assert own[1:] == [spans[1].duration, spans[2].duration]


def test_self_time_is_duration_minus_covered_child_time():
    spans = [Span("root", None, 0.0, 10.0),
             Span("a", 0, 1.0, 3.0), Span("b", 0, 2.0, 5.0),  # overlap
             Span("c", 0, 7.0, 8.0), Span("d", 3, 7.0, 7.5)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 0.5, 0.5]


def test_install_swaps_every_binding_and_reports_missing_names():
    from summertime import evaluate, vbgmm

    original = vbgmm.fit_mixture
    tracer = Tracer()
    tracer.install(PACKAGE, TARGETS + (Target("vbgmm", "no_such_function"),))
    try:
        assert vbgmm.fit_mixture is not original
        assert evaluate.fit_mixture is vbgmm.fit_mixture
        assert summertime.fit_mixture is vbgmm.fit_mixture
        assert tracer.missing == ["vbgmm.no_such_function"]
    finally:
        tracer.uninstall()
    assert vbgmm.fit_mixture is original and evaluate.fit_mixture is original


def _reference(name):
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def test_output_check_rejects_a_perturbed_confusion_matrix():
    want = _reference("cli-run")
    assert compare_outputs(copy.deepcopy(want), want, MET_RTOL) == []
    got = copy.deepcopy(want)
    confusion = got["methods"]["summertime"]["confusion"]
    confusion[0][0] -= 1
    confusion[0][1] += 1
    problems = compare_outputs(got, want, MET_RTOL)
    assert any("confusion" in message for _, message in problems)


def test_output_check_tolerates_met_within_rtol_only():
    want = _reference("score-long")
    bouts = want["methods"]["summertime"]["bouts"]
    bout_id = next(iter(bouts))
    got = copy.deepcopy(want)
    got_bout = got["methods"]["summertime"]["bouts"][bout_id]
    got_bout[1] *= 1 + MET_RTOL / 10
    assert compare_outputs(got, want, MET_RTOL) == []
    got_bout[1] *= 1 + 10 * MET_RTOL
    assert [bout for bout, _ in compare_outputs(got, want, MET_RTOL)] == [bout_id]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_different_seed_changes_the_corpus_fingerprint(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.setup(SEED, tmp_path / "a", workload.tiny)
    again = workload.setup(SEED, tmp_path / "b", workload.tiny)
    other = workload.setup(SEED + 1, tmp_path / "c", workload.tiny)
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint


# Per-pass counts on the tiny inputs (2 subjects, so 2 LOSO folds), derived
# from the code: `run` fits once on the whole corpus and once per fold, and
# the four voting methods train the same window classifier in every fold.
TINY_COUNTS = {
    "cli-run": {"features.recompute_ratio": 3, "vbgmm.fits": 3,
                "classify.fits": 3, "classify.duplicate_fits": 0},
    "voting-baselines": {"features.recompute_ratio": 8, "vbgmm.fits": 0,
                         "classify.fits": 10, "classify.duplicate_fits": 6},
    "score-long": {"features.recompute_ratio": 1, "vbgmm.fits": 0,
                   "classify.fits": 0, "vbgmm.assign_calls": 10},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_pass_is_correct_and_traced_counts_hold(name, tmp_path):
    workload = WORKLOADS[name]
    start = time.perf_counter()
    job = workload.setup(SEED, tmp_path, workload.tiny)
    plain = job.run()
    tracer = Tracer()
    tracer.install(PACKAGE, TARGETS)
    try:
        traced = job.run()
    finally:
        tracer.uninstall()
    assert time.perf_counter() - start < 60
    assert plain.failed == 0 and plain.problems == []
    assert compare_outputs(traced.outputs, plain.outputs, 0.0) == []
    assert tracer.missing == [] and not tracer.fact_errors
    spans = tracer.take()
    metrics = layer_metrics(spans, self_times(spans), job.window_count)
    for metric, value in TINY_COUNTS[name].items():
        assert metrics[metric] == value, metric
