"""Benchmark of the summertime pipeline.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it sets the workload up several times, makes one untimed
warm-up pass on the workload's tiny input, then runs closed-loop
passes of it (one client; the next pass starts when the previous one ends)
for about ``--seconds`` seconds, checks every pass's outputs, and prints the
metrics one per line with their units, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; the bounded pass time is the
slowest pass of the run (see README.md for why).  ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  Without ``--workload`` it runs every workload, each in
a fresh process, and exits non-zero if any of them fails its checks.

Outputs of the first pass, with the environment, go to
``perfbench/out/<workload>-seed<N>.json``; at the default seed they must match
``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
WORKLOAD_NAMES = ("cli-run", "voting-baselines", "score-long")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 55
# Set-up runs at least SETUP_REPEATS times and, when it is cheap, until
# SETUP_SECONDS are spent (at most SETUP_CAP times); setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_CAP = 20
# Untraced runs make at least this many passes, so wall_s is a median even
# when passes are slow.
MIN_PASSES = 3
# Set before numpy loads: one BLAS thread, so runs on a 2-core box do not
# contend with themselves and timings do not depend on the thread default.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in
                        ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "commit": commit,
        "seed": seed,
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def _failed_ops(result, mismatches) -> int:
    """Operations of one pass that failed, output mismatches included."""
    if not mismatches:
        return result.failed
    if result.attempted == 1:
        return 1
    bouts = {bout for bout, _ in mismatches if bout is not None}
    return min(result.attempted, result.failed + max(len(bouts), 1))


def _set_up(workload, seed: int, workdir: Path, trace: bool):
    """Set the workload up; return the last input and every set-up's time."""
    times = []
    while True:
        start = time.perf_counter()
        job = workload.setup(seed, workdir / f"setup{len(times)}", workload.sizes)
        times.append(time.perf_counter() - start)
        if trace or len(times) >= SETUP_CAP:
            return job, times
        if len(times) >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS:
            return job, times


def _write_spans(path: Path, spans_by_pass) -> None:
    from spantrace import self_times

    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in enumerate(spans_by_pass):
            for index, (span, own) in enumerate(zip(spans, self_times(spans))):
                fh.write(json.dumps({
                    "pass": pass_index, "id": index, "name": span.name,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "self_s": own, **span.facts}) + "\n")


def _measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    from layers import EXACT_COUNTS, PACKAGE, TARGETS, layer_metrics, unit
    from spantrace import Tracer, self_times
    from workloads import MET_RTOL, compare_outputs, recall_min, rmse_met_max

    job, setup_times = _set_up(workload, seed, workdir, trace)
    # Lazy imports and first-call costs are paid here, not in a timed pass.
    workload.setup(seed, workdir / "warmup", workload.tiny).run()
    env = _environment(seed)
    print("env", json.dumps(env, sort_keys=True))
    print(f"input: {job.bout_count} bouts, {job.window_count} windows, "
          f"corpus {job.fingerprint[:16]}")
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE / f"{workload.name}.json", encoding="utf-8") as fh:
            reference = json.load(fh)["outputs"]

    tracer = Tracer()
    walls, traced_walls, bout_seconds, layer_rows, spans_by_pass = [], [], [], [], []
    attempted = failed = 0
    first = None
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install(PACKAGE, TARGETS)
            try:
                t0 = time.perf_counter()
                result = job.run()
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if traced:
                traced_walls.append(wall)
                spans = tracer.take()
                spans_by_pass.append(spans)
                layer_rows.append(layer_metrics(spans, self_times(spans),
                                                job.window_count))
            else:
                walls.append(wall)
                bout_seconds += result.bout_seconds
            mismatches = []
            if result.outputs:
                first = first or result.outputs
                mismatches = compare_outputs(result.outputs, first, 0.0)
                if reference is not None:
                    mismatches += compare_outputs(result.outputs, reference, MET_RTOL)
            attempted += result.attempted
            failed += _failed_ops(result, mismatches)
            problems += result.problems + [message for _, message in mismatches]
        elapsed = time.perf_counter() - start
        if (len(walls) >= (1 if trace else MIN_PASSES)
                and elapsed + (time.perf_counter() - cycle_start) > seconds):
            break

    for message in problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    with open(OUT / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "env": env,
                   "corpus_fingerprint": job.fingerprint, "outputs": first},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")

    quality = {"classify.recall_min": recall_min(first) if first else 0.0,
               "regress.rmse_met_max": rmse_met_max(first) if first else 0.0}
    if trace:
        values = {}
        for name in layer_rows[0]:
            values[name] = statistics.median(row[name] for row in layer_rows)
            if name in EXACT_COUNTS and len({row[name] for row in layer_rows}) > 1:
                print(f"trace: {name} differs between traced passes")
        values.update(quality)
        values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        for name in tracer.missing:
            print(f"trace: {name} is missing at this commit; its metrics read 0")
        for message in sorted(tracer.fact_errors):
            print(f"trace: could not read counts from {message}")
        _write_spans(OUT / f"trace-{workload.name}-seed{seed}.jsonl", spans_by_pass)
        print(f"trace: {len(traced_walls)} traced and {len(walls)} plain passes")
        metrics = {name: (value, unit(name)) for name, value in values.items()}
    else:
        q1, wall, q3 = statistics.quantiles(walls, n=4)
        print(f"passes_s: {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"wall_s: median {wall:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, "
              f"max {max(walls):.4f}, n={len(walls)} passes")
        print(f"setups_s: {' '.join(f'{t:.3f}' for t in setup_times)}")
        for name, value in quality.items():
            print(f"{name} {value:.6g} {unit(name)} (per-layer metric; varies with the seed)")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_max_s": (max(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
        if bout_seconds:  # the workload timed single bouts
            print(f"bout_ms: {len(bout_seconds)} bouts pooled over {len(walls)} passes")
            metrics["bout_ms_p50"] = (1e3 * _percentile(bout_seconds, 50), "ms")
            metrics["bout_ms_p95"] = (1e3 * _percentile(bout_seconds, 95), "ms")
    for name, (value, metric_unit) in metrics.items():
        print(f"{name} {value:.6g} {metric_unit}")
    if not trace:
        print(f"wall_s {wall:.6g} s (median pass; not bounded, see README.md)")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} "
          f"operations)")
    correct = first is not None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_unit}
                    for name, (value, metric_unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "summertime" / "__init__.py").is_file():
        print(f"perfbench: no summertime sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _measure(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
