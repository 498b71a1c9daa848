"""Core data model, on-disk corpus format, synthetic corpora, and LOSO folds.

A corpus is a collection of activity bouts.  Each bout is one variable-length
recording: a (T samples x A axes) matrix of device counts at one sample per
second, tagged with a subject id and an activity class, optionally carrying
one energy-expenditure target (in MET units) per fixed-length window.

On disk a corpus is a directory with:

* ``manifest.csv``   -- header ``bout_id,subject_id,label,file``; one row per bout.
* one signal CSV per bout -- header ``t,axis1,...,axisA[,met]``.  The optional
  ``met`` column holds the per-window target either on the first row of each
  window (canonical) or repeated across the window's rows.
* ``provenance.json`` -- label-set order, axis count, free-text provenance,
  the RNG seed for synthetic corpora and the window length the ``met``
  column was written for.  Optional on load; always written.  A corpus must
  be loaded with the window length it was saved with.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, CorpusLoadError

DEFAULT_LABELS = ("Sed", "LHH", "MtV", "Walk", "Run")
DEFAULT_WINDOW_LENGTH = 12

MANIFEST_NAME = "manifest.csv"
PROVENANCE_NAME = "provenance.json"


@dataclass(frozen=True)
class Bout:
    """One contiguous recording of a single activity by one subject.

    ``signal`` has shape (T, A) with one sample per second.  ``targets``, when
    present, holds one MET value per disjoint window of the bout (length
    floor(T / window_length) for the window length the corpus was built with).
    """

    bout_id: str
    subject_id: str
    activity_class: str
    signal: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        signal = np.asarray(self.signal, dtype=float)
        if signal.ndim != 2 or signal.shape[1] < 1:
            raise ValueError(
                f"bout {self.bout_id!r}: signal must be a (T, A) matrix with A >= 1, "
                f"got shape {signal.shape}"
            )
        if not np.all(np.isfinite(signal)):
            raise ValueError(f"bout {self.bout_id!r}: signal contains non-finite values")
        object.__setattr__(self, "signal", signal)
        if self.targets is not None:
            targets = np.asarray(self.targets, dtype=float)
            if targets.ndim != 1:
                raise ValueError(f"bout {self.bout_id!r}: targets must be a 1-d sequence")
            if not np.all(np.isfinite(targets)) or np.any(targets < 0):
                raise ValueError(
                    f"bout {self.bout_id!r}: targets must be finite and nonnegative"
                )
            object.__setattr__(self, "targets", targets)

    @property
    def sample_count(self) -> int:
        return self.signal.shape[0]

    @property
    def axis_count(self) -> int:
        return self.signal.shape[1]


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of bouts sharing one axis count and label set."""

    bouts: tuple[Bout, ...]
    axis_count: int
    label_set: tuple[str, ...]
    provenance: str = ""
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "bouts", tuple(self.bouts))
        object.__setattr__(self, "label_set", tuple(self.label_set))
        if len(self.label_set) < 2:
            raise ValueError("label set must contain at least 2 labels")
        if len(set(self.label_set)) != len(self.label_set):
            raise ValueError("label set contains duplicates")
        seen_ids = set()
        for bout in self.bouts:
            if bout.axis_count != self.axis_count:
                raise ValueError(
                    f"bout {bout.bout_id!r} has {bout.axis_count} axes, "
                    f"corpus declares {self.axis_count}"
                )
            if bout.activity_class not in self.label_set:
                raise ValueError(
                    f"bout {bout.bout_id!r} has unknown label {bout.activity_class!r}"
                )
            if not bout.subject_id:
                raise ValueError(f"bout {bout.bout_id!r} has an empty subject id")
            if bout.bout_id in seen_ids:
                raise ValueError(f"duplicate bout id {bout.bout_id!r}")
            seen_ids.add(bout.bout_id)

    def __len__(self) -> int:
        return len(self.bouts)

    @property
    def subject_ids(self) -> tuple[str, ...]:
        """Distinct subject ids in sorted order."""
        return tuple(sorted({b.subject_id for b in self.bouts}))

    def bouts_for_subject(self, subject_id: str) -> tuple[Bout, ...]:
        return tuple(b for b in self.bouts if b.subject_id == subject_id)


def corpora_equal(a: Corpus, b: Corpus) -> bool:
    """Structural equality: same metadata and bit-identical bout contents."""
    if (a.axis_count, a.label_set, a.provenance, a.seed) != (
        b.axis_count,
        b.label_set,
        b.provenance,
        b.seed,
    ):
        return False
    if len(a.bouts) != len(b.bouts):
        return False
    for x, y in zip(a.bouts, b.bouts):
        if (x.bout_id, x.subject_id, x.activity_class) != (
            y.bout_id,
            y.subject_id,
            y.activity_class,
        ):
            return False
        if not np.array_equal(x.signal, y.signal):
            return False
        if (x.targets is None) != (y.targets is None):
            return False
        if x.targets is not None and not np.array_equal(x.targets, y.targets):
            return False
    return True


# --------------------------------------------------------------------------
# On-disk format
# --------------------------------------------------------------------------


def _format_number(value: float) -> str:
    """Shortest exact decimal form; integers lose the trailing '.0'."""
    if math.isfinite(value) and float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def save_corpus(corpus: Corpus, path: str | Path,
                window_length: int = DEFAULT_WINDOW_LENGTH) -> None:
    """Write ``corpus`` under directory ``path`` in the canonical layout.

    Targets are written with the first-row convention: the ``met`` cell is
    filled on the first sample of each window and left empty elsewhere.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_NAME, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bout_id", "subject_id", "label", "file"])
        for bout in corpus.bouts:
            writer.writerow(
                [bout.bout_id, bout.subject_id, bout.activity_class, f"{bout.bout_id}.csv"]
            )
    for bout in corpus.bouts:
        axes = [f"axis{i + 1}" for i in range(corpus.axis_count)]
        header = ["t"] + axes + (["met"] if bout.targets is not None else [])
        with open(root / f"{bout.bout_id}.csv", "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for t in range(bout.sample_count):
                row = [str(t)] + [_format_number(v) for v in bout.signal[t]]
                if bout.targets is not None:
                    window_index, offset = divmod(t, window_length)
                    if offset == 0 and window_index < len(bout.targets):
                        row.append(_format_number(bout.targets[window_index]))
                    else:
                        row.append("")
                writer.writerow(row)
    meta = {
        "axis_count": corpus.axis_count,
        "label_set": list(corpus.label_set),
        "provenance": corpus.provenance,
        "seed": corpus.seed,
        "window_length": window_length,
    }
    with open(root / PROVENANCE_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _open_text(path: Path) -> io.StringIO:
    """Read a corpus file as ``open(path, newline="")`` would; non-UTF-8 names it."""
    try:
        return io.StringIO(path.read_bytes().decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        raise CorpusLoadError(f"{path}: {exc}") from None


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CorpusLoadError(f"{where}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise CorpusLoadError(f"{where}: non-finite value {text!r}")
    return value


def _load_bout_file(path: Path, bout_id: str, subject_id: str, label: str,
                    window_length: int) -> Bout:
    if not path.is_file():
        raise CorpusLoadError(f"{path}: bout file is missing")
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusLoadError(f"{path}: empty bout file") from None
        has_met = bool(header) and header[-1].strip().lower() == "met"
        axis_names = header[1:-1] if has_met else header[1:]
        axis_count = len(axis_names)
        if not header or header[0].strip().lower() != "t" or axis_count < 1:
            raise CorpusLoadError(
                f"{path}:1: header must be 't,axis1,...,axisA[,met]', got {','.join(header)!r}"
            )
        rows: list[list[float]] = []
        met_cells: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            expected = 1 + axis_count + (1 if has_met else 0)
            if len(row) != expected:
                raise CorpusLoadError(
                    f"{path}:{line_no}: expected {expected} cells, got {len(row)}"
                )
            rows.append(
                [_parse_float(cell, f"{path}:{line_no}") for cell in row[1 : 1 + axis_count]]
            )
            met_cells.append(row[1 + axis_count].strip() if has_met else "")
    signal = np.array(rows, dtype=float)
    if signal.shape[0] < window_length:
        raise CorpusLoadError(
            f"{path}: bout shorter than one window "
            f"({signal.shape[0]} < {window_length} samples)"
        )
    targets = None
    if has_met:
        targets = _extract_window_targets(met_cells, window_length, path)
    try:
        return Bout(bout_id, subject_id, label, signal, targets)
    except ValueError as exc:
        raise CorpusLoadError(f"{path}: {exc}") from None


def _extract_window_targets(met_cells: list[str], window_length: int,
                            path: Path) -> np.ndarray:
    """Read one MET value per full window; accepts first-row or repeated form.

    Cells in the trailing partial window (if any) are ignored, matching the
    truncation rule used during segmentation.
    """
    window_count = len(met_cells) // window_length
    targets = np.empty(window_count)
    for w in range(window_count):
        block = met_cells[w * window_length : (w + 1) * window_length]
        values = set()
        for offset, cell in enumerate(block):
            if cell:
                where = f"{path}:{w * window_length + offset + 2}"
                values.add(_parse_float(cell, where))
        first_line = w * window_length + 2
        if not values:
            raise CorpusLoadError(
                f"{path}:{first_line}: window {w} has no met value"
            )
        if len(values) > 1:
            raise CorpusLoadError(
                f"{path}:{first_line}: window {w} has conflicting met values "
                f"{sorted(values)}"
            )
        targets[w] = values.pop()
    return targets


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each key of provenance.json must hold, and the test for it.
_PROVENANCE_TYPES = {
    "label_set": ("a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "axis_count": ("an integer", _is_int),
    "window_length": ("an integer", _is_int),
    "seed": ("an integer or null", lambda v: v is None or _is_int(v)),
    "provenance": ("a string", lambda v: isinstance(v, str)),
}


def load_corpus(path: str | Path,
                window_length: int = DEFAULT_WINDOW_LENGTH) -> Corpus:
    """Load and validate a corpus from ``path`` (a directory or manifest file)."""
    path = Path(path)
    manifest = path / MANIFEST_NAME if path.is_dir() else path
    root = manifest.parent
    if not manifest.is_file():
        raise CorpusLoadError(f"{manifest}: manifest not found")

    meta: dict = {}
    meta_path = root / PROVENANCE_NAME
    if meta_path.is_file():
        try:
            meta = json.load(_open_text(meta_path))
        except json.JSONDecodeError as exc:
            raise CorpusLoadError(f"{meta_path}: invalid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise CorpusLoadError(
                f"{meta_path}: must hold a JSON object, got {type(meta).__name__}"
            )
        for key, (kind, holds) in _PROVENANCE_TYPES.items():
            if key in meta and not holds(meta[key]):
                raise CorpusLoadError(
                    f"{meta_path}: {key} must be {kind}, got {meta[key]!r}"
                )
    if "window_length" in meta and meta["window_length"] != window_length:
        raise CorpusLoadError(
            f"{meta_path}: corpus was saved with window_length "
            f"{meta['window_length']} but is loaded with window_length {window_length}"
        )

    with _open_text(manifest) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusLoadError(f"{manifest}: empty manifest") from None
        if [h.strip() for h in header] != ["bout_id", "subject_id", "label", "file"]:
            raise CorpusLoadError(
                f"{manifest}:1: header must be 'bout_id,subject_id,label,file'"
            )
        entries = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise CorpusLoadError(
                    f"{manifest}:{line_no}: expected 4 cells, got {len(row)}"
                )
            entries.append((line_no, *[cell.strip() for cell in row]))
    if not entries:
        raise CorpusLoadError(f"{manifest}: manifest lists no bouts")

    label_set = tuple(meta.get("label_set", ()))
    if not label_set:
        observed = {label for _, _, _, label, _ in entries}
        if observed <= set(DEFAULT_LABELS):
            label_set = tuple(l for l in DEFAULT_LABELS if l in observed)
        else:
            label_set = tuple(sorted(observed))

    bouts = []
    axis_count: int | None = meta.get("axis_count")
    for line_no, bout_id, subject_id, label, file_name in entries:
        if label not in label_set:
            raise CorpusLoadError(
                f"{manifest}:{line_no}: unknown label {label!r} "
                f"(label set: {', '.join(label_set)})"
            )
        bout = _load_bout_file(root / file_name, bout_id, subject_id, label, window_length)
        if axis_count is None:
            axis_count = bout.axis_count
        elif bout.axis_count != axis_count:
            raise CorpusLoadError(
                f"{root / file_name}: has {bout.axis_count} axes, "
                f"corpus has {axis_count}"
            )
        bouts.append(bout)
    try:
        return Corpus(
            bouts=tuple(bouts),
            axis_count=axis_count,
            label_set=label_set,
            provenance=meta.get("provenance", f"loaded from {root}"),
            seed=meta.get("seed"),
        )
    except ValueError as exc:
        raise CorpusLoadError(f"{manifest}: {exc}") from None


# --------------------------------------------------------------------------
# Leave-one-subject-out folds
# --------------------------------------------------------------------------


def loso_folds(corpus: Corpus) -> list[tuple[Corpus, Corpus]]:
    """One (train, test) pair per distinct subject, in sorted subject order.

    The test member holds exactly that subject's bouts; train holds everything
    else.  Bout order within each member follows the corpus.
    """
    subjects = corpus.subject_ids
    if len(subjects) < 2:
        raise ValueError("LOSO requires >=2 subjects")
    folds = []
    for subject in subjects:
        train = tuple(b for b in corpus.bouts if b.subject_id != subject)
        test = tuple(b for b in corpus.bouts if b.subject_id == subject)
        folds.append(
            (
                replace(corpus, bouts=train),
                replace(corpus, bouts=test),
            )
        )
    return folds


# --------------------------------------------------------------------------
# Synthetic corpus generation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassRegime:
    """Signal and energy-expenditure regime for one activity class.

    The count signal on the primary axis is
    ``base_count + oscillation_amplitude * sin(2*pi*t/period + phase) + noise``
    scaled per subject; secondary axes are scaled copies with independent
    noise.  The per-window MET target is linear in the window's mean count:
    ``met_intercept + met_slope * mean(window) + noise``.

    ``pause_fraction`` is the probability that a given window is replaced by
    a block drawn from the corpus's rest regime (the first regime listed),
    with that regime's MET rule.  This makes bouts heterogeneous mixtures of
    local patterns rather than stationary blocks.
    """

    label: str
    base_count: float
    count_std: float
    oscillation_amplitude: float = 0.0
    oscillation_period: float = 0.0
    pause_fraction: float = 0.0
    met_intercept: float = 1.0
    met_slope: float = 0.0
    duration_range: tuple[int, int] = (60, 180)


DEFAULT_REGIMES = (
    ClassRegime("Sed", base_count=8.0, count_std=4.0,
                met_intercept=1.2, met_slope=0.004, duration_range=(120, 300)),
    ClassRegime("LHH", base_count=150.0, count_std=25.0,
                oscillation_amplitude=25.0, oscillation_period=8.0,
                pause_fraction=0.08, met_intercept=1.6, met_slope=0.006),
    ClassRegime("MtV", base_count=330.0, count_std=45.0,
                oscillation_amplitude=50.0, oscillation_period=6.0,
                pause_fraction=0.12, met_intercept=2.0, met_slope=0.009),
    ClassRegime("Walk", base_count=520.0, count_std=55.0,
                oscillation_amplitude=80.0, oscillation_period=6.0,
                pause_fraction=0.10, met_intercept=1.8, met_slope=0.004),
    ClassRegime("Run", base_count=780.0, count_std=80.0,
                oscillation_amplitude=130.0, oscillation_period=4.0,
                pause_fraction=0.20, met_intercept=2.5, met_slope=0.010),
)


# The simulated device: one relative gain per axis (so three axes), the range
# of the per-subject gain, and the noise on each window's MET target.  Counts
# are rounded to integers and clipped at zero.
AXIS_SCALES = (1.0, 0.7, 0.5)
SUBJECT_SCALE_RANGE = (0.9, 1.1)
MET_NOISE_STD = 0.15


@dataclass(frozen=True)
class SyntheticConfig:
    """Size, class regimes and window length of a seeded synthetic corpus.

    ``subjects`` subjects each record ``bouts_per_class`` bouts of every
    regime in ``regimes`` (the first regime is the rest regime that pauses
    draw from), with one MET target per ``window_length`` samples.  The
    device is fixed: ``AXIS_SCALES``, ``SUBJECT_SCALE_RANGE`` and
    ``MET_NOISE_STD``.
    """

    subjects: int = 10
    bouts_per_class: int = 3
    regimes: tuple[ClassRegime, ...] = DEFAULT_REGIMES
    window_length: int = DEFAULT_WINDOW_LENGTH

    def validate(self) -> None:
        if self.subjects < 1:
            raise ConfigError("subjects must be positive")
        if self.bouts_per_class < 1:
            raise ConfigError("bouts_per_class must be positive")
        if self.window_length < 2:
            raise ConfigError("window_length must be >= 2")
        if len(self.regimes) < 2:
            raise ConfigError("synthetic corpora need at least 2 class regimes")
        for regime in self.regimes:
            if regime.base_count <= 0:
                raise ConfigError(f"regime {regime.label!r}: base_count must be positive")
            if regime.count_std <= 0:
                raise ConfigError(f"regime {regime.label!r}: count_std must be positive")
            if regime.oscillation_amplitude < 0:
                raise ConfigError(
                    f"regime {regime.label!r}: oscillation_amplitude must be nonnegative"
                )
            if regime.oscillation_amplitude > 0 and regime.oscillation_period <= 0:
                raise ConfigError(
                    f"regime {regime.label!r}: oscillation_period must be positive"
                )
            if not 0 <= regime.pause_fraction < 1:
                raise ConfigError(
                    f"regime {regime.label!r}: pause_fraction must be in [0, 1)"
                )
            lo, hi = regime.duration_range
            if not (0 < lo <= hi):
                raise ConfigError(
                    f"regime {regime.label!r}: duration_range must be positive and ordered"
                )
            if lo < self.window_length:
                raise ConfigError(
                    f"regime {regime.label!r}: minimum duration is shorter than one window"
                )


def _regime_block(regime: ClassRegime, length: int, t0: int, scale: float,
                  phases: np.ndarray, axis_scales: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Raw (length, A) count block for one window or remainder segment."""
    t = np.arange(t0, t0 + length, dtype=float)[:, None]
    base = regime.base_count * scale * axis_scales[None, :]
    if regime.oscillation_amplitude > 0:
        wave = np.sin(2 * np.pi * t / regime.oscillation_period + phases[None, :])
        base = base + regime.oscillation_amplitude * scale * axis_scales[None, :] * wave
    noise = rng.normal(0.0, regime.count_std * axis_scales[None, :],
                       size=(length, len(axis_scales)))
    return base + noise


def generate_synthetic(config: SyntheticConfig, seed: int) -> Corpus:
    """Deterministically generate a labeled corpus with per-window MET targets.

    For a fixed ``(config, seed)`` the result is bit-identical across runs:
    a single seeded generator is consumed in a fixed order.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    rest = config.regimes[0]
    axis_scales = np.asarray(AXIS_SCALES)
    length = config.window_length

    bouts = []
    for s in range(config.subjects):
        subject_id = f"subj{s:02d}"
        subject_scale = rng.uniform(*SUBJECT_SCALE_RANGE)
        for regime in config.regimes:
            for b in range(config.bouts_per_class):
                duration = int(rng.integers(*regime.duration_range, endpoint=True))
                phases = rng.uniform(0.0, 2 * np.pi, size=len(axis_scales))
                n_windows = duration // length
                blocks = []
                targets = np.empty(n_windows)
                for w in range(n_windows):
                    paused = rng.random() < regime.pause_fraction
                    block_regime = rest if paused else regime
                    block = _regime_block(block_regime, length, w * length,
                                          subject_scale, phases, axis_scales, rng)
                    block = np.clip(np.round(block), 0.0, None)
                    blocks.append(block)
                    met = (block_regime.met_intercept
                           + block_regime.met_slope * float(block.mean())
                           + rng.normal(0.0, MET_NOISE_STD))
                    targets[w] = max(met, 0.0)
                remainder = duration - n_windows * length
                if remainder:
                    tail = _regime_block(regime, remainder, n_windows * length,
                                         subject_scale, phases, axis_scales, rng)
                    blocks.append(np.clip(np.round(tail), 0.0, None))
                signal = np.vstack(blocks)
                bouts.append(
                    Bout(
                        bout_id=f"{subject_id}_{regime.label.lower()}_{b}",
                        subject_id=subject_id,
                        activity_class=regime.label,
                        signal=signal,
                        targets=targets,
                    )
                )
    label_set = tuple(r.label for r in config.regimes)
    provenance = (
        f"synthetic corpus: seed={seed}, subjects={config.subjects}, "
        f"bouts_per_class={config.bouts_per_class}, classes={len(label_set)}"
    )
    return Corpus(
        bouts=tuple(bouts),
        axis_count=len(AXIS_SCALES),
        label_set=label_set,
        provenance=provenance,
        seed=seed,
    )
