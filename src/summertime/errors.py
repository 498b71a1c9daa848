"""Exception types shared across the package, the model-file reading and
writing, the integer, count, finite-value and input-row checks the fitted
stages share, and the one CSV table writer."""

from __future__ import annotations

import csv
import json
import numbers
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class SummertimeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SummertimeError):
    """A configuration value or key is invalid."""


class CorpusLoadError(SummertimeError):
    """A corpus on disk is missing, malformed, or violates an invariant."""


class FitError(SummertimeError):
    """Model training failed (non-finite inputs, divergence, bad preconditions)."""


class ConsistencyError(SummertimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class EvaluationError(SummertimeError):
    """A cross-validation stage failed; message carries the fold context."""


@contextmanager
def reading_payload(payload: Any, fmt: str, noun: str) -> Iterator[None]:
    """Check a saved model's header, then read it in the ``with`` block.

    Malformed payloads raise ValueError naming the cause: a non-object
    document, a foreign format, an unknown version, or (from inside the
    block) a missing key or a value of the wrong type.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"{noun} payload must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != fmt:
        raise ValueError(f"not a {noun} payload: format={payload.get('format')!r}")
    if payload.get("version") != 1:
        raise ValueError(f"unsupported {noun} version {payload.get('version')!r}")
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{noun} payload has no key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(
            f"{noun} payload has a value of the wrong type: {exc}"
        ) from None


def require_finite(fields: dict[str, Any]) -> None:
    """Raise ValueError naming the first field that holds a NaN or infinity."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def is_int(value: Any) -> bool:
    """Whether ``value`` is an integer; a bool or a float is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_rows(data: Any, dim: int) -> np.ndarray:
    """``data`` as a finite (N, ``dim``) float matrix, a 1-d input as one row;
    any other shape, feature count or a non-finite value raises ValueError."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise ValueError(f"input must be 1-d or 2-d, got shape {data.shape}")
    if data.shape[1] != dim:
        raise ValueError(f"input has {data.shape[1]} features, model expects {dim}")
    if not np.all(np.isfinite(data)):
        raise ValueError("input contains non-finite values")
    return data


def require_count(name: str, value: Any) -> None:
    """Raise FitError naming the setting ``name`` unless ``value`` is a
    positive integer."""
    if not is_int(value):
        raise FitError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise FitError(f"{name} must be positive")


def save_payload(payload: dict, path: str | Path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_payload(path: str | Path, from_dict: Callable[[Any], T]) -> T:
    """Read a saved model file; a malformed one raises ValueError naming it."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write ``header``, then ``rows`` as they are consumed, as UTF-8 CSV with ``\\n`` ends."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
