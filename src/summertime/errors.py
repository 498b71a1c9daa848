"""Exception types shared across the package, the model-file codec, the
integer, count, finite-value and input-row checks the fitted stages share,
and the one CSV table writer.

The model-file codec has one rule: a model's payload is its ``FORMAT``
header, if its class declares one, followed by each dataclass field under
its own name.  Arrays and tuples are written as lists, and nested models as
their own payloads.  ``from_payload`` reads each field by its type hint; a
field that has a default may be absent from a file.
"""

from __future__ import annotations

import csv
import json
import numbers
import types
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import (Any, Iterable, Iterator, Sequence, TypeVar, get_args, get_origin,
                    get_type_hints)

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


def to_payload(model: Any) -> dict:
    """``model``'s JSON payload: its class's ``FORMAT`` header, if it has one,
    then every field under its own name."""
    header = {"format": model.FORMAT[0], "version": 1} if hasattr(model, "FORMAT") else {}
    return header | {field.name: _to_json(getattr(model, field.name))
                     for field in fields(model)}


def _to_json(value: Any) -> Any:
    if is_dataclass(value):
        return to_payload(value)
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def from_payload(cls: type[T], payload: Any) -> T:
    """The ``cls`` model that ``payload`` holds, each field read by its type
    hint; a class with a ``FORMAT`` header is read through ``reading_payload``."""
    with reading_payload(payload, *cls.FORMAT) if hasattr(cls, "FORMAT") else nullcontext():
        if not isinstance(payload, dict):
            raise TypeError(f"{cls.__name__} payload must be an object, "
                            f"got {type(payload).__name__}")
        hints = get_type_hints(cls)
        # A field without a default is read even when absent, so it raises KeyError.
        names = [field.name for field in fields(cls)
                 if field.name in payload or field.default is MISSING]
        return cls(**{name: _from_json(hints[name], payload[name]) for name in names})


def _from_json(hint: Any, value: Any) -> Any:
    """``value`` read as ``hint``: a float array, ``X | None``,
    ``tuple[X, ...]``, a nested model, or a JSON scalar as it is."""
    if hint is np.ndarray:
        return np.array(value, dtype=float)
    if isinstance(hint, types.UnionType):
        (inner,) = (arg for arg in get_args(hint) if arg is not type(None))
        return None if value is None else _from_json(inner, value)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):  # a string would read as its characters
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(_from_json(get_args(hint)[0], item) for item in value)
    return from_payload(hint, value) if is_dataclass(hint) else value


def save_payload(model: Any, path: str | Path) -> None:
    """Write ``model``'s payload to ``path`` as one line of JSON."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(to_payload(model), fh)
        fh.write("\n")


def load_payload(path: str | Path, cls: type[T]) -> T:
    """Read a saved ``cls`` model file; a malformed one raises ValueError naming it."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return from_payload(cls, json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write ``header``, then ``rows`` as they are consumed, as UTF-8 CSV with ``\\n`` ends."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
