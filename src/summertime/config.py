"""Pipeline configuration: defaults, JSON loading, validation, fingerprinting.

The fields of ``PipelineConfig`` are the schema: ``window_length`` plus one
section per pipeline stage, whose messages name keys as ``section.key``.  Every
key has a default, unknown keys are rejected by name, and command-line flags
override file values through the same reader (``apply_overrides``).
``fingerprint`` hashes the fully resolved config so reports can state
exactly what produced them.
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Literal, Sequence, get_args, get_type_hints

from .classify import MlpSettings
from .dataset import DEFAULT_WINDOW_LENGTH, SyntheticConfig
from .errors import ConfigError, FitError
from .regress import AGGREGATIONS
from .vbgmm import FitSettings

METHOD_NAMES = ("summertime", "ann_voting", "linreg_local", "fivereg_ann",
                "ann_regression")


def _require_seed(seed: int) -> None:
    # numpy rejects negative seeds only when a generator is built, and its
    # message names no key.
    if seed < 0:
        raise ConfigError("seed must be nonnegative")


@dataclass(frozen=True)
class GmmConfig(FitSettings):
    """The ``gmm`` section: the mixture's fit budget plus the whole-corpus fit seed."""

    seed: int = 0

    def validate(self) -> None:
        super().validate()
        _require_seed(self.seed)


@dataclass(frozen=True)
class MlpConfig(MlpSettings):
    """The ``mlp`` section: the optimizer settings plus the whole-corpus fit seed."""

    seed: int = 0

    def validate(self) -> None:
        super().validate()
        _require_seed(self.seed)


@dataclass(frozen=True)
class RegressionConfig:
    aggregation: Literal[AGGREGATIONS] = AGGREGATIONS[0]

    def validate(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be {' or '.join(map(repr, AGGREGATIONS))}, "
                              f"got {self.aggregation!r}")


@dataclass(frozen=True)
class EvaluationConfig:
    methods: tuple[str, ...] = ("summertime",)

    def validate(self) -> None:
        if not self.methods:
            raise ConfigError("methods must list at least one method")
        for name in self.methods:
            if name not in METHOD_NAMES:
                raise ConfigError(
                    f"methods contains unknown method {name!r}; "
                    f"expected one of {', '.join(METHOD_NAMES)}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods contains duplicates")


@dataclass(frozen=True)
class SyntheticSection:
    subjects: int = SyntheticConfig.subjects
    bouts_per_class: int = SyntheticConfig.bouts_per_class
    seed: int = 7

    def generator_config(self, window_length: int) -> SyntheticConfig:
        return SyntheticConfig(
            subjects=self.subjects,
            bouts_per_class=self.bouts_per_class,
            window_length=window_length,
        )

    def validate(self) -> None:
        SyntheticConfig(subjects=self.subjects, bouts_per_class=self.bouts_per_class).validate()
        _require_seed(self.seed)


@dataclass(frozen=True)
class IoConfig:
    corpus: str | None = None  # directory to load; None: generate synthetic
    out: str = "out"

    def validate(self) -> None:
        if not self.out:
            raise ConfigError("out must be a nonempty path")
        if self.corpus == "":
            raise ConfigError("corpus must be a nonempty path or null")


@dataclass(frozen=True)
class PipelineConfig:
    window_length: int = DEFAULT_WINDOW_LENGTH
    gmm: GmmConfig = field(default_factory=GmmConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    io: IoConfig = field(default_factory=IoConfig)

    def validate(self) -> "PipelineConfig":
        if self.window_length < 2:
            raise ConfigError("window_length must be >= 2")
        for name in _SECTIONS:
            try:
                getattr(self, name).validate()
            except (ConfigError, FitError) as exc:
                raise ConfigError(f"{name}.{exc}") from None
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def semantic_dict(self) -> dict:
        """Config minus execution plumbing (input and output paths).

        One config on one corpus must produce identical reports wherever
        its files live, so only this view may enter fingerprints and report
        files.
        """
        semantic = self.to_dict()
        del semantic["io"]
        return semantic

    def fingerprint(self, extra: dict | None = None) -> str:
        """Hash of everything that determines results."""
        payload = {"config": self.semantic_dict()}
        if extra:
            payload.update(extra)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_FIELDS = get_type_hints(PipelineConfig)
_SECTIONS = {name: cls for name, cls in _FIELDS.items() if name != "window_length"}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _checked(where: str, hint: Any, value: Any) -> Any:
    """Reject a JSON value of the wrong type for an int, float or str field
    (float fields take integers too, ``X | None`` fields take null, number
    fields never take booleans); ``validate`` checks the other fields.

    An integer given for a float field comes back as a float, so ``1`` and
    ``1.0`` build the same config with the same fingerprint.
    """
    options = get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    nullable = type(None) in options
    kind = next((t for t in options if t in _TYPE_NAMES), None)
    if kind is None or (value is None and nullable):
        return value
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"{where} must be {_TYPE_NAMES[kind]}{' or null' if nullable else ''}"
        )
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a number") from None


def _build_section(name: str, cls: type, payload: Any) -> Any:
    if not isinstance(payload, dict):
        raise ConfigError(f"section {name!r} must be an object")
    hints = get_type_hints(cls)
    values = {}
    for key, value in payload.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {name}.{key}")
        values[key] = _checked(f"{name}.{key}", hints[key], value)
    if name == "evaluation" and "methods" in values:
        methods = values["methods"]
        if isinstance(methods, str):
            methods = [m.strip() for m in methods.split(",") if m.strip()]
        if not isinstance(methods, (list, tuple)):
            raise ConfigError("evaluation.methods must be a list of method names")
        values["methods"] = tuple(methods)
    return cls(**values)


def config_from_dict(payload: dict) -> PipelineConfig:
    """Build and validate a config; unknown keys raise naming the offender."""
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    for key in payload:
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key}")
    kwargs: dict[str, Any] = {}
    for name, hint in _FIELDS.items():
        if name in payload:
            build = _build_section if name in _SECTIONS else _checked
            kwargs[name] = build(name, hint, payload[name])
    return PipelineConfig(**kwargs).validate()


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(payload)


def apply_overrides(config: PipelineConfig, *, seed: int | None = None,
                    window_length: int | None = None,
                    methods: str | Sequence[str] | None = None,
                    aggregation: str | None = None,
                    out: str | None = None,
                    corpus: str | None = None) -> PipelineConfig:
    """Command-line flag overrides; flags win over file values.

    Each flag that is not None replaces its key in the config document, which
    is then read like a file, so flags get the same checks and messages.
    """
    document = config.to_dict()
    for section, key, value in (("synthetic", "seed", seed),
                                (None, "window_length", window_length),
                                ("evaluation", "methods", methods),
                                ("regression", "aggregation", aggregation),
                                ("io", "out", out),
                                ("io", "corpus", corpus)):
        if value is not None:
            (document if section is None else document[section])[key] = value
    return config_from_dict(document)
