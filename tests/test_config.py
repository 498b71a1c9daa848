"""Config loading, validation, overrides and semantic fingerprints."""

import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

from summertime.classify import MlpSettings
from summertime.config import (
    METHOD_NAMES,
    PipelineConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from summertime.errors import ConfigError
from summertime.vbgmm import FitSettings


def test_defaults_validate():
    config = PipelineConfig()
    config.validate()
    assert config.window_length == 12
    assert config.evaluation.methods == ("summertime",)
    assert config.regression.aggregation == "mean"


def test_round_trip_through_dict():
    config = PipelineConfig()
    again = config_from_dict(config.to_dict())
    assert again == config


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="unknown config key gmm.x"):
        config_from_dict({"gmm": {"x": 1}})
    with pytest.raises(ConfigError, match="unknown config key nonsense"):
        config_from_dict({"nonsense": {}})
    with pytest.raises(ConfigError,
                       match="unknown config key evaluation.parallel_folds"):
        config_from_dict({"evaluation": {"parallel_folds": 1}})
    with pytest.raises(ConfigError, match="unknown config key gmm.weight_floor"):
        config_from_dict({"gmm": {"weight_floor": 0.1}})
    with pytest.raises(ConfigError, match="unknown config key regression.mode"):
        config_from_dict({"regression": {"mode": "augmented"}})


# Every section of PipelineConfig with one key, a valid non-default value and
# an out-of-range value for it.
SECTION_CASES = {
    "gmm": ("k_max", 5, 0),
    "mlp": ("epochs", 7, 0),
    "regression": ("aggregation", "sum", "bogus"),
    "evaluation": ("methods", ["ann_voting", "summertime"], []),
    "synthetic": ("subjects", 4, 0),
    "io": ("out", "elsewhere", ""),
}
SECTIONS = [name for name, hint in get_type_hints(PipelineConfig).items()
            if is_dataclass(hint)]


def test_every_section_has_a_schema_case():
    assert set(SECTION_CASES) == set(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_every_section_follows_the_schema_rule(section):
    key, good, bad = SECTION_CASES[section]
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {"no_such_key": 1}})
    assert str(info.value) == f"unknown config key {section}.no_such_key"
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {key: bad}})
    message = str(info.value)
    assert message.startswith(f"{section}.{key} ")
    assert not message.startswith(f"{section}.{section}.")
    config = config_from_dict({section: {key: good}})
    assert config != PipelineConfig()
    assert config_from_dict(config.to_dict()) == config


def test_unknown_top_level_key_wins_over_section_keys():
    with pytest.raises(ConfigError) as info:
        config_from_dict({"gmm": {"x": 1}, "nonsense": {}})
    assert str(info.value) == "unknown config key nonsense"


def test_value_validation_messages():
    with pytest.raises(ConfigError, match="gmm.k_max"):
        config_from_dict({"gmm": {"k_max": 0}})
    with pytest.raises(ConfigError, match="mlp.learning_rate"):
        config_from_dict({"mlp": {"learning_rate": -1}})
    with pytest.raises(ConfigError, match="regression.aggregation"):
        config_from_dict({"regression": {"aggregation": "max"}})
    with pytest.raises(ConfigError, match="unknown method"):
        config_from_dict({"evaluation": {"methods": ["summertime", "bogus"]}})
    with pytest.raises(ConfigError, match="duplicates"):
        config_from_dict({"evaluation": {"methods": ["summertime", "summertime"]}})
    for payload, message in [
        ({"mlp": {"epochs": "500"}}, "mlp.epochs must be an integer"),
        ({"gmm": {"k_max": True}}, "gmm.k_max must be an integer"),
        ({"gmm": {"k_max": 2.5}}, "gmm.k_max must be an integer"),
        ({"gmm": {"nu0": "x"}}, "gmm.nu0 must be a number or null"),
        ({"gmm": {"tol": False}}, "gmm.tol must be a number"),
        ({"synthetic": {"subjects": None}}, "synthetic.subjects must be an integer"),
        ({"io": {"out": 5}}, "io.out must be a string"),
        ({"io": {"corpus": ["a"]}}, "io.corpus must be a string or null"),
        ({"gmm": {"tol": 10**400}}, "gmm.tol is too large for a number"),
    ]:
        with pytest.raises(ConfigError) as info:
            config_from_dict(payload)
        assert str(info.value) == message
    # Range checks live in the stage settings; the section name is prefixed.
    for payload, message in [
        ({"gmm": {"k_max": 0}}, "gmm.k_max must be positive"),
        ({"mlp": {"learning_rate": -1}}, "mlp.learning_rate must be positive"),
        ({"mlp": {"l2_penalty": -1}}, "mlp.l2_penalty must be nonnegative"),
        ({"gmm": {"tol": float("nan")}}, "gmm.tol must be finite"),
        ({"gmm": {"beta0": float("inf")}}, "gmm.beta0 must be finite"),
        ({"gmm": {"nu0": float("inf")}}, "gmm.nu0 must be finite"),
        ({"mlp": {"learning_rate": float("nan")}}, "mlp.learning_rate must be finite"),
        ({"mlp": {"l2_penalty": float("inf")}}, "mlp.l2_penalty must be finite"),
        ({"synthetic": {"subjects": 0}}, "synthetic.subjects must be positive"),
        ({"synthetic": {"bouts_per_class": 0}},
         "synthetic.bouts_per_class must be positive"),
        ({"gmm": {"seed": -3}}, "gmm.seed must be nonnegative"),
        ({"mlp": {"seed": -1}}, "mlp.seed must be nonnegative"),
        ({"synthetic": {"seed": -1}}, "synthetic.seed must be nonnegative"),
    ]:
        with pytest.raises(ConfigError) as info:
            config_from_dict(payload)
        assert str(info.value) == message
    # Numbers where a float is due, and null where None is allowed, pass.
    config = config_from_dict({"gmm": {"tol": 1, "nu0": None}})
    assert config.gmm.tol == 1 and config.gmm.nu0 is None
    config = config_from_dict({"gmm": {"seed": 0}, "mlp": {"seed": 0}, "synthetic": {"seed": 0}})
    assert (config.gmm.seed, config.mlp.seed, config.synthetic.seed) == (0, 0, 0)


def test_integer_in_a_float_field_has_the_float_fingerprint():
    whole = config_from_dict({"gmm": {"beta0": 1}, "mlp": {"learning_rate": 1}})
    point = config_from_dict({"gmm": {"beta0": 1.0}, "mlp": {"learning_rate": 1.0}})
    assert whole == point
    assert whole.fingerprint() == point.fingerprint()
    assert type(whole.gmm.beta0) is float and type(whole.mlp.learning_rate) is float


def test_method_registry_names():
    assert METHOD_NAMES == (
        "summertime", "ann_voting", "linreg_local", "fivereg_ann", "ann_regression"
    )


def test_load_config_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"window_length": 8, "gmm": {"k_max": 5}}))
    config = load_config(path)
    assert config.window_length == 8
    assert config.gmm.k_max == 5
    assert config.mlp.epochs == 500  # untouched sections keep defaults


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        load_config(path)
    # json.load reads these literals; the stage settings reject them.
    for text, message in [('{"gmm": {"tol": NaN}}', "gmm.tol must be finite"),
                          ('{"mlp": {"learning_rate": Infinity}}',
                           "mlp.learning_rate must be finite")]:
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message


def test_load_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'\xff{"gmm": {}}')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"cannot read config {path}: 'utf-8' codec")


def test_readme_config_docs_match_the_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
    config_from_dict(json.loads(example.group(1)))
    for section, settings in (("gmm", FitSettings), ("mlp", MlpSettings)):
        prose = re.search(rf"`{section}` keys are the fields of `[\w.]+`\s+\(([^)]*)\)"
                          rf"\s+plus\s+`seed`", readme)
        assert prose, section
        listed = re.findall(r"`(\w+)`", prose.group(1))
        assert sorted(listed) == sorted(field.name for field in fields(settings)), section


def test_overrides_win_over_file_values():
    config = PipelineConfig()
    updated = apply_overrides(
        config, seed=55, window_length=10, methods=["linreg_local"],
        aggregation="sum", out="elsewhere", corpus="corpus_dir",
    )
    assert updated.synthetic.seed == 55
    assert updated.window_length == 10
    assert updated.evaluation.methods == ("linreg_local",)
    assert updated.regression.aggregation == "sum"
    assert updated.io.out == "elsewhere"
    assert updated.io.corpus == "corpus_dir"
    # None overrides leave everything alone
    assert apply_overrides(config) == config
    # Flags are read like the file keys they override.
    spaced = apply_overrides(config, methods="ann_voting, summertime")
    assert spaced.evaluation.methods == ("ann_voting", "summertime")
    for flags, message in [
        ({"window_length": True}, "window_length must be an integer"),
        ({"seed": "5"}, "synthetic.seed must be an integer"),
    ]:
        with pytest.raises(ConfigError) as info:
            apply_overrides(config, **flags)
        assert str(info.value) == message
    with pytest.raises(TypeError):
        apply_overrides(config, mode="window_only")


def test_semantic_dict_drops_execution_keys():
    config = PipelineConfig()
    semantic = config.semantic_dict()
    assert "io" not in semantic
    assert "io" in config.to_dict()


def test_default_config_is_pinned():
    config = PipelineConfig()
    assert config.fingerprint() == (
        "db875ac858c927045e3c954fb1397b8feb0cffa910529f6bdd6e32598624c6af"
    )
    assert {name: sorted(section) for name, section in config.to_dict().items()
            if isinstance(section, dict)} == {
        "gmm": ["beta0", "dirichlet_alpha0", "k_max", "max_iter", "nu0", "seed",
                "tol"],
        "mlp": ["batch_size", "epochs", "hidden_units", "l2_penalty",
                "learning_rate", "seed"],
        "regression": ["aggregation"],
        "evaluation": ["methods"],
        "synthetic": ["bouts_per_class", "seed", "subjects"],
        "io": ["corpus", "out"],
    }


def test_fingerprint_is_stable_and_content_sensitive():
    config = PipelineConfig()
    assert config.fingerprint() == config.fingerprint()
    assert config.fingerprint({"corpus": "x"}) != config.fingerprint({"corpus": "y"})
    changed = apply_overrides(config, window_length=11)
    assert changed.fingerprint() != config.fingerprint()
