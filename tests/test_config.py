"""Config loading, validation, overrides and semantic fingerprints."""

import json

import pytest

from summertime.config import (
    METHOD_NAMES,
    PipelineConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from summertime.errors import ConfigError


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


def test_semantic_dict_drops_execution_keys():
    config = PipelineConfig()
    semantic = config.semantic_dict()
    assert "io" not in semantic
    assert "io" in config.to_dict()


def test_fingerprint_is_stable_and_content_sensitive():
    config = PipelineConfig()
    assert config.fingerprint() == config.fingerprint()
    assert config.fingerprint({"corpus": "x"}) != config.fingerprint({"corpus": "y"})
    changed = apply_overrides(config, window_length=11)
    assert changed.fingerprint() != config.fingerprint()
