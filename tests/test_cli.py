"""Command-line surface: subcommands, overrides, exit codes, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from summertime import regress, vbgmm
from summertime.cli import _build_parser, _resolve_config, main
from summertime.config import config_from_dict
from summertime.dataset import generate_synthetic
from summertime.errors import load_payload, save_payload
from summertime.evaluate import FittedPipeline, fit_pipeline
from summertime.features import featurize_corpus, stack_features

SMALL = {
    "synthetic": {"subjects": 3, "bouts_per_class": 1, "seed": 19},
}


def write_config(tmp_path, payload=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload if payload is not None else SMALL))
    return str(path)


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_generate_writes_a_corpus_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "3 subjects" in out
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert a.keys() == b.keys()
    assert any(name == "manifest.csv" for name in a)
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_generate_seed_flag_changes_the_corpus(tmp_path):
    cfg = write_config(tmp_path)
    main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["generate", "--config", cfg, "--seed", "77", "--out", str(tmp_path / "c")])
    a, c = read_tree(tmp_path / "a"), read_tree(tmp_path / "c")
    assert any(a[n] != c[n] for n in a if n.endswith(".csv"))


def test_featurize_writes_window_rows(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "feat"
    assert main(["featurize", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["bout_id", "subject_id", "label"]
    assert "axis1_p10" in header and "axis3_ac1" in header
    assert len(lines) > 10


def test_fit_then_summarize_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("model_*")) == ["model_pipeline.json"]
    assert main(["summarize", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summaries.csv").read_text().splitlines()
    k = len(lines[0].split(",")) - 4
    assert k >= 1
    rows = np.array([[float(v) for v in line.split(",")[4:]] for line in lines[1:]])
    assert rows.shape[0] == 15  # 3 subjects x 5 classes x 1 bout
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)


@pytest.fixture(scope="module")
def small_fit():
    """The whole-corpus pipeline of the SMALL corpus, its training summaries
    and the corpus's features, fitted in process as ``fit`` fits them."""
    config = config_from_dict(SMALL)
    corpus = generate_synthetic(config.synthetic.generator_config(config.window_length),
                                config.synthetic.seed)
    feats = featurize_corpus(corpus, config.window_length)
    mixture = vbgmm.fit_mixture(stack_features(feats), settings=config.gmm,
                                seed=config.gmm.seed)
    return (*fit_pipeline(feats, corpus.label_set, config, mixture, config.mlp.seed),
            feats)


def test_fit_writes_the_models_of_the_in_process_pipeline(tmp_path, small_fit):
    cfg = write_config(tmp_path)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
    fitted, train_sums, feats = small_fit
    mine = tmp_path / "in_process"
    mine.mkdir()
    save_payload(fitted.to_dict(), mine / "model_pipeline.json")
    assert read_tree(tmp_path / "cli") == read_tree(mine)
    predictions, summaries = fitted.predict(feats)
    assert len(predictions) == len(feats) == 15
    assert ([(s.bout_id, s.activity_class, s.window_count, s.ratios.tolist())
             for s in summaries]
            == [(s.bout_id, s.activity_class, s.window_count, s.ratios.tolist())
                for s in train_sums])


def test_summarize_without_model_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["summarize", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "run fit first" in capsys.readouterr().err
    model = tmp_path / "m.json"
    model.write_text('{"format": "pipeline", "version": 1, "mixture": '
                     '{"format": "vbgmm", "version": 1}}')
    code = main(["summarize", "--config", cfg, "--model", str(model),
                 "--out", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{model}: mixture model payload has no key 'standardizer'" in err
    model.write_text(json.dumps({"format": "pipeline", "version": 1, "mixture": {
        "format": "vbgmm", "version": 1, "weights": [1.0], "means": [[0.0]],
        "covariances": [[[1.0]]], "standardizer": [],
    }}))
    code = main(["summarize", "--config", cfg, "--model", str(model),
                 "--out", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{model}: mixture model payload has a value of the wrong type" in err
    dim = 18  # 6 features per axis, 3 axes
    model.write_text(json.dumps({"format": "pipeline", "version": 1, "mixture": {
        "format": "vbgmm", "version": 1, "weights": [float("nan")] * 2,
        "means": [[0.0] * dim] * 2, "covariances": [np.eye(dim).tolist()] * 2,
        "standardizer": {"mean": [0.0] * dim, "std": [1.0] * dim},
    }}))
    code = main(["summarize", "--config", cfg, "--model", str(model),
                 "--out", str(tmp_path / "empty")])
    assert code == 1
    assert f"{model}: weights must be finite" in capsys.readouterr().err
    model.write_text('{"format": "vbgmm", "version": 1}')
    code = main(["summarize", "--config", cfg, "--model", str(model),
                 "--out", str(tmp_path / "empty")])
    assert code == 1
    assert f"{model}: not a pipeline payload: format='vbgmm'" in capsys.readouterr().err


def test_a_reloaded_pipeline_predicts_exactly_like_the_fitted_one(small_fit):
    fitted, _, feats = small_fit
    loaded = FittedPipeline.from_dict(json.loads(json.dumps(fitted.to_dict())))
    (expected, _), (got, _) = fitted.predict(feats), loaded.predict(feats)
    assert [label for label, _ in got] == [label for label, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert a.tolist() == b.tolist()


def test_a_pipeline_whose_stages_disagree_fails_naming_both(small_fit, tmp_path, capsys):
    fitted, _, feats = small_fit
    payload = fitted.to_dict()
    mixture = payload["mixture"]
    weights = mixture["weights"][:-1]
    fewer = {**mixture, "weights": [w / sum(weights) for w in weights],
             "means": mixture["means"][:-1], "covariances": mixture["covariances"][:-1]}
    k = fitted.mixture.component_count
    classifier = payload["classifier"]
    window_only = regress.fit_regression_suite(feats, None, fitted.suite.class_labels)
    cases = [
        ({**payload, "mixture": fewer},
         f"classifier takes {k} inputs, mixture has {k - 1} components"),
        ({**payload, "classifier": {**classifier,
                                    "class_labels": classifier["class_labels"][::-1]}},
         "classifier labels ['Run', 'Walk', 'MtV', 'LHH', 'Sed'] differ from "
         "regression suite labels ['Sed', 'LHH', 'MtV', 'Walk', 'Run']"),
        ({**payload, "regression": regress.suite_to_dict(window_only)},
         f"regression suite has (feature_dim, summary_dim) (18, 0), "
         f"mixture has (18, {k})"),
    ]
    cfg = write_config(tmp_path)
    model = tmp_path / "pipeline.json"
    for bad, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FittedPipeline.from_dict(bad)
        save_payload(bad, model)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{model}: {message}')}$"):
            load_payload(model, FittedPipeline.from_dict)
        code = main(["summarize", "--config", cfg, "--model", str(model),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {model}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_writes_reports_and_honors_methods_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main([
        "run", "--config", cfg, "--out", str(out),
        "--methods", "summertime,linreg_local",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "method: summertime" in stdout
    assert "method: linreg_local" in stdout
    assert "config fingerprint:" in stdout
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["methods"]) == ["linreg_local", "summertime"]
    assert (out / "confusion_summertime.csv").is_file()
    assert (out / "rmse_linreg_local.csv").is_file()
    assert report["reference_panel"]["labels"] == ["Sed", "LHH", "MtV", "Walk", "Run"]


def test_empty_methods_flag_keeps_the_config_methods(tmp_path):
    cfg = write_config(tmp_path, {"evaluation": {"methods": ["linreg_local"]}})
    for flag in ([], ["--methods", ""]):
        args = _build_parser().parse_args(["evaluate", "--config", cfg, *flag])
        assert _resolve_config(args).evaluation.methods == ("linreg_local",)


def test_unknown_config_key_names_the_offender(tmp_path, capsys):
    cfg = write_config(tmp_path, {"gmm": {"k_max": 10, "x": 1}})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key gmm.x" in capsys.readouterr().err


def test_bad_method_name_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--methods", "sumertime",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "sumertime" in err


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "c")])
    assert code == 2
    assert ("configuration error: synthetic.seed must be nonnegative"
            in capsys.readouterr().err)
    assert not (tmp_path / "c").exists()


def test_an_empty_corpus_flag_is_a_config_error(tmp_path, monkeypatch, capsys):
    # an empty path resolves to the working directory: run inside a corpus,
    # it would load that corpus instead of failing
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    monkeypatch.chdir(tmp_path / "c")
    capsys.readouterr()
    code = main(["featurize", "--config", cfg, "--corpus", "",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("configuration error: io.corpus must be a nonempty path or null"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_missing_corpus_directory_fails_with_corpus_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["featurize", "--config", cfg, "--corpus",
                 str(tmp_path / "no_such_dir"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "corpus loading failed" in capsys.readouterr().err


@pytest.mark.parametrize("line", [1, 4], ids=["header", "row"])
def test_an_oversized_corpus_cell_is_a_corpus_error(tmp_path, capsys, line):
    """A cell past the csv module's field limit fails naming its file and
    line, not as a bare csv error."""
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    bout = tmp_path / "c" / "subj00_sed_0.csv"
    lines = bout.read_text().splitlines()
    cells = lines[line - 1].split(",")
    lines[line - 1] = ",".join([cells[0], "1" * 200_000, *cells[2:]])
    bout.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["featurize", "--config", cfg, "--corpus", str(tmp_path / "c"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert (f"corpus loading failed: {bout}:{line}: field larger than field limit "
            f"(131072)\n" in capsys.readouterr().err)


def test_an_out_path_that_is_a_file_fails_without_a_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    taken = tmp_path / "c" / "manifest.csv"
    for command in (["generate"], ["run", "--corpus", str(tmp_path / "c")]):
        capsys.readouterr()
        assert main([*command, "--config", cfg, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") and str(taken) in line
                   for line in err.splitlines())
        assert "Traceback" not in err


def test_report_json_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    for name in ("r1", "r2"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name),
                     "--methods", "summertime"]) == 0
    a = (tmp_path / "r1" / "report.json").read_bytes()
    b = (tmp_path / "r2" / "report.json").read_bytes()
    assert a == b
