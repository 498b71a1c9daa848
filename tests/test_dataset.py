"""Corpus model, disk round trip, loader diagnostics, LOSO folds, generator."""

import numpy as np
import pytest

from summertime.dataset import (
    Bout,
    ClassRegime,
    Corpus,
    CorpusLoadError,
    SyntheticConfig,
    corpora_equal,
    generate_synthetic,
    load_corpus,
    loso_folds,
    save_corpus,
)
from summertime.errors import ConfigError
from summertime.evaluate import corpus_fingerprint


def small_corpus():
    rng = np.random.default_rng(3)
    bouts = []
    for subject in ("s1", "s2", "s3"):
        for i, label in enumerate(("Sed", "Walk")):
            signal = rng.normal(10 + 100 * i, 5, size=(36, 2))
            targets = rng.uniform(1, 5, size=3)
            bouts.append(Bout(f"{subject}_{label}", subject, label, signal, targets))
    return Corpus(
        bouts=tuple(bouts),
        axis_count=2,
        label_set=("Sed", "Walk"),
        provenance="test fixture",
    )


# ---- validation ----------------------------------------------------------


def test_bout_rejects_non_finite_signal():
    sig = np.zeros((24, 1))
    sig[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Bout("b", "s", "Sed", sig)


def test_bout_rejects_negative_targets():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Bout("b", "s", "Sed", np.zeros((24, 1)), targets=np.array([1.0, -0.5]))


def test_corpus_requires_two_labels():
    bout = Bout("b", "s", "Sed", np.zeros((24, 1)))
    with pytest.raises(ValueError):
        Corpus(bouts=(bout,), axis_count=1, label_set=("Sed",), provenance="x")


def test_corpus_rejects_duplicate_bout_ids():
    a = Bout("same", "s1", "Sed", np.zeros((24, 1)))
    b = Bout("same", "s2", "Walk", np.ones((24, 1)))
    with pytest.raises(ValueError, match="bout id"):
        Corpus(bouts=(a, b), axis_count=1, label_set=("Sed", "Walk"), provenance="x")


def test_synthetic_config_validation():
    with pytest.raises(ConfigError, match="subjects"):
        SyntheticConfig(subjects=0).validate()
    bad = SyntheticConfig(regimes=(
        ClassRegime("A", base_count=10, count_std=1),
        ClassRegime("B", base_count=-1, count_std=1),
    ))
    with pytest.raises(ConfigError, match="base_count"):
        bad.validate()


# ---- disk round trip -----------------------------------------------------


def test_save_load_round_trip(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus", window_length=12)
    assert corpora_equal(corpus, loaded)


def test_load_accepts_manifest_path_directly(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus(tmp_path / "c" / "manifest.csv", window_length=12)
    assert corpora_equal(corpus, loaded)


@pytest.mark.parametrize("wrong_length", [10, 24])
def test_load_rejects_a_window_length_other_than_the_saved_one(tmp_path, wrong_length):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c", window_length=12)
    with pytest.raises(CorpusLoadError,
                       match=rf"provenance\.json: corpus was saved with window_length "
                             rf"12 but is loaded with window_length {wrong_length}"):
        load_corpus(tmp_path / "c", window_length=wrong_length)


BAD_SIDECARS = {
    "[]": "must hold a JSON object, got list",
    '"x"': "must hold a JSON object, got str",
    '{"label_set": 5}': "label_set must be a list of strings, got 5",
    '{"label_set": "SedLHH"}': "label_set must be a list of strings, got 'SedLHH'",
    '{"label_set": ["Sed", 1]}': "label_set must be a list of strings, got ['Sed', 1]",
    '{"axis_count": "3"}': "axis_count must be an integer, got '3'",
    '{"window_length": true}': "window_length must be an integer, got True",
    '{"seed": 1.5}': "seed must be an integer or null, got 1.5",
    '{"provenance": 7}': "provenance must be a string, got 7",
}


@pytest.mark.parametrize("sidecar", list(BAD_SIDECARS))
def test_load_rejects_a_provenance_file_that_is_not_an_object(tmp_path, sidecar):
    """A provenance.json that is not an object, or whose keys hold the wrong
    types, fails naming the file and the key."""
    save_corpus(small_corpus(), tmp_path / "c")
    meta_path = tmp_path / "c" / "provenance.json"
    meta_path.write_text(sidecar)
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{meta_path}: {BAD_SIDECARS[sidecar]}"


@pytest.mark.parametrize("name", ["s1_Sed.csv", "manifest.csv", "provenance.json"])
def test_load_names_a_file_that_is_not_utf8(tmp_path, name):
    save_corpus(small_corpus(), tmp_path / "c")
    path = tmp_path / "c" / name
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_load_reports_file_and_line_for_bad_manifest(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c")
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[2] = "only,three,cells"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError, match=r"manifest\.csv:3"):
        load_corpus(tmp_path / "c", window_length=12)


@pytest.mark.parametrize("sidecar", [True, False], ids=["with_provenance", "without"])
def test_load_rejects_a_manifest_that_lists_no_bouts(tmp_path, sidecar):
    """A header-only manifest fails naming it, also when provenance.json
    supplies the axis count."""
    save_corpus(small_corpus(), tmp_path / "c")
    manifest = tmp_path / "c" / "manifest.csv"
    manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
    if not sidecar:
        (tmp_path / "c" / "provenance.json").unlink()
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{manifest}: manifest lists no bouts"


def test_load_rejects_unknown_label(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c")
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "Skip"
    lines[1] = ",".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError, match="unknown label 'Skip'"):
        load_corpus(tmp_path / "c", window_length=12)


def test_load_rejects_bout_shorter_than_one_window(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c")
    first_file = sorted((tmp_path / "c").glob("*.csv"))
    data_file = next(p for p in first_file if p.name != "manifest.csv")
    lines = data_file.read_text().splitlines()
    data_file.write_text("\n".join(lines[:6]) + "\n")  # header + 5 samples
    with pytest.raises(CorpusLoadError, match="shorter than one window"):
        load_corpus(tmp_path / "c", window_length=12)


def test_load_rejects_conflicting_met_values_in_one_window(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "c")
    data_file = next(
        p for p in sorted((tmp_path / "c").glob("*.csv")) if p.name != "manifest.csv"
    )
    lines = data_file.read_text().splitlines()
    # rows 1..36 are samples; give window 1 a second, different met value
    head, met_a = lines[1].rsplit(",", 1)
    lines[2] = lines[2].rsplit(",", 1)[0] + f",{float(met_a) + 1.0}"
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError, match="conflicting met values"):
        load_corpus(tmp_path / "c", window_length=12)


# ---- LOSO folds ----------------------------------------------------------


def test_loso_folds_partition_by_subject():
    corpus = small_corpus()
    folds = loso_folds(corpus)
    assert len(folds) == 3
    held_out = [test.bouts[0].subject_id for _, test in folds]
    assert held_out == ["s1", "s2", "s3"]
    for train, test in folds:
        test_subjects = {b.subject_id for b in test.bouts}
        train_subjects = {b.subject_id for b in train.bouts}
        assert len(test_subjects) == 1
        assert test_subjects.isdisjoint(train_subjects)
        assert len(train.bouts) + len(test.bouts) == len(corpus.bouts)


def test_loso_needs_two_subjects():
    corpus = small_corpus()
    solo = Corpus(
        bouts=tuple(b for b in corpus.bouts if b.subject_id == "s1"),
        axis_count=2,
        label_set=("Sed", "Walk"),
        provenance="x",
    )
    with pytest.raises(ValueError, match="LOSO requires >=2 subjects"):
        loso_folds(solo)


# ---- synthetic generator -------------------------------------------------


def test_generator_is_deterministic():
    config = SyntheticConfig(subjects=3, bouts_per_class=2)
    a = generate_synthetic(config, 42)
    b = generate_synthetic(config, 42)
    assert corpora_equal(a, b)
    c = generate_synthetic(config, 43)
    assert not corpora_equal(a, c)


def test_generator_covers_every_subject_and_class():
    config = SyntheticConfig(subjects=4, bouts_per_class=2)
    corpus = generate_synthetic(config, 0)
    assert len(corpus.subject_ids) == 4
    labels = {b.activity_class for b in corpus.bouts}
    assert labels == set(corpus.label_set)
    per_subject = {s: len(corpus.bouts_for_subject(s)) for s in corpus.subject_ids}
    assert all(n == 2 * len(corpus.label_set) for n in per_subject.values())


def test_generator_emits_integer_counts_and_met_targets():
    config = SyntheticConfig(subjects=2, bouts_per_class=1)
    corpus = generate_synthetic(config, 5)
    for bout in corpus.bouts:
        assert np.all(bout.signal >= 0)
        np.testing.assert_array_equal(bout.signal, np.round(bout.signal))
        assert bout.targets is not None
        assert len(bout.targets) == bout.sample_count // config.window_length
        assert np.all(bout.targets >= 0)


def test_generator_output_is_pinned():
    # Any change to the generator's draws, device constants or rounding moves
    # these hashes; the default corpus is the one every report is built on.
    assert corpus_fingerprint(generate_synthetic(SyntheticConfig(), 7)) == (
        "e38e12aec465990dfd322b4bcdfffa75bf34b06a5bb733dda167eb696105d5e5"
    )
    small = SyntheticConfig(subjects=2, bouts_per_class=1)
    assert corpus_fingerprint(generate_synthetic(small, 3)) == (
        "a44df46181f000693b4f9865e03d85a0fb546c25a480a201c4bdf328d18b1ae1"
    )


def test_generated_corpus_round_trips_through_disk(tmp_path):
    config = SyntheticConfig(subjects=2, bouts_per_class=1)
    corpus = generate_synthetic(config, 9)
    save_corpus(corpus, tmp_path / "gen")
    loaded = load_corpus(tmp_path / "gen", window_length=config.window_length)
    assert corpora_equal(corpus, loaded)
