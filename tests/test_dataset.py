"""Corpus model, disk round trip, loader diagnostics, LOSO folds, generator."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from summertime.dataset import (
    DEFAULT_REGIMES,
    Bout,
    ClassRegime,
    Corpus,
    CorpusLoadError,
    SyntheticConfig,
    generate_synthetic,
    load_corpus,
    loso_folds,
    save_corpus,
)
from summertime.errors import ConfigError
from summertime.evaluate import corpus_fingerprint


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


@pytest.mark.parametrize("field", ["subjects", "bouts_per_class", "window_length"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
def test_synthetic_sizes_must_be_integers(field, value):
    config = SyntheticConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        config.validate()
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        generate_synthetic(config, seed=0)
    # the positivity checks keep their own messages
    with pytest.raises(ConfigError, match=f"^{field} must be (positive|>= 2)$"):
        SyntheticConfig(**{field: 0}).validate()


@pytest.mark.parametrize("interleave, message", [
    (("Jog", 0.5), "regime 'B': interleave names no regime 'Jog'"),
    (("A", -0.1), r"regime 'B': interleave probability must be in \[0, 1\)"),
    (("A", 1.0), r"regime 'B': interleave probability must be in \[0, 1\)"),
])
def test_interleave_must_name_a_regime_and_a_probability(interleave, message):
    bad = SyntheticConfig(regimes=(
        ClassRegime("A", base_count=10, count_std=1),
        ClassRegime("B", base_count=20, count_std=1, interleave=interleave),
    ))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        bad.validate()


def window_sources(pause_fraction):
    """Run windows of a corpus whose Run regime interleaves Walk at 0.9:
    for each, the regime its primary-axis level belongs to, and whether its
    target follows that regime's MET rule."""
    regimes = (
        ClassRegime("Sed", base_count=8.0, count_std=2.0, met_intercept=1.0),
        ClassRegime("Walk", base_count=500.0, count_std=5.0,
                    met_intercept=1.8, met_slope=0.004),
        ClassRegime("Run", base_count=800.0, count_std=5.0, met_intercept=2.5,
                    met_slope=0.010, pause_fraction=pause_fraction,
                    interleave=("Walk", 0.9)),
    )
    config = SyntheticConfig(subjects=4, bouts_per_class=3, regimes=regimes)
    by_label = {r.label: r for r in regimes}
    sources = []
    for bout in generate_synthetic(config, 4).bouts:
        if bout.activity_class != "Run":
            continue
        for w, target in enumerate(bout.targets):
            block = bout.signal[w * 12:(w + 1) * 12]
            level = block[:, 0].mean()
            label = "Sed" if level < 100 else "Walk" if level < 650 else "Run"
            rule = by_label[label]
            expected = rule.met_intercept + rule.met_slope * block.mean()
            sources.append((label, abs(target - expected) < 0.75))
    return sources


def test_interleaved_windows_come_from_the_named_regime():
    sources = window_sources(pause_fraction=0.0)
    counts = Counter(label for label, _ in sources)
    assert counts["Sed"] == 0
    assert 0.8 < counts["Walk"] / len(sources) < 0.97
    assert counts["Run"] > 0
    assert all(follows_rule for _, follows_rule in sources)


def test_a_pause_wins_over_the_interleave():
    sources = window_sources(pause_fraction=0.5)
    counts = Counter(label for label, _ in sources)
    assert 0.35 < counts["Sed"] / len(sources) < 0.65
    assert counts["Walk"] > 4 * counts["Run"] > 0
    assert all(follows_rule for _, follows_rule in sources)


# ---- disk round trip -----------------------------------------------------


def test_save_load_round_trip(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus", window_length=12)
    assert corpora_equal(corpus, loaded)


@pytest.mark.parametrize("targets", [2, 4])
def test_save_rejects_a_target_count_other_than_the_window_count(tmp_path, targets):
    bout = Bout("b1", "s1", "Sed", np.ones((40, 1)), targets=np.ones(targets))
    corpus = Corpus(bouts=(bout,), axis_count=1, label_set=("Sed", "Run"))
    with pytest.raises(ValueError, match=f"^bout 'b1': 3 windows of 12 samples "
                                         f"but {targets} targets$"):
        save_corpus(corpus, tmp_path / "c")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("bout_id", ["manifest", "a/b", "../x"])
def test_save_rejects_a_bout_id_that_makes_no_plain_file_name(tmp_path, bout_id):
    """Bout ids name their files, so one that would overwrite the manifest or
    leave the directory fails before anything is written."""
    bouts = tuple(Bout(b, "s1", "Sed", np.ones((12, 1))) for b in ("b0", bout_id))
    corpus = Corpus(bouts=bouts, axis_count=1, label_set=("Sed", "Run"))
    with pytest.raises(ValueError) as info:
        save_corpus(corpus, tmp_path)
    assert str(info.value) == (f"bout {bout_id!r}: {bout_id + '.csv'!r} is not a plain "
                               f"file name other than manifest.csv")
    assert list(tmp_path.iterdir()) == []
    assert not (tmp_path.parent / "x.csv").exists()


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


def test_load_names_the_line_a_manifest_row_starts_on(tmp_path):
    """A quoted bout id spanning lines 2-3 moves the bad row to line 5."""
    save_corpus(small_corpus(), tmp_path / "c")
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[1] = '"s1\nSed"' + lines[1][len("s1_Sed"):]
    lines[3] = "only,three,cells"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{manifest}:5: expected 4 cells, got 3"


@pytest.mark.parametrize("cell", ["../outside.csv", "{tmp}/outside.csv", "..", ""])
def test_load_refuses_a_file_cell_that_is_not_a_plain_file_name(tmp_path, cell):
    """A manifest names only files in its own directory, by the rule
    ``save_corpus`` applies to bout ids, even where the named file would load."""
    save_corpus(small_corpus(), tmp_path / "c")
    (tmp_path / "outside.csv").write_bytes((tmp_path / "c" / "s1_Walk.csv").read_bytes())
    cell = cell.format(tmp=tmp_path)
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == (f"{manifest}:3: file {cell!r} is not a plain file name "
                               f"other than manifest.csv")


@pytest.mark.parametrize("name, what", [("manifest.csv", "manifest"),
                                        ("s1_Sed.csv", "bout file")])
def test_load_rejects_an_empty_file_by_name(tmp_path, name, what):
    save_corpus(small_corpus(), tmp_path / "c")
    path = tmp_path / "c" / name
    path.write_text("")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{path}: empty {what}"


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


def test_load_rejects_an_empty_bout_id(tmp_path):
    save_corpus(small_corpus(), tmp_path / "c")
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[1] = "," + lines[1].split(",", 1)[1]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{manifest}: a bout of subject 's1' has an empty bout id"


def test_load_uses_an_empty_label_set_as_given(tmp_path):
    """An empty label set is not taken as absent: the manifest's labels are
    checked against it, as against any set that misses them."""
    save_corpus(small_corpus(), tmp_path / "c")
    (tmp_path / "c" / "provenance.json").write_text(json.dumps({"label_set": []}))
    with pytest.raises(CorpusLoadError, match=r"manifest\.csv:2: unknown label 'Sed'"):
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


def test_load_names_the_first_line_of_a_window_without_a_met_value(tmp_path):
    save_corpus(small_corpus(), tmp_path / "c")
    data_file = next(
        p for p in sorted((tmp_path / "c").glob("*.csv")) if p.name != "manifest.csv"
    )
    lines = data_file.read_text().splitlines()
    # line 14 is window 1's first row, the only one that carries its met value
    lines[13] = lines[13].rsplit(",", 1)[0] + ","
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{data_file}:14: window 1 has no met value"


def test_a_blank_line_moves_the_line_named_for_a_window(tmp_path):
    """After a blank line 6, window 1's first row is line 15."""
    save_corpus(small_corpus(), tmp_path / "c")
    data_file = tmp_path / "c" / "s1_Sed.csv"
    lines = data_file.read_text().splitlines()
    lines[13] = lines[13].rsplit(",", 1)[0] + ","
    lines.insert(5, "")
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{data_file}:15: window 1 has no met value"


def test_load_reports_the_first_bad_line_of_a_bout_file(tmp_path):
    """A non-numeric cell on line 5 is named before a wrong width on line 9."""
    save_corpus(small_corpus(), tmp_path / "c")
    data_file = tmp_path / "c" / "s1_Sed.csv"
    lines = data_file.read_text().splitlines()
    lines[4] = lines[4].split(",", 1)[0] + ",x," + lines[4].split(",", 2)[2]
    lines[8] = "8,1"
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(tmp_path / "c", window_length=12)
    assert str(info.value) == f"{data_file}:5: non-numeric value 'x'"


def test_load_reads_met_repeated_on_every_row_of_its_window(tmp_path):
    # each bout gets a trailing partial window of 5 rows, which carries no met
    corpus = small_corpus()
    corpus = replace(corpus, bouts=tuple(
        replace(b, signal=np.vstack([b.signal, b.signal[:5]])) for b in corpus.bouts))
    save_corpus(corpus, tmp_path / "c")
    first_row = load_corpus(tmp_path / "c", window_length=12)
    for data_file in sorted((tmp_path / "c").glob("*.csv")):
        if data_file.name == "manifest.csv":
            continue
        header, *rows = data_file.read_text().splitlines()
        samples = [row.rsplit(",", 1)[0] for row in rows]
        mets = [row.rsplit(",", 1)[1] for row in rows]
        full = len(rows) // 12 * 12
        repeated = [mets[r // 12 * 12] if r < full else "" for r in range(len(rows))]
        assert repeated != mets and all(repeated[:full]) and not any(repeated[full:])
        data_file.write_text("\n".join(
            [header] + [f"{s},{m}" for s, m in zip(samples, repeated)]) + "\n")
    loaded = load_corpus(tmp_path / "c", window_length=12)
    assert all(len(bout.targets) == 3 for bout in loaded.bouts)
    assert corpora_equal(loaded, first_row)  # targets bit for bit


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
    per_subject = Counter(b.subject_id for b in corpus.bouts)
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
        "630c12d2b8afd670c6834501654edfc28bb22494b0dda15c3cb9dbab2a28585a"
    )
    small = SyntheticConfig(subjects=2, bouts_per_class=1)
    assert corpus_fingerprint(generate_synthetic(small, 3)) == (
        "9a947770d664df9db749fcbf9e53b164a8fd86679adea3154ba165edd3149a85"
    )


def test_interleaved_generator_output_is_pinned():
    # Pins the draw order of an interleaving regime: the pause draw, then
    # the interleave draw, on every window, whether or not the pause fired.
    regimes = DEFAULT_REGIMES[:4] + (replace(DEFAULT_REGIMES[4], interleave=("Walk", 0.6)),)
    small = SyntheticConfig(subjects=2, bouts_per_class=1, regimes=regimes)
    assert corpus_fingerprint(generate_synthetic(small, 3)) == (
        "05457bc72338a823276bc7274d13ff785257b589dd8213f31cebab058a029df4"
    )


def test_generated_corpus_round_trips_through_disk(tmp_path):
    config = SyntheticConfig(subjects=2, bouts_per_class=1)
    corpus = generate_synthetic(config, 9)
    save_corpus(corpus, tmp_path / "gen")
    loaded = load_corpus(tmp_path / "gen", window_length=config.window_length)
    assert corpora_equal(corpus, loaded)
