"""Network training: gradients vs finite differences, voting, determinism."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from summertime.classify import (
    HIDDEN_UNITS,
    L2_PENALTY,
    ClassPrediction,
    MlpModel,
    MlpSettings,
    _init_params,
    classify_bout_voting,
    loss_and_gradients,
    model_from_dict,
    model_to_dict,
    predict_class,
    predict_probabilities,
    predict_values,
    train_mlp,
)
from summertime.errors import FitError, load_payload, save_payload
from summertime.vbgmm import Standardizer


def random_params(rng, input_dim, hidden, output_dim):
    return {
        "w1": rng.normal(0, 0.5, size=(input_dim, hidden)),
        "b1": rng.normal(0, 0.1, size=hidden),
        "w2": rng.normal(0, 0.5, size=(hidden, output_dim)),
        "b2": rng.normal(0, 0.1, size=output_dim),
    }


def finite_difference(params, x, y, head, l2, key, idx, eps=1e-5):
    bumped = {k: v.copy() for k, v in params.items()}
    bumped[key][idx] += eps
    up, _ = loss_and_gradients(bumped, x, y, head, l2)
    bumped[key][idx] -= 2 * eps
    down, _ = loss_and_gradients(bumped, x, y, head, l2)
    return (up - down) / (2 * eps)


@pytest.mark.parametrize("head", ["softmax", "linear"])
def test_gradients_match_central_differences(head):
    rng = np.random.default_rng(5)
    output_dim = 3 if head == "softmax" else 1
    for trial in range(5):
        params = random_params(rng, 4, 6, output_dim)
        x = rng.normal(size=(5, 4))
        if head == "softmax":
            y = np.zeros((5, 3))
            y[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
        else:
            y = rng.normal(size=(5, 1))
        _, grads = loss_and_gradients(params, x, y, head, l2_penalty=1e-4)
        for key in ("w1", "b1", "w2", "b2"):
            flat = grads[key].ravel()
            for flat_idx in range(flat.size):
                idx = np.unravel_index(flat_idx, grads[key].shape)
                fd = finite_difference(params, x, y, head, 1e-4, key, idx)
                denom = max(abs(fd), abs(flat[flat_idx]), 1e-8)
                assert abs(fd - flat[flat_idx]) / denom < 1e-4, (
                    f"{head} {key}{idx}: analytic {flat[flat_idx]}, fd {fd}"
                )


def test_l2_penalty_touches_weights_not_biases():
    rng = np.random.default_rng(8)
    params = random_params(rng, 3, 4, 2)
    x = rng.normal(size=(6, 3))
    y = np.zeros((6, 2))
    y[:, 0] = 1.0
    _, lean = loss_and_gradients(params, x, y, "softmax", 0.0)
    _, fat = loss_and_gradients(params, x, y, "softmax", 0.5)
    np.testing.assert_allclose(fat["b1"], lean["b1"], atol=1e-12)
    np.testing.assert_allclose(fat["b2"], lean["b2"], atol=1e-12)
    np.testing.assert_allclose(fat["w1"] - lean["w1"], 0.5 * params["w1"], atol=1e-12)


def reference_data_loss(outputs, y, head):
    """Mean per-example data loss of the head's ``outputs`` (probabilities or
    linear values, one row per example), in plain numpy."""
    if head == "softmax":
        return float(-np.sum(y * np.log(np.maximum(outputs, 1e-300))) / len(y))
    return float(0.5 * np.mean((outputs - y) ** 2))


def reference_sgd(x, y, head, settings, seed):
    """Plain minibatch descent on the objective, with the backprop written out
    in numpy expressions: what train_mlp must reproduce bit for bit.

    Each layer is one (units_out, units_in + 1) block whose last column is the
    bias; the inputs get a ones column and the hidden activations a ones row,
    so each product includes the bias, and the weight decay is 0 on the bias
    columns.  Activations and outputs are (units, rows).  Each float operation
    comes in the order train_mlp's step makes it, the products are
    ``ndarray.dot`` as there, and nothing here calls into
    summertime.classify beyond the initialization.  An epoch's log entry is
    the data loss of every batch's head outputs at the parameters that batch
    stepped from, stacked in the epoch's shuffled order.
    """
    rng = np.random.default_rng(seed)
    init = _init_params(x.shape[1], HIDDEN_UNITS, y.shape[1], rng)
    layers = [np.hstack((init["w1"].T, init["b1"][:, None])),
              np.hstack((init["w2"].T, init["b2"][:, None]))]
    penalties = [np.full(layer.shape, L2_PENALTY) for layer in layers]
    for penalty in penalties:
        penalty[:, -1] = 0.0
    x = np.hstack((x, np.ones((len(x), 1))))
    lr = settings.learning_rate
    log = []
    for _ in range(settings.epochs):
        order = rng.permutation(len(x))
        outputs = []
        for start in range(0, len(x), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            xb, yb = x[batch], y[batch]
            l1, l2 = layers
            a = np.tanh(l1.dot(xb.T))
            h = np.vstack((a, np.ones((1, len(xb)))))
            out = l2.dot(h)
            if head == "softmax":
                shifted = np.exp(out - out.max(axis=0, keepdims=True))
                out = shifted / shifted.sum(axis=0, keepdims=True)
            outputs.append(out.T)
            d = (out - yb.T) / len(xb)
            dh = l2[:, :-1].T.dot(d) * (1 - a * a)
            grads = [dh.dot(xb) + penalties[0] * l1, d.dot(h.T) + penalties[1] * l2]
            layers = [layer - lr * grad for layer, grad in zip(layers, grads)]
        log.append(reference_data_loss(np.vstack(outputs), y[order], head))
    l1, l2 = layers
    params = {"w1": l1[:, :-1].T, "b1": l1[:, -1], "w2": l2[:, :-1].T, "b2": l2[:, -1]}
    return params, tuple(log)


def textbook_sgd(x, y, head, settings, seed):
    """The same descent written the textbook way: (units_in, units_out) weights,
    each bias added after its product, bias gradients as column sums.

    It computes the same function as reference_sgd in another float order, so
    train_mlp meets it within rounding, not bit for bit.
    """
    rng = np.random.default_rng(seed)
    params = _init_params(x.shape[1], HIDDEN_UNITS, y.shape[1], rng)
    lr, l2 = settings.learning_rate, L2_PENALTY
    for _ in range(settings.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            xb, yb = x[batch], y[batch]
            w1, b1, w2, b2 = (params[k] for k in ("w1", "b1", "w2", "b2"))
            h = np.tanh(xb @ w1 + b1)
            out = h @ w2 + b2
            if head == "softmax":
                shifted = np.exp(out - out.max(axis=1, keepdims=True))
                out = shifted / shifted.sum(axis=1, keepdims=True)
            d = (out - yb) / len(xb)
            dh = d @ w2.T * (1 - h * h)
            grads = {"w2": h.T @ d + l2 * w2, "b2": d.sum(axis=0),
                     "w1": xb.T @ dh + l2 * w1, "b1": dh.sum(axis=0)}
            params = {k: p - lr * grads[k] for k, p in params.items()}
    return params


REFERENCE_CASES = [
    pytest.param(45, 8, True, {}, id="45-8-True"),
    pytest.param(7, 32, False, {}, id="7-32-False"),
    # the last batch holds one row
    pytest.param(33, 32, False, {}, id="33-32-False"),
    # the window classifier's widths: 18 features, 6 classes
    pytest.param(70, 32, True, {"features": 18, "classes": 6, "epochs": 3},
                 id="70-32-True-default_widths"),
]


def reference_case(head, n, batch_size, changes):
    """Inputs, targets, class labels and settings of one reference case, and
    the one-hot or column targets that the reference descent takes."""
    changes = dict(changes)
    features, classes = changes.pop("features", 4), changes.pop("classes", 3)
    rng = np.random.default_rng(43)
    x = rng.normal(3.0, 2.0, size=(n, features))
    settings = replace(MlpSettings(epochs=12, batch_size=batch_size, learning_rate=0.05),
                       **changes)
    if head == "softmax":
        labels = tuple("abcdef"[:classes])
        targets = [labels[i % classes] for i in range(n)]
        y = np.array([[float(t == label) for label in labels] for t in targets])
    else:
        labels = None
        targets = rng.normal(size=n)
        y = targets.reshape(-1, 1)
    return x, targets, labels, settings, y


def assert_matches_reference(model, x, y, head, settings, seed, standardize):
    x_ref = Standardizer.fit(x).transform(x) if standardize else x
    params, log = reference_sgd(x_ref, y, head, settings, seed=seed)
    for key in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(model, key), params[key])
    assert model.training_log == log


@pytest.mark.parametrize("head", ["softmax", "linear"])
@pytest.mark.parametrize("n, batch_size, standardize, changes", REFERENCE_CASES)
def test_training_matches_the_reference_descent(head, n, batch_size, standardize,
                                                changes):
    x, targets, labels, settings, y = reference_case(head, n, batch_size, changes)
    model = train_mlp(x, targets, class_labels=labels, settings=settings, seed=8,
                      standardize_inputs=standardize)
    assert_matches_reference(model, x, y, head, settings, 8, standardize)


@pytest.mark.parametrize("head", ["softmax", "linear"])
@pytest.mark.parametrize("n, batch_size, standardize, changes", REFERENCE_CASES)
def test_training_matches_the_textbook_descent(head, n, batch_size, standardize,
                                               changes):
    # the bias-folded op order computes the textbook algorithm, up to rounding
    x, targets, labels, settings, y = reference_case(head, n, batch_size, changes)
    model = train_mlp(x, targets, class_labels=labels, settings=settings, seed=8,
                      standardize_inputs=standardize)
    x_ref = Standardizer.fit(x).transform(x) if standardize else x
    params = textbook_sgd(x_ref, y, head, settings, seed=8)
    for key in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(getattr(model, key), params[key], rtol=1e-12)


@pytest.mark.parametrize("head", ["softmax", "linear"])
def test_fitted_weights_are_plain_arrays_that_reload_to_the_same_bits(head):
    x, targets, labels, settings, _ = reference_case(head, 33, 8, {})
    model = train_mlp(x, targets, class_labels=labels, settings=settings, seed=8,
                      standardize_inputs=True)
    arrays = [getattr(model, key) for key in ("w1", "b1", "w2", "b2")]
    for i, array in enumerate(arrays):
        assert array.flags.c_contiguous
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(array, other)
    loaded = model_from_dict(model_to_dict(model))
    probe = np.random.default_rng(3).normal(3.0, 2.0, size=(20, x.shape[1]))
    predict = predict_probabilities if head == "softmax" else predict_values
    assert np.array_equal(predict(loaded, probe), predict(model, probe))


@pytest.mark.parametrize("head", ["softmax", "linear"])
@pytest.mark.parametrize("standardize", [True, False])
def test_training_leaves_the_callers_arrays_unchanged(head, standardize):
    x, targets, labels, settings, _ = reference_case(head, 33, 8, {})
    targets = np.array(targets)
    x_before, targets_before = x.copy(), targets.copy()
    train_mlp(x, targets, class_labels=labels, settings=settings, seed=8,
              standardize_inputs=standardize)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(targets, targets_before)


@pytest.mark.parametrize("head", ["softmax", "linear"])
@pytest.mark.parametrize("n", [32, 45], ids=["whole_batches", "remainder_batch"])
def test_training_log_holds_one_entry_per_epoch(head, n):
    x, targets, labels, settings, _ = reference_case(head, n, 8, {"epochs": 7})
    model = train_mlp(x, targets, class_labels=labels, settings=settings, seed=8)
    assert len(model.training_log) == settings.epochs


def test_back_to_back_fits_equal_fresh_ones():
    # fits of other shapes in between must leave nothing behind that a later
    # fit reads: each equals the reference descent, and a repeat its first run
    cases = [("softmax", 45, 8, True, {}), ("linear", 33, 32, False, {}),
             ("softmax", 70, 32, True, {"features": 18, "classes": 6, "epochs": 3})]
    first = []
    for _ in range(2):
        for head, n, batch_size, standardize, changes in cases:
            x, targets, labels, settings, y = reference_case(head, n, batch_size, changes)
            model = train_mlp(x, targets, class_labels=labels, settings=settings,
                              seed=8, standardize_inputs=standardize)
            assert_matches_reference(model, x, y, head, settings, 8, standardize)
            first.append(model)
    for a, b in zip(first[: len(cases)], first[len(cases) :]):
        for key in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, key), getattr(b, key))
        assert a.training_log == b.training_log


def separable_data(rng, n_per=40):
    a = rng.normal([0, 0], 0.3, size=(n_per, 2))
    b = rng.normal([3, 3], 0.3, size=(n_per, 2))
    c = rng.normal([0, 3], 0.3, size=(n_per, 2))
    x = np.vstack([a, b, c])
    labels = ["lo"] * n_per + ["hi"] * n_per + ["mid"] * n_per
    return x, labels


def test_classifier_separates_clean_clusters():
    rng = np.random.default_rng(11)
    x, labels = separable_data(rng)
    model = train_mlp(x, labels, class_labels=("lo", "hi", "mid"),
                      settings=MlpSettings(epochs=200), seed=0)
    pred = [predict_class(model, row).label for row in x]
    accuracy = np.mean([p == t for p, t in zip(pred, labels)])
    assert accuracy > 0.99


def test_training_is_deterministic_given_seed():
    rng = np.random.default_rng(13)
    x, labels = separable_data(rng, n_per=15)
    kwargs = dict(class_labels=("lo", "hi", "mid"),
                  settings=MlpSettings(epochs=30), seed=9)
    a = train_mlp(x, labels, **kwargs)
    b = train_mlp(x, labels, **kwargs)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    assert a.training_log == b.training_log
    c = train_mlp(x, labels, class_labels=("lo", "hi", "mid"),
                  settings=MlpSettings(epochs=30), seed=10)
    assert not np.array_equal(a.w1, c.w1)


def test_probabilities_normalize():
    rng = np.random.default_rng(17)
    x, labels = separable_data(rng, n_per=10)
    model = train_mlp(x, labels, class_labels=("lo", "hi", "mid"),
                      settings=MlpSettings(epochs=20), seed=1)
    probs = predict_probabilities(model, rng.normal(size=(50, 2)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_softmax_is_shift_invariant_in_logits():
    model = MlpModel(
        w1=np.zeros((2, 3)), b1=np.zeros(3),
        w2=np.zeros((3, 2)), b2=np.array([4.0, 4.0]),
        head="softmax", class_labels=("a", "b"),
    )
    shifted = MlpModel(
        w1=np.zeros((2, 3)), b1=np.zeros(3),
        w2=np.zeros((3, 2)), b2=np.array([904.0, 904.0]),
        head="softmax", class_labels=("a", "b"),
    )
    x = np.array([[1.0, -1.0]])
    np.testing.assert_allclose(
        predict_probabilities(model, x), predict_probabilities(shifted, x), atol=1e-12
    )


def test_regression_head_fits_a_smooth_map():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = 2.0 * x[:, 0] - 0.5 * x[:, 1] + 1.0
    model = train_mlp(x, y, settings=MlpSettings(epochs=400, learning_rate=0.05),
                      seed=2)
    pred = predict_values(model, x)
    assert np.sqrt(np.mean((pred - y) ** 2)) < 0.1


def test_capacity_on_a_tiny_task():
    # 10 points, 5000 epochs: the data loss must essentially vanish
    rng = np.random.default_rng(23)
    x = rng.normal(size=(10, 3))
    labels = ["a", "b"] * 5
    model = train_mlp(
        x, labels, class_labels=("a", "b"),
        settings=MlpSettings(epochs=5000, batch_size=10, learning_rate=0.1),
        seed=3,
    )
    assert model.training_log[-1] < 0.01


def test_missing_class_is_an_error():
    x = np.zeros((4, 2))
    with pytest.raises(FitError, match="no training examples"):
        train_mlp(x, ["a", "a", "a", "a"], class_labels=("a", "b"))


@pytest.mark.parametrize("labels", [("a",), ()])
def test_a_classifier_needs_two_class_labels(labels):
    # refused before training, not after 500 epochs by the model's own check
    with pytest.raises(FitError, match=f"^a classifier needs at least 2 class labels, "
                                       f"got {len(labels)}$"):
        train_mlp(np.zeros((4, 2)), ["a"] * 4, class_labels=labels)


@pytest.mark.parametrize("value", [True, "0.01", None])
def test_settings_learning_rate_must_be_a_number(value):
    settings = MlpSettings(learning_rate=value)
    message = f"^learning_rate must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(FitError, match=message):
        settings.validate()
    with pytest.raises(FitError, match=message):
        train_mlp(np.zeros((4, 2)), ["a", "b"] * 2, class_labels=("a", "b"),
                  settings=settings)


@pytest.mark.parametrize("field, value", [("batch_size", 2.5), ("epochs", 2.5),
                                          ("batch_size", True), ("epochs", 3.0)])
def test_settings_counts_must_be_integers(field, value):
    settings = replace(MlpSettings(), **{field: value})
    with pytest.raises(FitError, match=f"^{field} must be an integer"):
        settings.validate()
    with pytest.raises(FitError, match=f"^{field} must be an integer"):
        train_mlp(np.zeros((4, 2)), ["a", "b"] * 2, class_labels=("a", "b"),
                  settings=settings)


@pytest.mark.parametrize("labels", [("a", "b"), None])
@pytest.mark.parametrize("count", [4, 8])
def test_target_count_must_match_the_inputs(labels, count):
    targets = ["a", "b"] * (count // 2) if labels else np.zeros(count)
    with pytest.raises(FitError, match=f"^6 inputs but {count} targets$"):
        train_mlp(np.zeros((6, 2)), targets, class_labels=labels)


def test_repeated_class_label_is_an_error(tmp_path):
    x = np.zeros((4, 2))
    with pytest.raises(FitError, match="^class label 'a' is repeated$"):
        train_mlp(x, ["a", "b", "a", "b"], class_labels=("a", "a", "b"))
    payload = {"format": "mlp", "version": 1, "head": "softmax",
               "class_labels": ["a", "a", "b"],
               "w1": np.zeros((2, 3)).tolist(), "b1": [0.0] * 3,
               "w2": np.zeros((3, 3)).tolist(), "b2": [0.0] * 3}
    with pytest.raises(ValueError, match="^class label 'a' is repeated$"):
        model_from_dict(payload)
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as caught:
        load_payload(path, model_from_dict)
    assert str(caught.value) == f"{path}: class label 'a' is repeated"


def test_unknown_label_is_an_error():
    x = np.zeros((4, 2))
    with pytest.raises(FitError, match="unknown class"):
        train_mlp(x, ["a", "a", "b", "z"], class_labels=("a", "b"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    rng = np.random.default_rng(29)
    x = rng.normal(0, 1e4, size=(20, 2))
    y = rng.normal(0, 1e4, size=20)
    with pytest.raises(FitError, match="diverged"):
        train_mlp(x, y, settings=MlpSettings(epochs=400, learning_rate=10.0), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_last_step_that_breaks_only_the_biases_is_divergence():
    # zero inputs and tanh(0) = 0 give w1 and w2 no data gradient, so the step
    # leaves them finite, and the logged pre-step loss is finite; the one step
    # sends the biases to infinity
    with pytest.raises(FitError, match="diverged"):
        train_mlp(np.zeros((8, 3)), np.arange(8.0) * 10,
                  settings=MlpSettings(epochs=1, batch_size=8, learning_rate=1e308))


def test_input_standardizer_is_applied_at_predict_time():
    rng = np.random.default_rng(31)
    x = np.vstack([rng.normal(0, 1, size=(30, 2)), rng.normal(500, 1, size=(30, 2))])
    labels = ["near"] * 30 + ["far"] * 30
    model = train_mlp(x, labels, class_labels=("near", "far"),
                      settings=MlpSettings(epochs=100), seed=4,
                      standardize_inputs=True)
    assert model.input_standardizer is not None
    assert predict_class(model, np.array([0.0, 0.0])).label == "near"
    assert predict_class(model, np.array([500.0, 500.0])).label == "far"
    assert predict_class(model, np.array([[500.0, 500.0]])).label == "far"
    with pytest.raises(ValueError, match="one input row, got 3"):
        predict_class(model, x[:3])


def test_voting_takes_the_modal_class():
    model = MlpModel(
        w1=np.zeros((1, 2)), b1=np.zeros(2),
        w2=np.array([[0.0, 0.0], [0.0, 0.0]]), b2=np.zeros(2),
        head="softmax", class_labels=("a", "b"),
    )
    # identity-ish network is useless; vote directly through a hand model
    hand = MlpModel(
        w1=np.eye(1, 1), b1=np.zeros(1),
        w2=np.array([[4.0, -4.0]]), b2=np.zeros(2),
        head="softmax", class_labels=("a", "b"),
    )
    windows = np.array([[2.0], [2.0], [-2.0]])  # two votes a, one vote b
    result = classify_bout_voting(hand, windows)
    assert result.label == "a"
    np.testing.assert_allclose(result.probabilities, [2 / 3, 1 / 3])
    assert isinstance(result, ClassPrediction)
    del model


def test_prediction_rejects_inputs_it_cannot_score():
    hand = MlpModel(
        w1=np.eye(1, 1), b1=np.zeros(1),
        w2=np.array([[4.0, -4.0]]), b2=np.zeros(2),
        head="softmax", class_labels=("a", "b"),
    )
    with pytest.raises(ValueError, match="^cannot vote on a bout with no windows$"):
        classify_bout_voting(hand, np.empty((0, 1)))
    for bad in (np.nan, np.inf):
        rows = np.array([[1.0], [bad]])
        for predict, inputs in ((predict_probabilities, rows), (predict_class, rows[1]),
                                (classify_bout_voting, rows)):
            with pytest.raises(ValueError, match="^input contains non-finite values$"):
                predict(hand, inputs)
    linear = MlpModel(w1=np.eye(1, 1), b1=np.zeros(1), w2=np.ones((1, 1)),
                      b2=np.zeros(1), head="linear")
    with pytest.raises(ValueError, match="^input contains non-finite values$"):
        predict_values(linear, np.array([[0.0], [np.nan]]))
    # A 3-d array whose second axis matches the input width is still rejected.
    cube = np.zeros((4, 1, 1))
    for predict, model in ((predict_values, linear), (predict_probabilities, hand),
                           (classify_bout_voting, hand)):
        with pytest.raises(ValueError,
                           match=r"^input must be 1-d or 2-d, got shape \(4, 1, 1\)$"):
            predict(model, cube)


def test_voting_tie_breaks_on_probability_mass():
    hand = MlpModel(
        w1=np.eye(1, 1), b1=np.zeros(1),
        w2=np.array([[4.0, -4.0]]), b2=np.zeros(2),
        head="softmax", class_labels=("a", "b"),
    )
    # one confident a vote, one weak b vote: tie on counts, a wins on mass
    windows = np.array([[3.0], [-0.1]])
    assert classify_bout_voting(hand, windows).label == "a"
    # mirrored strengths flip the winner
    windows = np.array([[0.1], [-3.0]])
    assert classify_bout_voting(hand, windows).label == "b"


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    x, labels = separable_data(rng, n_per=10)
    model = train_mlp(x, labels, class_labels=("lo", "hi", "mid"),
                      settings=MlpSettings(epochs=25), seed=5,
                      standardize_inputs=True)
    path = tmp_path / "mlp.json"
    save_payload(model_to_dict(model), path)
    loaded = load_payload(path, model_from_dict)
    probe = rng.normal(size=(20, 2))
    np.testing.assert_allclose(
        predict_probabilities(loaded, probe), predict_probabilities(model, probe),
        rtol=1e-12,
    )
    assert loaded.class_labels == model.class_labels
    assert loaded.head == model.head


def test_serialization_rejects_foreign_payloads(tmp_path):
    with pytest.raises(ValueError, match="format"):
        model_from_dict({"format": "not_mlp", "version": 1})
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        model_from_dict([])
    with pytest.raises(ValueError, match="network payload has a value of the wrong type"):
        model_from_dict({"format": "mlp", "version": 1, "standardizer": "x"})
    linear = {"format": "mlp", "version": 1, "head": "linear",
              "w1": np.zeros((2, 3)).tolist(), "b1": [0.0] * 3,
              "w2": np.zeros((3, 1)).tolist(), "b2": [0.0]}
    model_from_dict(linear)
    for key, value, message in [
        ("b1", [0.0] * 5, r"b1 has shape \(5,\), layer width is 3"),
        ("b2", [0.0] * 7, r"b2 has shape \(7,\), layer width is 1"),
        ("w2", np.zeros((3, 2)).tolist(), "b2 has shape"),
        ("w1", [0.0, 0.0], r"w1 and w2 must be matrices, got shapes \(2,\) and \(3, 1\)"),
        ("standardizer", {"mean": [0.0] * 5, "std": [1.0] * 5},
         r"input standardizer has shape \(5,\), network takes 2 inputs"),
        ("w1", np.full((2, 3), np.nan).tolist(), "^w1 must be finite"),
        ("b1", [0.0, float("inf"), 0.0], "^b1 must be finite"),
        ("w2", [[0.0], [np.nan], [0.0]], "^w2 must be finite"),
        ("b2", [float("-inf")], "^b2 must be finite"),
        ("standardizer", {"mean": [0.0, 0.0], "std": [1.0, 0.0]},
         "^standardizer std must be positive"),
        ("standardizer", {"mean": [0.0, 0.0], "std": [1.0]},
         r"^standardizer mean and std must be 1-d and of one length, got shapes \(2,\) and \(1,\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            model_from_dict({**linear, key: value})
    with pytest.raises(ValueError, match="linear head needs output width 1, got 2"):
        model_from_dict({**linear, "w2": np.zeros((3, 2)).tolist(), "b2": [0.0] * 2})
    path = tmp_path / "mlp.json"
    path.write_text('{"format": "mlp", "version": 1}')
    with pytest.raises(ValueError, match=r"mlp\.json: .* no key 'w1'"):
        load_payload(path, model_from_dict)


def test_a_linear_head_with_class_labels_is_rejected(tmp_path):
    linear = {"format": "mlp", "version": 1, "head": "linear", "class_labels": ["a", "b"],
              "w1": np.zeros((2, 3)).tolist(), "b1": [0.0] * 3,
              "w2": np.zeros((3, 1)).tolist(), "b2": [0.0]}
    with pytest.raises(ValueError, match="^linear head takes no class labels$"):
        model_from_dict(linear)
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(linear))
    with pytest.raises(ValueError) as info:
        load_payload(path, model_from_dict)
    assert str(info.value) == f"{path}: linear head takes no class labels"


def test_model_dict_survives_json():
    rng = np.random.default_rng(41)
    x, labels = separable_data(rng, n_per=8)
    model = train_mlp(x, labels, class_labels=("lo", "hi", "mid"),
                      settings=MlpSettings(epochs=10), seed=6)
    payload = json.loads(json.dumps(model_to_dict(model)))
    again = model_from_dict(payload)
    np.testing.assert_allclose(again.w1, model.w1, rtol=1e-15)
