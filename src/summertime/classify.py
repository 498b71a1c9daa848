"""Single-hidden-layer perceptron, trained by plain mini-batch gradient descent.

The same network core serves two jobs:

* a softmax head with cross-entropy loss for activity classification, fed
  either bout summaries or per-window features (the latter classified per
  window and combined by majority vote);
* a linear head with squared-error loss for direct energy-expenditure
  regression from window features.

Everything is explicit numpy: forward pass, backprop, L2 penalty on the two
weight matrices (biases are not decayed).  The parameters live in one flat
vector laid out ``[w1, w2, b1, b2]`` and the gradients in a second vector of
that layout; the four blocks are reshaped views into them.  The decay is one
product over the ``[w1, w2]`` prefix and the descent step is one product and
one in-place subtraction over the whole vector.

One backprop routine (``_forward``, ``_output_delta``, ``_gradients``) serves
both the SGD step in ``train_mlp`` and ``loss_and_gradients``, which is
exposed so gradients can be checked against finite differences.  Each routine
writes into output buffers when given them: ``train_mlp`` allocates one set
per batch size (the full batch and the remainder), so a step allocates
nothing, while ``loss_and_gradients`` gets fresh arrays.  Each element sees
the same float operations in the same order either way, so the in-place step
reproduces plain descent on ``loss_and_gradients`` bit for bit.  The step
computes no loss.  Each batch's forward pass writes its logits into that
batch's rows of one epoch-long buffer, and the epoch's ``training_log``
entry is the mean data loss of that buffer: every example scored at the
parameters its batch stepped from, with no second pass over the training
set.  After each epoch, a non-finite loss or parameter stops the fit as
diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FitError, load_payload, reading_payload, require_finite, save_payload
from .vbgmm import Standardizer


@dataclass(frozen=True)
class MlpSettings:
    hidden_units: int = 25
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32
    l2_penalty: float = 1e-4

    def validate(self) -> None:
        if self.hidden_units < 1:
            raise FitError("hidden_units must be positive")
        if self.learning_rate <= 0:
            raise FitError("learning_rate must be positive")
        if self.epochs < 1:
            raise FitError("epochs must be positive")
        if self.batch_size < 1:
            raise FitError("batch_size must be positive")
        if self.l2_penalty < 0:
            raise FitError("l2_penalty must be nonnegative")
        for name in ("learning_rate", "l2_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise FitError(f"{name} must be finite")


def _repeated_label(labels: Sequence[str]) -> str | None:
    """The first label that already occurred earlier in ``labels``, else None."""
    seen = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


@dataclass(frozen=True)
class MlpModel:
    """Fitted network.  ``head`` is 'softmax' (class_labels set) or 'linear'.

    ``training_log`` holds one entry per epoch: the mean per-example data loss
    (no L2 term) over that epoch's batches, each example scored at the
    parameters its batch stepped from.
    ``input_standardizer`` is applied before the forward pass when present;
    summary inputs already live on the simplex and are trained raw.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    head: str
    class_labels: tuple[str, ...] = ()
    input_standardizer: Standardizer | None = None
    training_log: tuple[float, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if self.head not in ("softmax", "linear"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "softmax" and len(self.class_labels) < 2:
            raise ValueError("softmax head needs >= 2 class labels")
        repeated = _repeated_label(self.class_labels)
        if repeated is not None:
            raise ValueError(f"class label {repeated!r} is repeated")
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError(
                f"w1 and w2 must be matrices, got shapes {self.w1.shape} and {self.w2.shape}"
            )
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden layer shapes disagree")
        for bias, weights in (("b1", self.w1), ("b2", self.w2)):
            if getattr(self, bias).shape != (weights.shape[1],):
                raise ValueError(
                    f"{bias} has shape {getattr(self, bias).shape}, "
                    f"layer width is {weights.shape[1]}"
                )
        require_finite({"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2})
        if self.head == "softmax" and self.w2.shape[1] != len(self.class_labels):
            raise ValueError("output width must match the class count")
        if self.head == "linear" and self.w2.shape[1] != 1:
            raise ValueError(f"linear head needs output width 1, got {self.w2.shape[1]}")
        if (self.input_standardizer is not None
                and self.input_standardizer.mean.shape != (self.w1.shape[0],)):
            raise ValueError(
                f"input standardizer has shape {self.input_standardizer.mean.shape}, "
                f"network takes {self.w1.shape[0]} inputs"
            )

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class ClassPrediction:
    label: str
    probabilities: np.ndarray


_PARAM_KEYS = ("w1", "b1", "w2", "b2")


class _Flat:
    """One flat vector laid out ``[w1, w2, b1, b2]``, each block a reshaped view.

    ``weights`` is the ``[w1, w2]`` prefix, the part the L2 penalty decays.
    The network's parameters and their gradients share this layout, so a
    descent step and the weight decay are each one vector operation.
    """

    def __init__(self, input_dim: int, hidden: int, output_dim: int):
        n1 = input_dim * hidden
        n2 = n1 + hidden * output_dim
        self.vector = np.empty(n2 + hidden + output_dim)
        self.weights = self.vector[:n2]
        self.w1 = self.vector[:n1].reshape(input_dim, hidden)
        self.w2 = self.vector[n1:n2].reshape(hidden, output_dim)
        self.b1 = self.vector[n2 : n2 + hidden]
        self.b2 = self.vector[n2 + hidden :]

    @classmethod
    def pack(cls, params: dict[str, np.ndarray]) -> "_Flat":
        flat = cls(*params["w1"].shape, params["w2"].shape[1])
        for key in _PARAM_KEYS:
            getattr(flat, key)[...] = params[key]
        return flat

    def empty_like(self) -> "_Flat":
        return _Flat(*self.w1.shape, self.w2.shape[1])


def _forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
             b2: np.ndarray, hidden: np.ndarray | None = None,
             output: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """tanh hidden layer and output logits, written into the buffers if given."""
    hidden = np.matmul(x, w1, out=hidden)
    np.add(hidden, b1, out=hidden)
    np.tanh(hidden, out=hidden)
    output = np.matmul(hidden, w2, out=output)
    np.add(output, b2, out=output)
    return hidden, output


def _softmax(logits: np.ndarray, out: np.ndarray | None = None,
             row: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax into ``out``; ``row`` is an (N, 1) scratch buffer."""
    row = np.maximum.reduce(logits, axis=1, keepdims=True, out=row)
    out = np.subtract(logits, row, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=1, keepdims=True, out=row)
    return np.divide(out, row, out=out)


def _data_loss(output: np.ndarray, y: np.ndarray, head: str) -> float:
    """Mean per-example data loss of the outputs ``output`` against ``y``."""
    if head == "softmax":
        probs = _softmax(output)
        return float(-np.add.reduce(y * np.log(np.maximum(probs, 1e-300)), axis=None)
                     / len(y))
    return float(0.5 * np.add.reduce((output - y) ** 2, axis=None) / len(y))


def _output_delta(output: np.ndarray, y: np.ndarray, head: str,
                  out: np.ndarray | None = None,
                  row: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the mean data loss with respect to the network outputs.

    Written into ``out`` if given; ``row`` is the softmax's (N, 1) scratch
    buffer.
    """
    if head == "softmax":
        output = _softmax(output, out, row)
    delta = np.subtract(output, y, out=out)
    return np.divide(delta, len(y), out=delta)


def _gradients(x: np.ndarray, hidden: np.ndarray, delta_out: np.ndarray,
               params: _Flat, l2_penalty: float, grads: _Flat | None = None,
               delta_hidden: np.ndarray | None = None,
               decay: np.ndarray | None = None) -> _Flat:
    """Backpropagate an output delta into the flat gradient of ``params``.

    ``hidden`` is overwritten with 1 - hidden**2.  ``grads``, ``delta_hidden``
    (shaped like ``hidden``) and ``decay`` (shaped like ``params.weights``)
    are output buffers, allocated when not given.
    """
    grads = params.empty_like() if grads is None else grads
    np.matmul(hidden.T, delta_out, out=grads.w2)
    np.add.reduce(delta_out, axis=0, out=grads.b2)
    delta_hidden = np.matmul(delta_out, params.w2.T, out=delta_hidden)
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    np.multiply(delta_hidden, hidden, out=delta_hidden)
    np.matmul(x.T, delta_hidden, out=grads.w1)
    np.add.reduce(delta_hidden, axis=0, out=grads.b1)
    decay = np.multiply(l2_penalty, params.weights, out=decay)
    np.add(grads.weights, decay, out=grads.weights)
    return grads


def loss_and_gradients(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray,
                       head: str, l2_penalty: float) -> tuple[float, dict[str, np.ndarray]]:
    """Objective and its gradients for one batch.

    For the softmax head ``y`` is (N, C) one-hot and the data term is mean
    cross-entropy; for the linear head ``y`` is (N, 1) and the data term is
    0.5 * mean squared error.  The penalty 0.5 * l2 * (|w1|^2 + |w2|^2) is
    added in both cases.  The gradients come from the routine that
    ``train_mlp`` steps with, here writing into fresh arrays.
    """
    flat = _Flat.pack(params)
    hidden, output = _forward(x, flat.w1, flat.b1, flat.w2, flat.b2)
    loss = _data_loss(output, y, head) + 0.5 * l2_penalty * (
        float(np.sum(flat.w1 ** 2)) + float(np.sum(flat.w2 ** 2))
    )
    grads = _gradients(x, hidden, _output_delta(output, y, head), flat, l2_penalty)
    return loss, {key: getattr(grads, key) for key in _PARAM_KEYS}


def _init_params(input_dim: int, hidden: int, output_dim: int,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    # Xavier-style uniform limits keep tanh activations away from saturation.
    limit1 = math.sqrt(6.0 / (input_dim + hidden))
    limit2 = math.sqrt(6.0 / (hidden + output_dim))
    return {
        "w1": rng.uniform(-limit1, limit1, size=(input_dim, hidden)),
        "b1": np.zeros(hidden),
        "w2": rng.uniform(-limit2, limit2, size=(hidden, output_dim)),
        "b2": np.zeros(output_dim),
    }


def train_mlp(inputs: np.ndarray, targets: Sequence[str] | np.ndarray,
              class_labels: Sequence[str] | None = None,
              settings: MlpSettings | None = None, seed: int = 0,
              standardize_inputs: bool = False) -> MlpModel:
    """Train a classifier (``class_labels`` given) or a scalar regressor.

    Classifier targets are label strings; every entry of ``class_labels``
    must occur at least once in them.  Regressor targets are floats.
    """
    settings = settings or MlpSettings()
    settings.validate()
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise FitError(f"training inputs must be a nonempty 2-d matrix, got {inputs.shape}")
    if not np.all(np.isfinite(inputs)):
        raise FitError("training inputs contain non-finite values")

    standardizer = None
    if standardize_inputs:
        standardizer = Standardizer.fit(inputs)
        inputs = standardizer.transform(inputs)

    if len(targets) != len(inputs):
        raise FitError(f"{len(inputs)} inputs but {len(targets)} targets")
    if class_labels is not None:
        head = "softmax"
        class_labels = tuple(class_labels)
        repeated = _repeated_label(class_labels)
        if repeated is not None:
            raise FitError(f"class label {repeated!r} is repeated")
        index = {label: j for j, label in enumerate(class_labels)}
        present = set(targets)
        for label in class_labels:
            if label not in present:
                raise FitError(
                    f"class {label!r} has no training examples; cannot fit a classifier"
                )
        for label in present:
            if label not in index:
                raise FitError(f"training labels contain unknown class {label!r}")
        y = np.zeros((len(inputs), len(class_labels)))
        for i, label in enumerate(targets):
            y[i, index[label]] = 1.0
        output_dim = len(class_labels)
    else:
        head = "linear"
        class_labels = ()
        y = np.asarray(targets, dtype=float)
        if y.ndim != 1:
            raise FitError(f"regression targets must be 1-d, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise FitError("training targets contain non-finite values")
        y = y.reshape(-1, 1)
        output_dim = 1

    rng = np.random.default_rng(seed)
    params = _Flat.pack(_init_params(inputs.shape[1], settings.hidden_units,
                                     output_dim, rng))
    w1, b1, w2, b2 = (getattr(params, key) for key in _PARAM_KEYS)
    n = len(inputs)
    lr, l2, size = settings.learning_rate, settings.l2_penalty, settings.batch_size
    # A step allocates nothing: every batch of one size (the full one and the
    # remainder) reuses that size's forward and backward buffers.
    grads, step = params.empty_like(), np.empty_like(params.vector)
    decay = np.empty_like(params.weights)
    # Each batch writes its logits into its own rows of this epoch-long
    # buffer, from which the epoch's loss is read.
    logits = np.empty((n, output_dim))
    buffers = {}
    batches = []
    for start in range(0, n, size):
        rows = min(size, n - start)
        if rows not in buffers:
            buffers[rows] = (np.empty((rows, settings.hidden_units)),
                             np.empty((rows, output_dim)), np.empty((rows, 1)),
                             np.empty((rows, settings.hidden_units)))
        batches.append((start, start + rows, logits[start : start + rows],
                        *buffers[rows]))
    training_log = []
    for _ in range(settings.epochs):
        order = rng.permutation(n)
        xs, ys = inputs[order], y[order]
        for start, stop, batch_logits, hidden, delta, row, delta_hidden in batches:
            x = xs[start:stop]
            _forward(x, w1, b1, w2, b2, hidden, batch_logits)
            _output_delta(batch_logits, ys[start:stop], head, delta, row)
            _gradients(x, hidden, delta, params, l2, grads, delta_hidden, decay)
            np.multiply(lr, grads.vector, out=step)
            params.vector -= step
        epoch_loss = _data_loss(logits, ys, head)
        if not (math.isfinite(epoch_loss) and np.isfinite(params.vector).all()):
            raise FitError("training diverged (non-finite loss or parameters); "
                           "try a smaller learning rate")
        training_log.append(epoch_loss)

    return MlpModel(
        w1=w1, b1=b1, w2=w2, b2=b2,
        head=head, class_labels=class_labels, input_standardizer=standardizer,
        training_log=tuple(training_log), seed=seed,
    )


def _prepare(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.ndim != 2:
        raise ValueError(f"input must be 1-d or 2-d, got shape {inputs.shape}")
    if inputs.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {inputs.shape[1]} features, model expects {model.input_dim}"
        )
    if not np.all(np.isfinite(inputs)):
        raise ValueError("input contains non-finite values")
    if model.input_standardizer is not None:
        inputs = model.input_standardizer.transform(inputs)
    return inputs


def predict_probabilities(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """(N, C) class probabilities; softmax head only."""
    if model.head != "softmax":
        raise ValueError("probabilities are only defined for the softmax head")
    _, output = _forward(_prepare(model, inputs), model.w1, model.b1, model.w2, model.b2)
    return _softmax(output)


def predict_class(model: MlpModel, inputs: np.ndarray) -> ClassPrediction:
    """Single-input classification; ties break toward the lower class index.

    ``inputs`` is one feature vector, 1-d or a (1, K) matrix.
    """
    probs = predict_probabilities(model, inputs)
    if len(probs) != 1:
        raise ValueError(f"predict_class takes one input row, got {len(probs)}")
    return ClassPrediction(label=model.class_labels[int(np.argmax(probs[0]))],
                           probabilities=probs[0])


def predict_values(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """(N,) scalar outputs; linear head only."""
    if model.head != "linear":
        raise ValueError("scalar outputs are only defined for the linear head")
    _, output = _forward(_prepare(model, inputs), model.w1, model.b1, model.w2, model.b2)
    return output[:, 0]


def classify_bout_voting(model: MlpModel, window_matrix: np.ndarray) -> ClassPrediction:
    """Classify each window, then take the modal predicted class for the bout.

    Vote ties are broken by the tied classes' summed probability mass; exact
    ties after that go to the lower class index.  The returned probability
    vector holds vote shares, not averaged network outputs.
    """
    probs = predict_probabilities(model, window_matrix)
    if len(probs) == 0:
        raise ValueError("cannot vote on a bout with no windows")
    votes = np.argmax(probs, axis=1)
    counts = np.bincount(votes, minlength=len(model.class_labels))
    leaders = np.flatnonzero(counts == counts.max())
    if len(leaders) == 1:
        winner = int(leaders[0])
    else:
        mass = probs[:, leaders].sum(axis=0)
        winner = int(leaders[int(np.argmax(mass))])
    shares = counts.astype(float) / counts.sum()
    return ClassPrediction(label=model.class_labels[winner], probabilities=shares)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def model_to_dict(model: MlpModel) -> dict:
    payload = {
        "format": "mlp",
        "version": 1,
        "head": model.head,
        "class_labels": list(model.class_labels),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2.tolist(),
        "training_log": list(model.training_log),
        "seed": model.seed,
        "standardizer": None,
    }
    if model.input_standardizer is not None:
        payload["standardizer"] = model.input_standardizer.to_dict()
    return payload


def model_from_dict(payload: dict) -> MlpModel:
    with reading_payload(payload, "mlp", "network"):
        standardizer = None
        if payload.get("standardizer"):
            standardizer = Standardizer.from_dict(payload["standardizer"])
        return MlpModel(
            w1=np.array(payload["w1"], dtype=float),
            b1=np.array(payload["b1"], dtype=float),
            w2=np.array(payload["w2"], dtype=float),
            b2=np.array(payload["b2"], dtype=float),
            head=payload["head"],
            class_labels=tuple(payload.get("class_labels", ())),
            input_standardizer=standardizer,
            training_log=tuple(payload.get("training_log", ())),
            seed=payload.get("seed"),
        )


def save_model(model: MlpModel, path: str | Path) -> None:
    save_payload(model_to_dict(model), path)


def load_model(path: str | Path) -> MlpModel:
    return load_payload(path, model_from_dict)
