"""Single-hidden-layer perceptron, trained by plain mini-batch gradient descent.

The same network core serves two jobs:

* a softmax head with cross-entropy loss for activity classification, fed
  either bout summaries or per-window features (the latter classified per
  window and combined by majority vote);
* a linear head with squared-error loss for direct energy-expenditure
  regression from window features.

Everything is explicit numpy: forward pass, backprop, and ``train_mlp``'s
fixed L2 penalty ``L2_PENALTY`` on the two weight matrices of its
``HIDDEN_UNITS``-wide tanh layer (biases are not decayed).  The parameters
live in one flat vector in a bias-folded, unit-major layout
``[w1ᵀ | b1, w2ᵀ | b2]``: each layer is one C-contiguous
``(units_out, units_in + 1)`` block whose last column is its bias, and the
gradients live in a second vector of that layout.  The inputs carry a
trailing ones column and the hidden activations a ones row, so one product
per layer gives its outputs with the bias added, and one product gives its
weight and bias gradients together.  Activations, outputs and deltas are
``(units, rows)``, so the softmax reduces along the contiguous axis.  The
decay is one product of the parameter vector with a penalty vector that is
0 on the bias columns, and the descent step is one product and one in-place
subtraction over the whole vector: a step is 20 numpy calls with the softmax
head and 15 with the linear head.

One backprop routine, ``_backprop``, serves both the SGD step in
``train_mlp`` and ``loss_and_gradients``, which is exposed so gradients can be
checked against finite differences.  It runs the forward pass, the output
delta and the flat gradient with L2 over a ``_Batch``: the batch's input and
target views, their transposes and every buffer the pass writes.
``train_mlp`` appends the ones column once per fit and builds its batches
once per fit, as row views into fit-long buffers that each epoch's shuffle is
copied into, so a step slices, transposes and allocates nothing;
``loss_and_gradients`` builds one batch of fresh buffers.  Each element sees
the same float operations in the same order either way, so the in-place step
reproduces plain descent bit for bit.  The step computes no loss.  Each batch
leaves its head outputs (softmax probabilities or linear values) in its own
contiguous block of one fit-long buffer, and one gather per epoch puts them
back in row order; the epoch's ``training_log`` entry is their mean data
loss: every example scored at the parameters its batch stepped from, with no
second pass over the training set.  After each epoch, a non-finite loss or
parameter stops the fit as diverged.  The fitted model holds C-contiguous
copies of the four blocks, and prediction runs its own plain forward pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitError, reading_payload, require_count, require_finite
from .vbgmm import Standardizer, _softmax_rows

# train_mlp's hidden width and weight decay.  The summaries feed one fixed
# classifier, so no caller tunes them; a model file of any width still loads.
HIDDEN_UNITS = 25
L2_PENALTY = 1e-4


@dataclass(frozen=True)
class MlpSettings:
    """The optimizer: step size, epoch count and minibatch size of SGD."""

    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32

    def validate(self) -> None:
        for name in ("epochs", "batch_size"):
            require_count(name, getattr(self, name))
        if (isinstance(self.learning_rate, bool)
                or not isinstance(self.learning_rate, numbers.Real)):
            raise FitError(f"learning_rate must be a number, got {self.learning_rate!r}")
        if self.learning_rate <= 0:
            raise FitError("learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise FitError("learning_rate must be finite")


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
        if self.head == "linear" and self.class_labels:
            raise ValueError("linear head takes no class labels")
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
    """One flat vector laid out ``[w1ᵀ | b1, w2ᵀ | b2]``.

    ``l1`` and ``l2`` are the layers' C-contiguous ``(units_out, units_in + 1)``
    blocks, each with its bias as the last column.  ``w1``, ``b1``, ``w2`` and
    ``b2`` are views into them in the ``(units_in, units_out)`` orientation of
    ``MlpModel``.  The network's parameters and their gradients share this
    layout, so a descent step and the weight decay are each one vector
    operation.
    """

    def __init__(self, input_dim: int, hidden: int, output_dim: int):
        n1 = hidden * (input_dim + 1)
        self.vector = np.empty(n1 + output_dim * (hidden + 1))
        self.l1 = self.vector[:n1].reshape(hidden, input_dim + 1)
        self.l2 = self.vector[n1:].reshape(output_dim, hidden + 1)
        self.w1, self.b1 = self.l1[:, :-1].T, self.l1[:, -1]
        self.w2, self.b2 = self.l2[:, :-1].T, self.l2[:, -1]

    @classmethod
    def pack(cls, params: dict[str, np.ndarray]) -> "_Flat":
        flat = cls(*params["w1"].shape, params["w2"].shape[1])
        for key in _PARAM_KEYS:
            getattr(flat, key)[...] = params[key]
        return flat

    def empty_like(self) -> "_Flat":
        return _Flat(*self.w1.shape, self.w2.shape[1])

    def penalty(self, l2_penalty: float) -> np.ndarray:
        """A vector of this layout: ``l2_penalty`` on the weights, 0 on the biases."""
        penalty = self.empty_like()
        penalty.vector.fill(l2_penalty)
        penalty.b1.fill(0.0)
        penalty.b2.fill(0.0)
        return penalty.vector


def _append_ones(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing ones column, the input of a bias-folded layer."""
    return np.hstack((x, np.ones((len(x), 1))))


def _forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
             b2: np.ndarray) -> np.ndarray:
    """Output logits of the tanh network, for prediction."""
    return np.tanh(x @ w1 + b1) @ w2 + b2


def _data_loss(output: np.ndarray, y: np.ndarray, head: str) -> float:
    """Mean per-example data loss of the head's ``output`` against ``y``:
    cross-entropy of softmax probabilities, or half the squared error of the
    linear outputs."""
    if head == "softmax":
        return float(-np.add.reduce(y * np.log(np.maximum(output, 1e-300)), axis=None)
                     / len(y))
    return float(0.5 * np.add.reduce((output - y) ** 2, axis=None) / len(y))


class _Batch:
    """One batch's inputs and targets, and every buffer its backprop writes.

    ``x`` holds the inputs with their ones column and ``y`` the targets, one
    row per example; both may be row views into longer arrays.  ``output`` is
    the C-contiguous ``(classes, rows)`` block that receives the head's
    outputs and may be a view into a longer buffer.  ``hidden`` is
    ``(hidden_units + 1, rows)``: ``activation``, its first ``hidden_units``
    rows, and a constant ones row.  The transposes and the row count are taken
    once, so that a backprop pass slices, transposes and allocates nothing.
    ``decay`` is shaped like the parameter vector and may be shared between
    batches.
    """

    __slots__ = ("x", "x_t", "y_t", "output", "hidden", "hidden_t", "activation",
                 "delta", "delta_hidden", "row", "rows", "decay")

    def __init__(self, x: np.ndarray, y: np.ndarray, output: np.ndarray,
                 hidden_units: int, decay: np.ndarray):
        self.x, self.x_t, self.y_t, self.output = x, x.T, y.T, output
        self.hidden = np.ones((hidden_units + 1, len(x)))
        self.hidden_t = self.hidden.T
        self.activation = self.hidden[:hidden_units]
        self.delta = np.empty_like(output)
        self.delta_hidden = np.empty_like(self.activation)
        self.row = np.empty((1, len(x)))
        self.rows = float(len(x))
        self.decay = decay


def _backprop(batch: _Batch, params: _Flat, grads: _Flat, head: str,
              penalty: np.ndarray) -> None:
    """Forward pass, output delta and flat gradient with L2 of one batch.

    ``penalty`` is ``_Flat.penalty``'s vector.  Leaves the head's output in
    ``batch.output``: softmax probabilities or linear values, one column per
    example.  18 numpy calls with the softmax head, 13 with the linear head:
    one product per layer forward, bias included; the softmax's two
    reductions along the contiguous axis; one product per layer for its weight
    and bias gradients, and one for the hidden delta.  The 2-d products use
    ``ndarray.dot``, which dispatches faster than ``np.matmul`` at these sizes;
    the reference-descent test multiplies with it too.
    """
    output, delta, delta_hidden, activation = (batch.output, batch.delta,
                                               batch.delta_hidden, batch.activation)
    params.l1.dot(batch.x_t, activation)
    np.tanh(activation, out=activation)
    params.l2.dot(batch.hidden, output)
    if head == "softmax":
        np.maximum.reduce(output, axis=0, keepdims=True, out=batch.row)
        np.subtract(output, batch.row, out=output)
        np.exp(output, out=output)
        np.add.reduce(output, axis=0, keepdims=True, out=batch.row)
        np.divide(output, batch.row, out=output)
    np.subtract(output, batch.y_t, out=delta)
    np.divide(delta, batch.rows, out=delta)
    delta.dot(batch.hidden_t, grads.l2)
    params.w2.dot(delta, delta_hidden)
    np.multiply(activation, activation, out=activation)
    np.subtract(1.0, activation, out=activation)
    np.multiply(delta_hidden, activation, out=delta_hidden)
    delta_hidden.dot(batch.x, grads.l1)
    np.multiply(penalty, params.vector, out=batch.decay)
    np.add(grads.vector, batch.decay, out=grads.vector)


def loss_and_gradients(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray,
                       head: str, l2_penalty: float) -> tuple[float, dict[str, np.ndarray]]:
    """Objective and its gradients for one batch.

    For the softmax head ``y`` is (N, C) one-hot and the data term is mean
    cross-entropy; for the linear head ``y`` is (N, 1) and the data term is
    0.5 * mean squared error.  The penalty 0.5 * l2 * (|w1|^2 + |w2|^2) is
    added in both cases.  The gradients come from the routine that
    ``train_mlp`` steps with, here over fresh buffers.
    """
    flat = _Flat.pack(params)
    grads = flat.empty_like()
    batch = _Batch(_append_ones(x), y, np.empty((y.shape[1], len(y))), flat.l1.shape[0],
                   np.empty_like(flat.vector))
    _backprop(batch, flat, grads, head, flat.penalty(l2_penalty))
    loss = _data_loss(batch.output.T, y, head) + 0.5 * l2_penalty * (
        float(np.sum(flat.w1 ** 2)) + float(np.sum(flat.w2 ** 2))
    )
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
        if len(class_labels) < 2:
            raise FitError(f"a classifier needs at least 2 class labels, "
                           f"got {len(class_labels)}")
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
    params = _Flat.pack(_init_params(inputs.shape[1], HIDDEN_UNITS, output_dim, rng))
    inputs = _append_ones(inputs)
    n = len(inputs)
    lr, size = settings.learning_rate, settings.batch_size
    grads, step = params.empty_like(), np.empty_like(params.vector)
    penalty, decay = params.penalty(L2_PENALTY), np.empty_like(params.vector)
    # Each epoch's shuffle is copied into xs and ys, which the batches view.
    # Each batch leaves its head outputs in its own (classes, rows) block of
    # ``outputs``; ``row_order`` holds where each row's outputs sit, and the
    # epoch's loss is read from them gathered back into ``scored``.
    xs, ys = np.empty(inputs.shape), np.empty(y.shape)
    outputs, scored = np.empty(y.size), np.empty(y.shape)
    batches, positions = [], []
    for start in range(0, n, size):
        first, rows = start * output_dim, min(size, n - start)
        block = outputs[first : first + rows * output_dim].reshape(output_dim, rows)
        batches.append(_Batch(xs[start : start + rows], ys[start : start + rows], block,
                              HIDDEN_UNITS, decay))
        positions.append(np.arange(first, first + block.size).reshape(block.shape).T)
    row_order = np.vstack(positions)
    training_log = []
    for _ in range(settings.epochs):
        order = rng.permutation(n)
        np.take(inputs, order, axis=0, out=xs)
        np.take(y, order, axis=0, out=ys)
        for batch in batches:
            _backprop(batch, params, grads, head, penalty)
            np.multiply(lr, grads.vector, out=step)
            params.vector -= step
        np.take(outputs, row_order, out=scored)
        epoch_loss = _data_loss(scored, ys, head)
        if not (math.isfinite(epoch_loss) and np.isfinite(params.vector).all()):
            raise FitError("training diverged (non-finite loss or parameters); "
                           "try a smaller learning rate")
        training_log.append(epoch_loss)

    return MlpModel(
        w1=params.w1.copy(), b1=params.b1.copy(), w2=params.w2.copy(), b2=params.b2.copy(),
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
    return _softmax_rows(_forward(_prepare(model, inputs), model.w1, model.b1,
                                  model.w2, model.b2))


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
    return _forward(_prepare(model, inputs), model.w1, model.b1, model.w2, model.b2)[:, 0]


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
