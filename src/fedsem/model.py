"""From-scratch dense softmax classifier with SGD and Adam local solvers.

This is the training engine every simulated client runs: a configurable
multilayer perceptron (ReLU hidden layers, softmax output) with exact
analytic gradients of the mean cross-entropy loss. Parameters are
immutable value objects over one read-only flat vector, so concurrent
client workers can share a global model without copying or locking.
Values are validated where they enter and leave the API, not per step:
:func:`train_local` updates a private copy of the vector in place,
checks only that it stays finite, and returns a validated result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import _frozen
from .errors import ClientSkip, ConfigError, ShapeError

PROB_FLOOR = 1e-12
SOLVERS = ("sgd", "adam")


def _check_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must list >= 2 positive sizes, got {dims}")
    return dims


def _views(dims, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (weights, biases) views into a vector in the ``flatten`` layout."""
    weights, biases, offset = [], [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset : offset + din * dout].reshape(din, dout))
        offset += din * dout
        biases.append(flat[offset : offset + dout])
        offset += dout
    return tuple(weights), tuple(biases)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Dense-layer weights and biases, stored as one flat parameter vector.

    ``layer_dims`` lists the input width, hidden widths, and class count;
    ``weights[l]`` has shape ``(layer_dims[l], layer_dims[l+1])`` and
    ``biases[l]`` has shape ``(layer_dims[l+1],)``. Both are read-only views
    into ``vector``, which holds per layer the weights row-major, then the bias.
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = _check_dims(self.layer_dims)
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeError("need one weight matrix and one bias vector per layer")
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            if np.shape(w) != (dims[layer], dims[layer + 1]) or np.shape(b) != (dims[layer + 1],):
                raise ShapeError(
                    f"layer {layer}: weight shape {np.shape(w)} / bias shape {np.shape(b)} "
                    f"do not match layer_dims {dims}"
                )
        chunks = [np.ravel(a) for pair in zip(self.weights, self.biases) for a in pair]
        self._own(dims, np.concatenate(chunks, dtype=np.float64))

    def _own(self, dims: tuple[int, ...], flat: np.ndarray) -> None:
        """Freeze and check ``flat``, then expose it through per-layer views."""
        flat.flags.writeable = False
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameter values")
        weights, biases = _views(dims, flat)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "vector", flat)

    @property
    def num_params(self) -> int:
        return self.vector.size

    def flatten(self) -> np.ndarray:
        """A writable copy of the parameter vector."""
        return self.vector.copy()

    @classmethod
    def unflatten(cls, layer_dims, vector) -> "ModelParams":
        """Parameters over one copy of a flat vector; inverse of :meth:`flatten`."""
        dims = _check_dims(layer_dims)
        vec = np.array(vector, dtype=np.float64).ravel()
        expected = sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))
        if vec.size != expected:
            raise ShapeError(f"flat vector has {vec.size} entries, expected {expected}")
        params = object.__new__(cls)
        params._own(dims, vec)
        return params


@dataclass(frozen=True, eq=False)
class Batch:
    """A block of samples: real inputs paired with exact one-hot targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = _frozen(self.inputs, np.float64)
        targets = _frozen(self.targets, np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ShapeError("batch inputs and targets must be 2-d arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ShapeError(
                f"batch has {inputs.shape[0]} input rows but {targets.shape[0]} target rows"
            )
        if targets.size:
            binary = ((targets == 0.0) | (targets == 1.0)).all()
            if not binary or not (targets.sum(axis=1) == 1.0).all():
                raise ValueError("targets must be one-hot rows (one 1, rest 0)")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Per-solver bookkeeping; adam's moments are flat vectors like ``flatten()``."""

    kind: str
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in SOLVERS:
            raise ConfigError(f"unknown solver {self.kind!r}, expected one of {SOLVERS}")
        if self.step_count < 0:
            raise ConfigError("step_count must be non-negative")
        if self.kind == "adam" and (self.first_moment is None or self.second_moment is None):
            raise ConfigError("adam state requires first and second moments")


def init_optimizer(
    kind: str,
    params: ModelParams,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    """Fresh optimizer state for ``params``; adam moments start at zero."""
    if kind == "sgd":
        return OptimizerState(kind="sgd")
    zeros = np.zeros(params.num_params)
    return OptimizerState(kind, first_moment=zeros, second_moment=zeros.copy(),
                          beta1=beta1, beta2=beta2, epsilon=epsilon)


def init_params(layer_dims, seed: int) -> ModelParams:
    """Seeded fan-in-scaled normal weights (std sqrt(2/fan_in)), zero biases."""
    dims = _check_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(dims, tuple(weights), tuple(biases))


def _check_inputs(params: ModelParams, inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-d, got shape {x.shape}")
    if x.shape[1] != params.layer_dims[0]:
        raise ShapeError(
            f"inputs have {x.shape[1]} columns but the model expects {params.layer_dims[0]}"
        )
    return x


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def forward(params: ModelParams, inputs) -> np.ndarray:
    """Class probabilities, one softmax row per input row."""
    x = _check_inputs(params, inputs)
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return _softmax(h @ params.weights[-1] + params.biases[-1])


def _check_batch(params: ModelParams, batch: Batch) -> np.ndarray:
    """The batch's inputs, once the batch is non-empty and fits the model."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if batch.targets.shape[1] != params.layer_dims[-1]:
        raise ShapeError(
            f"targets have {batch.targets.shape[1]} classes but the model "
            f"outputs {params.layer_dims[-1]}"
        )
    return _check_inputs(params, batch.inputs)


def loss(params: ModelParams, batch: Batch) -> float:
    """Mean softmax cross-entropy; probabilities floored at 1e-12 before log."""
    return evaluate(params, batch)[1]


def _gradient(layers, x, targets, grads) -> None:
    """Write the gradient of the mean cross-entropy into the ``grads`` layer views."""
    (weights, biases), (grad_w, grad_b) = layers, grads
    activations = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    delta = (_softmax(h @ weights[-1] + biases[-1]) - targets) / len(x)
    for layer in reversed(range(len(weights))):
        np.matmul(activations[layer].T, delta, out=grad_w[layer])
        np.sum(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            # ReLU kills the upstream signal wherever the unit was inactive.
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)


def backward(params: ModelParams, batch: Batch) -> ModelParams:
    """Analytic gradient of :func:`loss`, returned with the parameter layout."""
    x = _check_batch(params, batch)
    grad = np.empty(params.num_params)
    _gradient((params.weights, params.biases), x, batch.targets, _views(params.layer_dims, grad))
    return ModelParams.unflatten(params.layer_dims, grad)


def _step(flat: np.ndarray, grad: np.ndarray, state: OptimizerState, t: int, lr: float) -> None:
    """Step ``t`` of the solver, in place on ``flat`` and adam's moment vectors."""
    if state.kind == "sgd":
        flat -= lr * grad
        return
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    m, v = state.first_moment, state.second_moment
    m[:] = b1 * m + (1 - b1) * grad
    v[:] = b2 * v + (1 - b2) * grad * grad
    bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
    flat -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def optimizer_step(
    params: ModelParams,
    grad: ModelParams,
    state: OptimizerState,
    lr: float,
) -> tuple[ModelParams, OptimizerState]:
    """One parameter update; returns the new params and advanced state."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if grad.layer_dims != params.layer_dims:
        raise ShapeError(f"gradient dims {grad.layer_dims} do not match params {params.layer_dims}")
    t = state.step_count + 1
    if state.kind == "adam":
        state = replace(state, first_moment=np.array(state.first_moment, dtype=np.float64),
                        second_moment=np.array(state.second_moment, dtype=np.float64))
    flat = params.flatten()
    _step(flat, grad.vector, state, t, lr)
    return ModelParams.unflatten(params.layer_dims, flat), replace(state, step_count=t)


def train_local(
    params: ModelParams,
    samples: Batch,
    epochs: int,
    batch_size: int,
    lr: float,
    solver: str = "sgd",
    rng_seed: int = 0,
) -> ModelParams:
    """Mini-batch training over ``samples`` for ``epochs`` passes.

    Each epoch reshuffles the sample order with a generator seeded by
    ``rng_seed ^ epoch_index``; a final short batch is trained on rather
    than dropped. The input ``params`` object is never modified. A zero
    learning rate is the identity (every step would subtract zero).
    Training raises ``ValueError`` at the first step that leaves a
    non-finite parameter.
    """
    if len(samples) == 0:
        raise ClientSkip("empty training view")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if lr < 0:
        raise ConfigError(f"learning rate must be non-negative, got {lr}")
    state = init_optimizer(solver, params)
    inputs = _check_batch(params, samples)
    if lr == 0:
        return params

    flat, grad = params.flatten(), np.empty(params.num_params)
    layers, grads = _views(params.layer_dims, flat), _views(params.layer_dims, grad)
    n, t = len(samples), 0
    for epoch in range(epochs):
        order = np.random.default_rng(rng_seed ^ epoch).permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _gradient(layers, inputs[idx], samples.targets[idx], grads)
            t += 1
            _step(flat, grad, state, t, lr)
            if not np.isfinite(flat).all():
                raise ValueError(f"step {t}: non-finite parameter values")
    return ModelParams.unflatten(params.layer_dims, flat)


def predict(params: ModelParams, inputs) -> np.ndarray:
    """Per-row argmax class labels; ties break to the lowest class index."""
    return np.argmax(forward(params, inputs), axis=1)


def evaluate(params: ModelParams, samples: Batch) -> tuple[float, float]:
    """(accuracy, mean loss) of ``params`` over ``samples`` from one forward pass."""
    _check_batch(params, samples)
    probs = forward(params, samples.inputs)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == np.argmax(samples.targets, axis=1)))
    mean_loss = -(samples.targets * np.log(np.maximum(probs, PROB_FLOOR))).sum() / len(samples)
    return accuracy, float(mean_loss)
