"""From-scratch dense softmax classifier with SGD and Adam local solvers.

This is the training engine every simulated client runs: a multilayer
perceptron (ReLU hidden layers, softmax output) with exact analytic
gradients of the mean cross-entropy loss. Values are immutable at the API:
parameters are one read-only flat vector, and no call writes to its
caller's arrays. Kernels work in place only in buffers they allocate per call;
:func:`forward` runs in row blocks and gathers each block's rows into one buffer, so
inference holds one block per layer, and :func:`evaluate` scores dataset rows in place.
Values are validated where they enter and leave the API, not per step:
:func:`train_local` checks only that its private vectors stay finite.

:func:`train_local` trains a cohort, the clients of one federated round
or of several runs' rounds, in lockstep: each client has its own start
model, and each step runs the forward, gradient and solver kernels over
chunks of up to :data:`STACK_CLIENTS` clients' stacked mini-batches and
``(C, P)`` parameter rows, with results bit-identical to training each
client alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._blas import halves
from .data import _freeze, _frozen
from .errors import ConfigError, ShapeError, TrainingDivergence, _choice, _integer, _real

PROB_FLOOR = 1e-12
SOLVERS = ("sgd", "adam")
ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8
BLOCK_ROWS = 4096  # fewest rows per forward block; see _block_rows
# Clients per lockstep kernel call past which stacking more saves no time.
STACK_CLIENTS = 10


def _check_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in _frozen(layer_dims, np.int64, "layer_dims"))
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must list >= 2 positive sizes, got {dims}")
    return dims


def _views(dims, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (weights, biases) views into vectors in the ``flatten`` layout.

    ``flat`` is one vector, or a ``(C, P)`` stack of them; then the views are
    stacked too, and each bias gets a row axis, ``(C, 1, d)``, to broadcast
    over a ``(C, rows, d)`` batch.
    """
    lead = flat.shape[:-1]
    weights, biases, offset = [], [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        weights.append(flat[..., offset : offset + din * dout].reshape(*lead, din, dout))
        offset += din * dout
        bias = flat[..., offset : offset + dout]
        biases.append(bias[..., None, :] if lead else bias)
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
        """Check and freeze ``flat``, then expose it through per-layer views."""
        expected = sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))
        if flat.size != expected:
            raise ShapeError(f"flat vector has {flat.size} entries, expected {expected}")
        _freeze(flat)
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
        """Parameters over a flat vector; inverse of :meth:`flatten`.

        A vector this package froze is adopted as it is; any other is copied.
        """
        params = object.__new__(cls)
        params._own(_check_dims(layer_dims), _frozen(vector, np.float64, "vector").ravel())
        return params


@dataclass(frozen=True, eq=False)
class Batch:
    """A block of samples: real inputs paired with exact one-hot targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = _frozen(self.inputs, np.float64, "inputs")
        targets = _frozen(self.targets, np.float64, "targets")
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ShapeError("batch inputs and targets must be 2-d arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ShapeError(
                f"batch has {inputs.shape[0]} input rows but {targets.shape[0]} target rows"
            )
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

    def __post_init__(self):
        _choice("solver", self.kind, SOLVERS)
        _integer("step_count", self.step_count, 0)
        if self.kind == "adam" and (self.first_moment is None or self.second_moment is None):
            raise ConfigError("adam state requires first and second moments")


def init_optimizer(kind: str, params: ModelParams) -> OptimizerState:
    """Fresh optimizer state for ``params``; adam moments start at zero."""
    if kind == "sgd":
        return OptimizerState(kind="sgd")
    zeros = np.zeros(params.num_params)
    return OptimizerState(kind, first_moment=zeros, second_moment=zeros.copy())


def init_params(layer_dims, seed: int) -> ModelParams:
    """Seeded fan-in-scaled normal weights (std sqrt(2/fan_in)), zero biases."""
    dims = _check_dims(layer_dims)
    _integer("seed", seed, 0)
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


def _block_rows(dims) -> int:
    """Rows per :func:`forward` block; >= 2**21 products per gemm avoid OpenBLAS's small kernel."""
    return max(BLOCK_ROWS, -(-(2**21) // min(a * b for a, b in zip(dims, dims[1:]))))


def _forward(layers, x: np.ndarray, outs) -> np.ndarray:
    """Softmax probabilities of ``x``; layer ``l`` writes its output into the l-th of ``outs``.

    ``x`` is ``(rows, d)`` for one parameter vector or ``(C, rows, d)`` for stacked ones.
    """
    weights, biases = layers
    h = x
    for layer, (w, b, z) in enumerate(zip(weights, biases, outs)):
        h = np.matmul(h, w, out=z)
        h += b
        if layer < len(weights) - 1:
            np.maximum(h, 0.0, out=h)
    h -= np.maximum.reduce(h, axis=-1, keepdims=True)
    np.exp(h, out=h)
    h /= np.add.reduce(h, axis=-1, keepdims=True)
    return h


def _each_block(params: ModelParams, x: np.ndarray, rows: np.ndarray, consume) -> None:
    """Call ``consume(block, probs)`` with each block of ``forward``'s softmax rows.

    ``x`` and ``rows`` are as :func:`forward` checks them. ``block`` is a
    slice of ``rows``, and ``probs`` one buffer that the next block
    overwrites. Each block gathers its input rows into one buffer, and the
    layers run over blocks of :func:`_block_rows` rows in one buffer per
    layer. The last block ends at the last row, overlapping the one before
    it, so every gemm has the same row count. With more than one block, each
    is two row halves, the second on a thread :func:`fedsem._blas.halves`
    starts for it; ``consume`` runs once both have finished.
    """
    dims, n = params.layer_dims, len(rows)
    size = min(n, _block_rows(dims))
    outs = [np.empty((size, d)) for d in dims[1:]]
    gathered = np.empty((size, dims[0]))

    def run(begin: int, lo: int, hi: int) -> None:
        # On rows in [-len(x), len(x)) "wrap" equals indexing and, unlike "raise", needs no copy.
        np.take(x, rows[begin + lo : begin + hi], axis=0, out=gathered[lo:hi], mode="wrap")
        _forward((params.weights, params.biases), gathered[lo:hi], [z[lo:hi] for z in outs])

    for start in range(0, n, size or 1):
        begin = min(start, n - size)
        if n > size:
            halves(partial(run, begin, 0, size // 2), partial(run, begin, size // 2, size))
        else:
            run(begin, 0, size)
        consume(slice(begin, begin + size), outs[-1])


def forward(params: ModelParams, inputs, rows=None) -> np.ndarray:
    """Class probabilities, one softmax row per entry of ``rows`` (default: every input row).

    ``rows``, a 1-d integer index array, selects input rows: the result equals
    ``forward(params, inputs[rows])`` without copying the selected rows at once.
    The layers run in row blocks, so the work buffers hold one block.
    """
    x = _check_inputs(params, inputs)
    rows = np.arange(len(x)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
        raise ShapeError(f"rows must be 1-d integer indices, got {rows.dtype} {rows.shape}")
    if rows.size and (rows.min() < -len(x) or rows.max() >= len(x)):
        raise IndexError(f"rows must lie in [{-len(x)}, {len(x)})")
    probs = np.empty((len(rows), params.layer_dims[-1]))
    _each_block(params, x, rows, probs.__setitem__)
    return probs


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


def _check_dataset(params: ModelParams, dataset) -> np.ndarray:
    """The dataset's features, once its class count and width fit the model."""
    if dataset.num_classes != params.layer_dims[-1]:
        raise ShapeError(
            f"dataset has {dataset.num_classes} classes but the model outputs "
            f"{params.layer_dims[-1]}"
        )
    return _check_inputs(params, dataset.features)


def loss(params: ModelParams, batch: Batch) -> float:
    """Mean softmax cross-entropy; probabilities floored at 1e-12 before log."""
    return evaluate(params, batch)[1]


def _gradient(layers, x, targets, grads) -> None:
    """Write the mean cross-entropy gradient into the ``grads`` views; layer outputs are fresh.

    Every array is stacked: ``x`` is ``(C, rows, d)``, one batch per parameter
    vector, and ``grads`` are :func:`_views` of a ``(C, P)`` array.
    """
    (weights, _), (grad_w, grad_b) = layers, grads
    outs = [np.empty((*x.shape[:-1], w.shape[-1])) for w in weights]
    delta = _forward(layers, x, outs)
    delta -= targets
    delta /= x.shape[-2]
    activations = [x, *outs[:-1]]
    for layer in reversed(range(len(weights))):
        np.matmul(activations[layer].swapaxes(-1, -2), delta, out=grad_w[layer])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grad_b[layer])
        if layer > 0:
            # ReLU masks the upstream delta, which overwrites this layer's input buffer.
            active = activations[layer] > 0.0
            delta = np.matmul(delta, weights[layer].swapaxes(-1, -2), out=activations[layer])
            delta *= active


def backward(params: ModelParams, batch: Batch) -> ModelParams:
    """Analytic gradient of :func:`loss`, returned with the parameter layout."""
    x = _check_batch(params, batch)
    dims, grad = params.layer_dims, np.empty((1, params.num_params))
    layers = _views(dims, params.vector[None])
    _gradient(layers, x[None], batch.targets[None], _views(dims, grad))
    return ModelParams.unflatten(dims, _freeze(grad))


def _step(flat, grad, moments, t: int, lr: float, scratch) -> None:
    """Step ``t`` of the solver, in place on ``flat``, the moments and ``scratch``.

    ``moments`` is None for sgd and adam's ``(m, v)``; ``scratch`` holds
    arrays shaped like ``flat``, one for sgd and two for adam. The arrays may
    be ``(C, P)`` stacks: every operation is elementwise. Adam keeps the
    operand order of ``flat -= lr * (m/bias1) / (sqrt(v/bias2) + eps)``.
    """
    if moments is None:
        flat -= np.multiply(grad, lr, out=scratch[0])
        return
    s, r = scratch
    (b1, b2), eps = ADAM_BETAS, ADAM_EPSILON
    m, v = moments
    m *= b1
    m += np.multiply(grad, 1 - b1, out=s)
    v *= b2
    v += np.multiply(np.multiply(grad, 1 - b2, out=s), grad, out=s)
    np.multiply(np.divide(m, 1.0 - b1**t, out=s), lr, out=s)
    np.sqrt(np.divide(v, 1.0 - b2**t, out=r), out=r)
    r += eps
    flat -= np.divide(s, r, out=s)


def optimizer_step(
    params: ModelParams,
    grad: ModelParams,
    state: OptimizerState,
    lr: float,
) -> tuple[ModelParams, OptimizerState]:
    """One parameter update; returns the new params and advanced state."""
    _real("lr", lr, "(0, inf)")
    if grad.layer_dims != params.layer_dims:
        raise ShapeError(f"gradient dims {grad.layer_dims} do not match params {params.layer_dims}")
    t = state.step_count + 1
    moments = None
    if state.kind == "adam":
        moments = (np.array(state.first_moment, dtype=np.float64),
                   np.array(state.second_moment, dtype=np.float64))
        state = replace(state, first_moment=moments[0], second_moment=moments[1])
    flat = params.flatten()
    _step(flat, grad.vector, moments, t, lr, np.empty((2, flat.size)))
    return ModelParams.unflatten(params.layer_dims, _freeze(flat)), replace(state, step_count=t)


def train_local(
    params: ModelParams | Sequence[ModelParams],
    samples: Batch,
    epochs: int,
    batch_size: int,
    lr: float,
    solver: str = "sgd",
    rng_seed: int | Sequence[int] = 0,
    sizes: Sequence[int] | None = None,
) -> ModelParams | tuple[ModelParams, ...]:
    """Mini-batch training over ``samples`` for ``epochs`` passes.

    Each epoch reshuffles the sample order with a generator seeded by
    ``rng_seed ^ epoch_index``; a final short batch is trained on rather
    than dropped. The input ``params`` object is never modified.
    Training raises :class:`TrainingDivergence`, a ``ValueError``, without
    numpy warnings, at the first step that leaves a non-finite parameter.

    Cohort form: with ``sizes``, ``samples`` holds the rows of C clients
    back to back, ``sizes[i]`` rows for client ``i``, and ``rng_seed`` holds
    one seed per client. ``params`` is the model every client starts from,
    or a sequence of C start models, one per client. Each client trains
    from its start exactly as a call with its own model, rows and seed
    would, and the results come back as a tuple in client order. The
    clients train in lockstep: parameters, gradients and adam moments are
    ``(C, P)`` arrays, and each step runs the kernels over the stacked
    ``(C, rows, d)`` mini-batches. Clients are
    sorted by size inside the call, so those still training are a prefix of
    the stack. The stack is cut into chunks of :data:`STACK_CLIENTS`
    clients, and each step runs the gradient once per contiguous run of a
    chunk's clients whose batches have equal rows, then steps the chunk; the
    gradient and solver scratch hold one chunk, the layer outputs one such run. A
    diverging cohort reports its earliest bad step and the first client
    that diverged at it. One client is the same code with ``C = 1``.
    """
    cohort = sizes is not None
    sizes = [_integer("sizes", s, 0) for s in sizes] if cohort else [len(samples)]
    seeds = list(rng_seed) if cohort and np.ndim(rng_seed) else [rng_seed]
    seeds = [_integer("rng_seed", s, 0) for s in seeds]
    starts = [params] * len(sizes) if isinstance(params, ModelParams) else list(params)
    if not sizes or min(sizes) < 1:
        raise ValueError("every client needs at least one training sample")
    if len(seeds) != len(sizes):
        raise ConfigError(f"need one seed per client: {len(seeds)} seeds, {len(sizes)} clients")
    if len(starts) != len(sizes):
        raise ConfigError(f"need one start model per client: {len(starts)} for {len(sizes)}")
    if any(p.layer_dims != starts[0].layer_dims for p in starts):
        raise ShapeError("every start model of a cohort needs the same layer_dims")
    if sum(sizes) != len(samples):
        raise ShapeError(f"client sizes sum to {sum(sizes)}, but the batch has {len(samples)} rows")
    _integer("epochs", epochs, 1)
    _integer("batch_size", batch_size, 1)
    _real("lr", lr, "(0, inf)")
    _choice("solver", solver, SOLVERS)
    inputs = _check_batch(starts[0], samples)
    trained = _lockstep(
        starts, inputs, samples.targets, sizes, seeds, epochs, batch_size, lr, solver
    )
    return tuple(trained) if cohort else trained[0]


def _lockstep(models, inputs, targets, sizes, seeds, epochs, batch_size, lr, solver) -> list:
    """The trained parameters of each client of :func:`train_local`'s cohort, in client order."""
    dims, count = models[0].layer_dims, len(sizes)
    # Longest schedule first: the clients still training at any step are a prefix.
    rank = sorted(range(count), key=lambda i: -sizes[i])
    n = np.array([sizes[i] for i in rank])
    first = np.cumsum([0, *sizes])[rank]  # each client's first row in ``inputs``
    batches = -(-n // batch_size)
    # Each client's shuffled row order for every epoch, as rows of ``inputs``, epoch after epoch.
    order = np.concatenate([
        first[i] + np.random.default_rng(seeds[rank[i]] ^ e).permutation(int(n[i]))
        for i in range(count) for e in range(epochs)
    ])
    # The schedule, client by step: batch rows (0 once done) and first slot in ``order``.
    tick = np.arange(epochs * batches[0])
    epoch, within = tick // batches[:, None], tick % batches[:, None] * batch_size
    rows = np.where(epoch < epochs, np.minimum(batch_size, n[:, None] - within), 0)
    starts = epochs * np.cumsum([0, *n[:-1]])[:, None] + epoch * n[:, None] + within
    live = np.count_nonzero(rows, axis=0).tolist()
    # Each step's pieces, by first client: runs of clients with equal batch rows, cut into
    # the chunks [0, S), [S, 2S), ... of S = STACK_CLIENTS clients. Each is one kernel call.
    cut = np.ones(rows.shape, dtype=bool)
    cut[1:] = rows[1:] != rows[:-1]
    cut[::STACK_CLIENTS] = True
    cut &= rows > 0
    runs = [[] for _ in tick]
    for i, k in zip(*(a.tolist() for a in np.nonzero(cut))):
        runs[k].append(i)

    flat = np.stack([models[c].vector for c in rank])
    # Gradients and solver scratch hold one chunk; adam's moments hold every client.
    chunk = min(count, STACK_CLIENTS)
    grad = np.empty((chunk, flat.shape[1]))
    layers, grads = _views(dims, flat), _views(dims, grad)
    moments = (np.zeros_like(flat), np.zeros_like(flat)) if solver == "adam" else None
    # Sgd scales the gradient in place; adam needs two arrays of its own.
    scratch = grad[None] if moments is None else np.empty((2, *grad.shape))
    arange = np.arange(min(batch_size, int(n[0])))
    # A diverging step is reported by the finiteness check, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (alive, edges) in enumerate(zip(live, runs)):
            for a, b in zip(edges, [*edges[1:], alive]):
                r, c = rows[a, k], a - a % STACK_CLIENTS  # c: the chunk's first client
                picked = order[starts[a:b, k, None] + arange[:r]]
                piece_grads = _slice(grads, a - c, b - c)
                _gradient(_slice(layers, a, b), inputs[picked], targets[picked], piece_grads)
                if b == alive or b % STACK_CLIENTS == 0:  # the chunk's last piece: step it
                    step_moments = None if moments is None else tuple(m[c:b] for m in moments)
                    _step(flat[c:b], grad[: b - c], step_moments, k + 1, lr, scratch[:, : b - c])
            if not np.isfinite(flat[:alive]).all():
                bad = np.flatnonzero(~np.isfinite(flat[:alive]).all(axis=1))
                raise TrainingDivergence(k + 1, min(rank[i] for i in bad))
    # The results are rows of ``flat``: no copy, and no hole left where it was.
    trained = [None] * count
    for i, client in enumerate(rank):
        trained[client] = ModelParams.unflatten(dims, _freeze(flat[i]))
    return trained


def _slice(views, a: int, b: int):
    """Clients ``a`` to ``b`` of stacked per-layer views."""
    return tuple(tuple(v[a:b] for v in group) for group in views)


def predict(params: ModelParams, inputs) -> np.ndarray:
    """Per-row argmax class labels; ties break to the lowest class index."""
    return np.argmax(forward(params, inputs), axis=1)


def evaluate(params: ModelParams, samples, rows=None) -> tuple[float, float]:
    """(accuracy, mean loss) of ``params`` from one forward pass.

    ``samples`` is a :class:`Batch`, or, with ``rows``, a :class:`~fedsem.data.Dataset`
    that :func:`_check_dataset` passes, whose rows ``rows`` are scored in place against
    the labels stored there. A batch is scored the same way, against the argmax of its
    one-hot targets.
    """
    classes = params.layer_dims[-1]
    if rows is None:
        _check_batch(params, samples)
        probs, labels = forward(params, samples.inputs), np.argmax(samples.targets, axis=1)
    else:
        probs, labels = forward(params, _check_dataset(params, samples), rows), samples.labels[rows]
        if not labels.size:
            raise ValueError("rows must be non-empty")
        if labels.min() < 0 or labels.max() >= classes:
            raise ValueError(f"scored labels must lie in [0, {classes})")
    accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
    np.log(np.maximum(probs, PROB_FLOOR, out=probs), out=probs)
    # A bool mask multiplies as exactly 1.0 and 0.0, as a one-hot target row does.
    probs *= labels[:, None] == np.arange(classes)
    return accuracy, float(-probs.sum() / len(labels))
