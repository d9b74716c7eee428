"""Dataset construction, non-IID partitioning, label masking, train/test splits.

The simulator works on one in-memory dataset shared (read-only) by all
simulated clients; each client owns an index set into it. Label
visibility is the privacy fence: training code may only read labels
through ``label_visible``, while hidden labels stay in the array purely
as an evaluation oracle.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, CsvParseError, _choice, _integer, _real
from .seeding import derive_seed

PARTITION_SCHEMES = ("iid", "shards", "dirichlet")
MASK_MODES = ("per_client", "global")
TRAIN_RATIO = 0.8  # each client's share of training samples; the rest is its test set


# Arrays this package made read-only itself, by id. No caller holds a writable
# handle to them, so frozen values share them instead of copying. The values are
# weak: an entry never keeps an array alive and leaves with it.
_OWNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make a fresh array that only this package holds read-only, in place."""
    arr.flags.writeable = False
    _OWNED[id(arr)] = arr
    return arr


def _frozen(arr, dtype, name: str) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array: itself if this package froze it, else a copy.

    An integer or bool copy must keep every value of ``arr``; the field
    ``name`` is reported when it would not.
    """
    if _OWNED.get(id(arr)) is arr and arr.dtype == dtype:
        return arr
    integral = np.dtype(dtype).kind in "biu"
    # NaN and inf have no integer value: numpy would raise or warn on their cast.
    if integral and np.asarray(arr).dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ConfigError(f"{name}: casting to {np.dtype(dtype)} would change some values")
    copy = np.array(arr, dtype=dtype)
    if integral and not np.array_equal(copy, arr):
        raise ConfigError(f"{name}: casting to {copy.dtype} would change some values")
    return _freeze(copy)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, integer labels, and a per-sample visibility mask.

    Hidden labels (``label_visible`` false) are oracle-only ground truth:
    they are retained so pseudo-label quality can be measured, but no
    training path may read them. Validation therefore only range-checks
    the visible entries, which lets fencing tests overwrite hidden ones
    with out-of-range sentinels. ``pseudo_mask`` marks visible labels
    that were filled in by a model rather than observed. A caller's arrays
    are copied; arrays of another frozen value are shared, so ``replace``
    keeps one copy of each unchanged field.
    """

    features: np.ndarray
    labels: np.ndarray
    label_visible: np.ndarray
    num_classes: int
    pseudo_mask: np.ndarray | None = None

    def __post_init__(self):
        features = _frozen(self.features, np.float64, "features")
        labels = _frozen(self.labels, np.int64, "labels")
        visible = _frozen(self.label_visible, bool, "label_visible")
        pseudo = (
            _freeze(np.zeros(labels.shape[0], dtype=bool))
            if self.pseudo_mask is None
            else _frozen(self.pseudo_mask, bool, "pseudo_mask")
        )
        if features.ndim != 2:
            raise ConfigError(f"features must be 2-d, got shape {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,) or visible.shape != (n,) or pseudo.shape != (n,):
            raise ConfigError("labels, label_visible, and pseudo_mask must have one entry per row")
        # NaN reaches both extremes and inf one; two reductions build no mask.
        if not np.isfinite([features.min(initial=0.0), features.max(initial=0.0)]).all():
            raise ConfigError("features contain non-finite values")
        _integer("num_classes", self.num_classes, 2)
        shown = labels[visible]
        if shown.size and (shown.min() < 0 or shown.max() >= self.num_classes):
            raise ConfigError("visible labels must lie in [0, num_classes)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_visible", visible)
        object.__setattr__(self, "pseudo_mask", pseudo)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ClientShard:
    """One client's index set into the Dataset, with its train/test split."""

    client_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray | None = None

    def __post_init__(self):
        train = _frozen(np.atleast_1d(self.train_indices), np.int64, "train_indices")
        test = np.empty(0) if self.test_indices is None else np.atleast_1d(self.test_indices)
        test = _frozen(test, np.int64, "test_indices")
        _integer("client_id", self.client_id, 0)
        # A sorted search, not np.intersect1d: numpy's set routines import numpy.ma.
        if test.size:
            ordered = np.sort(test)
            at = np.searchsorted(ordered, train).clip(max=ordered.size - 1)
            if (ordered[at] == train).any():
                raise ConfigError(f"client {self.client_id}: train and test indices overlap")
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)

    @property
    def size(self) -> int:
        return self.train_indices.size + self.test_indices.size

    @property
    def all_indices(self) -> np.ndarray:
        return np.sort(np.concatenate([self.train_indices, self.test_indices]))


@dataclass(frozen=True)
class PartitionSpec:
    """How to distribute dataset indices across clients."""

    scheme: str
    num_clients: int
    shards_per_client: int | None = None
    alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        _choice("partition scheme", self.scheme, PARTITION_SCHEMES)
        _integer("num_clients", self.num_clients, 1)
        _integer("partition seed", self.seed, 0)
        if self.scheme == "shards" or self.shards_per_client is not None:
            _integer("shards_per_client", self.shards_per_client, 1)
        if self.scheme == "dirichlet" or self.alpha is not None:
            _real("alpha", self.alpha, "(0, inf)")


def generate_synthetic(
    n_samples: int,
    num_classes: int,
    dim: int,
    class_separation: float,
    seed: int,
) -> Dataset:
    """Gaussian blobs: class centers on seeded random unit directions.

    Each center is a random unit vector scaled by ``class_separation``;
    samples get unit-covariance noise. Labels are assigned round-robin,
    so class counts are balanced within one sample.
    """
    _integer("num_classes", num_classes, 2)
    _integer("n_samples", n_samples, 0)
    if n_samples < num_classes:
        raise ConfigError(f"need at least one sample per class ({n_samples} < {num_classes})")
    _integer("dim", dim, 2)
    _real("class_separation", class_separation, "(0, inf)")
    _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    centers *= class_separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.arange(n_samples, dtype=np.int64) % num_classes
    # The noise, plus each row's center in place: labels cycle through the classes.
    features = rng.standard_normal((n_samples, dim))
    whole = n_samples - n_samples % num_classes
    cycles = features[:whole].reshape(-1, num_classes, dim)
    cycles += centers
    features[whole:] += centers[: n_samples - whole]
    return Dataset(
        features=_freeze(features),
        labels=_freeze(labels),
        label_visible=_freeze(np.ones(n_samples, dtype=bool)),
        num_classes=num_classes,
    )


def load_csv(path, num_classes: int, has_header: bool = False) -> Dataset:
    """Read ``f1,...,fd,label`` rows; labels must be integral and in range.

    Skips a UTF-8 byte-order mark, blank lines and, with ``has_header``, the first non-blank one.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if has_header:
                has_header = False
                continue
            if not rows and len(row) < 2:
                raise CsvParseError(line, "rows need at least one feature and a label")
            if rows and len(row) != len(rows[0]) + 1:
                raise CsvParseError(line, f"expected {len(rows[0]) + 1} columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row[:-1]]
            except ValueError:
                raise CsvParseError(line, f"non-numeric feature in row: {row[:-1]}") from None
            if not all(map(math.isfinite, values)):
                raise CsvParseError(line, f"non-finite feature in row: {row[:-1]}")
            label_cell = row[-1].strip()
            try:
                as_float = float(label_cell)
            except ValueError:
                raise CsvParseError(line, f"non-numeric label {label_cell!r}") from None
            if not math.isfinite(as_float) or as_float != int(as_float):
                raise CsvParseError(line, f"label {label_cell!r} is not integral")
            label = int(as_float)
            if not 0 <= label < num_classes:
                raise CsvParseError(
                    line, f"label {label} out of range [0, {num_classes})"
                )
            rows.append(values)
            labels.append(label)
    if not rows:
        raise CsvParseError(1, "no data rows")
    return Dataset(
        features=_freeze(np.array(rows, dtype=np.float64)),
        labels=_freeze(np.array(labels, dtype=np.int64)),
        label_visible=_freeze(np.ones(len(rows), dtype=bool)),
        num_classes=num_classes,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write the headerless CSV form of a dataset; feature reprs round-trip exactly."""
    lines = []
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: a sibling ``.tmp``, then ``os.replace``."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def partition(dataset: Dataset, spec: PartitionSpec) -> list[ClientShard]:
    """Distribute all sample indices across clients per ``spec``.

    Returns shards whose entire allocation sits in ``train_indices``;
    apply :func:`split_train_test` afterwards.
    """
    n = dataset.n_samples
    k = spec.num_clients
    if n < k:
        raise ConfigError(f"cannot split {n} samples across {k} clients")
    rng = np.random.default_rng(spec.seed)

    if spec.scheme == "iid":
        order = rng.permutation(n)
        allocations = [order[i::k] for i in range(k)]
    elif spec.scheme == "shards":
        per_client = spec.shards_per_client
        num_shards = k * per_client
        if n < num_shards:
            raise ConfigError(
                f"shards scheme needs at least {num_shards} samples, got {n}"
            )
        # Stable label sort, then deal whole contiguous shards to clients.
        by_label = np.argsort(dataset.labels, kind="stable")
        chunks = np.array_split(by_label, num_shards)
        dealt = rng.permutation(num_shards)
        allocations = [
            np.concatenate([chunks[s] for s in dealt[i * per_client : (i + 1) * per_client]])
            for i in range(k)
        ]
    else:  # dirichlet
        members, owners = [], []
        for cls in range(dataset.num_classes):
            in_class = np.flatnonzero(dataset.labels == cls)
            if in_class.size == 0:
                continue
            members.append(rng.permutation(in_class))
            shares = rng.dirichlet(np.full(k, float(spec.alpha)))
            cuts = (np.cumsum(shares) * in_class.size).astype(np.int64)[:-1]
            owners.append(np.searchsorted(cuts, np.arange(in_class.size), side="right"))
        # Each client's members in class order, then in permuted order within a
        # class: rebalancing below moves a client's last member.
        owner = np.concatenate(owners)
        sizes = np.bincount(owner, minlength=k)
        by_owner = np.concatenate(members)[np.argsort(owner, kind="stable")]
        allocations = np.split(by_owner, np.cumsum(sizes)[:-1])
        # An empty client takes the last member of the largest one until none is empty.
        while sizes.min() == 0:
            donor, needy = int(np.argmax(sizes)), int(np.argmin(sizes))
            allocations[needy] = allocations[donor][-1:]
            allocations[donor] = allocations[donor][:-1]
            sizes[donor] -= 1
            sizes[needy] += 1

    return [
        ClientShard(client_id=i, train_indices=_freeze(np.sort(alloc)))
        for i, alloc in enumerate(allocations)
    ]


def split_train_test(
    shards: list[ClientShard],
    ratio: float = TRAIN_RATIO,
    seed: int = 0,
) -> list[ClientShard]:
    """Per-client seeded shuffle and split; test gets floor((1-ratio)*n), min 1."""
    _real("ratio", ratio, "(0, 1)")
    _integer("seed", seed, 0)
    out = []
    for shard in shards:
        allocation = shard.all_indices
        n = allocation.size
        if n < 2:
            raise ConfigError(
                f"client {shard.client_id} holds {n} sample(s); cannot split for evaluation"
            )
        rng = np.random.default_rng(derive_seed(seed, shard.client_id))
        order = rng.permutation(allocation)
        # The 1e-9 nudge keeps exact fractions (0.2 * 10) from flooring low.
        n_test = int(np.floor((1.0 - ratio) * n + 1e-9))
        n_test = min(max(1, n_test), n - 1)
        out.append(
            ClientShard(
                client_id=shard.client_id,
                train_indices=_freeze(np.sort(order[n_test:])),
                test_indices=_freeze(np.sort(order[:n_test])),
            )
        )
    return out


def mask_labels(
    dataset: Dataset,
    shards: list[ClientShard],
    labeled_fraction: float,
    mode: str = "per_client",
    seed: int = 0,
) -> Dataset:
    """Hide all but a seeded fraction of the training labels.

    ``per_client`` keeps ceil(fraction * |train|) labels visible within
    each client's training indices; ``global`` makes one choice over the
    union of all training indices. Test labels always remain visible:
    they serve evaluation only and are never trained on.
    """
    _real("labeled_fraction", labeled_fraction, "(0, 1]")
    _choice("mask mode", mode, MASK_MODES)
    _integer("seed", seed, 0)
    visible = np.array(dataset.label_visible, copy=True)

    def keep(rng: np.random.Generator, train: np.ndarray) -> None:
        n_keep = int(np.ceil(labeled_fraction * train.size - 1e-9))
        chosen = rng.choice(train, size=n_keep, replace=False)
        visible[train] = False
        visible[chosen] = True

    if mode == "per_client":
        for shard in shards:
            keep(np.random.default_rng(derive_seed(seed, shard.client_id)), shard.train_indices)
    elif shards:  # global: over no shards, as per client, nothing is hidden
        all_train = np.sort(np.concatenate([s.train_indices for s in shards]))
        keep(np.random.default_rng(derive_seed(seed)), all_train)
    return replace(dataset, label_visible=_freeze(visible))


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Row j carries a single 1 at column labels[j]."""
    _integer("num_classes", num_classes, 1)
    arr = np.asarray(labels)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return np.eye(num_classes, dtype=np.float64)[arr]
