"""Dataset generation, CSV ingestion, partitioning, splitting, masking."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import fedsem as fs
from fedsem.data import write_text
from fedsem.errors import ConfigError, CsvParseError

from conftest import canonical_federation


class TestGenerateSynthetic:
    def test_balanced_counts(self):
        ds = fs.generate_synthetic(100, 4, 8, 3.0, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert set(counts.tolist()) == {25}

    def test_balance_within_one_for_uneven_n(self):
        ds = fs.generate_synthetic(103, 4, 8, 3.0, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_nearest_centroid_separable(self):
        ds = fs.generate_synthetic(300, 3, 8, 10.0, seed=1)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        dist = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        accuracy = float(np.mean(dist.argmin(axis=1) == ds.labels))
        assert accuracy >= 0.99

    def test_deterministic(self):
        a = fs.generate_synthetic(50, 3, 4, 2.0, seed=9)
        b = fs.generate_synthetic(50, 3, 4, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_all_labels_visible(self):
        ds = fs.generate_synthetic(30, 3, 4, 2.0, seed=0)
        assert ds.label_visible.all()
        assert not ds.pseudo_mask.any()

    @pytest.mark.parametrize("n", [100, 103])
    def test_equals_centers_plus_noise(self, n):
        ds = fs.generate_synthetic(n, 4, 8, 3.0, seed=5)
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((4, 8))
        centers *= 3.0 / np.linalg.norm(centers, axis=1, keepdims=True)
        expected = centers[np.arange(n) % 4] + rng.standard_normal((n, 8))
        assert ds.features.tobytes() == expected.tobytes()

    def test_memory_is_one_feature_matrix(self):
        # centers[labels] + noise holds two feature-sized arrays at once. A first
        # call imports numpy modules lazily; tracing starts after it.
        fs.generate_synthetic(10, 2, 2, 1.0, seed=0)
        tracemalloc.start()
        try:
            ds = fs.generate_synthetic(20_003, 10, 32, 4.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.features.nbytes

    def test_memory_has_no_feature_sized_mask(self):
        # A finiteness scan of the whole matrix at once adds one bool per value: 1.16x.
        fs.generate_synthetic(10, 2, 2, 1.0, seed=0)
        tracemalloc.start()
        try:
            ds = fs.generate_synthetic(100_000, 10, 32, 4.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * ds.features.nbytes

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_samples=2, num_classes=3, dim=4, class_separation=1.0),
            dict(n_samples=10, num_classes=1, dim=4, class_separation=1.0),
            dict(n_samples=10, num_classes=3, dim=1, class_separation=1.0),
            dict(n_samples=10, num_classes=3, dim=4, class_separation=0.0),
        ],
    )
    def test_degenerate_args_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            fs.generate_synthetic(seed=0, **kwargs)


class TestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.5,-2.0,0\n0.25,3.5,1\n")
        ds = fs.load_csv(path, num_classes=2)
        np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.25, 3.5]])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.label_visible.all()

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f1,f2,label\n1.0,2.0,1\n")
        ds = fs.load_csv(path, num_classes=2, has_header=True)
        assert ds.n_samples == 1

    def test_out_of_range_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for label in ("2", "inf", "-inf", "nan"):
            path.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
            with pytest.raises(CsvParseError, match="line 2"):
                fs.load_csv(path, num_classes=2)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(CsvParseError, match="line 2"):
            fs.load_csv(path, num_classes=2)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        for row in ("1.0,x,0", "1.0,nan,0", "inf,2.0,0", "1.0,-inf,1"):
            path.write_text(row + "\n")
            with pytest.raises(CsvParseError, match="line 1"):
                fs.load_csv(path, num_classes=2)

    def test_non_integral_label(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("1.0,2.0,0.5\n")
        with pytest.raises(CsvParseError, match="integral"):
            fs.load_csv(path, num_classes=2)

    def test_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "floaty.csv"
        path.write_text("1.0,2.0,1.0\n")
        assert fs.load_csv(path, num_classes=2).labels[0] == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            fs.load_csv(path, num_classes=2)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"1.0,2.0,0\r\n3.0,4.0,1\r\n")
        assert fs.load_csv(path, num_classes=2).n_samples == 2

    def test_round_trip(self, tmp_path):
        ds = fs.generate_synthetic(40, 3, 5, 2.0, seed=3)
        path = tmp_path / "round.csv"
        fs.save_csv(ds, path)
        back = fs.load_csv(path, num_classes=3)
        np.testing.assert_allclose(back.features, ds.features, atol=1e-12)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_round_trip_with_header(self, tmp_path):
        ds = fs.generate_synthetic(10, 3, 4, 2.0, seed=4)
        path = tmp_path / "hdr.csv"
        fs.save_csv(ds, path, header=True)
        assert path.read_text().splitlines()[0] == "f1,f2,f3,f4,label"
        back = fs.load_csv(path, num_classes=3, has_header=True)
        np.testing.assert_array_equal(back.labels, ds.labels)


def assert_partition_law(shards, n):
    sizes = [s.size for s in shards]
    combined = np.concatenate([s.all_indices for s in shards])
    assert sum(sizes) == n
    assert np.array_equal(np.sort(combined), np.arange(n))


def dirichlet_reference(labels, num_classes, k, alpha, seed):
    """The list-based Dirichlet split: (sorted allocations, clients rebalanced)."""
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(k)]
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        if members.size == 0:
            continue
        members = rng.permutation(members)
        shares = rng.dirichlet(np.full(k, float(alpha)))
        cuts = (np.cumsum(shares) * members.size).astype(np.int64)[:-1]
        for client, segment in enumerate(np.split(members, cuts)):
            buckets[client].extend(int(i) for i in segment)
    sizes = [len(b) for b in buckets]
    moves = 0
    while min(sizes) == 0:
        donor = int(np.argmax(sizes))
        needy = int(np.argmin(sizes))
        buckets[needy].append(buckets[donor].pop())
        sizes = [len(b) for b in buckets]
        moves += 1
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets], moves


class TestPartition:
    def test_iid_round_robin_sizes(self):
        ds = fs.generate_synthetic(100, 4, 4, 2.0, seed=0)
        shards = fs.partition(ds, fs.PartitionSpec("iid", num_clients=10, seed=0))
        assert [s.train_indices.size for s in shards] == [10] * 10

    def test_shards_limit_distinct_labels(self):
        ds = fs.generate_synthetic(4000, 10, 16, 2.0, seed=42)
        spec = fs.PartitionSpec("shards", num_clients=20, shards_per_client=2, seed=42)
        shards = fs.partition(ds, spec)
        distinct = [len(np.unique(ds.labels[s.train_indices])) for s in shards]
        assert max(distinct) <= 4
        assert np.mean(distinct) < ds.num_classes

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scheme", ["iid", "shards", "dirichlet"])
    def test_partition_law(self, scheme, seed):
        ds = fs.generate_synthetic(203, 5, 4, 2.0, seed=7)
        spec = fs.PartitionSpec(
            scheme, num_clients=8, shards_per_client=2, alpha=0.5, seed=seed
        )
        shards = fs.partition(ds, spec)
        assert_partition_law(shards, 203)

    def test_dirichlet_every_client_nonempty(self):
        ds = fs.generate_synthetic(60, 3, 4, 2.0, seed=1)
        spec = fs.PartitionSpec("dirichlet", num_clients=12, alpha=0.05, seed=3)
        shards = fs.partition(ds, spec)
        assert all(s.train_indices.size >= 1 for s in shards)
        assert_partition_law(shards, 60)

    @pytest.mark.parametrize(
        "n, classes, k, alpha, seed, rebalanced",
        [
            (203, 5, 8, 0.5, 0, False),
            (1000, 10, 50, 0.3, 2, False),
            (500, 7, 9, 5.0, 4, False),
            (60, 3, 12, 0.05, 3, True),
            (300, 10, 200, 0.1, 1, True),
        ],
    )
    def test_dirichlet_matches_list_reference(self, n, classes, k, alpha, seed, rebalanced):
        ds = fs.generate_synthetic(n, classes, 4, 2.0, seed=seed)
        spec = fs.PartitionSpec("dirichlet", num_clients=k, alpha=alpha, seed=seed)
        expected, moves = dirichlet_reference(ds.labels, classes, k, alpha, seed)
        assert (moves > 0) == rebalanced
        shards = fs.partition(ds, spec)
        assert len(shards) == k
        for shard, want in zip(shards, expected):
            np.testing.assert_array_equal(shard.train_indices, want)

    def test_too_few_samples_rejected(self):
        ds = fs.generate_synthetic(6, 3, 4, 2.0, seed=0)
        with pytest.raises(ConfigError):
            fs.partition(ds, fs.PartitionSpec("iid", num_clients=7, seed=0))
        with pytest.raises(ConfigError):
            fs.partition(ds, fs.PartitionSpec("shards", num_clients=3, shards_per_client=3, seed=0))

    def test_deterministic_and_seed_sensitive(self):
        ds = fs.generate_synthetic(100, 4, 4, 2.0, seed=0)
        spec = fs.PartitionSpec("shards", num_clients=5, shards_per_client=2, seed=1)
        again = fs.PartitionSpec("shards", num_clients=5, shards_per_client=2, seed=1)
        other = fs.PartitionSpec("shards", num_clients=5, shards_per_client=2, seed=2)
        a, b, c = fs.partition(ds, spec), fs.partition(ds, again), fs.partition(ds, other)
        assert all(np.array_equal(x.train_indices, y.train_indices) for x, y in zip(a, b))
        assert any(not np.array_equal(x.train_indices, y.train_indices) for x, y in zip(a, c))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            fs.PartitionSpec("bogus", num_clients=3)
        with pytest.raises(ConfigError):
            fs.PartitionSpec("shards", num_clients=3)
        with pytest.raises(ConfigError):
            fs.PartitionSpec("dirichlet", num_clients=3, alpha=0.0)


class TestClientShard:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            fs.ClientShard(client_id=2, train_indices=np.arange(5), test_indices=[4, 7])

    def test_empty_test_set_accepted(self):
        shard = fs.ClientShard(client_id=0, train_indices=[3, 1], test_indices=[])
        assert shard.test_indices.size == 0
        assert shard.size == 2
        np.testing.assert_array_equal(shard.all_indices, [1, 3])


class TestSplitTrainTest:
    def shard_of(self, n, client_id=0):
        return fs.ClientShard(client_id=client_id, train_indices=np.arange(n))

    def test_ten_splits_eight_two(self):
        (shard,) = fs.split_train_test([self.shard_of(10)], seed=0)
        assert shard.train_indices.size == 8
        assert shard.test_indices.size == 2

    def test_five_splits_four_one(self):
        (shard,) = fs.split_train_test([self.shard_of(5)], seed=0)
        assert shard.train_indices.size == 4
        assert shard.test_indices.size == 1

    def test_disjoint_union_across_clients(self):
        ds = fs.generate_synthetic(97, 4, 4, 2.0, seed=0)
        shards = fs.partition(ds, fs.PartitionSpec("iid", num_clients=7, seed=0))
        split = fs.split_train_test(shards, seed=5)
        for before, after in zip(shards, split):
            assert np.array_equal(after.all_indices, before.all_indices)
            assert np.intersect1d(after.train_indices, after.test_indices).size == 0
        assert_partition_law(split, 97)

    def test_singleton_shard_rejected(self):
        with pytest.raises(ConfigError):
            fs.split_train_test([self.shard_of(1)], seed=0)

    def test_ratio_validated(self):
        with pytest.raises(ConfigError):
            fs.split_train_test([self.shard_of(10)], ratio=1.0, seed=0)

    def test_deterministic(self):
        shards = [self.shard_of(20, client_id=3)]
        a = fs.split_train_test(shards, seed=4)[0]
        b = fs.split_train_test(shards, seed=4)[0]
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_shards_keep_the_sorted_indices(self, monkeypatch):
        # A shard holds the index arrays it was built from, not copies of them.
        built, real = [], fs.data.ClientShard

        def spy(**fields):
            built.append((real(**fields), fields))
            return built[-1][0]

        monkeypatch.setattr(fs.data, "ClientShard", spy)
        ds = fs.generate_synthetic(40, 4, 4, 2.0, seed=0)
        fs.split_train_test(fs.partition(ds, fs.PartitionSpec("iid", num_clients=3)), seed=1)
        assert len(built) == 6
        for shard, fields in built:
            for key in fields.keys() - {"client_id"}:
                assert getattr(shard, key) is fields[key]


class TestMaskLabels:
    def pipeline(self, fraction, mode="per_client", seed=0):
        ds = fs.generate_synthetic(200, 4, 4, 2.0, seed=0)
        shards = fs.partition(ds, fs.PartitionSpec("iid", num_clients=10, seed=0))
        shards = fs.split_train_test(shards, seed=0)
        return ds, shards, fs.mask_labels(ds, shards, fraction, mode, seed=seed)

    def test_full_fraction_is_identity(self):
        _, _, masked = self.pipeline(1.0)
        assert masked.label_visible.all()

    def test_exact_visible_count_per_client(self):
        # Each client has 16 train samples; ceil(0.2 * 16) = 4 stay visible.
        _, shards, masked = self.pipeline(0.2)
        for shard in shards:
            assert int(masked.label_visible[shard.train_indices].sum()) == 4

    def test_ten_train_samples_fraction_point_two(self):
        ds = fs.generate_synthetic(24, 2, 4, 2.0, seed=1)
        shards = [
            fs.ClientShard(0, train_indices=np.arange(10), test_indices=np.arange(10, 12)),
            fs.ClientShard(1, train_indices=np.arange(12, 22), test_indices=np.arange(22, 24)),
        ]
        masked = fs.mask_labels(ds, shards, 0.2, seed=0)
        assert int(masked.label_visible[np.arange(10)].sum()) == 2

    def test_every_client_keeps_one_visible(self):
        _, shards, masked = self.pipeline(0.01)
        for shard in shards:
            assert masked.label_visible[shard.train_indices].sum() >= 1

    def test_test_indices_stay_visible(self):
        _, shards, masked = self.pipeline(0.1)
        for shard in shards:
            assert masked.label_visible[shard.test_indices].all()

    def test_global_mode_total_count(self):
        _, shards, masked = self.pipeline(0.3, mode="global")
        total_train = sum(s.train_indices.size for s in shards)
        visible_train = sum(int(masked.label_visible[s.train_indices].sum()) for s in shards)
        assert visible_train == int(np.ceil(0.3 * total_train))

    def test_fraction_bounds(self):
        ds, shards, _ = self.pipeline(0.5)
        for bad in (0.0, 1.2, -0.1):
            with pytest.raises(ConfigError):
                fs.mask_labels(ds, shards, bad)

    def test_original_dataset_untouched(self):
        ds, _, masked = self.pipeline(0.2)
        assert ds.label_visible.all()
        assert not masked.label_visible.all()


class TestDatasetArrays:
    def sample(self, n=30):
        rng = np.random.default_rng(3)
        return rng.normal(size=(n, 4)), rng.integers(0, 3, n), np.ones(n, dtype=bool)

    def test_derived_datasets_share_the_feature_matrix(self):
        ds = fs.generate_synthetic(60, 3, 4, 3.0, seed=1)
        spec = fs.PartitionSpec("iid", num_clients=3, seed=1)
        shards = fs.split_train_test(fs.partition(ds, spec), seed=1)
        masked = fs.mask_labels(ds, shards, 0.5, seed=1)
        labeled = fs.pseudo_label(fs.init_params((4, 3), seed=0), masked)
        assert np.shares_memory(masked.features, ds.features)
        assert np.shares_memory(labeled.features, ds.features)
        assert np.shares_memory(masked.labels, ds.labels)
        assert not np.shares_memory(masked.label_visible, ds.label_visible)
        assert not np.shares_memory(labeled.labels, masked.labels)

    def test_caller_arrays_are_copied(self):
        features, labels, visible = self.sample()
        expected = features.copy()
        read_only_view = features.view()
        read_only_view.flags.writeable = False
        frozen_by_caller = features.copy()
        frozen_by_caller.flags.writeable = False
        built = [
            fs.Dataset(array, labels, visible, 3)
            for array in (features, read_only_view, frozen_by_caller)
        ]
        for ds in built:
            assert not np.shares_memory(ds.features, features)
            assert not np.shares_memory(ds.features, frozen_by_caller)
        features[:] = 7.0
        frozen_by_caller.flags.writeable = True
        frozen_by_caller[:] = 7.0
        for ds in built:
            assert ds.features.tobytes() == expected.tobytes()
            assert not ds.features.flags.writeable

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: fs.Dataset(np.zeros((3, 2)), [0.7, 1.2, 1.9], np.ones(3, bool), 2), "labels"),
            (lambda: fs.Dataset(np.zeros((2, 2)), [0, 1], [1, 2], 2), "label_visible"),
            (lambda: fs.ClientShard(0, np.array([0.5, 2.9]), [1]), "train_indices"),
            (lambda: fs.ClientShard(0, [0, 2], np.array([1.2])), "test_indices"),
        ],
    )
    def test_lossy_integer_and_bool_casts_rejected(self, build, field):
        with pytest.raises(ConfigError, match=field):
            build()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field, build",
        [
            ("hidden_dims", lambda v: canonical_federation(hidden_dims=(float(v),))),
            ("train_indices", lambda v: fs.ClientShard(0, np.array([0.0, v]))),
            ("test_indices", lambda v: fs.ClientShard(0, [0], np.array([v]))),
            ("labels", lambda v: fs.Dataset(np.zeros((2, 2)), np.array([0.0, v]), [1, 1], 2)),
        ],
        ids=["hidden_dims", "train_indices", "test_indices", "labels"],
    )
    def test_non_finite_integer_value_rejected_without_warning(self, field, build, value):
        # NaN and inf have no integer value: a bare cast raises ValueError or
        # OverflowError, or warns "invalid value encountered in cast".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^{field}: casting to int64"):
                build(value)

    def test_exact_integer_and_bool_casts_accepted(self):
        ds = fs.Dataset(np.zeros((2, 2)), [1.0, 0.0], np.array([1, 0]), 2, pseudo_mask=[0.0, 0.0])
        assert ds.labels.tolist() == [1, 0]
        assert ds.label_visible.tolist() == [True, False]
        assert ds.pseudo_mask.tolist() == [False, False]
        assert fs.ClientShard(0, [2.0, 0.0], np.empty(0, dtype=np.float32)).size == 2

    def test_caller_features_with_nan_rejected(self):
        ds = fs.generate_synthetic(60, 3, 4, 3.0, seed=1)
        features = np.array(ds.features)
        features[5, 2] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            dataclasses.replace(ds, features=features)
        with pytest.raises(ConfigError, match="non-finite"):
            fs.Dataset(features, ds.labels, ds.label_visible, 3)

    @pytest.mark.parametrize("row", [0, 4, 5, 9, 10])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_any_scan_block_rejected(self, monkeypatch, row, value):
        # Blocks of 3 rows of 4 values: rows 0-2, 3-5, 6-8 and the partial 9-10.
        monkeypatch.setattr(fs.data, "SCAN_VALUES", 12)
        features, labels, visible = self.sample(n=11)
        fs.Dataset(features, labels, visible, 3)
        features[row, 3] = value
        with pytest.raises(ConfigError, match="non-finite"):
            fs.Dataset(features, labels, visible, 3)

    def test_replace_holds_no_feature_sized_mask(self):
        ds = fs.generate_synthetic(100_000, 10, 32, 4.0, seed=0)
        tracemalloc.start()
        try:
            dataclasses.replace(ds, label_visible=ds.label_visible)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-matrix finiteness mask holds one boolean per feature: 3.2 MB here.
        assert peak < ds.n_samples * ds.dim


class TestOneHot:
    def test_basic(self):
        np.testing.assert_array_equal(fs.one_hot([2], 4), [[0.0, 0.0, 1.0, 0.0]])

    def test_empty(self):
        assert fs.one_hot(np.array([], dtype=np.int64), 4).shape == (0, 4)

    def test_rows_sum_to_one(self):
        labels = np.random.default_rng(0).integers(0, 5, 100)
        assert (fs.one_hot(labels, 5).sum(axis=1) == 1.0).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fs.one_hot([4], 4)
        with pytest.raises(ValueError):
            fs.one_hot([-1], 4)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            fs.one_hot(np.array([0.5]), 4)


class TestWriteText:
    # Every file writer goes through write_text; each writes other bytes for another text.
    WRITERS = {
        "write_text": write_text,
        "save_csv": lambda path, text: fs.save_csv(
            fs.generate_synthetic(len(text), 2, 2, 3.0, seed=0), path
        ),
        "export_history": lambda path, text: fs.export_history(
            [fs.RoundRecord(len(text), "phase1", 0.5, 1.0, (0,))], path
        ),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.txt"
        self.WRITERS[writer](path, "old")
        before = path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            self.WRITERS[writer](path, "newer")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
