"""Property-based laws beside the acceptance criteria: aggregation, partitions, shard
overlap, label masks, lockstep runs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fedsem as fs

from conftest import build_pipeline


def random_params(seed: int, dims=(3, 4, 2)) -> fs.ModelParams:
    rng = np.random.default_rng(seed)
    size = sum(a * b + b for a, b in zip(dims, dims[1:]))
    return fs.ModelParams.unflatten(dims, rng.normal(scale=rng.uniform(0.1, 10.0), size=size))


class TestAggregateLaws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        clients=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 10**6)),
            min_size=1, max_size=8, unique_by=lambda c: c[0],
        ),
        scheme=st.sampled_from(fs.AGGREGATIONS),
    )
    def test_idempotent_on_identical_updates(self, seed, clients, scheme):
        params = random_params(seed)
        updates = [fs.ClientUpdate(cid, params, n) for cid, n in clients]
        assert fs.aggregate(updates, scheme).vector.tobytes() == params.vector.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
        counts=st.lists(st.integers(1, 10**6), min_size=8, max_size=8),
        scheme=st.sampled_from(fs.AGGREGATIONS),
        data=st.data(),
    )
    def test_permutation_byte_identical(self, seeds, counts, scheme, data):
        updates = [
            fs.ClientUpdate(cid, random_params(seed), counts[cid])
            for cid, seed in enumerate(seeds)
        ]
        shuffled = data.draw(st.permutations(updates))
        expected = fs.aggregate(updates, scheme).vector.tobytes()
        assert fs.aggregate(shuffled, scheme).vector.tobytes() == expected


class TestPartitionLaws:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 400),
        k=st.integers(1, 40),
        classes=st.integers(2, 6),
        scheme=st.sampled_from(fs.data.PARTITION_SCHEMES),
        per_client=st.integers(1, 3),
        alpha=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_cover_every_row_disjointly(self, n, k, classes, scheme, per_client, alpha, seed):
        n = max(n, classes, k * per_client)
        dataset = fs.generate_synthetic(n, classes, 2, 2.0, seed=seed)
        spec = fs.PartitionSpec(scheme, k, shards_per_client=per_client, alpha=alpha, seed=seed)
        shards = fs.partition(dataset, spec)
        assert [s.client_id for s in shards] == list(range(k))
        combined = np.concatenate([s.train_indices for s in shards])
        assert combined.size == n
        assert np.array_equal(np.sort(combined), np.arange(n))


# Small values make repeats and overlaps common; the int64 extremes test the search's ends.
indices = st.lists(st.integers(-8, 8) | st.integers(-(2**63), 2**63 - 1), max_size=12)


class TestShardOverlapLaw:
    @settings(max_examples=300, deadline=None)
    @given(train=indices, test=indices)
    def test_rejects_exactly_the_shards_intersect1d_rejects(self, train, test):
        train, test = np.array(train, dtype=np.int64), np.array(test, dtype=np.int64)
        if np.intersect1d(train, test).size:
            with pytest.raises(fs.ConfigError, match="client 3: train and test indices overlap"):
                fs.ClientShard(3, train, test)
        else:
            fs.ClientShard(3, train, test)


class TestMaskLaws:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(6, 300),
        k=st.integers(1, 12),
        scheme=st.sampled_from(fs.data.PARTITION_SCHEMES),
        percent=st.integers(1, 100),
        seed=st.integers(0, 2**16),
    )
    def test_visible_counts(self, n, k, scheme, percent, seed):
        # f = percent / 100, so ceil(f * t) is exact in integers.
        n = max(n, 3 * k)
        dataset = fs.generate_synthetic(n, 3, 2, 2.0, seed=seed)
        spec = fs.PartitionSpec(scheme, k, shards_per_client=2, alpha=0.5, seed=seed)
        shards = fs.partition(dataset, spec)
        assume(min(s.size for s in shards) >= 2)
        shards = fs.split_train_test(shards, seed=seed)
        tests = np.concatenate([s.test_indices for s in shards])
        for mode in fs.data.MASK_MODES:
            masked = fs.mask_labels(dataset, shards, percent / 100, mode, seed=seed)
            shown = [int(masked.label_visible[s.train_indices].sum()) for s in shards]
            if mode == "per_client":
                assert shown == [-(-percent * s.train_indices.size // 100) for s in shards]
            else:
                total = sum(s.train_indices.size for s in shards)
                assert sum(shown) == -(-percent * total // 100)
            assert masked.label_visible[tests].all()


run_spec = st.fixed_dictionaries({
    "data_seed": st.integers(0, 2**16),
    "samples": st.integers(60, 140),
    "clients": st.integers(3, 6),
    "alpha": st.sampled_from([0.3, 1.0]),
    "labeled": st.sampled_from([0.3, 0.6, 1.0]),
    "solver": st.sampled_from(fs.SOLVERS),
    "hidden": st.sampled_from([(5,), (3, 4)]),
    "rounds": st.integers(3, 6),
    "master_seed": st.integers(0, 2**16),
})


def lockstep_run(spec, on_convergence):
    """(config, shards, dataset) of one small two-phase run over ragged Dirichlet views."""
    dataset = fs.generate_synthetic(spec["samples"], 3, 4, 2.0, seed=spec["data_seed"])
    partition = fs.PartitionSpec(
        "dirichlet", spec["clients"], alpha=spec["alpha"], seed=spec["data_seed"]
    )
    # Every client needs a training and a test sample.
    assume(min(s.size for s in fs.partition(dataset, partition)) >= 2)
    masked, shards = build_pipeline(dataset, partition, labeled_fraction=spec["labeled"])
    fed = fs.FederationConfig(
        num_clients=spec["clients"],
        clients_per_round=2,
        rounds=spec["rounds"],
        local_epochs=2,
        learning_rate=0.05 if spec["solver"] == "sgd" else 0.01,
        batch_size=4,
        solver=spec["solver"],
        master_seed=spec["master_seed"],
        hidden_dims=spec["hidden"],
    )
    switch = dict(phase_switch="on_convergence", convergence_window=2, convergence_epsilon=1.0)
    config = fs.FedSemConfig(federation=fed, **(switch if on_convergence else {}))
    return config, shards, masked


class TestLockstepRuns:
    @settings(max_examples=30, deadline=None)
    @given(specs=st.lists(run_spec, min_size=1, max_size=4))
    def test_runs_together_equal_runs_alone(self, specs):
        # The first run converges at once in each phase, so it leaves the stack early.
        runs = [lockstep_run(spec, on_convergence=i == 0) for i, spec in enumerate(specs)]
        solo = [fs.run_fedsem(*run) for run in runs]
        together = fs.run_lockstep([fs.fedsem_run(*run) for run in runs])
        for alone, result in zip(solo, together):
            assert result.model_phase1.vector.tobytes() == alone.model_phase1.vector.tobytes()
            assert result.model_phase2.vector.tobytes() == alone.model_phase2.vector.tobytes()
            assert result.history == alone.history
            assert result.pseudo_label_accuracy == alone.pseudo_label_accuracy
