"""Classifier core: initialization, forward/loss/backward, solvers, training."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fedsem as fs
from fedsem.errors import ConfigError, ShapeError
from fedsem.model import STACK_CLIENTS, _block_rows

from conftest import finite_difference_gradient, params_equal, random_model_and_batch

# Frozen from the seeded generator; target scale is sqrt(2/4).
INIT_STD_4_8_3_SEED1 = 0.641861240862249


def zero_params(layer_dims):
    dims = tuple(layer_dims)
    return fs.ModelParams.unflatten(dims, np.zeros(fs.init_params(dims, 0).num_params))


class TestInitParams:
    def test_biases_exactly_zero(self):
        params = fs.init_params([4, 3], seed=7)
        assert all((b == 0.0).all() for b in params.biases)

    def test_deterministic(self):
        a = fs.init_params([4, 3], seed=7)
        b = fs.init_params([4, 3], seed=7)
        assert params_equal(a, b)

    def test_weight_scale_regression(self):
        params = fs.init_params([4, 8, 3], seed=1)
        std = float(np.std(params.weights[0]))
        assert std == pytest.approx(INIT_STD_4_8_3_SEED1, abs=1e-12)
        assert abs(std - math.sqrt(2 / 4)) <= 0.3 * math.sqrt(2 / 4)

    @pytest.mark.parametrize("dims", [[], [4], [4, 0], [0, 3], [4, -1, 3]])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ConfigError):
            fs.init_params(dims, seed=0)


class TestForward:
    def test_zero_params_uniform(self):
        params = zero_params((4, 3))
        probs = fs.forward(params, np.arange(8.0).reshape(2, 4))
        np.testing.assert_allclose(probs, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_single_layer_closed_form(self):
        params = fs.ModelParams((2, 2), (np.eye(2),), (np.zeros(2),))
        probs = fs.forward(params, np.array([[1.0, 0.0]]))
        e = math.e
        np.testing.assert_allclose(probs, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)

    def test_empty_input(self):
        params = fs.init_params([4, 3], seed=0)
        assert fs.forward(params, np.zeros((0, 4))).shape == (0, 3)

    def test_rows_are_distributions(self):
        for seed in range(5):
            params, batch = random_model_and_batch(seed)
            probs = fs.forward(params, batch.inputs)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert (probs > 0).all() and (probs < 1).all()

    def test_shape_mismatch(self):
        params = fs.init_params([4, 3], seed=0)
        with pytest.raises(ShapeError):
            fs.forward(params, np.zeros((2, 5)))


class TestLoss:
    def test_uniform_prediction_is_ln_c(self):
        params = zero_params((5, 4))
        rng = np.random.default_rng(0)
        batch = fs.Batch(rng.normal(size=(6, 5)), fs.one_hot(rng.integers(0, 4, 6), 4))
        assert fs.loss(params, batch) == pytest.approx(math.log(4), abs=1e-9)

    def test_perfect_prediction_near_zero(self):
        params = fs.ModelParams((2, 2), (np.array([[40.0, -40.0], [0.0, 0.0]]),), (np.zeros(2),))
        batch = fs.Batch(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert fs.loss(params, batch) <= 1e-6

    def test_hand_computed_single_sample(self):
        w = np.array([[0.2, -0.1, 0.4], [0.3, 0.5, -0.2]])
        b = np.array([0.1, -0.3, 0.05])
        params = fs.ModelParams((2, 3), (w,), (b,))
        x = np.array([1.5, -2.0])
        logits = x @ w + b
        probs = np.exp(logits) / np.exp(logits).sum()
        expected = -math.log(probs[2])
        batch = fs.Batch(x[None, :], fs.one_hot([2], 3))
        assert fs.loss(params, batch) == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_rejected(self):
        params = fs.init_params([2, 3], seed=0)
        batch = fs.Batch(np.zeros((0, 2)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            fs.loss(params, batch)

    def test_nonnegative(self):
        for seed in range(5):
            params, batch = random_model_and_batch(seed)
            assert fs.loss(params, batch) >= 0.0


class TestBackward:
    def test_matches_finite_differences(self):
        params, batch = random_model_and_batch(3)
        analytic = fs.backward(params, batch).flatten()
        numeric = finite_difference_gradient(params, batch)
        tol = np.maximum(1e-4, 1e-3 * np.abs(analytic))
        np.testing.assert_array_less(np.abs(numeric - analytic), tol + 1e-18)

    def test_duplication_invariance(self):
        params, batch = random_model_and_batch(5)
        doubled = fs.Batch(
            np.concatenate([batch.inputs, batch.inputs]),
            np.concatenate([batch.targets, batch.targets]),
        )
        np.testing.assert_allclose(
            fs.backward(params, doubled).flatten(),
            fs.backward(params, batch).flatten(),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_symmetric_inputs_zero_bias_gradient(self):
        # Mirrored inputs with opposite labels under a zero model cancel exactly.
        params = zero_params((3, 2))
        x = np.array([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
        batch = fs.Batch(x, fs.one_hot([0, 1], 2))
        grad = fs.backward(params, batch)
        np.testing.assert_array_equal(grad.biases[-1], np.zeros(2))

    def test_target_width_mismatch(self):
        params = fs.init_params([4, 3], seed=0)
        batch = fs.Batch(np.zeros((2, 4)), fs.one_hot([0, 1], 2))
        with pytest.raises(ShapeError):
            fs.backward(params, batch)

    @pytest.mark.parametrize(
        "targets",
        [np.zeros((3, 0)), np.zeros((2, 2)), np.ones((2, 2)), np.array([[0.5, 0.5]])],
        ids=["no-columns", "no-one", "two-ones", "soft"],
    )
    def test_targets_must_be_one_hot_rows(self, targets):
        # A row with no columns holds no 1, so it is not one-hot either.
        with pytest.raises(ValueError, match=r"^targets must be one-hot rows \(one 1, rest 0\)$"):
            fs.Batch(np.zeros((targets.shape[0], 4)), targets)


def scalar_params(value: float) -> fs.ModelParams:
    return fs.ModelParams((1, 1), (np.array([[value]]),), (np.array([value]),))


class TestOptimizerStep:
    def test_sgd_definition(self):
        params = scalar_params(1.0)
        grad = scalar_params(0.5)
        state = fs.init_optimizer("sgd", params)
        updated, new_state = fs.optimizer_step(params, grad, state, lr=0.1)
        np.testing.assert_allclose(updated.weights[0], [[0.95]], atol=0)
        assert new_state.step_count == 1

    def test_adam_zero_gradient_is_identity(self):
        params = scalar_params(1.0)
        grad = scalar_params(0.0)
        state = fs.init_optimizer("adam", params)
        updated, new_state = fs.optimizer_step(params, grad, state, lr=0.001)
        assert params_equal(updated, params)
        assert new_state.step_count == 1

    def test_adam_first_step_closed_form(self):
        # One step: m_hat = g, v_hat = g^2, so the move is lr*g/(|g| + eps).
        params = scalar_params(1.0)
        grad = fs.ModelParams((1, 1), (np.array([[0.5]]),), (np.array([0.0]),))
        state = fs.init_optimizer("adam", params)
        updated, _ = fs.optimizer_step(params, grad, state, lr=0.001)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
        assert updated.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)

    def test_adam_matches_reference_over_steps(self):
        rng = np.random.default_rng(9)
        params = fs.init_params([3, 2], seed=9)
        state = fs.init_optimizer("adam", params)
        flat = params.flatten()
        m = np.zeros_like(flat)
        v = np.zeros_like(flat)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 11):
            grad_flat = rng.normal(size=flat.size)
            grad = fs.ModelParams.unflatten(params.layer_dims, grad_flat)
            params, state = fs.optimizer_step(params, grad, state, lr)
            m = b1 * m + (1 - b1) * grad_flat
            v = b2 * v + (1 - b2) * grad_flat**2
            flat = flat - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(params.flatten(), flat, atol=1e-12)
        assert state.step_count == 10

    def test_nonpositive_lr_rejected(self):
        params = scalar_params(1.0)
        state = fs.init_optimizer("sgd", params)
        for lr in (0.0, -0.1):
            with pytest.raises(ConfigError):
                fs.optimizer_step(params, scalar_params(0.5), state, lr=lr)

    def test_gradient_shape_mismatch(self):
        params = fs.init_params([4, 3], seed=0)
        grad = fs.init_params([4, 2], seed=0)
        state = fs.init_optimizer("sgd", params)
        with pytest.raises(ShapeError):
            fs.optimizer_step(params, grad, state, lr=0.1)


class TestTrainLocal:
    def batch(self, seed=0, n=20, dims=(5, 4, 3)):
        rng = np.random.default_rng(seed)
        return fs.Batch(rng.normal(size=(n, dims[0])), fs.one_hot(rng.integers(0, dims[-1], n), dims[-1]))

    def test_full_batch_single_epoch_equals_one_step(self):
        params = fs.init_params([5, 4, 3], seed=2)
        batch = self.batch(seed=2)
        trained = fs.train_local(
            params, batch, epochs=1, batch_size=len(batch), lr=0.1, solver="sgd", rng_seed=11
        )
        grad = fs.backward(params, batch)
        stepped, _ = fs.optimizer_step(params, grad, fs.init_optimizer("sgd", params), lr=0.1)
        np.testing.assert_allclose(trained.flatten(), stepped.flatten(), atol=1e-12)

    def test_deterministic(self):
        params = fs.init_params([5, 4, 3], seed=3)
        batch = self.batch(seed=3)
        kwargs = dict(epochs=4, batch_size=6, lr=0.05, solver="adam", rng_seed=7)
        assert params_equal(
            fs.train_local(params, batch, **kwargs), fs.train_local(params, batch, **kwargs)
        )

    def test_input_params_untouched(self):
        params = fs.init_params([5, 4, 3], seed=4)
        before = params.flatten().tobytes()
        fs.train_local(params, self.batch(seed=4), epochs=2, batch_size=4, lr=0.1, solver="sgd")
        assert params.flatten().tobytes() == before

    def test_empty_view_skips(self):
        params = fs.init_params([5, 4, 3], seed=5)
        empty = fs.Batch(np.zeros((0, 5)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="at least one training sample"):
            fs.train_local(params, empty, epochs=1, batch_size=4, lr=0.1)

    def test_divergence_raises(self):
        params = fs.init_params([5, 4, 3], seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                fs.train_local(
                    params, self.batch(seed=7), epochs=50, batch_size=4, lr=1e3, solver="sgd"
                )

    def test_batch_larger_than_view_is_full_batch(self):
        params = fs.init_params([5, 4, 3], seed=8)
        batch = self.batch(seed=8, n=7)
        huge = fs.train_local(params, batch, epochs=2, batch_size=10**12, lr=0.1, rng_seed=3)
        full = fs.train_local(params, batch, epochs=2, batch_size=7, lr=0.1, rng_seed=3)
        assert huge.flatten().tobytes() == full.flatten().tobytes()

    def test_keeps_last_short_batch(self):
        # 5 samples at batch size 4 must take two steps, not one.
        params = fs.init_params([5, 4, 3], seed=6)
        batch = self.batch(seed=6, n=5)
        two_step = fs.train_local(params, batch, epochs=1, batch_size=4, lr=0.1, solver="sgd", rng_seed=0)
        one_step = fs.train_local(params, batch, epochs=1, batch_size=5, lr=0.1, solver="sgd", rng_seed=0)
        assert not params_equal(two_step, one_step)


class TestPredictEvaluate:
    def test_zero_model_predicts_class_zero(self):
        params = zero_params((4, 3))
        labels = fs.predict(params, np.random.default_rng(0).normal(size=(10, 4)))
        assert (labels == 0).all()

    def test_argmax_of_given_probabilities(self):
        # Identity single layer turns log-probabilities back into those probabilities.
        params = fs.ModelParams((3, 3), (np.eye(3),), (np.zeros(3),))
        x = np.log(np.array([[0.1, 0.7, 0.2]]))
        assert fs.predict(params, x)[0] == 1

    def test_predict_agrees_with_forward_argmax(self):
        params, _ = random_model_and_batch(8)
        inputs = np.random.default_rng(8).normal(size=(1000, 5))
        probs = fs.forward(params, inputs)
        brute = np.array([int(np.argmax(row)) for row in probs])
        np.testing.assert_array_equal(fs.predict(params, inputs), brute)

    def test_all_correct_accuracy_one(self):
        params = fs.init_params([4, 3], seed=11)
        inputs = np.random.default_rng(11).normal(size=(50, 4))
        labels = fs.predict(params, inputs)
        accuracy, _ = fs.evaluate(params, fs.Batch(inputs, fs.one_hot(labels, 3)))
        assert accuracy == 1.0

    def test_zero_model_accuracy_is_class_zero_frequency(self):
        params = zero_params((6, 4))
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, 400)
        batch = fs.Batch(rng.normal(size=(400, 6)), fs.one_hot(labels, 4))
        accuracy, _ = fs.evaluate(params, batch)
        assert accuracy == float(np.mean(labels == 0))
        assert 0.15 <= accuracy <= 0.35

    def test_mean_loss_matches_per_sample_average(self):
        params, batch = random_model_and_batch(13, batch_rows=16)
        _, mean_loss = fs.evaluate(params, batch)
        per_sample = [
            fs.loss(params, fs.Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1]))
            for i in range(len(batch))
        ]
        assert mean_loss == pytest.approx(float(np.mean(per_sample)), abs=1e-9)

    def test_empty_rejected(self):
        params = fs.init_params([4, 3], seed=0)
        with pytest.raises(ValueError):
            fs.evaluate(params, fs.Batch(np.zeros((0, 4)), np.zeros((0, 3))))

    def test_saturated_rows_score_signed_zeros_alike(self):
        # Logits +-1000 give each row a true-class probability of exactly 1.0, so every
        # loss term is a signed zero: 0.0 on the true class, -0.0 on the floored others.
        weights = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        params = fs.ModelParams((2, 2), (weights,), (np.zeros(2),))
        inputs = np.eye(2)[[0, 1, 1, 0, 1]]
        labels = np.array([0, 1, 1, 0, 1])
        dataset = fs.Dataset(inputs, labels, np.ones(5, dtype=bool), 2)
        rows = np.array([4, 0, 0, 2, 3, 1])
        in_place = fs.evaluate(params, dataset, rows)
        copied = fs.evaluate(params, fs.Batch(inputs[rows], fs.one_hot(labels[rows], 2)))
        assert in_place[0] == 1.0 and np.signbit(in_place[1]) and in_place[1] == 0.0
        assert np.array(in_place).tobytes() == np.array(copied).tobytes()

    def test_row_form_checks(self):
        params = fs.init_params([4, 3], seed=0)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 10)
        labels[7] = 99  # a hidden oracle label out of range
        dataset = fs.Dataset(rng.normal(size=(10, 4)), labels, np.arange(10) != 7, 3)
        with pytest.raises(ValueError, match="non-empty"):
            fs.evaluate(params, dataset, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="labels"):
            fs.evaluate(params, dataset, np.array([1, 7]))
        with pytest.raises(ShapeError, match="classes"):
            fs.evaluate(fs.init_params([4, 5], seed=0), dataset, np.array([1, 2]))
        with pytest.raises(IndexError):
            fs.evaluate(params, dataset, np.array([10]))


class TestFlattenUnflatten:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_exact(self, seed):
        params = fs.init_params([6, 5, 4], seed=seed)
        rebuilt = fs.ModelParams.unflatten(params.layer_dims, params.flatten())
        assert params_equal(rebuilt, params)

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_round_trip_exact(self, seed):
        dims = (3, 7, 2)
        size = fs.init_params(dims, 0).num_params
        vec = np.random.default_rng(seed).normal(size=size)
        np.testing.assert_array_equal(fs.ModelParams.unflatten(dims, vec).flatten(), vec)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            fs.ModelParams.unflatten((3, 2), np.zeros(5))

    def test_non_finite_rejected(self):
        vec = np.zeros(fs.init_params((3, 2), 0).num_params)
        vec[4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fs.ModelParams.unflatten((3, 2), vec)

    def test_adopts_a_parameter_vector(self):
        params = fs.init_params([6, 5, 4], seed=0)
        rebuilt = fs.ModelParams.unflatten(params.layer_dims, params.vector)
        assert np.shares_memory(rebuilt.vector, params.vector)

    def test_copies_a_caller_array(self):
        vec = np.random.default_rng(0).normal(size=fs.init_params((3, 2), 0).num_params)
        params = fs.ModelParams.unflatten((3, 2), vec)
        assert not np.shares_memory(params.vector, vec)
        assert vec.flags.writeable and not params.vector.flags.writeable
        before = vec.copy()
        vec += 1.0
        np.testing.assert_array_equal(params.vector, before)


class TestPurityAndImmutability:
    def test_repeated_calls_bit_identical(self):
        params, batch = random_model_and_batch(21)
        assert fs.forward(params, batch.inputs).tobytes() == fs.forward(params, batch.inputs).tobytes()
        assert fs.loss(params, batch) == fs.loss(params, batch)
        assert params_equal(fs.backward(params, batch), fs.backward(params, batch))

    def test_parameters_are_read_only(self):
        params = fs.init_params([4, 3], seed=0)
        with pytest.raises(ValueError):
            params.weights[0][0, 0] = 1.0

    def test_all_outputs_finite(self):
        params, batch = random_model_and_batch(22)
        trained = fs.train_local(params, batch, epochs=3, batch_size=4, lr=0.5, solver="adam")
        assert np.isfinite(trained.flatten()).all()


def reference_train_local(params, inputs, targets, epochs, batch_size, lr, solver, rng_seed):
    """The per-layer training loop in plain numpy: one array per layer, fresh arrays per step."""
    ws, bs = [w.copy() for w in params.weights], [b.copy() for b in params.biases]
    ms = [np.zeros_like(a) for a in ws + bs]
    vs = [np.zeros_like(a) for a in ws + bs]
    t = 0
    for epoch in range(epochs):
        order = np.random.default_rng(rng_seed ^ epoch).permutation(len(inputs))
        for start in range(0, len(inputs), batch_size):
            idx = order[start : start + batch_size]
            acts = [inputs[idx]]
            for w, b in zip(ws[:-1], bs[:-1]):
                acts.append(np.maximum(acts[-1] @ w + b, 0.0))
            logits = acts[-1] @ ws[-1] + bs[-1]
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            delta = (exp / exp.sum(axis=1, keepdims=True) - targets[idx]) / len(idx)
            gw, gb = [None] * len(ws), [None] * len(ws)
            for layer in reversed(range(len(ws))):
                gw[layer], gb[layer] = acts[layer].T @ delta, delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ ws[layer].T) * (acts[layer] > 0.0)
            t += 1
            new = []
            for i, (p, g) in enumerate(zip(ws + bs, gw + gb)):
                if solver == "sgd":
                    new.append(p - lr * g)
                    continue
                ms[i] = 0.9 * ms[i] + (1 - 0.9) * g
                vs[i] = 0.999 * vs[i] + (1 - 0.999) * g * g
                bias1, bias2 = 1.0 - 0.9**t, 1.0 - 0.999**t
                new.append(p - lr * (ms[i] / bias1) / (np.sqrt(vs[i] / bias2) + 1e-8))
            ws, bs = new[: len(ws)], new[len(ws) :]
    return np.concatenate([a for w, b in zip(ws, bs) for a in (w.ravel(), b)]).tobytes()


class TestFlatKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        dim=st.integers(1, 5),
        classes=st.integers(2, 4),
        n=st.integers(1, 24),
        batch_size=st.integers(1, 10),
        epochs=st.integers(1, 3),
        lr=st.sampled_from([0.01, 0.1, 0.5]),
        solver=st.sampled_from(fs.SOLVERS),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical(self, hidden, dim, classes, n, batch_size, epochs, lr, solver, seed):
        dims = (dim, *hidden, classes)
        params = fs.init_params(dims, seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, n)
        batch = fs.Batch(rng.normal(size=(n, dim)), fs.one_hot(labels, classes))
        trained = fs.train_local(params, batch, epochs, batch_size, lr, solver, rng_seed=seed)
        expected = reference_train_local(
            params, batch.inputs, batch.targets, epochs, batch_size, lr, solver, seed
        )
        assert trained.flatten().tobytes() == expected


def divergence_step(call) -> int | None:
    """The step a diverging ``train_local`` call names, or None if it trains through."""
    try:
        call()
    except ValueError as err:
        return int(re.fullmatch(r"step (\d+): non-finite parameter values", str(err)).group(1))
    return None


class TestCohortMatchesPerClient:
    @settings(max_examples=80, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        dim=st.integers(1, 5),
        classes=st.integers(2, 4),
        clients=st.lists(
            st.tuples(st.integers(1, 24), st.integers(0, 2**16)), min_size=1, max_size=24
        ),
        batch_size=st.integers(1, 10),
        epochs=st.integers(1, 3),
        lr=st.sampled_from([0.01, 0.1, 0.5]),
        solver=st.sampled_from(fs.SOLVERS),
        seed=st.integers(0, 2**16),
        shared_start=st.booleans(),
    )
    @example(
        hidden=[3], dim=2, classes=3, clients=[(9 + i % 5, i) for i in range(23)], batch_size=4,
        epochs=2, lr=0.1, solver="adam", seed=5, shared_start=False,
    )
    def test_bit_identical(
        self, hidden, dim, classes, clients, batch_size, epochs, lr, solver, seed, shared_start
    ):
        # Random sizes give ragged cohorts: clients leave at different steps, and
        # their short last batches differ in length. Past STACK_CLIENTS clients,
        # chunks cut runs of equal batch rows.
        dims = (dim, *hidden, classes)
        starts = [fs.init_params(dims, seed=seed + i) for i in range(len(clients))]
        params = starts[0] if shared_start else starts
        rng = np.random.default_rng(seed)
        batches = [
            fs.Batch(rng.normal(size=(n, dim)), fs.one_hot(rng.integers(0, classes, n), classes))
            for n, _ in clients
        ]
        cohort = fs.Batch(
            np.concatenate([b.inputs for b in batches]),
            np.concatenate([b.targets for b in batches]),
        )
        sizes, seeds = [n for n, _ in clients], [s for _, s in clients]
        trained = fs.train_local(
            params, cohort, epochs, batch_size, lr, solver, rng_seed=seeds, sizes=sizes
        )
        assert isinstance(trained, tuple) and len(trained) == len(clients)
        for i, (batch, client_seed, result) in enumerate(zip(batches, seeds, trained)):
            start = starts[0] if shared_start else starts[i]
            alone = fs.train_local(start, batch, epochs, batch_size, lr, solver, client_seed)
            assert result.flatten().tobytes() == alone.flatten().tobytes()

    def divergence_chunk(self, sizes, loud=None):
        """Check that a diverging cohort names the earliest step and client; return its chunk.

        Client ``loud``'s inputs are 30 times larger than the others'. The chunk
        is the earliest diverging client's, in the cohort's size order.
        """
        params = fs.init_params([5, 4, 3], seed=7)
        seeds = list(range(1, len(sizes) + 1))
        bounds = np.cumsum([0, *sizes])
        scale = np.ones(sum(sizes))
        if loud is not None:
            scale[bounds[loud] : bounds[loud + 1]] = 30.0
        rng = np.random.default_rng(1)
        inputs = 3.0 * scale[:, None] * rng.normal(size=(sum(sizes), 5))
        targets = fs.one_hot(rng.integers(0, 3, sum(sizes)), 3)
        kwargs = dict(epochs=50, batch_size=4, lr=1e3, solver="sgd")
        alone = [
            divergence_step(lambda a=a, b=b, s=s: fs.train_local(
                params, fs.Batch(inputs[a:b], targets[a:b]), rng_seed=s, **kwargs
            ))
            for a, b, s in zip(bounds[:-1], bounds[1:], seeds)
        ]
        diverged = [step for step in alone if step is not None]
        # The first client is not the one that diverges first.
        assert len(diverged) >= 2 and alone[0] != min(diverged)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            together = divergence_step(lambda: fs.train_local(
                params, fs.Batch(inputs, targets), rng_seed=seeds, sizes=sizes, **kwargs
            ))
        assert together == min(diverged)
        with pytest.raises(fs.TrainingDivergence) as caught:
            fs.train_local(params, fs.Batch(inputs, targets), rng_seed=seeds, sizes=sizes, **kwargs)
        assert caught.value.client == alone.index(min(diverged))
        by_size = sorted(range(len(sizes)), key=lambda i: -sizes[i])
        return by_size.index(caught.value.client) // STACK_CLIENTS

    def test_divergence_names_earliest_step(self):
        assert self.divergence_chunk([12, 16, 12]) == 0

    def test_divergence_in_a_later_chunk_names_earliest_step(self):
        # Client 3 is the smallest, so it sits last in the size order, in the second chunk.
        sizes = [16, 15, 14, 6, 16, 15, 14, 13, 16, 15, 14, 13, 12, 16]
        assert self.divergence_chunk(sizes, loud=3) == 1

    def test_memory_bounded_by_chunk(self):
        # Cohort-wide gradient and layer buffers would add 10 MB to the 5 MB of results.
        params = fs.init_params((32, 128, 64, 10), seed=0)
        rng = np.random.default_rng(0)
        batch = fs.Batch(rng.normal(size=(50 * 64, 32)), fs.one_hot(rng.integers(0, 10, 3200), 10))
        tracemalloc.start()
        try:
            fs.train_local(params, batch, 1, 64, 0.05, rng_seed=range(50), sizes=[64] * 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 50 * params.num_params * 8

    def test_start_models_checked(self):
        params, batch = random_model_and_batch(26, batch_rows=6)
        with pytest.raises(ConfigError, match="start model"):
            fs.train_local([params], batch, 1, 4, 0.1, rng_seed=[1, 2], sizes=[2, 4])
        with pytest.raises(ShapeError, match="layer_dims"):
            fs.train_local(
                [params, fs.init_params((5, 3), seed=0)], batch, 1, 4, 0.1,
                rng_seed=[1, 2], sizes=[2, 4],
            )

    @pytest.mark.parametrize(
        "sizes, seeds, error",
        [
            ([3, 3], [1], ConfigError),
            ([3, 2], [1, 2], ShapeError),
            ([6, 0], [1, 2], ValueError),
            ([], [], ValueError),
            ([3, 3], 3, ConfigError),
        ],
    )
    def test_cohort_shape_checked(self, sizes, seeds, error):
        params, batch = random_model_and_batch(24, batch_rows=6)
        with pytest.raises(error):
            fs.train_local(params, batch, 1, 4, 0.1, rng_seed=seeds, sizes=sizes)


def reference_forward(params, inputs):
    """Expression-style forward pass in plain numpy: fresh arrays per layer."""
    h = inputs
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    logits = h @ params.weights[-1] + params.biases[-1]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def assert_inference_matches_reference(params, inputs, labels, threshold, rng):
    """forward, evaluate and pseudo_label equal their plain-numpy expressions bit for bit."""
    rows, classes = inputs.shape[0], params.layer_dims[-1]
    batch = fs.Batch(inputs, fs.one_hot(labels, classes))
    probs = reference_forward(params, batch.inputs)
    assert fs.forward(params, batch.inputs).tobytes() == probs.tobytes()
    # Gathered rows, repeats allowed, below, at and across a block boundary.
    block = _block_rows(params.layer_dims)
    picks = rng.integers(0, rows, rows)
    for count in (rows // 3, block, rows):
        gathered = fs.forward(params, batch.inputs, picks[:count])
        assert gathered.tobytes() == fs.forward(params, batch.inputs[picks[:count]]).tobytes()

    accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
    mean_loss = -(batch.targets * np.log(np.maximum(probs, 1e-12))).sum() / rows
    assert fs.evaluate(params, batch) == (accuracy, float(mean_loss))

    visible = rng.random(rows) < 0.3
    dataset = fs.Dataset(batch.inputs, labels, visible, classes)
    # The row form scores the same rows in place, to the bit.
    for count in (max(1, rows // 3), block, rows):
        picked = picks[:count]
        copied = fs.Batch(batch.inputs[picked], fs.one_hot(labels[picked], classes))
        in_place = fs.evaluate(params, dataset, picked)
        assert np.array(in_place).tobytes() == np.array(fs.evaluate(params, copied)).tobytes()
    hidden_rows = np.flatnonzero(~visible)
    hidden_probs = reference_forward(params, batch.inputs[hidden_rows])
    confident = hidden_probs.max(axis=1) >= threshold
    filled = hidden_rows[confident]
    expected_labels = labels.copy()
    expected_labels[filled] = hidden_probs.argmax(axis=1)[confident]
    labeled = fs.pseudo_label(params, dataset, threshold)
    assert labeled.labels.tobytes() == expected_labels.tobytes()
    assert np.flatnonzero(labeled.pseudo_mask).tolist() == filled.tolist()
    assert np.array_equal(labeled.label_visible, visible | labeled.pseudo_mask)


class TestForwardMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
        dim=st.integers(1, 6),
        classes=st.integers(2, 5),
        rows=st.one_of(st.integers(1, 40), st.sampled_from([257, 1500])),
        scale=st.sampled_from([1.0, 40.0]),
        threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical(self, hidden, dim, classes, rows, scale, threshold, seed):
        # A large input scale saturates the softmax, so the 1e-12 loss floor is hit.
        params = fs.init_params((dim, *hidden, classes), seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, rows)
        inputs = scale * rng.normal(size=(rows, dim))
        assert_inference_matches_reference(params, inputs, labels, threshold, rng)

    # Past one block, forward runs several equal blocks, the last overlapping the one before.
    # Narrow layers such as (32, 2) get large blocks, which keep every gemm off OpenBLAS's
    # small-matrix kernel; a short last block would fall onto it and round differently.
    @settings(max_examples=20, deadline=None)
    @given(
        dims=st.one_of(
            st.sampled_from([(32, 2), (16, 48, 10), (32, 128, 64, 10), (8, 192, 192, 3)]),
            st.lists(st.integers(8, 192), min_size=2, max_size=4),
        ),
        position=st.floats(0.0, 1.0),
        scale=st.sampled_from([1.0, 40.0]),
        threshold=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_bit_identical(self, dims, position, scale, threshold, seed):
        block = _block_rows(dims)
        rows = block + 1 + int(position * (2 * block - 1))  # in (block, 3 * block]
        params = fs.init_params(dims, seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, dims[-1], rows)
        inputs = scale * rng.normal(size=(rows, dims[0]))
        assert_inference_matches_reference(params, inputs, labels, threshold, rng)

    def test_memory_bounded_by_block(self):
        # One unblocked pass over these 80k rows holds 80k x 128 and 80k x 64 buffers: 123 MB.
        params = fs.init_params((32, 128, 64, 10), seed=0)
        inputs = np.random.default_rng(0).normal(size=(80_000, 32))
        tracemalloc.start()
        try:
            fs.forward(params, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pseudo_label_memory_bounded_by_block(self):
        # Copying the 56k hidden rows first would add 14 MB to forward's blocks.
        params = fs.init_params((32, 128, 64, 10), seed=0)
        rng = np.random.default_rng(0)
        dataset = fs.Dataset(
            rng.normal(size=(80_000, 32)), rng.integers(0, 10, 80_000),
            rng.random(80_000) < 0.3, 10,
        )
        tracemalloc.start()
        try:
            fs.pseudo_label(params, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Forward's block buffers take 7.3 MB; a (56k, 10) probability matrix would add 4.5 MB.
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_pseudo_label_streams_blocks(self, threshold):
        # About 9,800 hidden rows are three blocks of 4,370; the large-scale rows
        # saturate, so threshold 1.0 fills some rows and not others.
        params = fs.init_params((16, 48, 10), seed=3)
        rng = np.random.default_rng(3)
        scales = np.where(rng.random(14_000) < 0.5, 1.0, 60.0)
        inputs = rng.normal(size=(14_000, 16)) * scales[:, None]
        labels = rng.integers(0, 10, 14_000)
        dataset = fs.Dataset(inputs, labels, rng.random(14_000) < 0.3, 10)
        hidden = np.flatnonzero(~dataset.label_visible)
        assert hidden.size > 2 * _block_rows(params.layer_dims)
        probs = fs.forward(params, inputs)[hidden]
        confident = probs.max(axis=1) >= threshold
        expected = labels.copy()
        expected[hidden[confident]] = probs.argmax(axis=1)[confident]
        labeled = fs.pseudo_label(params, dataset, threshold)
        assert labeled.labels.tobytes() == expected.tobytes()
        assert np.array_equal(np.flatnonzero(labeled.pseudo_mask), hidden[confident])
        assert confident.any() and (threshold == 0.0 or not confident.all())

    def test_rows_must_be_integer_indices(self):
        params, batch = random_model_and_batch(23, batch_rows=12)
        assert fs.forward(params, batch.inputs, np.array([], dtype=np.int64)).shape == (0, 3)
        for rows in (np.ones(12, dtype=bool), np.zeros((2, 3), dtype=np.int64), [0.5]):
            with pytest.raises(ShapeError, match="rows"):
                fs.forward(params, batch.inputs, rows)
        # Negative rows count from the end, as in indexing; rows out of range raise.
        rows = np.array([-12, -1, 0, 11])
        assert fs.forward(params, batch.inputs, rows).tobytes() == (
            fs.forward(params, batch.inputs[rows]).tobytes()
        )
        for rows in ([0, 12], [-13, 0]):
            with pytest.raises(IndexError, match="rows"):
                fs.forward(params, batch.inputs, rows)

    def test_caller_arrays_untouched(self):
        params, batch = random_model_and_batch(23, batch_rows=12)
        expected = reference_forward(params, batch.inputs).tobytes()
        before = batch.inputs.tobytes()
        read_only = np.array(batch.inputs)
        read_only.flags.writeable = False
        for inputs in (np.array(batch.inputs), read_only):
            assert fs.forward(params, inputs).tobytes() == expected
            assert inputs.tobytes() == before
        targets = np.array(batch.targets)
        targets.flags.writeable = False
        frozen = fs.Batch(read_only, targets)
        fs.evaluate(params, frozen)
        assert read_only.tobytes() == before and targets.tobytes() == batch.targets.tobytes()
        assert frozen.inputs.tobytes() == before and frozen.targets.tobytes() == targets.tobytes()
