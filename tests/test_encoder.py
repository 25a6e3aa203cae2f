"""Encoder tests: forward determinism and range, reverse-mode gradients
against a full finite-difference sweep of every parameter, Adam update
behavior, the alternating training loop, binarization rules, and the
bit-exact checkpoint round trip."""

import copy
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import icshash
from icshash import (
    AdamState,
    ConfigError,
    DataError,
    Dataset,
    EncoderParams,
    LossConfig,
    ParseError,
    SyntheticSpec,
    TrainConfig,
    WeightSolverConfig,
    adam_step,
    assignment_for_labels,
    binarize,
    generate_centers,
    generate_synthetic,
    init_params,
    load_checkpoint,
    loss_gradient_wrt_codes,
    save_checkpoint,
    total_loss,
    train,
)
from icshash.encoder import backward_batch, forward_batch
from icshash.loss import CODE_EPS


def tiny_net(seed=0, sizes=(4, 5, 8)):
    return init_params(sizes, np.random.default_rng(seed))


def loss_of_params(params, x_batch, assignments, weights, cfg):
    codes, _ = forward_batch(params, x_batch)
    return total_loss(codes, assignments, weights, cfg)[0]


def forward_one(params, x):
    """The code of one feature vector, as a one-row batch."""
    codes, _ = forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    assert codes.shape == (1, params.sizes[-1])
    return codes[0]


class TestForward:
    def test_zero_parameters_give_half(self):
        params = EncoderParams(
            [np.zeros((3, 4)), np.zeros((4, 6))],
            [np.zeros(4), np.zeros(6)],
        )
        np.testing.assert_allclose(forward_one(params, np.array([1.0, -2.0, 0.5])), 0.5)

    def test_deterministic_given_seed(self):
        x = np.array([0.3, -1.2, 0.7, 2.0])
        a = forward_one(tiny_net(seed=5), x)
        b = forward_one(tiny_net(seed=5), x)
        np.testing.assert_array_equal(a, b)

    def test_output_strictly_inside_unit_interval(self):
        params = tiny_net(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            code = forward_one(params, rng.normal(scale=50.0, size=4))
            assert np.all(code > 0.0) and np.all(code < 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_one(tiny_net(), np.ones(7))

    def test_a_layer_past_the_float_range_saturates_without_a_warning(self):
        # each output's pre-activation sums terms of one sign, 10 * 1e308
        # or 1e308 in size, so the product overflows to +inf or -inf (an
        # error under the suite's warning filter unless suppressed)
        params = EncoderParams([np.array([[1e308, -1e308], [1e308, -1e308]])], [np.zeros(2)])
        x = np.array([[10.0, 10.0], [-10.0, -1.0], [1.0, 10.0]])
        codes, (_, sig) = forward_batch(params, x)
        np.testing.assert_array_equal(sig, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(codes, np.clip(sig, CODE_EPS, 1.0 - CODE_EPS))
        encoded = icshash.encode_binary(params, x)
        np.testing.assert_array_equal(encoded, binarize(codes))
        np.testing.assert_array_equal(encoded, [[1, -1], [-1, 1], [1, -1]])


class TestBackward:
    def test_matches_finite_differences_over_all_parameters(self):
        rng = np.random.default_rng(3)
        params = tiny_net(seed=4)
        center_set = generate_centers(8, 4, seed=0)
        n = 3
        x = rng.normal(size=(n, 4))
        assignments = []
        weights = []
        for _ in range(n):
            labels = np.zeros(4, dtype=np.int8)
            labels[rng.choice(4, size=2, replace=False)] = 1
            a = assignment_for_labels(center_set, labels)
            assignments.append(a)
            weights.append(rng.dirichlet(np.ones(2)))
        cfg = LossConfig(beta=0.1, gamma=0.05, lam=0.01)

        codes, cache = forward_batch(params, x)
        grad_codes = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
        grads_w, grads_b = backward_batch(params, cache, grad_codes)

        step = 1e-6
        for l in range(params.n_layers()):
            for arr, grad in ((params.weights[l], grads_w[l]), (params.biases[l], grads_b[l])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up = loss_of_params(params, x, assignments, weights, cfg)
                    arr[idx] = orig - step
                    down = loss_of_params(params, x, assignments, weights, cfg)
                    arr[idx] = orig
                    fd = (up - down) / (2 * step)
                    assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_code_gradient_gives_zero_parameter_gradients(self):
        params = tiny_net(seed=6)
        _, cache = forward_batch(params, np.ones((1, 4)))
        gw, gb = backward_batch(params, cache, np.zeros((1, 8)))
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0.0)

    def test_linear_in_code_gradient(self):
        params = tiny_net(seed=7)
        x = np.array([[0.2, -0.4, 1.0, 0.3]])
        g = np.linspace(-1, 1, 8)[None, :]
        _, cache = forward_batch(params, x)
        gw1, gb1 = backward_batch(params, cache, g)
        gw2, gb2 = backward_batch(params, cache, 2 * g)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(2 * a, b, rtol=1e-12)

    def test_gradient_length_checked(self):
        # the gradient must have the codes' (N, K) shape; a (N, 1) column,
        # a bare (K,) row or a wrong K would broadcast into the parameters
        params = init_params([4, 6, 8], np.random.default_rng(0))
        _, cache = forward_batch(params, np.ones((3, 4)))
        for shape in ((3, 5), (3, 1), (8,), (1, 8), (2, 8), (3, 8, 1)):
            with pytest.raises(ValueError, match="gradient shape"):
                backward_batch(params, cache, np.ones(shape))
        _, one_row = forward_batch(params, np.ones((1, 4)))
        with pytest.raises(ValueError, match="gradient shape"):
            backward_batch(params, one_row, np.ones(8))


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        params = tiny_net(seed=8)
        before = copy.deepcopy(params)
        state = AdamState.for_params(params)
        zeros = (
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        adam_step(params, state, zeros, lr=0.1)
        for a, b in zip(params.weights, before.weights):
            np.testing.assert_array_equal(a, b)

    def test_descends_a_quadratic(self):
        # f(theta) = theta^2 from theta = 1; gradient 2*theta
        params = EncoderParams([np.array([[1.0]])], [np.zeros(1)])
        state = AdamState.for_params(params)
        grads = ([np.array([[2.0]])], [np.zeros(1)])
        adam_step(params, state, grads, lr=0.05)
        value = float(params.weights[0][0, 0])
        assert 0 < value < 1

    def test_steady_state_step_magnitude_is_lr(self):
        params = EncoderParams([np.array([[5.0]])], [np.zeros(1)])
        state = AdamState.for_params(params)
        grads = ([np.array([[0.37]])], [np.zeros(1)])
        lr = 1e-3
        previous = float(params.weights[0][0, 0])
        steps = []
        for _ in range(100):
            adam_step(params, state, grads, lr=lr)
            current = float(params.weights[0][0, 0])
            steps.append(previous - current)
            previous = current
        assert steps[-1] == pytest.approx(lr, rel=0.05)

    @pytest.mark.parametrize("sizes", [[4, 2], [5, 7, 3], [32, 64, 32]])
    def test_bit_identical_to_a_per_array_update(self, sizes):
        # the update as one loop over [*weights, *biases], one moment pair
        # per array: every value, each moment and the step count agree by
        # bytes after 50 steps of gradients over six orders of magnitude
        rng = np.random.default_rng(len(sizes))
        params = init_params(sizes, rng)
        state = AdamState.for_params(params)
        values = [a.copy() for a in [*params.weights, *params.biases]]
        moments = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
        lr = 1e-2
        for t in range(1, 51):
            grads = tuple(
                [rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=a.shape) for a in arrays]
                for arrays in (params.weights, params.biases)
            )
            adam_step(params, state, grads, lr)
            corr1, corr2 = 1.0 - 0.9**t, 1.0 - 0.99**t
            for value, grad, m, v in zip(values, [*grads[0], *grads[1]], *moments):
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.99
                v += (1.0 - 0.99) * grad**2
                value -= lr * (m / corr1) / (np.sqrt(v / corr2) + 1e-8)
        assert state.t == 50
        for got, want in zip([*params.weights, *params.biases], values):
            assert got.tobytes() == want.tobytes()
        for got, want in zip((state.m, state.v), moments):
            assert got.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()


def synthetic_two_label(n=200, d=8, k=16, seed=0):
    rng = np.random.default_rng(seed)
    anchor0 = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    labels = np.eye(2, dtype=np.int8)[np.arange(n) % 2]
    features = np.where(labels[:, :1] == 1, anchor0, -anchor0) + 0.1 * rng.normal(size=(n, d))
    return without_proportions(features, labels)


def without_proportions(features, labels) -> Dataset:
    n, m = labels.shape
    return Dataset(features, labels, np.zeros((n, m)), np.zeros(n, dtype=bool))


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        samples = synthetic_two_label()
        center_set = generate_centers(16, 2, seed=0)
        cfg = TrainConfig(epochs=5, batch_size=32, lr0=1e-3, hidden=(16,), seed=0)
        state = train(samples, center_set, cfg)
        assert len(state.loss_history) == 5
        assert state.loss_history[-1]["total"] < state.loss_history[0]["total"]
        for entry in state.loss_history:
            assert all(np.isfinite(v) for v in entry.values())

    def test_equal_and_learned_agree_on_single_label_data(self):
        samples = synthetic_two_label(n=60)
        center_set = generate_centers(16, 2, seed=1)
        base = dict(epochs=3, batch_size=16, lr0=1e-3, hidden=(8,), seed=3)
        learned = train(samples, center_set, TrainConfig(weight_mode="learned", **base))
        equal = train(samples, center_set, TrainConfig(weight_mode="equal", **base))
        for a, b in zip(learned.params.weights, equal.params.weights):
            np.testing.assert_array_equal(a, b)
        for w in learned.weight_table:
            np.testing.assert_array_equal(w, [1.0])

    def test_zero_epochs_returns_initial_state(self):
        samples = synthetic_two_label(n=20)
        center_set = generate_centers(16, 2, seed=0)
        cfg = TrainConfig(epochs=0, hidden=(8,), seed=9)
        state = train(samples, center_set, cfg)
        assert state.loss_history == []
        reference = init_params([8, 8, 16], np.random.default_rng(9))
        for a, b in zip(state.params.weights, reference.weights):
            np.testing.assert_array_equal(a, b)

    def test_bit_reproducible(self):
        samples = synthetic_two_label(n=40)
        center_set = generate_centers(16, 2, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=16, lr0=1e-3, hidden=(8,), seed=5)
        a = train(samples, center_set, cfg)
        b = train(samples, center_set, cfg)
        for wa, wb in zip(a.params.weights, b.params.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.loss_history == b.loss_history

    def test_learned_weights_satisfy_min_distance_bound(self):
        rng = np.random.default_rng(12)
        features, labels = np.empty((30, 6)), np.zeros((30, 4), dtype=np.int8)
        for i in range(30):
            labels[i, rng.choice(4, size=2, replace=False)] = 1
            features[i] = rng.normal(size=6)
        samples = without_proportions(features, labels)
        center_set = generate_centers(16, 4, seed=2)
        cfg = TrainConfig(
            epochs=2,
            batch_size=8,
            lr0=1e-3,
            hidden=(8,),
            seed=1,
            loss=LossConfig(beta=1.0, lam=0.05),
            solver=WeightSolverConfig(lam=0.05, beta=1.0, gradient_mode="exact"),
        )
        state = train(samples, center_set, cfg)
        from icshash import distance_vector
        from icshash.encoder import forward_batch as fb

        codes, _ = fb(state.params, np.array([s.features for s in samples]))
        for i, w in enumerate(state.weight_table):
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w >= -1e-12)
            d = distance_vector(codes[i], assignment_for_labels(center_set, samples[i].labels))
            assert float(w @ d) >= float(d.min()) - 1e-9

    def test_non_finite_feature_rejected_with_index(self):
        samples = synthetic_two_label(n=10)
        features = samples.features.copy()
        features[4, 0] = np.nan
        center_set = generate_centers(16, 2, seed=0)
        with pytest.raises(DataError) as exc_info:
            train(without_proportions(features, samples.labels), center_set, TrainConfig(epochs=1))
        assert "sample 4" in str(exc_info.value)

    def test_zero_label_sample_rejected_with_index(self):
        samples = synthetic_two_label(n=10)
        labels = samples.labels.copy()
        labels[7] = 0
        center_set = generate_centers(16, 2, seed=0)
        with pytest.raises(DataError) as exc_info:
            train(without_proportions(samples.features, labels), center_set, TrainConfig(epochs=1))
        assert "7" in str(exc_info.value)


class TestTrainBuildsNoPerSampleObjects:
    """train solves and backpropagates on (N, M) arrays: it runs with
    every way of building a per-sample CenterAssignment disabled."""

    @pytest.mark.parametrize("weight_mode", ["learned", "equal"])
    def test_runs_without_center_assignments(self, monkeypatch, weight_mode):
        def refuse(*args, **kwargs):
            raise AssertionError("train built a per-sample assignment")

        monkeypatch.setattr(icshash.loss, "assignment_for_labels", refuse)
        monkeypatch.setattr(icshash.encoder, "assignment_for_labels", refuse, raising=False)
        monkeypatch.setattr(icshash.loss.CenterAssignment, "__init__", refuse)
        samples = synthetic_two_label(n=40)
        cfg = TrainConfig(epochs=2, batch_size=16, hidden=(8,), weight_mode=weight_mode)
        state = train(samples, generate_centers(16, 2, seed=0), cfg)
        assert len(state.loss_history) == 2
        assert state.label_mask.shape == state.weight_matrix.shape == (40, 2)
        np.testing.assert_array_equal(state.weight_matrix[~state.label_mask], 0.0)


class TestTrainOnDataset:
    def test_label_count_is_checked_against_the_centers(self):
        data = generate_synthetic(SyntheticSpec(10, 6, 3, seed=3))
        with pytest.raises(ConfigError, match="sample 0 has 3 labels but the centers define M=2"):
            train(data, generate_centers(16, 2, seed=0), TrainConfig(epochs=1))


def corrupted(columns, kind, i):
    """(features, labels) columns with sample i made to fail one of the
    checks a Dataset runs when it is built; the checks run in this order
    for each sample."""
    features, labels = (column.copy() for column in columns)
    if kind == "no positive":
        labels[i] = 0
    else:
        features[i, 2] = np.inf
    return features, labels


VALIDATION_KINDS = ["no positive", "non-finite"]


def validation_error(kind, i):
    return {
        "no positive": f"sample {i} has no positive label",
        "non-finite": f"sample {i} has a non-finite feature",
    }[kind]


class TestTrainInputValidation:
    """A Dataset checks its rows at once when it is built, but reports
    what a loop over the samples would: the first failing sample in index
    order, and for it the first failing check. train then checks what
    depends on its other arguments: a non-empty dataset, and M against
    the centers."""

    def run(self, data):
        train(data, generate_centers(16, 2, seed=0), TrainConfig(epochs=1, hidden=(4,)))

    def columns(self):
        data = synthetic_two_label(n=10)
        return data.features, data.labels

    @pytest.mark.parametrize("first", VALIDATION_KINDS)
    @pytest.mark.parametrize("second", VALIDATION_KINDS)
    def test_first_failing_sample_is_named(self, first, second):
        columns = corrupted(corrupted(self.columns(), second, 6), first, 3)
        with pytest.raises(DataError) as exc_info:
            self.run(without_proportions(*columns))
        assert type(exc_info.value) is DataError
        assert str(exc_info.value) == validation_error(first, 3)

    def test_earlier_check_wins_within_a_sample(self):
        columns = corrupted(corrupted(self.columns(), "non-finite", 4), "no positive", 4)
        with pytest.raises(DataError) as exc_info:
            self.run(without_proportions(*columns))
        assert str(exc_info.value) == validation_error("no positive", 4)

    def test_label_count_must_match_the_centers(self):
        features, _ = self.columns()
        with pytest.raises(ConfigError) as exc_info:
            self.run(without_proportions(features, np.ones((10, 1), dtype=np.int8)))
        assert type(exc_info.value) is ConfigError
        assert str(exc_info.value) == "sample 0 has 1 labels but the centers define M=2"

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty dataset"):
            self.run(synthetic_two_label(n=10)[:0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["equal", "learned"])
    def test_a_feature_written_after_the_build_is_named_not_the_rate(self, value, mode):
        # the Dataset's columns share the caller's arrays, so a write under
        # the caller's own name escapes its checks; train names the sample
        # as the Dataset would have, where it used to blame lr0
        data = generate_synthetic(SyntheticSpec(40, 6, 4, seed=1))
        features = data.features.copy()
        written = Dataset(features, data.labels, data.proportions, data.has_proportions)
        features[17, 1] = features[4, 0] = value  # one batch of 64 holds both
        with pytest.raises(DataError) as exc_info:
            train(written, generate_centers(16, 4, seed=1), TrainConfig(epochs=1, weight_mode=mode))
        assert str(exc_info.value) == "sample 4 has a non-finite feature"


class TestLearningRate:
    def test_divided_by_ten_every_thirty_epochs(self):
        from icshash.encoder import learning_rate

        lr0 = 1e-4
        cfg = TrainConfig(lr0=lr0)
        assert [learning_rate(cfg, e) for e in (0, 29, 30, 59, 60)] == [
            lr0, lr0, lr0 / 10, lr0 / 10, lr0 / 100,
        ]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr0", -1.0),
            ("lr0", 0.0),
            ("lr0", math.nan),
            ("lr0", math.inf),
            ("epochs", -1),
            ("epochs", 1.5),
            ("epochs", math.nan),
            ("batch_size", 0),
            ("batch_size", 2.5),
            ("hidden", (0,)),
            ("hidden", (8, -4)),
            ("hidden", (8, 2.5)),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", math.nan),
            ("weight_mode", "uniform"),
        ],
    )
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("lam, beta", [(0.5, 0.1), (0.01, 1.0), (4.0, 1.0)])
    def test_a_solver_off_the_loss_objective_is_refused(self, lam, beta):
        # the default loss has lam 0.01 and beta 0.1; such a solver used to
        # be taken while the loss kept its own values
        with pytest.raises(ValueError, match=r"solver lam=.* differ from loss lam="):
            TrainConfig(solver=WeightSolverConfig(lam=lam, beta=beta, gradient_mode="exact"))

    def test_the_default_solver_takes_the_loss_lam_and_beta(self):
        cfg = TrainConfig(loss=LossConfig(beta=0.5, lam=2.0))
        assert cfg.solver == WeightSolverConfig(lam=2.0, beta=0.5)
        paper = WeightSolverConfig(lam=2.0, beta=0.5, eta=0.3)
        assert TrainConfig(loss=LossConfig(beta=0.5, lam=2.0), solver=paper).solver is paper


class TestInitParams:
    @pytest.mark.parametrize("sizes, name", [([4, 2.5, 8], r"sizes\[1\]"), ([4, 8, 0], r"sizes\[2\]")])
    def test_bad_layer_size_names_its_index(self, sizes, name):
        # a size of 2.5 used to build a network of width 2
        with pytest.raises(ValueError, match=name):
            init_params(sizes, np.random.default_rng(0))

    def test_integer_sizes_of_any_integer_type(self):
        assert init_params([np.int64(4), 3, np.int32(2)], np.random.default_rng(0)).sizes == [4, 3, 2]


class TestEncoderParams:
    def test_sizes_are_read_off_the_weights(self):
        params = EncoderParams([np.zeros((4, 2)), np.zeros((2, 3))], [np.zeros(2), np.zeros(3)])
        assert params.sizes == [4, 2, 3]

    @pytest.mark.parametrize(
        "shapes, match",
        [
            # the layers do not chain
            ([[(4, 2), (3, 5)], [(2,), (5,)]], r"layer 1: weight shape \(3, 5\)"),
            # a bias of the wrong length or rank
            ([[(4, 2)], [(3,)]], r"layer 0: bias shape \(3,\)"),
            ([[(4, 2), (2, 3)], [(2,), (1, 3)]], r"layer 1: bias shape \(1, 3\)"),
            # different numbers of weights and biases, or no layer
            ([[(4, 2), (2, 3)], [(2,)]], "weights for 2 layers, biases for 1"),
            ([[(4, 2)], [(2,), (2,)]], "weights for 1 layers, biases for 2"),
            ([[], []], "weights for 0 layers"),
            # a weight that is not a matrix, or has a size below 1
            ([[(4,)], [(4,)]], r"layer 0: weight shape \(4,\)"),
            ([[(0, 2)], [(2,)]], r"layer 0: weight shape \(0, 2\)"),
            ([[(4, 2), (2, 0)], [(2,), (0,)]], r"layer 1: weight shape \(2, 0\)"),
        ],
    )
    def test_layers_that_do_not_chain_are_refused(self, shapes, match):
        weights, biases = ([np.zeros(shape) for shape in group] for group in shapes)
        with pytest.raises(ValueError, match=match):
            EncoderParams(weights, biases)

    def test_weights_and_biases_are_views_of_one_copied_vector(self):
        weights = [np.arange(8.0).reshape(4, 2), np.arange(6).reshape(2, 3)]
        biases = [np.array([-1.0, -2.0]), np.array([-3, -4, -5])]
        params = EncoderParams(weights, biases)
        assert params.flat.dtype == np.float64
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.ravel() for a in [*weights, *biases]])
        )
        for view, given_array in zip([*params.weights, *params.biases], [*weights, *biases]):
            assert np.shares_memory(view, params.flat)
            np.testing.assert_array_equal(view, given_array)
        # a write through the caller's arrays after the build leaves the
        # record as it was; a write through its views moves its vector
        before = params.flat.copy()
        for given_array in [*weights, *biases]:
            given_array[...] = 99
        np.testing.assert_array_equal(params.flat, before)
        params.biases[1][0] = 7.0
        assert params.flat[8 + 6 + 2] == 7.0

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda params: pickle.loads(pickle.dumps(params))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_owns_its_vector(self, duplicate):
        params = tiny_net(seed=9)
        x = np.random.default_rng(9).normal(size=(3, 4))
        codes = forward_batch(params, x)[0]
        twin = duplicate(params)
        np.testing.assert_array_equal(twin.flat, params.flat)
        for view in [*twin.weights, *twin.biases]:
            assert np.shares_memory(view, twin.flat)
            assert not np.shares_memory(view, params.flat)
        # a step on the copy moves the copy's forward pass, and only its
        grads = tuple([np.ones_like(a) for a in arrays] for arrays in (twin.weights, twin.biases))
        adam_step(twin, AdamState.for_params(twin), grads, lr=0.1)
        assert not np.array_equal(forward_batch(twin, x)[0], codes)
        np.testing.assert_array_equal(forward_batch(params, x)[0], codes)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        m_labels=st.integers(1, 5),
        seed=st.integers(0, 2**64),
        data=st.data(),
    )
    def test_every_params_save_accepts_loads_back_equal(self, sizes, m_labels, seed, data):
        values = st.floats(allow_nan=False, allow_infinity=False)
        weights = [
            data.draw(hnp.arrays(np.float64, (n_in, n_out), elements=values))
            for n_in, n_out in zip(sizes[:-1], sizes[1:])
        ]
        biases = [data.draw(hnp.arrays(np.float64, n, elements=values)) for n in sizes[1:]]
        params = EncoderParams(weights, biases)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, params, sizes[-1], m_labels, seed)
            loaded, meta = load_checkpoint(path)
            assert meta == {"k_bits": sizes[-1], "m_labels": m_labels, "seed": seed}
            assert loaded.sizes == params.sizes == sizes
            for a, b in zip([*loaded.weights, *loaded.biases], [*weights, *biases]):
                np.testing.assert_array_equal(a, b)
            # one non-finite parameter, which load_checkpoint refuses, is
            # refused before the file is opened
            poisoned = data.draw(st.sampled_from([*params.weights, *params.biases]))
            at = data.draw(st.integers(0, poisoned.size - 1))
            poisoned.flat[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            os.remove(path)
            with pytest.raises(ValueError, match="holds a non-finite value"):
                save_checkpoint(path, params, sizes[-1], m_labels, seed)
            assert not os.path.exists(path)


class TestSettableValues:
    def test_config_fields_and_adam_parameters_are_pinned(self):
        """Every value a caller can set on the loss, the weight solver,
        training and the optimizer; a new knob has to be added here."""
        assert [f.name for f in fields(LossConfig)] == ["beta", "gamma", "lam"]
        assert [f.name for f in fields(WeightSolverConfig)] == [
            "lam", "eta", "beta", "max_iters", "tol", "gradient_mode",
        ]
        assert [f.name for f in fields(TrainConfig)] == [
            "epochs", "batch_size", "lr0", "hidden", "loss", "solver", "weight_mode", "seed",
        ]
        assert list(inspect.signature(adam_step).parameters) == ["params", "state", "grads", "lr"]
        assert list(inspect.signature(icshash.entropy_regularizer).parameters) == ["w"]

    def test_record_fields_and_rank_database_parameters_are_pinned(self):
        """Each record holds each value once, and only values that
        something reads: 17 settable values."""
        records = {
            icshash.EncoderParams: ["weights", "biases"],
            icshash.AdamState: ["m", "v", "t"],
            icshash.TrainState: ["params", "weight_matrix", "label_mask", "loss_history"],
            icshash.HashCenterSet: ["centers", "strategy", "seed"],
            icshash.CenterAssignment: ["centers01"],
            icshash.RankedResult: ["indices", "distances"],
        }
        for record, names in records.items():
            assert [f.name for f in fields(record)] == names, record.__name__
        rank_parameters = list(inspect.signature(icshash.rank_database).parameters)
        assert rank_parameters == ["query", "db"]
        assert sum(map(len, records.values())) + len(rank_parameters) == 17

    def test_tuning_constants_are_pinned(self):
        """Every private number a module sets at its top level, a Python or
        a numpy integer or float: a block size or tolerance, like a config
        field, is added on purpose."""
        constants = {
            "centers": [],
            "cli": [],
            "data": ["_ROW_BLOCK", "_SAVE_BLOCK", "_MAX_NOISE_SIGMA"],
            "encoder": [
                "_ADAM_BETA1", "_ADAM_BETA2", "_ADAM_EPS", "_LR_DECAY_EVERY", "_LR_DECAY_FACTOR",
            ],
            "errors": [],
            "loss": [],
            "retrieval": ["_BLOCK_ELEMENTS", "_XOR_ELEMENTS"],
            "weights": ["_FEASIBLE_TOL", "_ROOT_TOL", "_MAX_ROOT_ITERS"],
        }
        number = (int, float, np.integer, np.floating)  # bool is an int, np.bool_ neither
        modules = sorted(info.name for info in pkgutil.iter_modules(icshash.__path__))
        assert modules == list(constants)
        for name, want in constants.items():
            found = [
                key
                for key, value in vars(importlib.import_module(f"icshash.{name}")).items()
                if key.startswith("_") and not key.startswith("__")
                and isinstance(value, number) and not isinstance(value, bool)
            ]
            assert found == want, name


def _codes():
    return icshash.pack_database(np.where(np.eye(3, 8) > 0, 1, -1))


# Each record that holds arrays, built from equal inputs on every call.
RECORD_BUILDS = {
    "EncoderParams": tiny_net,
    "AdamState": lambda: AdamState.for_params(tiny_net()),
    "TrainState": lambda: icshash.TrainState(
        tiny_net(), np.ones((2, 2)), np.ones((2, 2), dtype=bool), [{"total": 1.0}]
    ),
    "Dataset": lambda: generate_synthetic(SyntheticSpec(4, 3, 3, seed=0)),
    "MultiLabelSample": lambda: icshash.MultiLabelSample([0.5, 1.5], [1, 1], [0.25, 0.75]),
    "HashCenterSet": lambda: generate_centers(8, 4, 0),
    "CodeDatabase": _codes,
    "CenterAssignment": lambda: assignment_for_labels(generate_centers(8, 4, 0), [1, 1, 0, 0]),
    "RankedResult": lambda: icshash.rank_database(_codes().code(0), _codes()),
}


@pytest.mark.parametrize("name", RECORD_BUILDS)
def test_records_compare_and_hash_by_identity(name):
    # a generated __eq__ compares array fields with ==, which raises on
    # distinct records, and a frozen record's generated __hash__ hashes them
    a, b = RECORD_BUILDS[name](), RECORD_BUILDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and (a != b) is True and (a == a) is True
    assert isinstance(hash(a), int) and isinstance(hash(b), int)


# Each config, with one field whose change must make it compare unequal.
CONFIG_CHANGES = {
    "SyntheticSpec": (lambda: SyntheticSpec(4, 3, 3, seed=0), {"seed": 1}),
    "LossConfig": (LossConfig, {"gamma": 0.1}),
    "WeightSolverConfig": (WeightSolverConfig, {"gradient_mode": "paper"}),
    "TrainConfig": (TrainConfig, {"epochs": 3}),
}


@pytest.mark.parametrize("name", CONFIG_CHANGES)
def test_configs_compare_by_value(name):
    # configs hold no arrays, so they keep the generated field-by-field __eq__
    build, change = CONFIG_CHANGES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b
    assert replace(b, **change) != a


class TestPublicNames:
    def test_package_names_are_pinned(self):
        """Every public name ``icshash`` exports, by the module that
        defines it: a name is added to or removed from the API on purpose."""
        names = {}
        for name, value in vars(icshash).items():
            if not name.startswith("_") and not inspect.ismodule(value):
                names.setdefault(value.__module__.removeprefix("icshash."), []).append(name)
        assert {module: sorted(found) for module, found in names.items()} == {
            "centers": [
                "HashCenterSet", "generate_centers", "load_centers", "min_pairwise_hamming",
                "save_centers", "sylvester_hadamard",
            ],
            "data": [
                "Dataset", "MultiLabelSample", "SyntheticSpec", "features_matrix",
                "generate_synthetic", "labels_matrix", "load_dataset", "save_dataset",
                "spearman_corr",
            ],
            "encoder": [
                "AdamState", "EncoderParams", "TrainConfig", "TrainState", "adam_step",
                "binarize", "encode_binary", "init_params", "load_checkpoint",
                "save_checkpoint", "train",
            ],
            "errors": [
                "CapacityError", "ConfigError", "DataError", "EvaluationError",
                "InternalInvariantError", "ParseError", "ToolkitError",
            ],
            "loss": [
                "CenterAssignment", "LossConfig", "assignment_for_labels", "bce_distance",
                "distance_matrix", "distance_vector", "loss_gradient_wrt_codes",
                "quantization_loss", "total_loss",
            ],
            "retrieval": [
                "CodeDatabase", "RankedResult", "hamming", "load_codes", "map_at_k",
                "pack_code", "pack_database", "precision_at_k", "rank_database",
                "retrieval_metrics", "save_codes", "unpack_database",
            ],
            "weights": [
                "WeightSolveResult", "WeightSolverConfig", "entropy_regularizer",
                "project_rows_to_simplex", "project_to_simplex", "solve_weights",
                "solve_weights_batch",
            ],
        }


class TestBinarize:
    def test_threshold(self):
        np.testing.assert_array_equal(binarize([0.9, 0.1]), [1, -1])

    def test_tie_goes_positive(self):
        np.testing.assert_array_equal(binarize([0.5, 0.5]), [1, 1])

    def test_idempotent_through_relaxation(self):
        code = binarize([0.3, 0.8, 0.5])
        relaxed = (code.astype(np.float64) + 1.0) / 2.0
        np.testing.assert_array_equal(binarize(relaxed), code)

    def test_int8_of_the_input_shape(self):
        for b in (0.7, [0.2], np.full((3, 2), 0.5)):
            code = binarize(b)
            assert isinstance(code, np.ndarray) and code.dtype == np.int8
            assert code.shape == np.shape(b)


class TestEncodeBinary:
    def check_blocks(self, monkeypatch, n, block):
        """Codes from one pass of the shared forward core per block of rows
        equal one forward_batch pass over the whole matrix."""
        params = tiny_net(3, sizes=(6, 9, 70))
        x = np.random.default_rng(n).normal(size=(n, 6))
        calls, core = [], icshash.encoder._forward
        monkeypatch.setattr(
            icshash.encoder, "_forward", lambda p, b, *rest: calls.append(len(b)) or core(p, b, *rest)
        )
        codes = icshash.encode_binary(params, x)
        assert codes.dtype == np.int8
        assert calls == [min(block, n - s) for s in range(0, n, block)]
        np.testing.assert_array_equal(codes, binarize(forward_batch(params, x)[0]))

    @pytest.mark.parametrize("n", [1, 7, 30])  # 30 is not a multiple of the block
    def test_blocks_equal_one_forward_pass(self, monkeypatch, n):
        monkeypatch.setattr(icshash.data, "_ROW_BLOCK", 7)
        self.check_blocks(monkeypatch, n, 7)

    def test_two_full_blocks_and_five_rows(self, monkeypatch):
        block = icshash.data._ROW_BLOCK
        self.check_blocks(monkeypatch, 2 * block + 5, block)

    def test_no_rows_still_checks_the_feature_dimension(self):
        params = tiny_net()
        assert icshash.encode_binary(params, np.empty((0, 4))).shape == (0, 8)
        with pytest.raises(ValueError, match="feature dimension"):
            icshash.encode_binary(params, np.empty((0, 3)))

    def test_no_rows_sliced_from_a_matrix_still_checks_the_feature_dimension(self):
        # eval's call: one encode_binary per row slice, an empty one included
        params = tiny_net()
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert icshash.encode_binary(params, x[5:]).shape == (0, 8)
        with pytest.raises(ValueError, match="feature dimension"):
            icshash.encode_binary(params, x[5:, :3])

    def test_overflowing_and_tied_outputs_match_forward_batch_bit_for_bit(self, monkeypatch):
        # one affine layer, so output j's pre-activation is x * w[j]: rows
        # 0 and 1 put outputs 0 and 1 below -745, where exp overflows (an
        # error under the suite's warning filter unless suppressed); row 2
        # puts every output at exactly 0.5 (the third from -0.0), and row
        # 3 at +-1 ulp, whose sigmoid rounds to 0.5 as well
        params = EncoderParams([np.array([[1.0, 1.0, -1.0]])], [np.zeros(3)])
        x = np.array([[-800.0], [-746.0], [0.0], [np.nextafter(0.0, 1.0)]])
        monkeypatch.setattr(icshash.data, "_ROW_BLOCK", 2)  # one forward pass per block
        codes = icshash.encode_binary(params, x)
        np.testing.assert_array_equal(codes, binarize(forward_batch(params, x)[0]))
        np.testing.assert_array_equal(codes, [[-1, -1, 1]] * 2 + [[1, 1, 1]] * 2)
        # eval's call: one encode_binary per row slice
        for rows in (x[:1], x[1:]):
            np.testing.assert_array_equal(
                icshash.encode_binary(params, rows), binarize(forward_batch(params, rows)[0])
            )

    def test_traced_peak_is_the_codes_and_one_block_of_buffers(self, monkeypatch):
        monkeypatch.setattr(icshash.data, "_ROW_BLOCK", 512)
        sizes = (16, 64, 32, 48)
        params = tiny_net(5, sizes=sizes)
        x = np.random.default_rng(5).normal(size=(3 * 512, 16))  # three full blocks
        icshash.encode_binary(params, x[:1])  # warm every code path first
        tracemalloc.start()
        try:
            codes = icshash.encode_binary(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 8 * 512 * sum(sizes[1:])  # one block's float64 layer outputs
        ufunc_buffer = 8 * np.getbufsize()  # the bias add broadcasts through it
        # a forward_batch per block holds its clamped codes as well: 1.17
        # times this bound on these sizes
        assert peak < codes.nbytes + buffers + ufunc_buffer + 8192


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = tiny_net(seed=13, sizes=(6, 10, 16))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, k_bits=16, m_labels=4, seed=13)
        loaded, meta = load_checkpoint(path)
        assert meta == {"k_bits": 16, "m_labels": 4, "seed": 13}
        assert loaded.sizes == [6, 10, 16]
        for a, b in zip(loaded.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, params.biases):
            np.testing.assert_array_equal(a, b)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, loaded, k_bits=16, m_labels=4, seed=13)
        assert path.read_bytes() == again.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(Exception) as exc_info:
            load_checkpoint(path)
        assert "checkpoint" in str(exc_info.value)

    @pytest.mark.parametrize(
        "line_no, old, new",
        [
            (6, "weight 0 6 10", "wieght 0 6 10"),
            (6, "weight 0 6 10", "weight 1 6 10"),
            (6, "weight 0 6 10", "weight 0 6 9"),
            (13, "bias 0 10", "bias_ 0 10"),
            (13, "bias 0 10", "bias 0 9"),
        ],
    )
    def test_bad_layer_header_names_its_line(self, tmp_path, line_no, old, new):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(6, 10, 16)), 16, 4, 13)
        lines = path.read_text().splitlines()
        assert lines[line_no - 1] == old
        lines[line_no - 1] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == line_no

    def test_layer_header_must_read_as_written(self, tmp_path):
        # the tag line is compared as save_checkpoint writes it, not as integers
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(3, 2)), 2, 4, 13)
        lines = path.read_text().splitlines()
        assert lines[5] == "weight 0 3 2"
        lines[5] = "weight 00 3 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected 'weight 0 3 2'") as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == 6

    def test_header_key_out_of_place_names_its_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(6, 10, 16)), 16, 4, 13)
        lines = path.read_text().splitlines()
        assert lines[2] == "k_bits 16"
        lines[2] = "m_labels 16"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected 'k_bits'") as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("line_no", [7, 14])
    def test_short_row_names_its_line(self, tmp_path, line_no):
        # a single value would broadcast across the whole row
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(6, 10, 16)), 16, 4, 13)
        lines = path.read_text().splitlines()
        lines[line_no - 1] = lines[line_no - 1].split()[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == line_no

    def test_last_layer_must_match_k_bits(self, tmp_path):
        # eval would otherwise write 8-bit codes under a 16-bit checkpoint
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(4, 8)), 8, 3, 0)
        path.write_text(path.read_text().replace("\nk_bits 8\n", "\nk_bits 16\n"))
        with pytest.raises(ParseError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == 2
        assert "k_bits 16" in str(exc_info.value)

    @pytest.mark.parametrize(
        "k_bits, m_labels, seed, field",
        [(16, 3, 0, "k_bits"), (0, 3, 0, "k_bits"), (8, 0, 0, "m_labels"), (8, 3, -1, "seed")],
    )
    def test_save_refuses_a_header_that_would_not_load(self, tmp_path, k_bits, m_labels, seed, field):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=field):
            save_checkpoint(path, tiny_net(seed=13, sizes=(4, 8)), k_bits, m_labels, seed)
        assert not path.exists()

    def test_trailing_line_names_its_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(4, 8)), 8, 3, 0)
        n_lines = len(path.read_text().splitlines())
        path.write_text(path.read_text() + "\n  \ngarbage line\n")
        with pytest.raises(ParseError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == n_lines + 3

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = tiny_net(seed=13, sizes=(4, 8))
        save_checkpoint(path, params, 8, 3, 0)
        path.write_text(path.read_text() + "\n\n")
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.weights[0], params.weights[0])

    def test_validation_survives_optimized_mode(self, tmp_path):
        # python -O strips assert statements; the checks must not be asserts
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_net(seed=13, sizes=(6, 10, 16)), 16, 4, 13)
        path.write_text(path.read_text().replace("weight 0 ", "wieght 0 "))
        script = (
            "import sys\n"
            "from icshash import ParseError, load_checkpoint\n"
            "try:\n"
            "    load_checkpoint(sys.argv[1])\n"
            "except ParseError as exc:\n"
            "    print(exc.line)\n"
            "    sys.exit(0)\n"
            "sys.exit('loaded a corrupt checkpoint')\n"
        )
        src = os.path.dirname(os.path.dirname(icshash.__file__))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "6"
