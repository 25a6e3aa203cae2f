"""Encoder tests: forward determinism and range, reverse-mode gradients
against a full finite-difference sweep of every parameter, Adam update
behavior, the alternating training loop, binarization rules, and the
bit-exact checkpoint round trip."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import icshash
from icshash import (
    AdamState,
    DataError,
    EncoderParams,
    LossConfig,
    MultiLabelSample,
    ParseError,
    TrainConfig,
    WeightSolverConfig,
    adam_step,
    assignment_for_labels,
    backward,
    binarize,
    forward,
    generate_centers,
    init_params,
    load_checkpoint,
    loss_gradient_wrt_codes,
    save_checkpoint,
    total_loss,
    train,
)
from icshash.encoder import backward_batch, forward_batch


def tiny_net(seed=0, sizes=(4, 5, 8)):
    return init_params(sizes, np.random.default_rng(seed))


def loss_of_params(params, x_batch, assignments, weights, cfg):
    codes, _ = forward_batch(params, x_batch)
    return total_loss(codes, assignments, weights, cfg)[0]


class TestForward:
    def test_zero_parameters_give_half(self):
        params = EncoderParams(
            [3, 4, 6],
            [np.zeros((3, 4)), np.zeros((4, 6))],
            [np.zeros(4), np.zeros(6)],
        )
        np.testing.assert_allclose(forward(params, np.array([1.0, -2.0, 0.5])), 0.5)

    def test_deterministic_given_seed(self):
        x = np.array([0.3, -1.2, 0.7, 2.0])
        a = forward(tiny_net(seed=5), x)
        b = forward(tiny_net(seed=5), x)
        np.testing.assert_array_equal(a, b)

    def test_output_strictly_inside_unit_interval(self):
        params = tiny_net(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            code = forward(params, rng.normal(scale=50.0, size=4))
            assert np.all(code > 0.0) and np.all(code < 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(tiny_net(), np.ones(7))


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
        gw, gb = backward(params, np.ones(4), np.zeros(8))
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0.0)

    def test_linear_in_code_gradient(self):
        params = tiny_net(seed=7)
        x = np.array([0.2, -0.4, 1.0, 0.3])
        g = np.linspace(-1, 1, 8)
        gw1, gb1 = backward(params, x, g)
        gw2, gb2 = backward(params, x, 2 * g)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(2 * a, b, rtol=1e-12)

    def test_gradient_length_checked(self):
        with pytest.raises(ValueError):
            backward(tiny_net(), np.ones(4), np.ones(5))


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        params = tiny_net(seed=8)
        before = params.copy()
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
        params = EncoderParams([1, 1], [np.array([[1.0]])], [np.zeros(1)])
        state = AdamState.for_params(params)
        grads = ([np.array([[2.0]])], [np.zeros(1)])
        adam_step(params, state, grads, lr=0.05)
        value = float(params.weights[0][0, 0])
        assert 0 < value < 1

    def test_steady_state_step_magnitude_is_lr(self):
        params = EncoderParams([1, 1], [np.array([[5.0]])], [np.zeros(1)])
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

    def test_decoupled_weight_decay(self):
        params = EncoderParams([1, 1], [np.array([[2.0]])], [np.ones(1)])
        state = AdamState.for_params(params)
        zeros = ([np.zeros((1, 1))], [np.zeros(1)])
        adam_step(params, state, zeros, lr=0.1, weight_decay=0.5)
        assert params.weights[0][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))
        assert params.biases[0][0] == pytest.approx(1.0)


def synthetic_two_label(n=200, d=8, k=16, seed=0):
    rng = np.random.default_rng(seed)
    anchor0 = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    anchor1 = -anchor0
    samples = []
    for i in range(n):
        label = i % 2
        base = anchor0 if label == 0 else anchor1
        features = base + 0.1 * rng.normal(size=d)
        labels = np.zeros(2, dtype=np.int8)
        labels[label] = 1
        samples.append(MultiLabelSample(features, labels))
    return samples


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
        samples = []
        for _ in range(30):
            labels = np.zeros(4, dtype=np.int8)
            labels[rng.choice(4, size=2, replace=False)] = 1
            samples.append(MultiLabelSample(rng.normal(size=6), labels))
        center_set = generate_centers(16, 4, seed=2)
        cfg = TrainConfig(
            epochs=2,
            batch_size=8,
            lr0=1e-3,
            hidden=(8,),
            seed=1,
            solver=WeightSolverConfig(lam=0.05, beta=1.0, gradient_mode="exact"),
        )
        state = train(samples, center_set, cfg)
        from icshash import distance_vector
        from icshash.encoder import forward_batch as fb

        codes, _ = fb(state.params, np.array([s.features for s in samples]))
        for i, w in enumerate(state.weight_table):
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w >= -1e-12)
            d = distance_vector(codes[i], state.assignments[i])
            assert float(w @ d) >= float(d.min()) - 1e-9

    def test_non_finite_feature_rejected_with_index(self):
        samples = synthetic_two_label(n=10)
        features = samples[4].features.copy()
        features[0] = np.nan
        samples[4] = MultiLabelSample(features, samples[4].labels)
        center_set = generate_centers(16, 2, seed=0)
        with pytest.raises(DataError) as exc_info:
            train(samples, center_set, TrainConfig(epochs=1))
        assert "sample 4" in str(exc_info.value)

    def test_zero_label_sample_rejected_with_index(self):
        samples = synthetic_two_label(n=10)
        samples[7] = MultiLabelSample(samples[7].features, np.zeros(2, dtype=np.int8))
        center_set = generate_centers(16, 2, seed=0)
        with pytest.raises(DataError) as exc_info:
            train(samples, center_set, TrainConfig(epochs=1))
        assert "7" in str(exc_info.value)


class TestLearningRate:
    def test_divided_by_ten_every_thirty_epochs(self):
        from icshash.encoder import learning_rate

        cfg = TrainConfig(lr0=1e-4)
        assert learning_rate(cfg, 0) == 1e-4
        assert learning_rate(cfg, 29) == 1e-4
        assert learning_rate(cfg, 30) == pytest.approx(1e-5)
        assert learning_rate(cfg, 60) == pytest.approx(1e-6)

    def test_custom_interval(self):
        from icshash.encoder import learning_rate

        cfg = TrainConfig(lr0=1.0, lr_decay_every=2, lr_decay_factor=4.0)
        assert [learning_rate(cfg, e) for e in range(5)] == [
            1.0, 1.0, 0.25, 0.25, 0.0625,
        ]


class TestBinarize:
    def test_threshold(self):
        np.testing.assert_array_equal(binarize([0.9, 0.1]), [1, -1])

    def test_tie_goes_positive(self):
        np.testing.assert_array_equal(binarize([0.5, 0.5]), [1, 1])

    def test_idempotent_through_relaxation(self):
        code = binarize([0.3, 0.8, 0.5])
        relaxed = (code.astype(np.float64) + 1.0) / 2.0
        np.testing.assert_array_equal(binarize(relaxed), code)


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
