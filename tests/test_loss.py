"""Objective tests: hand-evaluated distances and central losses,
analytic closed forms at symmetric points, decomposition identities, the
weight solver's objective as the loss's central and entropy parts, a
central finite-difference oracle for the code gradient, and the batched
loss and gradient against a per-sample reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import icshash.loss
from icshash import (
    ConfigError,
    LossConfig,
    assignment_for_labels,
    bce_distance,
    distance_matrix,
    distance_vector,
    generate_centers,
    loss_gradient_wrt_codes,
    quantization_loss,
    solve_weights_batch,
    total_loss,
)
from icshash.loss import CODE_EPS, CenterAssignment, _loss_and_gradient
from icshash.weights import WEIGHT_FLOOR, WeightSolverConfig, _row_objectives


def make_assignment(centers01):
    centers01 = np.atleast_2d(np.asarray(centers01, dtype=np.float64))
    return CenterAssignment(centers01)


def weighted_distance(b, assignment, w):
    """Test-local convex combination w @ d of a code's distances to its
    centers."""
    return float(np.asarray(w, dtype=np.float64) @ distance_vector(b, assignment))


def reference_bce(b, v):
    """Test-local per-pair cross entropy of clamped codes against {0, 1}
    centers, summed over the last (bit) axis; leading axes broadcast."""
    b = np.clip(np.asarray(b, dtype=np.float64), CODE_EPS, 1.0 - CODE_EPS)
    return -np.sum(v * np.log(b) + (1.0 - v) * np.log(1.0 - b), axis=-1)


def random_batch(rng, n, k, c_max, m=8):
    center_set = generate_centers(k, m, seed=int(rng.integers(1_000_000)))
    codes = rng.uniform(0.05, 0.95, size=(n, k))
    assignments, weights = [], []
    for _ in range(n):
        c = int(rng.integers(1, c_max + 1))
        labels = np.zeros(m, dtype=np.int8)
        labels[rng.choice(m, size=c, replace=False)] = 1
        a = assignment_for_labels(center_set, labels)
        assignments.append(a)
        weights.append(rng.dirichlet(np.ones(c)))
    return codes, assignments, weights


class TestBceDistance:
    def test_hand_evaluated(self):
        value = bce_distance([0.9, 0.1], [1.0, 0.0])
        assert value == pytest.approx(-2 * math.log(0.9), rel=1e-12)
        assert value == pytest.approx(0.2107, abs=1e-4)

    def test_maximal_uncertainty(self):
        k = 16
        b = np.full(k, 0.5)
        for center in (np.zeros(k), np.ones(k), (np.arange(k) % 2).astype(float)):
            assert bce_distance(b, center) == pytest.approx(k * math.log(2))

    def test_perfect_match_limit(self):
        center = np.array([1.0, 0.0, 1.0, 1.0])
        b = center.copy()  # clamped internally to (eps, 1-eps)
        value = bce_distance(b, center)
        assert 0 <= value <= 2 * 4 * CODE_EPS * abs(math.log(CODE_EPS))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 20))
            assert bce_distance(rng.uniform(0, 1, k), rng.integers(0, 2, k)) >= 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bce_distance([0.5, 0.5], [1.0])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 300),
        kind=st.sampled_from(["clamp", "near clamp", "uniform"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_formula_stays_near_the_per_pair_sum(self, k, kind, seed):
        """bce_distance, distance_vector and total_loss's central part all
        run through distance_matrix's product form; each stays within
        64 K eps of the per-pair sum and no distance is negative, also
        for codes at the clamp, where the product form cancels most."""
        rng = np.random.default_rng(seed)
        centers = rng.integers(0, 2, size=(3, k)).astype(np.float64)
        if kind == "uniform":
            b = rng.uniform(0.0, 1.0, size=k)
        else:  # each bit at an end of the clamp, or a few ulps from it
            b = np.where(rng.integers(0, 2, size=k) == 1, 1.0 - CODE_EPS, CODE_EPS)
            if kind == "near clamp":
                for _ in range(4):
                    b = np.nextafter(b, rng.choice([0.0, 1.0], size=k))
            b[rng.uniform(size=k) < 0.2] = rng.integers(0, 2)  # past the clamp
        want = reference_bce(b, centers)
        bound = 64 * k * np.finfo(np.float64).eps
        got = np.array([bce_distance(b, v) for v in centers])
        assert np.all(got >= 0)
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(distance_vector(b, make_assignment(centers)) - want) <= bound)
        cfg = LossConfig(beta=1.0, gamma=0.0, lam=0.0)
        for v, d in zip(centers, want):
            central = total_loss(b[None], [make_assignment(v)], [np.ones(1)], cfg)[1]["central"]
            assert abs(central - np.logaddexp(0.0, d)) <= bound


class TestDistanceMatrix:
    def test_matches_distance_vector_per_sample(self):
        # the matrix form sums the same logs in another order
        rng = np.random.default_rng(17)
        for k, m in ((8, 3), (32, 16), (64, 80)):
            center_set = generate_centers(k, m, seed=k)
            codes = rng.uniform(0.0, 1.0, size=(20, k))
            codes[0, : k // 2] = [0.0, 1.0] * (k // 4)  # clamped at the ends
            got = distance_matrix(codes, (center_set.centers + 1.0) / 2.0)
            labels = np.ones(m, dtype=np.int8)
            a = assignment_for_labels(center_set, labels)
            for i, b in enumerate(codes):
                np.testing.assert_allclose(got[i], distance_vector(b, a), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance_matrix(np.full((2, 3), 0.5), np.zeros((4, 2)))

    def test_per_row_centers_match_per_row_calls(self):
        rng = np.random.default_rng(23)
        for b_rows, p, k in ((1, 1, 1), (5, 3, 8), (20, 7, 33), (64, 4, 64)):
            codes = rng.uniform(0.0, 1.0, size=(b_rows, k))
            codes[rng.uniform(size=codes.shape) < 0.1] = 1.0  # clamped
            centers = rng.integers(0, 2, size=(b_rows, p, k)).astype(np.float64)
            got = distance_matrix(codes, centers)
            assert got.shape == (b_rows, p)
            for i in range(b_rows):
                want = distance_matrix(codes[i], centers[i])[0]
                np.testing.assert_allclose(got[i], want, rtol=1e-12)

    @pytest.mark.parametrize("centers_rows", [1, 3, 5])
    def test_per_row_centers_for_another_batch_are_refused(self, centers_rows):
        with pytest.raises(ValueError, match="do not match centers"):
            distance_matrix(np.full((4, 3), 0.5), np.zeros((centers_rows, 2, 3)))

    def test_distance_vector_length_mismatch(self):
        with pytest.raises(ValueError, match="code length"):
            distance_vector([0.5, 0.5, 0.5], make_assignment([[1.0, 0.0]]))


class TestAssignmentForLabels:
    def test_wrong_length_label_vector_is_config_error(self):
        with pytest.raises(ConfigError, match="label vector length"):
            assignment_for_labels(generate_centers(8, 4, seed=0), [1, 0, 1])

    def test_no_positive_label_is_refused(self):
        with pytest.raises(ValueError, match="no positive label"):
            assignment_for_labels(generate_centers(8, 4, seed=0), [0, 0, 0, 0])


class TestWeightedDistance:
    def test_single_center_reduces_to_bce(self):
        b = np.array([0.8, 0.3, 0.6])
        center = np.array([1.0, 0.0, 1.0])
        a = make_assignment(center)
        assert weighted_distance(b, a, [1.0]) == pytest.approx(
            bce_distance(b, center)
        )

    def test_constant_distances_any_weights(self):
        # complementary centers give equal distance at b = 0.5
        b = np.full(4, 0.5)
        a = make_assignment([[1, 0, 1, 0], [0, 1, 0, 1]])
        for w in ([0.5, 0.5], [0.9, 0.1], [0.0, 1.0]):
            assert weighted_distance(b, a, w) == pytest.approx(4 * math.log(2))

    def test_direct_arithmetic(self):
        a = make_assignment([[1.0], [0.0]])
        d = distance_vector(np.array([0.6]), a)
        w = np.array([0.75, 0.25])
        assert weighted_distance(np.array([0.6]), a, w) == pytest.approx(
            0.75 * d[0] + 0.25 * d[1]
        )
        # the stated d=(1,3), w=(0.75,0.25) combination
        assert 0.75 * 1 + 0.25 * 3 == pytest.approx(1.5)

    def test_lower_bound_by_min_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = 8
            b = rng.uniform(0.01, 0.99, k)
            a = make_assignment(rng.integers(0, 2, size=(3, k)).astype(float))
            w = rng.dirichlet(np.ones(3))
            d = distance_vector(b, a)
            assert weighted_distance(b, a, w) >= d.min() - 1e-12

    def test_dimension_mismatch(self):
        a = make_assignment([[1.0, 0.0]])
        with pytest.raises(ValueError):
            weighted_distance([0.5, 0.5], a, [0.5, 0.5])


class TestCentralLoss:
    def test_zero_distance_batch(self):
        # b equal to the center: omega ~ 0, each sample contributes log 2
        k = 6
        cfg = LossConfig(beta=1.0)
        center = np.ones(k)
        codes = np.tile(center, (3, 1))
        assignments = [make_assignment(center)] * 3
        weights = [np.array([1.0])] * 3
        value = total_loss(codes, assignments, weights, cfg)[1]["central"]
        assert value == pytest.approx(3 * math.log(2), rel=1e-4)

    def test_single_sample_log_three(self):
        # craft omega = log 3 via a one-bit code: -log b = log 3 => b = 1/3
        cfg = LossConfig(beta=1.0)
        codes = np.array([[1.0 / 3.0]])
        assignments = [make_assignment([[1.0]])]
        weights = [np.array([1.0])]
        value = total_loss(codes, assignments, weights, cfg)[1]["central"]
        assert value == pytest.approx(math.log(4), rel=1e-9)

    def test_monotone_in_distance(self):
        cfg = LossConfig(beta=0.5)
        a = [make_assignment([[1.0, 1.0]])]
        w = [np.array([1.0])]
        worse = total_loss(np.array([[0.6, 0.6]]), a, w, cfg)[1]["central"]
        better = total_loss(np.array([[0.9, 0.9]]), a, w, cfg)[1]["central"]
        assert worse > better

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            total_loss(np.empty((0, 4)), [], [], LossConfig())


class TestQuantizationLoss:
    def test_binary_codes_incur_zero(self):
        codes = np.array([[0.0, 1.0, 1.0, 0.0]])
        assert quantization_loss(codes) == pytest.approx(0.0, abs=1e-10)

    def test_half_point_value(self):
        per_bit = math.log(math.cosh(-1.0))
        assert per_bit == pytest.approx(0.4338, abs=1e-4)
        codes = np.full((2, 3), 0.5)
        assert quantization_loss(codes) == pytest.approx(6 * per_bit)

    def test_monotone_toward_binary(self):
        values = [quantization_loss(np.array([[b]])) for b in (0.5, 0.6, 0.8, 0.99)]
        assert all(a > b for a, b in zip(values, values[1:]))
        values = [quantization_loss(np.array([[b]])) for b in (0.5, 0.4, 0.2, 0.01)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        assert quantization_loss(rng.uniform(0, 1, size=(10, 8))) >= 0

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            quantization_loss(np.empty((0, 4)))


class TestTotalLoss:
    def test_ablated_equals_central(self):
        rng = np.random.default_rng(3)
        codes, assignments, weights = random_batch(rng, 5, 8, 3)
        cfg = LossConfig(beta=0.1, gamma=0.0, lam=0.0)
        value, parts = total_loss(codes, assignments, weights, cfg)
        assert value == pytest.approx(parts["central"])

    def test_uniform_weights_entropy_contribution(self):
        k, n = 8, 4
        center_set = generate_centers(k, 4, seed=0)
        rng = np.random.default_rng(4)
        codes = rng.uniform(0.2, 0.8, size=(n, k))
        labels = np.zeros(4, dtype=np.int8)
        labels[:2] = 1
        assignments = [assignment_for_labels(center_set, labels)] * n
        weights = [np.array([0.5, 0.5])] * n
        cfg = LossConfig(beta=0.1, gamma=0.05, lam=0.7)
        _, parts = total_loss(codes, assignments, weights, cfg)
        assert parts["entropy"] == pytest.approx(n * -math.log(2))

    def test_decomposition_recombines(self):
        rng = np.random.default_rng(5)
        codes, assignments, weights = random_batch(rng, 6, 16, 4)
        cfg = LossConfig(beta=0.1, gamma=0.05, lam=0.01)
        value, parts = total_loss(codes, assignments, weights, cfg)
        recombined = (
            parts["central"]
            + cfg.gamma * parts["quantization"]
            + cfg.lam * parts["entropy"]
        )
        assert value == recombined

    def test_finite_on_saturated_codes(self):
        center_set = generate_centers(8, 4, seed=1)
        labels = np.zeros(4, dtype=np.int8)
        labels[0] = 1
        a = assignment_for_labels(center_set, labels)
        codes = np.array([np.where(center_set.centers[0] > 0, 1.0, 0.0)])
        cfg = LossConfig()
        value, parts = total_loss(codes, [a], [np.array([1.0])], cfg)
        assert np.isfinite(value)
        grad = loss_gradient_wrt_codes(codes, [a], [np.array([1.0])], cfg)
        assert np.all(np.isfinite(grad))


class TestOneObjectiveForBothSteps:
    def test_central_and_entropy_parts_sum_the_weight_objective(self):
        """The code step and the weight step minimize one objective: per
        sample, softplus(beta * w.d) + lam * sum_j w_j log w_j is the F
        that the weight solver minimizes, floor clamp included."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, k = int(rng.integers(1, 9)), int(rng.choice([4, 16, 33]))
            codes, assignments, weights = random_batch(rng, n, k, 6)
            codes = rng.uniform(0.0, 1.0, size=(n, k))
            saturated = rng.uniform(size=(n, k)) < 0.1
            codes[saturated] = rng.integers(0, 2, size=int(saturated.sum()))
            for w in weights:
                if w.size > 1 and rng.uniform() < 0.3:
                    w[0] = 0.0
                    w /= w.sum()
            beta = float(rng.choice([0.01, 0.1, 1.0]))
            lam = float(rng.choice([0.0, 0.01, 4.0]))
            _, parts = total_loss(codes, assignments, weights, LossConfig(beta=beta, lam=lam))
            solver = WeightSolverConfig(lam=lam, beta=beta)
            want = sum(
                _row_objectives(w, distance_matrix(b[None], a.centers01)[0], True, solver)
                for b, a, w in zip(codes, assignments, weights)
            )
            got = parts["central"] + lam * parts["entropy"]
            assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestEnvelope:
    def test_code_gradient_is_the_derivative_of_the_solved_objective(self):
        """Danskin: with exact-mode weights w*(b), the code gradient at
        fixed w* equals the derivative of J*(b) = min_w J(b, w), so exact-
        mode training is gradient descent on one function of the codes.
        Each central difference re-solves the weights. Codes are sigmoids
        of logits scaled by min(1, lam / beta), which keeps every weight
        above WEIGHT_FLOOR: below it the clamped entropy is not smooth."""
        rng = np.random.default_rng(17)
        k, m, n, h = 16, 8, 4, 1e-6
        for seed in range(50):
            centers01 = (generate_centers(k, m, seed).centers + 1.0) / 2.0
            mask = np.zeros((n, m), dtype=bool)
            for row in mask:
                row[rng.choice(m, size=int(rng.integers(1, 5)), replace=False)] = True
            lam, beta = float(rng.choice([0.1, 1.0, 4.0])), float(rng.choice([0.1, 1.0]))
            cfg = LossConfig(beta=beta, gamma=0.05, lam=lam)
            solver = WeightSolverConfig(lam=lam, beta=beta, gradient_mode="exact")
            logits = rng.uniform(0.05, 1.0, size=(n, k)) * rng.choice([-1.0, 1.0], size=(n, k))
            codes = expit(min(1.0, lam / beta) * logits)

            d = distance_matrix(codes, centers01)
            w = solve_weights_batch(d, mask, solver)
            grad = _loss_and_gradient(codes, d, w, mask, centers01, cfg)[2]
            assert w[mask].min() > WEIGHT_FLOOR
            # every entry moved by +h, then by -h: 2 n k copies of the batch,
            # their weights solved in one call (rows are solved independently)
            steps = h * np.eye(n * k).reshape(n * k, n, k)
            copies = np.concatenate([codes + steps, codes - steps])
            d = distance_matrix(copies.reshape(-1, k), centers01).reshape(-1, n, m)
            w = solve_weights_batch(d.reshape(-1, m), np.tile(mask, (len(copies), 1)), solver)
            j_star = [
                _loss_and_gradient(b, d_b, w_b, mask, centers01, cfg)[0]
                for b, d_b, w_b in zip(copies, d, w.reshape(d.shape))
            ]
            fd = (np.subtract(*np.split(np.array(j_star), 2)) / (2 * h)).reshape(n, k)
            assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        step = 1e-6
        for trial in range(8):
            k = int(rng.choice([8, 12, 16]))
            codes, assignments, weights = random_batch(rng, 3, k, 4, m=8)
            cfg = LossConfig(
                beta=float(rng.choice([0.01, 0.1, 1.0])),
                gamma=0.05,
                lam=0.01,
            )
            grads = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
            flat_idx = [
                (i, j)
                for i in range(codes.shape[0])
                for j in range(codes.shape[1])
            ]
            for i, j in flat_idx[:: max(1, len(flat_idx) // 12)]:
                up, down = codes.copy(), codes.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (
                    total_loss(up, assignments, weights, cfg)[0]
                    - total_loss(down, assignments, weights, cfg)[0]
                ) / (2 * step)
                assert grads[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_quantization_subgradient_zero_at_half(self):
        cfg = LossConfig(beta=0.1, gamma=0.05, lam=0.0)
        k = 4
        codes = np.full((1, k), 0.5)
        a = [make_assignment(np.ones((1, k)))]
        w = [np.array([1.0])]
        only_quant = LossConfig(beta=0.1, gamma=1.0, lam=0.0)
        g_full = loss_gradient_wrt_codes(codes, a, w, only_quant)
        g_central = loss_gradient_wrt_codes(codes, a, w, LossConfig(beta=0.1, gamma=0.0))
        np.testing.assert_allclose(g_full, g_central)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        codes, assignments, weights = random_batch(rng, 4, 8, 3)
        cfg = LossConfig()
        a = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
        b = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
        np.testing.assert_array_equal(a, b)


def reference_entropy(w):
    """sum_j w_j log w_j with each weight clamped at the floor."""
    wc = np.maximum(np.asarray(w, dtype=np.float64), WEIGHT_FLOOR)
    return float(np.sum(wc * np.log(wc)))


def reference_loss_and_gradient(codes, assignments, weights, cfg):
    """The objective and its code gradient evaluated one sample at a time,
    straight from the formulas. Returns the total, the parts, the (n, K)
    gradient and, per gradient entry, the sum of the magnitudes of the
    terms it adds up (the scale its rounding error is relative to)."""
    central, entropy = 0.0, 0.0
    grads, magnitudes = np.empty(codes.shape), np.empty(codes.shape)
    for i, (a, w) in enumerate(zip(assignments, weights)):
        b = np.clip(codes[i], CODE_EPS, 1.0 - CODE_EPS)
        v = a.centers01
        w = np.asarray(w, dtype=np.float64)
        d = -(v @ np.log(b) + (1.0 - v) @ np.log(1.0 - b))
        per_bit = (b[None, :] - v) / (b * (1.0 - b))[None, :]
        omega = float(np.dot(w, d))
        central += float(np.logaddexp(0.0, cfg.beta * omega))
        scale = cfg.beta * expit(cfg.beta * omega)
        coef = scale * w
        g = scale * (w @ (b[None, :] - v)) / (b * (1.0 - b))
        s = 2.0 * b - 1.0
        quant = cfg.gamma * 2.0 * np.sign(s) * np.tanh(np.abs(s) - 1.0)
        grads[i] = g + quant
        magnitudes[i] = np.abs(coef) @ np.abs(per_bit) + np.abs(quant)
        entropy += reference_entropy(w)
    quant = quantization_loss(codes)
    parts = {"central": central, "quantization": quant, "entropy": entropy}
    return central + cfg.gamma * quant + cfg.lam * entropy, parts, grads, magnitudes


class TestBatchedMatchesPerSampleReference:
    """The loss and gradient run over the batch's (sample, center) pairs at
    once. Summation order differs from the per-sample formulas, so values
    agree to 1e-12 relative, not bit for bit; a gradient entry is a sum of
    terms of both signs, so its error is taken relative to the sum of
    their magnitudes."""

    def test_random_ragged_batches(self):
        rng = np.random.default_rng(11)
        for trial in range(240):
            n, k = int(rng.integers(1, 9)), int(rng.choice([4, 16, 33]))
            codes, assignments, weights = random_batch(rng, n, k, 6)
            codes = rng.uniform(0.0, 1.0, size=(n, k))
            saturated = rng.uniform(size=(n, k)) < 0.1
            codes[saturated] = rng.integers(0, 2, size=int(saturated.sum()))
            cfg = LossConfig(
                beta=float(rng.choice([0.01, 0.1, 1.0])),
                gamma=float(rng.choice([0.0, 0.05, 1.0])),
                lam=float(rng.choice([0.0, 0.01, 4.0])),
            )
            want, want_parts, want_grad, magnitude = reference_loss_and_gradient(
                codes, assignments, weights, cfg
            )
            got, got_parts = total_loss(codes, assignments, weights, cfg)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            for key, value in want_parts.items():
                assert got_parts[key] == pytest.approx(value, rel=1e-12, abs=0)
            grad = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
            assert grad.shape == (n, k)
            assert np.all(np.abs(grad - want_grad) <= 1e-12 * magnitude)


def flat_batch_reference(codes, assignments, weights, cfg):
    """Test-local copy of the loss over flat (sample, center) pairs that
    the one-pass (B, P) core replaced: one row per pair, per-sample sums
    by bincount and reduceat. Returns (J, parts, dJ/db)."""
    b = np.clip(np.atleast_2d(np.asarray(codes, dtype=np.float64)), CODE_EPS, 1.0 - CODE_EPS)
    counts = [a.centers01.shape[0] for a in assignments]
    v = np.concatenate([a.centers01 for a in assignments])
    rows = np.repeat(np.arange(len(assignments)), counts)
    w = np.concatenate(weights, dtype=np.float64)
    bp = b[rows]
    wd = w * -np.sum(v * np.log(bp) + (1.0 - v) * np.log(1.0 - bp), axis=-1)
    omega = np.bincount(rows, wd, minlength=len(assignments))
    central = float(np.sum(np.logaddexp(0.0, cfg.beta * omega)))
    c = cfg.beta * w * expit(cfg.beta * omega[rows])
    per_pair = c[:, None] * (bp - v) / (bp * (1.0 - bp))
    g = np.add.reduceat(per_pair, np.searchsorted(rows, np.arange(len(b))), axis=0)
    s = 2.0 * b - 1.0
    g += cfg.gamma * 2.0 * np.sign(s) * np.tanh(np.abs(s) - 1.0)
    quant = float(np.sum(np.log(np.cosh(np.abs(s) - 1.0))))
    entropy = reference_entropy(w)
    parts = {"central": central, "quantization": quant, "entropy": entropy}
    return central + cfg.gamma * quant + cfg.lam * entropy, parts, g


@st.composite
def ragged_batches(draw):
    """A random ragged batch (codes, assignments, weights) with some bits
    saturated at the clamp, and a loss config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 12)), draw(st.sampled_from([4, 16, 33]))
    codes, assignments, weights = random_batch(rng, n, k, draw(st.integers(1, 8)))
    codes = rng.uniform(0.0, 1.0, size=(n, k))
    saturated = rng.uniform(size=(n, k)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    codes[saturated] = rng.integers(0, 2, size=int(saturated.sum()))
    cfg = LossConfig(
        beta=draw(st.sampled_from([0.01, 0.1, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.05, 1.0])),
        lam=draw(st.sampled_from([0.0, 0.01, 4.0])),
    )
    return codes, assignments, weights, cfg


class TestOnePassCoreMatchesFlatPairs:
    """The ragged API lays a batch out as (B, P) rows with per-row centers
    and runs the same one-pass core as ``train``. Against the flat-pair reference, J and
    every part agree to rtol 1e-12 and the code gradient to rtol 1e-9 /
    atol 1e-12 (summation order differs, so not bit for bit)."""

    @given(ragged_batches())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ragged_wrappers(self, batch):
        codes, assignments, weights, cfg = batch
        want, want_parts, want_grad = flat_batch_reference(codes, assignments, weights, cfg)
        got, got_parts = total_loss(codes, assignments, weights, cfg)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        for key, value in want_parts.items():
            assert got_parts[key] == pytest.approx(value, rel=1e-12, abs=0)
        grad = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-12)

    @given(ragged_batches(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_dense_label_layout_of_train(self, batch, seed):
        """train's layout: every center is a column, distances come from
        ``distance_matrix`` on and off the mask, and weights are zero off
        it."""
        codes, _, _, cfg = batch
        rng = np.random.default_rng(seed)
        n, k, m = codes.shape[0], codes.shape[1], 8
        center_set = generate_centers(k, m, seed=3)
        centers01 = (center_set.centers + 1.0) / 2.0
        mask = rng.random((n, m)) < 0.4
        mask[np.arange(n), rng.integers(0, m, size=n)] = True
        w = np.zeros((n, m))
        w[mask] = rng.uniform(0.01, 1.0, size=int(mask.sum()))
        w /= w.sum(axis=1, keepdims=True)
        b = np.clip(codes, CODE_EPS, 1.0 - CODE_EPS)
        got, got_parts, grad = _loss_and_gradient(
            b, distance_matrix(b, centers01), w, mask, centers01, cfg
        )
        assignments = [assignment_for_labels(center_set, row) for row in mask]
        want, want_parts, want_grad = flat_batch_reference(
            codes, assignments, [row[r] for row, r in zip(w, mask)], cfg
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        for key, value in want_parts.items():
            assert got_parts[key] == pytest.approx(value, rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-12)

    def test_ragged_layout_is_as_wide_as_the_widest_sample(self, monkeypatch):
        """The layout grows with the batch times its widest sample, not
        with the batch times all of its (sample, center) pairs."""
        shapes = []

        def recording(b, d, w, mask, centers01, cfg):
            shapes.append((d.shape, w.shape, mask.shape, centers01.shape))
            return _loss_and_gradient(b, d, w, mask, centers01, cfg)

        monkeypatch.setattr(icshash.loss, "_loss_and_gradient", recording)
        codes, assignments, weights = random_batch(np.random.default_rng(9), 200, 16, 3)
        widest = max(len(w) for w in weights)
        total_loss(codes, assignments, weights, LossConfig())
        loss_gradient_wrt_codes(codes, assignments, weights, LossConfig())
        assert shapes == [((200, widest),) * 3 + ((200, widest, 16),)] * 2


class TestMismatchedBatch:
    def test_disagreeing_sizes_rejected(self):
        rng = np.random.default_rng(12)
        codes, assignments, weights = random_batch(rng, 4, 8, 3)
        while len(weights[2]) == 1:
            codes, assignments, weights = random_batch(rng, 4, 8, 3)
        cases = [
            (codes, assignments, weights[:3]),  # a sample without weights
            (codes, assignments[:3], weights[:3]),  # an extra code row
            (codes[:3], assignments, weights),  # a sample without a code
            (codes, assignments, weights[:2] + [np.array([1.0])] + weights[3:]),
            (codes, assignments, weights[:2] + [np.append(weights[2], 0.0)] + weights[3:]),
            (codes[:, :6], assignments, weights),  # code shorter than its centers
        ]
        cfg = LossConfig()
        for case in cases:
            for fn in (total_loss, loss_gradient_wrt_codes):
                with pytest.raises(ValueError):
                    fn(*case, cfg)

    def test_sample_without_centers_rejected(self):
        empty = CenterAssignment(np.empty((0, 4)))
        with pytest.raises(ValueError):
            loss_gradient_wrt_codes(np.full((1, 4), 0.5), [empty], [np.empty(0)], LossConfig())


class TestLossConfig:
    def test_beta_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError):
            LossConfig(beta=1.5)
        with pytest.raises(ValueError):
            LossConfig(beta=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", math.nan),
            ("gamma", math.nan),
            ("gamma", math.inf),
            ("lam", math.nan),
            ("lam", math.inf),
        ],
    )
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            LossConfig(**{field: value})
