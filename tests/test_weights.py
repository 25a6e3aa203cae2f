"""Weight-solver tests.

Oracles: a dense grid over the simplex (brute force, small c), an
independent water-filling bisection for the projection (any c), grid
search over the simplex for the solver's limit behavior, the exact-mode
optimum from a scalar optimality condition solved by bisection, a
test-local transcription of the objective F, a test-local per-sample
paper-mode loop with its own transcription of the printed step as the
reference for paper mode, and scipy.special.expit for the logistic.
``solve_weights`` is the one-row call of ``solve_weights_batch``, so
the reference for its paper mode is that loop, not the batched solver.
"""

import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from icshash import (
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    WeightSolverConfig,
    assignment_for_labels,
    distance_vector,
    entropy_regularizer,
    generate_centers,
    generate_synthetic,
    project_rows_to_simplex,
    project_to_simplex,
    solve_weights,
    solve_weights_batch,
    train,
)
from icshash.cli import main as cli_main
from icshash.encoder import forward_batch, init_params
from icshash.weights import WEIGHT_FLOOR, _row_objectives, _sigmoid, _solve_rows


def projection_by_bisection(v, tol=1e-13):
    """Independent projection oracle: find the shift t with
    sum(max(v + t, 0)) = 1 by bisection, then clip."""
    v = np.asarray(v, dtype=np.float64)
    lo = 1.0 / v.size - v.max()  # shift putting all mass on the max coord
    hi = 1.0 / v.size - v.min() + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = np.sum(np.maximum(v + mid, 0.0))
        if total > 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return np.maximum(v + 0.5 * (lo + hi), 0.0)


def simplex_grid(c, step):
    """All grid points on the simplex with the given resolution."""
    n = round(1.0 / step)
    if c == 2:
        i = np.arange(n + 1)
        return np.column_stack([i, n - i]) / n
    if c == 3:
        pts = []
        for i in range(n + 1):
            j = np.arange(n - i + 1)
            block = np.column_stack([np.full(j.size, i), j, n - i - j])
            pts.append(block)
        return np.vstack(pts) / n
    raise NotImplementedError


def exact_optimum(d, lam, beta):
    """Independent exact-mode minimizer for lam > 0.

    Stationarity of F on the simplex gives w(s) = softmax(-beta s d / lam)
    with s = sigmoid(beta w(s).d); s - sigmoid(beta w(s).d) is strictly
    increasing in s, so its unique root in (0, 1) is found by bisection.
    """

    def weights_at(s):
        z = -beta * s * d / lam
        e = np.exp(z - z.max())
        return e / e.sum()

    lo, hi = 0.0, 1.0
    for _ in range(100):
        s = 0.5 * (lo + hi)
        if s > 1.0 / (1.0 + math.exp(-beta * float(weights_at(s) @ d))):
            hi = s
        else:
            lo = s
    return weights_at(0.5 * (lo + hi))


def objective(w, d, cfg):
    """Test-local F of one sample: softplus(beta * w.d) plus lam times
    the entropy of w clamped at WEIGHT_FLOOR."""
    w, d = np.asarray(w, dtype=np.float64), np.asarray(d, dtype=np.float64)
    wc = np.maximum(w, WEIGHT_FLOOR)
    return np.logaddexp(0.0, cfg.beta * np.sum(w * d)) + cfg.lam * np.sum(wc * np.log(wc))


def paper_step(w, d, lam):
    """Test-local printed step -w_j / (1 + exp(w_j d_j)) + lam (1 + log w_j)
    at the weights clamped to WEIGHT_FLOOR; the logistic is taken as
    1 / (1 + exp), then multiplied, as the solver rounds it."""
    wc = np.maximum(w, WEIGHT_FLOOR)
    return -wc * (1.0 / (1.0 + np.exp(wc * d))) + lam * (1.0 + np.log(wc))


def paper_reference(d, cfg, w_init=None):
    """Test-local per-sample paper-mode loop: the printed step and a
    Euclidean projection, until the relative change of F drops below
    tol. Returns (w, iterations, objective trace)."""
    w = np.full(d.size, 1.0 / d.size) if w_init is None else project_to_simplex(w_init)
    trace = [objective(w, d, cfg)]
    for t in range(1, cfg.max_iters + 1):
        w = project_to_simplex(w - cfg.eta * paper_step(w, d, cfg.lam))
        trace.append(objective(w, d, cfg))
        if abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12) < cfg.tol:
            break
    return w, t, np.array(trace)


def reference_projection(v, mask):
    """Test-local copy of the sort-based projection as it stood before
    its fast path for rows already on the simplex: every row sorted and
    cumulatively summed."""
    v = np.asarray(v, dtype=np.float64)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), v.shape)
    counts = mask.sum(axis=1)
    v = np.where(mask, v, 0.0)
    rows = np.arange(v.shape[0])
    ranks = np.arange(1, v.shape[1] + 1)
    in_row = ranks <= counts[:, None]
    q = np.where(in_row, -np.sort(np.where(mask, -v, np.inf), axis=1), 0.0)
    csum = np.cumsum(q, axis=1)
    feasible = in_row & (q + (1.0 - csum) / ranks > 0)
    rho = v.shape[1] - np.argmax(feasible[:, ::-1], axis=1)
    shift = (1.0 - csum[rows, rho - 1]) / rho
    on_simplex = np.all(v >= 0, axis=1) & (
        np.abs(csum[rows, counts - 1] - 1.0) <= 1e-12
    )
    projected = np.where(on_simplex[:, None], v, np.maximum(v + shift[:, None], 0.0))
    return np.where(mask, projected, 0.0)


def reference_exact_solve(d, mask, cfg, w_init=None):
    """Test-local copy of the exact-mode solve as it stood before it was
    made leaner: the start projected with reference_projection, then
    safeguarded Newton on the optimality root, as in the module
    docstring. Returns (w, iterations, objective trace per row)."""
    d = np.where(mask, d, 0.0)
    if w_init is None:
        w = mask / mask.sum(axis=1, keepdims=True)
    else:
        w = reference_projection(w_init, mask)
    history = [_row_objectives(w, d, mask, cfg)]
    d_min = np.min(np.where(mask, d, np.inf), axis=1, keepdims=True)
    gap = np.where(mask, d - d_min, 0.0)

    def weights_at(s):
        e = np.where(mask, np.exp(-(cfg.beta * s[:, None] * gap) / cfg.lam), 0.0)
        return e / e.sum(axis=1, keepdims=True)

    lo, hi = np.full(len(d), 0.5), np.ones(len(d))
    s = _sigmoid(cfg.beta * np.sum(w * d, axis=1))
    active = np.ones(len(d), dtype=bool)
    iterations = np.zeros(len(d), dtype=np.int64)
    iterates = []
    for _ in range(100):
        w = weights_at(s)
        omega = np.sum(w * d, axis=1)
        sig = _sigmoid(cfg.beta * omega)
        g = s - sig
        lo = np.where(g < 0, s, lo)
        hi = np.where(g > 0, s, hi)
        variance = np.sum(w * (d - omega[:, None]) ** 2, axis=1)
        newton = s - g / (1.0 + sig * (1.0 - sig) * cfg.beta**2 * variance / cfg.lam)
        inside = (lo < newton) & (newton < hi)
        s_next = np.where(g == 0, s, np.where(inside, newton, 0.5 * (lo + hi)))
        moved = np.abs(s_next - s)
        s = np.where(active, s_next, s)
        iterations += active
        iterates.append(s)
        active &= moved > 4 * np.finfo(np.float64).eps
        if not active.any():
            break
    history += [_row_objectives(weights_at(t), d, mask, cfg) for t in iterates]
    return weights_at(s), iterations, np.array(history)


def criterion_one_instances(n=1000, seed=0):
    """The acceptance suite's criterion-1 ensemble: c in [2,6],
    distances in [0, 16*log 2], entropy strength cycling {0.01, 0.1, 1}."""
    rng = np.random.default_rng(seed)
    d_max = 16 * math.log(2)
    lams = (0.01, 0.1, 1.0)
    for i in range(n):
        c = int(rng.integers(2, 7))
        yield rng.uniform(0.0, d_max, size=c), lams[i % 3]


def grid_minimizer(objective, c, step):
    grid = simplex_grid(c, step)
    values = objective(grid)
    return grid[int(np.argmin(values))]


class TestProjectToSimplex:
    def test_symmetric_point(self):
        np.testing.assert_allclose(
            project_to_simplex([0.5, 0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3]
        )

    def test_hand_traced_example(self):
        # descending q = (1.2, 0.1); the rank-2 condition fails
        # (0.1 + (1 - 1.3)/2 < 0), so only the top coordinate survives.
        np.testing.assert_allclose(project_to_simplex([1.2, 0.1]), [1.0, 0.0])

    def test_hand_example_against_dense_grid(self):
        v = np.array([1.2, 0.1])
        grid = simplex_grid(2, 1e-3)
        sq = np.sum((grid - v) ** 2, axis=1)
        best = grid[int(np.argmin(sq))]
        np.testing.assert_allclose(project_to_simplex(v), best, atol=1e-3)

    def test_identity_on_simplex_points(self):
        v = np.array([0.7, 0.2, 0.1])
        np.testing.assert_array_equal(project_to_simplex(v), v)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            c = int(rng.integers(1, 9))
            v = rng.uniform(-5, 5, size=c)
            w = project_to_simplex(v)
            oracle = projection_by_bisection(v)
            np.testing.assert_allclose(w, oracle, atol=1e-9)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-9

    def test_matches_dense_grid_small_c(self):
        rng = np.random.default_rng(7)
        for c in (2, 3):
            for _ in range(10):
                v = rng.uniform(-2, 2, size=c)
                w = project_to_simplex(v)
                grid = simplex_grid(c, 1e-3)
                sq = np.sum((grid - v) ** 2, axis=1)
                best = grid[int(np.argmin(sq))]
                np.testing.assert_allclose(w, best, atol=2e-3)

    def test_exact_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = rng.uniform(-4, 4, size=int(rng.integers(1, 8)))
            once = project_to_simplex(v)
            twice = project_to_simplex(once)
            np.testing.assert_array_equal(once, twice)

    def test_exact_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = int(rng.integers(2, 8))
            v = rng.uniform(-4, 4, size=c)
            perm = rng.permutation(c)
            np.testing.assert_array_equal(
                project_to_simplex(v[perm]), project_to_simplex(v)[perm]
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_to_simplex([np.nan, 0.0])
        with pytest.raises(ValueError):
            project_to_simplex([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_to_simplex([])

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_output_always_feasible(self, values):
        w = project_to_simplex(values)
        assert np.all(w >= 0)
        assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-9

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_and_equivariant_property(self, values, rnd):
        v = np.array(values)
        once = project_to_simplex(v)
        np.testing.assert_array_equal(project_to_simplex(once), once)
        perm = list(range(v.size))
        rnd.shuffle(perm)
        perm = np.array(perm)
        np.testing.assert_array_equal(
            project_to_simplex(v[perm]), project_to_simplex(v)[perm]
        )


class TestSigmoid:
    def test_matches_scipy_expit(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        ours, ref = _sigmoid(x), expit(x)
        # Both compute 1 / (1 + exp(-x)). numpy's exp rounds differently
        # from the C library's on about 4% of inputs (by 1 ulp), and the
        # add and divide after it can widen that to 4 ulps of the result,
        # the largest gap seen over 16 million random points.
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))
        assert np.mean(ours == ref) > 0.95

    def test_extremes_are_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigmoid(-800.0) == 0.0
            assert _sigmoid(800.0) == 1.0
            np.testing.assert_array_equal(_sigmoid(np.array([-800.0, 800.0])), [0.0, 1.0])

    def test_scalar_stays_scalar(self):
        assert np.ndim(_sigmoid(0.25)) == 0
        assert float(_sigmoid(0.0)) == 0.5

    def test_in_place_equals_a_fresh_result_bit_for_bit(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        fresh, into = _sigmoid(x), x.copy()
        assert _sigmoid(into, out=into) is into
        assert into.tobytes() == fresh.tobytes()
        for scalar in (0.25, np.float64(-800.0), np.float64(800.0)):
            assert type(_sigmoid(scalar)) is np.float64


class TestEntropyRegularizer:
    def test_uniform_four(self):
        assert entropy_regularizer([0.25] * 4) == pytest.approx(-math.log(4))

    def test_one_hot_is_near_zero(self):
        value = entropy_regularizer([1.0, 0.0, 0.0])
        assert abs(value) < 1e-6

    def test_two_point_uniform(self):
        assert entropy_regularizer([0.5, 0.5]) == pytest.approx(-math.log(2))

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(1, 8))
            w = rng.dirichlet(np.ones(c))
            r = entropy_regularizer(w)
            assert -math.log(c) - 1e-9 <= r <= 1e-6


class TestPaperStep:
    def test_paper_formula_at_unit_weight(self):
        for d in (0.0, 1.0, 5.0):
            g = paper_step(np.array([1.0]), np.array([d]), 0.0)
            assert g[0] == pytest.approx(-1.0 / (1.0 + math.exp(d)))


class TestSolveWeights:
    def test_symmetric_distances_stay_uniform(self):
        for mode in ("paper", "exact"):
            cfg = WeightSolverConfig(lam=0.5, gradient_mode=mode)
            result = solve_weights(np.array([5.0, 5.0, 5.0]), cfg)
            np.testing.assert_allclose(result.w, 1 / 3, atol=1e-9)

    def test_small_entropy_concentrates_on_argmin(self):
        cfg = WeightSolverConfig(lam=1e-4, beta=1.0, gradient_mode="exact")
        result = solve_weights(np.array([1.0, 10.0, 10.0]), cfg)
        np.testing.assert_allclose(result.w, [1.0, 0.0, 0.0], atol=0.01)

    def test_small_entropy_agrees_with_grid_search(self):
        d = np.array([1.0, 10.0, 10.0])
        cfg = WeightSolverConfig(lam=1e-4, beta=1.0, gradient_mode="exact")
        result = solve_weights(d, cfg)
        grid = simplex_grid(3, 1e-3)
        omegas = grid @ d
        wc = np.maximum(grid, WEIGHT_FLOOR)
        values = np.logaddexp(0.0, cfg.beta * omegas) + cfg.lam * np.sum(
            wc * np.log(wc), axis=1
        )
        best = grid[int(np.argmin(values))]
        np.testing.assert_allclose(result.w, best, atol=0.01)

    def test_large_entropy_returns_near_uniform(self):
        d = np.array([1.0, 10.0, 10.0])
        cfg = WeightSolverConfig(lam=100.0, beta=1.0, gradient_mode="exact")
        result = solve_weights(d, cfg)
        np.testing.assert_allclose(result.w, 1 / 3, atol=0.05)
        grid = simplex_grid(3, 1e-3)
        omegas = grid @ d
        wc = np.maximum(grid, WEIGHT_FLOOR)
        values = np.logaddexp(0.0, cfg.beta * omegas) + cfg.lam * np.sum(
            wc * np.log(wc), axis=1
        )
        best = grid[int(np.argmin(values))]
        np.testing.assert_allclose(result.w, best, atol=0.05)

    def test_weighted_distance_bound(self):
        # sum_j w_j d_j >= min_j d_j for any simplex w
        rng = np.random.default_rng(23)
        for mode in ("paper", "exact"):
            for _ in range(200):
                c = int(rng.integers(2, 7))
                d = rng.uniform(0, 16 * math.log(2), size=c)
                cfg = WeightSolverConfig(
                    lam=float(rng.choice([0.01, 0.1, 1.0])), gradient_mode=mode
                )
                result = solve_weights(d, cfg)
                assert float(result.w @ d) >= d.min() - 1e-9

    def test_exact_mode_trace_non_increasing(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            d = rng.uniform(0, 16 * math.log(2), size=c)
            cfg = WeightSolverConfig(
                lam=float(rng.choice([0.01, 0.1, 1.0])),
                eta=float(rng.choice([0.01, 0.1])),
                gradient_mode="exact",
            )
            trace = solve_weights(d, cfg).objective_trace
            diffs = np.diff(trace[1:])
            assert np.all(diffs <= 1e-9)

    def test_trace_starts_at_initial_objective(self):
        d = np.array([2.0, 4.0])
        cfg = WeightSolverConfig(gradient_mode="exact")
        result = solve_weights(d, cfg)
        w0 = np.array([0.5, 0.5])
        assert result.objective_trace[0] == pytest.approx(
            objective(w0, d, cfg)
        )
        assert len(result.objective_trace) == result.iterations + 1

    def test_warm_start(self):
        d = np.array([1.0, 5.0, 9.0])
        cfg = WeightSolverConfig(lam=0.01, gradient_mode="exact")
        cold = solve_weights(d, cfg)
        warm = solve_weights(d, cfg, w_init=cold.w)
        np.testing.assert_allclose(warm.w, cold.w, atol=1e-6)
        assert warm.iterations <= cold.iterations

    def test_warm_start_with_zero_coordinate_reaches_cold_optimum(self):
        # The cold optimum puts ~95% of the mass on the first center; a
        # start with exactly zero there must still reach it.
        d = np.array([1.0, 5.0, 9.0])
        cfg = WeightSolverConfig(lam=1.0, gradient_mode="exact")
        cold = solve_weights(d, cfg)
        assert cold.w[0] > 0.9
        for w_init in ([0.0, 0.5, 0.5], [0.0, 2.0, -1.0]):
            warm = solve_weights(d, cfg, w_init=w_init)
            np.testing.assert_allclose(warm.w, cold.w, atol=1e-4)
            assert warm.objective_trace[-1] == pytest.approx(
                cold.objective_trace[-1], abs=1e-6
            )

    def test_exact_mode_reaches_optimum_on_criterion_one_ensemble(self):
        # Converging fast is only worth something if the solver stops at
        # the minimizer, not merely where its steps become small.
        worst = -math.inf
        for d, lam in criterion_one_instances():
            cfg = WeightSolverConfig(lam=lam, eta=0.1, gradient_mode="exact")
            result = solve_weights(d, cfg)
            best = objective(exact_optimum(d, lam, cfg.beta), d, cfg)
            gap = float(result.objective_trace[-1]) - best
            # the weight floor lets the solver undercut the unclamped
            # optimum, but only by about lam * c * floor * |log floor|
            assert gap >= -1e-6
            worst = max(worst, gap)
        assert worst <= 1e-5

    def test_single_center(self):
        result = solve_weights(np.array([3.0]), WeightSolverConfig())
        np.testing.assert_array_equal(result.w, [1.0])

    def test_no_config_is_the_default_config(self):
        d = np.random.default_rng(31).uniform(0.0, 20.0, size=7)
        got, want = solve_weights(d), solve_weights(d, WeightSolverConfig())
        np.testing.assert_array_equal(got.w, want.w)
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.objective_trace, want.objective_trace)

    def test_empty_distances_rejected(self):
        with pytest.raises(ValueError):
            solve_weights(np.array([]), WeightSolverConfig())

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            solve_weights(np.array([-1.0, 2.0]), WeightSolverConfig())

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    def test_misshaped_warm_start_names_both_shapes(self, mode):
        cfg = WeightSolverConfig(gradient_mode=mode)
        message = r"w_init has shape \({0}, 2\), distances have shape \({0}, 3\)"
        with pytest.raises(ValueError, match=message.format(1)):
            solve_weights([1.0, 2.0, 3.0], cfg, w_init=[0.5, 0.5])
        with pytest.raises(ValueError, match=message.format(2)):
            solve_weights_batch(
                np.ones((2, 3)), np.ones((2, 3), dtype=bool), cfg,
                w_init=np.full((2, 2), 0.5),
            )


class TestOneRowCall:
    """``solve_weights`` is the one-row call of ``solve_weights_batch``."""

    @staticmethod
    def _instances(n, seed):
        rng = np.random.default_rng(seed)
        for i in range(n):
            c = int(rng.integers(1, 7))
            d = rng.uniform(0.0, 16 * math.log(2), size=c)
            w_init = rng.dirichlet(np.ones(c)) if i % 2 else None
            yield d, (0.0, 0.01, 0.1, 1.0, 4.0)[i % 5], w_init

    def test_exact_mode_is_row_zero_of_the_batch(self):
        for d, lam, w_init in self._instances(300, 41):
            cfg = WeightSolverConfig(lam=lam, gradient_mode="exact")
            one = solve_weights(d, cfg, w_init=w_init)
            batch = solve_weights_batch(
                d[None], np.ones((1, d.size), dtype=bool), cfg,
                w_init=None if w_init is None else w_init[None],
            )
            np.testing.assert_array_equal(one.w, batch[0])
            assert len(one.objective_trace) == one.iterations + 1
            assert one.objective_trace[-1] == _row_objectives(one.w, d, True, cfg)

    def test_exact_mode_ignores_eta_max_iters_and_tol(self):
        for d, lam, w_init in self._instances(150, 43):
            cfg = WeightSolverConfig(lam=lam, gradient_mode="exact")
            base = solve_weights(d, cfg, w_init)
            for knob in ({"eta": 1e-3}, {"eta": 10.0}, {"max_iters": 1}, {"tol": 0.5}):
                other = solve_weights(d, replace(cfg, **knob), w_init)
                np.testing.assert_array_equal(other.w, base.w)
                assert other.iterations == base.iterations
                np.testing.assert_array_equal(other.objective_trace, base.objective_trace)

    def test_zero_entropy_takes_one_iteration_to_the_tied_minima(self):
        d = np.array([2.0, 1.0, 1.0, 3.0])
        cfg = WeightSolverConfig(lam=0.0, gradient_mode="exact")
        result = solve_weights(d, cfg)
        np.testing.assert_array_equal(result.w, [0.0, 0.5, 0.5, 0.0])
        assert result.iterations == 1
        np.testing.assert_array_equal(
            result.objective_trace,
            [_row_objectives(w, d, True, cfg) for w in (np.full(4, 0.25), result.w)],
        )

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_solve_weights_command_writes_the_exact_optimum(self, tmp_path, lam):
        rng = np.random.default_rng(17)
        vectors = [
            rng.uniform(0.0, 16 * math.log(2), size=int(rng.integers(1, 7)))
            for _ in range(50)
        ]
        distances, out = tmp_path / "d.txt", tmp_path / "w.csv"
        lines = [" ".join(map(repr, d.tolist())) for d in vectors]
        distances.write_text("\n".join(lines) + "\n")
        assert cli_main(
            ["solve-weights", "--distances", str(distances), "--out", str(out),
             "--gradient-mode", "exact", "--lambda", str(lam)]
        ) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(vectors)
        cfg = WeightSolverConfig(lam=lam, gradient_mode="exact")
        for row, d in zip(rows, vectors):
            w = np.array([float(v) for v in row["weights"].split(";")])
            best = objective(exact_optimum(d, lam, cfg.beta), d, cfg)
            assert abs(objective(w, d, cfg) - best) <= 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"tol": 0.0},
            {"lam": -1.0},
            {"beta": 0.0},
            {"max_iters": 0},
            {"gradient_mode": "newton"},
            {"max_iters": 2.5},
            {"lam": math.nan},
            {"lam": math.inf},
            {"eta": math.nan},
            {"eta": math.inf},
            {"beta": math.nan},
            {"beta": math.inf},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_iters": math.nan},
        ],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WeightSolverConfig(**kwargs)


@st.composite
def masked_batches(draw):
    """A ragged batch as (B, M) distances and a label mask with at least
    one center per row. Half the batches draw distances from a few
    values so that rows hold ties; entries off the mask are nan, which
    the solver must never read."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, m = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    mask = rng.random((b, m)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    mask[np.arange(b), rng.integers(0, m, size=b)] = True
    if draw(st.booleans()):
        d = rng.integers(0, 4, size=(b, m)) * 2.5
    else:
        d = rng.uniform(0.0, 16 * math.log(2), size=(b, m))
    return np.where(mask, d, np.nan), mask, rng


def random_warm_start(rng, mask):
    return np.where(mask, rng.dirichlet(np.ones(mask.shape[1]), size=mask.shape[0]), 0.0)


BATCH_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestSolveWeightsBatch:
    @given(
        masked_batches(),
        st.sampled_from([0.01, 0.1, 1.0, 4.0]),
        st.sampled_from([0.1, 1.0]),
        st.booleans(),
    )
    @BATCH_SETTINGS
    def test_exact_rows_reach_the_optimum(self, batch, lam, beta, warm):
        d, mask, rng = batch
        cfg = WeightSolverConfig(lam=lam, beta=beta, gradient_mode="exact")
        w_init = random_warm_start(rng, mask) if warm else None
        w = solve_weights_batch(d, mask, cfg, w_init=w_init)
        assert np.all(w[~mask] == 0.0)
        for row, row_mask, row_d in zip(w, mask, d):
            di = row_d[row_mask]
            best = objective(exact_optimum(di, lam, beta), di, cfg)
            assert abs(objective(row[row_mask], di, cfg) - best) <= 1e-9
            assert abs(math.fsum(row.tolist()) - 1.0) <= 1e-12
            if di.size == 1:
                assert row[row_mask][0] == 1.0

    @given(masked_batches(), st.sampled_from([0.1, 1.0]))
    @BATCH_SETTINGS
    def test_zero_entropy_splits_over_tied_minima(self, batch, beta):
        d, mask, rng = batch
        cfg = WeightSolverConfig(lam=0.0, beta=beta, gradient_mode="exact")
        w = solve_weights_batch(d, mask, cfg, w_init=random_warm_start(rng, mask))
        for row, row_mask, row_d in zip(w, mask, d):
            ties = row_mask & (row_d == np.min(row_d[row_mask]))
            np.testing.assert_array_equal(row, np.where(ties, 1.0 / ties.sum(), 0.0))

    @given(
        masked_batches(),
        st.sampled_from([0.0, 0.01, 0.1, 1.0, 4.0]),
        st.sampled_from([0.01, 0.1, 1.0]),
    )
    @BATCH_SETTINGS
    def test_paper_rows_match_per_sample_solves(self, batch, lam, eta):
        d, mask, rng = batch
        cfg = WeightSolverConfig(lam=lam, eta=eta, gradient_mode="paper")
        w_init = random_warm_start(rng, mask)
        w = solve_weights_batch(d, mask, cfg, w_init=w_init)
        assert np.all(w[~mask] == 0.0)
        for row, row_mask, row_d, row_init in zip(w, mask, d, w_init):
            ref_w, ref_iterations, ref_trace = paper_reference(
                row_d[row_mask], cfg, w_init=row_init[row_mask]
            )
            np.testing.assert_allclose(row[row_mask], ref_w, rtol=0, atol=1e-12)
            one = solve_weights(row_d[row_mask], cfg, w_init=row_init[row_mask])
            np.testing.assert_array_equal(one.w, ref_w)
            assert one.iterations == ref_iterations
            np.testing.assert_array_equal(one.objective_trace, ref_trace)

    def test_rejects_bad_batches(self):
        cfg = WeightSolverConfig(gradient_mode="exact")
        mask = np.array([[True, False], [True, True]])
        with pytest.raises(ValueError):
            solve_weights_batch(np.ones((2, 2)), [[True, False], [False, False]], cfg)
        with pytest.raises(ValueError):
            solve_weights_batch(np.array([[1.0, 0.0], [1.0, -1.0]]), mask, cfg)
        with pytest.raises(ValueError):
            solve_weights_batch(np.array([[1.0, 0.0], [1.0, np.inf]]), mask, cfg)
        with pytest.raises(ValueError):
            solve_weights_batch(np.ones((2, 3)), mask, cfg)


def warm_starts(rng, mask, kind):
    """A (B, M) start: "dirichlet" rows on the simplex, "off" rows off it
    (negative entries and sums far from 1), or "near" rows on the
    simplex but for one entry moved by about 1e-12, so that their sums
    fall on either side of the projection's feasibility tolerance."""
    w = random_warm_start(rng, mask)
    if kind == "off":
        return np.where(mask, rng.uniform(-1.0, 2.0, size=mask.shape), 0.0)
    if kind == "near":
        eps = np.finfo(np.float64).eps
        ulps = rng.integers(-40, 41, size=len(w))
        shift = rng.choice([-1.0, 1.0], size=len(w)) * (1e-12 + ulps * eps)
        w[np.arange(len(w)), np.argmax(w, axis=1)] += shift
    return w


class TestExactSolveBitForBit:
    """The exact solve returns the bytes of reference_exact_solve: the
    projection's fast path and the leaner Newton loop change no value."""

    @given(
        masked_batches(),
        st.sampled_from([1e-300, 0.01, 4.0]),
        st.sampled_from([5e-324, 0.1, 1.0]),
        st.sampled_from(["cold", "dirichlet", "off", "near"]),
    )
    @BATCH_SETTINGS
    def test_batch_and_one_row_calls_match_the_reference(self, batch, lam, beta, start):
        d, mask, rng = batch
        cfg = WeightSolverConfig(lam=lam, beta=beta, gradient_mode="exact")
        w_init = None if start == "cold" else warm_starts(rng, mask, start)
        ref_w, ref_iterations, ref_history = reference_exact_solve(d, mask, cfg, w_init)
        assert solve_weights_batch(d, mask, cfg, w_init=w_init).tobytes() == ref_w.tobytes()
        w, iterations, history = _solve_rows(d, mask, cfg, w_init, traced=True)
        assert w.tobytes() == ref_w.tobytes()
        np.testing.assert_array_equal(iterations, ref_iterations)
        assert history.tobytes() == ref_history.tobytes()
        for r, row_mask in enumerate(mask):
            one_init = None if w_init is None else w_init[r, row_mask]
            one = solve_weights(d[r, row_mask], cfg, w_init=one_init)
            row_w, row_iterations, row_history = reference_exact_solve(
                d[r : r + 1, row_mask], np.ones((1, row_mask.sum()), dtype=bool), cfg,
                None if one_init is None else one_init[None],
            )
            # a padded batch row may round differently from its own solve
            assert one.w.tobytes() == row_w[0].tobytes()
            assert one.iterations == row_iterations[0]
            trace = row_history[: row_iterations[0] + 1, 0]
            assert one.objective_trace.tobytes() == trace.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_refused(self, bad):
        cfg = WeightSolverConfig(gradient_mode="exact")
        w_init = np.array([[0.5, 0.5, 0.0], [bad, 0.25, 0.75]])
        mask = np.array([[True, True, False], [True, True, True]])
        with pytest.raises(ValueError, match="projection input must be finite"):
            solve_weights_batch(np.ones((2, 3)), mask, cfg, w_init=w_init)
        with pytest.raises(ValueError, match="projection input must be finite"):
            solve_weights([1.0, 2.0, 3.0], cfg, w_init=w_init[1])

    def test_projection_fast_path_keeps_the_reference_bytes(self):
        # rows on the simplex, a -0.0 entry, sums 1 +- 1e-12 and one ulp
        # beyond, a row whose natural-order sum is within 1e-12 of 1 but
        # whose sorted sum is not, one summing to 1 with a negative
        # entry, and one off the simplex
        eps = np.finfo(np.float64).eps
        v = np.array(
            [
                [0.25, 0.25, 0.5, 0.0],
                [0.5, -0.0, 0.5, 0.0],
                [0.5 + 1e-12, 0.25, 0.25, 0.0],
                [0.5 - 1e-12, 0.25, 0.25, 0.0],
                [0.5 + 1e-12 + eps, 0.25, 0.25, 0.0],
                [0.06488360757746026, 0.09433380215896464, 0.840782590264575, 0.0],
                [1.5, -0.5, 0.0, 0.0],
                [0.6, 0.6, 0.1, 0.0],
            ]
        )
        for rows in (v[:2], v[2:4], v[4:5], v[5:6], v[6:7], v):
            for mask in (True, rows != 0):
                out = project_rows_to_simplex(rows, mask)
                assert out.tobytes() == reference_projection(rows, mask).tobytes()


class TestWidelySpreadDistances:
    """Finite distances too far apart to square or divide without
    overflow: the exact solve reports no warning (the suite turns one
    into an error) and a far center costs no extra Newton steps."""

    def test_a_far_center_takes_the_steps_of_a_near_one(self):
        cfg = WeightSolverConfig(lam=4.0, beta=1.0, gradient_mode="exact")
        far, near = solve_weights([0.0, 1e200, 5.0], cfg), solve_weights([0.0, 1e154, 5.0], cfg)
        assert far.iterations == near.iterations == 4
        assert far.w.tobytes() == near.w.tobytes()
        assert far.w[1] == 0.0
        np.testing.assert_allclose(far.w[[0, 2]], exact_optimum(np.array([0.0, 5.0]), 4.0, 1.0))

    @pytest.mark.parametrize(
        "d, lam, beta",
        [
            ([0.0, 1e9], 1e-300, 1.0),
            ([0.0, 1.7e308], 0.01, 1.0),
            ([1.7e308, 1.7e308, 0.0], 1e300, 1e300),
            ([0.0, 1e200], 0.0, 1e300),
        ],
    )
    def test_all_weight_on_the_nearest_center(self, d, lam, beta):
        cfg = WeightSolverConfig(lam=lam, beta=beta, gradient_mode="exact")
        expected = (np.asarray(d) == min(d)).astype(np.float64)
        np.testing.assert_array_equal(solve_weights(d, cfg).w, expected)
        batch = solve_weights_batch(np.array([d, d]), np.ones((2, len(d)), dtype=bool), cfg)
        np.testing.assert_array_equal(batch, [expected, expected])

    def test_solve_weights_command_writes_no_warning(self, tmp_path, capsys):
        distances, out = tmp_path / "d.txt", tmp_path / "w.csv"
        distances.write_text("0 1e200\n0 1.7e308\n")
        argv = ["solve-weights", "--distances", str(distances), "--out", str(out)]
        assert cli_main(argv + ["--gradient-mode", "exact"]) == 0
        assert capsys.readouterr().err == ""
        assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == ["1;0", "1;0"]


class TestPaperModeOnOverflowingObjectives:
    """Paper mode where beta * w.d overflows: F is inf and its relative
    change NaN, and the row keeps stepping instead of stopping after
    one step, with no warning (the suite turns one into an error)."""

    CFG = WeightSolverConfig(beta=10.0, gradient_mode="paper")

    @pytest.mark.parametrize("far", [1e200, 1.7e308])
    def test_rows_step_to_the_nearest_center_as_the_reference_does(self, far):
        d = np.array([0.0, far])
        result = solve_weights(d, self.CFG)
        with np.errstate(over="ignore", invalid="ignore"):
            w, iterations, trace = paper_reference(d, self.CFG)
        assert result.w.tobytes() == w.tobytes()
        assert result.iterations == iterations == 30
        np.testing.assert_array_equal(result.objective_trace, trace)
        np.testing.assert_array_equal(result.w, [1.0, 0.0])
        batch = solve_weights_batch(np.array([d, [1.0, 2.0]]), np.ones((2, 2), dtype=bool), self.CFG)
        assert batch[0].tobytes() == w.tobytes()

    def test_an_objective_that_is_never_finite_runs_to_max_iters(self):
        # one center at 1.7e308: F is inf at every step, and the weight stays 1
        result = solve_weights([1.7e308], self.CFG)
        assert result.iterations == self.CFG.max_iters
        np.testing.assert_array_equal(result.w, [1.0])
        assert np.isposinf(result.objective_trace).all()

    def test_solve_weights_command_writes_no_warning(self, tmp_path, capsys):
        distances, out = tmp_path / "d.txt", tmp_path / "w.csv"
        distances.write_text("0 1e200\n0 1.7e308\n1.7e308\n")
        argv = ["solve-weights", "--distances", str(distances), "--out", str(out)]
        assert cli_main(argv + ["--gradient-mode", "paper", "--beta", "10"]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1:] == ["0,30,1;0", "1,30,1;0", "2,50,1"]


class TestProjectRowsToSimplex:
    @given(masked_batches(), st.sampled_from([1.0, 50.0]))
    @BATCH_SETTINGS
    def test_feasible_idempotent_and_row_by_row(self, batch, scale):
        _, mask, rng = batch
        v = np.where(mask, rng.uniform(-scale, scale, size=mask.shape), np.nan)
        once = project_rows_to_simplex(v, mask)
        assert np.all(once >= 0) and np.all(once[~mask] == 0.0)
        for row in once:
            assert abs(math.fsum(row.tolist()) - 1.0) <= 1e-9
        np.testing.assert_array_equal(project_rows_to_simplex(once, mask), once)
        for row, row_mask, row_v in zip(once, mask, v):
            np.testing.assert_array_equal(
                row[row_mask], project_to_simplex(row_v[row_mask])
            )

    def test_rejects_empty_row_and_non_finite_entry(self):
        with pytest.raises(ValueError):
            project_rows_to_simplex(np.ones((2, 2)), [[True, True], [False, False]])
        with pytest.raises(ValueError):
            project_rows_to_simplex(np.array([[np.inf, 0.0]]), True)

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"expected a nonempty \(B, M\) array"):
            project_rows_to_simplex(np.array([0.2, 0.8]), True)


class TestTrainSolvesEachBatch:
    """One epoch in one batch: the weights are solved against the codes
    of the seeded initial encoder, which the test can rebuild."""

    def _train_one_batch(self, solver):
        spec = SyntheticSpec(40, 6, 5, labels_per_sample=(1, 4), seed=2)
        samples = generate_synthetic(spec)
        center_set = generate_centers(16, 5, seed=2)
        loss = LossConfig(beta=solver.beta, lam=solver.lam)
        cfg = TrainConfig(epochs=1, batch_size=40, hidden=(8,), loss=loss, solver=solver, seed=4)
        state = train(samples, center_set, cfg)
        params = init_params([6, 8, 16], np.random.default_rng(4))
        codes, _ = forward_batch(params, np.array([s.features for s in samples]))
        rows = [
            distance_vector(b, assignment_for_labels(center_set, s.labels))
            for b, s in zip(codes, samples)
        ]
        return state.weight_table, rows

    def test_exact_mode_rows_reach_the_optimum(self):
        cfg = WeightSolverConfig(lam=0.5, beta=1.0, gradient_mode="exact")
        table, distances = self._train_one_batch(cfg)
        for w, d in zip(table, distances):
            best = objective(exact_optimum(d, cfg.lam, cfg.beta), d, cfg)
            assert abs(objective(w, d, cfg) - best) <= 1e-9

    def test_paper_mode_rows_match_per_sample_solves(self):
        cfg = WeightSolverConfig(lam=0.5, gradient_mode="paper")
        table, distances = self._train_one_batch(cfg)
        for w, d in zip(table, distances):
            np.testing.assert_allclose(w, paper_reference(d, cfg)[0], rtol=0, atol=1e-12)
