#!/usr/bin/env python3
# Solve per-sample center weights for a few distance vectors and watch
# how the entropy strength moves the solution between "all mass on the
# nearest center" and "uniform over all centers". Exact mode solves each
# vector's optimality root by safeguarded Newton, so "iters" counts
# Newton steps (2-5 here).
import numpy as np

from icshash import WeightSolverConfig, solve_weights

d = np.array([1.0, 4.0, 9.0])
print(f"distances d = {d}")
print(f"{'lam':>8} {'weights':>34} {'iters':>6}")
for lam in (1e-4, 0.01, 0.1, 1.0, 10.0, 100.0):
    cfg = WeightSolverConfig(lam=lam, beta=1.0, gradient_mode="exact")
    result = solve_weights(d, cfg)
    w_text = np.array2string(result.w, precision=4, suppress_small=True)
    print(f"{lam:>8} {w_text:>34} {result.iterations:>6}")

print("\nobjective trace at lam=0.1 (non-increasing, converges fast):")
cfg = WeightSolverConfig(lam=0.1, beta=1.0, gradient_mode="exact")
trace = solve_weights(d, cfg).objective_trace
print(np.array2string(trace, precision=6))

print("\nthe printed-formula gradient mode on the same distances:")
paper = solve_weights(d, WeightSolverConfig(lam=0.1, gradient_mode="paper"))
print(f"weights = {np.array2string(paper.w, precision=4)}, iters = {paper.iterations}")
