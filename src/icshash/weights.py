"""Center-weight solver, for one sample or a whole batch.

Each training sample with c positive labels carries a weight vector on
the probability simplex expressing how strongly each of its c hash
centers attracts the sample's code. The weights minimize a per-sample
objective combining the likelihood of the weighted code-to-center
distance with an entropy term that keeps mass from collapsing onto a
single center.

Two gradient formulas are available. ``paper`` applies, per coordinate,

    grad_j = -w_j / (1 + exp(w_j * d_j)) + lam * (1 + log w_j)

while ``exact`` differentiates the per-sample objective

    F(w) = log(1 + exp(beta * sum_j w_j d_j)) + lam * sum_j w_j log w_j

whose gradient is ``beta * d_j * sigmoid(beta * w.d) + lam * (1 + log w_j)``.
The reported objective trace is always F, so traces from either mode
are directly comparable.

``solve_weights_batch`` solves a batch given as a (B, M) distance
matrix and a (B, M) label mask; ``solve_weights`` is its one-row call,
which also reports the iteration count and the objective trace. Paper
mode applies the printed update verbatim on every row at once: a
Euclidean gradient step followed by an exact projection onto the
row's masked simplex (Duchi et al., ICML 2008; Condat, Math. Program.
2016). Each row stops on its own ``tol``/``max_iters`` rule and is
frozen from then on.

Exact mode does not iterate on the weights: for ``lam > 0`` F has one
minimizer, ``w(s) = softmax(-beta s d / lam)``, where s is the root of
``g(s) = s - sigmoid(beta w(s).d)``. Since ``g'(s) = 1 + sigmoid'(beta
w.d) beta^2 Var_w(d) / lam >= 1`` and ``d >= 0`` puts the root in
[1/2, 1], safeguarded Newton finds it for all rows together. An
iteration is one Newton step, and the trace holds F at ``w(s)`` of
each step. The start only places the first guess, so ``eta``,
``max_iters`` and ``tol`` do not apply. With ``lam = 0`` the weights
split uniformly over each row's tied minimal distances, the limit as
lam goes to 0, in one iteration.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import check_int

GRADIENT_MODES = ("paper", "exact")

# Weights are clamped here before their logs are taken, in the solver
# and in the loss's entropy term alike.
WEIGHT_FLOOR = 1e-8

# A point whose coordinates are nonnegative and sum to 1 within this
# tolerance is treated as already feasible; the projection returns it
# unchanged, which makes the projection exactly idempotent.
_FEASIBLE_TOL = 1e-12

# Safeguarded Newton on the exact-mode root: a row stops once its step
# is within a few ulps of s in [1/2, 1]. Bisection alone gets there in
# about 53 steps; the cap only bounds the loop.
_ROOT_TOL = 4 * np.finfo(np.float64).eps
_MAX_ROOT_ITERS = 100


def _sigmoid(x):
    """Logistic ``1 / (1 + exp(-x))``, elementwise; a scalar stays a
    scalar. Below x of about -709.78 the exp overflows to inf and the
    result is 0.0; that overflow is expected, so it is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class WeightSolverConfig:
    """Knobs of the weight subproblem.

    lam: entropy strength; 0 disables the regularizer.
    eta: Euclidean gradient step of paper mode.
    beta: sigmoid bandwidth of the exact-mode objective (the paper-mode
        gradient formula has no bandwidth).
    tol: relative objective-change stopping threshold.
    gradient_mode: "paper" or "exact".

    eta, max_iters and tol apply to paper mode only: exact mode solves
    its optimality root to machine precision (see the module docstring).
    Weights are clamped at WEIGHT_FLOOR before their logs are taken.
    """

    lam: float = 0.01
    eta: float = 0.1
    beta: float = 1.0
    max_iters: int = 50
    tol: float = 1e-6
    gradient_mode: str = "paper"

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        check_int("max_iters", self.max_iters, 1)
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}")


class WeightSolveResult(NamedTuple):
    w: np.ndarray
    iterations: int
    objective_trace: np.ndarray


def project_rows_to_simplex(v, mask) -> np.ndarray:
    """Euclidean projection of each row's masked entries onto the simplex.

    ``v`` is (B, M); ``mask`` is boolean and broadcasts to it, with at
    least one entry set per row. Entries off the mask are ignored on
    input and zero on output. Per row, the sort-based exact algorithm:
    sort the row's c entries descending into q, find the largest j <= c
    with q_j + (1 - sum_{i<=j} q_i)/j > 0, shift by the corresponding
    offset and clip at zero. Rows already on the simplex are returned
    unchanged; a batch of such rows is returned without a sort.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise ValueError("expected a nonempty (B, M) array")
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), v.shape)
    counts = mask.sum(axis=1)
    if counts.min() == 0:
        raise ValueError("every row needs at least one masked entry")
    v = np.where(mask, v, 0.0)
    if not np.isfinite(v).all():
        raise ValueError("projection input must be finite")
    nonnegative = v >= 0
    # Summed in any order, c <= M nonnegative entries near 1 differ from
    # the sorted cumulative sum below by less than M * eps: rows that
    # pass this stricter test pass that one too, so returning them here
    # gives the same bytes without a sort.
    slack = _FEASIBLE_TOL - v.shape[1] * np.finfo(np.float64).eps
    if (np.abs(v.sum(axis=1) - 1.0) <= slack).all() and nonnegative.all():
        return v
    rows = np.arange(v.shape[0])
    ranks = np.arange(1, v.shape[1] + 1)
    in_row = ranks <= counts[:, None]
    negated = np.where(mask, -v, np.inf)
    negated.sort(axis=1)
    q = np.where(in_row, -negated, 0.0)
    csum = q.cumsum(axis=1)
    feasible = in_row & (q + (1.0 - csum) / ranks > 0)
    rho = v.shape[1] - feasible[:, ::-1].argmax(axis=1)
    shift = (1.0 - csum[rows, rho - 1]) / rho
    on_simplex = nonnegative.all(axis=1) & (
        np.abs(csum[rows, counts - 1] - 1.0) <= _FEASIBLE_TOL
    )
    projected = np.where(on_simplex[:, None], v, np.maximum(v + shift[:, None], 0.0))
    return np.where(mask, projected, 0.0)


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto {w : w_j >= 0, sum w_j = 1}: the
    one-row call of ``project_rows_to_simplex``. Points already on the
    simplex are returned unchanged."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    return project_rows_to_simplex(v[None, :], True)[0]


def _entropy_terms(w):
    wc = np.maximum(w, WEIGHT_FLOOR)
    return wc * np.log(wc)


def entropy_regularizer(w: Sequence[float]) -> float:
    """sum_j w_j log w_j with coordinates clamped to WEIGHT_FLOOR.

    Always lies in [-log c, ~0]; uniform weights attain the minimum.
    """
    return float(np.sum(_entropy_terms(np.asarray(w, dtype=np.float64))))


def _row_objectives(w, d, mask, cfg: WeightSolverConfig):
    """F of every row of w against d (last axis: centers); entries off
    ``mask`` must hold zero weight and finite distance, and add no
    entropy."""
    entropy = np.sum(np.where(mask, _entropy_terms(w), 0.0), axis=-1)
    return np.logaddexp(0.0, cfg.beta * np.sum(w * d, axis=-1)) + cfg.lam * entropy


def weight_objective(w: np.ndarray, d: np.ndarray, cfg: WeightSolverConfig) -> float:
    """Exact-mode objective F; also the trace reported in paper mode."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return float(_row_objectives(w, d, True, cfg))


def weight_gradient(
    w: Sequence[float], d: Sequence[float], cfg: WeightSolverConfig
) -> np.ndarray:
    """Gradient of the weight subproblem at w, in the configured mode.

    w and d are one vector or matching rows (last axis: centers).
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape:
        raise ValueError(f"weight/distance shape mismatch: {w.shape} vs {d.shape}")
    wc = np.maximum(w, WEIGHT_FLOOR)
    entropy_grad = cfg.lam * (1.0 + np.log(wc))
    if cfg.gradient_mode == "paper":
        return -wc * _sigmoid(-(wc * d)) + entropy_grad
    omega = np.sum(w * d, axis=-1, keepdims=True)
    return cfg.beta * d * _sigmoid(cfg.beta * omega) + entropy_grad


def _relative_change(new, old):
    return np.abs(new - old) / np.maximum(np.abs(old), 1e-12)


def solve_weights(
    d: Sequence[float],
    cfg: WeightSolverConfig | None = None,
    w_init: Sequence[float] | None = None,
) -> WeightSolveResult:
    """Minimize the weight objective of one sample over the simplex: the
    one-row call of ``solve_weights_batch``.

    Starts from uniform weights (or ``w_init``, projected) and returns
    the final weights, the number of iterations taken, and the objective
    F at the start plus after every iteration. In paper mode an
    iteration is one projected step; in exact mode it is one Newton step
    on the optimality root, and the trace holds F at that step's
    weights.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("need at least one distance")
    if w_init is not None:
        w_init = np.asarray(w_init, dtype=np.float64)[None]
    w, iterations, history = _solve_rows(
        d[None], np.ones((1, d.size), dtype=bool), cfg, w_init, traced=True
    )
    return WeightSolveResult(w[0], int(iterations[0]), history[: iterations[0] + 1, 0])


def solve_weights_batch(
    d,
    mask,
    cfg: WeightSolverConfig | None = None,
    w_init=None,
) -> np.ndarray:
    """Minimize the weight objective of every row of a batch.

    ``d`` holds (B, M) distances, read only where the (B, M) boolean
    ``mask`` is set; every row needs at least one masked center.
    ``w_init`` is a (B, M) warm start, projected row by row onto the
    masked simplex; without it each row starts uniform over its mask.
    Returns (B, M) weights, zero off the mask.

    Paper mode takes the projected steps on all rows at once, each row
    stopping on its own rule. Exact mode returns each row's minimizer
    from its optimality root (see the module docstring), using the warm
    start only to place the first Newton guess; a row with one center
    gets exactly 1.0.
    """
    return _solve_rows(d, mask, cfg, w_init, traced=False)[0]


def _solve_rows(d, mask, cfg, w_init, traced):
    """The solver behind both public calls.

    Returns the (B, M) weights, each row's iteration count, and, when
    ``traced``, a (T + 1, B) history of F: row r's trace is the first
    ``iterations[r] + 1`` entries of column r, and later entries repeat
    its last. Untraced, the history is None and F is evaluated only
    where paper mode needs it to stop.
    """
    if cfg is None:
        cfg = WeightSolverConfig()
    d = np.asarray(d, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if d.ndim != 2 or d.size == 0 or mask.shape != d.shape:
        raise ValueError(
            f"need nonempty (B, M) distances and mask, got {d.shape} and {mask.shape}"
        )
    if not np.all(mask.any(axis=1)):
        raise ValueError("every row needs at least one center")
    d = np.where(mask, d, 0.0)
    if not np.all((d >= 0) & (d < np.inf)):
        raise ValueError("distances must be finite and nonnegative")
    if w_init is None:
        w = mask / mask.sum(axis=1, keepdims=True)
    else:
        w_init = np.asarray(w_init, dtype=np.float64)
        if w_init.shape != d.shape:
            raise ValueError(
                f"w_init has shape {w_init.shape}, distances have shape {d.shape}"
            )
        w = project_rows_to_simplex(w_init, mask)
    solve = _root_weights if cfg.gradient_mode == "exact" else _projected_steps
    w, iterations, history = solve(d, mask, w, cfg, traced)
    return w, iterations, np.array(history) if traced else None


@np.errstate(over="ignore", invalid="ignore")
def _projected_steps(d, mask, w, cfg: WeightSolverConfig, traced):
    """Paper mode: the printed projected step on every active row; a row
    leaves the active set once its relative objective change drops below
    ``tol``, which a NaN change (F overflowed to inf, unreported) never does."""
    f = _row_objectives(w, d, mask, cfg)
    history = [f.copy()] if traced else None
    iterations = np.zeros(len(d), dtype=np.int64)
    active = np.arange(len(d))
    for _ in range(cfg.max_iters):
        wa, da, ma = w[active], d[active], mask[active]
        w_new = project_rows_to_simplex(wa - cfg.eta * weight_gradient(wa, da, cfg), ma)
        f_new = _row_objectives(w_new, da, ma, cfg)
        rel = _relative_change(f_new, f[active])
        w[active], f[active] = w_new, f_new
        iterations[active] += 1
        if traced:
            history.append(f.copy())
        active = active[~(rel < cfg.tol)]
        if active.size == 0:
            break
    return w, iterations, history


@np.errstate(over="ignore", invalid="ignore")
def _root_weights(d, mask, w, cfg: WeightSolverConfig, traced):
    """Exact mode: every row's minimizer by safeguarded Newton on its
    optimality root. ``d`` is zero off the mask and the rows of ``w``
    (on the simplex) seed the first guess s = sigmoid(beta w.d). Widely
    spread distances overflow unreported; zero weights leave the variance."""
    history = [_row_objectives(w, d, mask, cfg)] if traced else None
    d_min = np.where(mask, d, np.inf).min(axis=1, keepdims=True)
    if cfg.lam == 0:
        ties = mask & (d == d_min)
        w = ties / ties.sum(axis=1, keepdims=True)
        if traced:
            history.append(_row_objectives(w, d, mask, cfg))
        return w, np.ones(len(d), dtype=np.int64), history
    gap, beta2 = np.where(mask, d - d_min, 0.0), np.float64(cfg.beta) ** 2  # may be inf

    def weights_at(s):
        # dividing by lam (not multiplying by beta / lam) keeps a
        # subnormal lam from turning 0 * inf into nan on the minimum;
        # x / -lam rounds exactly as -x / lam, one pass fewer
        e = np.where(mask, np.exp(cfg.beta * s[:, None] * gap / -cfg.lam), 0.0)
        return e / e.sum(axis=1, keepdims=True)

    def sigmoid(x):
        # x = beta * w.d >= 0, so exp(-x) cannot overflow
        return 1.0 / (1.0 + np.exp(-x))

    lo, hi = np.full(len(d), 0.5), np.ones(len(d))
    s = sigmoid(cfg.beta * (w * d).sum(axis=1))
    active = np.ones(len(d), dtype=bool)
    iterations = np.zeros(len(d), dtype=np.int64)
    iterates = []
    for _ in range(_MAX_ROOT_ITERS):
        w = weights_at(s)
        omega = (w * d).sum(axis=1)
        sig = sigmoid(cfg.beta * omega)
        g = s - sig
        lo = np.where(g < 0, s, lo)
        hi = np.where(g > 0, s, hi)
        variance = np.where(w > 0, w * (d - omega[:, None]) ** 2, 0.0).sum(axis=1)
        newton = s - g / (1.0 + sig * (1.0 - sig) * beta2 * variance / cfg.lam)
        inside = (lo < newton) & (newton < hi)
        s_next = np.where(g == 0, s, np.where(inside, newton, 0.5 * (lo + hi)))
        moved = np.abs(s_next - s)
        s = np.where(active, s_next, s)
        iterations += active
        if traced:
            iterates.append(s)
        active &= moved > _ROOT_TOL
        if not active.any():
            break
    if traced:
        history += [_row_objectives(weights_at(t), d, mask, cfg) for t in iterates]
    return weights_at(s), iterations, history
