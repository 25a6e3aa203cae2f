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

``solve_weights`` solves one instance iteratively. Paper mode applies
the printed update verbatim: a Euclidean gradient step followed by an
exact projection onto the simplex. Exact mode takes entropic
mirror-descent steps (Beck & Teboulle, 2003): ``log w <- log w - step *
grad``, then normalization, which is the KL projection onto the
simplex. The solver keeps the log-weights as its state, so the state
never holds an exact zero; a returned weight that underflows is clamped
to the weight floor when it seeds a warm start. The entropy term's
curvature ``lam / w_j`` grows without bound as a coordinate shrinks; in
log space it is the constant ``lam``, so a mirror step of ``1/lam``
lands on the minimizer for the current sigmoid value, while a Euclidean
step near a tiny coordinate can only crawl.

``solve_weights_batch`` solves a batch given as a (B, M) distance
matrix and a (B, M) label mask. Paper mode takes the same projected
steps on every row at once, with a masked-row projection (Duchi et al.,
ICML 2008; Condat, Math. Program. 2016); each row stops on its own
``tol``/``max_iters`` rule and is frozen from then on, so every row is
the per-sample result. Exact mode does not iterate on the weights: for
``lam > 0`` F has one minimizer, ``w(s) = softmax(-beta s d / lam)``,
where s is the root of ``g(s) = s - sigmoid(beta w(s).d)``. Since
``g'(s) = 1 + sigmoid'(beta w.d) beta^2 Var_w(d) / lam >= 1`` and
``d >= 0`` puts the root in [1/2, 1], safeguarded Newton finds it for
all rows together. With ``lam = 0`` the weights split uniformly over
each row's tied minimal distances, the limit as lam goes to 0.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InternalInvariantError

GRADIENT_MODES = ("paper", "exact")

# A point whose coordinates are nonnegative and sum to 1 within this
# tolerance is treated as already feasible; the projection returns it
# unchanged, which makes the projection exactly idempotent.
_FEASIBLE_TOL = 1e-12

_MAX_STEP_ADJUSTMENTS = 60

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
    eta: base gradient step: Euclidean in paper mode, in log-weight
        space in exact mode.
    beta: sigmoid bandwidth of the exact-mode objective (the paper-mode
        gradient formula has no bandwidth).
    tol: relative objective-change stopping threshold.
    gradient_mode: "paper" or "exact".
    weight_floor: weights are clamped here before logs are taken.

    Exact mode in ``solve_weights`` halves or doubles its mirror step
    so the objective never increases; paper mode applies the printed
    update verbatim. ``solve_weights_batch`` solves exact mode at its
    optimality root, so eta, max_iters and tol apply there to paper
    mode only.
    """

    lam: float = 0.01
    eta: float = 0.1
    beta: float = 1.0
    max_iters: int = 50
    tol: float = 1e-6
    gradient_mode: str = "paper"
    weight_floor: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if not 0 < self.weight_floor < 1:
            raise ValueError("weight_floor must lie in (0, 1)")


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
    unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise ValueError("expected a nonempty (B, M) array")
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), v.shape)
    counts = mask.sum(axis=1)
    if counts.min() == 0:
        raise ValueError("every row needs at least one masked entry")
    v = np.where(mask, v, 0.0)
    if not np.all(np.isfinite(v)):
        raise ValueError("projection input must be finite")
    rows = np.arange(v.shape[0])
    ranks = np.arange(1, v.shape[1] + 1)
    in_row = ranks <= counts[:, None]
    q = np.where(in_row, -np.sort(np.where(mask, -v, np.inf), axis=1), 0.0)
    csum = np.cumsum(q, axis=1)
    feasible = in_row & (q + (1.0 - csum) / ranks > 0)
    rho = v.shape[1] - np.argmax(feasible[:, ::-1], axis=1)
    shift = (1.0 - csum[rows, rho - 1]) / rho
    on_simplex = np.all(v >= 0, axis=1) & (
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


def _entropy_terms(w, weight_floor):
    wc = np.maximum(w, weight_floor)
    return wc * np.log(wc)


def entropy_regularizer(w: Sequence[float], weight_floor: float = 1e-8) -> float:
    """sum_j w_j log w_j with coordinates clamped to the floor.

    Always lies in [-log c, ~0]; uniform weights attain the minimum.
    """
    return float(np.sum(_entropy_terms(np.asarray(w, dtype=np.float64), weight_floor)))


def _row_objectives(w, d, mask, cfg: WeightSolverConfig):
    """F of every row of w against d (last axis: centers); entries off
    ``mask`` must hold zero weight and finite distance, and add no
    entropy."""
    entropy = np.sum(np.where(mask, _entropy_terms(w, cfg.weight_floor), 0.0), axis=-1)
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
    wc = np.maximum(w, cfg.weight_floor)
    if np.any(wc <= 0):
        raise InternalInvariantError("weights nonpositive after floor clamping")
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
    """Minimize the per-sample weight objective over the simplex.

    Starts from uniform weights (or ``w_init``, projected) and iterates
    until the relative objective change drops below ``cfg.tol`` or
    ``cfg.max_iters`` is reached. Returns the final weights, the number
    of iterations taken, and the objective value at the start plus
    after every iteration.

    Paper mode iterates a fixed gradient step + Euclidean projection.
    Exact mode iterates entropic mirror-descent steps from the log of
    the floor-clamped start, so a warm start holding a zero coordinate
    can still move it; each line search starts at the step accepted on
    the previous iteration (``eta`` on the first), halves it until the
    objective does not increase and doubles it while that strictly
    helps, so the trace is non-increasing.
    """
    if cfg is None:
        cfg = WeightSolverConfig()
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("need at least one distance")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and nonnegative")
    c = d.size
    if w_init is None:
        w = np.full(c, 1.0 / c)
    else:
        w = project_to_simplex(np.asarray(w_init, dtype=np.float64))
    exact = cfg.gradient_mode == "exact"
    if exact:
        log_w, w = _mirror_point(np.log(np.maximum(w, cfg.weight_floor)))
        step = cfg.eta
    f = weight_objective(w, d, cfg)
    trace = [f]
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        iterations = t
        g = weight_gradient(w, d, cfg)
        if exact:
            (log_w, w_new), f_new, step = _monotone_step((log_w, w), f, g, d, cfg, step)
        else:
            w_new = project_to_simplex(w - cfg.eta * g)
            f_new = weight_objective(w_new, d, cfg)
        rel = _relative_change(f_new, f)
        w, f = w_new, f_new
        trace.append(f)
        if rel < cfg.tol:
            break
    return WeightSolveResult(w, iterations, np.array(trace))


def _mirror_point(z):
    """Normalize log-weights onto the simplex (the KL projection).

    Returns the normalized log-weights and their exponentials.
    """
    z = z - z.max()
    e = np.exp(z)
    total = float(e.sum())
    return z - math.log(total), e / total


def _monotone_step(point, f, g, d, cfg, step):
    """One mirror step that never increases the objective.

    ``point`` is the pair (log-weights, weights). Tries ``step`` first;
    if it overshoots, halves until the objective stops increasing, and
    if it already helps, doubles while each doubling strictly improves.
    Falls back to no movement when no decreasing step exists (i.e. the
    point is already a minimizer). Returns the new point, its objective
    and the step taken, which starts the next line search.
    """
    log_w = point[0]
    cand = _mirror_point(log_w - step * g)
    f_cand = weight_objective(cand[1], d, cfg)
    if f_cand > f:
        start = step
        for _ in range(_MAX_STEP_ADJUSTMENTS):
            step *= 0.5
            cand = _mirror_point(log_w - step * g)
            f_cand = weight_objective(cand[1], d, cfg)
            if f_cand <= f:
                return cand, f_cand, step
        return point, f, start
    for _ in range(_MAX_STEP_ADJUSTMENTS):
        wider = _mirror_point(log_w - 2.0 * step * g)
        f_wider = weight_objective(wider[1], d, cfg)
        if f_wider < f_cand:
            step *= 2.0
            cand, f_cand = wider, f_wider
        else:
            break
    return cand, f_cand, step


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

    Paper mode takes ``solve_weights``'s projected steps on all rows at
    once and gives each row its per-sample result. Exact mode returns
    each row's minimizer from its optimality root (see the module
    docstring), using the warm start only to place the first Newton
    guess; a row with one center gets exactly 1.0.
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
        w = project_rows_to_simplex(w_init, mask)
    if cfg.gradient_mode == "exact":
        return _root_weights(d, mask, w, cfg)
    f = _row_objectives(w, d, mask, cfg)
    active = np.arange(len(d))
    for _ in range(cfg.max_iters):
        wa, da, ma = w[active], d[active], mask[active]
        w_new = project_rows_to_simplex(wa - cfg.eta * weight_gradient(wa, da, cfg), ma)
        f_new = _row_objectives(w_new, da, ma, cfg)
        rel = _relative_change(f_new, f[active])
        w[active], f[active] = w_new, f_new
        active = active[rel >= cfg.tol]
        if active.size == 0:
            break
    return w


def _root_weights(d, mask, w, cfg: WeightSolverConfig):
    """Exact-mode minimizer of every row; ``d`` is zero off the mask and
    the rows of ``w`` (on the simplex) seed the first guess s =
    sigmoid(beta w.d)."""
    d_min = np.min(np.where(mask, d, np.inf), axis=1, keepdims=True)
    if cfg.lam == 0:
        ties = mask & (d == d_min)
        return ties / ties.sum(axis=1, keepdims=True)
    gap = np.where(mask, d - d_min, 0.0)

    def weights_at(s):
        # dividing by lam (not multiplying by beta / lam) keeps a
        # subnormal lam from turning 0 * inf into nan on the minimum
        e = np.where(mask, np.exp(-(cfg.beta * s[:, None] * gap) / cfg.lam), 0.0)
        return e / e.sum(axis=1, keepdims=True)

    lo, hi = np.full(len(d), 0.5), np.ones(len(d))
    s = _sigmoid(cfg.beta * np.sum(w * d, axis=1))
    active = np.ones(len(d), dtype=bool)
    for _ in range(_MAX_ROOT_ITERS):
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
        active &= moved > _ROOT_TOL
        if not active.any():
            break
    return weights_at(s)
