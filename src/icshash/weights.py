"""Per-sample center-weight solver.

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

The two modes also step differently. Paper mode applies the printed
update verbatim: a Euclidean gradient step followed by an exact
projection onto the simplex. Exact mode takes entropic mirror-descent
steps (Beck & Teboulle, 2003): ``log w <- log w - step * grad``, then
normalization, which is the KL projection onto the simplex. The solver
keeps the log-weights as its state, so the state never holds an exact
zero; a returned weight that underflows is clamped to the weight floor
when it seeds a warm start. The entropy term's curvature ``lam / w_j``
grows without bound as a coordinate shrinks; in log space it is the
constant ``lam``, so a mirror step of ``1/lam`` lands on the minimizer
for the current sigmoid value, while a Euclidean step near a tiny
coordinate can only crawl.
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

    Exact mode halves or doubles its mirror step around eta so the
    objective never increases; paper mode applies the printed update
    verbatim.
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


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto {w : w_j >= 0, sum w_j = 1}.

    Sort-based exact algorithm: sort descending into q, find the largest
    j with q_j + (1 - sum_{i<=j} q_i)/j > 0, shift by the corresponding
    offset and clip at zero. Points already on the simplex are returned
    unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("projection input must be finite")
    if np.all(v >= 0) and abs(math.fsum(v.tolist()) - 1.0) <= _FEASIBLE_TOL:
        return v.copy()
    order = np.argsort(-v, kind="stable")
    q = v[order]
    csum = np.cumsum(q)
    ranks = np.arange(1, v.size + 1)
    feasible = q + (1.0 - csum) / ranks > 0
    rho = int(np.nonzero(feasible)[0][-1]) + 1
    shift = (1.0 - csum[rho - 1]) / rho
    return np.maximum(v + shift, 0.0)


def entropy_regularizer(w: Sequence[float], weight_floor: float = 1e-8) -> float:
    """sum_j w_j log w_j with coordinates clamped to the floor.

    Always lies in [-log c, ~0]; uniform weights attain the minimum.
    """
    wc = np.maximum(np.asarray(w, dtype=np.float64), weight_floor)
    return float(np.sum(wc * np.log(wc)))


def weight_objective(w: np.ndarray, d: np.ndarray, cfg: WeightSolverConfig) -> float:
    """Exact-mode objective F; also the trace reported in paper mode."""
    omega = float(np.dot(w, d))
    return float(np.logaddexp(0.0, cfg.beta * omega)) + cfg.lam * entropy_regularizer(
        w, cfg.weight_floor
    )


def weight_gradient(
    w: Sequence[float], d: Sequence[float], cfg: WeightSolverConfig
) -> np.ndarray:
    """Gradient of the weight subproblem at w, in the configured mode."""
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
    omega = float(np.dot(w, d))
    return cfg.beta * d * _sigmoid(cfg.beta * omega) + entropy_grad


def _relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-12)


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
    can still move it; the step is halved until the objective does not
    increase and doubled while that strictly helps, so the trace is
    non-increasing.
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
    f = weight_objective(w, d, cfg)
    trace = [f]
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        iterations = t
        g = weight_gradient(w, d, cfg)
        if exact:
            (log_w, w_new), f_new = _monotone_step((log_w, w), f, g, d, cfg)
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


def _monotone_step(point, f, g, d, cfg):
    """One mirror step that never increases the objective.

    ``point`` is the pair (log-weights, weights). Tries the base step
    first; if it overshoots, halves until the objective stops
    increasing, and if it already helps, doubles while each doubling
    strictly improves. Falls back to no movement when no decreasing step
    exists (i.e. the point is already a minimizer).
    """
    log_w = point[0]
    step = cfg.eta
    cand = _mirror_point(log_w - step * g)
    f_cand = weight_objective(cand[1], d, cfg)
    if f_cand > f:
        for _ in range(_MAX_STEP_ADJUSTMENTS):
            step *= 0.5
            cand = _mirror_point(log_w - step * g)
            f_cand = weight_objective(cand[1], d, cfg)
            if f_cand <= f:
                return cand, f_cand
        return point, f
    for _ in range(_MAX_STEP_ADJUSTMENTS):
        wider = _mirror_point(log_w - 2.0 * step * g)
        f_wider = weight_objective(wider[1], d, cfg)
        if f_wider < f_cand:
            step *= 2.0
            cand, f_cand = wider, f_wider
        else:
            break
    return cand, f_cand
