"""Training objective over relaxed codes.

A relaxed code is the encoder output in (0, 1)^K. Its distance to one
center is the binary cross entropy between the code and the center
mapped to {0, 1}; a sample's weighted distance is the convex
combination of its per-center distances under the sample's weight
vector. The total objective is

    J = J_central + gamma * J_quantization + lam * sum_i R(w_i)

where J_central turns weighted distances into a log-likelihood through
an adaptive sigmoid, the quantization term pushes relaxed bits toward
0/1, and R is the entropy of the weights (a constant while codes are
optimized, reported for completeness).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .centers import HashCenterSet
from .errors import ConfigError
from .weights import _sigmoid, entropy_regularizer

# Relaxed codes are clamped into (CODE_EPS, 1 - CODE_EPS) before any
# log; encoder squashing can saturate all the way to 0/1.
CODE_EPS = 1e-7

AGGREGATIONS = ("per-image", "per-center")


@dataclass
class LossConfig:
    """beta: sigmoid bandwidth (<= 1 keeps gradients alive);
    gamma: quantization weight; lam: entropy weight;
    aggregation: apply the sigmoid to each sample's total weighted
    distance ("per-image") or to each weighted per-center distance
    separately ("per-center")."""

    beta: float = 0.1
    gamma: float = 0.05
    lam: float = 0.01
    aggregation: str = "per-image"
    weight_floor: float = 1e-8

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


@dataclass(frozen=True)
class CenterAssignment:
    """The centers attached to one sample: the indices of its positive
    labels (ascending) and the same centers mapped to {0, 1}."""

    center_indices: np.ndarray  # (c,) int
    centers01: np.ndarray  # (c, K) float64 in {0, 1}


def assignment_for_labels(center_set: HashCenterSet, labels: Sequence[int]) -> CenterAssignment:
    """Build the assignment for a 0/1 label vector of length M."""
    labels = np.asarray(labels)
    if labels.shape != (center_set.m_labels,):
        raise ConfigError(
            f"label vector length {labels.shape} does not match "
            f"M={center_set.m_labels}"
        )
    idx = np.flatnonzero(labels)
    if idx.size == 0:
        raise ValueError("sample has no positive label")
    centers01 = (center_set.centers[idx].astype(np.float64) + 1.0) / 2.0
    return CenterAssignment(idx, centers01)


def clamp_code(b: Sequence[float]) -> np.ndarray:
    return np.clip(np.asarray(b, dtype=np.float64), CODE_EPS, 1.0 - CODE_EPS)


def _bce(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    # clamped codes against {0, 1} centers, summed over the last (bit)
    # axis; leading axes broadcast
    return -np.sum(v * np.log(b) + (1.0 - v) * np.log(1.0 - b), axis=-1)


def bce_distance(b: Sequence[float], center01: Sequence[float]) -> float:
    """Nonnegative cross-entropy distance of a relaxed code to one
    center given in {0, 1}; equals K*log 2 at b = 0.5."""
    b = clamp_code(b)
    v = np.asarray(center01, dtype=np.float64)
    if b.shape != v.shape:
        raise ValueError(f"code/center length mismatch: {b.shape} vs {v.shape}")
    return float(_bce(b, v))


def distance_vector(b: Sequence[float], assignment: CenterAssignment) -> np.ndarray:
    """BCE distance of one code to each of the sample's centers."""
    b = clamp_code(b)
    v = assignment.centers01
    if b.shape != (v.shape[1],):
        raise ValueError(f"code length {b.shape} does not match centers {v.shape}")
    return _bce(b, v)


def distance_matrix(codes, centers01) -> np.ndarray:
    """BCE distance of every code to every center in one pass.

    For clamped codes b (B, K) and centers v (M, K) in {0, 1},
    d_ij = -(sum_k log(1 - b_ik) + sum_k (log b_ik - log(1 - b_ik)) v_jk),
    which is ``distance_vector`` of code i against center j up to
    rounding. Returns (B, M).
    """
    b = clamp_code(np.atleast_2d(codes))
    v = np.asarray(centers01, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != b.shape[1]:
        raise ValueError(f"codes {b.shape} do not match centers {v.shape}")
    log_1mb = np.log(1.0 - b)
    return -(log_1mb.sum(axis=1, keepdims=True) + (np.log(b) - log_1mb) @ v.T)


def weighted_distance(b, assignment: CenterAssignment, w) -> float:
    """Convex combination of per-center BCE distances under w."""
    w = np.asarray(w, dtype=np.float64)
    d = distance_vector(b, assignment)
    if w.shape != d.shape:
        raise ValueError(f"weights {w.shape} do not match {d.shape[0]} centers")
    return float(np.dot(w, d))


def central_likelihood(omega: float, beta: float) -> float:
    """1 / (1 + exp(beta * omega)); strictly decreasing in omega,
    overflow-safe for large arguments."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return float(_sigmoid(-beta * omega))


def _flat_batch(codes, assignments, weights, aggregation: str):
    """One row per (sample, center) pair of a ragged batch: returns the
    clamped codes, each pair's sample, {0, 1} center and weight, the
    sigmoid arguments over beta (omega_i per sample, or w_ij * d_ij per
    pair for "per-center") and the argument that applies to each pair."""
    b = clamp_code(np.atleast_2d(codes))
    n = len(assignments)
    if n == 0:
        raise ValueError("empty batch")
    if b.shape[0] != n or len(weights) != n:
        raise ValueError(f"{b.shape[0]} codes, {n} assignments, {len(weights)} weight rows")
    counts = [a.centers01.shape[0] for a in assignments]
    if min(counts) == 0 or [np.shape(w) for w in weights] != [(c,) for c in counts]:
        raise ValueError("every sample needs one or more centers and one weight per center")
    v = np.concatenate([a.centers01 for a in assignments])
    if v.shape[1] != b.shape[1]:
        raise ValueError(f"code length {b.shape[1]} does not match centers {v.shape}")
    rows = np.repeat(np.arange(n), counts)
    w = np.concatenate(weights, dtype=np.float64)
    wd = w * _bce(b[rows], v)
    if aggregation == "per-image":
        omega = np.bincount(rows, wd, minlength=n)
        return b, rows, v, w, omega, omega[rows]
    return b, rows, v, w, wd, wd


def central_loss(codes, assignments, weights, cfg: LossConfig) -> float:
    """Negative log-likelihood of the batch's weighted distances.

    per-image: sum_i softplus(beta * omega_i);
    per-center: sum_i sum_j softplus(beta * w_ij * d_ij).
    """
    *_, x, _ = _flat_batch(codes, assignments, weights, cfg.aggregation)
    return float(np.sum(np.logaddexp(0.0, cfg.beta * x)))


def quantization_loss(codes) -> float:
    """sum over bits of log cosh(|2b - 1| - 1); zero exactly when every
    bit sits at 0 or 1, maximal at b = 0.5."""
    b = clamp_code(np.atleast_2d(np.asarray(codes, dtype=np.float64)))
    if b.size == 0:
        raise ValueError("empty batch")
    u = np.abs(2.0 * b - 1.0) - 1.0
    return float(np.sum(np.log(np.cosh(u))))


def total_loss(codes, assignments, weights, cfg: LossConfig):
    """Full objective and its decomposition.

    Returns (J, parts) with parts keyed "central", "quantization",
    "entropy"; J recombines them exactly.
    """
    j_central = central_loss(codes, assignments, weights, cfg)
    j_quant = quantization_loss(codes)
    entropy = entropy_regularizer(np.concatenate(weights), cfg.weight_floor)
    total = j_central + cfg.gamma * j_quant + cfg.lam * entropy
    return total, {
        "central": j_central,
        "quantization": j_quant,
        "entropy": entropy,
    }


def loss_gradient_wrt_codes(codes, assignments, weights, cfg: LossConfig) -> np.ndarray:
    """Analytic dJ/db for every sample, weights held fixed.

    Per pair, d/db of softplus(beta * x) is c_ij (b_i - v_ij) / (b_i (1 - b_i))
    with c_ij = beta * w_ij * sigmoid(beta * x); the quantization term
    uses subgradient 0 at the kink b = 0.5.
    """
    b, rows, v, w, _, x = _flat_batch(codes, assignments, weights, cfg.aggregation)
    c = cfg.beta * w * _sigmoid(cfg.beta * x)
    bp = b[rows]
    per_pair = c[:, None] * (bp - v) / (bp * (1.0 - bp))
    g = np.add.reduceat(per_pair, np.searchsorted(rows, np.arange(len(b))), axis=0)
    s = 2.0 * b - 1.0
    return g + cfg.gamma * 2.0 * np.sign(s) * np.tanh(np.abs(s) - 1.0)
