"""Training objective over relaxed codes.

A relaxed code is the encoder output in (0, 1)^K. Its distance to one
center is the binary cross entropy between the code and the center
mapped to {0, 1}; a sample's weighted distance is the convex
combination of its per-center distances under the sample's weight
vector. The total objective is

    J = J_central + gamma * J_quantization + lam * sum_i R(w_i)

where J_central = sum_i softplus(beta * omega_i) is the negative
log-likelihood of each sample's weighted distance omega_i, the
quantization term pushes relaxed bits toward 0/1, and R is the entropy
of the weights (a constant while codes are optimized, reported for
completeness). For the same beta and lam, J_central + lam * sum_i R(w_i)
is the sum over samples of the weight objective F that exact-mode
``weights.solve_weights`` minimizes, so the two alternating steps work
on one objective.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .centers import HashCenterSet
from .errors import ConfigError
from .weights import _sigmoid, entropy_regularizer

# Relaxed codes are clamped into (CODE_EPS, 1 - CODE_EPS) before any
# log; encoder squashing can saturate all the way to 0/1.
CODE_EPS = 1e-7


@dataclass
class LossConfig:
    """beta: sigmoid bandwidth (<= 1 keeps gradients alive);
    gamma: quantization weight; lam: entropy weight. Weights are
    clamped at ``weights.WEIGHT_FLOOR`` before their logs are taken."""

    beta: float = 0.1
    gamma: float = 0.05
    lam: float = 0.01

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class CenterAssignment:
    """The centers of one sample's positive labels, in label order,
    mapped to {0, 1}."""

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
    return CenterAssignment(centers01)


def clamp_code(b: Sequence[float]) -> np.ndarray:
    return np.clip(np.asarray(b, dtype=np.float64), CODE_EPS, 1.0 - CODE_EPS)


def bce_distance(b: Sequence[float], center01: Sequence[float]) -> float:
    """Nonnegative cross-entropy distance of a relaxed code to one
    center given in {0, 1}; equals K*log 2 at b = 0.5."""
    b, v = np.asarray(b, dtype=np.float64), np.asarray(center01, dtype=np.float64)
    if b.shape != v.shape:
        raise ValueError(f"code/center length mismatch: {b.shape} vs {v.shape}")
    return float(distance_matrix(b, v[None])[0, 0])


def distance_vector(b: Sequence[float], assignment: CenterAssignment) -> np.ndarray:
    """BCE distance of one code to each of the sample's centers."""
    b, v = np.asarray(b, dtype=np.float64), assignment.centers01
    if b.shape != (v.shape[1],):
        raise ValueError(f"code length {b.shape} does not match centers {v.shape}")
    return distance_matrix(b, v)[0]


def distance_matrix(codes, centers01) -> np.ndarray:
    """BCE distance of every code to every center in one pass.

    For clamped codes b (B, K) and centers v in {0, 1}, (M, K) shared by
    every code or (B, M, K) per code,
    d_ij = -(sum_k log(1 - b_ik) + sum_k (log b_ik - log(1 - b_ik)) v_jk).
    Returns (B, M).
    """
    b = clamp_code(np.atleast_2d(codes))
    v = np.asarray(centers01, dtype=np.float64)
    if not (v.ndim == 2 or v.ndim == 3 and len(v) == len(b)) or v.shape[-1] != b.shape[1]:
        raise ValueError(f"codes {b.shape} do not match centers {v.shape}")
    log_1mb = np.log(1.0 - b)
    x = np.log(b) - log_1mb
    # a shared set takes the 2-D product, per-code sets one product per row
    cross = x @ v.T if v.ndim == 2 else (x[:, None] @ v.transpose(0, 2, 1))[:, 0]
    return -(log_1mb.sum(axis=1, keepdims=True) + cross)


def _padded_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows of differing lengths as one array, zero-padded to the longest
    (N, L, ...), and the (N, L) boolean mask of the entries they fill."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    flat = np.concatenate(rows)
    padded = np.zeros((*mask.shape, *flat.shape[1:]), dtype=flat.dtype)
    padded[mask] = flat
    return padded, mask


def _ragged_rows(codes, assignments, weights):
    """A ragged batch laid out as (B, P) rows, P the most centers of any
    sample: the clamped codes, each sample's distances and weights in its
    first c columns (zero after them), the mask of those columns, and the
    (B, P, K) {0, 1} centers. The mask's row-major order is the pair
    order; the layout grows as B * P, not as B times all pairs."""
    b = clamp_code(np.atleast_2d(codes))
    n = len(assignments)
    if n == 0:
        raise ValueError("empty batch")
    if b.shape[0] != n or len(weights) != n:
        raise ValueError(f"{b.shape[0]} codes, {n} assignments, {len(weights)} weight rows")
    counts = [a.centers01.shape[0] for a in assignments]
    if min(counts) == 0 or [np.shape(w) for w in weights] != [(c,) for c in counts]:
        raise ValueError("every sample needs one or more centers and one weight per center")
    centers, mask = _padded_rows([a.centers01 for a in assignments])
    w, _ = _padded_rows(weights)
    return b, np.where(mask, distance_matrix(b, centers), 0.0), w, mask, centers


def _loss_and_gradient(b, d, w, mask, centers01, cfg: LossConfig):
    """(J, parts, dJ/db) of a batch in one pass: clamped codes ``b``
    (B, K), their distances ``d`` (B, P) to the {0, 1} centers
    ``centers01``, (P, K) shared by every row or (B, P, K) per row, and
    weights ``w`` (B, P), zero off the boolean (B, P) ``mask``. The
    central gradient sum_j c_ij (b_i - v_j) / (b_i (1 - b_i)) is taken as
    (c (1 - V))_i / (1 - b_i) - (c V)_i / b_i, which spares a code at the
    clamp a cancellation of two near terms.
    """
    omega = (w * d).sum(axis=1, keepdims=True)
    j_central = float(np.sum(np.logaddexp(0.0, cfg.beta * omega)))
    j_quant = quantization_loss(b)
    entropy = entropy_regularizer(w[mask])
    # (B, 1, P): each row of c against the (P, K) centers, shared or its own
    c = (cfg.beta * w * _sigmoid(cfg.beta * omega))[:, None]
    s = 2.0 * b - 1.0
    grad = (c @ (1.0 - centers01))[:, 0] / (1.0 - b) - (c @ centers01)[:, 0] / b
    grad += cfg.gamma * 2.0 * np.sign(s) * np.tanh(np.abs(s) - 1.0)
    total = j_central + cfg.gamma * j_quant + cfg.lam * entropy
    return total, {"central": j_central, "quantization": j_quant, "entropy": entropy}, grad


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
    "entropy"; J recombines them exactly. The central part is
    sum_i softplus(beta * omega_i), omega_i = sum_j w_ij d_ij.
    """
    return _loss_and_gradient(*_ragged_rows(codes, assignments, weights), cfg)[:2]


def loss_gradient_wrt_codes(codes, assignments, weights, cfg: LossConfig) -> np.ndarray:
    """Analytic dJ/db for every sample, weights held fixed.

    Per pair, d/db of softplus(beta * omega_i) is
    c_ij (b_i - v_ij) / (b_i (1 - b_i)) with
    c_ij = beta * w_ij * sigmoid(beta * omega_i); the quantization term
    uses subgradient 0 at the kink b = 0.5.
    """
    return _loss_and_gradient(*_ragged_rows(codes, assignments, weights), cfg)[2]
