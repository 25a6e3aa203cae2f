"""Small feed-forward hash encoder with hand-written backpropagation.

The encoder maps a feature vector to a relaxed code in (0, 1)^K:
affine layers with rectifier activations, a final logistic squashing,
and a clamp away from 0/1. Training alternates two steps per batch:
solve each sample's center weights with the encoder frozen, then
backpropagate the total loss with the weights frozen and apply an Adam
update.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .centers import HashCenterSet
from .data import MultiLabelSample
from .errors import ConfigError, DataError, ParseError
from .loss import (
    CODE_EPS,
    CenterAssignment,
    LossConfig,
    assignment_for_labels,
    distance_vector,
    loss_gradient_wrt_codes,
    total_loss,
)
from .weights import WeightSolverConfig, solve_weights

WEIGHT_MODES = ("learned", "equal")


@dataclass
class EncoderParams:
    """Layer sizes [D, h1, ..., K] plus one weight matrix (in x out)
    and one bias vector per layer."""

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            list(self.sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_params(sizes, rng: np.random.Generator) -> EncoderParams:
    """Gaussian fan-in initialization; biases start at zero."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return EncoderParams(sizes, weights, biases)


def forward_batch(params: EncoderParams, x: np.ndarray):
    """Forward pass over a (N, D) batch.

    Returns the clamped codes (N, K) and the cache needed by
    backward_batch: per-layer inputs, plus the raw sigmoid outputs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.sizes[0]:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match D={params.sizes[0]}"
        )
    inputs = []
    a = x
    last = params.n_layers() - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        z = a @ w + b
        a = expit(z) if l == last else np.maximum(z, 0.0)
    sig = a
    codes = np.clip(sig, CODE_EPS, 1.0 - CODE_EPS)
    return codes, (inputs, sig)


def forward(params: EncoderParams, x) -> np.ndarray:
    """Relaxed code for a single feature vector."""
    codes, _ = forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return codes[0]


def backward_batch(params: EncoderParams, cache, grad_codes: np.ndarray):
    """Reverse-mode gradients for every weight and bias.

    grad_codes is dLoss/dcode, (N, K). Samples are accumulated in index
    order. Where the output clamp is active the derivative is zero.
    """
    inputs, sig = cache
    grad_codes = np.atleast_2d(np.asarray(grad_codes, dtype=np.float64))
    pass_through = (sig > CODE_EPS) & (sig < 1.0 - CODE_EPS)
    delta = grad_codes * sig * (1.0 - sig) * pass_through
    grads_w = [None] * params.n_layers()
    grads_b = [None] * params.n_layers()
    for l in range(params.n_layers() - 1, -1, -1):
        a = inputs[l]
        grads_w[l] = a.T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            da = delta @ params.weights[l].T
            delta = da * (a > 0.0)
    return grads_w, grads_b


def backward(params: EncoderParams, x, grad_wrt_code):
    """Single-sample gradients given dLoss/dcode of length K."""
    grad_wrt_code = np.asarray(grad_wrt_code, dtype=np.float64)
    if grad_wrt_code.shape != (params.sizes[-1],):
        raise ValueError(
            f"gradient length {grad_wrt_code.shape} does not match K={params.sizes[-1]}"
        )
    _, cache = forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return backward_batch(params, cache, grad_wrt_code[None, :])


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
            [np.zeros_like(b) for b in params.biases],
        )


def adam_step(
    params: EncoderParams,
    state: AdamState,
    grads,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.99,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """In-place Adam update with bias correction; decoupled weight
    decay is applied to the weight matrices only."""
    grads_w, grads_b = grads
    state.t += 1
    t = state.t
    corr1 = 1.0 - beta1**t
    corr2 = 1.0 - beta2**t
    for l in range(params.n_layers()):
        for value, grad, m, v in (
            (params.weights[l], grads_w[l], state.m_w[l], state.v_w[l]),
            (params.biases[l], grads_b[l], state.m_b[l], state.v_b[l]),
        ):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        if weight_decay:
            params.weights[l] -= lr * weight_decay * params.weights[l]


@dataclass
class TrainConfig:
    epochs: int = 90
    batch_size: int = 64
    lr0: float = 1e-4
    lr_decay_every: int = 30
    lr_decay_factor: float = 10.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    hidden: tuple[int, ...] = (64,)
    loss: LossConfig = field(default_factory=LossConfig)
    solver: WeightSolverConfig | None = None
    weight_mode: str = "learned"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")

    def resolved_solver(self) -> WeightSolverConfig:
        """The weight-solver configuration actually used in training;
        defaults inherit the loss bandwidth and entropy strength."""
        if self.solver is not None:
            return self.solver
        return WeightSolverConfig(lam=self.loss.lam, beta=self.loss.beta)


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Step-decayed rate: lr0 divided by the decay factor once per
    decay interval."""
    return cfg.lr0 / (cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every))


@dataclass
class TrainState:
    params: EncoderParams
    adam: AdamState
    weight_table: list[np.ndarray]
    loss_history: list[dict]
    assignments: list[CenterAssignment]
    config: TrainConfig


def _validate_dataset(samples, center_set: HashCenterSet):
    if len(samples) == 0:
        raise DataError("empty dataset")
    m = center_set.m_labels
    dim = len(samples[0].features)
    for i, s in enumerate(samples):
        if len(s.labels) != m:
            raise ConfigError(
                f"sample {i} has {len(s.labels)} labels but the centers "
                f"define M={m}"
            )
        if int(np.sum(s.labels)) == 0:
            raise DataError(f"sample {i} has no positive label")
        if len(s.features) != dim:
            raise DataError(
                f"sample {i} has {len(s.features)} features, expected {dim}"
            )
        if not np.all(np.isfinite(s.features)):
            raise DataError(f"sample {i} has a non-finite feature")
    return dim


def train(
    samples: list[MultiLabelSample],
    center_set: HashCenterSet,
    cfg: TrainConfig,
) -> TrainState:
    """Two-step alternating optimization.

    Per batch: freeze the encoder, recompute each sample's distance
    vector and re-solve its weights warm-started from the stored table
    (skipped in "equal" mode, which pins every weight at 1/c); then
    freeze the weights and take one Adam step on the total loss.
    Weight rows are stored per sample and the loss decomposition is
    recorded per epoch. Deterministic for a fixed seed.
    """
    dim = _validate_dataset(samples, center_set)
    rng = np.random.default_rng(cfg.seed)
    sizes = [dim, *cfg.hidden, center_set.k_bits]
    params = init_params(sizes, rng)
    adam = AdamState.for_params(params)
    assignments = [
        assignment_for_labels(center_set, s.labels) for s in samples
    ]
    weight_table = [
        np.full(len(a.center_indices), 1.0 / len(a.center_indices))
        for a in assignments
    ]
    features = np.asarray([s.features for s in samples], dtype=np.float64)
    solver_cfg = cfg.resolved_solver()
    n = len(samples)
    history: list[dict] = []
    state = TrainState(params, adam, weight_table, history, assignments, cfg)
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        order = rng.permutation(n)
        sums = {"total": 0.0, "central": 0.0, "quantization": 0.0, "entropy": 0.0}
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            codes, cache = forward_batch(params, features[batch])
            if cfg.weight_mode == "learned":
                for row, i in enumerate(batch):
                    d = distance_vector(codes[row], assignments[i])
                    result = solve_weights(d, solver_cfg, w_init=weight_table[i])
                    weight_table[i] = result.w
            batch_assignments = [assignments[i] for i in batch]
            batch_weights = [weight_table[i] for i in batch]
            value, parts = total_loss(codes, batch_assignments, batch_weights, cfg.loss)
            grad_codes = loss_gradient_wrt_codes(
                codes, batch_assignments, batch_weights, cfg.loss
            )
            grads = backward_batch(params, cache, grad_codes)
            adam_step(
                params,
                adam,
                grads,
                lr,
                beta1=cfg.adam_beta1,
                beta2=cfg.adam_beta2,
                eps=cfg.adam_eps,
                weight_decay=cfg.weight_decay,
            )
            sums["total"] += value
            for key in ("central", "quantization", "entropy"):
                sums[key] += parts[key]
        history.append(sums)
    return state


def binarize(b) -> np.ndarray:
    """Threshold a relaxed code at 0.5 into {-1, +1}; ties go to +1."""
    b = np.asarray(b, dtype=np.float64)
    return np.where(b >= 0.5, 1, -1).astype(np.int8)


def encode_binary(params: EncoderParams, features) -> np.ndarray:
    """Binarized codes, (N, K) int8, for a feature matrix."""
    codes, _ = forward_batch(params, features)
    return binarize(codes)


_CKPT_MAGIC = "icshash-checkpoint-v1"


def save_checkpoint(path, params: EncoderParams, k_bits: int, m_labels: int, seed: int) -> None:
    """Text checkpoint that round-trips parameters bit-exactly."""
    lines = [
        _CKPT_MAGIC,
        "sizes " + " ".join(str(s) for s in params.sizes),
        f"k_bits {k_bits}",
        f"m_labels {m_labels}",
        f"seed {seed}",
    ]
    for l in range(params.n_layers()):
        w, b = params.weights[l], params.biases[l]
        lines.append(f"weight {l} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(f"bias {l} {b.shape[0]}")
        lines.append(" ".join(f"{v:.17g}" for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Returns (params, meta) with meta = {k_bits, m_labels, seed}."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != _CKPT_MAGIC:
        raise ParseError("not an encoder checkpoint", line=1)
    try:
        sizes = [int(v) for v in raw[1].split()[1:]]
        meta = {}
        for ln in (2, 3, 4):
            key, value = raw[ln].split()
            meta[key] = int(value)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad checkpoint header: {exc}", line=2) from None
    weights, biases = [], []
    ln = 5
    try:
        for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            tag, idx, rows, cols = raw[ln].split()
            if tag != "weight" or [int(idx), int(rows), int(cols)] != [l, n_in, n_out]:
                raise ParseError(f"expected 'weight {l} {n_in} {n_out}'", line=ln + 1)
            ln += 1
            w = np.empty((n_in, n_out))
            for r in range(n_in):
                row = np.array(raw[ln].split(), dtype=np.float64)
                if row.size != n_out:
                    raise ParseError(f"expected {n_out} weights", line=ln + 1)
                w[r] = row
                ln += 1
            tag, idx, n = raw[ln].split()
            if tag != "bias" or [int(idx), int(n)] != [l, n_out]:
                raise ParseError(f"expected 'bias {l} {n_out}'", line=ln + 1)
            ln += 1
            b = np.array(raw[ln].split(), dtype=np.float64)
            if b.size != n_out:
                raise ParseError(f"expected {n_out} biases", line=ln + 1)
            ln += 1
            weights.append(w)
            biases.append(b)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad checkpoint body: {exc}", line=ln + 1) from None
    params = EncoderParams(sizes, weights, biases)
    return params, meta
