"""Small feed-forward hash encoder with hand-written backpropagation.

The encoder maps a feature vector to a relaxed code in (0, 1)^K:
affine layers with rectifier activations, a final logistic squashing,
and a clamp away from 0/1. Training alternates two steps per batch:
solve the center weights of the whole batch in one call with the
encoder frozen, then backpropagate the total loss with the weights
frozen and apply an Adam update.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .centers import HashCenterSet
from .data import Dataset, _check_rest_blank, _parse_rows, _read_header, _take_lines
from .errors import ConfigError, DataError, ParseError, check_int
from .loss import (
    CODE_EPS,
    LossConfig,
    _loss_and_gradient,
    distance_matrix,
    distance_vector,  # unused: perfbench/traced.py rebinds this name by getattr
    loss_gradient_wrt_codes,  # unused: perfbench/traced.py rebinds this name by getattr
    total_loss,  # unused: perfbench/traced.py rebinds this name by getattr
)
from .weights import (
    WeightSolverConfig,
    _sigmoid,
    solve_weights,  # unused: perfbench/traced.py rebinds this name by getattr
    solve_weights_batch,
)

WEIGHT_MODES = ("learned", "equal")

# Adam's moment decay rates and denominator guard.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.99, 1e-8
_LR_DECAY_EVERY, _LR_DECAY_FACTOR = 30, 10.0

# Rows per forward pass of encode_binary: its float64 activations are
# O(_ENCODE_BLOCK) rows however large the feature matrix.
_ENCODE_BLOCK = 1024


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
    sizes = [check_int(f"sizes[{i}]", s, 1) for i, s in enumerate(sizes)]
    if len(sizes) < 2:
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
        a = _sigmoid(z) if l == last else np.maximum(z, 0.0)
    sig = a
    codes = np.clip(sig, CODE_EPS, 1.0 - CODE_EPS)
    return codes, (inputs, sig)


def backward_batch(params: EncoderParams, cache, grad_codes: np.ndarray):
    """Reverse-mode gradients for every weight and bias.

    grad_codes is dLoss/dcode, (N, K), the shape of the cached codes.
    Samples are accumulated in index order. Where the output clamp is
    active the derivative is zero.
    """
    inputs, sig = cache
    grad_codes = np.asarray(grad_codes, dtype=np.float64)
    if grad_codes.shape != sig.shape:
        raise ValueError(f"gradient shape {grad_codes.shape} does not match codes {sig.shape}")
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


def adam_step(params: EncoderParams, state: AdamState, grads, lr: float) -> None:
    """In-place Adam update with bias correction, moment decay rates
    0.9 and 0.99 and denominator guard 1e-8; no weight decay."""
    grads_w, grads_b = grads
    state.t += 1
    t = state.t
    corr1 = 1.0 - _ADAM_BETA1**t
    corr2 = 1.0 - _ADAM_BETA2**t
    for l in range(params.n_layers()):
        for value, grad, m, v in (
            (params.weights[l], grads_w[l], state.m_w[l], state.v_w[l]),
            (params.biases[l], grads_b[l], state.m_b[l], state.v_b[l]),
        ):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * grad
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * grad**2
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + _ADAM_EPS)


@dataclass
class TrainConfig:
    """Training settings. ``solver`` left as None is built from the
    loss's lam and beta; a given solver must have the loss's lam and
    beta, so that both steps minimize one objective."""

    epochs: int = 90
    batch_size: int = 64
    lr0: float = 1e-4
    hidden: tuple[int, ...] = (64,)
    loss: LossConfig = field(default_factory=LossConfig)
    solver: WeightSolverConfig | None = None
    weight_mode: str = "learned"
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        for i, h in enumerate(self.hidden):
            check_int(f"hidden[{i}]", h, 1)
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be finite and positive")
        if self.solver is None:
            self.solver = WeightSolverConfig(lam=self.loss.lam, beta=self.loss.beta)
        if (self.solver.lam, self.solver.beta) != (self.loss.lam, self.loss.beta):
            raise ValueError(
                f"solver lam={self.solver.lam}, beta={self.solver.beta} differ from "
                f"loss lam={self.loss.lam}, beta={self.loss.beta}: both steps must "
                "minimize one objective"
            )


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Step-decayed rate: lr0 divided by 10 once every 30 epochs."""
    return cfg.lr0 / (_LR_DECAY_FACTOR ** (epoch // _LR_DECAY_EVERY))


@dataclass
class TrainState:
    """The trained encoder, its optimizer state, the per-epoch loss
    parts, and the (N, M) weight matrix, zero off the (N, M) label
    mask."""

    params: EncoderParams
    adam: AdamState
    weight_matrix: np.ndarray
    label_mask: np.ndarray
    loss_history: list[dict]
    config: TrainConfig

    @property
    def weight_table(self) -> list[np.ndarray]:
        """Each sample's weights on its positive labels, in label order."""
        flat = self.weight_matrix[self.label_mask]
        return np.split(flat, np.cumsum(self.label_mask.sum(axis=1))[:-1])


def train(data: Dataset, center_set: HashCenterSet, cfg: TrainConfig) -> TrainState:
    """Two-step alternating optimization on a Dataset, whose columns
    were checked when it was built; its M must match the centers'.

    Per batch: freeze the encoder, compute the batch's (B, M) code-to-
    center distances in one pass and re-solve all of its weight rows
    with one ``solve_weights_batch`` call, warm-started from the stored
    rows (skipped in "equal" mode, which pins every weight at 1/c); then
    freeze the weights and take one Adam step on the total loss, whose
    value and code gradient come from one pass over the same (B, M)
    distances, weights and label mask. In exact mode the solve is the
    optimality root, so the solver's eta, max_iters and tol apply to
    paper mode only. The weights are kept as one (N, M) matrix, zero off
    the (N, M) label mask; no per-sample object is built. The loss
    decomposition is recorded per epoch. Deterministic for a fixed seed.
    """
    if len(data) == 0:
        raise DataError("empty dataset")
    m, want = data.labels.shape[1], center_set.m_labels
    if m != want:
        raise ConfigError(f"sample 0 has {m} labels but the centers define M={want}")
    features, mask = data.features, data.labels != 0
    rng = np.random.default_rng(cfg.seed)
    sizes = [features.shape[1], *cfg.hidden, center_set.k_bits]
    params = init_params(sizes, rng)
    adam = AdamState.for_params(params)
    weights = mask / mask.sum(axis=1, keepdims=True)
    centers01 = (center_set.centers.astype(np.float64) + 1.0) / 2.0
    n = len(data)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        order = rng.permutation(n)
        sums = {"total": 0.0, "central": 0.0, "quantization": 0.0, "entropy": 0.0}
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            codes, cache = forward_batch(params, features[batch])
            d = distance_matrix(codes, centers01)
            w, batch_mask = weights[batch], mask[batch]
            if cfg.weight_mode == "learned":
                w = solve_weights_batch(d, batch_mask, cfg.solver, w_init=w)
                weights[batch] = w
            value, parts, grad_codes = _loss_and_gradient(
                codes, d, w, batch_mask, centers01, cfg.loss
            )
            grads = backward_batch(params, cache, grad_codes)
            adam_step(params, adam, grads, lr)
            for key, part in {"total": value, **parts}.items():
                sums[key] += part
        history.append(sums)
    return TrainState(params, adam, weights, mask, history, cfg)


def binarize(b) -> np.ndarray:
    """Threshold a relaxed code at 0.5 into {-1, +1}; ties go to +1."""
    codes = np.array(np.asarray(b, dtype=np.float64) >= 0.5, dtype=np.int8)
    codes *= 2
    codes -= 1
    return codes


def encode_binary(params: EncoderParams, features) -> np.ndarray:
    """Binarized codes, (N, K) int8, for a feature matrix, from one
    forward pass per block of _ENCODE_BLOCK rows."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    codes = np.empty((len(x), params.sizes[-1]), dtype=np.int8)
    for start in range(0, max(len(x), 1), _ENCODE_BLOCK):  # N = 0 still checks D
        rows = slice(start, start + _ENCODE_BLOCK)
        codes[rows] = binarize(forward_batch(params, x[rows])[0])
    return codes


_CKPT_MAGIC = "icshash-checkpoint-v1"


def save_checkpoint(path, params: EncoderParams, k_bits: int, m_labels: int, seed: int) -> None:
    """Text checkpoint that round-trips parameters bit-exactly. ValueError,
    naming the field, for a header that load_checkpoint would refuse."""
    k_bits = check_int("k_bits", k_bits, 1)
    if k_bits != params.sizes[-1]:
        raise ValueError(f"k_bits {k_bits} does not match the last layer size {params.sizes[-1]}")
    m_labels, seed = check_int("m_labels", m_labels, 1), check_int("seed", seed, 0)
    with open(path, "w") as fh:
        fh.write(
            f"{_CKPT_MAGIC}\nsizes {' '.join(map(str, params.sizes))}\n"
            f"k_bits {k_bits}\nm_labels {m_labels}\nseed {seed}\n"
        )
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            fh.write(f"weight {l} {w.shape[0]} {w.shape[1]}\n")
            np.savetxt(fh, w, fmt="%.17g")
            fh.write(f"bias {l} {b.shape[0]}\n")
            np.savetxt(fh, b[None], fmt="%.17g")


def load_checkpoint(path):
    """Returns (params, meta) with meta = {k_bits, m_labels, seed}. The
    layer sizes, k_bits (the last size) and m_labels must be at least 1,
    seed at least 0; only blank lines may follow the last bias row."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != _CKPT_MAGIC:
            raise ParseError("not an encoder checkpoint", line=1)
        tag, *fields = fh.readline().split() or [None]
        if tag != "sizes" or len(fields) < 2:
            raise ParseError("expected 'sizes' and at least two layer sizes", line=2)
        sizes = _parse_rows([" ".join(fields)], [2], len(fields), np.int64)[0].tolist()
        if min(sizes) < 1:
            raise ParseError("layer sizes must be at least 1", line=2)
        meta = {}
        for line, (key, minimum) in enumerate((("k_bits", 1), ("m_labels", 1), ("seed", 0)), 3):
            name, meta[key] = _read_header(fh, f"{key} {key.upper()}", {key.upper(): minimum}, line)
            if name != key:
                raise ParseError(f"expected '{key}'", line=line)
        if sizes[-1] != meta["k_bits"]:
            raise ParseError(
                f"last layer size {sizes[-1]} does not match k_bits {meta['k_bits']}", line=2
            )
        total = 5 + sum(n_in + 3 for n_in in sizes[:-1])

        def read_block(header, fields, rows, line):
            # a tag line, line ``line``, giving ``fields`` under the names
            # ``header``, then ``rows`` lines of fields[-1] floats
            tag, *names = header.split()
            if _read_header(fh, header, dict.fromkeys(names, 0), line) != [tag, *fields]:
                raise ParseError("expected '{}'".format(" ".join(map(str, [tag, *fields]))), line)
            body = _take_lines(fh, rows, line, total)
            return _parse_rows(body, range(line + 1, line + 1 + rows), fields[-1], np.float64)

        weights, biases, line = [], [], 6
        for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            weights.append(read_block("weight LAYER IN OUT", [l, n_in, n_out], n_in, line))
            biases.append(read_block("bias LAYER OUT", [l, n_out], 1, line + 1 + n_in)[0])
            line += n_in + 3
        _check_rest_blank(fh, "unexpected line after the last bias row", line)
    return EncoderParams(sizes, weights, biases), meta
