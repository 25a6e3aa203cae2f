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

from . import data as _data
from .centers import HashCenterSet
from .data import Dataset, _check_rest_blank, _header_int, _parse_rows, _read_header, _take_lines
from .errors import ConfigError, DataError, ParseError, check_int
from .loss import (
    CODE_EPS,
    LossConfig,
    _loss_and_gradient,
    clamp_code,
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


@dataclass
class EncoderParams:
    """One weight matrix (in x out) and one bias vector per layer. The
    layers must chain; their sizes [D, h1, ..., K] are read off the
    weight shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError(
                f"weights for {len(self.weights)} layers, biases for {len(self.biases)}: "
                "need one of each per layer, and at least one layer"
            )
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            shape = np.shape(w)
            if len(shape) != 2 or min(shape) < 1:
                raise ValueError(f"layer {l}: weight shape {shape} is not (IN, OUT), both >= 1")
            if l and shape[0] != np.shape(self.weights[l - 1])[1]:
                raise ValueError(f"layer {l}: weight shape {shape} does not follow layer {l - 1}")
            if np.shape(b) != shape[1:]:
                raise ValueError(f"layer {l}: bias shape {np.shape(b)} is not ({shape[1]},)")

    @property
    def sizes(self) -> list[int]:
        return [np.shape(self.weights[0])[0], *(np.shape(w)[1] for w in self.weights)]

    def n_layers(self) -> int:
        return len(self.weights)


def init_params(sizes, rng: "np.random.Generator") -> EncoderParams:
    """Gaussian fan-in initialization; biases start at zero."""
    sizes = [check_int(f"sizes[{i}]", s, 1) for i, s in enumerate(sizes)]
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return EncoderParams(weights, biases)


def _forward(params: EncoderParams, x: np.ndarray):
    """Forward pass over a (N, D) float64 batch: the per-layer inputs and
    the raw sigmoid outputs (N, K), each layer computed in place in one
    fresh array. A pre-activation past the float range is not reported:
    its output saturates at 0 or 1 (inf - inf stays nan), in train and
    eval alike."""
    d = params.sizes[0]
    if x.shape[1] != d:
        raise ValueError(f"feature dimension {x.shape[1]} does not match D={d}")
    inputs, a = [], x
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            inputs.append(a)
            a = a @ w
            a += b
            if l < params.n_layers() - 1:
                np.maximum(a, 0.0, out=a)
        return inputs, _sigmoid(a, out=a)


def forward_batch(params: EncoderParams, x: np.ndarray):
    """Forward pass over a (N, D) batch.

    Returns the clamped codes (N, K) and the cache needed by
    backward_batch: per-layer inputs, plus the raw sigmoid outputs.
    """
    inputs, sig = _forward(params, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return clamp_code(sig), (inputs, sig)


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
    """First and second moments, one pair per array of
    ``[*params.weights, *params.biases]``, and the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        arrays = [*params.weights, *params.biases]
        return cls([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])


def adam_step(params: EncoderParams, state: AdamState, grads, lr: float) -> None:
    """In-place Adam update with bias correction, moment decay rates
    0.9 and 0.99 and denominator guard 1e-8; no weight decay."""
    grads_w, grads_b = grads
    state.t += 1
    corr1 = 1.0 - _ADAM_BETA1**state.t
    corr2 = 1.0 - _ADAM_BETA2**state.t
    values = [*params.weights, *params.biases]
    for value, grad, m, v in zip(values, [*grads_w, *grads_b], state.m, state.v):
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
    """The trained encoder, the (N, M) weight matrix, zero off the
    (N, M) label mask, and the per-epoch loss parts."""

    params: EncoderParams
    weight_matrix: np.ndarray
    label_mask: np.ndarray
    loss_history: list[dict]

    @property
    def weight_table(self) -> list[np.ndarray]:
        """Each sample's weights on its positive labels, in label order."""
        flat = self.weight_matrix[self.label_mask]
        return np.split(flat, np.cumsum(self.label_mask.sum(axis=1))[:-1])


def _check_finite(arrays, features, samples, cfg: TrainConfig, epoch: int, batch: int) -> None:
    """Unless every array (codes or parameters) is finite: DataError for
    the first of the batch's ``samples`` with a non-finite feature (one
    written after the Dataset was built), else ConfigError."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    bad = samples[~np.isfinite(features[samples]).all(axis=1)]
    if bad.size:
        raise DataError(f"sample {bad.min()} has a non-finite feature")
    raise ConfigError(
        f"training diverged at epoch {epoch}, batch {batch}: the encoder's "
        f"values are no longer finite at lr0={cfg.lr0:g}"
    )


@np.errstate(over="ignore", invalid="ignore")  # a diverging run is refused below
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
    A ConfigError names the epoch and batch, from 0, where a rate too
    large first made the codes or parameters non-finite, unless a sample
    of that batch had its features made non-finite after the Dataset was
    built (DataError).
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
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            codes, cache = forward_batch(params, features[batch])
            _check_finite([codes], features, batch, cfg, epoch, b)
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
            _check_finite([*params.weights, *params.biases], features, batch, cfg, epoch, b)
            for key, part in {"total": value, **parts}.items():
                sums[key] += part
        history.append(sums)
    return TrainState(params, weights, mask, history)


def binarize(b) -> np.ndarray:
    """Threshold a relaxed code at 0.5 into {-1, +1}; ties go to +1."""
    codes = np.array(np.asarray(b, dtype=np.float64) >= 0.5, dtype=np.int8)
    codes *= 2
    codes -= 1
    return codes


def encode_binary(params: EncoderParams, features) -> np.ndarray:
    """Binarized codes, (N, K) int8, for a feature matrix, from one forward
    pass per block of data._ROW_BLOCK rows: binarize's of forward_batch's,
    bit for bit, as its clamp to [CODE_EPS, 1 - CODE_EPS] moves no output
    across 0.5."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    block = _data._ROW_BLOCK
    codes = np.empty((len(x), params.sizes[-1]), dtype=np.int8)
    for start in range(0, max(len(x), 1), block):  # N = 0 still checks D
        codes[start : start + block] = binarize(_forward(params, x[start : start + block])[1])
    return codes


_CKPT_MAGIC = "icshash-checkpoint-v1"


def save_checkpoint(path, params: EncoderParams, k_bits: int, m_labels: int, seed: int) -> None:
    """Text checkpoint that round-trips parameters bit-exactly. ValueError,
    naming the field, for a header or a parameter that load_checkpoint
    would refuse, before the file is opened."""
    k_bits = check_int("k_bits", k_bits, 1)
    if k_bits != params.sizes[-1]:
        raise ValueError(f"k_bits {k_bits} does not match the last layer size {params.sizes[-1]}")
    m_labels, seed = check_int("m_labels", m_labels, 1), check_int("seed", seed, 0)
    for name, arrays in (("weights", params.weights), ("biases", params.biases)):
        for l, values in enumerate(arrays):
            if not np.isfinite(values).all():
                raise ValueError(f"{name}[{l}] holds a non-finite value")
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
    header integers are plain decimal, as save_checkpoint writes them: the
    layer sizes, k_bits (the last size) and m_labels at least 1, seed at
    least 0. Every weight and bias is finite. Only blank lines may follow
    the last bias row."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != _CKPT_MAGIC:
            raise ParseError("not an encoder checkpoint", line=1)
        tag, *fields = fh.readline().split() or [None]
        if tag != "sizes" or len(fields) < 2:
            raise ParseError("expected 'sizes' and at least two layer sizes", line=2)
        sizes = [_header_int(field, "sizes", 1, 2) for field in fields]
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
        blocks, line = [], 6  # each layer's weight rows, then its bias row
        for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            for tag, rows in ((f"weight {l} {n_in} {n_out}", n_in), (f"bias {l} {n_out}", 1)):
                if fh.readline().split() != tag.split():  # as save_checkpoint writes it
                    raise ParseError(f"expected '{tag}'", line=line)
                body, numbers = _take_lines(fh, rows, line, total), range(line + 1, line + 1 + rows)
                values = _parse_rows(body, numbers, n_out, np.float64)
                finite = np.isfinite(values).all(axis=1)
                if not finite.all():  # named: the first such row
                    kind = tag.split()[0]  # weight or bias
                    raise ParseError(f"non-finite {kind} value", line=numbers[finite.argmin()])
                blocks.append(values)
                line += 1 + rows
        _check_rest_blank(fh, "unexpected line after the last bias row", line)
    return EncoderParams(blocks[0::2], [b[0] for b in blocks[1::2]]), meta
