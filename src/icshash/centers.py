"""Hash-center construction.

Centers are fixed K-bit codes in {-1, +1}, one per class label. When K
is a power of two they are drawn from the rows of an orthogonal +-1
matrix built by repeated doubling, which puts every pair of distinct
rows at Hamming distance exactly K/2; otherwise balanced Bernoulli
codes are drawn and de-duplicated.
"""

from dataclasses import dataclass

import numpy as np

from .data import _parse_rows, _read_table
from .errors import CapacityError, ParseError

# Largest supported doubling exponent (order 2^16 = 65536); beyond this
# the dense matrix no longer fits in desk-scale memory.
MAX_ORDER_EXP = 16

# How often a Bernoulli row may be redrawn before giving up.
MAX_ROW_RESAMPLES = 1000

STRATEGIES = ("hadamard-rows", "stacked-hadamard", "bernoulli")


@dataclass(frozen=True)
class HashCenterSet:
    """M distinct center codes of K bits each, valued in {-1, +1}."""

    k_bits: int
    m_labels: int
    centers: np.ndarray  # (m_labels, k_bits) int8
    strategy: str
    seed: int

    def __post_init__(self):
        c = np.asarray(self.centers)
        if c.shape != (self.m_labels, self.k_bits):
            raise ValueError(
                f"centers shape {c.shape} does not match "
                f"({self.m_labels}, {self.k_bits})"
            )
        if not np.all(np.abs(c) == 1):
            raise ValueError("center entries must be -1 or +1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


def sylvester_hadamard(k_exp: int) -> np.ndarray:
    """Orthogonal +-1 matrix of order 2**k_exp built by repeated doubling.

    Starts from [[1]] and Kronecker-multiplies by [[1, 1], [1, -1]] on
    the left, k_exp times. Every pair of distinct rows has inner
    product zero.
    """
    if k_exp < 0:
        raise ValueError("k_exp must be nonnegative")
    if k_exp > MAX_ORDER_EXP:
        raise CapacityError(
            f"order 2^{k_exp} exceeds the supported maximum 2^{MAX_ORDER_EXP}"
        )
    block = np.array([[1, 1], [1, -1]], dtype=np.int8)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(k_exp):
        h = np.kron(block, h)
    return h


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded in-place shuffle of range(n); deterministic given the rng state."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _balanced(row: np.ndarray) -> bool:
    ones = int(np.count_nonzero(row == 1))
    k = row.size
    return ones in (k // 2, (k + 1) // 2)


def _bernoulli_centers(k_bits: int, m_labels: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((m_labels, k_bits), dtype=np.int8)
    seen = set()
    for i in range(m_labels):
        for _ in range(MAX_ROW_RESAMPLES):
            row = (2 * rng.integers(0, 2, size=k_bits) - 1).astype(np.int8)
            if not _balanced(row):
                continue
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
            centers[i] = row
            break
        else:
            raise CapacityError(
                f"could not draw a balanced distinct center for row {i} "
                f"after {MAX_ROW_RESAMPLES} resamples (K={k_bits}, M={m_labels})"
            )
    return centers


def generate_centers(k_bits: int, m_labels: int, seed: int) -> HashCenterSet:
    """Draw M distinct K-bit centers.

    Strategy is picked from the shape of the problem:

    * K a power of two and M <= K: sample rows of the order-K
      orthogonal matrix without replacement ("hadamard-rows").
    * K a power of two and K < M <= 2K: sample rows of the matrix
      stacked with its negation ("stacked-hadamard").
    * anything else: balanced Bernoulli rows, resampled until distinct
      ("bernoulli").

    Deterministic given (k_bits, m_labels, seed).
    """
    if k_bits < 2:
        raise ValueError("k_bits must be at least 2")
    if m_labels < 1:
        raise ValueError("m_labels must be at least 1")
    if k_bits <= 62 and m_labels > (1 << k_bits):
        raise CapacityError(
            f"cannot draw {m_labels} distinct centers of {k_bits} bits"
        )
    rng = np.random.default_rng(seed)
    if _is_power_of_two(k_bits) and m_labels <= 2 * k_bits:
        h = sylvester_hadamard(k_bits.bit_length() - 1)
        pool = h if m_labels <= k_bits else np.vstack([h, -h])
        centers = pool[np.sort(_fisher_yates(len(pool), rng)[:m_labels])]
        strategy = "hadamard-rows" if m_labels <= k_bits else "stacked-hadamard"
    else:
        centers = _bernoulli_centers(k_bits, m_labels, rng)
        strategy = "bernoulli"
    return HashCenterSet(k_bits, m_labels, np.ascontiguousarray(centers), strategy, seed)


def min_pairwise_hamming(center_set: HashCenterSet) -> int:
    """Smallest Hamming distance over all pairs of distinct centers."""
    c = np.asarray(center_set.centers, dtype=np.int64)
    m, k = c.shape
    if m < 2:
        raise ValueError("need at least 2 centers")
    gram = c @ c.T
    dist = (k - gram) // 2
    off_diag = dist[~np.eye(m, dtype=bool)]
    return int(off_diag.min())


def save_centers(path, center_set: HashCenterSet) -> None:
    """Write the text format: header ``K M strategy seed``, then one
    row of space-separated +-1 values per center."""
    with open(path, "w") as fh:
        fh.write(
            f"{center_set.k_bits} {center_set.m_labels} "
            f"{center_set.strategy} {center_set.seed}\n"
        )
        np.savetxt(fh, center_set.centers, fmt="%d")


def load_centers(path) -> HashCenterSet:
    (k_bits, m_labels, strategy, seed), body = _read_table(
        path, "K M strategy seed", {"K": 1, "M": 1, "seed": 0}, "M"
    )
    if strategy not in STRATEGIES:
        raise ParseError(f"unknown strategy {strategy!r}", line=1)
    centers = _parse_rows(body, range(2, m_labels + 2), k_bits, np.int8)
    bad = np.flatnonzero(~(np.abs(centers) == 1).all(axis=1))
    if bad.size:
        raise ParseError("center values must be -1 or 1", line=int(bad[0]) + 2)
    return HashCenterSet(k_bits, m_labels, centers, strategy, seed)
