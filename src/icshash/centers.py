"""Hash-center construction.

Centers are fixed K-bit codes in {-1, +1}, one per class label. When K
is a power of two they are drawn rows of an orthogonal +-1 matrix,
which puts every pair of distinct rows at Hamming distance exactly K/2;
otherwise balanced rows are drawn directly and redrawn until new.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import retrieval as _retrieval
from .data import _parse_rows, _read_table
from .errors import CapacityError, ParseError, check_int

# Largest supported order exponent (K = 2^16): the whole matrix is then 4 GiB
# and a stacked draw of 2K rows 8 GiB, beyond desk-scale memory.
MAX_ORDER_EXP = 16

STRATEGIES = ("hadamard-rows", "stacked-hadamard", "bernoulli")


@dataclass(frozen=True)
class HashCenterSet:
    """M center codes of K bits each, valued in {-1, +1}. generate_centers
    draws distinct rows; a set given here or read by load_centers may
    repeat one, which min_pairwise_hamming then reports as 0."""

    centers: np.ndarray  # (M, K) int8
    strategy: str
    seed: int

    def __post_init__(self):
        # what load_centers refuses, refused here, so that every set saves
        # to a file that loads back equal
        c = np.asarray(self.centers)
        if c.ndim != 2 or 0 in c.shape:
            raise ValueError(f"centers shape {c.shape} is not (M, K) with M, K >= 1")
        # one (M, K) comparison at a time, not two held together
        if np.count_nonzero(c == 1) + np.count_nonzero(c == -1) != c.size:
            raise ValueError("center entries must be -1 or +1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        # kept as the plain int that save_centers writes (True would be "True")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))

    @property
    def k_bits(self) -> int:
        return np.shape(self.centers)[1]

    @property
    def m_labels(self) -> int:
        return np.shape(self.centers)[0]


def sylvester_hadamard(k_exp: int) -> np.ndarray:
    """Orthogonal +-1 matrix of order 2**k_exp, entry (i, j) =
    (-1)^popcount(i & j): [[1]] Kronecker-multiplied by [[1, 1], [1, -1]]
    on the left k_exp times. Distinct rows have inner product zero."""
    return _hadamard_rows(k_exp)


def _hadamard_rows(k_exp: int, rows=None) -> np.ndarray:
    """Rows ``rows`` (all K when None) of sylvester_hadamard(k_exp)
    stacked with its negation (row K + i is row i negated), built in
    place: entries [w, 2w) of row i, w = 2^b, are its entries [0, w)
    times (-1)^(bit b of i), so the result is the whole peak."""
    if k_exp < 0:
        raise ValueError("k_exp must be nonnegative")
    if k_exp > MAX_ORDER_EXP:
        raise CapacityError(
            f"order 2^{k_exp} exceeds the supported maximum 2^{MAX_ORDER_EXP}"
        )
    if rows is None:
        rows = np.arange(2**k_exp)
    out = np.empty((len(rows), 2**k_exp), dtype=np.int8)
    out[:, 0] = np.where(rows >> k_exp, -1, 1)
    for b in range(k_exp):
        sign = np.where(rows >> b & 1, -1, 1).astype(np.int8)
        np.multiply(out[:, : 2**b], sign[:, None], out=out[:, 2**b : 2 ** (b + 1)])
    return out


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _fisher_yates(n: int, rng: "np.random.Generator") -> np.ndarray:
    """Seeded in-place shuffle of range(n); deterministic given the rng state."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _bernoulli_centers(k_bits: int, m_labels: int, rng: "np.random.Generator") -> np.ndarray:
    centers = np.empty((m_labels, k_bits), dtype=np.int8)
    seen = set()
    for row in centers:
        # generate_centers admits at most the C balanced rows, so with i of
        # them kept a draw is new with chance 1 - i / C > 0 and this ends
        while True:
            # +1 at K/2 places, or for odd K at K//2 or K//2 + 1 by a coin,
            # so every balanced row is equally likely
            ones = k_bits // 2 + (k_bits % 2 and int(rng.integers(0, 2)))
            row[:] = np.where(rng.permutation(k_bits) < ones, 1, -1)
            if (key := row.tobytes()) not in seen:
                break
        seen.add(key)
    return centers


def generate_centers(k_bits: int, m_labels: int, seed: int) -> HashCenterSet:
    """Draw M distinct K-bit centers.

    Strategy is picked from the shape of the problem:

    * K a power of two and M <= K: sample rows of the order-K
      orthogonal matrix without replacement ("hadamard-rows").
    * K a power of two and K < M <= 2K: sample rows of the matrix
      stacked with its negation ("stacked-hadamard").
    * anything else: balanced rows (K/2 ones, or K//2 or K//2 + 1 for odd
      K) drawn directly and redrawn until new ("bernoulli"); a
      CapacityError if M exceeds the number of balanced rows.

    Deterministic given (k_bits, m_labels, seed): integers, K >= 2,
    M >= 1 and seed >= 0, else ValueError naming the field.
    """
    k_bits, m_labels = check_int("k_bits", k_bits, 2), check_int("m_labels", m_labels, 1)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if _is_power_of_two(k_bits) and m_labels <= 2 * k_bits:
        pool = k_bits if m_labels <= k_bits else 2 * k_bits
        rows = np.sort(_fisher_yates(pool, rng)[:m_labels])
        centers = _hadamard_rows(k_bits.bit_length() - 1, rows)
        strategy = "hadamard-rows" if m_labels <= k_bits else "stacked-hadamard"
    else:
        capacity = math.comb(k_bits, k_bits // 2) * (1 + k_bits % 2)
        if m_labels > capacity:
            raise CapacityError(
                f"cannot draw {m_labels} distinct centers of {k_bits} bits: "
                f"only {capacity} balanced rows exist"
            )
        centers = _bernoulli_centers(k_bits, m_labels, rng)
        strategy = "bernoulli"
    return HashCenterSet(np.ascontiguousarray(centers), strategy, seed)


def min_pairwise_hamming(center_set: HashCenterSet) -> int:
    """Smallest Hamming distance over all pairs of distinct centers,
    XOR-popcounted on packed rows by retrieval's kernel, a block of
    max(1, retrieval._BLOCK_ELEMENTS // M) rows against all M at a time
    (a center's distance to itself read as K), so no (M, M) array is made."""
    m, k = center_set.m_labels, center_set.k_bits
    if m < 2:
        raise ValueError("need at least 2 centers")
    words = _retrieval.pack_database(center_set.centers).words
    step = min(max(1, _retrieval._BLOCK_ELEMENTS // m), m)
    dist, best = np.empty((step, m), np.min_scalar_type(k)), k
    for start in range(0, m, step):
        block = dist[: min(step, m - start)]
        _retrieval._hamming_rows(words[start : start + step], words, block)
        rows = np.arange(len(block))
        block[rows, start + rows] = k
        best = min(best, int(block.min()))
    return best


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
    return HashCenterSet(centers, strategy, seed)
