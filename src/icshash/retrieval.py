"""Bit-packed Hamming ranking and retrieval metrics.

Codes in {-1, +1} are packed into 64-bit words (bit 1 encodes +1,
little-endian bit order, pad bits zero) so distances reduce to XOR and
population count. Relevance between two samples means sharing at least
one positive label. Average precision at k divides by min(k, number of
relevant database items), and queries with no relevant item are
excluded from the mean.
"""

from dataclasses import dataclass

import numpy as np

from .data import _parse_bits, _read_table
from .errors import EvaluationError, check_int

# Elements of each (query rows, N) block that the metrics rank at once:
# a block has max(1, _BLOCK_ELEMENTS // N) query rows, and its key and
# label-product buffers, 8 bytes per element in all (8 MiB), are
# allocated once per call and reused by every block. The Hamming pass
# XORs max(1, _XOR_ELEMENTS // N) of its rows at a time, so that its
# uint64 scratch (512 KiB) stays in cache.
_BLOCK_ELEMENTS = 2**20
_XOR_ELEMENTS = 2**16


@dataclass(frozen=True)
class BinaryCode:
    """One K-bit code: ceil(K/64) little-endian words, pad bits zero."""

    k_bits: int
    words: np.ndarray  # (n_words,) uint64


@dataclass(frozen=True)
class CodeDatabase:
    """N packed codes sharing one K."""

    k_bits: int
    words: np.ndarray  # (n, n_words) uint64

    def __len__(self) -> int:
        return self.words.shape[0]

    def code(self, i: int) -> BinaryCode:
        return BinaryCode(self.k_bits, self.words[i])


@dataclass(frozen=True)
class RankedResult:
    """Database ranking for one query: ascending distance, ties by
    ascending database index."""

    query_index: int
    indices: np.ndarray
    distances: np.ndarray


def _pack_rows(bits01: np.ndarray) -> np.ndarray:
    """Pack an (N, K) 0/1 matrix, 1 encoding +1."""
    n, k = bits01.shape
    n_words = (k + 63) // 64
    padded = np.zeros((n, n_words * 64), dtype=np.uint8)
    padded[:, :k] = bits01
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64)


def pack_code(bits_pm1) -> BinaryCode:
    """Pack one {-1, +1} vector: the one-row call of pack_database."""
    row = np.asarray(bits_pm1)
    if row.ndim != 1:
        raise ValueError("expected a nonempty vector of -1/+1 values")
    return pack_database(row[None]).code(0)


def pack_database(codes_pm1) -> CodeDatabase:
    """Pack an (N, K) matrix of {-1, +1} codes. The values are checked as
    given, so a fractional code is refused, and integer codes are read
    uncopied."""
    rows = np.atleast_2d(np.asarray(codes_pm1))
    if rows.size == 0 or not np.all((rows == 1) | (rows == -1)):
        raise ValueError("expected a nonempty matrix of -1/+1 values")
    return CodeDatabase(rows.shape[1], _pack_rows(rows > 0))


def unpack_database(db: CodeDatabase) -> np.ndarray:
    """Back to an (N, K) int8 matrix of {-1, +1}."""
    bytes_ = db.words.view(np.uint8).reshape(len(db), db.words.shape[1] * 8)
    bits = np.unpackbits(bytes_, axis=1, bitorder="little")[:, : db.k_bits]
    return (2 * bits.astype(np.int8)) - 1


def _check_lengths(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"code length mismatch: {a} vs {b}")


def hamming(a: BinaryCode, b: BinaryCode) -> int:
    """Number of differing bits, by XOR plus population count."""
    _check_lengths(a.k_bits, b.k_bits)
    return int(np.bitwise_count(a.words ^ b.words).sum())


def _hamming_rows(query_words: np.ndarray, db_words: np.ndarray, dist, xor, count) -> None:
    """Write into ``dist`` (Q, N), of an integer type that holds K, the
    distances from Q packed query rows to N packed database codes,
    summed one word at a time; ``xor`` (R, N) uint64 and ``count`` (R, N)
    uint8 are scratch for R query rows at a time."""
    step = len(xor)
    for start in range(0, len(query_words), step):
        rows = slice(start, start + step)
        q, out = query_words[rows], dist[rows]
        x, c = xor[: len(q)], count[: len(q)]
        for w in range(db_words.shape[1]):
            np.bitwise_xor(q[:, w, None], db_words[:, w], out=x)
            if w == 0:
                np.bitwise_count(x, out=out)
            else:
                out += np.bitwise_count(x, out=c)


def rank_database(query: BinaryCode, db: CodeDatabase, query_index: int = -1) -> RankedResult:
    """Stable sort of the database by (distance, index); the distances
    are int64."""
    if len(db) == 0:
        raise ValueError("empty database")
    _check_lengths(query.k_bits, db.k_bits)
    dist, xor, count = (np.empty((1, len(db)), t) for t in (np.int64, np.uint64, np.uint8))
    _hamming_rows(query.words[None, :], db.words, dist, xor, count)
    dist = dist[0]
    order = np.argsort(dist, kind="stable")
    return RankedResult(query_index, order, dist[order])


def _top_k_relevance(query_codes, query_labels, db_codes, db_labels, k):
    """Relevance flags of each query's top-min(k, N) items in (distance,
    index) order, and its count of relevant database items; queries
    without a relevant item are dropped; also ``k`` as an int. The key
    ``dist * N + index`` is unique, so sorting only the partitioned top k
    keys keeps that order. Queries are ranked in blocks of
    ``_BLOCK_ELEMENTS // N`` rows (at least one) through buffers
    allocated once."""
    k = check_int("k", k, 1)
    n = len(db_codes)
    if n == 0:
        raise ValueError("empty database")
    if len(query_codes) == 0:
        raise ValueError("no queries")
    query_positive = (np.atleast_2d(np.asarray(query_labels)) > 0).astype(np.float32)
    db_positive = np.atleast_2d(np.asarray(db_labels)) > 0
    if query_positive.shape[1] != db_positive.shape[1]:
        raise ValueError("label dimension mismatch")
    if (len(query_positive), len(db_positive)) != (len(query_codes), n):
        raise ValueError("label rows do not match the number of codes")
    db_positive = np.ascontiguousarray(db_positive.T, dtype=np.float32)  # (M, N)
    _check_lengths(query_codes.k_bits, db_codes.k_bits)
    top = min(k, n)
    key_type = np.min_scalar_type((db_codes.k_bits + 1) * n)
    index = np.arange(n, dtype=key_type)
    shape = (min(max(1, _BLOCK_ELEMENTS // n), len(query_codes)), n)
    keys, products = np.empty(shape, key_type), np.empty(shape, np.float32)
    scratch = (min(max(1, _XOR_ELEMENTS // n), shape[0]), n)
    xor, count = np.empty(scratch, np.uint64), np.empty(scratch, np.uint8)
    flags = np.empty((len(query_codes), top), dtype=bool)
    n_relevant = np.empty(len(query_codes), dtype=np.int64)
    for start in range(0, len(query_codes), shape[0]):
        rows = slice(start, min(start + shape[0], len(query_codes)))
        key, product = keys[: rows.stop - start], products[: rows.stop - start]
        _hamming_rows(query_codes.words[rows], db_codes.words, key, xor, count)
        key *= n
        key += index
        key.partition(top - 1, axis=1)
        # shared-label counts are at most M, so the float32 product is
        # exact while M < 2**24; clipped to 0/1 it sums to the relevant count
        np.matmul(query_positive[rows], db_positive, out=product)
        order = np.sort(key[:, :top], axis=1) % n
        flags[rows] = np.take_along_axis(product, order, axis=1) > 0
        n_relevant[rows] = np.minimum(product, 1.0, out=product).sum(axis=1, dtype=np.int64)
    keep = n_relevant > 0
    if not keep.any():
        raise EvaluationError("no query has a relevant database item")
    return flags[keep], n_relevant[keep], k


def retrieval_metrics(
    query_codes: CodeDatabase,
    query_labels,
    db_codes: CodeDatabase,
    db_labels,
    k: int,
) -> dict:
    """mAP@k and P@k from one ranking of every query, as
    ``{"map_at_k": ..., "precision_at_k": ...}``.

    AP@k = sum_{r<=k} Precision@r * rel(r) / min(k, relevant-in-db) and
    P@k = (relevant items in the top k) / k, each averaged over the
    queries that have at least one relevant database item; if no query
    has one the metrics are undefined (``EvaluationError``).
    """
    flags, n_relevant, k = _top_k_relevance(
        query_codes, query_labels, db_codes, db_labels, k
    )
    top = flags.shape[1]  # min(k, N), and n_relevant <= N
    precision = np.cumsum(flags, axis=1) / np.arange(1, top + 1)
    ap = np.sum(precision * flags, axis=1) / np.minimum(top, n_relevant)
    return {
        "map_at_k": float(np.mean(ap)),
        "precision_at_k": float(np.mean(flags.sum(axis=1) / k)),
    }


def map_at_k(
    query_codes: CodeDatabase,
    query_labels,
    db_codes: CodeDatabase,
    db_labels,
    k: int,
) -> float:
    """Mean average precision over the top-k ranked results; see
    ``retrieval_metrics``."""
    return retrieval_metrics(query_codes, query_labels, db_codes, db_labels, k)["map_at_k"]


def precision_at_k(
    query_codes: CodeDatabase,
    query_labels,
    db_codes: CodeDatabase,
    db_labels,
    k: int,
) -> float:
    """Fraction of relevant items in the top-k; see ``retrieval_metrics``."""
    return retrieval_metrics(query_codes, query_labels, db_codes, db_labels, k)[
        "precision_at_k"
    ]


def save_codes(path, db: CodeDatabase) -> None:
    """Text format: header ``N K``, then one K-character 0/1 line per
    code (1 encodes +1)."""
    text = np.full((len(db), db.k_bits + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = ord("0") + (unpack_database(db) > 0)
    with open(path, "w") as fh:
        fh.write(f"{len(db)} {db.k_bits}\n" + text.tobytes().decode())


def load_codes(path) -> CodeDatabase:
    (n, k), body = _read_table(path, "N K", {"N": 0, "K": 1}, "N")
    return CodeDatabase(k, _pack_rows(_parse_bits(body, range(2, n + 2), k)))
