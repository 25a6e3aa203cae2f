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

from .errors import EvaluationError, ParseError

# Queries ranked per block by the metrics: memory is O(_QUERY_CHUNK * N).
_QUERY_CHUNK = 64


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


def _pack_rows(pm1: np.ndarray) -> np.ndarray:
    bits01 = ((pm1 + 1) // 2).astype(np.uint8)
    n, k = bits01.shape
    n_words = (k + 63) // 64
    padded = np.zeros((n, n_words * 64), dtype=np.uint8)
    padded[:, :k] = bits01
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64)


def pack_code(bits_pm1) -> BinaryCode:
    """Pack one {-1, +1} vector."""
    row = np.asarray(bits_pm1, dtype=np.int64)
    if row.ndim != 1 or row.size == 0 or not np.all(np.abs(row) == 1):
        raise ValueError("expected a nonempty vector of -1/+1 values")
    return BinaryCode(row.size, _pack_rows(row[None, :])[0])


def pack_database(codes_pm1) -> CodeDatabase:
    """Pack an (N, K) matrix of {-1, +1} codes."""
    rows = np.atleast_2d(np.asarray(codes_pm1, dtype=np.int64))
    if rows.size == 0 or not np.all(np.abs(rows) == 1):
        raise ValueError("expected a nonempty matrix of -1/+1 values")
    return CodeDatabase(rows.shape[1], _pack_rows(rows))


def unpack_database(db: CodeDatabase) -> np.ndarray:
    """Back to an (N, K) int8 matrix of {-1, +1}."""
    bytes_ = db.words.view(np.uint8).reshape(len(db), -1)
    bits = np.unpackbits(bytes_, axis=1, bitorder="little")[:, : db.k_bits]
    return (2 * bits.astype(np.int8)) - 1


def hamming(a: BinaryCode, b: BinaryCode) -> int:
    """Number of differing bits, by XOR plus population count."""
    if a.k_bits != b.k_bits:
        raise ValueError(f"code length mismatch: {a.k_bits} vs {b.k_bits}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


def _hamming_rows(k_bits: int, query_words: np.ndarray, db: CodeDatabase) -> np.ndarray:
    """(Q, N) distances from Q packed K-bit query rows to every database code."""
    if k_bits != db.k_bits:
        raise ValueError(f"code length mismatch: {k_bits} vs {db.k_bits}")
    xor = query_words[:, None, :] ^ db.words[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64)


def hamming_to_all(query: BinaryCode, db: CodeDatabase) -> np.ndarray:
    """Distances from one query to every database code."""
    return _hamming_rows(query.k_bits, query.words[None, :], db)[0]


def rank_database(query: BinaryCode, db: CodeDatabase, query_index: int = -1) -> RankedResult:
    """Stable sort of the database by (distance, index)."""
    if len(db) == 0:
        raise ValueError("empty database")
    dist = hamming_to_all(query, db)
    order = np.argsort(dist, kind="stable")
    return RankedResult(query_index, order, dist[order])


def relevant(query_labels, db_labels) -> bool:
    """True iff the two label vectors share a positive label."""
    a = np.asarray(query_labels)
    b = np.asarray(db_labels)
    if a.shape != b.shape:
        raise ValueError("label dimension mismatch")
    return bool(np.any((a > 0) & (b > 0)))


def _top_k_relevance(query_codes, query_labels, db_codes, db_labels, k):
    """Relevance flags of each query's top-min(k, N) items in (distance,
    index) order, and its count of relevant database items; queries
    without a relevant item are dropped. The key ``dist * N + index`` is
    unique, so sorting only the partitioned top k keys keeps that order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(db_codes)
    if n == 0:
        raise ValueError("empty database")
    query_positive = np.atleast_2d(np.asarray(query_labels)) > 0
    db_positive = (np.atleast_2d(np.asarray(db_labels)) > 0).astype(np.float64)
    if query_positive.shape[1] != db_positive.shape[1]:
        raise ValueError("label dimension mismatch")
    if (len(query_positive), len(db_positive)) != (len(query_codes), n):
        raise ValueError("label rows do not match the number of codes")
    top = min(k, n)
    flags, counts = [], []
    for start in range(0, len(query_codes), _QUERY_CHUNK):
        rows = slice(start, start + _QUERY_CHUNK)
        dist = _hamming_rows(query_codes.k_bits, query_codes.words[rows], db_codes)
        key = np.partition(dist * n + np.arange(n), top - 1, axis=1)[:, :top]
        # shared-label counts are at most M, so the float64 product is exact
        rel = query_positive[rows].astype(np.float64) @ db_positive.T > 0
        flags.append(np.take_along_axis(rel, np.sort(key, axis=1) % n, axis=1))
        counts.append(rel.sum(axis=1))
    flags, n_relevant = np.concatenate(flags), np.concatenate(counts)
    keep = n_relevant > 0
    if not keep.any():
        raise EvaluationError("no query has a relevant database item")
    return flags[keep], n_relevant[keep]


def map_at_k(
    query_codes: CodeDatabase,
    query_labels,
    db_codes: CodeDatabase,
    db_labels,
    k: int,
) -> float:
    """Mean average precision over the top-k ranked results.

    AP@k = sum_{r<=k} Precision@r * rel(r) / min(k, relevant-in-db);
    queries without any relevant database item are skipped, and if no
    query has one the metric is undefined.
    """
    flags, n_relevant = _top_k_relevance(query_codes, query_labels, db_codes, db_labels, k)
    precision = np.cumsum(flags, axis=1) / np.arange(1, flags.shape[1] + 1)
    ap = np.sum(precision * flags, axis=1) / np.minimum(k, n_relevant)
    return float(np.mean(ap))


def precision_at_k(
    query_codes: CodeDatabase,
    query_labels,
    db_codes: CodeDatabase,
    db_labels,
    k: int,
) -> float:
    """Fraction of relevant items in the top-k, averaged over queries
    that have at least one relevant database item."""
    flags, _ = _top_k_relevance(query_codes, query_labels, db_codes, db_labels, k)
    return float(np.mean(flags.sum(axis=1) / k))


def save_codes(path, db: CodeDatabase) -> None:
    """Text format: header ``N K``, then one K-character 0/1 line per
    code (1 encodes +1)."""
    pm1 = unpack_database(db)
    lines = [f"{len(db)} {db.k_bits}"]
    for row in pm1:
        lines.append("".join("1" if v > 0 else "0" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codes(path) -> CodeDatabase:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ParseError("empty codes file", line=1)
    head = raw[0].split()
    if len(head) != 2:
        raise ParseError("expected header 'N K'", line=1)
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("non-integer header field", line=1) from None
    if len(raw) < 1 + n:
        raise ParseError(f"expected {n} code lines, found {len(raw) - 1}", line=len(raw))
    rows = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        text = raw[1 + i].strip()
        if len(text) != k or set(text) - {"0", "1"}:
            raise ParseError(f"expected a {k}-character 0/1 string", line=2 + i)
        rows[i] = [1 if ch == "1" else -1 for ch in text]
    return pack_database(rows)
