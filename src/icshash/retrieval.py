"""Bit-packed Hamming ranking and retrieval metrics.

Codes in {-1, +1} are packed into 64-bit words (bit 1 encodes +1,
little-endian bit order, pad bits zero) so distances reduce to XOR and
population count. Relevance between two samples means sharing at least
one positive label. The database's labels are packed the same way into
posting lists, one per label, with bit j set when item j holds it; the
union of a query's posting lists marks its relevant items, so a query
with c labels costs c ORs of ceil(N/64) words. Average precision at k
divides by min(k, number of relevant database items), and queries with
no relevant item are excluded from the mean. Each block of queries is
scored where it is ranked, so no array grows as Q x k.
"""

from dataclasses import dataclass

import numpy as np

from . import data as _data
from .data import _bit_text, _parse_bits, _read_table
from .errors import EvaluationError, check_int

# Elements of each (query rows, N) block that the metrics rank at once:
# a block has max(1, _BLOCK_ELEMENTS // N) query rows, and its key
# buffer (uint32 at K = 64 up to N = 66 million: 4 MiB) and the union of
# its posting lists (one bit per element) are allocated once per call
# and reused by every block. The Hamming pass XORs
# max(1, _XOR_ELEMENTS // N) query rows at a time, so that the uint64
# scratch it allocates per block (512 KiB) stays in cache. The posting
# lists are packed from blocks of about _BLOCK_ELEMENTS labels.
_BLOCK_ELEMENTS = 2**20
_XOR_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class CodeDatabase:
    """N packed codes sharing one K: ceil(K/64) little-endian words per
    code, pad bits zero. A single code is a one-row database."""

    k_bits: int
    words: np.ndarray  # (n, n_words) uint64

    def __post_init__(self):
        # what load_codes refuses, refused here: every database saves to a
        # file that loads back equal, k_bits as the plain int it writes
        k = check_int("k_bits", self.k_bits, 1)
        object.__setattr__(self, "k_bits", k)
        w, n_words = self.words, (k + 63) // 64
        if not (isinstance(w, np.ndarray) and w.dtype == np.uint64 and w.shape[1:] == (n_words,)):
            raise ValueError(f"words must be a 2-D uint64 array with {n_words} columns for K={k}")
        if k % 64 and np.any(w[:, -1] >> np.uint64(k % 64)):
            raise ValueError(f"words must hold zero pad bits past K={k}")

    def __len__(self) -> int:
        return self.words.shape[0]

    def code(self, i: int) -> "CodeDatabase":
        return CodeDatabase(self.k_bits, self.words[i][None])


@dataclass(frozen=True, eq=False)
class RankedResult:
    """Database ranking for one query: ascending distance, ties by
    ascending database index."""

    indices: np.ndarray
    distances: np.ndarray


def _pack_rows(bits01: np.ndarray) -> np.ndarray:
    """Pack the rows of an (N, K) 0/1 matrix, codes (1 encoding +1) or
    posting lists, into ceil(K/64) words each, pad bits zero: the packed
    bytes are written straight into the words' byte view."""
    n, k = bits01.shape
    words = np.zeros((n, (k + 63) // 64), dtype=np.uint64)
    words.view(np.uint8)[:, : (k + 7) // 8] = np.packbits(bits01, axis=1, bitorder="little")
    return words


def _unpack_rows(words: np.ndarray, k: int) -> np.ndarray:
    """The (N, k) uint8 0/1 matrix of N packed rows: inverts _pack_rows."""
    bytes_ = np.ascontiguousarray(words).view(np.uint8)  # a strided row has no byte view
    return np.unpackbits(bytes_, axis=1, count=k, bitorder="little")


def pack_code(bits_pm1) -> CodeDatabase:
    """Pack one {-1, +1} vector: the one-row call of pack_database."""
    row = np.asarray(bits_pm1)
    if row.ndim != 1:
        raise ValueError("expected a nonempty vector of -1/+1 values")
    return pack_database(row[None])


def pack_database(codes_pm1) -> CodeDatabase:
    """Pack an (N, K) matrix of {-1, +1} codes. The values are checked as
    given, so a fractional code is refused, and integer codes are read
    uncopied. Codes are checked and packed data._ROW_BLOCK at a time, so
    the temporaries beyond the packed words are O(data._ROW_BLOCK * K)."""
    rows = np.atleast_2d(np.asarray(codes_pm1))
    refusal = "expected a nonempty matrix of -1/+1 values"
    if rows.size == 0:
        raise ValueError(refusal)
    n, k = rows.shape
    words = np.empty((n, (k + 63) // 64), dtype=np.uint64)
    step = _data._ROW_BLOCK
    for start in range(0, n, step):
        block = rows[start : start + step]
        if not np.all((block == 1) | (block == -1)):
            raise ValueError(refusal)
        words[start : start + step] = _pack_rows(block > 0)
    return CodeDatabase(k, words)


def unpack_database(db: CodeDatabase) -> np.ndarray:
    """Back to an (N, K) int8 matrix of {-1, +1}."""
    return 2 * _unpack_rows(db.words, db.k_bits).view(np.int8) - 1


def _check_lengths(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"code length mismatch: {a} vs {b}")


def _check_one_code(db: CodeDatabase) -> None:
    if len(db) != 1:
        raise ValueError(f"expected a one-code database, got {len(db)} codes")


def hamming(a: CodeDatabase, b: CodeDatabase) -> int:
    """Differing bits of two one-code databases, by XOR plus popcount."""
    _check_one_code(a)
    _check_one_code(b)
    _check_lengths(a.k_bits, b.k_bits)
    return int(np.bitwise_count(a.words ^ b.words).sum())


def _hamming_rows(query_words: np.ndarray, db_words: np.ndarray, dist) -> None:
    """Write into ``dist`` (Q, N), of an integer type that holds K, the
    distances from Q packed query rows to N packed database codes,
    summed one word at a time (see _XOR_ELEMENTS for its scratch)."""
    shape = (min(max(1, _XOR_ELEMENTS // len(db_words)), len(query_words)), len(db_words))
    xor, count = np.empty(shape, np.uint64), np.empty(shape, np.uint8)
    for start in range(0, len(query_words), shape[0]):
        rows = slice(start, start + shape[0])
        q, out = query_words[rows], dist[rows]
        x, c = xor[: len(q)], count[: len(q)]
        for w in range(db_words.shape[1]):
            np.bitwise_xor(q[:, w, None], db_words[:, w], out=x)
            if w == 0:
                np.bitwise_count(x, out=out)
            else:
                out += np.bitwise_count(x, out=c)


def rank_database(query: CodeDatabase, db: CodeDatabase) -> RankedResult:
    """Stable sort of the database by (distance, index) from a one-code
    query; the distances are int64."""
    _check_one_code(query)
    if len(db) == 0:
        raise ValueError("empty database")
    _check_lengths(query.k_bits, db.k_bits)
    dist = np.empty(len(db), np.int64)
    _hamming_rows(query.words, db.words, dist[None])
    order = np.argsort(dist, kind="stable")
    return RankedResult(order, dist[order])


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

    Queries are ranked and scored in blocks of ``_BLOCK_ELEMENTS // N``
    rows (at least one) through buffers allocated once, so only the (Q,)
    scores outlive a block. The key ``dist * N + index`` is unique, so
    sorting only the partitioned top min(k, N) keys gives the (distance,
    index) order. A query's relevant items are the union of the posting
    lists of its labels, (M, ceil(N/64)) words packed once per call: the
    union's population count is its relevant count and its bits at the
    top items are the relevance flags. The lists are packed by _pack_rows
    straight from the labels in blocks of a multiple of 64 items, about
    ``_BLOCK_ELEMENTS`` labels, so that no (N, M) copy of them is made.
    """
    k = check_int("k", k, 1)
    n = len(db_codes)
    if n == 0:
        raise ValueError("empty database")
    if len(query_codes) == 0:
        raise ValueError("no queries")
    query_positive = np.atleast_2d(np.asarray(query_labels)) > 0
    db_labels = np.atleast_2d(np.asarray(db_labels))
    m = db_labels.shape[1]
    if query_positive.shape[1] != m:
        raise ValueError("label dimension mismatch")
    if (len(query_positive), len(db_labels)) != (len(query_codes), n):
        raise ValueError("label rows do not match the number of codes")
    _check_lengths(query_codes.k_bits, db_codes.k_bits)
    posting = np.empty((m, (n + 63) // 64), np.uint64)
    step = max(64, _BLOCK_ELEMENTS // max(1, m) // 64 * 64)
    for start in range(0, n, step):
        # a contiguous (M, rows) block packs along its rows 3x faster
        block = np.ascontiguousarray(db_labels[start : start + step].T) > 0
        posting[:, start // 64 : (start + step) // 64] = _pack_rows(block)
    top = min(k, n)  # and n_relevant <= N
    ranks = np.arange(1, top + 1)
    key_type = np.min_scalar_type((db_codes.k_bits + 1) * n)
    index = np.arange(n, dtype=key_type)
    shape = (min(max(1, _BLOCK_ELEMENTS // n), len(query_codes)), n)
    keys, unions = np.empty(shape, key_type), np.empty((shape[0], posting.shape[1]), np.uint64)
    ap, precision_at = np.empty(len(query_codes)), np.empty(len(query_codes))
    n_relevant = np.empty(len(query_codes), dtype=np.int64)
    for start in range(0, len(query_codes), shape[0]):
        rows = slice(start, min(start + shape[0], len(query_codes)))
        key, union = keys[: rows.stop - start], unions[: rows.stop - start]
        _hamming_rows(query_codes.words[rows], db_codes.words, key)
        key *= n
        key += index
        key.partition(top - 1, axis=1)
        order = np.sort(key[:, :top], axis=1) % n
        for i, positive in enumerate(query_positive[rows]):
            np.bitwise_or.reduce(posting[positive], axis=0, out=union[i])  # 0 for no label
        # bit j of the union is bit j % 8 of its byte j // 8 (little-endian bit order)
        item_bytes = np.take_along_axis(union.view(np.uint8), order // 8, axis=1)
        flags = ((item_bytes >> (order % 8)) & 1).astype(bool)
        n_relevant[rows] = np.bitwise_count(union).sum(axis=1)
        precision = np.cumsum(flags, axis=1) / ranks
        # a query without a relevant item scores 0 / 1 here and is dropped below
        divisor = np.minimum(top, np.maximum(n_relevant[rows], 1))
        ap[rows] = np.sum(precision * flags, axis=1) / divisor
        precision_at[rows] = flags.sum(axis=1) / k
    keep = n_relevant > 0
    if not keep.any():
        raise EvaluationError("no query has a relevant database item")
    return {
        "map_at_k": float(np.mean(ap[keep])),
        "precision_at_k": float(np.mean(precision_at[keep])),
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
    code (1 encodes +1), written data._ROW_BLOCK codes at a time."""
    with open(path, "wb") as fh:
        fh.write(f"{len(db)} {db.k_bits}\n".encode())
        step = _data._ROW_BLOCK
        for start in range(0, len(db), step):
            fh.write(_bit_text(_unpack_rows(db.words[start : start + step], db.k_bits)))


def load_codes(path) -> CodeDatabase:
    (n, k), body = _read_table(path, "N K", {"N": 0, "K": 1}, "N")
    return CodeDatabase(k, _pack_rows(_parse_bits(body, range(2, n + 2), k)))
