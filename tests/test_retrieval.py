"""Retrieval tests: packed distances against a naive per-bit loop,
metric axioms checked exhaustively for 8-bit codes, ranking against a
naive sort, hand-traced average precision, the batched metrics against
a per-query reference ranking of the unpacked codes, relevance from
posting lists against the dense label product, and the codes file
format."""

import os
import tempfile
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import icshash.retrieval
from icshash import (
    CodeDatabase,
    EvaluationError,
    ParseError,
    hamming,
    load_codes,
    map_at_k,
    pack_code,
    pack_database,
    precision_at_k,
    rank_database,
    retrieval_metrics,
    save_codes,
    unpack_database,
)


def naive_hamming(a, b):
    return int(np.sum(np.asarray(a) != np.asarray(b)))


def random_codes(rng, n, k):
    return 2 * rng.integers(0, 2, size=(n, k)).astype(np.int64) - 1


def biased_codes(rng, n, k):
    # each row draws its own share of +1 bits, so distances between rows
    # span 0..K instead of clustering near K/2
    share = rng.random((n, 1))
    return 2 * (rng.random((n, k)) < share).astype(np.int64) - 1


class TestHamming:
    def test_identical(self):
        code = pack_code([1, -1, 1, 1, -1, -1, 1, -1])
        assert hamming(code, code) == 0

    def test_complementary(self):
        a = pack_code(np.ones(16, dtype=int))
        b = pack_code(-np.ones(16, dtype=int))
        assert hamming(a, b) == 16

    @pytest.mark.parametrize("k", [16, 64, 100])
    def test_matches_naive_loop(self, k):
        rng = np.random.default_rng(k)
        for _ in range(500):
            x = random_codes(rng, 1, k)[0]
            y = random_codes(rng, 1, k)[0]
            assert hamming(pack_code(x), pack_code(y)) == naive_hamming(x, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(pack_code([1, -1]), pack_code([1, -1, 1]))

    def test_metric_axioms_exhaustive_k8(self):
        # all 256 8-bit codes: identity, symmetry, triangle inequality
        bits = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(
            np.int64
        )
        codes = 2 * bits - 1
        db = pack_database(codes)
        dist = np.bitwise_count(
            db.words[:, None, :] ^ db.words[None, :, :]
        ).sum(axis=2)
        assert np.all(np.diag(dist) == 0)
        assert np.all((dist == 0) == np.eye(256, dtype=bool))
        np.testing.assert_array_equal(dist, dist.T)
        triangle = dist[:, :, None] + dist[None, :, :] >= dist[:, None, :]
        assert np.all(triangle)


class TestCodeDatabase:
    @pytest.mark.parametrize(
        "k_bits, words, match",
        [
            (3, np.array([[0xFF]], dtype=np.uint64), "words must hold zero pad bits"),
            (3, [[0xFF]], "words must be a 2-D uint64 array"),
            (130, np.zeros((2, 1), dtype=np.uint64), "words must be .* with 3 columns"),
            (64, np.zeros((2, 2), dtype=np.uint64), "words must be .* with 1 columns"),
            (8, np.zeros((2, 1), dtype=np.int64), "words must be a 2-D uint64 array"),
            (8, np.zeros(1, dtype=np.uint64), "words must be a 2-D uint64 array"),
            (0, np.zeros((1, 0), dtype=np.uint64), "k_bits must be at least 1"),
            (8.0, np.zeros((1, 1), dtype=np.uint64), "k_bits must be an integer"),
        ],
    )
    def test_what_load_codes_refuses_is_refused(self, k_bits, words, match):
        with pytest.raises(ValueError, match=match):
            CodeDatabase(k_bits, words)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        k_bits=st.one_of(st.integers(-1, 200), st.booleans()),
        n=st.integers(0, 5),
        extra_words=st.sampled_from([0, 0, 0, -1, 1]),
        clear_pad=st.sampled_from([True, True, True, False]),
        column_major=st.booleans(),
        data=st.data(),
    )
    def test_every_database_saves_and_loads_back_equal(
        self, k_bits, n, extra_words, clear_pad, column_major, data
    ):
        n_words = max(0, (k_bits + 63) // 64 + extra_words)
        words = data.draw(hnp.arrays(np.uint64, (n, n_words)))
        if clear_pad and n_words and k_bits % 64:
            words[:, -1] &= np.uint64(2 ** (k_bits % 64) - 1)
        if column_major:  # rows whose words are not adjacent in memory
            words = np.asfortranarray(words)
        try:
            db = CodeDatabase(k_bits, words)
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "codes.txt")
            save_codes(path, db)
            loaded = load_codes(path)
        assert loaded.k_bits == k_bits
        np.testing.assert_array_equal(loaded.words, words)

    def test_a_code_is_a_one_row_database(self):
        codes = random_codes(np.random.default_rng(4), 5, 70)
        db = pack_database(codes)
        for i in (0, 3, -1, -5):
            code = db.code(i)
            assert (code.k_bits, len(code)) == (70, 1)
            np.testing.assert_array_equal(code.words, pack_code(codes[i]).words)
            np.testing.assert_array_equal(unpack_database(code), codes[i][None])
        for i in (5, -6):
            with pytest.raises(IndexError):
                db.code(i)

    def test_pack_code_is_the_one_row_pack_database(self):
        x = [1, -1, -1, 1, 1]
        a, b = pack_code(x), pack_database([x])
        assert (a.k_bits, a.words.tolist()) == (b.k_bits, b.words.tolist())

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_hamming_and_ranking_take_one_code(self, n):
        codes = random_codes(np.random.default_rng(n), 3, 8)
        other = CodeDatabase(8, pack_database(codes).words[:n])
        one = pack_code(codes[0])
        db = pack_database(codes)
        with pytest.raises(ValueError, match=f"one-code database, got {n} codes"):
            hamming(one, other)
        with pytest.raises(ValueError, match=f"one-code database, got {n} codes"):
            hamming(other, one)
        with pytest.raises(ValueError, match=f"one-code database, got {n} codes"):
            rank_database(other, db)


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for k in (4, 16, 63, 64, 65, 128):
            codes = random_codes(rng, 7, k)
            np.testing.assert_array_equal(unpack_database(pack_database(codes)), codes)

    def test_pad_bits_zero(self):
        codes = -np.ones((3, 10), dtype=np.int64)  # all bits clear
        db = pack_database(codes)
        assert np.all(db.words == 0)

    def test_rejects_non_sign_values(self):
        with pytest.raises(ValueError):
            pack_code([1, 0, -1])

    def test_pack_code_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="expected a nonempty vector"):
            pack_code([[1, -1], [-1, 1]])

    @pytest.mark.parametrize(
        "pack, codes", [(pack_database, np.empty((0, 8))), (pack_code, [])], ids=["matrix", "code"]
    )
    def test_rejects_no_codes(self, pack, codes):
        with pytest.raises(ValueError, match="expected a nonempty matrix of -1/\\+1 values"):
            pack(codes)

    @pytest.mark.parametrize("pack", [pack_code, lambda row: pack_database([row])])
    def test_rejects_fractional_values_instead_of_truncating(self, pack):
        # a cast to int64 before the check packed these as [1, -1, 1]
        with pytest.raises(ValueError):
            pack([1.5, -1.9, 1])

    def test_float_signs_pack_like_integer_signs(self):
        want = pack_database([[1, -1, 1], [-1, -1, 1]])
        got = pack_database(np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]))
        assert (got.k_bits, got.words.tolist()) == (want.k_bits, want.words.tolist())
        assert pack_code([1.0, -1.0, 1.0]).words.tolist() == want.code(0).words.tolist()

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    def test_blocks_pack_like_one_block(self, monkeypatch, n):
        # blocks of 4 codes: fewer, exactly one block, a block and one, several
        codes = random_codes(np.random.default_rng(n), n, 70)
        whole = pack_database(codes)
        monkeypatch.setattr(icshash.data, "_ROW_BLOCK", 4)
        blocked = pack_database(codes)
        assert blocked.k_bits == 70
        np.testing.assert_array_equal(blocked.words, whole.words)
        codes[-1, -1] = 0  # in the last block
        with pytest.raises(ValueError, match="-1/\\+1 values"):
            pack_database(codes)


def test_packing_holds_a_few_blocks_of_codes():
    codes = random_codes(np.random.default_rng(0), 100_000, 64).astype(np.int8)
    pack_database(codes[:10])  # the first call allocates what numpy caches
    tracemalloc.start()
    try:
        db = pack_database(codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of 1024 int8 codes is 66 KB; the whole-matrix check and
    # padded copy came to about four times the 6.4 MB input
    assert peak < db.words.nbytes + codes.nbytes / 4


class TestRankDatabase:
    def test_query_in_database_ranks_first(self):
        rng = np.random.default_rng(1)
        codes = random_codes(rng, 20, 16)
        db = pack_database(codes)
        ranking = rank_database(pack_code(codes[13]), db)
        assert hamming(pack_code(codes[ranking.indices[0]]), pack_code(codes[13])) == 0

    def test_two_item_order(self):
        query = pack_code([1, 1, 1, 1])
        db = pack_database([[1, -1, -1, -1], [1, 1, 1, -1]])  # distances 3, 1
        ranking = rank_database(query, db)
        np.testing.assert_array_equal(ranking.indices, [1, 0])
        np.testing.assert_array_equal(ranking.distances, [1, 3])

    def test_ties_broken_by_ascending_index(self):
        query = pack_code([1, 1])
        db = pack_database([[1, -1], [1, -1], [-1, 1]])
        ranking = rank_database(query, db)
        np.testing.assert_array_equal(ranking.indices, [0, 1, 2])

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            codes = random_codes(rng, 500, 16)
            db = pack_database(codes)
            qi = int(rng.integers(0, 500))
            ranking = rank_database(pack_code(codes[qi]), db)
            naive = np.array(
                [naive_hamming(codes[qi], codes[j]) for j in range(500)]
            )
            expected = sorted(range(500), key=lambda j: (naive[j], j))
            np.testing.assert_array_equal(ranking.indices, expected)
            assert np.all(np.diff(ranking.distances) >= 0)

    def test_empty_database(self):
        from icshash import CodeDatabase

        empty = CodeDatabase(2, np.empty((0, 1), dtype=np.uint64))
        with pytest.raises(ValueError):
            rank_database(pack_code([1, -1]), empty)

    @pytest.mark.parametrize("k", [8, 64, 65, 300])
    def test_distances_are_int64(self, k):
        rng = np.random.default_rng(k)
        codes = biased_codes(rng, 40, k)
        codes[-1] = -codes[0]  # distance K, past 255 at K = 300
        db = pack_database(codes)
        query = pack_code(codes[0])
        naive = np.array([naive_hamming(codes[0], c) for c in codes])
        ranking = rank_database(query, db)
        assert ranking.distances.dtype == np.int64
        np.testing.assert_array_equal(ranking.distances, np.sort(naive))
        dist = np.empty_like(ranking.distances)  # back in database order
        dist[ranking.indices] = ranking.distances
        np.testing.assert_array_equal(dist, naive)


class TestRelevant:
    """Relevance is sharing a positive label, read off retrieval_metrics:
    database item 0 sits at distance 0 from the query, item 1 at
    distance 1, and k = 2."""

    @staticmethod
    def metrics(query_labels, db_labels):
        query = pack_database([[1, 1]])
        db = pack_database([[1, 1], [1, -1]])
        return retrieval_metrics(query, [query_labels], db, db_labels, k=2)

    def test_identical_single_label(self):
        got = self.metrics([0, 1, 0], [[0, 1, 0], [1, 0, 0]])
        assert got == {"map_at_k": 1.0, "precision_at_k": 0.5}

    def test_disjoint(self):
        with pytest.raises(EvaluationError, match="no query has a relevant"):
            self.metrics([1, 0, 0], [[0, 1, 1], [0, 1, 0]])

    def test_single_overlap_in_many(self):
        # item 1 shares only label 17 of 80 and counts; the nearer item 0
        # shares none and does not
        a, near, far = np.zeros((3, 80), dtype=int)
        a[[3, 17]] = 1
        near[[5, 60]] = 1
        far[[17, 60]] = 1
        got = self.metrics(a, [near, far])
        assert got == {"map_at_k": 0.5, "precision_at_k": 0.5}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="label dimension"):
            self.metrics([1, 0], [[1, 0, 0], [0, 1, 0]])


def identity_setup(k=8, n=6):
    # distinct codes, one label each, every query is its own database hit
    rng = np.random.default_rng(4)
    codes = []
    seen = set()
    while len(codes) < n:
        c = tuple(random_codes(rng, 1, k)[0].tolist())
        if c not in seen:
            seen.add(c)
            codes.append(c)
    codes = np.array(codes)
    labels = np.eye(n, dtype=np.int8)
    return pack_database(codes), labels


class TestMapAtK:
    def test_all_relevant_tops(self):
        db, labels = identity_setup()
        value = map_at_k(db, labels, db, labels, k=1)
        assert value == 1.0

    def test_zero_when_no_relevant_in_top_k(self):
        # two clusters: query's only relevant item is maximally far
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db_codes = pack_database([[-1, -1, -1, -1], [1, 1, 1, -1], [1, 1, -1, 1]])
        db_labels = np.array([[1, 0], [0, 1], [0, 1]])
        assert map_at_k(query_codes, query_labels, db_codes, db_labels, k=2) == 0.0

    def test_hand_traced_average_precision(self):
        # relevant at ranks 1 and 3, k=3, exactly 2 relevant in database
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db = pack_database(
            [
                [1, 1, 1, 1],  # dist 0, relevant -> rank 1
                [1, 1, 1, -1],  # dist 1, irrelevant -> rank 2
                [1, 1, -1, -1],  # dist 2, relevant -> rank 3
            ]
        )
        db_labels = np.array([[1, 0], [0, 1], [1, 1]])
        value = map_at_k(query_codes, query_labels, db, db_labels, k=3)
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert value == pytest.approx(0.8333, abs=1e-4)

    def test_queries_without_relevant_items_are_excluded(self):
        query_codes = pack_database([[1, 1, 1, 1], [1, 1, 1, 1]])
        query_labels = np.array([[1, 0], [0, 1]])
        db = pack_database([[1, 1, 1, 1]])
        db_labels = np.array([[1, 0]])
        assert map_at_k(query_codes, query_labels, db, db_labels, k=1) == 1.0

    def test_error_when_nothing_relevant(self):
        query_codes = pack_database([[1, 1, 1, 1]])
        db = pack_database([[1, 1, 1, 1]])
        with pytest.raises(EvaluationError):
            map_at_k(query_codes, [[1, 0]], db, [[0, 1]], k=1)

    def test_database_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(8)
        k = 16
        db_codes_raw = []
        seen = set()
        while len(db_codes_raw) < 30:
            c = tuple(random_codes(rng, 1, k)[0].tolist())
            if c not in seen:
                seen.add(c)
                db_codes_raw.append(c)
        db_codes_raw = np.array(db_codes_raw)
        db_labels = rng.integers(0, 2, size=(30, 4))
        db_labels[db_labels.sum(axis=1) == 0, 0] = 1
        query = random_codes(rng, 3, k)
        query_labels = np.eye(4, dtype=int)[:3]
        base_dist = np.array(
            [
                [naive_hamming(q, c) for c in db_codes_raw]
                for q in query
            ]
        )
        # only permute when all distances are distinct per query
        if all(len(set(row)) == len(row) for row in base_dist):
            perm = rng.permutation(30)
            a = map_at_k(
                pack_database(query), query_labels,
                pack_database(db_codes_raw), db_labels, k=10,
            )
            b = map_at_k(
                pack_database(query), query_labels,
                pack_database(db_codes_raw[perm]), db_labels[perm], k=10,
            )
            assert a == pytest.approx(b, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        codes = random_codes(rng, 25, 16)
        labels = rng.integers(0, 2, size=(25, 5))
        labels[labels.sum(axis=1) == 0, 2] = 1
        db = pack_database(codes)
        for k in (1, 5, 25, 40):
            v = map_at_k(db, labels, db, labels, k=k)
            p = precision_at_k(db, labels, db, labels, k=k)
            assert 0.0 <= v <= 1.0
            assert 0.0 <= p <= 1.0


class TestPrecisionAtK:
    def test_all_relevant(self):
        db, labels = identity_setup()
        assert precision_at_k(db, labels, db, labels, k=1) == 1.0

    def test_none_relevant_in_top(self):
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db_codes = pack_database([[-1, -1, -1, -1], [1, 1, 1, -1]])
        db_labels = np.array([[1, 0], [0, 1]])
        assert precision_at_k(query_codes, query_labels, db_codes, db_labels, k=1) == 0.0

    def test_half_relevant_in_top_four(self):
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db = pack_database(
            [[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1], [1, -1, -1, -1]]
        )
        db_labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        assert precision_at_k(query_codes, query_labels, db, db_labels, k=4) == 0.5


class TestHugeK:
    def test_k_past_int64_ranks_the_whole_database(self):
        # np.minimum(k, n_relevant) raised OverflowError for k >= 2**63
        query_codes = pack_database([[1, 1, 1, 1]])
        query_labels = np.array([[1, 0]])
        db = pack_database([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1], [1, -1, -1, -1]])
        db_labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        args = (query_codes, query_labels, db, db_labels)
        got = retrieval_metrics(*args, k=2**64)
        assert got["map_at_k"] == map_at_k(*args, k=4)
        assert got["precision_at_k"] == 2 / 2**64


def reference_metrics(query_codes, query_labels, db_codes, db_labels, k):
    """(mAP@k, P@k) from one stable sort per query of its per-bit
    distances to the unpacked database codes and the per-query AP@k /
    P@k formulas; None if no query has a relevant item."""
    rel = (query_labels > 0).astype(np.int64) @ (db_labels > 0).astype(np.int64).T > 0
    query_bits, db_bits = unpack_database(query_codes), unpack_database(db_codes)
    ap_values, p_values = [], []
    for qi in range(len(query_codes)):
        n_relevant = int(rel[qi].sum())
        if n_relevant == 0:
            continue
        dist = np.sum(query_bits[qi] != db_bits, axis=1)
        top = np.argsort(dist, kind="stable")[:k]
        flags = rel[qi][top].astype(np.float64)
        precision = np.cumsum(flags) / np.arange(1, top.size + 1)
        ap_values.append(float(np.sum(precision * flags)) / min(k, n_relevant))
        p_values.append(float(rel[qi][top].sum()) / k)
    if not ap_values:
        return None
    return float(np.mean(ap_values)), float(np.mean(p_values))


def check_against_reference(args):
    """Both metrics equal the reference with ``==``, one call for both
    equals the two wrappers, and all three raise when it is undefined;
    returns whether the instance was defined."""
    expected = reference_metrics(*args)
    if expected is None:
        for metric in (retrieval_metrics, map_at_k, precision_at_k):
            with pytest.raises(EvaluationError):
                metric(*args)
        return False
    both = retrieval_metrics(*args)
    assert (both["map_at_k"], both["precision_at_k"]) == expected
    assert (map_at_k(*args), precision_at_k(*args)) == expected
    return True


class TestBatchedMetricsMatchPerQueryReference:
    def test_random_instances_bit_identical(self):
        # few bits -> heavy distance ties; sparse labels -> some queries
        # (and some whole instances) without a relevant item; up to 150
        # queries so several query blocks are ranked
        rng = np.random.default_rng(11)
        undefined = 0
        for _ in range(300):
            n_q, n_db = int(rng.integers(1, 151)), int(rng.integers(1, 61))
            k_bits, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            density = rng.uniform(0.02, 0.5)
            query_codes = pack_database(random_codes(rng, n_q, k_bits))
            db_codes = pack_database(random_codes(rng, n_db, k_bits))
            query_labels = (rng.random((n_q, m)) < density).astype(np.int8)
            db_labels = (rng.random((n_db, m)) < density).astype(np.int8)
            k = int(rng.integers(1, 2 * n_db + 2))
            args = (query_codes, query_labels, db_codes, db_labels, k)
            undefined += not check_against_reference(args)
        assert 0 < undefined < 300

    @pytest.mark.parametrize("k_bits", [63, 64, 65, 130, 300])
    def test_multi_word_codes_bit_identical(self, k_bits):
        # codes of one, two, three and five 64-bit words; at K = 300 some
        # distances exceed 255, where an 8-bit accumulator would wrap
        rng = np.random.default_rng(k_bits)
        max_dist = defined = 0
        for _ in range(20):
            n_q, n_db = int(rng.integers(1, 151)), int(rng.integers(1, 81))
            m = int(rng.integers(1, 101))
            density = rng.uniform(0.02, 0.2)
            query_raw = biased_codes(rng, n_q, k_bits)
            db_raw = biased_codes(rng, n_db, k_bits)
            query_labels = (rng.random((n_q, m)) < density).astype(np.int8)
            db_labels = (rng.random((n_db, m)) < density).astype(np.int8)
            k = int(rng.integers(1, 2 * n_db + 2))
            args = (
                pack_database(query_raw), query_labels,
                pack_database(db_raw), db_labels, k,
            )
            defined += check_against_reference(args)
            distances = (query_raw[:, None, :] != db_raw[None, :, :]).sum(axis=2)
            max_dist = max(max_dist, int(distances.max()))
        assert defined > 10
        assert max_dist >= 256 or k_bits < 256

    @pytest.mark.parametrize("metric", [retrieval_metrics, map_at_k, precision_at_k])
    def test_argument_errors(self, metric):
        db = pack_database([[1, -1, 1], [-1, -1, 1]])
        labels = np.array([[1, 0], [0, 1]])
        empty = CodeDatabase(3, np.empty((0, 1), dtype=np.uint64))
        cases = [
            ((db, labels, db, labels, 0), "k must be at least 1"),
            ((db, labels, db, labels, 1.5), "k must be an integer"),
            ((db, labels, empty, np.empty((0, 2)), 1), "empty database"),
            ((empty, np.empty((0, 2)), db, labels, 1), "no queries"),
            ((db, labels, db, np.array([[1, 0, 0], [0, 1, 0]]), 1), "label dimension"),
            ((pack_database([[1, -1], [1, 1]]), labels, db, labels, 1), "code length"),
            ((db, labels[:1], db, labels, 1), "label rows"),
        ]
        for case, message in cases:
            with pytest.raises(ValueError, match=message):
                metric(*case)


class TestBlockedRanking:
    """The ranking pass takes max(1, _BLOCK_ELEMENTS // N) query rows
    per block and XORs max(1, _XOR_ELEMENTS // N) of them at a time;
    every split gives the reference metrics exactly."""

    def instance(self, seed, n_q, n_db, k_bits, m=5):
        rng = np.random.default_rng(seed)
        labels = [(rng.random((n, m)) < 0.3).astype(np.int8) for n in (n_q, n_db)]
        codes = [pack_database(biased_codes(rng, n, k_bits)) for n in (n_q, n_db)]
        return codes[0], labels[0], codes[1], labels[1]

    @pytest.mark.parametrize(
        "block_rows, xor_rows",
        [(7, 3), (7, 7), (1, 1), (0, 1), (2, 5)],  # 0: a budget below N, one-row blocks
    )
    def test_any_block_split_gives_the_reference(self, monkeypatch, block_rows, xor_rows):
        n_db = 40
        monkeypatch.setattr(icshash.retrieval, "_BLOCK_ELEMENTS", block_rows * n_db + 3)
        monkeypatch.setattr(icshash.retrieval, "_XOR_ELEMENTS", xor_rows * n_db)
        for seed, (n_q, k_bits) in enumerate([(23, 16), (30, 64), (9, 130), (1, 300)]):
            for k in (1, 10, 40, 100):
                args = (*self.instance(seed, n_q, n_db, k_bits), k)
                assert check_against_reference(args)

    def test_real_budget_over_three_blocks(self):
        # 150 queries against N = 20 000: blocks of 52, 52 and 46 rows
        n_db = 20_000
        assert icshash.retrieval._BLOCK_ELEMENTS // n_db == 52
        args = (*self.instance(5, 150, n_db, 64, m=80), 100)
        assert check_against_reference(args)


def dense_relevance(query_codes, query_labels, db_codes, db_labels, k):
    """Relevance from a float32 product of the label masks, as the metrics
    computed it before posting lists: the flags of each query's top
    min(k, N) items in (distance, index) order and its relevant count,
    queries without a relevant item dropped."""
    query_positive = (np.asarray(query_labels) > 0).astype(np.float32)
    db_positive = (np.asarray(db_labels) > 0).astype(np.float32)
    product = query_positive @ db_positive.T
    dist = np.bitwise_count(query_codes.words[:, None, :] ^ db_codes.words[None]).sum(axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    flags = np.take_along_axis(product, order, axis=1) > 0
    n_relevant = np.minimum(product, 1.0).sum(axis=1, dtype=np.int64)
    keep = n_relevant > 0
    return flags[keep], n_relevant[keep]


def dense_metrics(flags, n_relevant, k):
    """Both metrics from whole (Q, min(k, N)) flags and the relevant
    counts, by the formula the metrics apply to each query block."""
    top = flags.shape[1]
    precision = np.cumsum(flags, axis=1) / np.arange(1, top + 1)
    ap = np.sum(precision * flags, axis=1) / np.minimum(top, n_relevant)
    return {
        "map_at_k": float(np.mean(ap)),
        "precision_at_k": float(np.mean(flags.sum(axis=1) / k)),
    }


def relevance_instance(seed, n_q, n_db, m):
    """Sparse random labels, and among the queries: one holding every
    label, one holding none, one holding only label 0, which every item
    holds, and (for M > 1) one holding only label M - 1, which no item
    holds."""
    rng = np.random.default_rng(seed)
    query_labels = (rng.random((n_q, m)) < 0.05).astype(np.int8)
    db_labels = (rng.random((n_db, m)) < 0.05).astype(np.int8)
    query_labels[:4] = 0
    query_labels[0] = 1
    query_labels[2, 0] = db_labels[:, 0] = 1
    if m > 1:
        query_labels[3, -1], db_labels[:, -1] = 1, 0
    codes = [pack_database(biased_codes(rng, n, 64)) for n in (n_q, n_db)]
    return codes[0], query_labels, codes[1], db_labels


class TestPostingListsMatchTheDenseProduct:
    """The posting-list union scores the same metrics as the flags and
    relevant counts of the dense label product, compared with ``==``:
    label masks of one to three words, databases of one item to one word
    and a bit, and a database of many words."""

    @staticmethod
    def check(args, n_q):
        n_db = len(args[2])
        for k in (1, 10, n_db, n_db + 5):
            want_flags, want_relevant = dense_relevance(*args, k)
            assert len(want_relevant) < n_q  # the query without a label is dropped
            assert retrieval_metrics(*args, k) == dense_metrics(want_flags, want_relevant, k)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n_db", [1, 63, 64, 65, 20_000])
    def test_flags_and_counts_equal_the_dense_product(self, m, n_db):
        self.check(relevance_instance(m * n_db, 30, n_db, m), 30)

    @pytest.mark.parametrize("m, n_db", [(1, 1), (65, 64), (130, 65), (80, 3000)])
    def test_one_row_blocks(self, monkeypatch, m, n_db):
        monkeypatch.setattr(icshash.retrieval, "_BLOCK_ELEMENTS", 0)
        monkeypatch.setattr(icshash.retrieval, "_XOR_ELEMENTS", 0)
        self.check(relevance_instance(m + n_db, 9, n_db, m), 9)


def traced_peak(call):
    """The tracemalloc peak of ``call()``, after one untraced call has
    allocated what numpy caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_posting_lists_pack_without_a_copy_of_the_labels():
    n, m = 100_000, 80
    rng = np.random.default_rng(0)
    db_labels = np.zeros((n, m), np.int8)
    db_labels[np.arange(n), rng.integers(0, m, n)] = 1
    db = CodeDatabase(64, rng.integers(0, 2**64, size=(n, 1), dtype=np.uint64))
    peak = traced_peak(lambda: retrieval_metrics(db.code(0), db_labels[:1], db, db_labels, 10))
    # 0.53x the 8 MB labels: the lists (1 MB) and one block's transposed
    # labels; an (N, M) bool copy and an (M, N) padded one would add 2.1x
    assert peak < 0.75 * db_labels.nbytes


def test_paper_depth_scores_each_query_block_in_place():
    # mAP@5000, the depth CSQ reports on MS COCO, at the eval workload's
    # shape: Q = 1000, N = 20 000, M = 80, K = 64
    n_q, n, m = 1000, 20_000, 80
    rng = np.random.default_rng(0)
    labels = (rng.random((n_q + n, m)) < 0.03).astype(np.int8)
    labels[np.arange(n_q + n), rng.integers(0, m, n_q + n)] = 1
    codes = CodeDatabase(64, rng.integers(0, 2**64, size=(n_q + n, 1), dtype=np.uint64))
    query, db = CodeDatabase(64, codes.words[:n_q]), CodeDatabase(64, codes.words[n_q:])
    peak = traced_peak(lambda: retrieval_metrics(query, labels[:n_q], db, labels[n_q:], 5000))
    # 13.1 MiB: one 52-row block's keys (4 MiB) and its (52, k) order,
    # flags, cumsum, precision and product; the same arrays over all Q
    # rows, scored after the ranking, came to 81 MiB
    assert peak <= 15.4 * 2**20


class TestCodesFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        for n, k in [(12, 20), (7, 3), (1, 130), (5, 64)]:
            codes = random_codes(rng, n, k)
            db = pack_database(codes)
            path = tmp_path / "codes.txt"
            save_codes(path, db)
            # the format written one character at a time
            lines = [f"{n} {k}"] + ["".join("1" if v > 0 else "0" for v in row) for row in codes]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
            loaded = load_codes(path)
            assert loaded.k_bits == k
            np.testing.assert_array_equal(unpack_database(loaded), codes)
            again = tmp_path / "again.txt"
            save_codes(again, loaded)
            assert path.read_bytes() == again.read_bytes()

    def test_empty_database_round_trip(self, tmp_path):
        for k, n_words in [(8, 1), (130, 3)]:
            path = tmp_path / "empty.txt"
            save_codes(path, CodeDatabase(k, np.empty((0, n_words), dtype=np.uint64)))
            assert path.read_bytes() == f"0 {k}\n".encode()
            loaded = load_codes(path)
            assert loaded.k_bits == k
            assert loaded.words.shape == (0, n_words)
            assert unpack_database(loaded).shape == (0, k)

    @pytest.mark.parametrize("text", ["-1 4\n", "0 0\n", "2 0\n\n\n"])
    def test_bad_header_counts(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc_info:
            load_codes(path)
        assert "line 1" in str(exc_info.value)

    def test_rows_past_the_header_count_are_a_parse_error(self, tmp_path):
        path = tmp_path / "codes.txt"
        save_codes(path, pack_database(random_codes(np.random.default_rng(2), 50, 12)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["45 12", *lines[1:46], "", *lines[46:]]))
        with pytest.raises(ParseError) as exc_info:
            load_codes(path)
        assert exc_info.value.line == 48  # the blank line 47 is skipped

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n1010\n10\n")
        with pytest.raises(Exception) as exc_info:
            load_codes(path)
        assert "line 3" in str(exc_info.value)
