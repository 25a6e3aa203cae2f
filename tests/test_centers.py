"""Center-construction tests: recursion base cases against hand-expanded
matrices, orthogonality by exhaustive scan, strategy selection, balance
and distinctness of Bernoulli draws, and the text round trip."""

import itertools
import os
import tempfile
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import icshash.centers
import icshash.retrieval
from icshash import (
    CapacityError,
    HashCenterSet,
    ParseError,
    generate_centers,
    load_centers,
    min_pairwise_hamming,
    save_centers,
    sylvester_hadamard,
)
from icshash.centers import STRATEGIES


def naive_hamming(a, b):
    return int(sum(1 for x, y in zip(a, b) if x != y))


def balanced_rows(k_bits):
    """Every K-bit +-1 row with K // 2 or K - K // 2 entries +1, as bytes."""
    return {
        np.array(row, dtype=np.int8).tobytes()
        for row in itertools.product((-1, 1), repeat=k_bits)
        if row.count(1) in (k_bits // 2, k_bits - k_bits // 2)
    }


class TestSylvesterHadamard:
    def test_order_one_base(self):
        np.testing.assert_array_equal(sylvester_hadamard(0), [[1]])

    def test_order_two(self):
        np.testing.assert_array_equal(sylvester_hadamard(1), [[1, 1], [1, -1]])

    def test_order_four_matches_hand_expansion(self):
        # One doubling of the order-2 block written out by hand.
        expected = [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
        h = sylvester_hadamard(2)
        np.testing.assert_array_equal(h, expected)
        np.testing.assert_array_equal(h @ h.T, 4 * np.eye(4, dtype=int))

    @pytest.mark.parametrize("k_exp", range(9))
    def test_rows_pairwise_orthogonal(self, k_exp):
        h = sylvester_hadamard(k_exp).astype(np.int64)
        order = 2**k_exp
        np.testing.assert_array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
        assert np.all(np.abs(h) == 1)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            sylvester_hadamard(17)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(-1)


class TestGenerateCenters:
    def test_rows_strategy_distances(self):
        cs = generate_centers(16, 10, seed=7)
        assert cs.strategy == "hadamard-rows"
        assert cs.centers.shape == (10, 16)
        h = sylvester_hadamard(4)
        rows = {r.tobytes() for r in h}
        assert all(c.tobytes() in rows for c in cs.centers)
        # brute-force pairwise check
        for i in range(10):
            for j in range(i + 1, 10):
                assert naive_hamming(cs.centers[i], cs.centers[j]) == 8

    def test_single_label(self):
        cs = generate_centers(16, 1, seed=3)
        assert cs.centers.shape == (1, 16)
        h = sylvester_hadamard(4)
        assert any(np.array_equal(cs.centers[0], r) for r in h)

    def test_hadamard_centers_build_only_the_drawn_rows(self):
        # the whole order-16384 matrix is 256 MiB of int8; 80 rows are 1.25 MiB
        tracemalloc.start()
        try:
            cs = generate_centers(16384, 80, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert cs.strategy == "hadamard-rows"
        # row i of the Sylvester matrix has (-1)^(bit b of i) at column 2^b
        columns = np.arange(16384)
        for row in cs.centers:
            i = sum(1 << b for b in range(14) if row[1 << b] == -1)
            want = np.where(np.bitwise_count(i & columns) % 2, -1, 1)
            np.testing.assert_array_equal(row, want)
        assert len({row.tobytes() for row in cs.centers}) == 80

    def test_stacked_strategy(self):
        cs = generate_centers(16, 20, seed=5)
        assert cs.strategy == "stacked-hadamard"
        h = sylvester_hadamard(4)
        stacked = {r.tobytes() for r in np.vstack([h, -h])}
        assert all(c.tobytes() in stacked for c in cs.centers)
        assert min_pairwise_hamming(cs) == 8

    def test_bernoulli_strategy_balanced_distinct(self):
        cs = generate_centers(48, 80, seed=11)
        assert cs.strategy == "bernoulli"
        seen = set()
        for row in cs.centers:
            ones = int(np.count_nonzero(row == 1))
            assert ones in (24, 24)
            key = row.tobytes()
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize(
        "k_bits, seed", [(13, 2), (3, 0), (5, 1), (9, 4), (13, 7), (45, 3), (45, 8)]
    )
    def test_bernoulli_odd_bits_balance_within_one(self, k_bits, seed):
        cs = generate_centers(k_bits, 6, seed=seed)
        assert cs.strategy == "bernoulli"
        for row in cs.centers:
            assert int(np.count_nonzero(row == 1)) in (k_bits // 2, k_bits // 2 + 1)
        assert len({row.tobytes() for row in cs.centers}) == 6

    def test_bernoulli_full_capacity_odd_bits(self):
        # C(5, 2) rows with two ones and C(5, 3) with three: all 20 are drawn
        cs = generate_centers(5, 20, seed=0)
        balanced = balanced_rows(5)
        assert len(balanced) == 20
        assert {row.tobytes() for row in cs.centers} == balanced

    @pytest.mark.parametrize(
        "k_bits, seed", [(10, 28), (10, 32), (10, 120), (10, 125), (10, 165), (9, 28)]
    )
    def test_bernoulli_full_capacity_at_seeds_past_any_redraw_budget(self, k_bits, seed):
        # C(10, 5) = C(9, 4) + C(9, 5) = 252 balanced rows; at these seeds
        # some late row repeats a kept one on each of 1000 redraws, which
        # once raised a CapacityError
        cs = generate_centers(k_bits, 252, seed=seed)
        assert cs.strategy == "bernoulli"
        assert {row.tobytes() for row in cs.centers} == balanced_rows(k_bits)

    def test_pow2_bits_many_labels_fall_back_to_bernoulli(self):
        cs = generate_centers(8, 20, seed=1)
        assert cs.strategy == "bernoulli"

    def test_deterministic(self):
        a = generate_centers(32, 12, seed=9)
        b = generate_centers(32, 12, seed=9)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.strategy == b.strategy

    def test_seed_changes_sample(self):
        a = generate_centers(32, 12, seed=1)
        b = generate_centers(32, 12, seed=2)
        assert not np.array_equal(a.centers, b.centers)

    def test_capacity_error_when_distinctness_impossible(self):
        with pytest.raises(CapacityError):
            generate_centers(3, 9, seed=0)

    def test_balanced_pool_exhaustion(self):
        # only C(4,2)=6 balanced 4-bit rows exist
        with pytest.raises(CapacityError):
            generate_centers(4, 10, seed=0)

    @pytest.mark.parametrize("k_bits, m_labels", [(3, 7), (4, 9)])
    def test_more_labels_than_balanced_rows_refused_before_any_draw(
        self, monkeypatch, k_bits, m_labels
    ):
        # 3 bits: C(3, 1) + C(3, 2) = 6 balanced rows; 4 bits: C(4, 2) = 6
        def no_draw(*args):
            raise AssertionError("drew rows for an impossible request")

        monkeypatch.setattr(icshash.centers, "_bernoulli_centers", no_draw)
        with pytest.raises(CapacityError, match="only 6 balanced rows exist"):
            generate_centers(k_bits, m_labels, seed=0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_centers(1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_centers(16, 0, seed=0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 1, 0), "k_bits must be at least 2"),
            ((16, 0, 0), "m_labels must be at least 1"),
            ((16.0, 4, 0), "k_bits must be an integer"),
            ((16, 4.0, 0), "m_labels must be an integer"),
            ((16, 4, -1), "seed must be at least 0"),
            ((16, 4, 1.5), "seed must be an integer"),
        ],
    )
    def test_invalid_argument_is_named(self, args, message):
        with pytest.raises(ValueError, match=message):
            generate_centers(*args)


class TestMinPairwiseHamming:
    def test_hadamard_rows_k32(self):
        cs = generate_centers(32, 16, seed=4)
        assert min_pairwise_hamming(cs) == 16
        # brute-force confirmation
        best = min(
            naive_hamming(cs.centers[i], cs.centers[j])
            for i in range(16)
            for j in range(i + 1, 16)
        )
        assert best == 16

    def test_identical_rows(self):
        row = np.ones(8, dtype=np.int8)
        cs = HashCenterSet(np.vstack([row, row]), "bernoulli", 0)
        assert min_pairwise_hamming(cs) == 0

    def test_complementary_rows(self):
        ones = np.ones(16, dtype=np.int8)
        cs = HashCenterSet(np.vstack([ones, -ones]), "bernoulli", 0)
        assert min_pairwise_hamming(cs) == 16

    def test_needs_two_centers(self):
        cs = generate_centers(16, 1, seed=0)
        with pytest.raises(ValueError):
            min_pairwise_hamming(cs)

    @pytest.mark.parametrize("block_elements", [None, 64])
    def test_matches_the_gram_formula_on_every_shape(self, monkeypatch, block_elements):
        """K crosses word boundaries and passes 255; at 64 elements a block
        the rows run in several blocks with a short last one, so each
        block's diagonal offset is checked."""
        if block_elements is not None:
            monkeypatch.setattr(icshash.retrieval, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(0)
        shapes = itertools.product([1, 2, 63, 64, 65, 128, 129, 300], [2, 3, 50])
        for (k, m), dtype in itertools.product(shapes, [np.int8, np.int64, np.float64]):
            for twin in (None, "repeat", "complement"):
                c = rng.choice(np.array([-1, 1], dtype), (m, k))
                if twin == "repeat":
                    c[-1] = c[0]
                elif twin == "complement":
                    c[-1] = -c[0]
                gram = (k - c.astype(np.int64) @ c.T.astype(np.int64)) // 2
                want = int(gram[~np.eye(m, dtype=bool)].min())
                got = min_pairwise_hamming(HashCenterSet(c, "bernoulli", 0))
                assert got == want, (k, m, dtype, twin)
                if twin == "repeat":
                    assert got == 0
                if twin == "complement" and m == 2:
                    assert got == k

    @pytest.mark.parametrize(
        "k_bits, m_labels, bound",
        [(16, 4000, 8 * 2**20), (16384, 80, 4 * 2**20)],  # a Gram matrix traced 382 and 10 MiB
    )
    def test_holds_one_block_of_distances(self, k_bits, m_labels, bound):
        cs = generate_centers(k_bits, m_labels, seed=1)
        tracemalloc.start()
        try:
            min_pairwise_hamming(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestCentersFile:
    def test_round_trip_bit_exact(self, tmp_path):
        cs = generate_centers(16, 10, seed=7)
        path = tmp_path / "centers.txt"
        save_centers(path, cs)
        loaded = load_centers(path)
        assert (loaded.k_bits, loaded.m_labels) == (16, 10)
        assert loaded.strategy == cs.strategy
        assert loaded.seed == cs.seed
        np.testing.assert_array_equal(loaded.centers, cs.centers)
        second = tmp_path / "again.txt"
        save_centers(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("16 10\n")
        with pytest.raises(Exception) as exc_info:
            load_centers(path)
        assert "line 1" in str(exc_info.value)

    def test_rows_past_the_header_count_are_a_parse_error(self, tmp_path):
        path = tmp_path / "centers.txt"
        save_centers(path, generate_centers(8, 4, seed=1))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["8 3 " + lines[0].split(maxsplit=2)[2], *lines[1:]]))
        with pytest.raises(ParseError) as exc_info:
            load_centers(path)
        assert exc_info.value.line == 5

    def test_bad_row_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 bernoulli 0\n1 2\n")
        with pytest.raises(Exception) as exc_info:
            load_centers(path)
        assert "line 2" in str(exc_info.value)


class TestHashCenterSet:
    @pytest.mark.parametrize(
        "centers, seed, match",
        [
            (np.empty((0, 4), dtype=np.int8), 0, r"centers shape \(0, 4\)"),
            (np.empty((3, 0), dtype=np.int8), 0, r"centers shape \(3, 0\)"),
            (np.ones((2, 4), dtype=np.int8), -3, "seed must be at least 0"),
            (np.ones((2, 4), dtype=np.int8), 1.5, "seed must be an integer"),
            (np.array([[1j, -1]]), 0, "center entries must be -1 or \\+1"),
        ],
    )
    def test_what_load_centers_refuses_is_refused(self, centers, seed, match):
        with pytest.raises(ValueError, match=match):
            HashCenterSet(centers, "bernoulli", seed)

    def test_entry_check_holds_one_comparison_at_a_time(self):
        centers = np.ones((2000, 4096), dtype=np.int8)
        tracemalloc.start()
        try:
            HashCenterSet(centers, "bernoulli", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * centers.nbytes  # two bool arrays at once are 2x

    def test_unknown_strategy_is_refused(self):
        with pytest.raises(ValueError, match="unknown strategy 'hadamard'"):
            HashCenterSet(np.ones((2, 4), dtype=np.int8), "hadamard", 0)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        shape=st.tuples(st.integers(0, 6), st.integers(0, 9)),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.one_of(st.integers(-3, 2**64), st.booleans()),
        data=st.data(),
    )
    def test_every_set_saves_and_loads_back_equal(self, shape, strategy, seed, data):
        dtype = data.draw(st.sampled_from([np.int8, np.int64, np.float64]))
        centers = data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from([-1, 1])))
        try:
            center_set = HashCenterSet(centers, strategy, seed)
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "centers.txt")
            save_centers(path, center_set)
            loaded = load_centers(path)
        assert (loaded.strategy, loaded.seed) == (strategy, seed)
        assert (loaded.k_bits, loaded.m_labels) == (shape[1], shape[0])
        np.testing.assert_array_equal(loaded.centers, centers)
