"""The text writers go row by row: their files equal those of whole-file
reference writers (test-local copies that build every line, join them
and write the string once), and saving a dataset or codes holds no more
than a few rows of text at a time."""

import tracemalloc

import numpy as np
import pytest

import icshash.data
from icshash import (
    CodeDatabase,
    Dataset,
    HashCenterSet,
    generate_centers,
    init_params,
    pack_database,
    save_centers,
    save_checkpoint,
    save_codes,
    save_dataset,
    unpack_database,
)

EDGE_VALUES = [-0.0, 5e-324, 1e308, -1e308, 0.1, -2.5e-300, 123456789.123]


def reference_dataset(path, data):
    lines = ["{} {} {}".format(*data.features.shape, data.labels.shape[1])]
    rows = zip(data.features, data.labels, data.proportions, data.has_proportions)
    for features, labels, proportions, given in rows:
        lines.append(" ".join(f"{v:.9g}" for v in features.tolist()))
        lines.append("".join(map(str, labels.tolist())))
        if given:
            lines.append(" ".join(f"{v:.17g}" for v in proportions[labels != 0].tolist()))
        else:
            lines.append("-")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_centers(path, center_set):
    lines = [f"{center_set.k_bits} {center_set.m_labels} {center_set.strategy} {center_set.seed}"]
    for row in center_set.centers:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_checkpoint(path, params, k_bits, m_labels, seed):
    lines = [
        "icshash-checkpoint-v1",
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


def reference_codes(path, db):
    text = np.full((len(db), db.k_bits + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = ord("0") + (unpack_database(db) > 0)
    with open(path, "w") as fh:
        fh.write(f"{len(db)} {db.k_bits}\n" + text.tobytes().decode())


def random_code_database(n, k_bits, seed):
    if n == 0:
        return CodeDatabase(k_bits, np.empty((0, (k_bits + 63) // 64), dtype=np.uint64))
    rng = np.random.default_rng(seed)
    return pack_database(2 * rng.integers(0, 2, size=(n, k_bits)) - 1)


def assert_same_file(tmp_path, write, reference, *args):
    write(tmp_path / "written", *args)
    reference(tmp_path / "reference", *args)
    assert (tmp_path / "written").read_bytes() == (tmp_path / "reference").read_bytes()


def edge_dataset(n, d, m, seed, given):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    features.flat[: len(EDGE_VALUES)] = EDGE_VALUES[: features.size]
    labels = (rng.random((n, m)) < 0.4).astype(np.int8)
    labels[np.arange(n), rng.integers(m, size=n)] = 1
    proportions = np.where(labels != 0, rng.random((n, m)), 0.0)
    proportions /= proportions.sum(axis=1, keepdims=True)
    positive = np.flatnonzero(labels[0])
    proportions[0, positive[: len(EDGE_VALUES)]] = EDGE_VALUES[: positive.size]
    given = np.asarray(given, dtype=bool)
    proportions[~given] = 0.0  # save_dataset refuses proportions it would not write
    return Dataset(features, labels, proportions, given)


class TestSameBytesAsWholeFileWriters:
    @pytest.mark.parametrize(
        "n, d, m, given, block",
        [
            (1, 1, 1, [True], 16),
            (1, 7, 9, [False], 16),
            (5, 7, 9, [True, False, True, True, False], 16),
            (40, 32, 80, [i % 3 != 0 for i in range(40)], 16),
            # blocks of 4: one block short of full, exactly one, one and a sample
            (3, 7, 9, [False, True, True], 4),
            (4, 7, 9, [True, False, False, True], 4),
            (5, 7, 9, [True, True, False, True, False], 4),
        ],
    )
    def test_dataset(self, tmp_path, monkeypatch, n, d, m, given, block):
        monkeypatch.setattr(icshash.data, "_SAVE_BLOCK", block)
        data = edge_dataset(n, d, m, n + d, given)
        assert_same_file(tmp_path, save_dataset, reference_dataset, data)

    @pytest.mark.parametrize(
        "on_mask, problem",
        [(True, "a non-finite value on its label mask"), (False, "a nonzero value off")],
        ids=["on-mask", "off-mask"],
    )
    def test_a_refused_sample_in_the_last_block_leaves_no_file(
        self, tmp_path, monkeypatch, on_mask, problem
    ):
        monkeypatch.setattr(icshash.data, "_SAVE_BLOCK", 4)
        data = edge_dataset(9, 3, 5, 1, np.ones(9, dtype=bool))
        proportions = np.array(data.proportions)
        j = int(np.flatnonzero((data.labels[8] != 0) == on_mask)[0])
        proportions[8, j] = np.nan if on_mask else 0.5
        refused = Dataset(data.features, data.labels, proportions, data.has_proportions)
        with pytest.raises(ValueError, match=f"sample 8: proportions hold {problem}"):
            save_dataset(tmp_path / "refused.txt", refused)
        assert not (tmp_path / "refused.txt").exists()

    @pytest.mark.parametrize(
        "k_bits, m_labels, strategy",
        [(16, 10, "hadamard-rows"), (16, 30, "stacked-hadamard"), (24, 24, "bernoulli")],
    )
    def test_centers_in_every_strategy(self, tmp_path, k_bits, m_labels, strategy):
        center_set = generate_centers(k_bits, m_labels, seed=3)
        assert center_set.strategy == strategy
        assert_same_file(tmp_path, save_centers, reference_centers, center_set)

    def test_one_center(self, tmp_path):
        center_set = HashCenterSet(np.array([[1, -1, 1]], dtype=np.int8), "bernoulli", 0)
        assert_same_file(tmp_path, save_centers, reference_centers, center_set)

    @pytest.mark.parametrize("sizes", [[5, 3], [4, 6, 2, 3], [1, 1]])
    def test_checkpoint(self, tmp_path, sizes):
        params = init_params(sizes, np.random.default_rng(len(sizes)))
        edges = iter(EDGE_VALUES)
        for w, b in zip(params.weights, params.biases):
            w.flat[:2] = [next(edges, 0.5), next(edges, -0.0)]
            b[0] = -0.0
        args = (params, sizes[-1], 7, 11)
        assert_same_file(tmp_path, save_checkpoint, reference_checkpoint, *args)

    @pytest.mark.parametrize("k_bits", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n, per_write", [(0, 4096), (1, 4096), (9, 4), (8, 4), (4100, 4096)])
    def test_codes(self, tmp_path, monkeypatch, k_bits, n, per_write):
        # per_write 4: blocks of 4, 4 and 1 codes, or exactly two blocks
        monkeypatch.setattr(icshash.data, "_ROW_BLOCK", per_write)
        db = random_code_database(n, k_bits, seed=n + k_bits)
        assert_same_file(tmp_path, save_codes, reference_codes, db)


def test_saving_codes_holds_a_few_rows_of_text(tmp_path):
    db = random_code_database(100_000, 64, seed=0)
    tracemalloc.start()
    try:
        save_codes(tmp_path / "codes.txt", db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "codes.txt").stat().st_size / 4


def test_saving_a_dataset_holds_a_few_rows_of_text(tmp_path):
    data = edge_dataset(2000, 32, 80, 0, np.ones(2000, dtype=bool))
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "big.txt", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.txt").stat().st_size
    assert peak < size / 20
