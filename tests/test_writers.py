"""The text writers go row by row: their files equal those of whole-file
reference writers (test-local copies that build every line, join them
and write the string once), and saving a dataset holds no more than a
few rows of text at a time."""

import tracemalloc

import numpy as np
import pytest

from icshash import (
    Dataset,
    HashCenterSet,
    generate_centers,
    init_params,
    save_centers,
    save_checkpoint,
    save_dataset,
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
    return Dataset(features, labels, proportions, np.asarray(given, dtype=bool))


class TestSameBytesAsWholeFileWriters:
    @pytest.mark.parametrize(
        "n, d, m, given",
        [
            (1, 1, 1, [True]),
            (1, 7, 9, [False]),
            (5, 7, 9, [True, False, True, True, False]),
            (40, 32, 80, [i % 3 != 0 for i in range(40)]),
        ],
    )
    def test_dataset(self, tmp_path, n, d, m, given):
        data = edge_dataset(n, d, m, n + d, given)
        assert_same_file(tmp_path, save_dataset, reference_dataset, data)

    @pytest.mark.parametrize(
        "k_bits, m_labels, strategy",
        [(16, 10, "hadamard-rows"), (16, 30, "stacked-hadamard"), (24, 24, "bernoulli")],
    )
    def test_centers_in_every_strategy(self, tmp_path, k_bits, m_labels, strategy):
        center_set = generate_centers(k_bits, m_labels, seed=3)
        assert center_set.strategy == strategy
        assert_same_file(tmp_path, save_centers, reference_centers, center_set)

    def test_one_center(self, tmp_path):
        center_set = HashCenterSet(3, 1, np.array([[1, -1, 1]], dtype=np.int8), "bernoulli", 0)
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
