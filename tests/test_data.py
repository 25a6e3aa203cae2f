"""Dataset tests: generator invariants and determinism, text round
trip, parse failures with line numbers, the memory a load holds, and
the rank correlation."""

import os
import tempfile
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from icshash import (
    DataError,
    Dataset,
    EvaluationError,
    MultiLabelSample,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    spearman_corr,
)
import icshash.data
from icshash.data import _average_ranks, load_dataset_csv


class TestGenerateSynthetic:
    def test_sample_invariants(self):
        spec = SyntheticSpec(200, 16, 8, labels_per_sample=(1, 3), seed=0)
        samples = generate_synthetic(spec)
        assert len(samples) == 200
        for s in samples:
            assert s.features.shape == (16,)
            assert s.labels.shape == (8,)
            c = s.n_labels()
            assert 1 <= c <= 3
            assert s.proportions is not None
            assert s.proportions.shape == (c,)
            assert abs(s.proportions.sum() - 1.0) < 1e-9
            assert np.all(s.proportions >= 0)

    def test_single_label_gives_unit_proportion(self):
        spec = SyntheticSpec(50, 8, 4, labels_per_sample=(1, 1), seed=1)
        for s in generate_synthetic(spec):
            assert s.n_labels() == 1
            np.testing.assert_allclose(s.proportions, [1.0])

    def test_noiseless_single_label_features_equal_anchor(self):
        spec = SyntheticSpec(
            100, 12, 4, labels_per_sample=(1, 1), noise_sigma=0.0, seed=2
        )
        samples = generate_synthetic(spec)
        by_label = {}
        for s in samples:
            label = int(np.flatnonzero(s.labels)[0])
            by_label.setdefault(label, []).append(s.features)
        for label, feats in by_label.items():
            # all samples of one label share the anchor exactly
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])
            assert np.linalg.norm(feats[0]) == pytest.approx(1.0)

    def test_deterministic_given_seed(self, tmp_path):
        spec = SyntheticSpec(60, 6, 5, seed=77)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(pa, a)
        save_dataset(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_spec_refuses_a_noise_scale_whose_features_overflow(self):
        # 1e308 times a normal draw overflowed inside the generator
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and at most"):
            SyntheticSpec(200, 4, 5, seed=3, noise_sigma=1e308)

    def test_a_large_finite_noise_scale_generates(self):
        data = generate_synthetic(SyntheticSpec(200, 4, 5, seed=3, noise_sigma=1e200))
        assert np.isfinite(data.features).all() and np.abs(data.features).max() > 1e199

    @pytest.mark.parametrize("shape, bound", [((5000, 32, 80), 1.08), ((2000, 1, 4), 1.25)])
    def test_generating_holds_little_beyond_the_columns(self, shape, bound):
        # the benchmark's set-up peaks while generating: 1.04x the columns
        # at (5000, 32, 80), where an (N, D) noise draw would add 0.26x;
        # 1.18x at (2000, 1, 4), where scratch sized by a fixed slot count,
        # not by N, would come to 2.31x
        spec = SyntheticSpec(*shape, seed=0)
        generate_synthetic(SyntheticSpec(10, *shape[1:], seed=0))  # numpy's first-call caches
        tracemalloc.start()
        try:
            data = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * sum(column.nbytes for column in vars(data).values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, labels_per_sample=(0, 2))
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, labels_per_sample=(2, 4))
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(0, 4, 3)
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative"):
            SyntheticSpec(10, 4, 3, noise_sigma=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_samples", 10.0),
            ("m_labels", 3.5),
            ("labels_per_sample", (1.5, 3)),
            ("labels_per_sample", (1, 2.0)),
            ("dirichlet_alpha", float("nan")),
            ("dirichlet_alpha", float("inf")),
            ("noise_sigma", float("nan")),
            ("noise_sigma", float("inf")),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_spec_refuses_what_the_generator_mishandles(self, field, value):
        # refused when the spec is built, by name, not inside numpy's draws
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{"n_samples": 10, "d_features": 4, "m_labels": 3, field: value})


class TestDatasetFile:
    def test_empty_dataset_is_not_saved(self, tmp_path):
        empty = Dataset(np.empty((0, 3)), np.empty((0, 2)), np.empty((0, 2)), np.empty(0))
        path = tmp_path / "empty.txt"
        with pytest.raises(ValueError, match="refusing to save an empty dataset"):
            save_dataset(path, empty)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(40, 7, 5, seed=3)
        samples = generate_synthetic(spec)
        path = tmp_path / "data.txt"
        save_dataset(path, samples)
        loaded = load_dataset(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            np.testing.assert_allclose(a.features, b.features, rtol=1e-8)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.proportions, b.proportions)
        # a second round trip is byte-stable
        again = tmp_path / "again.txt"
        save_dataset(again, loaded)
        assert load_dataset(again) is not None
        third = tmp_path / "third.txt"
        save_dataset(third, load_dataset(again))
        assert again.read_bytes() == third.read_bytes()

    def test_missing_proportions_marker(self, tmp_path):
        samples = Dataset([[0.5, -1.0]], [[1, 0, 1]], np.zeros((1, 3)), [False])
        path = tmp_path / "noprops.txt"
        save_dataset(path, samples)
        assert path.read_text().splitlines()[3] == "-"
        loaded = load_dataset(path)
        assert loaded[0].proportions is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert "line 1" in str(exc_info.value)

    def test_zero_label_row_names_sample(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1 2 3\n0.1 0.2\n000\n-\n")
        with pytest.raises(DataError) as exc_info:
            load_dataset(path)
        assert "sample 0" in str(exc_info.value)

    def test_wrong_feature_count_reports_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 3 2\n0.1 0.2\n10\n-\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert "line 2" in str(exc_info.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2 2\n0.1 0.2\n10\n-\n0.3 {bad}\n01\n-\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 5

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_proportion_reports_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2 2\n0.1 0.2\n10\n1\n0.3 0.4\n11\n0.5 {bad}\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 7
        assert "non-finite proportion value" in str(exc_info.value)

    def test_first_non_finite_value_in_file_order_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0.1 0.2\n11\n0.5 nan\n0.3 inf\n01\n-\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 4

    @pytest.mark.parametrize("header", ["0 8 4", "1 0 4", "1 2 0"])
    def test_header_counts_must_be_positive(self, tmp_path, header):
        path = tmp_path / "empty.txt"
        path.write_text(f"{header}\n0.1 0.2\n10\n-\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 1

    def test_rows_past_the_header_count_are_a_parse_error(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(path, generate_synthetic(SyntheticSpec(50, 3, 4, seed=1)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["49 3 4", *lines[1:], "", ""]))
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 2 + 3 * 49  # sample 49's features
        path.write_text("\n".join([*lines, "", " "]))
        assert len(load_dataset(path)) == 50

    def test_label_string_message_names_its_width(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 2 2\n0.1 0.2\n1x\n-\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 3
        assert "expected a 0/1 string of 2 characters" in str(exc_info.value)

    def test_csv_error_after_blank_line_names_physical_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("0.5,1.5,1,0\n\n-0.25,x,0,1\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset_csv(path, m_labels=2)
        assert exc_info.value.line == 3

    def test_csv_first_row_of_wrong_width_is_named(self, tmp_path):
        path = tmp_path / "first.csv"
        for first in ("0.1,0.2,1,0", "0.1,0.2,0.3,0.4,1,0"):
            path.write_text(f"{first}\n0.5,1.5,2.5,1,0\n-0.25,0.75,0.5,0,1\n")
            with pytest.raises(ParseError) as exc_info:
                load_dataset_csv(path, m_labels=2)
            assert exc_info.value.line == 1

    def test_csv_width_tie_goes_to_the_earliest_row(self, tmp_path):
        path = tmp_path / "tie.csv"
        path.write_text("0.1,0.2,1,0\n0.5,1.5,2.5,1,0\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset_csv(path, m_labels=2)
        assert exc_info.value.line == 2

    def test_csv_rejects_non_finite_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.5,1,0\n-0.25,nan,0,1\n")
        with pytest.raises(ParseError) as exc_info:
            load_dataset_csv(path, m_labels=2)
        assert exc_info.value.line == 2

    def test_csv_variant(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,1.5,1,0\n-0.25,0.75,0,1\n")
        samples = load_dataset_csv(path, m_labels=2)
        assert len(samples) == 2
        np.testing.assert_allclose(samples[0].features, [0.5, 1.5])
        np.testing.assert_array_equal(samples[0].labels, [1, 0])
        assert samples[0].proportions is None

    def test_csv_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.5,2,0\n")
        with pytest.raises(ParseError):
            load_dataset_csv(path, m_labels=2)


def per_sample_synthetic(spec):
    """The generator as a loop that builds one MultiLabelSample per
    sample, in the draw order generate_synthetic keeps."""
    rng = np.random.default_rng(spec.seed)
    anchors = rng.normal(size=(spec.m_labels, spec.d_features))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    lo, hi = spec.labels_per_sample
    samples = []
    for _ in range(spec.n_samples):
        c = int(rng.integers(lo, hi + 1))
        chosen = np.sort(rng.choice(spec.m_labels, size=c, replace=False))
        if c == 1:
            proportions = np.ones(1)
        else:
            proportions = rng.dirichlet(np.full(c, spec.dirichlet_alpha))
        features = proportions @ anchors[chosen]
        if spec.noise_sigma > 0:
            features = features + spec.noise_sigma * rng.normal(size=spec.d_features)
        labels = np.zeros(spec.m_labels, dtype=np.int8)
        labels[chosen] = 1
        samples.append(MultiLabelSample(features, labels, proportions))
    return samples


def assert_same_sample(a, b):
    for name in ("features", "labels", "proportions"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            np.testing.assert_array_equal(x, y)


class TestDataset:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(300, 9, 7, labels_per_sample=(1, 4), noise_sigma=0.0, seed=4),
            SyntheticSpec(300, 9, 7, labels_per_sample=(1, 4), noise_sigma=0.1, seed=4),
            SyntheticSpec(100, 9, 7, labels_per_sample=(1, 1), seed=5),
            SyntheticSpec(100, 9, 7, labels_per_sample=(7, 7), seed=6),
            SyntheticSpec(1, 9, 7, labels_per_sample=(1, 4), seed=7),
            SyntheticSpec(100, 1, 7, labels_per_sample=(1, 4), seed=8),
            # tiny shares that underflow to 0, and nearly equal ones
            SyntheticSpec(200, 9, 7, labels_per_sample=(2, 5), dirichlet_alpha=1e-3, seed=9),
            SyntheticSpec(200, 9, 7, labels_per_sample=(2, 5), dirichlet_alpha=1e3, seed=10),
        ],
        ids=["0.0", "0.1", "labels-1-1", "labels-M-M", "n-1", "d-1", "alpha-1e-3", "alpha-1e3"],
    )
    def test_generated_samples_equal_the_per_sample_generator(self, spec):
        data = generate_synthetic(spec)
        assert isinstance(data, Dataset)
        reference = per_sample_synthetic(spec)
        assert len(data) == len(reference)
        for a, b in zip(data, reference):
            assert_same_sample(a, b)

    def test_columns(self):
        data = generate_synthetic(SyntheticSpec(50, 6, 5, seed=2))
        assert data.features.shape == (50, 6) and data.features.dtype == np.float64
        assert data.labels.shape == (50, 5) and data.labels.dtype == np.int8
        assert data.proportions.shape == (50, 5)
        np.testing.assert_array_equal(data.proportions[data.labels == 0], 0.0)
        np.testing.assert_allclose(data.proportions.sum(axis=1), 1.0)
        assert data.has_proportions.dtype == bool and data.has_proportions.all()

    def test_loaded_items_equal_the_saved_samples(self, tmp_path):
        rng = np.random.default_rng(8)
        features, labels = np.empty((12, 3)), np.zeros((12, 5), dtype=np.int8)
        proportions = np.zeros((12, 5))
        for i in range(12):
            labels[i, rng.choice(5, size=1 + i % 3, replace=False)] = 1
            if i % 4:
                proportions[i, labels[i] != 0] = rng.dirichlet(np.ones(labels[i].sum()))
            features[i] = np.round(rng.normal(size=3), 3)
        samples = Dataset(features, labels, proportions, np.arange(12) % 4 != 0)
        path = tmp_path / "data.txt"
        save_dataset(path, samples)
        data = load_dataset(path)
        assert len(data) == 12
        for i, sample in enumerate(samples):
            assert_same_sample(data[i], sample)
        assert_same_sample(data[-1], samples[-1])
        np.testing.assert_array_equal(data.has_proportions, [i % 4 != 0 for i in range(12)])

    def test_slices_and_index_arrays_are_datasets(self):
        data = generate_synthetic(SyntheticSpec(20, 4, 3, seed=1))
        for index in (slice(5, 12), slice(None, None, 3), np.array([7, 2, 2]), data.labels[:, 0] == 1):
            part = data[index]
            assert isinstance(part, Dataset)
            rows = np.arange(20)[index]
            assert len(part) == len(rows)
            for sample, i in zip(part, rows):
                assert_same_sample(sample, data[int(i)])
        with pytest.raises(IndexError):
            data[20]

    def test_saving_a_loaded_dataset_writes_the_same_bytes(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(40, 5, 6, seed=9))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(a, data)
        save_dataset(b, load_dataset(a))
        assert a.read_bytes() == b.read_bytes()

    def test_columns_are_read_only_views(self):
        features = np.zeros((3, 2))
        data = Dataset(features, np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3, dtype=bool))
        for column in (data.features, data.labels, data.proportions, data.has_proportions):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        features[0, 0] = 1.0  # the caller's own array stays writable
        assert data.features[0, 0] == 1.0

    def test_columns_that_disagree_on_n_or_m_are_refused(self):
        n, m = 4, 3
        columns = [np.zeros((n, 2)), np.ones((n, m)), np.zeros((n, m)), np.zeros(n, dtype=bool)]
        assert len(Dataset(*columns)) == n
        for at, column in [
            (0, np.zeros((n + 1, 2))),
            (0, np.zeros(n)),
            (1, np.ones((n + 1, m))),
            (1, np.ones(n)),
            (2, np.zeros((n, m + 1))),
            (2, np.zeros((n - 1, m))),
            (3, np.zeros(n + 1, dtype=bool)),
        ]:
            bad = list(columns)
            bad[at] = column
            with pytest.raises(ValueError, match="Dataset columns must be"):
                Dataset(*bad)

    @pytest.mark.parametrize("bad", [[2, 0], [0.5, 1], [257, 0], [-1, 1]])
    def test_labels_other_than_0_or_1_are_refused_as_given(self, bad):
        # a cast to int8 before the check saved [2, 0] as the line "20",
        # which does not load, read [0.5, 1] as [0, 1], wrapped 257 to 1,
        # and named [-1, 1] a row without a positive label
        labels = np.array([[1, 0], [0, 1], bad, [0, 0], [3, 1]])
        features = np.zeros((5, 2))
        features[2:, 1] = np.nan
        with pytest.raises(DataError) as exc_info:
            Dataset(features, labels, np.zeros((5, 2)), np.zeros(5, dtype=bool))
        assert str(exc_info.value) == "sample 2 has a label other than 0 or 1"

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64, bool])
    def test_0_or_1_labels_of_any_type_are_kept_as_int8(self, dtype):
        labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=dtype)
        data = Dataset(np.zeros((2, 1)), labels, np.zeros((2, 3)), np.zeros(2, dtype=bool))
        assert data.labels.dtype == np.int8
        assert data.labels.tolist() == [[1, 0, 1], [0, 1, 0]]

    def test_no_feature_is_refused(self):
        # D = 0 saved a file whose header load_dataset refuses
        with pytest.raises(ValueError, match="D >= 1"):
            Dataset(np.zeros((2, 0)), np.ones((2, 1)), np.zeros((2, 1)), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize(
        "row, value, given, problem",
        [
            (0, np.nan, True, "a non-finite value on its label mask"),
            (3, np.inf, True, "a non-finite value on its label mask"),
            (2, 7.0, True, "a nonzero value off its label mask or with has_proportions false"),
            (1, np.nan, True, "a nonzero value off its label mask or with has_proportions false"),
            (3, 0.5, False, "a nonzero value off its label mask or with has_proportions false"),
        ],
    )
    def test_proportions_that_would_not_load_back_are_refused(
        self, tmp_path, row, value, given, problem
    ):
        # the value goes to label 1: on the mask of rows 0 and 3, off it in rows 1 and 2
        labels = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0], [0, 1, 1]])
        proportions = np.array([[0.5, 0.5, 0], [0.25, 0, 0.75], [1, 0, 0], [0, 0, 0]])
        proportions[row, 1] = value
        has = np.array([True, True, True, given])
        data = Dataset(np.zeros((4, 2)), labels, proportions, has)
        path = tmp_path / "data.txt"
        with pytest.raises(ValueError) as exc_info:
            save_dataset(path, data)
        assert str(exc_info.value) == f"sample {row}: proportions hold {problem}"
        assert not path.exists()

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(1, 4)),
        clean=st.sampled_from([True, True, False]),
        data=st.data(),
    )
    def test_every_dataset_that_saves_loads_back_equal(self, shape, clean, data):
        n, d, m = shape
        features = data.draw(
            hnp.arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False))
        )
        labels = data.draw(hnp.arrays(np.int8, (n, m), elements=st.integers(0, 1)))
        labels[labels.sum(axis=1) == 0, 0] = 1
        has = data.draw(hnp.arrays(bool, n))
        proportions = data.draw(hnp.arrays(np.float64, (n, m)))
        if clean:
            proportions = np.where(has[:, None] & (labels != 0), np.nan_to_num(proportions), 0.0)
        try:
            dataset = Dataset(features, labels, proportions, has)
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.txt")
            try:
                save_dataset(path, dataset)
            except ValueError:
                reject()
            loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.labels, labels)
        np.testing.assert_array_equal(loaded.proportions, proportions)
        np.testing.assert_array_equal(loaded.has_proportions, has)
        rounded = [[float("%.9g" % v) for v in row] for row in features.tolist()]
        np.testing.assert_array_equal(loaded.features, np.reshape(rounded, (n, d)))


def test_loading_holds_the_columns_and_one_block_of_lines(tmp_path):
    # a block holds its lines as str objects and their parse; a dense
    # (block, M) float64 proportions matrix with its masks (1.3 MB here)
    # pushes the peak past this bound
    n, d, m = 10_000, 32, 80
    path = tmp_path / "data.txt"
    save_dataset(path, generate_synthetic(SyntheticSpec(n, d, m, seed=3)))
    load_dataset(path)  # the first load imports what numpy's parser needs
    tracemalloc.start()
    try:
        data = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(column.nbytes for column in vars(data).values())
    block_text = path.stat().st_size * icshash.data._ROW_BLOCK / n
    assert peak < columns + 4 * block_text


class TestSpearman:
    def test_identical_orders(self):
        assert spearman_corr([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0

    def test_reversed_orders(self):
        assert spearman_corr([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_hand_ranked_example(self):
        assert spearman_corr([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_average_ranks_on_ties(self):
        # ranks of a: (1.5, 1.5, 3); ranks of b: (1, 2, 3)
        value = spearman_corr([5.0, 5.0, 9.0], [1.0, 2.0, 3.0])
        assert value == pytest.approx(0.866, abs=1e-3)

    def test_average_ranks_equal_scipy(self):
        rng = np.random.default_rng(12)
        cases = [np.full(5, 2.0), np.array([1.0, np.nan, 0.0])]
        for _ in range(500):
            x = rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(1, 30)))
            # all-tied runs at both ends of the order
            low, high = [x.min() - 1.0] * 3, [x.max() + 1.0] * 4
            cases.append(rng.permutation(np.r_[x, low, high]))
        for x in cases:
            ranks = _average_ranks(x.astype(np.float64))
            np.testing.assert_array_equal(ranks, rankdata(x, method="average"))

    def test_constant_input_rejected(self):
        with pytest.raises(EvaluationError):
            spearman_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError):
            spearman_corr([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_too_short(self):
        with pytest.raises(EvaluationError):
            spearman_corr([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_corr([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert -1.0 - 1e-12 <= spearman_corr(a, b) <= 1.0 + 1e-12
