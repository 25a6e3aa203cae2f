"""Dataset tests: generator invariants and determinism, text round
trip, parse failures with line numbers, and the rank correlation."""

import numpy as np
import pytest

from icshash import (
    DataError,
    EvaluationError,
    MultiLabelSample,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    spearman_corr,
)
from icshash.data import load_dataset_csv


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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, labels_per_sample=(0, 2))
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, labels_per_sample=(2, 4))
        with pytest.raises(ValueError):
            SyntheticSpec(10, 4, 3, dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(0, 4, 3)


class TestDatasetFile:
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
        samples = [
            MultiLabelSample(np.array([0.5, -1.0]), np.array([1, 0, 1])),
        ]
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
