"""Command-line driver tests: file outputs, stdout, exit codes, and
byte-identical reruns."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from icshash import (
    MultiLabelSample,
    SyntheticSpec,
    generate_centers,
    generate_synthetic,
    load_checkpoint,
    save_centers,
    save_dataset,
)
from icshash.cli import main
from icshash.encoder import init_params


@pytest.fixture
def workdir(tmp_path):
    spec = SyntheticSpec(
        60, 8, 4, labels_per_sample=(1, 2), noise_sigma=0.1, seed=5
    )
    samples = generate_synthetic(spec)
    data = tmp_path / "data.txt"
    save_dataset(data, samples)
    centers = tmp_path / "centers.txt"
    save_centers(centers, generate_centers(16, 4, seed=5))
    return tmp_path, data, centers


def run(argv):
    return main([str(a) for a in argv])


def manifest_of(path):
    with open(f"{path}.manifest.json") as fh:
        return json.load(fh)


class TestCentersCommand:
    def test_writes_file_and_reports_min_distance(self, tmp_path, capsys):
        out = tmp_path / "centers.txt"
        code = run(["centers", "--bits", 16, "--labels", 10, "--seed", 7, "--out", out])
        assert code == 0
        assert capsys.readouterr().out.strip() == "min-pairwise-hamming 8"
        lines = out.read_text().splitlines()
        assert lines[0] == "16 10 hadamard-rows 7"
        assert len(lines) == 11
        manifest = manifest_of(out)
        assert manifest["command"] == "centers"
        assert manifest["seed"] == 7
        assert str(out) in manifest["outputs"]

    def test_zero_labels_is_usage_error(self, tmp_path):
        out = tmp_path / "c.txt"
        code = run(["centers", "--bits", 16, "--labels", 0, "--seed", 1, "--out", out])
        assert code == 2

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["centers", "--bits", 32, "--labels", 20, "--seed", 3, "--out", a])
        run(["centers", "--bits", 32, "--labels", 20, "--seed", 3, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ICS_SEED", "7")
        out = tmp_path / "env.txt"
        run(["centers", "--bits", 16, "--labels", 10, "--out", out])
        assert out.read_text().splitlines()[0] == "16 10 hadamard-rows 7"


class TestSolveWeightsCommand:
    def test_writes_weights_csv(self, tmp_path):
        distances = tmp_path / "d.txt"
        distances.write_text("5 5 5\n1 10 10\n3\n")
        out = tmp_path / "w.csv"
        code = run(
            ["solve-weights", "--distances", distances, "--out", out,
             "--gradient-mode", "exact", "--lambda", "0.0001"]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        w0 = [float(v) for v in rows[0]["weights"].split(";")]
        np.testing.assert_allclose(w0, [1 / 3] * 3, atol=1e-6)
        w1 = [float(v) for v in rows[1]["weights"].split(";")]
        assert w1[0] > 0.99
        assert rows[2]["weights"] == "1"

    def test_bad_distance_is_data_error(self, tmp_path):
        distances = tmp_path / "d.txt"
        distances.write_text("1 2 x\n")
        out = tmp_path / "w.csv"
        assert run(["solve-weights", "--distances", distances, "--out", out]) == 3


class TestTrainCommand:
    def test_toy_training_run(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "run"
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 3, "--batch", 16, "--lr", "0.001", "--hidden", "16",
             "--seed", 1]
        )
        assert code == 0
        params, meta = load_checkpoint(f"{prefix}.ckpt")
        assert params.sizes == [8, 16, 16]
        assert meta == {"k_bits": 16, "m_labels": 4, "seed": 1}
        with open(f"{prefix}.loss.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[-1]["total"]) < float(rows[0]["total"])
        manifest = manifest_of(prefix)
        assert sorted(manifest["outputs"]) == sorted(
            [f"{prefix}.ckpt", f"{prefix}.weights.csv", f"{prefix}.loss.csv"]
        )

    def test_non_finite_feature_is_data_error(self, workdir, capsys):
        tmp_path, data, centers = workdir
        lines = data.read_text().splitlines()
        features = lines[4].split()
        features[3] = "nan"
        lines[4] = " ".join(features)
        data.write_text("\n".join(lines) + "\n")
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix",
             tmp_path / "nan", "--epochs", 1, "--hidden", "8", "--seed", 1]
        )
        assert code == 3
        assert "line 5" in capsys.readouterr().err
        assert not (tmp_path / "nan.ckpt").exists()

    def test_zero_epochs_checkpoint_equals_seeded_init(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "init"
        run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 0, "--hidden", "8", "--seed", 4]
        )
        params, _ = load_checkpoint(f"{prefix}.ckpt")
        reference = init_params([8, 8, 16], np.random.default_rng(4))
        for a, b in zip(params.weights, reference.weights):
            np.testing.assert_array_equal(a, b)

    def test_equal_mode_weights_are_exact_uniform(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "equal"
        run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--weight-mode", "equal", "--hidden", "8", "--seed", 2]
        )
        per_sample = {}
        with open(f"{prefix}.weights.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                per_sample.setdefault(int(row["sample"]), []).append(
                    float(row["weight"])
                )
        for values in per_sample.values():
            assert values == [1.0 / len(values)] * len(values)

    def test_deterministic_rerun_byte_identical(self, workdir):
        tmp_path, data, centers = workdir
        a, b = tmp_path / "runa", tmp_path / "runb"
        argv = ["train", "--data", data, "--centers", centers, "--epochs", 2,
                "--batch", 16, "--hidden", "8", "--seed", 6, "--threads", 1]
        run(argv + ["--out-prefix", a])
        run(argv + ["--out-prefix", b])
        for suffix in (".ckpt", ".weights.csv", ".loss.csv"):
            assert (tmp_path / f"runa{suffix}").read_bytes() == (
                tmp_path / f"runb{suffix}"
            ).read_bytes()
        ma, mb = manifest_of(a), manifest_of(b)
        ma.pop("wall_clock_seconds")
        mb.pop("wall_clock_seconds")
        for m in (ma, mb):
            m["outputs"] = [p.replace("runa", "RUN").replace("runb", "RUN") for p in m["outputs"]]
            m["config"]["data"] = "DATA"
            m["config"]["centers"] = "CENTERS"
        assert ma == mb

    def test_centers_dataset_mismatch_is_config_error(self, workdir, tmp_path):
        _, data, _ = workdir
        other = tmp_path / "centers8.txt"
        save_centers(other, generate_centers(16, 8, seed=0))
        code = run(
            ["train", "--data", data, "--centers", other,
             "--out-prefix", tmp_path / "x", "--epochs", 1]
        )
        assert code == 2

    def test_missing_data_file(self, workdir, tmp_path):
        _, _, centers = workdir
        code = run(
            ["train", "--data", tmp_path / "absent.txt", "--centers", centers,
             "--out-prefix", tmp_path / "x", "--epochs", 1]
        )
        assert code == 2


class TestEvalCommand:
    def test_self_retrieval_map_at_one(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 5, "--batch", 16, "--lr", "0.005", "--hidden", "16",
             "--seed", 3]
        )
        out = tmp_path / "metrics.json"
        code = run(
            ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
             "--database", data, "--k", 1, "--out", out,
             "--dump-codes", tmp_path / "codes"]
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["map_at_k"] == 1.0
        assert metrics["k"] == 1
        assert metrics["n_queries"] == 60
        assert metrics["n_database"] == 60
        codes_file = (tmp_path / "codes.database.txt").read_text().splitlines()
        assert codes_file[0] == "60 16"

    def test_deterministic_metrics(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "8", "--seed", 3]
        )
        a, b = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (a, b):
            run(
                ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
                 "--database", data, "--k", 5, "--out", out]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_missing_checkpoint(self, workdir, tmp_path):
        _, data, _ = workdir
        code = run(
            ["eval", "--checkpoint", tmp_path / "none.ckpt", "--queries", data,
             "--database", data, "--out", tmp_path / "m.json"]
        )
        assert code == 2

    def test_trained_model_beats_random_parameters(self, workdir):
        # paired runs: same data and seed, trained vs untrained encoder
        tmp_path, data, centers = workdir
        scores = {}
        for name, epochs in (("trained", 20), ("random", 0)):
            prefix = tmp_path / name
            run(
                ["train", "--data", data, "--centers", centers,
                 "--out-prefix", prefix, "--epochs", epochs, "--batch", 16,
                 "--lr", "0.005", "--hidden", "16", "--seed", 11,
                 "--lambda", "4.0", "--beta", "1.0",
                 "--gradient-mode", "exact"]
            )
            out = tmp_path / f"{name}.json"
            run(
                ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
                 "--database", data, "--k", 30, "--out", out]
            )
            scores[name] = json.loads(out.read_text())["map_at_k"]
        assert scores["trained"] > scores["random"]

    def test_csv_data_format(self, workdir):
        tmp_path, data, centers = workdir
        from icshash import load_dataset

        samples = load_dataset(data)
        csv_path = tmp_path / "data.csv"
        with open(csv_path, "w") as fh:
            for s in samples:
                row = [f"{v:.9g}" for v in s.features] + [
                    str(int(v)) for v in s.labels
                ]
                fh.write(",".join(row) + "\n")
        prefix = tmp_path / "csvrun"
        code = run(
            ["train", "--data", csv_path, "--centers", centers,
             "--out-prefix", prefix, "--epochs", 1, "--hidden", "8",
             "--seed", 2, "--data-format", "csv"]
        )
        assert code == 0
        out = tmp_path / "csv_metrics.json"
        code = run(
            ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", csv_path,
             "--database", csv_path, "--k", 5, "--out", out,
             "--data-format", "csv"]
        )
        assert code == 0
        assert json.loads(out.read_text())["n_queries"] == len(samples)


class TestWeightReportCommand:
    def make_weights_csv(self, path, samples, values_fn):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "label", "weight"])
            for i, s in enumerate(samples):
                labels = np.flatnonzero(s.labels)
                for j, label in enumerate(labels):
                    writer.writerow([i, int(label), "%.17g" % values_fn(s, j)])

    def test_perfect_agreement_gives_unit_correlation(self, workdir):
        tmp_path, data, _ = workdir
        from icshash import load_dataset

        samples = load_dataset(data)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(
            weights_csv, samples, lambda s, j: float(s.proportions[j])
        )
        prefix = tmp_path / "report"
        code = run(
            ["weight-report", "--weights", weights_csv, "--data", data,
             "--out-prefix", prefix]
        )
        assert code == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        assert summary["mean_spearman"] == pytest.approx(1.0)
        assert summary["n_scored"] + summary["n_excluded"] + summary[
            "n_single_label"
        ] == summary["n_samples"]

    def test_equal_weights_are_excluded_as_constant(self, workdir):
        tmp_path, data, _ = workdir
        from icshash import load_dataset

        samples = load_dataset(data)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(
            weights_csv, samples, lambda s, j: 1.0 / s.n_labels()
        )
        prefix = tmp_path / "report"
        run(["weight-report", "--weights", weights_csv, "--data", data,
             "--out-prefix", prefix])
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        n_multi = sum(1 for s in samples if s.n_labels() >= 2)
        assert summary["n_excluded"] == n_multi
        assert summary["n_scored"] == 0
        assert summary["mean_spearman"] is None

    def test_uniform_two_label_weights_have_zero_variance(self, tmp_path):
        samples = [
            MultiLabelSample(
                np.zeros(4), np.array([1, 1, 0]), np.array([0.6, 0.4])
            )
            for _ in range(5)
        ]
        data = tmp_path / "d.txt"
        save_dataset(data, samples)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 0.5)
        prefix = tmp_path / "r"
        run(["weight-report", "--weights", weights_csv, "--data", data,
             "--out-prefix", prefix])
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["weight_variance"] == pytest.approx(0.0, abs=1e-12)

    def test_dataset_without_proportions_is_data_error(self, tmp_path):
        samples = [MultiLabelSample(np.zeros(3), np.array([1, 0]))]
        data = tmp_path / "d.txt"
        save_dataset(data, samples)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 1.0)
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "icshash.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "0.1.0"
