"""Command-line driver tests: file outputs, stdout, exit codes, and
byte-identical reruns."""

import argparse
import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import icshash.retrieval
from icshash import (
    Dataset,
    MultiLabelSample,
    SyntheticSpec,
    TrainConfig,
    WeightSolverConfig,
    features_matrix,
    generate_centers,
    generate_synthetic,
    labels_matrix,
    load_checkpoint,
    load_codes,
    load_dataset,
    map_at_k,
    precision_at_k,
    save_centers,
    save_dataset,
    solve_weights,
    train,
)
from icshash.cli import _build_parser, main
from icshash.data import load_dataset_csv
from icshash.encoder import init_params, save_checkpoint


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

    def test_one_label_has_no_pairwise_distance(self, tmp_path, capsys):
        out = tmp_path / "one.txt"
        assert run(["centers", "--bits", 8, "--labels", 1, "--seed", 1, "--out", out]) == 0
        assert capsys.readouterr().out == "min-pairwise-hamming n/a\n"
        assert out.read_text().splitlines()[0] == "8 1 hadamard-rows 1"

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

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ICS_SEED", "abc")
        out = tmp_path / "env.txt"
        assert run(["centers", "--bits", 16, "--labels", 10, "--out", out]) == 2
        assert capsys.readouterr().err == "error: ICS_SEED must be an integer, got 'abc'\n"
        assert not out.exists()


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

    def test_file_of_blank_lines_is_data_error(self, tmp_path, capsys):
        distances = tmp_path / "d.txt"
        distances.write_text("\n  \n\n")
        assert run(["solve-weights", "--distances", distances, "--out", tmp_path / "w.csv"]) == 3
        assert capsys.readouterr().err == f"error: no distance vectors in {distances}\n"

    def test_error_after_blank_line_names_physical_line(self, tmp_path, capsys):
        distances = tmp_path / "d.txt"
        distances.write_text("1 2\n\n1 x\n")
        out = tmp_path / "w.csv"
        assert run(["solve-weights", "--distances", distances, "--out", out]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_distance_is_data_error(self, tmp_path, capsys, bad):
        distances = tmp_path / "d.txt"
        distances.write_text(f"1 2\n\n3 {bad}\n")
        out = tmp_path / "w.csv"
        assert run(["solve-weights", "--distances", distances, "--out", out]) == 3
        assert "line 3" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--tol", "nan", "tol"),
            ("--tol", "inf", "tol"),
            ("--lambda", "nan", "lam"),
            ("--lambda", "inf", "lam"),
            ("--eta", "nan", "eta"),
            ("--eta", "inf", "eta"),
            ("--beta", "nan", "beta"),
            ("--beta", "inf", "beta"),
        ],
    )
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flag, value, field):
        distances = tmp_path / "d.txt"
        distances.write_text("1 2 3\n")
        out = tmp_path / "w.csv"
        assert run(["solve-weights", "--distances", distances, "--out", out, flag, value]) == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    def test_one_batch_solve_writes_the_per_line_rows(self, tmp_path, mode):
        """The command solves each width's lines in one call; its CSV is
        byte for byte the one that a ``solve_weights`` call per line
        would give."""
        rng = np.random.default_rng(7)
        vectors = [rng.uniform(0.0, 20.0, size=rng.integers(1, 13)) for _ in range(80)]
        vectors[5][:] = 3.0  # a row of ties
        distances = tmp_path / "d.txt"
        distances.write_text("".join(" ".join(f"{v:.17g}" for v in d) + "\n" for d in vectors))
        out = tmp_path / "w.csv"
        argv = ["solve-weights", "--distances", distances, "--out", out,
                "--gradient-mode", mode, "--lambda", "0.05", "--eta", "0.5"]
        assert run(argv) == 0
        cfg = WeightSolverConfig(lam=0.05, eta=0.5, gradient_mode=mode)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "iterations", "weights"])
            for i, d in enumerate(vectors):  # %.17g reads back bit for bit
                result = solve_weights(d, cfg)
                writer.writerow([i, result.iterations, ";".join("%.17g" % v for v in result.w)])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_line_is_solved_as_it_would_be_alone(self, tmp_path, mode, seed):
        """A line's row does not depend on the widths of the other lines:
        lines of 1 to 20 distances, where a row zero-padded to the
        widest sums in another order than the line itself."""
        rng = np.random.default_rng(seed)
        vectors = [rng.uniform(0.0, 20.0, size=rng.integers(1, 21)) for _ in range(150)]
        distances = tmp_path / "d.txt"
        distances.write_text("".join(" ".join(f"{v:.17g}" for v in d) + "\n" for d in vectors))
        out = tmp_path / "w.csv"
        argv = ["solve-weights", "--distances", distances, "--out", out,
                "--gradient-mode", mode, "--lambda", "0.1", "--beta", "1", "--eta", "0.5"]
        assert run(argv) == 0
        cfg = WeightSolverConfig(lam=0.1, beta=1.0, eta=0.5, gradient_mode=mode)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(vectors)
        for row, d in zip(rows, vectors):
            result = solve_weights(d, cfg)
            assert int(row["iterations"]) == result.iterations, row["sample"]
            assert row["weights"] == ";".join("%.17g" % v for v in result.w), row["sample"]

    def test_every_solver_flag_reaches_the_solve(self, tmp_path):
        rng = np.random.default_rng(4)
        vectors = [rng.uniform(0.0, 8.0, size=width) for width in (2, 3, 5, 8)]
        distances = tmp_path / "d.txt"
        distances.write_text("".join(" ".join(f"{v:.17g}" for v in d) + "\n" for d in vectors))

        def solve(*flags):
            out = tmp_path / "w.csv"
            assert run(["solve-weights", "--distances", distances, "--out", out, *flags]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return [int(row["iterations"]) for row in rows], [row["weights"] for row in rows]

        paper_iterations, paper_weights = solve("--gradient-mode", "paper")
        assert min(paper_iterations) > 1
        assert solve("--gradient-mode", "paper", "--max-iters", "1")[0] == [1] * 4
        assert solve("--gradient-mode", "paper", "--tol", "1e300")[0] == [1] * 4
        for flag, value in (("--eta", "0.5"), ("--lambda", "0.5"), ("--gradient-mode", "exact")):
            assert solve("--gradient-mode", "paper", flag, value)[1] != paper_weights, flag
        exact_weights = solve("--gradient-mode", "exact")[1]
        assert solve("--gradient-mode", "exact", "--beta", "0.5")[1] != exact_weights


class TestTrainCommand:
    @pytest.mark.parametrize("header", ["1_0 8 4", "060 8 4", "+60 8 4", "60 \uff18 4"])
    def test_dataset_header_integer_not_as_written_is_data_error(self, workdir, capsys, header):
        tmp_path, data, centers = workdir
        lines = data.read_text().splitlines()
        assert lines[0] == "60 8 4"
        data.write_text("\n".join([header, *lines[1:]]) + "\n")
        code = run(["train", "--data", data, "--centers", centers, "--out-prefix",
                    tmp_path / "plain", "--epochs", 1, "--hidden", "8", "--seed", 1])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: line 1: header field ")
        assert not (tmp_path / "plain.ckpt").exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("1 1000000000000 1", "line 2: expected 1000000000000 values, found 1"),
            ("1 1 1000000000000", "line 3: expected a 0/1 string of 1000000000000 characters"),
        ],
    )
    def test_dataset_header_width_past_its_lines_is_data_error(self, workdir, piped, header, message):
        # named at its line with exit 3, not a numpy allocation traceback
        tmp_path, data, centers = workdir
        text = f"{header}\n0.5\n1\n-\n"
        data.write_text(text)
        argv = [sys.executable, "-W", "error", "-m", "icshash.cli", "train", "--data",
                "/dev/stdin" if piped else str(data), "--centers", str(centers),
                "--out-prefix", str(tmp_path / "wide")]  # fmt: skip
        result = subprocess.run(
            argv, input=text if piped else "", capture_output=True, text=True, env=src_env()
        )
        assert (result.returncode, result.stderr) == (3, f"error: {message}\n")
        assert not (tmp_path / "wide.ckpt").exists()

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

    def test_empty_dataset_header_is_data_error(self, workdir, capsys):
        tmp_path, data, centers = workdir
        data.write_text("0 8 4\n")
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix",
             tmp_path / "empty", "--epochs", 1, "--hidden", "8", "--seed", 1]
        )
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty CSV file"),
            ("\n1,0,1,0\n0,1,0,1\n", "line 2: row has 4 columns, need more than M=4"),
            ("0.5,0.2,1,0,0,0\n\n0.1,0.3,0,0,0,0\n", "sample 1 (line 3) has no positive label"),
        ],
    )
    def test_bad_csv_dataset_is_data_error(self, workdir, capsys, text, message):
        tmp_path, _, centers = workdir
        data = tmp_path / "data.csv"
        data.write_text(text)
        code = run(
            ["train", "--data", data, "--data-format", "csv", "--centers", centers,
             "--out-prefix", tmp_path / "csv", "--epochs", 1, "--hidden", "8", "--seed", 1]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_center_strategy_is_data_error(self, workdir, capsys):
        tmp_path, data, centers = workdir
        header, rest = centers.read_text().split("\n", 1)
        centers.write_text(header.replace("hadamard-rows", "hadamard") + "\n" + rest)
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix",
             tmp_path / "s", "--epochs", 1, "--hidden", "8", "--seed", 1]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: line 1: unknown strategy 'hadamard'\n"

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--lr", "-1", "lr0"),
            ("--lr", "0", "lr0"),
            ("--lr", "nan", "lr0"),
            ("--lr", "inf", "lr0"),
            ("--gamma", "nan", "gamma"),
            ("--gamma", "inf", "gamma"),
            ("--lambda", "nan", "lam"),
            ("--lambda", "inf", "lam"),
            ("--eta", "nan", "eta"),
            ("--beta", "nan", "beta"),
            ("--batch", "0", "batch_size"),
            ("--hidden", "8,0", "hidden[1]"),
        ],
    )
    def test_bad_setting_is_usage_error(self, workdir, capsys, flag, value, field):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "bad"
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "8", "--seed", 1, flag, value]
        )
        assert code == 2
        assert f"error: {field} must " in capsys.readouterr().err
        assert not (tmp_path / "bad.ckpt").exists()

    def test_bad_setting_is_reported_before_the_data_is_read(self, workdir, capsys):
        tmp_path, _, centers = workdir
        code = run(
            ["train", "--data", tmp_path / "missing.txt", "--centers", centers,
             "--out-prefix", tmp_path / "bad", "--epochs", 1, "--hidden", "0"]
        )
        assert code == 2
        assert "error: hidden[0] must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", ["8,,4", "8,", ",4"])
    def test_empty_hidden_item_is_usage_error(self, workdir, capsys, hidden):
        tmp_path, data, centers = workdir
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix",
             tmp_path / "gap", "--epochs", 1, "--hidden", hidden, "--seed", 1]
        )
        assert code == 2
        assert "error: --hidden must be comma-separated integers" in capsys.readouterr().err
        assert not (tmp_path / "gap.ckpt").exists()

    def test_empty_hidden_list_means_no_hidden_layer(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "flat"
        code = run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "", "--seed", 1]
        )
        assert code == 0
        params, _ = load_checkpoint(f"{prefix}.ckpt")
        assert params.sizes == [8, 16]
        assert manifest_of(prefix)["config"]["hidden"] == []

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

    def test_exact_learned_rerun_byte_identical_on_the_simplex(self, workdir):
        tmp_path, data, centers = workdir
        argv = ["train", "--data", data, "--centers", centers, "--epochs", 2,
                "--batch", 16, "--hidden", "8", "--seed", 6, "--beta", "1.0",
                "--lambda", "0.5", "--gradient-mode", "exact",
                "--weight-mode", "learned"]
        assert run(argv + ["--out-prefix", tmp_path / "runa"]) == 0
        assert run(argv + ["--out-prefix", tmp_path / "runb"]) == 0
        for suffix in (".ckpt", ".weights.csv", ".loss.csv"):
            assert (tmp_path / f"runa{suffix}").read_bytes() == (
                tmp_path / f"runb{suffix}"
            ).read_bytes()
        per_sample = {}
        with open(tmp_path / "runa.weights.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                per_sample.setdefault(int(row["sample"]), []).append(
                    float(row["weight"])
                )
        assert len(per_sample) == 60
        for values in per_sample.values():
            assert min(values) >= 0.0
            assert abs(sum(values) - 1.0) <= 1e-12

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

    def test_k_past_int64_is_the_whole_database(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        run(["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "8", "--seed", 3])
        found = {}
        for k in (60, 10**20):
            out = tmp_path / f"m{k}.json"
            assert run(["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
                        "--database", data, "--k", k, "--out", out]) == 0
            found[k] = json.loads(out.read_text())
        assert found[10**20]["map_at_k"] == found[60]["map_at_k"]
        assert found[10**20]["k"] == 10**20

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

    def test_metrics_equal_the_library_wrappers(self, workdir):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        run(
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 2, "--hidden", "8", "--seed", 3]
        )
        out = tmp_path / "metrics.json"
        run(
            ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
             "--database", data, "--k", 7, "--out", out,
             "--dump-codes", tmp_path / "codes"]
        )
        metrics = json.loads(out.read_text())
        labels = labels_matrix(load_dataset(data))
        args = (
            load_codes(tmp_path / "codes.queries.txt"), labels,
            load_codes(tmp_path / "codes.database.txt"), labels, 7,
        )
        assert metrics["map_at_k"] == map_at_k(*args)
        assert metrics["precision_at_k"] == precision_at_k(*args)

    def test_missing_checkpoint(self, workdir, tmp_path):
        _, data, _ = workdir
        code = run(
            ["eval", "--checkpoint", tmp_path / "none.ckpt", "--queries", data,
             "--database", data, "--out", tmp_path / "m.json"]
        )
        assert code == 2

    @pytest.mark.parametrize("role", ["queries", "database"])
    @pytest.mark.parametrize(
        "d, m, problem",
        [
            (5, 4, "D=5 features but the checkpoint expects D=8"),
            (8, 3, "M=3 labels but the checkpoint expects M=4"),
        ],
    )
    def test_data_off_the_checkpoint_shape_is_usage_error(
        self, workdir, capsys, role, d, m, problem
    ):
        # the checkpoint takes D=8 features and M=4 labels, as the workdir data has
        tmp_path, data, _ = workdir
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params([8, 16], np.random.default_rng(0)), 16, 4, 0)
        other = tmp_path / "other.txt"
        save_dataset(other, generate_synthetic(SyntheticSpec(6, d, m, seed=2)))
        files = {"queries": data, "database": data, role: other}
        code = run(["eval", "--checkpoint", ckpt, "--queries", files["queries"],
                    "--database", files["database"], "--out", tmp_path / "m.json"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {role} have {problem}\n"

    @pytest.mark.parametrize(
        "old, new",
        [("m_labels 4", "m_labels -3"), ("seed 3", "seed -7"), ("k_bits 16", "k_bits 016"),
         ("seed 3", "seed -0")],
    )
    def test_checkpoint_header_out_of_range_is_a_data_error(self, workdir, capsys, old, new):
        # m_labels -3 used to load and fail as a config error about M; seed
        # -7 loaded and reached the manifest; k_bits 016 and seed -0 loaded
        # as 16 and 0, spelled as save_checkpoint never writes them
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        run(["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "8", "--seed", 3])
        ckpt = Path(f"{prefix}.ckpt")
        ckpt.write_text(ckpt.read_text().replace(f"\n{old}\n", f"\n{new}\n"))
        capsys.readouterr()
        code = run(["eval", "--checkpoint", ckpt, "--queries", data, "--database", data,
                    "--out", tmp_path / "m.json"])
        assert code == 3
        line = {"k_bits": 3, "m_labels": 4, "seed": 5}[new.split()[0]]
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

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


class TestEvalMemory:
    def test_traced_peak_is_the_columns_plus_the_block_buffers(self, tmp_path):
        # eval streams each stage through fixed-size blocks, so its traced
        # peak is the loaded columns plus the ranking's block buffers; one
        # float64 forward pass over all N rows pushes it past this bound
        n, q, d, m, k_bits = 10_000, 200, 32, 80, 64
        data = generate_synthetic(SyntheticSpec(n + q, d, m, seed=3))
        save_dataset(tmp_path / "queries.txt", data[:q])
        save_dataset(tmp_path / "database.txt", data[q:])
        params = init_params([d, 64, k_bits], np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", params, k_bits, m, 0)
        argv = [
            "eval", "--checkpoint", tmp_path / "model.ckpt", "--queries", tmp_path / "queries.txt",
            "--database", tmp_path / "database.txt", "--k", 100, "--out", tmp_path / "m.json",
            "--dump-codes", tmp_path / "codes",
        ]  # fmt: skip
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = (n + q) * (8 * d + 9 * m + 1)  # features, labels, proportions, flags
        key_and_union = (4 + 1 / 8) * icshash.retrieval._BLOCK_ELEMENTS  # uint32 keys, one bit
        xor_scratch = 9 * icshash.retrieval._XOR_ELEMENTS
        # the bool label mask, its (M, N) uint8 copy padded for packing, and the posting lists
        db_labels = (2 + 1 / 8) * n * m
        assert peak < 1.25 * (columns + key_and_union + xor_scratch + db_labels)


class TestWeightReportCommand:
    def make_weights_csv(self, path, samples, values_fn):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "label", "weight"])
            for i, s in enumerate(samples):
                labels = np.flatnonzero(s.labels)
                for j, label in enumerate(labels):
                    writer.writerow([i, int(label), "%.17g" % values_fn(s, j)])

    def test_weights_file_without_rows_is_data_error(self, workdir, capsys):
        tmp_path, data, _ = workdir
        weights_csv = tmp_path / "w.csv"
        weights_csv.write_text("sample,label,weight\r\n")
        prefix = tmp_path / "report"
        argv = ["weight-report", "--weights", weights_csv, "--data", data, "--out-prefix", prefix]
        assert run(argv) == 3
        label = int(np.flatnonzero(load_dataset(data).labels[0])[0])
        message = f"error: weights file ends before sample 0, label {label}\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "report.csv").exists()

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
        samples = Dataset(
            np.zeros((5, 4)), np.tile([1, 1, 0], (5, 1)), np.tile([0.6, 0.4, 0.0], (5, 1)),
            np.ones(5, dtype=bool),
        )
        data = tmp_path / "d.txt"
        save_dataset(data, samples)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 0.5)
        prefix = tmp_path / "r"
        run(["weight-report", "--weights", weights_csv, "--data", data,
             "--out-prefix", prefix])
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["weight_variance"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("row", ["0,1,x", "0,1", "0.5,1,0.25"])
    def test_malformed_weights_row_names_its_line(self, workdir, capsys, row):
        tmp_path, data, _ = workdir
        from icshash import load_dataset

        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, load_dataset(data), lambda s, j: 0.5)
        lines = weights_csv.read_text().splitlines()
        lines[3] = row
        weights_csv.write_text("\n".join(lines) + "\n")
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        assert "line 4" in capsys.readouterr().err

    def test_wrong_header_is_data_error(self, workdir, capsys):
        tmp_path, data, _ = workdir
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, load_dataset(data), lambda s, j: 0.5)
        lines = weights_csv.read_text().splitlines()
        weights_csv.write_text("\n".join(["sample,label,w", *lines[1:]]) + "\n")
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {weights_csv}: expected columns sample,label,weight, "
            "found ['sample', 'label', 'w']\n"
        )

    def test_labels_that_are_not_the_sample_positives_are_a_data_error(self, workdir, capsys):
        tmp_path, data, _ = workdir
        samples = load_dataset(data)
        i = next(i for i, s in enumerate(samples) if s.n_labels() == 2)
        negative = int(np.flatnonzero(samples[i].labels == 0)[0])
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 0.5)
        with open(weights_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        at = next(r for r, row in enumerate(rows) if row[0] == str(i))
        rows[at][1] = str(negative)  # the sample's first label swapped for a negative one
        with open(weights_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        positive = int(np.flatnonzero(samples[i].labels)[0])
        assert capsys.readouterr().err == (
            f"error: line {at + 1}: expected sample {i}, label {positive}\n"
        )

    def test_sample_without_rows_is_a_data_error(self, workdir, capsys):
        tmp_path, data, _ = workdir
        samples = load_dataset(data)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 0.5)
        lines = weights_csv.read_text().splitlines()
        at = next(r for r, ln in enumerate(lines) if ln.startswith("7,"))
        kept = [ln for ln in lines if not ln.startswith("7,")]
        weights_csv.write_text("\n".join(kept) + "\n")
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        label = int(np.flatnonzero(samples[7].labels)[0])
        message = f"error: line {at + 1}: expected sample 7, label {label}\n"
        assert capsys.readouterr().err == message

    def two_sample_files(self, tmp_path):
        # rows (0, 0), (0, 1), (1, 1), (1, 2) on lines 2 to 5
        samples = Dataset(
            [[0.0, 0.0], [1.0, 1.0]], [[1, 1, 0], [0, 1, 1]], [[0.7, 0.3, 0], [0, 0.2, 0.8]],
            [True, True],
        )
        data = tmp_path / "d.txt"
        save_dataset(data, samples)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 0.5)
        return data, weights_csv, weights_csv.read_text().splitlines()

    @pytest.mark.parametrize(
        "row", ["2,0,0.5", "-1,0,0.5", "1,3,0.5", "1,-1,0.5", "1,2,nan", "0,0,0.5"]
    )
    def test_out_of_range_non_finite_or_repeated_row_names_its_line(self, tmp_path, capsys, row):
        data, weights_csv, lines = self.two_sample_files(tmp_path)
        lines.insert(3, row)  # after the rows of sample 0
        weights_csv.write_text("\n".join(lines) + "\n")
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        assert capsys.readouterr().err == "error: line 4: expected sample 1, label 1\n"
        assert not (tmp_path / "r.summary.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("swap", "line 2: expected sample 0, label 0"),
            ("nan", "line 4: weight must be finite"),
            ("extra", "line 6: row after the last positive label of the dataset"),
            ("short", "weights file ends before sample 1, label 2"),
        ],
    )
    def test_rows_out_of_train_order_or_count_are_refused(self, tmp_path, capsys, edit, message):
        # train writes one row per positive label, samples and labels ascending
        data, weights_csv, lines = self.two_sample_files(tmp_path)
        if edit == "swap":  # the two rows of sample 0
            lines[1], lines[2] = lines[2], lines[1]
        elif edit == "nan":  # the row in its place, its weight not finite
            lines[3] = "1,1,nan"
        elif edit == "extra":
            lines.append(lines[-1])
        else:
            lines.pop()
        weights_csv.write_text("\n".join(lines) + "\n")
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.summary.json").exists()

    def test_dataset_without_proportions_is_data_error(self, tmp_path):
        samples = Dataset(np.zeros((1, 3)), [[1, 0]], np.zeros((1, 2)), [False])
        data = tmp_path / "d.txt"
        save_dataset(data, samples)
        weights_csv = tmp_path / "w.csv"
        self.make_weights_csv(weights_csv, samples, lambda s, j: 1.0)
        code = run(["weight-report", "--weights", weights_csv, "--data", data,
                    "--out-prefix", tmp_path / "r"])
        assert code == 3


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Each command's manifest, without ``wall_clock_seconds``, from one
    centers -> solve-weights -> train -> eval -> weight-report run."""
    tmp = tmp_path_factory.mktemp("manifests")
    save_dataset(tmp / "data.txt", generate_synthetic(SyntheticSpec(40, 6, 4, seed=2)))
    (tmp / "d.txt").write_text("5 5 5\n1 4\n")
    commands = {
        "centers": ["--bits", 16, "--labels", 4, "--seed", 5, "--out", tmp / "centers.txt"],
        "solve-weights": ["--distances", tmp / "d.txt", "--out", tmp / "solved.csv",
                          "--lambda", 0.5, "--gradient-mode", "exact"],
        "train": ["--data", tmp / "data.txt", "--centers", tmp / "centers.txt",
                  "--out-prefix", tmp / "model", "--epochs", 2, "--batch", 16,
                  "--hidden", "8,4", "--seed", 3],
        "eval": ["--checkpoint", tmp / "model.ckpt", "--queries", tmp / "data.txt",
                 "--database", tmp / "data.txt", "--k", 10, "--out", tmp / "metrics.json",
                 "--dump-codes", tmp / "codes"],
        "weight-report": ["--weights", tmp / "model.weights.csv", "--data", tmp / "data.txt",
                          "--out-prefix", tmp / "report"],
    }
    found = {}
    for command, argv in commands.items():
        assert run([command, *argv]) == 0, command
        out = argv[argv.index("--out" if "--out" in argv else "--out-prefix") + 1]
        found[command] = manifest_of(out)
        del found[command]["wall_clock_seconds"]
    return tmp, found


class TestManifests:
    def test_each_command_writes_its_pinned_manifest(self, manifests):
        tmp, found = manifests
        p = {name: str(tmp / name) for name in (
            "centers.txt", "d.txt", "solved.csv", "data.txt", "model", "model.ckpt",
            "model.weights.csv", "model.loss.csv", "metrics.json", "codes",
            "codes.database.txt", "codes.queries.txt", "report.csv", "report.summary.json",
        )}
        common = {"version": "0.1.0"}
        assert found == {
            "centers": {
                **common,
                "command": "centers",
                "config": {"bits": 16, "labels": 4, "strategy": "hadamard-rows", "threads": 1},
                "outputs": [p["centers.txt"]],
                "seed": 5,
            },
            "solve-weights": {
                **common,
                "command": "solve-weights",
                "config": {
                    "distances": p["d.txt"], "lambda": 0.5, "eta": 0.1, "beta": 1.0,
                    "max_iters": 50, "tol": 1e-6, "gradient_mode": "exact", "threads": 1,
                },
                "outputs": [p["solved.csv"]],
                "seed": 0,
            },
            "train": {
                **common,
                "command": "train",
                "config": {
                    "data": p["data.txt"], "data_format": "text", "centers": p["centers.txt"],
                    "epochs": 2, "batch": 16, "lr": 1e-4, "hidden": [8, 4], "beta": 0.1,
                    "lambda": 0.01, "gamma": 0.05, "eta": 0.1, "weight_mode": "learned",
                    "gradient_mode": "paper", "threads": 1,
                },
                "outputs": sorted([p["model.ckpt"], p["model.weights.csv"], p["model.loss.csv"]]),
                "seed": 3,
            },
            "eval": {
                **common,
                "command": "eval",
                "config": {
                    "checkpoint": p["model.ckpt"], "queries": p["data.txt"],
                    "database": p["data.txt"], "data_format": "text", "k": 10,
                    "dump_codes": p["codes"], "threads": 1,
                },
                "outputs": sorted(
                    [p["metrics.json"], p["codes.database.txt"], p["codes.queries.txt"]]
                ),
                "seed": 3,
            },
            "weight-report": {
                **common,
                "command": "weight-report",
                "config": {"weights": p["model.weights.csv"], "data": p["data.txt"], "threads": 1},
                "outputs": sorted([p["report.csv"], p["report.summary.json"]]),
                "seed": 0,
            },
        }

    def test_config_records_every_flag(self, manifests):
        # a flag missing from the manifest would drop out of the run record
        _, found = manifests
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(found)
        for command, subparser in sub.choices.items():
            dests = {a.dest for a in subparser._actions} - {"help", "seed", "out", "out_prefix"}
            expected = {"lambda" if d == "lam" else d for d in dests}
            if command == "centers":
                expected.add("strategy")
            assert set(found[command]["config"]) == expected, command


class TestNoPerSampleObjects:
    """Loaders, the generator and the commands work on columns: they run
    with MultiLabelSample construction disabled."""

    @pytest.fixture
    def refuse_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a MultiLabelSample")

        monkeypatch.setattr(MultiLabelSample, "__init__", refuse)

    def test_loaders_and_generator(self, workdir, refuse_samples):
        tmp_path, data, _ = workdir
        assert len(load_dataset(data)) == 60
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("0.5,1.5,1,0\n-0.25,0.75,0,1\n")
        assert load_dataset_csv(csv_path, 2).labels.shape == (2, 2)
        assert len(generate_synthetic(SyntheticSpec(30, 4, 3, seed=1))) == 30

    def test_train_eval_and_weight_report(self, workdir, refuse_samples):
        tmp_path, data, centers = workdir
        prefix = tmp_path / "model"
        assert run(["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
                    "--epochs", 1, "--hidden", "8"]) == 0
        assert run(["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
                    "--database", data, "--k", 5, "--out", tmp_path / "m.json",
                    "--dump-codes", tmp_path / "codes"]) == 0
        assert run(["weight-report", "--weights", f"{prefix}.weights.csv", "--data", data,
                    "--out-prefix", tmp_path / "r"]) == 0

    def test_library_round_trip(self, tmp_path, refuse_samples):
        data = generate_synthetic(SyntheticSpec(30, 4, 3, seed=1))
        save_dataset(tmp_path / "data.txt", data)
        loaded = load_dataset(tmp_path / "data.txt")
        cfg = TrainConfig(epochs=1, batch_size=8, hidden=(8,))
        state = train(loaded, generate_centers(16, 3, seed=1), cfg)
        assert state.weight_matrix.shape == (30, 3)
        np.testing.assert_allclose(features_matrix(loaded), data.features, rtol=1e-8)
        np.testing.assert_array_equal(labels_matrix(loaded), data.labels)


def src_env():
    """The environment with src/ first on PYTHONPATH, so that a child
    interpreter imports the library under test, installed or not."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "icshash.cli", "--version"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "0.1.0"

    def test_import_loads_no_scipy(self):
        # importing scipy.stats alone cost about 1 s of every command
        script = (
            "import sys, icshash, icshash.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_loads_no_csv(self):
        # the commands write their CSV files with one %-format writer
        script = "import sys, icshash, icshash.cli\nprint('csv' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_import_loads_no_numpy_random(self):
        # numpy.random pulls in secrets and hashlib, 12-15 ms of every
        # command; only the commands that draw (centers, train) load it
        script = "import sys, icshash, icshash.cli\nprint('numpy.random' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_commands_load_no_numpy_ma(self, workdir):
        # np.unique imports numpy.ma on its first call, 11-27 ms of a command
        tmp_path, data, centers = workdir
        distances = tmp_path / "distances.txt"
        distances.write_text("1 2 3\n0.5\n2 2\n")
        prefix = tmp_path / "model"
        commands = [
            ["train", "--data", data, "--centers", centers, "--out-prefix", prefix,
             "--epochs", 1, "--hidden", "", "--gradient-mode", "exact"],
            ["eval", "--checkpoint", f"{prefix}.ckpt", "--queries", data,
             "--database", data, "--k", 5, "--out", tmp_path / "metrics.json"],
            ["weight-report", "--weights", f"{prefix}.weights.csv", "--data", data,
             "--out-prefix", tmp_path / "report"],
            ["solve-weights", "--distances", distances, "--out", tmp_path / "w.csv"],
        ]  # fmt: skip
        script = (
            "import sys\nfrom icshash.cli import main\n"
            f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_names_the_traced_benchmark_rebinds_resolve(self):
        # perfbench/traced.py times each layer by rebinding these names;
        # dropping one breaks every traced benchmark command
        path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
        spec = importlib.util.spec_from_file_location("perfbench_traced", path)
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        assert traced.PATCHES
        for module, attr, _ in traced.PATCHES:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
