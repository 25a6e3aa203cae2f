"""Benchmark of the icshash command line: train and eval, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates its inputs from
the seed with the checkout's own ``src/icshash``, then runs the real
commands (``python3 -m icshash.cli train|eval``) in fresh processes for
S seconds. Times are scaled to a nominal machine speed measured by a
calibration program run between commands (see CALIBRATION below). With
``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates plain and traced
commands (perfbench/traced.py) and reports the per-layer metrics. Every
run checks the outputs against brute-force references and checks that
repeated commands write byte-identical files. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from traced import SPAN_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported; the repetitions must
# write byte-identical inputs.
SETUP_REPEATS = 3
# Fewest measured commands per run (plain and traced pairs in trace
# mode), however short --seconds is.
MIN_COMMANDS = 3
MIN_TRACED_PAIRS = 2

# A fixed workload in a fresh interpreter, run before and after every
# measured command and set-up: interpreter start and numpy import,
# interpreted loops around small numpy calls, and passes over a 64 MB
# array and sorts of 20000 keys, like the commands themselves. On a
# shared host the machine's speed can drift by 2x within a minute, which
# no median within one run removes, so every time is reported at a
# nominal speed: scaled by CALIBRATION_NOMINAL_S over the mean of the
# two calibrations around it.
CALIBRATION = """
import numpy as np
a = np.linspace(0.0, 1.0, 16)
for i in range(40000):
    a = np.tanh(a * 1.0001 + 0.001)
x = 0
for i in range(400000):
    x += i * i % 7
big = np.arange(8_000_000, dtype=np.int64)
for _ in range(6):
    x += int((big ^ 12345).sum())
keys = np.random.default_rng(0).integers(0, 65, size=20000)
for _ in range(40):
    np.argsort(keys, kind="stable")
"""
CALIBRATION_NOMINAL_S = 0.7

# Hyper-parameters of acceptance criterion 8, shared by both train
# workloads; the eval checkpoint is trained with the same values.
TRAIN_FLAGS = [
    "--batch", "64", "--lr", "1e-3", "--hidden", "64", "--beta", "1.0",
    "--lambda", "4.0", "--gamma", "0.05", "--gradient-mode", "exact",
]  # fmt: skip


class TrainWorkload:
    """``icshash train`` on N=2000, D=32, M=16, K=32, 1-3 labels per
    sample, 3 epochs; 500 held-out samples from the same draw serve as
    queries for the untimed mAP@100. Solve cost grows as codes
    saturate, so the epoch count is part of the workload."""

    n, held_out, d, m, k_bits, epochs, top_k = 2000, 500, 32, 16, 32, 3, 100

    def __init__(self, weight_mode):
        self.weight_mode = weight_mode
        self.work_units = self.n * self.epochs

    def setup(self, icshash, seed):
        samples = icshash.generate_synthetic(
            icshash.SyntheticSpec(self.n + self.held_out, self.d, self.m, seed=seed)
        )
        icshash.save_dataset("train.txt", samples[: self.n])
        icshash.save_dataset("heldout.txt", samples[self.n :])
        centers = icshash.generate_centers(self.k_bits, self.m, seed)
        icshash.save_centers("centers.txt", centers)
        return ["train.txt", "heldout.txt", "centers.txt"]

    def command(self, seed):
        return [
            "train", "--data", "train.txt", "--centers", "centers.txt",
            "--out-prefix", "out/model", "--epochs", str(self.epochs),
            *TRAIN_FLAGS, "--weight-mode", self.weight_mode, "--seed", str(seed),
        ]  # fmt: skip

    outputs = ["out/model.ckpt", "out/model.weights.csv", "out/model.loss.csv"]
    manifest = "out/model.manifest.json"

    def check(self, icshash, runner):
        """Problems found, mAP@100 of held-out queries against the
        training set, and the mean weight/proportion rank correlation
        (None unless weights are learned)."""
        train_x, train_y = checks.read_dataset("train.txt")
        held_x, held_y = checks.read_dataset("heldout.txt")
        problems = checks.check_checkpoint(icshash, "out/model.ckpt", train_x)
        problems += checks.check_weights_csv("out/model.weights.csv", train_y)
        problems += checks.check_loss_csv("out/model.loss.csv", self.epochs)
        params, _ = icshash.load_checkpoint("out/model.ckpt")
        map_at_k, _ = checks.reference_retrieval(
            checks.reference_codes(params, held_x),
            held_y,
            checks.reference_codes(params, train_x),
            train_y,
            self.top_k,
        )
        spearman = None
        if self.weight_mode == "learned":
            report = [
                "weight-report", "--weights", "out/model.weights.csv",
                "--data", "train.txt", "--out-prefix", "out/report",
            ]  # fmt: skip
            if runner.command(report).returncode == 0:
                with open("out/report.summary.json") as fh:
                    spearman = json.load(fh)["mean_spearman"]
                if spearman is None:
                    runner.fail("weight-report scored no sample")
        return problems, map_at_k, spearman


class EvalWorkload:
    """``icshash eval --k 100 --dump-codes`` for Q=1000 queries against
    an N=20000 database at D=32, M=80, K=64, both split by index from
    one draw. The checkpoint is trained during set-up on the first 2000
    database samples, 5 epochs in equal mode."""

    queries, database, d, m, k_bits, top_k = 1000, 20000, 32, 80, 64, 100
    ckpt_samples, ckpt_epochs = 2000, 5

    def __init__(self):
        self.work_units = self.queries

    def setup(self, icshash, seed):
        samples = icshash.generate_synthetic(
            icshash.SyntheticSpec(self.queries + self.database, self.d, self.m, seed=seed)
        )
        database = samples[self.queries :]
        icshash.save_dataset("queries.txt", samples[: self.queries])
        icshash.save_dataset("database.txt", database)
        centers = icshash.generate_centers(self.k_bits, self.m, seed)
        cfg = icshash.TrainConfig(
            epochs=self.ckpt_epochs,
            batch_size=64,
            lr0=1e-3,
            hidden=(64,),
            loss=icshash.LossConfig(beta=1.0, gamma=0.05, lam=4.0),
            weight_mode="equal",
            seed=seed,
        )
        state = icshash.train(database[: self.ckpt_samples], centers, cfg)
        icshash.save_checkpoint("model.ckpt", state.params, self.k_bits, self.m, seed)
        return ["queries.txt", "database.txt", "model.ckpt"]

    def command(self, seed):
        return [
            "eval", "--checkpoint", "model.ckpt", "--queries", "queries.txt",
            "--database", "database.txt", "--k", str(self.top_k),
            "--out", "out/metrics.json", "--dump-codes", "out/codes",
        ]  # fmt: skip

    outputs = ["out/metrics.json", "out/codes.database.txt", "out/codes.queries.txt"]
    manifest = "out/metrics.json.manifest.json"

    def check(self, icshash, runner):
        with open("out/metrics.json") as fh:
            metrics = json.load(fh)
        problems = checks.check_eval(
            icshash,
            metrics,
            "out/codes",
            "model.ckpt",
            checks.read_dataset("queries.txt"),
            checks.read_dataset("database.txt"),
            self.top_k,
        )
        return problems, metrics["map_at_k"], None


WORKLOADS = {
    "train-learned": lambda: TrainWorkload("learned"),
    "train-equal": lambda: TrainWorkload("equal"),
    "eval": EvalWorkload,
}


class Command:
    def __init__(self, returncode, wall_s, peak_rss_mb):
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.speed = None  # nominal seconds per measured second
        self.digest = None
        self.trace = None


class Runner:
    """Runs CLI commands in fresh processes from the work directory and
    tallies attempted and failed operations."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.calibration_s = [self._calibrate()]

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def _calibrate(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CALIBRATION], env=self.env, check=True)
        return time.perf_counter() - start

    def speed(self):
        """Nominal seconds per measured second over the work done since
        the previous call, from the calibrations on either side of it."""
        self.calibration_s.append(self._calibrate())
        return 2 * CALIBRATION_NOMINAL_S / sum(self.calibration_s[-2:])

    def command(self, args, spans=None):
        """One command; ``ru_maxrss`` of the waited-for child is the peak
        resident memory of that process alone."""
        if spans is None:
            argv = [sys.executable, "-m", "icshash.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), spans, *args]
        self.attempted += 1
        with open("command.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open("command.log", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.fail(f"{args[0]} exited {proc.returncode}: {tail}")
        return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def layer_totals(trace):
    """Calls and self time per span name; self time is a span's duration
    minus the time covered by its child spans."""
    spans = trace["spans"]
    inner = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for (name, start, end, _), covered in zip(spans, inner):
        calls[name] += 1
        self_s[name] += (end - start - covered) / 1e9
    return calls, self_s


def exact_counts(trace):
    calls, _ = layer_totals(trace)
    counts = {f"{name}.calls": n for name, n in calls.items()}
    counts["weights.iterations"] = trace["counters"]["weights.iterations"]
    counts["weights.max_iters_hits"] = trace["counters"]["weights.max_iters_hits"]
    return counts


def per_layer_values(runner, plain, traced, bytes_written):
    """Counts from the first traced command, which every other traced
    command must repeat exactly; times are medians at nominal speed."""
    pairs = [(p, t) for p, t in zip(plain, traced) if p.returncode == t.returncode == 0]
    traced = [c for c in traced if c.returncode == 0]
    values = exact_counts(traced[0].trace)
    for cmd in traced[1:]:
        if exact_counts(cmd.trace) != values:
            runner.fail("per-layer counts differ between traced runs of the same seed")
    self_times = [(layer_totals(c.trace)[1], c.speed) for c in traced]
    for name in SPAN_NAMES:
        values[f"{name}.self_s"] = statistics.median(t[name] * speed for t, speed in self_times)
    for key, value in traced[0].trace["counters"].items():
        if key.endswith(".bytes"):
            values[key] = value
    iterations = values["weights.iterations"]
    projections = values["weights.project_to_simplex.calls"]
    values["weights.projections_per_iteration"] = projections / iterations if iterations else 0.0
    values["cli.bytes_written"] = bytes_written
    values["cli.import_s"] = statistics.median(c.trace["import_s"] * c.speed for c in traced)
    # A plain and a traced command run back to back share one speed.
    values["trace.overhead_s"] = statistics.median((t.wall_s - p.wall_s) * t.speed for p, t in pairs)
    return values


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def measure(workload, icshash, seed, seconds, trace):
    runner = Runner()
    setup_s, raw_setup_s, input_digest = [], [], None
    for _ in range(SETUP_REPEATS):
        runner.attempted += 1
        start = time.perf_counter()
        inputs = workload.setup(icshash, seed)
        raw_setup_s.append(time.perf_counter() - start)
        setup_s.append(raw_setup_s[-1] * runner.speed())
        found = digest(inputs)
        if input_digest not in (None, found):
            runner.fail("set-up wrote different inputs for the same seed")
        input_digest = input_digest or found

    args = workload.command(seed)

    def run(spans=None):
        cmd = runner.command(args, spans)
        if cmd.returncode == 0:
            cmd.digest = digest(workload.outputs)
            if spans:
                with open(spans) as fh:
                    cmd.trace = json.load(fh)
        return cmd

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < (
        MIN_TRACED_PAIRS if trace else MIN_COMMANDS
    ):
        batch = [run()] + ([run("spans.json")] if trace else [])
        speed = runner.speed()
        for cmd in batch:
            cmd.speed = speed
        plain.append(batch[0])
        traced += batch[1:]

    problems, map_at_k, spearman = workload.check(icshash, runner)
    # The checks read the last command's outputs; every other command
    # must have written the same bytes.
    completed = [c for c in plain + traced if c.returncode == 0]
    differing = sum(c.digest != completed[-1].digest for c in completed)
    if problems:
        runner.failed += len(completed)
        runner.problems += problems
    elif differing:
        runner.fail(f"{differing} commands wrote outputs that differ from the last one")
        runner.failed += differing - 1
    ok = [c for c in plain if c.returncode == 0]
    if not ok or (trace and not any(p.returncode == t.returncode == 0 for p, t in zip(plain, traced))):
        raise RuntimeError("every measured command failed:\n" + "\n".join(runner.problems))

    walls = [c.wall_s for c in ok]
    values = {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": workload.work_units / statistics.median(c.wall_s * c.speed for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        "map_at_100": map_at_k,
    }
    report = [
        f"plain commands: {len(ok)} of {len(plain)} completed; measured wall s: median "
        f"{statistics.median(walls):.4f}, min {min(walls):.4f}, max {max(walls):.4f}",
        f"measured samples/s at the median wall: {workload.work_units / statistics.median(walls):.2f}",
        "measured wall s x speed: "
        + ", ".join(f"{c.wall_s:.4f} x {c.speed:.4f}" for c in plain + traced),
        f"measured set-up s: {', '.join(f'{t:.4f}' for t in raw_setup_s)}",
        f"calibration s: {', '.join(f'{t:.4f}' for t in runner.calibration_s)}",
        f"weight_spearman: {'n/a' if spearman is None else f'{spearman:.6f}'}",
    ]
    if trace:
        written = [*workload.outputs, workload.manifest]
        values.update(
            per_layer_values(runner, plain, traced, sum(map(os.path.getsize, written)))
        )
        # Zero where no weights are learned (equal mode, eval).
        values["weights.mean_spearman"] = spearman or 0.0
    return runner, values, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "icshash" / "__init__.py").is_file():
        print(f"error: no icshash sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    import icshash

    if Path(icshash.__file__).resolve().parent != SRC / "icshash":
        print(f"error: imported icshash from {icshash.__file__}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runner, values, report = measure(
            WORKLOADS[args.workload](), icshash, args.seed, args.seconds, args.trace
        )
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in report + [f"problem: {p}" for p in runner.problems]:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {runner.failed}/{runner.attempted}")
    print(json.dumps({"environment": environment()}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
