"""Every CLI output pinned by its SHA-256.

One child interpreter, run with ``-W error`` so that a warning fails
it, works in a temporary directory with relative paths. It writes small
fixed inputs and runs every command through ``icshash.cli.main``:
``centers`` in all three strategies, ``solve-weights`` in both gradient
modes, ``train`` in both weight modes and both gradient modes, ``eval
--dump-codes`` and ``weight-report``, and it writes the ``--help`` of
the program and of each command, at 80 columns, to ``help*.txt``. The
digest of every file it leaves, inputs included, and of every manifest
without its ``wall_clock_seconds`` line, must equal the one in
``tests/cli_digests.json``. The digests depend on the numpy build and,
for the help texts, on the Python version's argparse, which the file
records. A change that moves an output on purpose regenerates the file
with

    PYTHONPATH=src python tests/test_cli_digests.py

and the diff of the file shows which outputs moved.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "cli_digests.json"
REGENERATE = "PYTHONPATH=src python tests/test_cli_digests.py"

SCRIPT = r"""
import contextlib, hashlib, json, os, re, sys
os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
import numpy as np
from icshash import Dataset, SyntheticSpec, generate_synthetic, save_dataset
from icshash.cli import main

data = generate_synthetic(SyntheticSpec(48, 6, 4, labels_per_sample=(1, 3), seed=11))
given = np.arange(48) % 5 != 0  # every fifth sample without proportions
proportions = np.where(given[:, None], data.proportions, 0.0)
tied = np.flatnonzero(given & (data.labels.sum(axis=1) == 3))[::2]  # ranks with a tie
proportions[tied] = 0.25 * data.labels[tied]
proportions[tied, data.labels[tied].argmax(axis=1)] = 0.5
save_dataset("data.txt", Dataset(data.features, data.labels, proportions, given))
save_dataset("queries.txt", generate_synthetic(SyntheticSpec(12, 6, 4, seed=12)))
rng = np.random.default_rng(13)
with open("distances.txt", "w") as fh:
    for width in [*range(1, 21), *rng.integers(1, 21, size=60).tolist()]:
        d = rng.uniform(0.0, 20.0, size=width)
        if width % 7 == 3:
            d[:] = 2.5  # a line of ties
        fh.write(" ".join("%.17g" % v for v in d) + "\n")

train = ["--data", "data.txt", "--centers", "centers.txt", "--epochs", "2", "--batch", "16",
         "--hidden", "8", "--lr", "1e-3", "--beta", "1", "--lambda", "0.5", "--seed", "4"]
commands = [
    ["centers", "--bits", "16", "--labels", "4", "--seed", "3", "--out", "centers.txt"],
    ["centers", "--bits", "8", "--labels", "12", "--seed", "3", "--out", "stacked.txt"],
    ["centers", "--bits", "12", "--labels", "5", "--seed", "3", "--out", "bernoulli.txt"],
    ["solve-weights", "--distances", "distances.txt", "--out", "paper.csv",
     "--gradient-mode", "paper", "--lambda", "0.1", "--eta", "0.5"],
    ["solve-weights", "--distances", "distances.txt", "--out", "exact.csv",
     "--gradient-mode", "exact", "--lambda", "0.1", "--beta", "1"],
    *(["train", *train, "--weight-mode", weights, "--gradient-mode", gradient,
       "--out-prefix", f"{weights}-{gradient}"]
      for weights in ("learned", "equal") for gradient in ("paper", "exact")),
    ["eval", "--checkpoint", "learned-exact.ckpt", "--queries", "queries.txt",
     "--database", "data.txt", "--k", "10", "--out", "metrics.json", "--dump-codes", "codes"],
    ["weight-report", "--weights", "learned-exact.weights.csv", "--data", "data.txt",
     "--out-prefix", "report"],
]
with open("stdout.txt", "w") as out, contextlib.redirect_stdout(out):
    for argv in commands:
        assert main(argv) == 0, argv
for command in ("", "centers", "solve-weights", "train", "eval", "weight-report"):
    with open(f"help{'-' if command else ''}{command}.txt", "w") as out:
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            main([command, "--help"] if command else ["--help"])

digests = {}
for name in sorted(os.listdir(".")):
    with open(name, "rb") as fh:
        content = fh.read()
    if name.endswith(".manifest.json"):
        content = re.sub(rb'\n *"wall_clock_seconds": [^\n]*', b"", content)
    digests[name] = hashlib.sha256(content).hexdigest()
python = "%d.%d" % sys.version_info[:2]
print(json.dumps({"numpy": np.__version__, "python": python, "digests": digests}))
"""


def cli_digests() -> dict:
    """The numpy and Python versions and the digest of every file the
    commands leave."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as workdir:
        argv = [sys.executable, "-W", "error", "-c", SCRIPT]  # a warning fails the run
        result = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_cli_output_matches_its_pinned_digest():
    pinned = json.loads(PINNED.read_text())
    here = {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2]}
    for name, version in here.items():
        assert pinned[name] == version, (
            f"{PINNED.name} was made with {name} {pinned[name]}, this is {name} "
            f"{version}: check the outputs by hand, then regenerate with {REGENERATE}"
        )
    found = cli_digests()
    changed = sorted(
        name
        for name in pinned["digests"].keys() | found["digests"].keys()
        if pinned["digests"].get(name) != found["digests"].get(name)
    )
    assert not changed, (
        f"outputs differ from {PINNED.name}: {changed}; if the change is meant, "
        f"regenerate with {REGENERATE} and say why"
    )


if __name__ == "__main__":
    PINNED.write_text(json.dumps(cli_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
