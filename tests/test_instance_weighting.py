"""The regime where learned center weights pay: with feature noise 0.3
and 20 epochs, exact-mode weights beat equal weighting on held-out
mAP@100 on every seed. The experiment is demos/06_instance_weighting.py,
whose ``run`` this test calls; a change to the solve, the loss or the
training loop that turns the learned weights back into equal ones fails
here, where the digest test could not tell it from an intended change."""

import runpy
from pathlib import Path

import pytest

DEMO = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "demos" / "06_instance_weighting.py")
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_weights_beat_equal_weights_on_noisy_features(seed):
    # measured margins on seeds 1-3: +0.0257, +0.0264 and +0.0332
    exact = DEMO["run"]("exact", 0.3, seed)[0]
    equal = DEMO["run"]("equal", 0.3, seed)[0]
    assert exact > equal + 0.01
