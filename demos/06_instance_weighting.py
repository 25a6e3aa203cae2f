#!/usr/bin/env python3
# Where learned center weights buy retrieval quality on the synthetic
# generator. Train equal, paper-mode and exact-mode weights on the
# benchmark's train shapes and flags (N=2000, D=32, M=16, K=32, lam 4,
# beta 1, 20 epochs) at two feature-noise levels, and score each run
# by mAP@100 of 500 held-out queries from the same draw against the
# training set, by the mean rank correlation of its weights with the
# true proportions, and by how far its weights move from 1/c.
import numpy as np

from icshash import (
    EvaluationError,
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    WeightSolverConfig,
    encode_binary,
    generate_centers,
    generate_synthetic,
    pack_database,
    retrieval_metrics,
    spearman_corr,
    train,
)

N, HELD_OUT, D, M, K_BITS, TOP_K = 2000, 500, 32, 16, 32, 100
RUNS = {  # name: (weight_mode, gradient_mode)
    "equal": ("equal", "exact"),
    "paper": ("learned", "paper"),
    "exact": ("learned", "exact"),
}


def run(name, noise_sigma, seed, epochs=20):
    """mAP@100 of the held-out queries, and the trained state with the
    training samples, for one of RUNS."""
    samples = generate_synthetic(SyntheticSpec(N + HELD_OUT, D, M, noise_sigma=noise_sigma, seed=seed))
    data, queries = samples[:N], samples[N:]
    weight_mode, gradient_mode = RUNS[name]
    cfg = TrainConfig(
        epochs=epochs, batch_size=64, lr0=1e-3, hidden=(64,),
        loss=LossConfig(beta=1.0, gamma=0.05, lam=4.0),
        solver=WeightSolverConfig(lam=4.0, beta=1.0, gradient_mode=gradient_mode),
        weight_mode=weight_mode, seed=seed,
    )  # fmt: skip
    state = train(data, generate_centers(K_BITS, M, seed), cfg)
    metrics = retrieval_metrics(
        pack_database(encode_binary(state.params, queries.features)),
        queries.labels,
        pack_database(encode_binary(state.params, data.features)),
        data.labels,
        TOP_K,
    )
    return metrics["map_at_k"], state, data


def weight_scores(state, data):
    """Mean Spearman of weights against proportions over the samples
    with two or more labels (None when every such sample's weights are
    tied, as equal weights are), and mean |w - 1/c| over all weights."""
    rhos = []
    for weights, sample in zip(state.weight_table, data):
        if sample.n_labels() >= 2:
            try:
                rhos.append(spearman_corr(weights, sample.proportions))
            except EvaluationError:  # tied weights rank nothing
                pass
    c = state.label_mask.sum(axis=1, keepdims=True)
    spread = np.abs(state.weight_matrix - 1.0 / c)[state.label_mask].mean()
    return (float(np.mean(rhos)) if rhos else None), float(spread)


if __name__ == "__main__":
    print(f"{'sigma':>5} {'weights':>7} {'mAP@100':>8} {'spearman':>9} {'|w-1/c|':>8}")
    for noise_sigma in (0.1, 0.3):
        for name in RUNS:
            map_at_100, state, data = run(name, noise_sigma, seed=1)
            rho, spread = weight_scores(state, data)
            rho_text = "-" if rho is None else f"{rho:.4f}"
            print(f"{noise_sigma:>5} {name:>7} {map_at_100:>8.4f} {rho_text:>9} {spread:>8.4f}")
