#!/usr/bin/env python3
# Encode a database with a trained model, binarize, rank by packed
# Hamming distance, and compare retrieval quality of learned-weight
# training against the equal-weight ablation.
import numpy as np

from icshash import (
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    features_matrix,
    generate_centers,
    generate_synthetic,
    labels_matrix,
    pack_database,
    rank_database,
    retrieval_metrics,
    train,
)
from icshash.encoder import encode_binary

spec = SyntheticSpec(
    n_samples=600, d_features=16, m_labels=8,
    labels_per_sample=(1, 3), dirichlet_alpha=1.0, noise_sigma=0.1, seed=1,
)
samples = generate_synthetic(spec)
center_set = generate_centers(16, 8, seed=1)
labels = labels_matrix(samples)

scores = {}
for mode in ("learned", "equal"):
    cfg = TrainConfig(
        epochs=10, batch_size=64, lr0=1e-3, hidden=(64,),
        loss=LossConfig(beta=1.0, gamma=0.05, lam=4.0),
        weight_mode=mode, seed=1,
    )
    state = train(samples, center_set, cfg)
    db = pack_database(encode_binary(state.params, features_matrix(samples)))
    # one ranking of every query gives both metrics
    metrics = retrieval_metrics(db, labels, db, labels, k=100)
    scores[mode] = (metrics["map_at_k"], metrics["precision_at_k"])
    if mode == "learned":
        ranking = rank_database(db.code(0), db)
        print("query 0 top-8 neighbors (index, distance):")
        print(list(zip(ranking.indices[:8].tolist(),
                       ranking.distances[:8].tolist())))
        print()

print(f"{'mode':>8} {'mAP@100':>9} {'prec@100':>9}")
for mode, (m, p) in scores.items():
    print(f"{mode:>8} {m:>9.4f} {p:>9.4f}")
