"""Brute-force references and output checks for the benchmark.

Everything here is deliberately naive and independent of the code under
test where it can be: file formats are parsed directly, Hamming
distances are counted bit by bit on unpacked codes, and rankings come
from a (distance, index) lexicographic sort. Each check returns a list
of problems; an empty list means the output is correct.
"""

import csv
import math

import numpy as np
from scipy.special import expit


def read_dataset(path):
    """(features (N, D) float64, labels (N, M) bool) from a dataset file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n, d, m = (int(v) for v in lines[0].split())
    body = lines[1 : 1 + 3 * n]
    features = np.array(" ".join(body[0::3]).split(), dtype=np.float64)
    labels = np.frombuffer("".join(body[1::3]).encode(), dtype=np.uint8) == ord("1")
    return features.reshape(n, d), labels.reshape(n, m)


def read_codes(path):
    """(N, K) bool matrix from a codes file; True encodes +1."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n, k = (int(v) for v in lines[0].split())
    bits = np.frombuffer("".join(lines[1 : 1 + n]).encode(), dtype=np.uint8)
    return (bits == ord("1")).reshape(n, k)


def reference_codes(params, features):
    """Binary codes by a plain forward pass: rectifier hidden layers,
    logistic output, +1 where the output is at least 0.5."""
    a = features
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = expit(z) if layer == last else np.maximum(z, 0.0)
    return a >= 0.5


def reference_retrieval(query_bits, query_labels, db_bits, db_labels, k):
    """(mAP@k, P@k) by the documented formulas.

    AP@k = sum_{r<=k} Precision@r * rel(r) / min(k, relevant-in-db),
    P@k = relevant-in-top-k / k; relevance is sharing a positive label;
    queries with no relevant database item are skipped.
    """
    index = np.arange(len(db_bits))
    ap_values, p_values = [], []
    for q_bits, q_labels in zip(query_bits, query_labels):
        rel = (db_labels & q_labels).any(axis=1)
        n_relevant = int(rel.sum())
        if n_relevant == 0:
            continue
        dist = (db_bits != q_bits).sum(axis=1)
        top = np.lexsort((index, dist))[:k]
        flags = rel[top].astype(np.float64)
        precision = np.cumsum(flags) / np.arange(1, top.size + 1)
        ap_values.append(float(np.sum(precision * flags)) / min(k, n_relevant))
        p_values.append(float(flags.sum()) / k)
    return float(np.mean(ap_values)), float(np.mean(p_values))


def check_checkpoint(icshash, path, features):
    """The checkpoint reloads, saves back to the same bytes, and encodes
    to the reference codes."""
    params, meta = icshash.load_checkpoint(path)
    resaved = f"{path}.resaved"
    icshash.save_checkpoint(
        resaved, params, meta["k_bits"], meta["m_labels"], meta["seed"]
    )
    problems = []
    if _read_bytes(resaved) != _read_bytes(path):
        problems.append(f"{path}: reload and save does not reproduce the file")
    codes = icshash.encode_binary(params, features) > 0
    if not np.array_equal(codes, reference_codes(params, features)):
        problems.append(f"{path}: encode_binary differs from the reference codes")
    return problems


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_weights_csv(path, labels):
    """One row per positive label of every sample, in label order; each
    sample's weights are nonnegative and sum to 1 within 1e-9."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["sample"]), []).append(
                (int(row["label"]), float(row["weight"]))
            )
    problems = []
    for i, sample_labels in enumerate(labels):
        entries = rows.pop(i, [])
        expected = np.flatnonzero(sample_labels).tolist()
        weights = [w for _, w in entries]
        if [lab for lab, _ in entries] != expected:
            problems.append(f"{path}: sample {i} rows do not match its labels")
        elif min(weights) < 0 or abs(math.fsum(weights) - 1.0) > 1e-9:
            problems.append(f"{path}: sample {i} weights are off the simplex")
    if rows:
        problems.append(f"{path}: rows for unknown samples {sorted(rows)[:5]}")
    return problems


def check_loss_csv(path, epochs):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = [float(v) for row in rows for v in row[1:]]
    problems = []
    if len(rows) != epochs:
        problems.append(f"{path}: {len(rows)} epochs recorded, expected {epochs}")
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path}: non-finite loss value")
    return problems


def check_eval(icshash, metrics, prefix, checkpoint, queries, database, k):
    """metrics.json matches the brute-force reference to 1e-12, and the
    dumped codes are the reference codes and round-trip through
    load_codes."""
    params, _ = icshash.load_checkpoint(checkpoint)
    problems = []
    bits = {}
    for name, (features, _) in (("queries", queries), ("database", database)):
        path = f"{prefix}.{name}.txt"
        bits[name] = read_codes(path)
        if not np.array_equal(bits[name], reference_codes(params, features)):
            problems.append(f"{path}: codes differ from the reference encoding")
        loaded = icshash.unpack_database(icshash.load_codes(path)) > 0
        if not np.array_equal(loaded, bits[name]):
            problems.append(f"{path}: load_codes does not round-trip")
    ref_map, ref_p = reference_retrieval(
        bits["queries"], queries[1], bits["database"], database[1], k
    )
    expected = {
        "map_at_k": ref_map,
        "precision_at_k": ref_p,
        "k": k,
        "n_queries": len(queries[0]),
        "n_database": len(database[0]),
    }
    for key, value in expected.items():
        if key not in metrics or abs(metrics[key] - value) > 1e-12:
            problems.append(f"metrics.json {key}={metrics.get(key)} expected {value}")
    return problems
