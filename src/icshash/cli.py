"""Command-line driver.

Subcommands: ``centers`` (write a hash-center file), ``solve-weights``
(run the weight solver over a file of distance vectors), ``train``
(fit the encoder on a dataset), ``eval`` (retrieval metrics for a
checkpoint), ``weight-report`` (compare learned weights against
ground-truth proportions). Exit codes: 0 success, 2 usage or
configuration error, 3 data error, 4 violated internal invariant.

Every command writes a JSON run manifest, ``<out>.manifest.json`` (or
``<out-prefix>.manifest.json``), listing its seed, output files and
``config``: every flag as parsed except ``--seed`` and the output path
(``--lambda`` as ``"lambda"``), plus the values a handler works out
itself, ``centers``' strategy and ``train``'s ``--hidden`` as a list
of sizes. Each ``_cmd_*`` handler returns ``(outputs, seed, those
values)`` and ``main`` writes the manifest.

When ``--seed`` is omitted the environment variable ``ICS_SEED`` is
used as the default seed.
"""

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .centers import generate_centers, load_centers, min_pairwise_hamming, save_centers
from .data import (
    _parse_ragged,
    _parse_rows,
    _read_nonblank,
    load_dataset,
    load_dataset_csv,
    spearman_corr,
)
from .encoder import (
    TrainConfig,
    encode_binary,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .errors import ConfigError, DataError, EvaluationError, ParseError, ToolkitError
from .loss import LossConfig
from .retrieval import (
    map_at_k,  # unused: perfbench/traced.py rebinds this name by getattr
    pack_database,
    precision_at_k,  # unused: perfbench/traced.py rebinds this name by getattr
    retrieval_metrics,
    save_codes,
)
from .weights import WeightSolverConfig, _solve_rows

_FLOAT_FMT = "%.17g"
# parsed attributes that are not recorded in a manifest's config
_NOT_CONFIG = ("command", "func", "seed", "out", "out_prefix")


def _default_seed() -> int:
    raw = os.environ.get("ICS_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"ICS_SEED must be an integer, got {raw!r}") from None


def _write_json(path, value):
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_dataset(path, data_format, m_labels):
    if data_format == "csv":
        return load_dataset_csv(path, m_labels)
    return load_dataset(path)


def _cmd_centers(args) -> tuple[list, int, dict]:
    seed = args.seed if args.seed is not None else _default_seed()
    center_set = generate_centers(args.bits, args.labels, seed)
    save_centers(args.out, center_set)
    if center_set.m_labels >= 2:
        print(f"min-pairwise-hamming {min_pairwise_hamming(center_set)}")
    else:
        print("min-pairwise-hamming n/a")
    return [args.out], seed, {"strategy": center_set.strategy}


def _cmd_solve_weights(args) -> tuple[list, int, dict]:
    cfg = WeightSolverConfig(
        lam=args.lam,
        eta=args.eta,
        beta=args.beta,
        max_iters=args.max_iters,
        tol=args.tol,
        gradient_mode=args.gradient_mode,
    )
    lines, numbers = _read_nonblank(args.distances)
    if not lines:
        raise DataError(f"no distance vectors in {args.distances}")
    d, mask = _parse_ragged(lines, numbers, [len(ln.split()) for ln in lines])
    bad = ~np.where(mask, np.isfinite(d) & (d >= 0), True).all(axis=1)
    if bad.any():
        raise ParseError("distances must be finite and nonnegative", line=numbers[np.argmax(bad)])
    # one solve over the zero-padded rows: each row stops on its own rule and
    # reports its own iteration count, as a per-line solve_weights call does
    w, iterations, _ = _solve_rows(d, mask, cfg, None, traced=False)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "iterations", "weights"])
        for i, (row, row_mask, n_iter) in enumerate(zip(w, mask, iterations.tolist())):
            writer.writerow([i, n_iter, ";".join(_FLOAT_FMT % v for v in row[row_mask])])
    return [args.out], 0, {}


def _cmd_train(args) -> tuple[list, int, dict]:
    seed = args.seed if args.seed is not None else _default_seed()
    try:  # the empty string means no hidden layer
        hidden = tuple(int(h) for h in args.hidden.split(",")) if args.hidden else ()
    except ValueError:
        message = f"--hidden must be comma-separated integers, got {args.hidden!r}"
        raise ConfigError(message) from None
    loss_cfg = LossConfig(beta=args.beta, gamma=args.gamma, lam=args.lam)
    solver_cfg = WeightSolverConfig(
        lam=args.lam, eta=args.eta, beta=args.beta, gradient_mode=args.gradient_mode
    )
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr0=args.lr,
        hidden=hidden,
        loss=loss_cfg,
        solver=solver_cfg,
        weight_mode=args.weight_mode,
        seed=seed,
    )
    center_set = load_centers(args.centers)
    data = _load_dataset(args.data, args.data_format, center_set.m_labels)
    state = train(data, center_set, cfg)

    ckpt_path = f"{args.out_prefix}.ckpt"
    weights_path = f"{args.out_prefix}.weights.csv"
    loss_path = f"{args.out_prefix}.loss.csv"
    save_checkpoint(
        ckpt_path, state.params, center_set.k_bits, center_set.m_labels, seed
    )
    with open(weights_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "label", "weight"])
        rows, labels = np.nonzero(state.label_mask)
        values = [_FLOAT_FMT % v for v in state.weight_matrix[state.label_mask].tolist()]
        writer.writerows(zip(rows.tolist(), labels.tolist(), values))
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total", "central", "quantization", "entropy"])
        for epoch, entry in enumerate(state.loss_history):
            writer.writerow(
                [epoch]
                + [
                    _FLOAT_FMT % entry[key]
                    for key in ("total", "central", "quantization", "entropy")
                ]
            )
    return [ckpt_path, weights_path, loss_path], seed, {"hidden": list(hidden)}


def _cmd_eval(args) -> tuple[list, int, dict]:
    params, meta = load_checkpoint(args.checkpoint)
    d_in, m_labels = params.sizes[0], meta["m_labels"]
    queries = _load_dataset(args.queries, args.data_format, m_labels)
    database = _load_dataset(args.database, args.data_format, m_labels)
    for name, data in (("queries", queries), ("database", database)):
        (_, d), (_, m) = data.features.shape, data.labels.shape
        if d != d_in:
            raise ConfigError(f"{name} have D={d} features but the checkpoint expects D={d_in}")
        if m != m_labels:
            raise ConfigError(f"{name} have M={m} labels but the checkpoint expects M={m_labels}")
    query_codes = pack_database(encode_binary(params, queries.features))
    db_codes = pack_database(encode_binary(params, database.features))
    metrics = {
        **retrieval_metrics(query_codes, queries.labels, db_codes, database.labels, args.k),
        "k": args.k,
        "n_queries": len(queries),
        "n_database": len(database),
    }
    _write_json(args.out, metrics)
    outputs = [args.out]
    if args.dump_codes:
        db_path = f"{args.dump_codes}.database.txt"
        q_path = f"{args.dump_codes}.queries.txt"
        save_codes(db_path, db_codes)
        save_codes(q_path, query_codes)
        outputs += [db_path, q_path]
    return outputs, meta["seed"], {}


def _read_weights_csv(path, shape):
    """The (N, M) weight matrix of the weights CSV written by ``train``
    and the (N, M) mask of the entries it gives; blank lines are
    skipped. Each row names a sample in [0, N) and a label in [0, M),
    no pair twice, and gives a finite weight."""
    lines, numbers = _read_nonblank(path)
    columns = lines[0].rstrip("\n").split(",") if lines else None
    if columns != ["sample", "label", "weight"]:
        raise DataError(f"{path}: expected columns sample,label,weight, found {columns}")
    values = _parse_rows(lines[1:], numbers[1:], 3, np.float64, delimiter=",")
    ids, w = values[:, :2], values[:, 2]
    valid = (ids == np.floor(ids)) & (ids >= 0) & (ids < shape)  # nan and inf fail
    rows, labels = np.where(valid, ids, 0).astype(np.int64).T
    # an invalid row gets a key of its own, so it never repeats a valid one
    keys = np.where(valid.all(axis=1), rows * shape[1] + labels, -1 - np.arange(len(ids)))
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    failed = np.column_stack([~valid, ~np.isfinite(w), repeated])
    if failed.any():
        r, kind = np.argwhere(failed)[0]
        messages = [
            f"sample must be an integer in [0, {shape[0]})",
            f"label must be an integer in [0, {shape[1]})",
            "weight must be finite",
            "sample and label repeat an earlier row",
        ]
        raise ParseError(messages[kind], line=numbers[1 + r])
    weights, given = np.zeros(shape), np.zeros(shape, dtype=bool)
    weights[rows, labels], given[rows, labels] = w, True
    return weights, given


def _cmd_weight_report(args) -> tuple[list, int, dict]:
    data = load_dataset(args.data)
    if not data.has_proportions.any():
        raise DataError(f"{args.data} carries no ground-truth proportions")
    mask = data.labels != 0
    weights, given = _read_weights_csv(args.weights, mask.shape)
    wrong = (given != mask).any(axis=1)
    if wrong.any():
        i = int(np.argmax(wrong))
        if not given[i].any():
            raise DataError(f"weights file has no rows for sample {i}")
        raise DataError(
            f"sample {i}: weights for labels {np.flatnonzero(given[i]).tolist()}, "
            f"but its positive labels are {np.flatnonzero(mask[i]).tolist()}"
        )
    n_labels = mask.sum(axis=1)
    scores, rho_text, n_excluded = [], [""] * len(data), 0
    for i in np.flatnonzero(data.has_proportions & (n_labels >= 2)):
        try:
            rho = spearman_corr(weights[i, mask[i]], data.proportions[i, mask[i]])
        except EvaluationError:
            n_excluded += 1
        else:
            scores.append(rho)
            rho_text[i] = "%.9g" % rho
    report_path = f"{args.out_prefix}.csv"
    summary_path = f"{args.out_prefix}.summary.json"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "n_labels", "weights", "proportions", "spearman"])
        for i, (row, has) in enumerate(zip(mask, data.has_proportions)):
            props = ";".join("%.9g" % v for v in data.proportions[i, row]) if has else "-"
            w = ";".join("%.9g" % v for v in weights[i, row])
            writer.writerow([i, n_labels[i], w, props, rho_text[i]])
    summary = {
        "mean_spearman": float(np.mean(scores)) if scores else None,
        "weight_variance": float(np.var(weights[mask])),
        "n_samples": len(data),
        "n_scored": len(scores),
        "n_excluded": n_excluded,
        "n_single_label": int(np.sum(n_labels < 2)),
    }
    _write_json(summary_path, summary)
    return [report_path, summary_path], 0, {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icshash",
        description="Instance-weighted central-similarity hashing toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="compute threads; all work is single-threaded, the flag is "
            "accepted for interface stability (1 guarantees bit-identical reruns)",
        )

    p = sub.add_parser("centers", help="generate a hash-center file")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_centers)

    p = sub.add_parser(
        "solve-weights",
        help="solve center weights for a file of distance vectors "
        "(one sample per line, space-separated)",
    )
    p.add_argument("--distances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument(
        "--gradient-mode", choices=("paper", "exact"), default="paper"
    )
    add_common(p)
    p.set_defaults(func=_cmd_solve_weights)

    p = sub.add_parser("train", help="train the hash encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--centers", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--data-format", choices=("text", "csv"), default="text")
    p.add_argument("--epochs", type=int, default=90)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--hidden", default="64", help="comma-separated hidden sizes")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--weight-mode", choices=("learned", "equal"), default="learned")
    p.add_argument("--gradient-mode", choices=("paper", "exact"), default="paper")
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--data-format", choices=("text", "csv"), default="text")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--dump-codes",
        default=None,
        help="also write <prefix>.database.txt and <prefix>.queries.txt code files",
    )
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "weight-report",
        help="per-sample rank correlation of learned weights vs proportions",
    )
    p.add_argument("--weights", required=True, help="weights CSV from train")
    p.add_argument("--data", required=True, help="dataset with proportions")
    p.add_argument("--out-prefix", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_weight_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        outputs, seed, computed = args.func(args)
        config = {
            "lambda" if k == "lam" else k: v
            for k, v in vars(args).items()
            if k not in _NOT_CONFIG
        }
        manifest = {
            "command": args.command,
            "config": {**config, **computed},
            "seed": seed,
            "version": __version__,
            "wall_clock_seconds": round(time.perf_counter() - started, 6),
            "outputs": sorted(str(p) for p in outputs),
        }
        out = args.out if "out" in vars(args) else args.out_prefix
        _write_json(f"{out}.manifest.json", manifest)
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
