"""Command-line driver.

Subcommands: ``centers`` (write a hash-center file), ``solve-weights``
(run the weight solver over a file of distance vectors), ``train``
(fit the encoder on a dataset), ``eval`` (retrieval metrics for a
checkpoint), ``weight-report`` (compare learned weights against
ground-truth proportions). Exit codes: 0 success, 2 usage or
configuration error, 3 data error, 4 violated internal invariant.

Before it calls a handler, ``main`` checks that every output flag given
(``--out``, ``--out-prefix``, ``--dump-codes``) is not empty, that
``--out`` names no directory, and that its directory exists, and reads
the seed of ``centers`` and ``train``: ``--seed``, else ``ICS_SEED``,
else 0, as the file headers write an integer (plain ASCII decimal
digits, at least 0). A ``_cmd_*`` handler gets the parsed flags,
``args.seed`` an int, and returns ``(outputs, seed, values)``. ``main``
writes the JSON run manifest next to the first output flag,
``<out>.manifest.json`` (or ``<out-prefix>.manifest.json``): the seed,
outputs and ``config``, every flag as parsed except ``--seed`` and the
output path (``--lambda`` as ``"lambda"``), plus the handler's values,
``centers``' strategy and ``train``'s ``--hidden`` as a list of sizes.
"""

import argparse
import dataclasses
import gc
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import data as _data
from .centers import generate_centers, load_centers, min_pairwise_hamming, save_centers
from .data import (
    _dataset_blocks,
    _header_int,
    _parse_rows,
    _ragged_groups,
    _read_nonblank,
    load_dataset,
    load_dataset_csv,
    spearman_corr,
)
from .encoder import (
    WEIGHT_MODES,
    TrainConfig,
    encode_binary,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .errors import ConfigError, DataError, EvaluationError, ParseError, ToolkitError, check_int
from .loss import LossConfig
from .retrieval import (
    CodeDatabase,
    map_at_k,  # unused: perfbench/traced.py rebinds this name by getattr
    pack_database,
    precision_at_k,  # unused: perfbench/traced.py rebinds this name by getattr
    retrieval_metrics,
    save_codes,
)
from .weights import GRADIENT_MODES, WeightSolverConfig, _solve_rows

_FLOAT_FMT = "%.17g"
_DATA_FORMATS = ("text", "csv")
# parsed attributes that are not recorded in a manifest's config
_NOT_CONFIG = ("command", "func", "seed", "out", "out_prefix")
# parsed attributes that name an output path; the manifest goes by the first given
_OUTPUT_FLAGS = ("out", "out_prefix", "dump_codes")


def _write_json(path, value):
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, row_format, rows):
    """Write the ``header`` line, then ``row_format % row`` for each row,
    with csv's ``\r\n`` line ends; one format per data._ROW_BLOCK rows."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        while block := list(itertools.islice(rows, _data._ROW_BLOCK)):
            fh.write((row_format + "\r\n") * len(block) % tuple(itertools.chain(*block)))


def _config(cls, flags):
    """A ``cls`` config from the parsed ``flags`` (``vars(args)``) whose dest
    is one of its field names; a field without such a flag keeps its default."""
    return cls(**{f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags})


def _cmd_centers(args) -> tuple[list, int, dict]:
    center_set = generate_centers(args.bits, args.labels, args.seed)
    save_centers(args.out, center_set)
    if center_set.m_labels >= 2:
        print(f"min-pairwise-hamming {min_pairwise_hamming(center_set)}")
    else:
        print("min-pairwise-hamming n/a")
    return [args.out], args.seed, {"strategy": center_set.strategy}


def _cmd_solve_weights(args) -> tuple[list, int, dict]:
    cfg = _config(WeightSolverConfig, vars(args))
    lines, numbers = _read_nonblank(args.distances)
    if not lines:
        raise DataError(f"no distance vectors in {args.distances}")
    groups = list(_ragged_groups(lines, numbers, [len(ln.split()) for ln in lines]))
    bad = np.concatenate([at[~(np.isfinite(d) & (d >= 0)).all(axis=1)] for at, d in groups])
    if bad.size:  # named: the first in file order, whatever its width
        raise ParseError("distances must be finite and nonnegative", line=numbers[bad.min()])
    # one dense solve per width: each row stops on its own rule and sums
    # in the order of a solve_weights call on its line alone
    solved = [None] * len(lines)  # (iterations, weights) of each line
    for at, d in groups:
        w, iterations, _ = _solve_rows(d, np.ones(d.shape, dtype=bool), cfg, None, traced=False)
        for i, n_iter, row in zip(at.tolist(), iterations.tolist(), w):
            solved[i] = n_iter, row
    rows = ((i, n, ";".join(_FLOAT_FMT % v for v in w)) for i, (n, w) in enumerate(solved))
    _write_csv(args.out, "sample,iterations,weights", "%d,%d,%s", rows)
    return [args.out], 0, {}


def _cmd_train(args) -> tuple[list, int, dict]:
    try:  # the empty string means no hidden layer
        hidden = tuple(int(h) for h in args.hidden.split(",")) if args.hidden else ()
    except ValueError:
        message = f"--hidden must be comma-separated integers, got {args.hidden!r}"
        raise ConfigError(message) from None
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr0=args.lr,
        hidden=hidden,
        loss=_config(LossConfig, vars(args)),
        solver=_config(WeightSolverConfig, vars(args)),
        weight_mode=args.weight_mode,
        seed=args.seed,
    )
    center_set = load_centers(args.centers)
    if args.data_format == "csv":
        data = load_dataset_csv(args.data, center_set.m_labels)
    else:
        data = load_dataset(args.data)
    state = train(data, center_set, cfg)

    ckpt_path = f"{args.out_prefix}.ckpt"
    weights_path = f"{args.out_prefix}.weights.csv"
    loss_path = f"{args.out_prefix}.loss.csv"
    save_checkpoint(
        ckpt_path, state.params, center_set.k_bits, center_set.m_labels, args.seed
    )
    rows, labels = np.nonzero(state.label_mask)
    weights = state.weight_matrix[state.label_mask].tolist()
    table = zip(rows.tolist(), labels.tolist(), weights)
    _write_csv(weights_path, "sample,label,weight", "%d,%d," + _FLOAT_FMT, table)
    parts = ("total", "central", "quantization", "entropy")
    history = [(i, *(entry[key] for key in parts)) for i, entry in enumerate(state.loss_history)]
    _write_csv(loss_path, ",".join(("epoch", *parts)), "%d" + ("," + _FLOAT_FMT) * 4, history)
    return [ckpt_path, weights_path, loss_path], args.seed, {"hidden": list(hidden)}


def _encode_input(path, data_format, params, m_labels):
    """The D and M of an ``eval`` input, its packed codes and its (N, M)
    labels. A text file is read block by block (see _dataset_blocks): each
    block is parsed and checked whole, then encoded and packed at once
    when its D is the checkpoint's, and only its packed codes and labels
    are kept. A CSV file is read whole. A D or M that does not match is
    left for the caller to name once every input has parsed, as a fault
    in the lines wins; such an input has no codes."""
    d_in, k_bits = params.sizes[0], params.sizes[-1]
    if data_format == "csv":
        data = load_dataset_csv(path, m_labels)
        d, labels = data.features.shape[1], data.labels
        codes = pack_database(encode_binary(params, data.features)) if d == d_in else None
        return d, m_labels, codes, labels

    def layout(d, m):
        return [(((k_bits + 63) // 64,), np.uint64), ((m,), np.int8)]

    for (words, labels), block, (features, block_labels, _, _) in _dataset_blocks(path, layout):
        labels[block] = block_labels
        if features.shape[1] == d_in:
            words[block] = pack_database(encode_binary(params, features)).words
    d = features.shape[1]
    return d, labels.shape[1], CodeDatabase(k_bits, words) if d == d_in else None, labels


def _cmd_eval(args) -> tuple[list, int, dict]:
    check_int("k", args.k, 1)  # before any input is read
    params, meta = load_checkpoint(args.checkpoint)
    d_in, m_labels = params.sizes[0], meta["m_labels"]
    inputs = {
        name: _encode_input(path, args.data_format, params, m_labels)
        for name, path in (("queries", args.queries), ("database", args.database))
    }
    for name, (d, m, _, _) in inputs.items():
        if d != d_in:
            raise ConfigError(f"{name} have D={d} features but the checkpoint expects D={d_in}")
        if m != m_labels:
            raise ConfigError(f"{name} have M={m} labels but the checkpoint expects M={m_labels}")
    (_, _, query_codes, query_labels), (_, _, db_codes, db_labels) = inputs.values()
    metrics = {
        **retrieval_metrics(query_codes, query_labels, db_codes, db_labels, args.k),
        "k": args.k,
        "n_queries": len(query_labels),
        "n_database": len(db_labels),
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


def _read_weights_csv(path, mask):
    """The (N, M) weight matrix, zero off the (N, M) label ``mask``, of
    a weights CSV as ``train`` writes it: the header, then row r gives
    pair r of ``np.argwhere(mask)`` (the mask's (sample, label) pairs in
    row-major order) and a finite weight. Blank lines are skipped."""
    lines, numbers = _read_nonblank(path)
    columns = lines[0].rstrip("\n").split(",") if lines else None
    if columns != ["sample", "label", "weight"]:
        raise DataError(f"{path}: expected columns sample,label,weight, found {columns}")
    values = _parse_rows(lines[1:], numbers[1:], 3, np.float64, delimiter=",")
    pairs = np.argwhere(mask)
    n = min(len(values), len(pairs))
    failed = np.column_stack(
        [(values[:n, :2] != pairs[:n]).any(axis=1), ~np.isfinite(values[:n, 2])]
    )
    if failed.any():  # the first fault in file order
        r, kind = np.argwhere(failed)[0]
        messages = ["expected sample {}, label {}".format(*pairs[r]), "weight must be finite"]
        raise ParseError(messages[kind], line=numbers[1 + r])
    if len(values) > n:
        raise ParseError("row after the last positive label of the dataset", line=numbers[1 + n])
    if len(pairs) > n:
        raise DataError("weights file ends before sample {}, label {}".format(*pairs[n]))
    weights = np.zeros(mask.shape)
    weights[mask] = values[:, 2]
    return weights


def _cmd_weight_report(args) -> tuple[list, int, dict]:
    data = load_dataset(args.data)
    if not data.has_proportions.any():
        raise DataError(f"{args.data} carries no ground-truth proportions")
    mask = data.labels != 0
    weights = _read_weights_csv(args.weights, mask)
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

    def rows():
        for i, (row, has) in enumerate(zip(mask, data.has_proportions)):
            props = ";".join("%.9g" % v for v in data.proportions[i, row]) if has else "-"
            w = ";".join("%.9g" % v for v in weights[i, row])
            yield i, n_labels[i], w, props, rho_text[i]

    header = "sample,n_labels,weights,proportions,spearman"
    _write_csv(report_path, header, "%d,%d,%s,%s,%s", rows())
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
            help="accepted for interface stability; every value behaves the same: "
            "icshash starts no thread of its own, numpy's BLAS may start threads",
        )

    p = sub.add_parser("centers", help="generate a hash-center file")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--seed", default=None)
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
    p.add_argument("--lambda", dest="lam", type=float, default=WeightSolverConfig.lam)
    p.add_argument("--eta", type=float, default=WeightSolverConfig.eta)
    p.add_argument("--beta", type=float, default=WeightSolverConfig.beta)
    p.add_argument("--max-iters", type=int, default=WeightSolverConfig.max_iters)
    p.add_argument("--tol", type=float, default=WeightSolverConfig.tol)
    p.add_argument(
        "--gradient-mode", choices=GRADIENT_MODES, default=WeightSolverConfig.gradient_mode
    )
    add_common(p)
    p.set_defaults(func=_cmd_solve_weights)

    p = sub.add_parser("train", help="train the hash encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--centers", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--data-format", choices=_DATA_FORMATS, default="text")
    hidden = ",".join(map(str, TrainConfig.hidden))
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr0)
    p.add_argument("--hidden", default=hidden, help="comma-separated hidden sizes")
    p.add_argument("--beta", type=float, default=LossConfig.beta)
    p.add_argument("--lambda", dest="lam", type=float, default=LossConfig.lam)
    p.add_argument("--gamma", type=float, default=LossConfig.gamma)
    p.add_argument("--eta", type=float, default=WeightSolverConfig.eta)
    p.add_argument("--weight-mode", choices=WEIGHT_MODES, default=TrainConfig.weight_mode)
    p.add_argument(
        "--gradient-mode", choices=GRADIENT_MODES, default=WeightSolverConfig.gradient_mode
    )
    p.add_argument("--seed", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--data-format", choices=_DATA_FORMATS, default="text")
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
    """Run the command that ``argv`` (``sys.argv[1:]`` when None) names,
    write its manifest and return the exit code.

    ``argv=None`` is the process entry, ``python -m icshash.cli`` and the
    ``icshash`` script: it first moves every object the imports made into
    the collector's permanent generation (``gc.freeze()``), so that the
    full collections of the command and of interpreter exit skip them,
    which saves about 10 ms at exit (see README). A caller that passes
    ``argv`` keeps its collector as it was."""
    if argv is None:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    flags = vars(args)
    try:  # where outputs go and the seed, before any work
        paths = {name: flags[name] for name in _OUTPUT_FLAGS if flags.get(name) is not None}
        for name, path in paths.items():
            # a prefix gains a suffix; --out is opened as given
            if not path or name == "out" and (os.path.isdir(path) or not os.path.basename(path)):
                raise ConfigError(f"--{name.replace('_', '-')} must name a file, got {path!r}")
            if not os.path.isdir(directory := os.path.dirname(path) or "."):
                raise ConfigError(f"output directory {directory!r} does not exist")
        if "seed" in flags:  # read as the file headers' integers are
            source = "--seed" if args.seed is not None else "ICS_SEED"
            raw = args.seed if args.seed is not None else os.environ.get("ICS_SEED", "0")
            try:
                args.seed = _header_int(raw, source, 0, None)
            except ParseError:
                raise ConfigError(f"{source} must be an integer, got {raw!r}") from None
        outputs, seed, computed = args.func(args)
        config = {
            "lambda" if k == "lam" else k: v for k, v in flags.items() if k not in _NOT_CONFIG
        }
        manifest = {
            "command": args.command,
            "config": {**config, **computed},
            "seed": seed,
            "version": __version__,
            "wall_clock_seconds": round(time.perf_counter() - started, 6),
            "outputs": sorted(str(p) for p in outputs),
        }
        _write_json(f"{next(iter(paths.values()))}.manifest.json", manifest)
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
