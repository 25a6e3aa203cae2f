"""Run one icshash CLI command with spans recorded around each layer.

Usage:
    PYTHONPATH=src python3 perfbench/traced.py SPANS.json ICSHASH-ARGS...

The package imports functions by name (``from .weights import
solve_weights``), so a span is taken by rebinding the name in the module
that calls it. Every span is kept in memory as ``[name, start_ns,
end_ns, parent_index]`` and written to SPANS.json when the command has
finished, together with the counters read from return values and the
files each layer read or wrote. No file under ``src/`` is changed.
"""

import functools
import importlib
import json
import os
import sys
import time

# (module that looks the name up, attribute, span name). A function
# called from two modules is rebound in both; each call is one span.
PATCHES = [
    ("icshash.cli", "main", "cli.main"),
    ("icshash.cli", "load_centers", "centers.load_centers"),
    ("icshash.cli", "load_dataset", "data.load_dataset"),
    ("icshash.cli", "train", "encoder.train"),
    ("icshash.cli", "save_checkpoint", "encoder.save_checkpoint"),
    ("icshash.cli", "load_checkpoint", "encoder.load_checkpoint"),
    ("icshash.cli", "encode_binary", "encoder.encode_binary"),
    ("icshash.cli", "pack_database", "retrieval.pack_database"),
    ("icshash.cli", "map_at_k", "retrieval.map_at_k"),
    ("icshash.cli", "precision_at_k", "retrieval.precision_at_k"),
    ("icshash.cli", "save_codes", "retrieval.save_codes"),
    ("icshash.encoder", "forward_batch", "encoder.forward_batch"),
    ("icshash.encoder", "backward_batch", "encoder.backward_batch"),
    ("icshash.encoder", "adam_step", "encoder.adam_step"),
    ("icshash.encoder", "solve_weights", "weights.solve_weights"),
    ("icshash.encoder", "distance_vector", "loss.distance_vector"),
    ("icshash.encoder", "total_loss", "loss.total_loss"),
    ("icshash.encoder", "loss_gradient_wrt_codes", "loss.loss_gradient_wrt_codes"),
    ("icshash.loss", "distance_vector", "loss.distance_vector"),
    ("icshash.weights", "project_to_simplex", "weights.project_to_simplex"),
    ("icshash.retrieval", "rank_database", "retrieval.rank_database"),
]

# Span names whose first argument is a path; the file sizes are
# reported as the layer's bytes read or written.
PATH_SPANS = ("data.load_dataset", "encoder.save_checkpoint", "retrieval.save_codes")

SPAN_NAMES = sorted({name for _, _, name in PATCHES})


class Recorder:
    """Spans in call order, each with the index of its enclosing span."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"weights.iterations": 0, "weights.max_iters_hits": 0}
        self.paths = {name: [] for name in PATH_SPANS}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        after = self._solve_result if name == "weights.solve_weights" else None
        paths = self.paths.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            if paths is not None:
                paths.append(os.fspath(args[0]))
            return result

        return wrapper

    def _solve_result(self, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        if cfg is None:
            cfg = sys.modules["icshash.weights"].WeightSolverConfig()
        self.counters["weights.iterations"] += result.iterations
        self.counters["weights.max_iters_hits"] += result.iterations == cfg.max_iters

    def install(self):
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def dump(self, path, import_s):
        sizes = {
            f"{name}.bytes": sum(os.path.getsize(p) for p in found)
            for name, found in self.paths.items()
        }
        with open(path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "spans": self.spans,
                    "counters": {**self.counters, **sizes},
                },
                fh,
            )


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("icshash.cli")
    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    code = cli.main(cli_args)
    recorder.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
