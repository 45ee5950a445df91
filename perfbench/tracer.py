"""In-process span tracer for the `asc` modules, used only by the benchmark.

`Tracer.installed()` replaces every public function of each `asc` module,
by module attribute, with a wrapper that records a span; every other
module attribute bound to the same function (`from .x import f`) gets the
same wrapper. Leaving the block restores the originals. No file of the
program changes.

A span is (id, name, start, end, parent id, thread id, stage, tag, work).
Spans stay in memory and are written once, by `write_csv`. `work` is an
exact integer computed from operand shapes or file sizes: FLOPs for
matmul, elements for GELU, bytes for model I/O and hashing.
"""

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import asc  # noqa: F401  (imports every layer module)
from asc.similarity import SimilarityAccumulator

LAYERS = ("tensor_ops", "forward", "similarity", "model", "data", "planner", "surgery",
          "synth", "fileio")


def _matmul_flops(args):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _elements(args):
    return int(args[0].size)


def _path_size(args):
    return os.path.getsize(args[0])


def _saved_size(args):
    return os.path.getsize(args[2])


def _weight_bytes(args):
    return sum(int(t.nbytes) for t in args[1].tensors.values())


WORK = {
    "tensor_ops.matmul": _matmul_flops,
    "tensor_ops.gelu": _elements,
    "model.load_model": _path_size,
    "model.save_model": _saved_size,
    "model.validate_weights": _weight_bytes,
    "fileio.sha256_file": _path_size,
}


class Tracer:
    """Records spans of `asc` calls while installed.

    `hidden_dim` and `ffn_dim` classify matmuls by weight shape into
    projections (d x d), feed-forward (d x f, f x d) and attention.
    """

    def __init__(self, hidden_dim: int, ffn_dim: int):
        self.stage = None
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = None
        d, f = hidden_dim, ffn_dim
        self._matmul_tags = {(d, d): "proj", (d, f): "ffn", (f, d): "ffn"}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        work = WORK.get(name)
        tagged = name == "tensor_ops.matmul"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span belongs to the call that is
            # open on the main thread (the pool it waits on)
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tag = self._matmul_tags.get(args[1].shape, "attn") if tagged else None
            amount = work(args) if work else 0
            self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                               self.stage, tag, amount))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer module for the block."""
        self._main_stack = self._stack()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"asc.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(inspect.unwrap(fn))):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        patched = []
        modules = [m for n, m in sys.modules.items() if n == "asc" or n.startswith("asc.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        add_states = SimilarityAccumulator.add_states
        SimilarityAccumulator.add_states = self._wrap("similarity.add_states", add_states)
        try:
            yield self
        finally:
            SimilarityAccumulator.add_states = add_states
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write_csv(self, path):
        threads = {}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,thread,stage,tag,work\n")
            for sid, name, start, end, parent, tid, stage, tag, work in self.spans:
                thread = threads.setdefault(tid, len(threads))
                handle.write(f"{sid},{name},{start!r},{end!r},{'' if parent is None else parent},"
                             f"{thread},{stage},{tag or ''},{work}\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive busy seconds, self seconds, work."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
        for sid, name, start, end, _, _, _, _, work in self.spans:
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
            row["work"] += work
        return dict(table)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# (metric name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("tensor_ops.matmul.calls", "count", "lower"),
    ("tensor_ops.matmul.busy_s", "s", "lower"),
    ("tensor_ops.matmul.gflop", "GFLOP", "lower"),
    ("tensor_ops.matmul.proj.busy_s", "s", "lower"),
    ("tensor_ops.matmul.ffn.busy_s", "s", "lower"),
    ("tensor_ops.matmul.attn.busy_s", "s", "lower"),
    ("tensor_ops.gelu.calls", "count", "lower"),
    ("tensor_ops.gelu.busy_s", "s", "lower"),
    ("tensor_ops.gelu.elements", "count", "lower"),
    ("tensor_ops.softmax_rows.calls", "count", "lower"),
    ("tensor_ops.softmax_rows.busy_s", "s", "lower"),
    ("forward.embed.calls", "count", "lower"),
    ("forward.embed.busy_s", "s", "lower"),
    ("forward.encoder_layer.calls", "count", "lower"),
    ("forward.encoder_layer.self_s", "s", "lower"),
    ("forward.forward_hidden_states.calls", "count", "lower"),
    ("similarity.add_states.calls", "count", "lower"),
    ("similarity.add_states.busy_s", "s", "lower"),
    ("similarity.analyze.parallel_efficiency", "ratio", "higher"),
    ("similarity.write_matrix_csv.busy_s", "s", "lower"),
    ("similarity.load_matrix_csv.busy_s", "s", "lower"),
    ("model.load_model.calls", "count", "lower"),
    ("model.load_model.busy_s", "s", "lower"),
    ("model.load_model.bytes", "B", "lower"),
    ("model.save_model.calls", "count", "lower"),
    ("model.save_model.busy_s", "s", "lower"),
    ("model.save_model.bytes", "B", "lower"),
    ("model.validate_weights.calls", "count", "lower"),
    ("model.validate_weights.busy_s", "s", "lower"),
    ("model.validate_weights.bytes_scanned", "B", "lower"),
    ("data.load_dataset.busy_s", "s", "lower"),
    ("data.validate_sequence.calls", "count", "lower"),
    ("data.validate_sequence.busy_s", "s", "lower"),
    ("planner.plan.calls", "count", "lower"),
    ("planner.plan.busy_s", "s", "lower"),
    ("surgery.apply_plan.calls", "count", "lower"),
    ("surgery.apply_plan.busy_s", "s", "lower"),
    ("surgery.compare_models.busy_s", "s", "lower"),
    ("surgery.final_hidden_state.calls", "count", "lower"),
    ("synth.gen_model.busy_s", "s", "lower"),
    ("synth.gen_dataset.busy_s", "s", "lower"),
    ("fileio.sha256_file.busy_s", "s", "lower"),
    ("fileio.sha256_file.bytes", "B", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, workers: int, traced_wall: float, untraced_wall: float) -> dict:
    """Values of every PER_LAYER metric from the recorded spans."""
    table = tracer.summary()
    values = {}
    for name, row in table.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.busy_s"] = row["busy_s"]
        values[f"{name}.self_s"] = row["self_s"]
    work = {name: row["work"] for name, row in table.items()}
    values["tensor_ops.matmul.gflop"] = work.get("tensor_ops.matmul", 0) / 1e9
    values["tensor_ops.gelu.elements"] = work.get("tensor_ops.gelu", 0)
    values["model.load_model.bytes"] = work.get("model.load_model", 0)
    values["model.save_model.bytes"] = work.get("model.save_model", 0)
    values["model.validate_weights.bytes_scanned"] = work.get("model.validate_weights", 0)
    values["fileio.sha256_file.bytes"] = work.get("fileio.sha256_file", 0)

    by_id = {span[0]: span for span in tracer.spans}
    matmul_busy = defaultdict(float)
    final_from_compare = 0
    for sid, name, start, end, parent, _, _, tag, _ in tracer.spans:
        if name == "tensor_ops.matmul":
            matmul_busy[tag] += end - start
        elif name == "forward.final_hidden_state" and parent is not None \
                and by_id[parent][1] == "surgery.compare_models":
            final_from_compare += 1
    for tag in ("proj", "ffn", "attn"):
        values[f"tensor_ops.matmul.{tag}.busy_s"] = matmul_busy[tag]
    values["surgery.final_hidden_state.calls"] = final_from_compare
    values["similarity.analyze.parallel_efficiency"] = parallel_efficiency(tracer, workers)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}


def parallel_efficiency(tracer: Tracer, workers: int) -> float:
    """Per-thread forward+accumulate busy time over (wall x workers), summed
    over the `analyze` calls of the analyze_parallel stage."""
    calls = {span[0]: span[3] - span[2] for span in tracer.spans
             if span[1] == "similarity.analyze" and span[6] == "analyze_parallel"}
    busy = sum(span[3] - span[2] for span in tracer.spans
               if span[4] in calls
               and span[1] in ("forward.forward_hidden_states", "similarity.add_states"))
    wall = sum(calls.values())
    return busy / (wall * workers) if wall else 0.0
