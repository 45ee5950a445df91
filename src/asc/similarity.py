"""All-pairs layer-similarity matrix, accumulated over one forward pass.

Entry (i, j) is the average over all dataset tokens of the cosine between
layer i's and layer j's output vector for that token (`cosine_grams`).
Each sequence's sums are kept in float64, added in dataset order and divided
once at finalize; the result is mirrored from the upper triangle and the
diagonal forced to exactly 1.0.
"""

import ctypes
import functools
import glob
import hashlib
import os
import pickle
import re
import signal
import string
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import data
from .errors import FormatError, ValidationError, require_int, require_type
from .fileio import _decode_text, atomic_write
from .forward import hidden_states
from .model import check_model
from .tensor_ops import cosine_grams

CSV_HEADER_RE = re.compile(r"^# asc-sim v1 layers=(\d+) tokens=(\d+)$", re.ASCII)
# ASCII decimals as `repr(float)` writes them; float() alone would also read
# "0.9_9", non-ASCII digits, surrounding whitespace, "nan" and "inf"
CSV_VALUE_RE = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?", re.ASCII)


@dataclass
class SimilarityMatrix:
    """(L+1) x (L+1) symmetric matrix of mean per-token cosine similarities."""

    values: np.ndarray
    token_count: int

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def validate(self):
        v = self.values
        # float64 only: a str or object array reaches np.isfinite's raw TypeError, and
        # write_matrix_csv would drop a complex matrix's imaginary part
        if not isinstance(v, np.ndarray) or v.dtype != np.float64:
            got = v.dtype if isinstance(v, np.ndarray) else type(v).__name__
            raise ValidationError(f"similarity matrix must be a float64 array, got {got}")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"similarity matrix must be a square array, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ValidationError(f"similarity matrix must be at least 2x2, got {v.shape[0]}")
        require_int("token_count", self.token_count, 1)
        if not np.all(np.isfinite(v)):
            raise ValidationError("similarity matrix contains non-finite entries")
        if np.any(v < -1.0) or np.any(v > 1.0):
            raise ValidationError("similarity matrix entries must lie in [-1, 1]")
        if not np.array_equal(v, v.T):
            raise ValidationError("similarity matrix is not symmetric")
        if not np.all(np.diag(v) == 1.0):
            raise ValidationError("similarity matrix diagonal must be exactly 1.0")


class SimilarityAccumulator:
    """Per-sequence pairwise cosine sums of a model's L+1 layer states, and the
    matrix of their total; `analyze` checks the model and dataset it is
    built for, so it re-checks neither."""

    def add_states(self, states, block) -> list:
        """(dataset index, (L+1)x(L+1) cosine sums over that sequence's tokens)
        for each sequence of a row block, given the block's hidden states (a
        list of (rows, d) arrays, one per layer)."""
        return [(i, seq_grams.sum(axis=0)) for i, seq_grams in block.split(cosine_grams(states))]

    def finalize(self, sums, token_count: int) -> SimilarityMatrix:
        """The matrix of per-sequence `sums`, added in the order given, over
        `token_count` tokens."""
        mean = sum(sums) / token_count
        upper = np.triu(mean, k=1)
        values = upper + upper.T
        np.fill_diagonal(values, 1.0)
        matrix = SimilarityMatrix(values=values, token_count=token_count)
        matrix.validate()  # a NaN or inf state leaves non-finite sums
        return matrix


def analyze(config, weights, dataset, workers: int = 1) -> SimilarityMatrix:
    """Run the dataset through the model once and return the similarity matrix.

    The model is checked once, then the dataset runs on `_map_sequences`'
    pool of at most `workers` workers. Each sequence's cosine sums are added
    in dataset order, so the matrix is the same bit for bit at every worker
    count.
    """
    workers = require_int("workers", workers, 1)
    check_model(config, weights)
    if config.num_layers == 0:
        raise ValidationError("cannot analyze a model with no encoder layers")
    acc = SimilarityAccumulator()
    sums = _map_sequences(
        lambda block: acc.add_states(hidden_states(config, weights, block), block),
        dataset, (config,), workers)
    if not sums:
        raise ValidationError("cannot analyze an empty dataset (0 tokens)")
    return acc.finalize(sums, dataset.total_tokens)


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    when numpy links another BLAS build."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            # the path numpy loaded, so this is the same library, not a copy
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# held for a pool's whole life, so pools entered from several threads take turns
_pool_lock = threading.Lock()


@contextmanager
def single_threaded_blas():
    """Run the block under `_pool_lock` with BLAS on one thread, then restore
    the count read on entry.

    For worker pools whose workers each call BLAS: BLAS's own threads would
    compete with the workers for the same cores, and children forked inside
    the block inherit the one-thread count. The count is process-wide, so
    the lock keeps a second pool from reading the first one's pin. Children
    never take the lock: they leave through `os._exit`. The count is left
    alone when numpy's BLAS is not the bundled OpenBLAS.
    """
    with _pool_lock:
        handle = _openblas_threads()
        if handle is None:
            yield
            return
        get, set_ = handle
        restore = get()
        set_(1)
        try:
            yield
        finally:
            set_(restore)


# kept private (perfbench's tracer wraps public names) so worker spans stay under
# analyze or compare_models
def _map_sequences(fn, dataset, configs, workers: int) -> list:
    """`fn`'s result for each sequence of `dataset`, in dataset order.

    The pool has P = min(`workers`, usable cores) workers. The dataset is
    checked and packed into row blocks against every one of `configs`
    (`data.row_blocks`) at that P: a length batch holds at most ceil(tokens
    / P) tokens (and at most MAX_BATCH_ROWS), so a dataset of one length
    still fills every worker. Whole blocks are dealt round-robin to at most
    P shards, at most one per block, which run on `_map_shards`: shard 0 in
    this process, each other one in a forked child. `fn(block)` returns
    `(dataset index, result)` for each sequence of its block. A sequence's
    states do not depend on the block or shard it runs in, so results
    reduced in dataset order are the same bit for bit at every worker count.
    An empty dataset gives [].
    """
    pool = min(workers, usable_cores())
    blocks = data.row_blocks(dataset, *configs, workers=pool)
    results = [None] * len(dataset)
    for part in _map_shards(lambda shard: [pair for block in shard for pair in fn(block)],
                            blocks, pool):
        for i, result in part:
            results[i] = result
    return results


def _map_shards(fn, items, workers: int) -> list:
    """`fn(shard)` for each round-robin shard of `items`, in shard order.

    There are `workers` shards, or fewer: at most one per item. Shard 0 runs
    in the calling process and each other shard in a forked child, which
    sends back its result, or the exception it raised, through a pipe.
    From before the first fork until every child is reaped, the pool holds
    `_pool_lock` and BLAS is pinned to one thread, which children inherit
    (`single_threaded_blas`). The first failed shard's exception is raised
    in shard order; a child that ends without a result raises
    `ChildProcessError`. With one shard, or where `os.fork` does not
    exist, the shards run inline one after another, with BLAS untouched.
    """
    workers = max(1, min(workers, len(items)))
    shards = [items[w::workers] for w in range(workers)]
    if workers == 1 or not hasattr(os, "fork"):
        return [fn(shard) for shard in shards]
    pids, pipes = [], []
    with single_threaded_blas():
        try:
            for shard in shards[1:]:
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _run_child(fn, shard, write_fd)
                finally:
                    os.close(write_fd)
                pids.append(pid)
            results = [fn(shards[0])]
            payloads = [pipe.read() for pipe in pipes]
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pipe in pipes:
                pipe.close()
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for k, (pid, payload, code) in enumerate(zip(pids, payloads, codes), start=1):
        if code != 0:  # a child exits 0 only once its whole payload is written
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"shard {k} worker (pid {pid}) ended without a result ({how})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results.append(value)
    return results


def _run_child(fn, shard, write_fd):
    """In a forked child: pickle `(True, fn(shard))`, or `(False, exception)`,
    to `write_fd`, then leave with `os._exit`, so no code of the parent's
    stack (its `finally` blocks, exit handlers, buffered output) runs here."""
    code = 1
    try:
        try:
            outcome = (True, fn(shard))
        except BaseException as exc:
            outcome = (False, exc)
        payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def write_matrix_csv(matrix: SimilarityMatrix, path):
    """CSV with a `# asc-sim v1` header line and shortest round-trip decimals."""
    require_type("matrix", matrix, SimilarityMatrix).validate()
    with atomic_write(path) as handle:
        handle.write(f"# asc-sim v1 layers={matrix.size} tokens={matrix.token_count}\n")
        for row in matrix.values:
            handle.write(",".join(repr(float(v)) for v in row))
            handle.write("\n")


def load_matrix_csv(path) -> SimilarityMatrix:
    return _read_matrix_csv(path)[0]


def _read_matrix_csv(path) -> tuple:
    """(matrix, hex SHA-256 of the file's bytes), from one read of the file,
    so the bytes of a pipe are both parsed and fingerprinted."""
    with open(path, "rb") as handle:
        raw = handle.read()
    text = _decode_text(raw, path)
    if not text:
        raise FormatError(f"{path}:1: empty matrix file")
    # "\n" and ASCII whitespace only: splitlines() and strip() also act on
    # U+2028, U+00A0 and other non-ASCII separators
    lines = text.split("\n")
    match = CSV_HEADER_RE.match(lines[0])
    if not match:
        raise FormatError(f"{path}:1: expected '# asc-sim v1 layers=<n> tokens=<n>' header")
    try:
        size, tokens = int(match.group(1)), int(match.group(2))
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise FormatError(f"{path}:1: header count out of range ({exc})") from exc
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip(string.whitespace):
            continue
        parts = line.split(",")
        if len(parts) != size:
            raise FormatError(f"{path}:{lineno}: expected {size} values, got {len(parts)}")
        bad = [p for p in parts if not CSV_VALUE_RE.fullmatch(p)]
        if bad:
            raise FormatError(f"{path}:{lineno}: unparseable value {bad[0]!r}")
        rows.append([float(p) for p in parts])
    if len(rows) != size:
        raise FormatError(f"{path}: expected {size} matrix rows, got {len(rows)}")
    matrix = SimilarityMatrix(values=np.array(rows, dtype=np.float64), token_count=tokens)
    try:
        matrix.validate()
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return matrix, hashlib.sha256(raw).hexdigest()
