"""Dense float32 kernels for the encoder forward pass and similarity probe.

Storage is float32 throughout; every reduction (matmul accumulators, dot
products, norms, row statistics) runs in float64 so that averages over
large token counts do not drift. The kernels check no shapes: they trust
those of a model that `model.check_model` accepted at the library's entry.
"""

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# tanh-approximation coefficient, sqrt(2/pi) truncated to this exact value
# so outputs are reproducible across implementations.
GELU_COEF = 0.7978845608

# Vectors with a smaller 2-norm are treated as direction-free: cosine
# against anything is defined as 0 instead of dividing by ~0.
NORM_EPS = 1e-12

# Added to the row variance inside `layernorm`'s square root.
LAYERNORM_EPS = 1e-12


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, stored as float32.

    Operands may be stacks of matrices, (..., m, k) x (..., k, n); each
    slice is multiplied as a 2-D product, as in `np.matmul`.
    """
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with per-row max subtraction for stability."""
    shifted = x.astype(np.float64)
    shifted -= shifted.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted.astype(np.float32)


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize each last-axis row to zero mean / unit population variance,
    then scale and shift."""
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    normed = (x64 - mean) / np.sqrt(var + LAYERNORM_EPS)
    return (normed * gamma.astype(np.float64) + beta.astype(np.float64)).astype(np.float32)


def gelu(x: np.ndarray) -> np.ndarray:
    """Elementwise GELU, tanh approximation."""
    x64 = x.astype(np.float64)
    # x*x*x, not x**3: numpy's float64 power is ~60x slower than two
    # multiplies and agrees with them to within a float32 ulp after the cast
    inner = GELU_COEF * (x64 + 0.044715 * (x64 * x64 * x64))
    # 0.5 * x * (1 + tanh(inner)), in place: the float64 FFN block is the
    # largest activation of a batch
    np.tanh(inner, out=inner)
    inner += 1.0
    x64 *= 0.5
    inner *= x64
    return inner.astype(np.float32)


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Float64 copy of `x` with each last-axis vector scaled to unit norm.

    Vectors with norm below NORM_EPS become all-zero, so a dead vector
    scores cosine 0 against everything instead of dividing by ~0.
    """
    x64 = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.einsum("...d,...d->...", x64, x64))
    dead = norms < NORM_EPS
    norms[dead] = 1.0
    unit = x64 / norms[..., None]
    unit[dead] = 0.0
    return unit


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


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = None


@contextmanager
def single_threaded_blas():
    """Run the block with BLAS on one thread, then restore the previous count.

    For worker pools whose workers each call BLAS: BLAS's own threads would
    compete with the workers for the same cores, and children forked inside
    the block inherit the one-thread count. The count is process-wide, so
    overlapping blocks (from several threads) share one pin, and the count
    read before the first is restored after the last. Does nothing when
    numpy's BLAS is not the bundled OpenBLAS.
    """
    global _pin_depth, _pin_restore
    handle = _openblas_threads()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)
