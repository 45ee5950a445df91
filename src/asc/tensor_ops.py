"""Dense float32 kernels for the encoder forward pass and the pipeline's one
cosine, and nothing else: no I/O, threads or process state.

Storage is float32 throughout; every reduction (matmul accumulators, dot
products, norms, row statistics) runs in float64 so that averages over
large token counts do not drift. The kernels check no shapes: they trust
those of a model that `model.check_model` accepted at the library's entry.
"""

import numpy as np

# tanh-approximation coefficient, sqrt(2/pi) truncated to this exact value
# so outputs are reproducible across implementations.
GELU_COEF = 0.7978845608

# Vectors with a smaller 2-norm are treated as direction-free: cosine
# against anything is defined as 0 instead of dividing by ~0.
NORM_EPS = 1e-12

# Added to the row variance inside `layernorm`'s square root.
LAYERNORM_EPS = 1e-12

# `softmax_rows` clamps max-shifted scores here, above ln(DBL_MIN) ~ -708.4 where `exp` turns slow
# to return subnormals. No output bit moves: the max lane's exp(0) = 1 makes the row sum >= 1, and
# a lane at the floor, clamped or not, is < 1e-304, a float32 +0 share that the sum absorbs.
EXP_FLOOR = -700.0


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
    np.maximum(shifted, EXP_FLOOR, out=shifted)  # propagates NaN; -inf lanes still give +0
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


def cosine_grams(states) -> np.ndarray:
    """(rows, k, k) cosines x.y / sqrt((x.x)(y.y)) between each pair of the k
    (rows, d) float32 `states`, row by row, in float64 and clamped into [-1, 1].

    Two live rows with the same bits score exactly 1: float32 products are
    exact in float64, so their dots are one value g, and sqrt(g * g) == g.
    A dead row (x.x < NORM_EPS**2) scores 0 against everything.
    """
    # one state at a time into one float64 block, so a batch holds no
    # float32 or float64 copy of its whole state stack beside it
    block = np.empty((len(states), *states[0].shape))
    for i, state in enumerate(states):
        block[i] = state
    grams = np.einsum("ind,jnd->nij", block, block)
    del block  # so the division's (rows, k, k) temporaries need no room beside it
    self_dots = np.diagonal(grams, axis1=1, axis2=2).copy()
    self_dots[self_dots < NORM_EPS**2] = np.inf  # its cosines divide to 0
    # one correctly rounded sqrt of one product: sqrt(a) * sqrt(b) loses the exact 1
    grams /= np.sqrt(self_dots[:, :, None] * self_dots[:, None, :])
    return np.clip(grams, -1.0, 1.0, out=grams)
