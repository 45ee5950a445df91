"""Independent reference implementations the tests check the package against.

Each one is written the slow, literal way on purpose: a per-vector cosine,
a per-token view of the forward pass, a layer-by-layer final state, and a
transliteration of the published scan. None of them is used by the
pipeline itself.
"""

from dataclasses import dataclass

import numpy as np

from asc.errors import ShapeError, ValidationError
from asc.forward import embed, encoder_layer, forward_hidden_states
from asc.tensor_ops import NORM_EPS


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped into [-1, 1].

    Returns 0.0 when either norm is below NORM_EPS, so a dead vector
    registers as maximally dissimilar instead of raising.
    """
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine: incompatible shapes {u.shape} and {v.shape}")
    u64 = u.astype(np.float64)
    v64 = v.astype(np.float64)
    norm_u = np.sqrt(np.dot(u64, u64))
    norm_v = np.sqrt(np.dot(v64, v64))
    if norm_u < NORM_EPS or norm_v < NORM_EPS:
        return 0.0
    value = np.dot(u64, v64) / (norm_u * norm_v)
    return float(min(1.0, max(-1.0, value)))


@dataclass
class LayerTapFrame:
    """Per-token view of every layer's output vector (L+1 vectors of length d)."""

    token_index: int
    layer_outputs: list


def forward_with_taps(config, weights, tokens):
    """Yield one LayerTapFrame per token position; outputs are views, not copies."""
    states = forward_hidden_states(config, weights, tokens)
    for t in range(len(tokens)):
        yield LayerTapFrame(token_index=t, layer_outputs=[state[t] for state in states])


def final_hidden_state(config, weights, tokens) -> np.ndarray:
    """Output of the last surviving layer (the embedding for 0-layer models).

    Equal, bit for bit, to `forward_hidden_states(...)[-1]`, but holds one
    running state instead of all L+1.
    """
    state = embed(config, weights, tokens)
    for k in range(config.num_layers):
        state = encoder_layer(config, weights, k, state)
    return state


def add_frame(acc, frame):
    """Accumulate one token's L+1 layer outputs into a SimilarityAccumulator."""
    if len(frame.layer_outputs) != acc.size:
        raise ValidationError(
            f"frame has {len(frame.layer_outputs)} layer outputs, accumulator expects {acc.size}"
        )
    acc.add_states([out[None, :] for out in frame.layer_outputs])


def replay_oracle(sim, threshold: float):
    """Literal transliteration of the published scan, kept as an independent
    code path for cross-checking plan(). Returns the redundant index set.
    """
    if not 0 < threshold <= 1:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    sim.validate()
    num_layers = sim.size - 1
    marked = [False] * (num_layers + 1)
    i = 0
    while i <= num_layers:
        j = num_layers
        while j >= i:
            if sim.values[i][j] >= threshold:
                break
            j -= 1
        if j > i:
            for k in range(i + 1, j + 1):
                marked[k] = True
        i = j + 1
    return {idx for idx, flag in enumerate(marked) if flag}
