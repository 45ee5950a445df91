"""Independent reference implementations the tests check the package against.

Each one is written the slow, literal way on purpose: a per-vector cosine,
a softmax without the `exp` floor, a per-token view of the forward pass, a
layer-by-layer final state, and a transliteration of the published scan.
None of them is used by the pipeline itself. `one_block` and
`sequence_states` run one sequence as the one row block of its own dataset,
through `forward.hidden_states`, so a sequence's states in a block of many
can be checked against its states on its own.
"""

from dataclasses import dataclass

import numpy as np

from asc.data import RowBlock, TokenDataset, row_blocks
from asc.errors import ValidationError
from asc.forward import embed, encoder_layer, hidden_states
from asc.tensor_ops import NORM_EPS


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped into [-1, 1].

    Returns 0.0 when either norm is below NORM_EPS, so a dead vector
    registers as maximally dissimilar instead of raising.
    """
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ValidationError(f"cosine: incompatible shapes {u.shape} and {v.shape}")
    u64 = u.astype(np.float64)
    v64 = v.astype(np.float64)
    norm_u = np.sqrt(np.dot(u64, u64))
    norm_v = np.sqrt(np.dot(v64, v64))
    if norm_u < NORM_EPS or norm_v < NORM_EPS:
        return 0.0
    value = np.dot(u64, v64) / (norm_u * norm_v)
    return float(min(1.0, max(-1.0, value)))


def unclamped_softmax_rows(x: np.ndarray) -> np.ndarray:
    """`tensor_ops.softmax_rows` without its `EXP_FLOOR` clamp: `exp` runs on
    every max-shifted score, subnormal and underflowing ones included."""
    shifted = x.astype(np.float64)
    shifted -= shifted.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted.astype(np.float32)


@dataclass
class LayerTapFrame:
    """Per-token view of every layer's output vector (L+1 vectors of length d)."""

    token_index: int
    layer_outputs: list


def one_block(config, tokens):
    """The one row block of a one-sequence `TokenDataset`, checked against `config`."""
    (block,) = row_blocks(TokenDataset([tokens]), config)
    return block


def sequence_states(config, weights, tokens) -> list:
    """All L+1 (n, d) hidden states of one sequence, run as a block of its own."""
    return hidden_states(config, weights, one_block(config, tokens))


def forward_with_taps(config, weights, tokens):
    """Yield one LayerTapFrame per token position; outputs are views, not copies."""
    states = sequence_states(config, weights, tokens)
    for t in range(len(tokens)):
        yield LayerTapFrame(token_index=t, layer_outputs=[state[t] for state in states])


def final_hidden_state(config, weights, tokens) -> np.ndarray:
    """Output of the last surviving layer (the embedding for 0-layer models)
    for one sequence.

    Equal, bit for bit, to `sequence_states(...)[-1]`, but holds one
    running state instead of all L+1.
    """
    block = one_block(config, tokens)
    state = embed(config, weights, block)
    for k in range(config.num_layers):
        state = encoder_layer(config, weights, k, state, block.segments)
    return state


def frame_sums(acc, frame):
    """One token's (L+1)x(L+1) cosine sums from a SimilarityAccumulator, run as
    the one-token sequence 0 of a block of its own."""
    block = RowBlock((([0], np.zeros((1, 1), dtype=np.int64)),))
    ((_, sums),) = acc.add_states([out[None, :] for out in frame.layer_outputs], block)
    return sums


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
