"""Independent reference implementations the tests check the package against.

Each one is written the slow, literal way on purpose: a per-vector cosine,
a per-token view of the forward pass, a layer-by-layer final state, and a
transliteration of the published scan. None of them is used by the
pipeline itself. `one_block` and `sequence_states` run one sequence as
the one row block of its own dataset, through the internal
`forward.hidden_states`, so they stay independent of the public
`forward_hidden_states`.
"""

from dataclasses import dataclass

import numpy as np

from asc.data import TokenDataset, row_blocks
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
