"""Encoder forward pass that keeps every layer's output.

The hidden-state stack is indexed 0..L: index 0 is the embedding output,
index k (1..L) the output of encoder layer k. Blocks are post-norm
(residual add, then layernorm); with norm_mode="none" both layernorms are
skipped, which makes a layer with zero value/output/FFN projections an
exact residual passthrough.

States have shape (..., n, d): one sequence is (n, d), and a batch of B
equal-length sequences (from `data.length_batches`) is (B, n, d), with no
padding and no mask. Projections and the FFN run as one product over all
B*n rows, and attention runs all heads of all sequences as one stacked
product, so each sequence's states in a batch equal its states on its own,
bit for bit.
"""

import math

import numpy as np

from . import tensor_ops
from .data import validate_sequence


def embed(config, weights, tokens) -> np.ndarray:
    """Token + position embedding rows; row-normalized when norm_mode="standard".

    `tokens` is one sequence of ids or an array of shape (..., n), checked by
    `data.validate_sequence` either way.
    The embedding normalization is parameter-free (gamma=1, beta=0): the
    canonical tensor set carries no embedding-layernorm weights.
    """
    ids = validate_sequence(config, tokens)
    rows = weights["embed.token"][ids] + weights["embed.pos"][: ids.shape[-1]]
    if config.norm_mode == "standard":
        d = config.hidden_dim
        rows = tensor_ops.layernorm(
            rows, np.ones(d, dtype=np.float32), np.zeros(d, dtype=np.float32))
    return rows


def _attention(config, weights, k, x):
    """Self-attention of states `x` (..., n, d), returned as one row per token."""
    prefix = f"layer.{k}.attn"
    rows = x.reshape(-1, config.hidden_dim)
    heads_shape = x.shape[:-1] + (config.num_heads, config.hidden_dim // config.num_heads)

    def project(name):
        out = tensor_ops.matmul(rows, weights[f"{prefix}.{name}.w"]) + weights[f"{prefix}.{name}.b"]
        return out.reshape(heads_shape).swapaxes(-2, -3)  # (..., H, n, head_dim)

    q, key, v = project("q"), project("k"), project("v")
    scale = np.float32(1.0 / math.sqrt(heads_shape[-1]))
    scores = tensor_ops.matmul(q, key.swapaxes(-1, -2)) * scale
    ctx = tensor_ops.matmul(tensor_ops.softmax_rows(scores), v)
    ctx = ctx.swapaxes(-2, -3).reshape(rows.shape)
    return tensor_ops.matmul(ctx, weights[f"{prefix}.o.w"]) + weights[f"{prefix}.o.b"]


def encoder_layer(config, weights, k, x) -> np.ndarray:
    """One post-norm encoder block on states (..., n, d); `k` is the 0-based storage index."""
    prefix = f"layer.{k}"
    rows = x.reshape(-1, config.hidden_dim)
    y1 = rows + _attention(config, weights, k, x)
    if config.norm_mode == "standard":
        y1 = tensor_ops.layernorm(y1, weights[f"{prefix}.ln1.g"], weights[f"{prefix}.ln1.b"])
    hidden = tensor_ops.gelu(
        tensor_ops.matmul(y1, weights[f"{prefix}.ffn.w1"]) + weights[f"{prefix}.ffn.b1"]
    )
    ffn = tensor_ops.matmul(hidden, weights[f"{prefix}.ffn.w2"]) + weights[f"{prefix}.ffn.b2"]
    y = y1 + ffn
    if config.norm_mode == "standard":
        y = tensor_ops.layernorm(y, weights[f"{prefix}.ln2.g"], weights[f"{prefix}.ln2.b"])
    return y.reshape(x.shape)


def forward_hidden_states(config, weights, tokens) -> list:
    """All L+1 hidden states, computed in a single pass.

    For one sequence each state is (n, d); for a (B, n) id array, (B, n, d).
    """
    states = [embed(config, weights, tokens)]
    for k in range(config.num_layers):
        states.append(encoder_layer(config, weights, k, states[-1]))
    return states


def final_hidden_state(config, weights, tokens) -> np.ndarray:
    """Output of the last surviving layer (the embedding for 0-layer models).

    Equal, bit for bit, to `forward_hidden_states(...)[-1]`, but holds one
    running state instead of all L+1.
    """
    state = embed(config, weights, tokens)
    for k in range(config.num_layers):
        state = encoder_layer(config, weights, k, state)
    return state
