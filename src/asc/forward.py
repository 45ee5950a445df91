"""Encoder forward pass that keeps every layer's output.

The hidden-state stack is indexed 0..L: index 0 is the embedding output,
index k (1..L) the output of encoder layer k. Layers are post-norm
(residual add, then layernorm); with norm_mode="none" both layernorms are
skipped, which makes a layer with zero value/output/FFN projections an
exact residual passthrough.

States have shape (..., n, d): one sequence is (n, d), and a batch of B
equal-length sequences is (B, n, d), with no padding and no mask. A
`data.RowBlock` packs such batches of several lengths; its states are
(rows, d), with each length segment's rows in one run. Embedding,
projections, the FFN and the layernorms run once over all rows of a
block; attention runs per segment, all heads of all its sequences as one
stacked product. An array input is the one-segment case, so each
sequence's states in a batch or block equal its states on its own, bit
for bit.
"""

import math

import numpy as np

from . import tensor_ops
from .data import RowBlock, validate_sequence


def embed(config, weights, tokens) -> np.ndarray:
    """Token + position embedding rows; row-normalized when norm_mode="standard".

    `tokens` is one sequence of ids, an array of shape (..., n) or a
    `RowBlock` (whose rows come back as one (rows, d) array); ids are
    checked by `data.validate_sequence` either way.
    The embedding normalization is parameter-free (gamma=1, beta=0): the
    canonical tensor set carries no embedding-layernorm weights.
    """
    if isinstance(tokens, RowBlock):
        rows = np.concatenate([_embed_rows(config, weights, ids).reshape(-1, config.hidden_dim)
                               for _, ids in tokens.batches])
    else:
        rows = _embed_rows(config, weights, tokens)
    if config.norm_mode == "standard":
        d = config.hidden_dim
        rows = tensor_ops.layernorm(
            rows, np.ones(d, dtype=np.float32), np.zeros(d, dtype=np.float32))
    return rows


def _embed_rows(config, weights, tokens):
    ids = validate_sequence(config, tokens)
    return weights["embed.token"][ids] + weights["embed.pos"][: ids.shape[-1]]


def _attention(config, weights, k, rows, segments):
    """Self-attention of state rows (rows, d) within each (B, n) segment, one row per token."""
    prefix = f"layer.{k}.attn"

    def project(name):
        return tensor_ops.matmul(rows, weights[f"{prefix}.{name}.w"]) + weights[f"{prefix}.{name}.b"]

    q, key, v = project("q"), project("k"), project("v")
    parts, lo = [], 0
    for b, n in segments:
        hi = lo + b * n
        parts.append(_segment_attention(config, q[lo:hi], key[lo:hi], v[lo:hi], b, n))
        lo = hi
    ctx = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return tensor_ops.matmul(ctx, weights[f"{prefix}.o.w"]) + weights[f"{prefix}.o.b"]


def _segment_attention(config, q, key, v, b, n):
    """Attention among the n rows of each of b sequences, given their q/k/v rows."""
    head_dim = config.hidden_dim // config.num_heads

    def heads(x):
        return x.reshape(b, n, config.num_heads, head_dim).swapaxes(-2, -3)  # (b, H, n, head_dim)

    q, key, v = heads(q), heads(key), heads(v)
    scale = np.float32(1.0 / math.sqrt(head_dim))
    scores = tensor_ops.matmul(q, key.swapaxes(-1, -2)) * scale
    ctx = tensor_ops.matmul(tensor_ops.softmax_rows(scores), v)
    return ctx.swapaxes(-2, -3).reshape(b * n, config.hidden_dim)


def encoder_layer(config, weights, k, x, segments=None) -> np.ndarray:
    """One post-norm encoder block; `k` is the 0-based storage index.

    `x` is (..., n, d), or a `RowBlock`'s (rows, d) states with its `segments`.
    """
    prefix = f"layer.{k}"
    rows = x.reshape(-1, config.hidden_dim)
    if segments is None:
        segments = ((rows.shape[0] // x.shape[-2], x.shape[-2]),)
    y1 = rows + _attention(config, weights, k, rows, segments)
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

    For one sequence each state is (n, d); for a (B, n) id array, (B, n, d);
    for a `RowBlock`, (rows, d).
    """
    segments = tokens.segments if isinstance(tokens, RowBlock) else None
    states = [embed(config, weights, tokens)]
    for k in range(config.num_layers):
        states.append(encoder_layer(config, weights, k, states[-1], segments))
    return states
