"""Encoder forward pass that keeps every layer's output.

The hidden-state stack is indexed 0..L: index 0 is the embedding output,
index k (1..L) the output of encoder layer k. Layers are post-norm
(residual add, then layernorm); with norm_mode="none" both layernorms are
skipped, which makes a layer with zero value/output/FFN projections an
exact residual passthrough.

Only `forward_hidden_states` checks its arguments: the model by
`model.check_model`, the `TokenDataset` by `data.row_blocks`, whose blocks
the other functions take unchecked. A block's states are (rows, d), one row
per token, with each sequence's rows consecutive and each length segment's
(B, n) sequences in one run; there is no padding and no mask. Embedding,
projections, the FFN and the layernorms run once over all rows; attention
runs per segment, all heads of all its sequences as one stacked product, so
each sequence's states equal its states in a block of its own, bit for bit.
"""

import math

import numpy as np

from . import tensor_ops
from .data import row_blocks
from .model import check_model


def embed(config, weights, block) -> np.ndarray:
    """Token + position embedding rows of a `RowBlock`, (rows, d);
    row-normalized when norm_mode="standard".

    The embedding normalization is parameter-free (gamma=1, beta=0): the
    canonical tensor set carries no embedding-layernorm weights.
    """
    d = config.hidden_dim
    rows = np.concatenate([(weights["embed.token"][ids] + weights["embed.pos"][: ids.shape[1]])
                           .reshape(-1, d) for _, ids in block.batches])
    if config.norm_mode == "standard":
        rows = tensor_ops.layernorm(
            rows, np.ones(d, dtype=np.float32), np.zeros(d, dtype=np.float32))
    return rows


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


def encoder_layer(config, weights, k, rows, segments) -> np.ndarray:
    """One post-norm encoder block over a block's (rows, d) states, given its
    `segments`; `k` is the 0-based storage index."""
    prefix = f"layer.{k}"
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
    return y


def forward_hidden_states(config, weights, dataset) -> list:
    """Each sequence's L+1 hidden states as one float32 (L+1, n, d) array, in
    dataset order, equal bit for bit to that sequence's states on its own."""
    check_model(config, weights)
    blocks = row_blocks(dataset, config)
    per_sequence = [None] * len(dataset)
    for block in blocks:
        stack = np.stack(hidden_states(config, weights, block))  # (L+1, rows, d)
        for i, rows in block.split(stack.swapaxes(0, 1)):
            per_sequence[i] = rows.swapaxes(0, 1)  # a view; the stack holds only these states
    return per_sequence


def hidden_states(config, weights, block) -> list:
    """All L+1 (rows, d) hidden states of a `RowBlock`, computed in a single pass."""
    states = [embed(config, weights, block)]
    for k in range(config.num_layers):
        states.append(encoder_layer(config, weights, k, states[-1], block.segments))
    return states
