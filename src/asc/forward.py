"""Encoder forward pass that keeps every layer's output.

The hidden-state stack is indexed 0..L: index 0 is the embedding output,
index k (1..L) the output of encoder layer k. Blocks are post-norm
(residual add, then layernorm); with norm_mode="none" both layernorms are
skipped, which makes a layer with zero value/output/FFN projections an
exact residual passthrough.
"""

import math

import numpy as np

from . import tensor_ops
from .data import validate_sequence

LAYERNORM_EPS = 1e-12


def embed(config, weights, tokens) -> np.ndarray:
    """Token + position embedding rows; row-normalized when norm_mode="standard".

    The embedding normalization is parameter-free (gamma=1, beta=0): the
    canonical tensor set carries no embedding-layernorm weights.
    """
    validate_sequence(config, tokens)
    ids = np.asarray(tokens, dtype=np.int64)
    rows = weights["embed.token"][ids] + weights["embed.pos"][: len(ids)]
    if config.norm_mode == "standard":
        d = config.hidden_dim
        rows = tensor_ops.layernorm(
            rows, np.ones(d, dtype=np.float32), np.zeros(d, dtype=np.float32), LAYERNORM_EPS
        )
    return rows


def _attention(config, weights, k, x):
    prefix = f"layer.{k}.attn"
    q = tensor_ops.matmul(x, weights[f"{prefix}.q.w"]) + weights[f"{prefix}.q.b"]
    key = tensor_ops.matmul(x, weights[f"{prefix}.k.w"]) + weights[f"{prefix}.k.b"]
    v = tensor_ops.matmul(x, weights[f"{prefix}.v.w"]) + weights[f"{prefix}.v.b"]
    head_dim = config.hidden_dim // config.num_heads
    scale = np.float32(1.0 / math.sqrt(head_dim))
    ctx = np.empty_like(q)
    for h in range(config.num_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        scores = tensor_ops.matmul(q[:, lo:hi], key[:, lo:hi].T) * scale
        attn = tensor_ops.softmax_rows(scores)
        ctx[:, lo:hi] = tensor_ops.matmul(attn, v[:, lo:hi])
    return tensor_ops.matmul(ctx, weights[f"{prefix}.o.w"]) + weights[f"{prefix}.o.b"]


def encoder_layer(config, weights, k, x) -> np.ndarray:
    """One post-norm encoder block; `k` is the 0-based storage index."""
    prefix = f"layer.{k}"
    y1 = x + _attention(config, weights, k, x)
    if config.norm_mode == "standard":
        y1 = tensor_ops.layernorm(
            y1, weights[f"{prefix}.ln1.g"], weights[f"{prefix}.ln1.b"], LAYERNORM_EPS
        )
    hidden = tensor_ops.gelu(
        tensor_ops.matmul(y1, weights[f"{prefix}.ffn.w1"]) + weights[f"{prefix}.ffn.b1"]
    )
    ffn = tensor_ops.matmul(hidden, weights[f"{prefix}.ffn.w2"]) + weights[f"{prefix}.ffn.b2"]
    y = y1 + ffn
    if config.norm_mode == "standard":
        y = tensor_ops.layernorm(
            y, weights[f"{prefix}.ln2.g"], weights[f"{prefix}.ln2.b"], LAYERNORM_EPS
        )
    return y


def forward_hidden_states(config, weights, tokens) -> list:
    """All L+1 hidden states for one sequence, computed in a single pass."""
    states = [embed(config, weights, tokens)]
    for k in range(config.num_layers):
        states.append(encoder_layer(config, weights, k, states[-1]))
    return states


def final_hidden_state(config, weights, tokens) -> np.ndarray:
    """Output of the last surviving layer (the embedding for 0-layer models)."""
    return forward_hidden_states(config, weights, tokens)[-1]
