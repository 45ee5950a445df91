"""Synthetic models and datasets with planted, analytically known structure.

Identity layers are planted by zeroing the value/output/FFN projections
and their biases with normalization disabled, which makes the block an
exact residual passthrough: its output equals its input bit for bit.
Every other layer is drawn at a weight scale that demonstrably changes
the representation: the generator runs a probe batch through the layer
and retries with a doubled scale until the mean input/output token
cosine, as the similarity matrix computes it, falls below SEPARATION_CAP.
"""

import math
from collections.abc import Iterable
from operator import itemgetter

import numpy as np

from .data import RowBlock, TokenDataset
from .errors import ValidationError, require_int, require_type
from .forward import embed, encoder_layer
from .model import ModelConfig, ModelWeights, layer_shapes, tensor_shapes
from .tensor_ops import cosine_grams

# Upper bound the generator enforces on the mean matrix cosine (`cosine_grams`)
# between a non-identity layer's input and output on its probe batch.
SEPARATION_CAP = 0.8
_MAX_SCALE_RETRIES = 10
_PROBE_SEQUENCES = 4
_PROBE_LEN = 16
# numpy makes no array of more bytes than an int64 counts, and synth draws
# 8-byte values: int64 ids, and float64 weights before their float32 cast
MAX_DRAW = np.iinfo(np.int64).max // 8


def _require_drawable(what: str, count: int):
    if count > MAX_DRAW:
        raise ValidationError(f"{what} is {count}, beyond the {MAX_DRAW} values numpy can draw")


def _layer_tensors(rng, suffixes: dict, slot: int, scale: float = None) -> dict:
    """Fresh `layer.{slot}.*` tensors of the `layer_shapes` map `suffixes`,
    drawn from `rng` in schema order.

    q/k weights (d, d) are normal / sqrt(d) and layernorms are identity in every
    layer. A passthrough layer (scale None) zeroes everything else; a mixing
    layer draws the other 1-D tensors as 0.1 * normal and the 2-D ones as
    normal * scale.
    """
    tensors = {}
    for suffix, shape in suffixes.items():
        if suffix in ("attn.q.w", "attn.k.w"):
            tensor = rng.standard_normal(shape).astype(np.float32) / np.float32(np.sqrt(shape[0]))
        elif suffix.startswith("ln"):
            tensor = (np.ones if suffix.endswith(".g") else np.zeros)(shape, dtype=np.float32)
        elif scale is None:
            tensor = np.zeros(shape, dtype=np.float32)
        elif len(shape) == 1:
            tensor = (0.1 * rng.standard_normal(shape)).astype(np.float32)
        else:
            tensor = rng.standard_normal(shape).astype(np.float32) * np.float32(scale)
        tensors[f"layer.{slot}.{suffix}"] = tensor
    return tensors


def gen_model(num_layers: int, hidden_dim: int, num_heads: int, ffn_dim: int,
              vocab_size: int, identity_layers, seed: int, max_seq_len: int = 128):
    """Deterministically generate a norm-free model with planted identity layers.

    `identity_layers` holds distinct 1-based encoder indices, as the similarity
    matrix counts them (index 0 is the embedding and cannot be planted).
    Every value is finite by construction; `model.save_model` scans them all.
    """
    require_int("seed", seed, 0)
    config = ModelConfig(
        vocab_size=vocab_size,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        num_heads=num_heads,
        ffn_dim=ffn_dim,
        max_seq_len=max_seq_len,
        norm_mode="none",
    )
    config.validate()
    identity = set()
    for i in require_type("identity_layers", identity_layers, Iterable):
        if require_int("identity layer index", i, 1) in identity:
            raise ValidationError(f"identity layer {i} given twice")
        identity.add(i)
    invalid = sorted(i for i in identity if i > num_layers)
    if invalid:
        raise ValidationError(f"identity layers {invalid} outside encoder range 1..{num_layers}")

    # only two shapes kept: the whole map held through the loop cost ~0.8 MB of peak RSS
    token_shape, pos_shape = itemgetter("embed.token", "embed.pos")(tensor_shapes(config))
    suffixes = layer_shapes(config)
    for shape in (token_shape, pos_shape, *suffixes.values()):
        _require_drawable(f"the size of a {shape} tensor", math.prod(shape))

    rng = np.random.default_rng(seed)
    tensors = {
        "embed.token": rng.standard_normal(token_shape).astype(np.float32),
        "embed.pos": (0.5 * rng.standard_normal(pos_shape)).astype(np.float32),
    }
    weights = ModelWeights(tensors)

    segments = ((_PROBE_SEQUENCES, min(_PROBE_LEN, max_seq_len)),)
    # one batch, built whole: `row_blocks` runs each sequence of a length-1 probe alone
    ids = rng.integers(0, vocab_size, size=segments[0])
    probe = embed(config, weights, RowBlock(((range(_PROBE_SEQUENCES), ids),)))

    for encoder_index in range(1, num_layers + 1):
        slot = encoder_index - 1
        if encoder_index in identity:
            tensors.update(_layer_tensors(rng, suffixes, slot))
            if not np.array_equal(encoder_layer(config, weights, slot, probe, segments), probe):
                raise RuntimeError(f"planted identity layer {encoder_index} is not a passthrough")
            continue

        scale = 1.0 / np.sqrt(hidden_dim)
        accepted = False
        for _ in range(_MAX_SCALE_RETRIES):
            tensors.update(_layer_tensors(rng, suffixes, slot, scale))
            out = encoder_layer(config, weights, slot, probe, segments)
            if cosine_grams((probe, out))[:, 0, 1].mean() < SEPARATION_CAP:
                probe = out
                accepted = True
                break
            scale *= 2.0
        if not accepted:
            raise RuntimeError(
                f"generator could not separate layer {encoder_index} below "
                f"cosine {SEPARATION_CAP} after {_MAX_SCALE_RETRIES} scale retries"
            )

    return config, weights


def gen_dataset(num_sequences: int, min_len: int, max_len: int,
                vocab_size: int, seed: int) -> TokenDataset:
    """Seeded uniform random token sequences with lengths in [min_len, max_len]."""
    for name, value, minimum in (("num_sequences", num_sequences, 0), ("min_len", min_len, 1),
                                 ("max_len", max_len, 1), ("vocab_size", vocab_size, 1),
                                 ("seed", seed, 0)):
        require_int(name, value, minimum)
    _require_drawable("max_len", max_len)
    _require_drawable("vocab_size", vocab_size)
    if min_len > max_len:
        raise ValidationError(f"need 1 <= min_len <= max_len, got {min_len}..{max_len}")
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(num_sequences):
        length = int(rng.integers(min_len, max_len + 1))
        sequences.append(rng.integers(0, vocab_size, size=length).tolist())
    return TokenDataset(sequences)
