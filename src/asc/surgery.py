"""Physically remove redundant layers and measure the damage.

Surgery never mutates its input: it returns a new (config, weights) pair
in which surviving layers keep their tensors bit-exactly and are
renumbered consecutively from 0, while config.layer_ids tracks each
survivor's original index.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import similarity
from .errors import ValidationError, require_int, require_type
from .forward import embed, encoder_layer, hidden_states
from .model import ModelWeights, check_model, layer_shapes
from .planner import PrunePlan
from .tensor_ops import cosine_grams


def apply_plan(config, weights, plan):
    """Drop a valid plan's redundant layers (each >= 1) and renumber the survivors."""
    check_model(config, weights)
    plan = require_type("plan", plan, PrunePlan).validate()
    num_layers = config.num_layers
    bad = [i for i in plan.redundant_layers if i > num_layers]
    if bad:
        raise ValidationError(
            f"plan names layers {bad} outside this model's range 1..{num_layers}"
        )

    removed = set(plan.redundant_layers)
    survivors = [e for e in range(1, num_layers + 1) if e not in removed]
    new_config = replace(
        config,
        num_layers=len(survivors),
        layer_ids=tuple(config.layer_ids[e - 1] for e in survivors),
    )
    tensors = {name: weights[name] for name in ("embed.token", "embed.pos")}
    suffixes = layer_shapes(config)
    # slot k of the pruned model is encoder layer survivors[k]
    for slot, encoder_index in enumerate(survivors):
        for suffix in suffixes:
            tensors[f"layer.{slot}.{suffix}"] = weights[f"layer.{encoder_index - 1}.{suffix}"]
    return new_config, ModelWeights(tensors)


@dataclass
class DivergenceReport:
    """Final-layer agreement between two models over a dataset."""

    token_count: int
    mean_cosine: float
    min_cosine: float
    max_abs_diff: float


def _same_bits(x, y) -> bool:
    """True when two float32 arrays hold the same bits (0.0 and -0.0 differ)."""
    return x is y or (x.shape == y.shape and x.dtype == y.dtype
                      and np.array_equal(x.view(np.uint32), y.view(np.uint32)))


def _shared_with(config_a, weights_a, config_b, weights_b):
    """What B can take from A's states: (same embedding?, {B slot: A slot}).

    A slot pairs with B's slot when it has the same layer id and bit-equal
    tensors; nothing pairs unless both run layers alike (norm mode, heads).
    """
    if (config_a.norm_mode, config_a.num_heads) != (config_b.norm_mode, config_b.num_heads):
        return False, {}
    same_embed = all(_same_bits(weights_a[name], weights_b[name])
                     for name in ("embed.token", "embed.pos"))
    slot_a = {layer_id: k for k, layer_id in enumerate(config_a.layer_ids)}
    pairs = {s: slot_a[i] for s, i in enumerate(config_b.layer_ids) if i in slot_a}
    suffixes = layer_shapes(config_b)
    return same_embed, {s: k for s, k in pairs.items() if all(
        _same_bits(weights_b[f"layer.{s}.{x}"], weights_a[f"layer.{k}.{x}"]) for x in suffixes)}


def compare_models(config_a, weights_a, config_b, weights_b, dataset,
                   workers: int = 1) -> DivergenceReport:
    """Per-token cosine and max-abs-difference between final-layer outputs.

    Both models are checked once, then the dataset, checked against both,
    runs on `similarity._map_sequences`' pool of at most `workers` workers.
    A runs once per block and keeps every state. Where B's slot holds one of
    A's layers (same id, same tensor bits) and B's input to it has the bits
    of that layer's input in A, B takes A's output instead of running the
    layer: the same tensors on the same bits give the same bits. A NaN or
    inf final state is refused, not reported. Cosines are `analyze`'s
    (`cosine_grams`: a token whose states share their bits scores exactly 1),
    summed per sequence, then in dataset order, so the report is the same
    bit for bit at every worker count.
    """
    workers = require_int("workers", workers, 1)
    check_model(config_a, weights_a)
    check_model(config_b, weights_b)
    if config_a.hidden_dim != config_b.hidden_dim:
        raise ValidationError(
            f"models have different hidden dims: {config_a.hidden_dim} vs {config_b.hidden_dim}"
        )
    same_embed, pairs = _shared_with(config_a, weights_a, config_b, weights_b)

    def compare_block(block):
        """(dataset index, (cosine sum, min cosine, max abs diff)) of each sequence of a block."""
        states_a = hidden_states(config_a, weights_a, block)
        state = states_a[0] if same_embed else embed(config_b, weights_b, block)
        for s in range(config_b.num_layers):
            k = pairs.get(s)
            if k is not None and _same_bits(state, states_a[k]):
                state = states_a[k + 1]
            else:
                state = encoder_layer(config_b, weights_b, s, state, block.segments)
        out_a = states_a[-1]
        if not (np.isfinite(out_a).all() and np.isfinite(state).all()):
            raise ValidationError("the models' final-layer states hold non-finite values")
        cos = cosine_grams((out_a, state))[:, 0, 1]
        diff = np.abs(out_a.astype(np.float64) - state).max(axis=1)
        return [(i, (seq_cos.sum(), seq_cos.min(), seq_diff.max()))
                for (i, seq_cos), (_, seq_diff) in zip(block.split(cos), block.split(diff))]

    per_sequence = similarity._map_sequences(compare_block, dataset, (config_a, config_b), workers)
    if not per_sequence:
        raise ValidationError("cannot compare over an empty dataset (0 tokens)")
    cos_sums, cos_mins, diff_maxes = zip(*per_sequence)
    count = dataset.total_tokens
    return DivergenceReport(
        token_count=count,
        mean_cosine=float(sum(cos_sums) / count),
        min_cosine=float(min(cos_mins)),
        max_abs_diff=float(max(diff_maxes)),
    )
